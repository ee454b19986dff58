import pytest

from spanscope import cli
from spanscope.cscfg import build_cscfg
from spanscope.harness import SystemSpec, generate_system, generate_traces, make_default_faults
from spanscope.mapping import build_map
from spanscope.model import serialize_trace
from spanscope.pipeline import SamplingPipeline
from spanscope.sampler import SamplingConfig

# many trace shapes and URL wrapper spans, so the trace-level cache misses
# often and the invocation-level cache does the work
SPEC = SystemSpec(seed=11, n_services=8, n_functions_per_service=8,
                  branch_probability=0.3, url_span_probability=0.1)
N_TRACES = 300


@pytest.fixture(scope="module")
def workload():
    doc, meta = generate_system(SPEC)
    graph = build_cscfg(doc)
    faults = make_default_faults(meta, N_TRACES)
    traces = [s.trace for s in generate_traces(graph, meta, SPEC, N_TRACES, faults)]
    return doc, traces


def run(workload, use_cache):
    """Decision and rebuilt-trace lines of one fresh pipeline, plus its report."""
    doc, traces = workload
    graph = build_cscfg(doc)
    pipeline = SamplingPipeline(graph, build_map(graph), SamplingConfig(ratio=0.3),
                                use_cache=use_cache)
    results = [pipeline.process(t) for t in traces]
    stats = pipeline.stats_snapshot()
    decisions = [r.decision.serialize() for r in results]
    rebuilt = [pipeline.reconstruct_result(r, stats).serialize() for r in results]
    return decisions, rebuilt, pipeline.timing_report()


@pytest.fixture(scope="module")
def cached_run(workload):
    return run(workload, use_cache=True)


@pytest.fixture(scope="module")
def plain_run(workload):
    return run(workload, use_cache=False)


def test_cache_does_not_change_decisions_or_rebuilds(cached_run, plain_run):
    assert cached_run[:2] == plain_run[:2]


def test_cached_runs_repeat(workload, cached_run):
    assert run(workload, use_cache=True)[:2] == cached_run[:2]


def test_timing_report_counts_both_cache_levels(cached_run, plain_run):
    paths, solves = cached_run[2]["path_cache"], cached_run[2]["solve_cache"]
    assert paths["hits"] + paths["misses"] == N_TRACES
    assert paths["misses"] > 0
    assert solves["hits"] > 0
    assert plain_run[2]["path_cache"] == {"hits": 0, "misses": 0}
    assert plain_run[2]["solve_cache"] == {"hits": 0, "misses": 0}


def test_sample_command_prints_cache_counters(workload, tmp_path, capsys):
    doc, traces = workload
    graph = build_cscfg(doc).freeze()
    graph.save_artifact(str(tmp_path / "graph.json"))
    trace_path = tmp_path / "traces.ndjson"
    trace_path.write_text("".join(serialize_trace(t) + "\n" for t in traces[:50]),
                          encoding="utf-8")
    code = cli.main(["sample", "--graph", str(tmp_path / "graph.json"),
                     "--traces", str(trace_path), "--out", str(tmp_path / "out")])
    assert code == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("align cache:"))
    assert line.startswith("align cache: trace hits ")
    assert "/50, invocation hits " in line
