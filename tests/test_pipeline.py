import json
from pathlib import Path

import pytest

from spanscope import cli
from spanscope.align import PathCache
from spanscope.cscfg import Cscfg, FunctionRef, build_cscfg
from spanscope.harness import SystemSpec, generate_system, generate_traces, make_default_faults
from spanscope.mapping import build_map
from spanscope.model import Span, serialize_trace, span_from_dict
from spanscope.pipeline import SamplingPipeline
from spanscope.reconstruct import structural_fidelity
from spanscope.sampler import SamplingConfig

from .conftest import single_function_doc

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
    pipeline = SamplingPipeline(graph, build_map(graph), SamplingConfig(ratio=0.3))
    results = []
    for t in traces:
        if not use_cache:
            pipeline.cache = PathCache()  # nothing aligned earlier is reused
        results.append(pipeline.process(t))
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
    subtrees = cached_run[2]["subtree_cache"]
    assert subtrees["hits"] > 0 and subtrees["misses"] > 0
    # the report reads the last trace's fresh cache
    assert plain_run[2]["path_cache"] == {"hits": 0, "misses": 1}


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
    assert ", subtree hits " in line


def write_cli_inputs(workload, tmp_path, n):
    """Graph artifact and trace file for the first n traces; returns their paths."""
    doc, traces = workload
    graph_path, trace_path = tmp_path / "graph.json", tmp_path / "traces.ndjson"
    build_cscfg(doc).freeze().save_artifact(str(graph_path))
    trace_path.write_text("".join(serialize_trace(t) + "\n" for t in traces[:n]),
                          encoding="utf-8")
    return str(graph_path), str(trace_path)


def test_sample_command_prints_the_stored_bytes_ratio(workload, tmp_path, capsys):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 50)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("stored bytes ratio "))
    stored = sum((out / name).stat().st_size for name in ("decisions.ndjson", "kept.ndjson"))
    assert line.split()[3] == f"{stored / Path(trace_path).stat().st_size:.4f}"


def test_sample_command_repeats_byte_identical(workload, tmp_path):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 100)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                         "--out", str(out)]) == 0
        outputs.append((out / "decisions.ndjson").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 100


def test_sample_then_reconstruct_weights_duration_error_by_inferred_spans(
        workload, tmp_path):
    n = 150
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, n)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out), "--ratio", "0.3"]) == 0
    timing_keys = [line.split()[0] for line in (out / "timing.txt").read_text().splitlines()]
    assert timing_keys[:4] == ["traces", "per_trace_ms", "partition_side_s",
                               "selection_side_s"]
    assert set(timing_keys[4:]) == {"stage"}
    assert cli.main(["reconstruct", "--graph", graph_path,
                     "--decisions", str(out / "decisions.ndjson"),
                     "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                     "--traces", trace_path, "--out", str(out)]) == 0
    fidelity = json.loads((out / "fidelity.json").read_text())

    doc, traces = workload
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=0.3))
    results = [pipeline.process(t) for t in traces[:n]]
    stats = pipeline.stats_snapshot()
    reports = [structural_fidelity(r.trace, pipeline.reconstruct_result(r, stats), mapping)
               for r in results]
    err_sum = sum(r.duration_error * r.inferred_count for r in reports)
    inferred = sum(r.inferred_count for r in reports)
    weighted = err_sum / inferred
    # the per-trace mean differs here, so the check tells the two apart
    assert round(weighted, 6) != round(sum(r.duration_error for r in reports) / n, 6)
    assert fidelity["mean_duration_error"] == round(weighted, 6)


@pytest.mark.parametrize("flag", [["--workers", "2"], ["--seed", "1"]])
def test_sample_rejects_removed_flags(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--graph", "g", "--traces", "t", "--out", str(tmp_path)] + flag)
    assert exc.value.code == 2


def test_reconstruct_rates_only_the_traces_it_compared(workload, tmp_path, capsys):
    n = 100
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, n)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out), "--ratio", "0.3"]) == 0
    lines = Path(trace_path).read_text(encoding="utf-8").splitlines(keepends=True)
    half, none = tmp_path / "half.ndjson", tmp_path / "none.ndjson"
    half.write_text("".join(lines[:n // 2]), encoding="utf-8")
    none.write_text("".join(serialize_trace(t) + "\n" for t in workload[1][n:n + 5]),
                    encoding="utf-8")

    def reconstruct(originals, dest):
        return cli.main(["reconstruct", "--graph", graph_path,
                         "--decisions", str(out / "decisions.ndjson"),
                         "--kept", str(out / "kept.ndjson"),
                         "--stats", str(out / "stats.json"),
                         "--traces", str(originals), "--out", str(dest)])

    assert reconstruct(half, tmp_path / "half") == 0
    fidelity = json.loads((tmp_path / "half" / "fidelity.json").read_text())
    assert fidelity["structure_exact_rate"] == 1.0
    assert "structure_exact_rate 1.0" in capsys.readouterr().out
    # none of the sampled traces in the file: nothing to rate
    assert reconstruct(none, tmp_path / "none") == 0
    assert not (tmp_path / "none" / "fidelity.json").exists()
    assert "structure_exact_rate" not in capsys.readouterr().out


@pytest.mark.parametrize("value,code", [("3.0", 0), ("high", 2), ([3.0], 2)])
def test_sample_converts_the_fixed_threshold(workload, tmp_path, capsys, value, code):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 20)

    def sample(threshold, dest):
        config = tmp_path / f"{dest}.json"
        config.write_text(json.dumps({"fixed_threshold": threshold}), encoding="utf-8")
        return cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                         "--out", str(tmp_path / dest), "--config", str(config)])

    assert sample(value, "given") == code
    if code:
        assert capsys.readouterr().err.startswith("config error: ")
    else:
        assert sample(3.0, "float") == 0
        decisions = [(tmp_path / d / "decisions.ndjson").read_bytes() for d in ("given", "float")]
        assert decisions[0] == decisions[1]


def test_reconstruct_names_the_malformed_kept_line(workload, tmp_path, capsys):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    good = (out / "kept.ndjson").read_text(encoding="utf-8").splitlines()[0]
    bad_lines = ['{"trace_id": "t", "spans": [', '{"spans": []}', '[1, 2]',
                 '{"trace_id": "t", "spans": 5}', '{"trace_id": "t", "spans": [{"span_id": 1}]}']
    for bad in bad_lines:
        kept = tmp_path / "kept.ndjson"
        kept.write_text(f"{good}\n\n{bad}\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["reconstruct", "--graph", graph_path,
                         "--decisions", str(out / "decisions.ndjson"), "--kept", str(kept),
                         "--stats", str(out / "stats.json"), "--out", str(out)]) == 1, bad
        assert capsys.readouterr().err.startswith(f"error: {kept}:3: "), bad


def test_reconstruct_checks_each_kept_record_against_its_decision(workload, tmp_path, capsys):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    lines = (out / "kept.ndjson").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    variants = {
        "a span missing": dict(record, spans=record["spans"][:-1]),
        "a span twice": dict(record, spans=record["spans"] + record["spans"][:1]),
        "no record": None,
    }
    decisions = out / "decisions.ndjson"
    for name, changed in variants.items():
        kept = tmp_path / "kept.ndjson"
        second = [] if changed is None else [json.dumps(changed)]
        kept.write_text("\n".join(lines[:1] + second + lines[2:]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["reconstruct", "--graph", graph_path, "--decisions", str(decisions),
                         "--kept", str(kept), "--stats", str(out / "stats.json"),
                         "--out", str(tmp_path / "rebuilt")]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: {decisions}:2: "), name
        assert repr(record["trace_id"]) in err and str(kept) in err, name


def reconstruct_with_kept(graph_path, out, kept_lines, tmp_path):
    """Runs reconstruct on out's decisions and the given kept lines; returns
    the exit code, the kept file and the rebuilt lines written."""
    kept = tmp_path / "kept.ndjson"
    kept.write_text("\n".join(kept_lines) + "\n", encoding="utf-8")
    dest = tmp_path / "rebuilt"
    code = cli.main(["reconstruct", "--graph", graph_path,
                     "--decisions", str(out / "decisions.ndjson"), "--kept", str(kept),
                     "--stats", str(out / "stats.json"), "--out", str(dest)])
    return code, kept, (dest / "reconstructed.ndjson").read_text(encoding="utf-8").splitlines()


def test_reconstruct_keeps_the_lines_rebuilt_before_a_bad_kept_line(workload, tmp_path,
                                                                     capsys):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 3)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    lines = (out / "kept.ndjson").read_text(encoding="utf-8").splitlines()
    code, kept, rebuilt = reconstruct_with_kept(
        graph_path, out, [lines[0], '{"trace_id": "t", "spans": [', lines[2]], tmp_path)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {kept}:2: bad kept-spans record: ")
    # the kept file is read in step with the decisions, so the first trace was rebuilt
    assert [json.loads(line)["trace_id"] for line in rebuilt] == [json.loads(lines[0])["trace_id"]]


def test_reconstruct_names_both_files_for_swapped_kept_lines(workload, tmp_path, capsys):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 3)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    lines = (out / "kept.ndjson").read_text(encoding="utf-8").splitlines()
    first, second = (json.loads(line)["trace_id"] for line in lines[:2])
    code, kept, rebuilt = reconstruct_with_kept(graph_path, out, [lines[1], lines[0], lines[2]],
                                                tmp_path)
    assert code == 1 and rebuilt == []
    assert capsys.readouterr().err == (
        f"error: {out / 'decisions.ndjson'}:1: trace {first!r} meets the kept record of "
        f"trace {second!r} at {kept}:1\n")


def test_reconstruct_names_the_malformed_decision_line(workload, tmp_path, capsys):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    good = (out / "decisions.ndjson").read_text(encoding="utf-8").splitlines()[0]
    for bad in ['{"kept": []}', '{"trace_id": "t", "kept": [', '[1, 2]',
                '{"trace_id": ["t"], "kept": []}', '{"trace_id": "t", "kept": [], "entry": {}}',
                # no fork records: rebuild has no other way to the path
                '{"trace_id": "t", "kept": [], "entry": "svc:A.f"}']:
        decisions = tmp_path / "decisions.ndjson"
        decisions.write_text(f"{good}\n\n{bad}\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["reconstruct", "--graph", graph_path, "--decisions", str(decisions),
                         "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                         "--out", str(out)]) == 1, bad
        assert capsys.readouterr().err.startswith(
            f"error: {decisions}:3: bad decision record: "), bad


@pytest.mark.parametrize("field,value", [("forks", "b3"), ("forks", [1]), ("kept", [None]),
                                         ("kept", "s1")],
                         ids=["forks-string", "forks-int", "kept-null", "kept-string"])
def test_reconstruct_names_a_decision_whose_forks_or_kept_are_not_strings(
        workload, tmp_path, capsys, field, value):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 3)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    lines = (out / "decisions.ndjson").read_text(encoding="utf-8").splitlines()
    bad = json.dumps(dict(json.loads(lines[1]), **{field: value}))
    decisions = tmp_path / "decisions.ndjson"
    decisions.write_text("\n".join([lines[0], bad, lines[2]]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["reconstruct", "--graph", graph_path, "--decisions", str(decisions),
                     "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                     "--out", str(tmp_path / "rebuilt")]) == 1
    assert capsys.readouterr().err == (f"error: {decisions}:2: bad decision record: "
                                       f"TypeError: forks and kept must be lists of strings\n")


def test_reconstruct_refuses_kept_records_past_the_last_decision(workload, tmp_path, capsys):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    lines = (out / "decisions.ndjson").read_text(encoding="utf-8").splitlines()
    decisions = tmp_path / "decisions.ndjson"
    decisions.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
    kept = out / "kept.ndjson"
    dest = tmp_path / "rebuilt"
    capsys.readouterr()
    assert cli.main(["reconstruct", "--graph", graph_path, "--decisions", str(decisions),
                     "--kept", str(kept), "--stats", str(out / "stats.json"),
                     "--out", str(dest)]) == 1
    fourth = json.loads(kept.read_text(encoding="utf-8").splitlines()[3])["trace_id"]
    assert capsys.readouterr().err == (
        f"error: {kept}:4: the kept record of trace {fourth!r} follows the last decision "
        f"in {decisions}\n")
    # the three traces with a decision were rebuilt and stay written
    rebuilt = (dest / "reconstructed.ndjson").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["trace_id"] for line in rebuilt] == \
        [json.loads(line)["trace_id"] for line in lines[:3]]


def misplaced_at(record, kept_record, mapping):
    """record's "at" with one mapped kept span moved to call 0, a call of
    the entry function and not of its own, or None when record has no such
    span or keeps a mapped span at call 0 already."""
    functions = {s["span_id"]: mapping.resolve(span_from_dict(s, record["trace_id"]))
                 for s in kept_record["spans"]}
    mapped = [(k, i) for k, (sid, i) in enumerate(zip(record["kept"], record["at"]))
              if isinstance(functions[sid], FunctionRef)]
    if any(i == 0 for _k, i in mapped):
        return None
    for k, _i in mapped:
        if functions[record["kept"][k]].key != record["entry"]:
            return record["at"][:k] + [0] + record["at"][k + 1:]
    return None


# each changes "at" of one decision, and the error text it gives
BAD_AT = {
    "missing": (lambda at, moved: None, "bad decision record: KeyError: 'at'"),
    "not-a-list": (lambda at, moved: 3, 'bad decision record: TypeError: "at" must be a list'),
    "bool": (lambda at, moved: [True] + at[1:], 'TypeError: "at" must be a list'),
    "negative": (lambda at, moved: at[:-1] + [-1], 'TypeError: "at" must be a list'),
    "float": (lambda at, moved: at[:-1] + [1.5], 'TypeError: "at" must be a list'),
    "short": (lambda at, moved: at[:-1], 'TypeError: "at" must be a list'),
    "past-the-calls": (lambda at, moved: at[:-1] + [10_000], "outside the"),
    "another-function": (lambda at, moved: moved, ", a call of "),
}


@pytest.mark.parametrize("change", sorted(BAD_AT))
def test_reconstruct_names_a_decision_whose_recorded_calls_do_not_fit(
        workload, tmp_path, capsys, change):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 20)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out), "--ratio", "0.3"]) == 0
    lines = (out / "decisions.ndjson").read_text(encoding="utf-8").splitlines()
    kept_lines = (out / "kept.ndjson").read_text(encoding="utf-8").splitlines()
    mapping = build_map(Cscfg.load_artifact(graph_path))
    # the first decision with a mapped kept span that can be moved
    k, record, moved = next(
        (k, record, moved) for k, record in enumerate(map(json.loads, lines))
        if (moved := misplaced_at(record, json.loads(kept_lines[k]), mapping)) is not None)
    make, text = BAD_AT[change]
    at = make(record["at"], moved)
    bad = {key: value for key, value in record.items() if key != "at"}
    if at is not None:
        bad["at"] = at
    decisions = tmp_path / "decisions.ndjson"
    decisions.write_text("\n".join(lines[:k] + [json.dumps(bad)] + lines[k + 1:]) + "\n",
                         encoding="utf-8")
    dest = tmp_path / "rebuilt"
    capsys.readouterr()
    assert cli.main(["reconstruct", "--graph", graph_path, "--decisions", str(decisions),
                     "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                     "--out", str(dest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {decisions}:{k + 1}: ") and text in err, err
    # the decisions before it were rebuilt and stay written
    rebuilt = (dest / "reconstructed.ndjson").read_text(encoding="utf-8").splitlines()
    assert len(rebuilt) == k


# each appends one fork to a decision's record, and the error text it gives
BAD_EDITS = {
    "one-item": ([0], "bad decision record: TypeError: fork [0] is not an edit"),
    "four-items": ([0, 1, "svc:A.f", 2], "TypeError: fork [0, 1, 'svc:A.f', 2] is not an edit"),
    "object": ({"parent": 0}, "TypeError: forks and kept must be lists of strings"),
    "bool-index": ([0, True], "TypeError: fork [0, True] is not an edit"),
    "negative-parent": ([-1, 1], "TypeError: fork [-1, 1] is not an edit"),
    "float-index": ([0, 1.0], "TypeError: fork [0, 1.0] is not an edit"),
    "string-index": ([0, "1"], "TypeError: fork [0, '1'] is not an edit"),
    "key-not-a-string": ([0, 1, 5], "TypeError: fork [0, 1, 5] is not an edit"),
    "parent-never-walked": ([999, 1, "svc:A.f"],
                            "recorded edit [999, 1, 'svc:A.f'] names call 999, "
                            "which the walk never enters"),
    "left-unused": ([0, 999], "recorded edit [0, 999] is left unused"),
}


@pytest.mark.parametrize("case", sorted(BAD_EDITS))
def test_reconstruct_names_a_decision_whose_edits_do_not_fit(workload, tmp_path, capsys, case):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 3)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    lines = (out / "decisions.ndjson").read_text(encoding="utf-8").splitlines()
    edit, text = BAD_EDITS[case]
    record = json.loads(lines[1])
    record["forks"].append(edit)
    decisions = tmp_path / "decisions.ndjson"
    decisions.write_text("\n".join([lines[0], json.dumps(record), lines[2]]) + "\n",
                         encoding="utf-8")
    dest = tmp_path / "rebuilt"
    capsys.readouterr()
    assert cli.main(["reconstruct", "--graph", graph_path, "--decisions", str(decisions),
                     "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                     "--out", str(dest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {decisions}:2: ") and text in err, err
    assert len((dest / "reconstructed.ndjson").read_text(encoding="utf-8").splitlines()) == 1


def test_reconstruct_builds_no_span_per_rebuilt_call(workload, tmp_path, monkeypatch):
    """Without --traces nothing reads a rebuilt trace's span objects, so the
    only spans made are the kept spans parsed from kept.ndjson."""
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 50)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out), "--ratio", "0.3"]) == 0
    kept_lines = (out / "kept.ndjson").read_text(encoding="utf-8").splitlines()
    kept_ids = [s["span_id"] for line in kept_lines for s in json.loads(line)["spans"]]
    built = []
    init = Span.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["span_id"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting_init)
    assert cli.main(["reconstruct", "--graph", graph_path,
                     "--decisions", str(out / "decisions.ndjson"),
                     "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                     "--out", str(tmp_path / "rebuilt")]) == 0
    monkeypatch.undo()
    rebuilt = (tmp_path / "rebuilt" / "reconstructed.ndjson").read_text(encoding="utf-8")
    assert rebuilt.count("\n") == len(kept_lines)
    assert rebuilt.count('"origin":"inferred"') > 0
    assert built == kept_ids


@pytest.mark.parametrize("config", [{"n_services": "4"}, {"n_services": 4.5},
                                    {"n_traces": "many"}, {"n_services": True},
                                    {"n_functions_per_service": True},
                                    {"max_call_depth": True}])
def test_eval_rejects_mistyped_config_values(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["eval", "--out", str(tmp_path / "out"), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert next(iter(config)) in err


@pytest.mark.parametrize("n_traces", [-5, 0, 2.5, True, "many"])
def test_eval_requires_a_positive_integer_trace_count(tmp_path, capsys, n_traces):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_traces": n_traces}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["eval", "--out", str(out), "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: n_traces ")
    assert not out.exists()
    if isinstance(n_traces, int) and not isinstance(n_traces, bool):
        assert cli.main(["eval", "--out", str(out), "--n", str(n_traces)]) == 2
        assert capsys.readouterr().err.startswith("config error: n_traces ")


def test_stats_export_writes_the_snapshot_sample_writes(workload, tmp_path):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 30)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    exported = tmp_path / "exported.json"
    assert cli.main(["stats-export", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(exported)]) == 0
    assert exported.read_bytes() == (out / "stats.json").read_bytes()


@pytest.mark.parametrize("fault", ["truncated", "dangling-parent", "bool-time"])
@pytest.mark.parametrize("command", ["sample", "stats-export", "reconstruct"])
def test_a_bad_trace_line_is_named_by_file_and_line(workload, tmp_path, capsys, command,
                                                    fault):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 50)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    lines = Path(trace_path).read_text(encoding="utf-8").splitlines(keepends=True)
    if fault == "truncated":
        lines[20] = lines[20][:len(lines[20]) // 2] + "\n"
    else:
        record = json.loads(lines[20])
        if fault == "bool-time":
            record["spans"][1]["start_time"] = True
        else:
            record["spans"][1]["parent_id"] = "no-such-span"
        lines[20] = json.dumps(record) + "\n"
    bad = tmp_path / "bad.ndjson"
    bad.write_text("".join(lines), encoding="utf-8")
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(workload[0]), encoding="utf-8")
    argv = {
        "sample": ["sample", "--graph", graph_path, "--traces", str(bad),
                   "--out", str(tmp_path / "again")],
        "stats-export": ["stats-export", "--graph", graph_path, "--traces", str(bad),
                         "--out", str(tmp_path / "stats.json")],
        "reconstruct": ["reconstruct", "--graph", graph_path,
                        "--decisions", str(out / "decisions.ndjson"),
                        "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                        "--traces", str(bad), "--out", str(tmp_path / "rebuilt")],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    error = "InvariantViolationError" if fault == "dangling-parent" else "MalformedDocumentError"
    assert err.startswith(f"error: {bad}:21: bad trace record: {error}: "), err


def assert_names_the_bad_file(capsys, code, path):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err, err


@pytest.mark.parametrize("stats", [
    '{"kind": "stats-snapshot", "keys": {"k": {"count": 3, "std": 1.0}}}',
    '{"kind": "stats-snapshot", "keys": {"k": {"count": 3, "mean": true, "std": 1.0}}}',
    '{"kind": "stats-snapshot", "keys": {"k": 5}}',
    '{"kind": "stats-snapshot", "keys": []}',
    '{"kind": "stats-snapshot", "keys": {',
], ids=["no-mean", "bool-mean", "entry-not-object", "keys-list", "bad-json"])
def test_reconstruct_names_a_malformed_stats_file(workload, tmp_path, capsys, stats):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    bad = tmp_path / "stats.json"
    bad.write_text(stats, encoding="utf-8")
    capsys.readouterr()
    code = cli.main(["reconstruct", "--graph", graph_path,
                     "--decisions", str(out / "decisions.ndjson"),
                     "--kept", str(out / "kept.ndjson"), "--stats", str(bad),
                     "--out", str(tmp_path / "rebuilt")])
    assert_names_the_bad_file(capsys, code, bad)


@pytest.mark.parametrize("artifact", [
    '{"schema_version": 1, "kind": "cscfg-artifact", "external_functions": [], "graphs": []}',
    '{"schema_version": 1, "kind": "cscfg-artifact", "functions": [',
], ids=["no-functions", "bad-json"])
def test_sample_names_a_malformed_graph_artifact(workload, tmp_path, capsys, artifact):
    _graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    bad = tmp_path / "bad-graph.json"
    bad.write_text(artifact, encoding="utf-8")
    code = cli.main(["sample", "--graph", str(bad), "--traces", trace_path,
                     "--out", str(tmp_path / "out")])
    assert_names_the_bad_file(capsys, code, bad)


@pytest.mark.parametrize("entries", [
    '[{"class_name": "", "function_name": "f"}]',
    '[{"class_name": "Lib", "function_name": 5}]',
    '[{"class_name": "Lib", ',
], ids=["empty-class", "function-not-string", "bad-json"])
def test_sample_names_a_malformed_shared_dictionary(workload, tmp_path, capsys, entries):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    bad = tmp_path / "shared.json"
    bad.write_text(entries, encoding="utf-8")
    code = cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--shared-dict", str(bad), "--out", str(tmp_path / "out")])
    assert_names_the_bad_file(capsys, code, bad)


def config_command(command, graph_path, trace_path, out):
    """The argv of a small run of one of the commands that read --config."""
    return {"sample": ["sample", "--graph", graph_path, "--traces", trace_path, "--out", out],
            "stats-export": ["stats-export", "--graph", graph_path, "--traces", trace_path,
                             "--out", out],
            "eval": ["eval", "--out", out, "--n", "5"]}[command]


@pytest.mark.parametrize("command", ["sample", "stats-export", "eval"])
@pytest.mark.parametrize("setting", ["--window 0", '{"lrs_horizon": 0}'])
def test_a_window_or_horizon_below_one_is_a_config_error(workload, tmp_path, capsys,
                                                         command, setting):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    argv = config_command(command, graph_path, trace_path, str(tmp_path / "out"))
    if setting.startswith("--"):
        argv += setting.split()
    else:
        config = tmp_path / "config.json"
        config.write_text(setting, encoding="utf-8")
        argv += ["--config", str(config)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("command", ["sample", "stats-export", "eval"])
def test_an_unknown_config_key_is_a_config_error(workload, tmp_path, capsys, command):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    out = tmp_path / "out"
    argv = config_command(command, graph_path, trace_path, str(out))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ratoi": 0.2}), encoding="utf-8")
    assert cli.main(argv + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'ratoi'" in err
    assert not out.exists()
    # one file serves all three commands, each reading only its own keys
    config.write_text(json.dumps({"seed": 3, "n_traces": 5, "ratio": 0.2, "window": 64}),
                      encoding="utf-8")
    assert cli.main(argv + ["--config", str(config)]) == 0


@pytest.mark.parametrize("edit", ["callees-int", "callees-not-all-strings", "edge-to-unknown",
                                  "block-id-list", "function-key-list", "entry-list",
                                  "edge-end-list", "dangling-callee", "blocks-int",
                                  "flow-edges-int", "external-int"])
def test_build_graph_names_a_malformed_call_graph_document(tmp_path, capsys, edit):
    doc, _meta = generate_system(SystemSpec(seed=5))
    fn = next(f for f in doc["functions"] if f.get("blocks"))
    if edit == "callees-int":
        fn["blocks"][0]["callees"] = 5
    elif edit == "callees-not-all-strings":
        fn["blocks"][0]["callees"] = ["x:A.b", 3]
    elif edit == "block-id-list":
        fn["blocks"][0]["id"] = ["x"]
    elif edit == "function-key-list":
        fn["function"] = [fn["function"]]
    elif edit == "entry-list":
        fn["entry"] = [fn["entry"]]
    elif edit == "edge-end-list":
        fn["flow_edges"].append([fn["blocks"][0]["id"], ["x"]])
    elif edit == "dangling-callee":
        fn["blocks"][0]["callees"] = ["svc:No.such"]
    elif edit == "blocks-int":
        fn["blocks"] = 5
    elif edit == "flow-edges-int":
        fn["flow_edges"] = 7
    elif edit == "external-int":
        doc["external_functions"] = 3
    else:
        fn["flow_edges"].append([fn["blocks"][0]["id"], "no-such-block"])
    bad = tmp_path / "doc.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["build-graph", "--graph", str(bad), "--out", str(tmp_path / "g.json")])
    if edit == "block-id-list":
        err = capsys.readouterr().err
        assert code == 1 and str(bad) in err
        assert f"{fn['function']}: block id ['x'] is not a string" in err, err
    else:
        assert_names_the_bad_file(capsys, code, bad)


def test_build_graph_prints_each_body_and_the_artifact(tmp_path, capsys):
    # Main.run calls Sub.known from one block; Sub.known has no body
    doc = single_function_doc(
        fn="svc:Main.run", blocks=[{"id": "b0", "callees": ["svc:Sub.known"]}],
        entry="b0", exits=["b0"], extra_functions=[{"function": "svc:Sub.known"}])
    doc_path, out = tmp_path / "doc.json", tmp_path / "g.json"
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["build-graph", "--graph", str(doc_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "svc:Main.run: 1 blocks, 1 mutual-dominance classes",
        f"artifact written to {out}",
    ]
    artifact = json.loads(out.read_text(encoding="utf-8"))
    main = next(g for g in artifact["graphs"] if g["function"] == "svc:Main.run")
    assert main["blocks"] == [{"id": "svc:Main.run#b0", "callees": ["svc:Sub.known"]}]
    assert main["edges"] == [["svc:Main.run#@entry", "svc:Main.run#b0"],
                             ["svc:Main.run#b0", "svc:Main.run#@exit"]]


@pytest.mark.parametrize("flag", [["--patch", "traces.ndjson"], ["--shared-dict", "d.json"]])
def test_build_graph_rejects_removed_flags(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["build-graph", "--graph", "doc.json", "--out", str(tmp_path / "g.json")]
                 + flag)
    assert exc.value.code == 2
