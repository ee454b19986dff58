import dataclasses
import json
import random
from pathlib import Path

import pytest

from spanscope import cli
from spanscope.align import PathCache
from spanscope.cscfg import Cscfg, FunctionRef, build_cscfg
from spanscope.errors import InvalidSpecError
from spanscope.harness import SystemSpec, generate_system, generate_traces, make_default_faults
from spanscope.mapping import build_map
from spanscope.model import Span, parse_trace, serialize_trace
from spanscope.pipeline import DominantSpanSet, SamplingPipeline
from spanscope.reconstruct import fidelity_means, structural_fidelity
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


def test_emptying_the_resolution_memo_changes_no_decision(workload, cached_run, monkeypatch):
    """The pipeline's memo of each (service, operation) pair's resolution is
    emptied whenever a trace would take it past its capacity."""
    import spanscope.pipeline as pipeline_mod

    monkeypatch.setattr(pipeline_mod, "RESOLVE_MEMO_CAPACITY", 5)
    doc, traces = workload
    graph = build_cscfg(doc)
    pipeline = SamplingPipeline(graph, build_map(graph), SamplingConfig(ratio=0.3))
    decisions = []
    for t in traces:
        decisions.append(pipeline.process(t).decision.serialize())
        assert len(pipeline._resolved) <= max(5, len(t))
    assert decisions == cached_run[0]


def test_sampling_a_parsed_trace_builds_no_span(workload, cached_run, monkeypatch):
    """parse_trace reads a line into columns and the pipeline reads them by
    position, so sampling a line builds no Span, and decides as it does
    on a trace built from spans."""
    doc, traces = workload
    lines = [serialize_trace(t) for t in traces]
    graph = build_cscfg(doc)
    pipeline = SamplingPipeline(graph, build_map(graph), SamplingConfig(ratio=0.3))
    built = []
    init = Span.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["span_id"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting_init)
    decisions = [pipeline.process(parse_trace(line)).decision.serialize() for line in lines]
    monkeypatch.undo()
    assert built == []
    assert decisions == cached_run[0]


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
    graph = build_cscfg(doc)
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
    build_cscfg(doc).save_artifact(str(graph_path))
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
    assert timing_keys[:2] == ["traces", "per_trace_ms"]
    assert set(timing_keys[2:]) == {"stage"}
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


@pytest.mark.parametrize("order", ["sampled", "shuffled", "extra"])
def test_reconstruct_reads_the_trace_file_in_step_in_any_order(workload, tmp_path, order):
    """The rebuilt lines and the fidelity report do not depend on the order
    of the trace file, nor on traces that no decision names."""
    n = 100
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, n)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out), "--ratio", "0.3"]) == 0
    lines = Path(trace_path).read_text(encoding="utf-8").splitlines(keepends=True)
    if order == "shuffled":
        random.Random(3).shuffle(lines)
    elif order == "extra":
        extra = [serialize_trace(t) + "\n" for t in workload[1][n:n + 60]]
        # five before the first trace, one after each of the first 50 and
        # five after the last
        lines = extra[:5] + [line for pair in zip(lines, extra[5:55]) for line in pair] + \
            lines[50:] + extra[55:]
    originals = tmp_path / "originals.ndjson"
    originals.write_text("".join(lines), encoding="utf-8")

    def reconstruct(dest, traces=()):
        assert cli.main(["reconstruct", "--graph", graph_path,
                         "--decisions", str(out / "decisions.ndjson"),
                         "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                         "--out", str(tmp_path / dest), *traces]) == 0
        return tmp_path / dest

    got = reconstruct("got", ["--traces", str(originals)])
    plain = reconstruct("plain")
    assert (got / "reconstructed.ndjson").read_bytes() == \
        (plain / "reconstructed.ndjson").read_bytes()

    doc, traces = workload
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=0.3))
    results = [pipeline.process(t) for t in traces[:n]]
    stats = pipeline.stats_snapshot()
    exact, error = fidelity_means([
        structural_fidelity(r.trace, pipeline.reconstruct_result(r, stats), mapping)
        for r in results])
    expected = {"mean_duration_error": round(error, 6), "structure_exact_rate": round(exact, 6)}
    assert json.loads((got / "fidelity.json").read_text()) == expected
    assert (got / "fidelity.json").read_text() == json.dumps(expected, indent=1) + "\n"


def test_the_trace_file_holds_only_the_traces_read_ahead_of_their_decision(workload,
                                                                              tmp_path):
    _graph_path, trace_path = write_cli_inputs(workload, tmp_path, 4)
    ids = [t.trace_id for t in workload[1][:4]]
    reader = cli._TraceFile(trace_path)
    try:
        assert reader.take(ids[2]).trace_id == ids[2]
        assert sorted(reader._ahead) == sorted(ids[:2])
        assert reader.take(ids[0]).trace_id == ids[0]
        assert list(reader._ahead) == [ids[1]]
        assert reader.take(ids[0]) is None  # taken once, then dropped; the rest read
        assert sorted(reader._ahead) == sorted([ids[1], ids[3]])
        assert reader.take(ids[3]).trace_id == ids[3]
        assert reader.take(ids[1]).trace_id == ids[1]
        assert reader._ahead == {}
    finally:
        reader.close()


# values that are no JSON number of a key's type: an integer key also
# refuses a float, a whole one too
MISTYPED = {int: [("true", True), ("string", "1"), ("null", None), ("list", [1]),
                  ("fraction", 1.5), ("whole-float", 2.0)],
            float: [("true", True), ("string", "1"), ("null", None), ("list", [1])]}
SAMPLING_KEYS = [f.name for f in dataclasses.fields(SamplingConfig)]
# more configs, each refused by the same rule: a fraction and words that
# read as no number
MORE_MISTYPED = [("sample", "window", "fraction-8.5", 8.5), ("eval", "window", "fraction-8.5", 8.5),
                 ("eval", "n_services", "string-4", "4"), ("eval", "n_services", "fraction-4.5", 4.5),
                 ("eval", "n_traces", "fraction-2.5", 2.5), ("eval", "n_traces", "word", "many"),
                 ("eval", "seed", "word", "abc")]


@pytest.mark.parametrize("command,key,value", [
    pytest.param(command, key, value, id=f"{command}-{key}-{label}")
    for command in ("sample", "eval") for key, kind in cli._CONFIG_KEYS.items()
    for label, value in MISTYPED[kind] if command == "eval" or key in SAMPLING_KEYS] + [
    pytest.param(command, key, value, id=f"{command}-{key}-{label}")
    for command, key, label, value in MORE_MISTYPED])
def test_a_config_value_not_a_number_of_its_type_is_refused(workload, tmp_path, capsys,
                                                            command, key, value):
    """One rule for every key of the table, read when the file is read, so
    nothing is converted and nothing is written."""
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    out = tmp_path / "out"
    argv = config_command(command, graph_path, trace_path, str(out))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    assert cli.main(argv + ["--config", str(config)]) == 2
    kind = "an integer" if cli._CONFIG_KEYS[key] is int else "a number"
    assert capsys.readouterr().err == (f"config error: {key} must be {kind}, "
                                       f"got {json.dumps(value)}\n")
    assert not out.exists()


def test_eval_reads_the_ratio_of_its_config_file_as_of_its_flag(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"ratio": 0.6}), encoding="utf-8")

    def eval_output(*argv):
        assert cli.main(["eval", "--n", "200", "--out", str(tmp_path / "out"), *argv]) == 0
        return capsys.readouterr().out

    from_file = eval_output("--config", str(config))
    assert "ratio_requested 0.600000" in from_file.splitlines()
    assert from_file == eval_output("--ratio", "0.6")
    both = eval_output("--ratio", "0.4", "--config", str(config))
    assert "ratio_requested 0.400000" in both.splitlines()


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
    functions = {s["span_id"]: mapping.resolve(s["service"], s["operation"])
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


@pytest.mark.parametrize("key", [":X.y", "svc:.y", "svc:C."])
def test_reconstruct_names_a_decision_that_inserts_a_key_with_an_empty_part(
        workload, tmp_path, capsys, key):
    """An edit that inserts a call of a key that does not parse is a bad
    decision: the rebuild fails when it fills that call, and the run
    names the decision's line."""
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 3)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    lines = (out / "decisions.ndjson").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    # the call is inserted right after the root, so every later call moves by one
    record["forks"].insert(0, [0, 1, key])
    record["at"] = [i + 1 if i else 0 for i in record["at"]]
    decisions = tmp_path / "decisions.ndjson"
    decisions.write_text("\n".join([lines[0], json.dumps(record), lines[2]]) + "\n",
                         encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["reconstruct", "--graph", graph_path, "--decisions", str(decisions),
                     "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                     "--out", str(tmp_path / "rebuilt")]) == 1
    assert capsys.readouterr().err == (
        f"error: {decisions}:2: trace {record['trace_id']!r}: function key {key!r} "
        f"has an empty part\n")


def test_reconstruct_names_the_first_bad_inserted_key_in_preorder(workload, tmp_path, capsys):
    """Of two inserted keys that do not parse, the rebuild names the one at
    the earlier call, as every other rebuild check names the first fault
    on the path."""
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 3)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    lines = (out / "decisions.ndjson").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    # calls 1 and 2 are inserted right after the root, so every later call moves by two
    record["forks"][:0] = [[0, 1, ":X.y"], [0, 2, "svc:.y"]]
    record["at"] = [i + 2 if i else 0 for i in record["at"]]
    decisions = tmp_path / "decisions.ndjson"
    decisions.write_text("\n".join([lines[0], json.dumps(record), lines[2]]) + "\n",
                         encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["reconstruct", "--graph", graph_path, "--decisions", str(decisions),
                     "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                     "--out", str(tmp_path / "rebuilt")]) == 1
    assert capsys.readouterr().err == (
        f"error: {decisions}:2: trace {record['trace_id']!r}: function key ':X.y' "
        f"has an empty part\n")


def test_sample_command_builds_no_span(workload, tmp_path, monkeypatch):
    """sample parses each line into columns, decides on them and writes
    each kept line from them, so the whole command builds no Span."""
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 50)
    out = tmp_path / "out"
    built = []
    init = Span.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["span_id"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting_init)
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out), "--ratio", "0.3"]) == 0
    monkeypatch.undo()
    assert built == []
    kept_lines = (out / "kept.ndjson").read_text(encoding="utf-8").splitlines()
    assert len(kept_lines) == 50 and all(json.loads(line)["spans"] for line in kept_lines)


def test_sample_command_builds_no_dominant_span_set(workload, tmp_path, monkeypatch):
    """Selection reads the aligned path's slots, so sample names no set by
    span id."""
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 50)
    built = []
    init = DominantSpanSet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DominantSpanSet, "__init__", counting_init)
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(tmp_path / "out"), "--ratio", "0.3"]) == 0
    assert built == []
    assert (tmp_path / "out" / "decisions.ndjson").read_text(encoding="utf-8").count("\n") == 50


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


@pytest.mark.parametrize("fields", [{"max_call_depth": 1}, {"n_functions_per_service": 1},
                                    {"n_services": 1, "n_functions_per_service": 1}])
def test_eval_refuses_a_spec_that_cannot_place_a_branch(tmp_path, capsys, fields):
    # the entry places the first branch, and here it has no function to call
    with pytest.raises(InvalidSpecError, match="branch_probability"):
        SystemSpec(**fields).validate()
    assert generate_system(SystemSpec(**fields, branch_probability=0.0))[1].fork_probs == {}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["eval", "--out", str(out), "--config", str(path), "--n", "5"]) == 2
    assert capsys.readouterr().err.startswith("config error: branch_probability ")
    assert not out.exists()


@pytest.mark.parametrize("seed", range(5))
def test_every_spec_that_validates_with_branches_gets_one(seed):
    rng = random.Random(seed)
    spec = SystemSpec(seed=seed, n_services=rng.randint(1, 3),
                      n_functions_per_service=rng.randint(2, 4),
                      max_call_depth=rng.randint(2, 4), branch_probability=0.001)
    spec.validate()
    assert generate_system(spec)[1].fork_probs


def test_eval_repeats_byte_identical_apart_from_timing(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["eval", "--n", "200", "--seed", "7", "--out", str(out)]) == 0
        runs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(runs[0]) == sorted(runs[1]) and "timing.txt" in runs[0]
    for name in sorted(runs[0]):
        if name != "timing.txt":
            assert runs[0][name] == runs[1][name], name


@pytest.mark.parametrize("n_traces", [-5, 0])
def test_eval_requires_a_positive_integer_trace_count(tmp_path, capsys, n_traces):
    # a value not an integer is a case of the type rule's table test
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_traces": n_traces}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["eval", "--out", str(out), "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: n_traces ")
    assert not out.exists()
    assert cli.main(["eval", "--out", str(out), "--n", str(n_traces)]) == 2
    assert capsys.readouterr().err.startswith("config error: n_traces ")


@pytest.mark.parametrize("fault", ["truncated", "dangling-parent", "bool-time"])
@pytest.mark.parametrize("command", ["sample", "reconstruct"])
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


# named: what the message must also name, beyond the file
@pytest.mark.parametrize("stats, named", [
    ('{"kind": "stats-snapshot", "keys": {"k": {"count": 3, "std": 1.0}}}', "'k'"),
    ('{"kind": "stats-snapshot", "keys": {"k": {"count": 3, "mean": true, "std": 1.0}}}', "'k'"),
    ('{"kind": "stats-snapshot", "keys": {"k": 5}}', "'k'"),
    ('{"kind": "stats-snapshot", "keys": []}', "keys"),
    ('{"kind": "stats-snapshot", "keys": {', "bad statistics snapshot"),
    ('{"kind": "stats-snapshot", "keys": {"k": {"count": -7, "mean": 2.0, "std": 1.0}}}',
     "'k': count must be an integer >= 0, not -7"),
    ('{"kind": "stats-snapshot", "keys": {"k": {"count": 3.5, "mean": 2.0, "std": 1.0}}}',
     "'k': count must be an integer >= 0, not 3.5"),
    ('{"kind": "stats-snapshot", "keys": {"k": {"count": 7, "mean": 2.0, "std": -3.5}}}',
     "'k': std must be >= 0, not -3.5"),
], ids=["no-mean", "bool-mean", "entry-not-object", "keys-list", "bad-json",
        "negative-count", "fraction-count", "negative-std"])
def test_reconstruct_names_a_malformed_stats_file(workload, tmp_path, capsys, stats, named):
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
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: {bad}: ") and named in err, err


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


# each JSON reader of the CLI, the command that reaches it with the nested
# line in place of its input, and the start of the error that names it
DEEP_READERS = {
    "traces": ("sample", "bad trace record: MalformedDocumentError: invalid JSON: "),
    "decisions": ("reconstruct", "bad decision record: RecursionError: "),
    "kept": ("reconstruct", "bad kept-spans record: RecursionError: "),
    "stats": ("reconstruct", "bad statistics snapshot: "),
    "graph": ("sample", "bad cscfg artifact: RecursionError: "),
    "config": ("sample", None),
    "shared-dict": ("sample", "bad shared dictionary: "),
    "build-graph": ("build-graph", "bad call-graph document: invalid JSON: "),
}


@pytest.mark.parametrize("reader", list(DEEP_READERS))
def test_a_line_nested_past_the_decoder_limit_is_a_bad_record(workload, tmp_path, capsys,
                                                              reader):
    """100,000 nested brackets exceed the JSON decoder's recursion limit.
    Each reader reports them as it reports any other bad record; a line of
    an ndjson file is its second line, named with its number."""
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", trace_path,
                     "--out", str(out)]) == 0
    inputs = {"--graph": graph_path, "--traces": trace_path,
              "--decisions": str(out / "decisions.ndjson"), "--kept": str(out / "kept.ndjson"),
              "--stats": str(out / "stats.json")}
    deep = "[" * 100_000
    bad = tmp_path / "deep.json"
    flag = "--" + {"shared-dict": "shared-dict", "build-graph": "graph"}.get(reader, reader)
    where = str(bad)
    if reader in ("traces", "decisions", "kept"):
        lines = Path(inputs[flag]).read_text(encoding="utf-8").splitlines()
        bad.write_text("\n".join([lines[0], deep] + lines[2:]) + "\n", encoding="utf-8")
        where += ":2"
    else:
        bad.write_text(deep, encoding="utf-8")
    command, text = DEEP_READERS[reader]
    names = {"sample": ["--graph", "--traces"], "build-graph": ["--graph"],
             "reconstruct": ["--graph", "--decisions", "--kept", "--stats"]}[command]
    argv = [command, "--out", str(tmp_path / ("g.json" if command == "build-graph" else "run"))]
    for name in names:
        argv += [name, str(bad) if name == flag else inputs[name]]
    if flag not in names:
        argv += [flag, str(bad)]
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    if text is None:
        assert code == 2 and err.startswith(f"config error: cannot read config {where!r}: "), err
    else:
        assert code == 1 and err.startswith(f"error: {where}: {text}"), err
    assert "maximum recursion depth exceeded" in err


def config_command(command, graph_path, trace_path, out):
    """The argv of a small run of one of the commands that read --config."""
    return {"sample": ["sample", "--graph", graph_path, "--traces", trace_path, "--out", out],
            "eval": ["eval", "--out", out, "--n", "5"]}[command]


@pytest.mark.parametrize("command", ["sample", "eval"])
@pytest.mark.parametrize("setting", ["--window 0", '{"window": 0}'])
def test_a_window_below_one_is_a_config_error(workload, tmp_path, capsys, command, setting):
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


@pytest.mark.parametrize("command", ["sample", "eval"])
def test_an_unknown_config_key_is_a_config_error(workload, tmp_path, capsys, command):
    graph_path, trace_path = write_cli_inputs(workload, tmp_path, 5)
    out = tmp_path / "out"
    argv = config_command(command, graph_path, trace_path, str(out))
    config = tmp_path / "config.json"
    # a misspelt key, and the sampling constants, which no config file sets
    for key in ("ratoi", "min_obs", "lrs_horizon", "fixed_threshold"):
        config.write_text(json.dumps({key: 8}), encoding="utf-8")
        assert cli.main(argv + ["--config", str(config)]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{key!r}" in err, err
        assert not out.exists()
    assert len(cli._CONFIG_KEYS) == 11 and SAMPLING_KEYS == ["ratio", "theta", "window"]
    # one file serves both commands, each reading only its own keys
    config.write_text(json.dumps({"seed": 3, "n_traces": 5, "ratio": 0.2, "window": 64}),
                      encoding="utf-8")
    assert cli.main(argv + ["--config", str(config)]) == 0


@pytest.mark.parametrize("edit", ["callees-int", "callees-not-all-strings", "edge-to-unknown",
                                  "block-id-list", "function-key-list", "entry-list",
                                  "edge-end-list", "dangling-callee", "blocks-int",
                                  "flow-edges-int", "external-int", "key-with-an-empty-part"])
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
    elif edit == "key-with-an-empty-part":
        doc["external_functions"] = ["svc:.run"]
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
