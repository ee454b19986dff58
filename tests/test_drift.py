"""Graphs that lag the code: drift mutators over call-graph documents, and the
rebuild property that holds on them.

Traffic comes from the true document and the graph from an edited copy, as
when static analysis misses a call or the code moved on after the graph was
built. Each decision records align's edits, the calls the graph lacks or
the trace skips, and rebuilds from them.
"""

import copy
import json

import pytest

from spanscope import cli
from spanscope.cscfg import build_cscfg
from spanscope.errors import SpanscopeError
from spanscope.harness import SystemSpec, generate_system, generate_traces
from spanscope.mapping import build_map
from spanscope.model import serialize_trace
from spanscope.pipeline import SamplingPipeline
from spanscope.reconstruct import reconstruct, structural_fidelity
from spanscope.sampler import SamplingConfig, decision_from_dict

from .test_cscfg import drifted_graph_with_repeatable_blocks


def _block(doc, fn, block_id):
    function = next(f for f in doc["functions"] if f["function"] == fn)
    return next(b for b in function["blocks"] if b["id"] == block_id)


def drop_call(doc, fn, block_id, callee):
    """A copy of doc in which block_id of fn no longer calls callee."""
    out = copy.deepcopy(doc)
    callees = _block(out, fn, block_id)["callees"]
    if callee not in callees:
        raise ValueError(f"{fn}#{block_id} does not call {callee}")
    callees.remove(callee)
    return out


def move_call(doc, fn, block_id, callee, to_block):
    """A copy of doc in which fn calls callee from to_block, after its other
    calls there, instead of from block_id."""
    out = drop_call(doc, fn, block_id, callee)
    _block(out, fn, to_block)["callees"].append(callee)
    return out


def add_call(doc, fn, block_id, callee):
    """A copy of doc in which block_id of fn also calls callee, after its
    other calls there."""
    out = copy.deepcopy(doc)
    callees = _block(out, fn, block_id)["callees"]
    if callee in callees:
        raise ValueError(f"{fn}#{block_id} already calls {callee}")
    callees.append(callee)
    return out


def drop_arm(doc, fn, src, dst):
    """A copy of doc without fn's flow edge src->dst, and without the blocks
    that the entry no longer reaches, their edges and their exits."""
    out = copy.deepcopy(doc)
    function = next(f for f in out["functions"] if f["function"] == fn)
    if [src, dst] not in function["flow_edges"]:
        raise ValueError(f"{fn} has no flow edge {src}->{dst}")
    function["flow_edges"].remove([src, dst])
    reached, todo = set(), [function["entry"]]
    while todo:
        b = todo.pop()
        if b not in reached:
            reached.add(b)
            todo += [t for s, t in function["flow_edges"] if s == b]
    function["blocks"] = [b for b in function["blocks"] if b["id"] in reached]
    function["flow_edges"] = [e for e in function["flow_edges"] if e[0] in reached]
    function["exits"] = [e for e in function["exits"] if e in reached]
    return out


def strip_body(doc, fn):
    """A copy of doc in which fn makes no call: the graph then holds fn
    without a body, as when the extractor resolves none of its calls."""
    out = copy.deepcopy(doc)
    function = next(f for f in out["functions"] if f["function"] == fn)
    if not any(b["callees"] for b in function.get("blocks", ())):
        raise ValueError(f"{fn} makes no call")
    out["functions"][out["functions"].index(function)] = {"function": fn}
    return out


def rename_function(doc, fn, new_key):
    """A copy of doc in which fn is called new_key, in its own entry and in
    its callers' callee lists, as when the code renamed it after the graph
    was built: traffic of the old name no longer maps."""
    out = copy.deepcopy(doc)
    function = next(f for f in out["functions"] if f["function"] == fn)
    function["function"] = new_key
    for f in out["functions"]:
        for b in f.get("blocks", ()):
            b["callees"] = [new_key if c == fn else c for c in b["callees"]]
    return out


def calls_of(doc):
    return sorted((f["function"], b["id"], c) for f in doc["functions"]
                  for b in f.get("blocks", ()) for c in b["callees"])


def test_mutators_edit_one_call_and_keep_the_document_valid():
    doc, _meta = generate_system(SystemSpec(seed=3, n_services=3, n_functions_per_service=4))
    before = calls_of(doc)
    edited = 0
    for fn, block_id, callee in before:
        dropped = drop_call(doc, fn, block_id, callee)
        rest = list(before)
        rest.remove((fn, block_id, callee))
        assert calls_of(dropped) == rest
        build_cscfg(dropped)
        function = next(f for f in doc["functions"] if f["function"] == fn)
        other = next((b["id"] for b in function["blocks"] if b["id"] != block_id), None)
        if other is not None:
            moved = move_call(doc, fn, block_id, callee, other)
            assert calls_of(moved) == sorted(rest + [(fn, other, callee)])
            build_cscfg(moved)
        edited += 1
    assert edited > 0 and calls_of(doc) == before
    with pytest.raises(ValueError):
        drop_call(doc, *before[0][:2], "svc:No.such")


def test_add_call_and_drop_arm_keep_the_document_valid():
    doc, _meta = generate_system(SystemSpec())
    before = calls_of(doc)
    added = add_call(doc, ENTRY, "b3", "svc03:C5.op5")
    assert calls_of(added) == sorted(before + [(ENTRY, "b3", "svc03:C5.op5")])
    build_cscfg(added)
    # b4, the error arm, calls svc00:Err.fail and is an exit
    dropped = drop_arm(doc, ENTRY, "b0", "b4")
    assert calls_of(dropped) == [c for c in before if c != (ENTRY, "b4", "svc00:Err.fail")]
    entry = next(f for f in dropped["functions"] if f["function"] == ENTRY)
    assert entry["exits"] == ["b5"] and ["b0", "b4"] not in entry["flow_edges"]
    build_cscfg(dropped).dominance(ENTRY)  # every block reaches the exit
    assert calls_of(doc) == before
    with pytest.raises(ValueError):
        add_call(doc, ENTRY, "b3", "svc00:C5.op5")
    with pytest.raises(ValueError):
        drop_arm(doc, ENTRY, "b0", "b5")


def test_rename_function_renames_the_function_and_its_calls():
    doc, _meta = generate_system(SystemSpec())
    before = calls_of(doc)
    renamed = rename_function(doc, "svc00:C5.op5", "svc00:C5.op5v2")
    new_name = {"svc00:C5.op5": "svc00:C5.op5v2"}
    assert calls_of(renamed) == sorted((new_name.get(f, f), b, new_name.get(c, c))
                                       for f, b, c in before)
    graph = build_cscfg(renamed)
    assert graph.knows("svc00:C5.op5v2") and not graph.knows("svc00:C5.op5")
    assert calls_of(doc) == before


# the entry's block b3 calls svc00:C5.op5 on the default system's common
# path; b0 forks to b2 on that path and to b4, the error arm, else
ENTRY = "svc00:C0.op0"
DRIFTS = {
    "none": lambda doc: doc,
    "drop-a-call": lambda doc: drop_call(doc, ENTRY, "b3", "svc00:C5.op5"),
    "move-a-call": lambda doc: move_call(doc, ENTRY, "b3", "svc00:C5.op5", "b6"),
    "add-a-call": lambda doc: add_call(doc, ENTRY, "b3", "svc03:C5.op5"),
    "drop-an-arm": lambda doc: drop_arm(doc, ENTRY, "b0", "b4"),
    # the traffic's spans of svc00:C5.op5 turn unmapped: align inserts their
    # mapped children under the entry and skips its call of the new name
    "rename-a-function": lambda doc: rename_function(doc, "svc00:C5.op5", "svc00:C5.op5v2"),
}
# three functions with a body on the default system's common paths
for _fn in ("svc00:C5.op5", "svc00:C4.op4", "svc02:C6.op6"):
    DRIFTS[f"strip-{_fn}"] = lambda doc, fn=_fn: strip_body(doc, fn)
ALL_DRIFTS = sorted(DRIFTS)
# the drifts whose written decisions need no edit: the graph holds every call
# of the traces it can explain
IN_STEP = {"none", "drop-an-arm"}


def drift_inputs(drift):
    """The graph of a drift and its traffic: 300 traces of the true
    document."""
    spec = SystemSpec()
    doc, meta = generate_system(spec)
    traces = [s.trace for s in generate_traces(build_cscfg(doc), meta, spec, 300)]
    return build_cscfg(DRIFTS[drift](doc)), traces


def rebuild_failures(graph, traces):
    """The pipeline that samples traces on the graph, its written
    results, and by trace id a line for each written decision that does not
    rebuild, changes a kept span, or rebuilds another structure."""
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=0.3))
    results = []
    for trace in traces:
        try:
            results.append(pipeline.process(trace))
        except SpanscopeError:
            continue  # reported at sample time
    stats = pipeline.stats_snapshot()
    broken = {}
    for result in results:
        trace = result.trace
        kept = [trace.span(sid) for sid in result.decision.kept]
        try:
            rebuilt = reconstruct(result.decision, kept, graph, stats, mapping)
        except SpanscopeError as exc:
            broken[trace.trace_id] = f"{type(exc).__name__}: {exc}"
            continue
        spans = {r.span.span_id: r.span for r in rebuilt.spans}
        for span in kept:
            got = spans.get(span.span_id)
            if got is None or got.with_parent(span.parent_id) != span:
                broken[trace.trace_id] = f"kept span {span.span_id!r} changed"
                break
        else:
            if not structural_fidelity(trace, rebuilt, mapping).structure_exact:
                broken[trace.trace_id] = "rebuilt structure differs"
    return pipeline, results, broken


def first(broken):
    return next(f"{tid}: {line}" for tid, line in broken.items())


def has_edit(decision) -> bool:
    return any(type(f) is not str for f in decision.forks)


@pytest.mark.parametrize("drift", ALL_DRIFTS)
def test_every_written_decision_rebuilds_or_fails_at_sample_time(drift):
    """A decision that sample writes rebuilds on the same graph, with every
    kept span unchanged and the original's structure; a trace the graph
    cannot explain must fail in sample."""
    _pipeline, results, broken = rebuild_failures(*drift_inputs(drift))
    assert results
    assert not broken, f"{len(broken)} of {len(results)} written decisions: {first(broken)}"


@pytest.mark.parametrize("drift", ALL_DRIFTS)
def test_every_written_decision_rebuilds_exactly_or_is_counted(drift):
    """sample counts exactly the written decisions whose path leaves the
    graph, those whose record carries an edit, and each of them rebuilds
    exactly; it counts none where the graph holds every call of the traffic."""
    pipeline, results, broken = rebuild_failures(*drift_inputs(drift))
    counted = {r.trace.trace_id for r in results if r.path.leaves_graph}
    assert pipeline.timing_report()["decisions_leaving_graph"] == len(counted)
    records = [decision_from_dict(json.loads(r.decision.serialize())) for r in results]
    assert counted == {d.trace_id for d in records if has_edit(d)}
    assert not broken
    assert bool(counted) == (drift not in IN_STEP)


@pytest.mark.parametrize("drift", ["none", "drop-a-call"])
def test_sample_prints_how_many_decisions_leave_the_graph(drift, tmp_path, capsys):
    graph, traces = drift_inputs(drift)
    traces = traces[:60]
    graph.save_artifact(str(tmp_path / "graph.json"))
    (tmp_path / "traces.ndjson").write_text(
        "".join(serialize_trace(t) + "\n" for t in traces), encoding="utf-8")
    assert cli.main(["sample", "--graph", str(tmp_path / "graph.json"), "--traces",
                     str(tmp_path / "traces.ndjson"), "--out", str(tmp_path / "out")]) == 0
    pipeline = SamplingPipeline(graph, build_map(graph), SamplingConfig())
    leaving = sum(pipeline.process(t).path.leaves_graph for t in traces)
    assert (leaving > 0) == (drift not in IN_STEP)
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"{leaving} of 60 decisions record edits (calls the graph lacks or the trace skips)")


def test_every_decision_on_the_drifted_patched_graph_rebuilds_exactly():
    """A drifted graph patched in its document with optional, repeatable
    blocks, which follow entry nodes, static blocks and each other; its
    traffic still leaves it in places."""
    spec = SystemSpec(seed=5)
    doc, meta = generate_system(spec)
    traces = [s.trace for s in generate_traces(build_cscfg(doc), meta, spec, 300)]
    _pipeline, results, broken = rebuild_failures(
        drifted_graph_with_repeatable_blocks(), traces)
    assert len(results) == len(traces)
    assert not broken, f"{len(broken)} of {len(results)} written decisions: {first(broken)}"
