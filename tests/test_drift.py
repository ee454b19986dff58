"""Graphs that lag the code: drift mutators over call-graph documents, and the
rebuild property they break.

Traffic comes from the true document and the graph from an edited copy, as
when static analysis misses a call or the code moved on after the graph was
built.
"""

import copy

import pytest

from spanscope.cscfg import build_cscfg, patch_with_traces
from spanscope.errors import SpanscopeError
from spanscope.harness import SystemSpec, generate_system, generate_traces
from spanscope.mapping import build_map
from spanscope.pipeline import SamplingPipeline
from spanscope.reconstruct import reconstruct, structural_fidelity
from spanscope.sampler import SamplingConfig

from .test_cscfg import drifted_patched_graph


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


# the entry's block b3 calls svc00:C5.op5 on the default system's common path
DRIFTS = {
    "none": lambda doc: doc,
    "drop-a-call": lambda doc: drop_call(doc, "svc00:C0.op0", "b3", "svc00:C5.op5"),
    "move-a-call": lambda doc: move_call(doc, "svc00:C0.op0", "b3", "svc00:C5.op5", "b6"),
}
# a drift whose graph is patched from the first PATCH_TRACES traces of its traffic
PATCHED = {f"{name}-patched": name for name in ("drop-a-call", "move-a-call")}
PATCH_TRACES = 200
# ROADMAP item 13: a call the graph does not make where the code does is an
# insertion, and the rebuild walk never enters an inserted call. Patching adds
# only calls that no block makes, so the moved call stays an insertion.
ITEM_13 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="item 13")
FAILING = {"drop-a-call", "move-a-call", "move-a-call-patched"}


def rebuild_failures(graph, traces):
    """Written decisions on the frozen graph, and a line for each that does
    not rebuild, changes a kept span, or rebuilds another structure."""
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=0.3))
    results = []
    for trace in traces:
        try:
            results.append(pipeline.process(trace))
        except SpanscopeError:
            continue  # reported at sample time
    stats = pipeline.stats_snapshot()
    broken = []
    for result in results:
        trace = result.trace
        kept = [trace.span(sid) for sid in result.decision.kept]
        try:
            rebuilt = reconstruct(result.decision, kept, graph, stats, mapping)
        except SpanscopeError as exc:
            broken.append(f"{trace.trace_id}: {type(exc).__name__}: {exc}")
            continue
        spans = {r.span.span_id: r.span for r in rebuilt.spans}
        for span in kept:
            got = spans.get(span.span_id)
            if got is None or got.with_parent(span.parent_id) != span:
                broken.append(f"{trace.trace_id}: kept span {span.span_id!r} changed")
                break
        else:
            if not structural_fidelity(trace, rebuilt, mapping).structure_exact:
                broken.append(f"{trace.trace_id}: rebuilt structure differs")
    return len(results), broken


@pytest.mark.parametrize("drift", [pytest.param(name, marks=ITEM_13 if name in FAILING else ())
                                   for name in sorted(DRIFTS) + sorted(PATCHED)])
def test_every_written_decision_rebuilds_or_fails_at_sample_time(drift):
    """A decision that sample writes rebuilds on the same graph, with every
    kept span unchanged and the original's structure; a trace the graph
    cannot explain must fail in sample."""
    spec = SystemSpec()
    doc, meta = generate_system(spec)
    traces = [s.trace for s in generate_traces(build_cscfg(doc), meta, spec, 300)]
    graph = build_cscfg(DRIFTS[PATCHED.get(drift, drift)](doc))
    if drift in PATCHED:
        patch_with_traces(graph, traces[:PATCH_TRACES], build_map(graph))
    written, broken = rebuild_failures(graph.freeze(), traces)
    assert written > 0
    assert not broken, f"{len(broken)} of {written} written decisions: {broken[0]}"


def test_every_decision_on_the_drifted_patched_graph_rebuilds_exactly():
    """Its traffic: the 200 traces the graph was patched from, then 100 more."""
    spec = SystemSpec(seed=5)
    doc, meta = generate_system(spec)
    traces = [s.trace for s in generate_traces(build_cscfg(doc), meta, spec, 300)]
    written, broken = rebuild_failures(drifted_patched_graph().freeze(), traces)
    assert written == len(traces)
    assert not broken, f"{len(broken)} of {written} written decisions: {broken[0]}"
