import dataclasses
import json

import pytest

import spanscope.align as align_mod
import spanscope.reconstruct as recon
from spanscope import cli
from spanscope.cscfg import build_cscfg
from spanscope.errors import ReconstructionError, SpanscopeError
from spanscope.harness import (
    SystemSpec,
    generate_system,
    generate_traces,
    make_default_faults,
    variable_depth_system,
)
from spanscope.mapping import Unmapped, build_map
from spanscope.model import Span, Trace, serialize_trace
from spanscope.pipeline import SamplingPipeline
from spanscope.reconstruct import (
    ORIGIN_INFERRED,
    ORIGIN_SAMPLED,
    reconstruct,
    structural_fidelity,
)
from spanscope.sampler import SamplingConfig, SamplingDecision, decision_from_dict
from spanscope.scoring import ScoreBook, StatsSnapshot, load_snapshot, save_snapshot

from .conftest import (
    add_repeatable_call,
    align_trace,
    comfort_economy_system,
    single_function_doc,
)
from .oracles import (
    OracleAmbiguousPathError,
    OracleRebuilt,
    oracle_decision_serialize,
    oracle_reconstruct,
    oracle_serialize,
    oracle_structural_fidelity,
)
from .test_drift import DRIFTS, strip_body
from .test_golden import SYSTEMS


# drifts whose decisions record edits: move-a-call inserts a call with a
# body and skips one; the other inserts a call whose function has no body in
# the graph, but calls others at run time
EDITING_DRIFTS = {
    "move-a-call": DRIFTS["move-a-call"],
    "drop-a-call-and-its-body": lambda doc: strip_body(DRIFTS["drop-a-call"](doc),
                                                       "svc00:C5.op5"),
}


def sampled_workload(seed, n, ratio):
    """A generated system's traces through a fresh pipeline, with its stats snapshot.

    seed None picks the deep-chain system, and the name of one of
    EDITING_DRIFTS the default system, whose traces run on the graph of that
    drift; otherwise URL wrapper spans occur and stay unmapped.
    """
    if seed is None:
        spec = SystemSpec(seed=5, url_span_probability=0.0)
        doc, meta = variable_depth_system()
    elif seed in EDITING_DRIFTS:
        spec = SystemSpec()
        doc, meta = generate_system(spec)
    else:
        spec = SystemSpec(seed=seed, n_services=6, n_functions_per_service=8,
                          branch_probability=0.3, url_span_probability=0.1)
        doc, meta = generate_system(spec)
    traces = [s.trace for s in
              generate_traces(build_cscfg(doc), meta, spec, n, make_default_faults(meta, n))]
    graph = build_cscfg(EDITING_DRIFTS[seed](doc) if seed in EDITING_DRIFTS else doc)
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=ratio))
    results = [pipeline.process(t) for t in traces]
    return spec, mapping, pipeline, results, pipeline.stats_snapshot()


# 1,500 traces; URL wrapper spans in the generated systems stay unmapped
WORKLOADS = [(7, 300, 0.3), (11, 300, 0.3), (23, 300, 0.3), (None, 200, 0.1),
             ("move-a-call", 200, 0.3), ("drop-a-call-and-its-body", 200, 0.3)]


@pytest.mark.parametrize("seed,n,ratio", WORKLOADS)
def test_layout_matches_the_recursive_reference(seed, n, ratio):
    spec, mapping, pipeline, results, stats = sampled_workload(seed, n, ratio)
    with_orphans = inferred = 0
    for result in results:
        rebuilt = pipeline.reconstruct_result(result, stats)
        kept = [result.trace.span(sid) for sid in result.decision.kept]
        expected = oracle_reconstruct(result.decision, kept, pipeline.graph, stats, mapping,
                                      recursive=True)
        assert rebuilt.spans == expected.spans, result.trace.trace_id
        with_orphans += any(isinstance(mapping.resolve(s.service, s.operation), Unmapped)
                            for s in kept)
        inferred += len(rebuilt.inferred())
    assert inferred > 0
    if spec.url_span_probability > 0:
        assert with_orphans > 0


@pytest.mark.parametrize("seed,n,ratio", WORKLOADS)
def test_rebuilt_bytes_match_the_two_pass_reference(seed, n, ratio):
    spec, mapping, pipeline, results, stats = sampled_workload(seed, n, ratio)
    with_orphans = edited = 0
    for result in results:
        # the decision as the reconstruct command reads it back
        decision = decision_from_dict(json.loads(result.decision.serialize()))
        kept = [result.trace.span(sid) for sid in decision.kept]
        rebuilt = reconstruct(decision, kept, pipeline.graph, stats, mapping)
        expected = oracle_reconstruct(decision, kept, pipeline.graph, stats, mapping)
        assert rebuilt.spans == expected.spans, decision.trace_id
        line = rebuilt.serialize()
        assert line == oracle_serialize(expected), decision.trace_id
        # an older decision record, with the DSS reports, reads as the stored
        # record does and rebuilds the same bytes
        old_line = oracle_decision_serialize(result.decision, len(result.trace))
        old = decision_from_dict(json.loads(old_line))
        assert old == decision
        assert reconstruct(old, kept, pipeline.graph, stats, mapping).serialize() == line
        with_orphans += any(r.function is None for r in rebuilt.spans)
        edited += any(type(f) is not str for f in decision.forks)
    if spec.url_span_probability > 0:
        assert with_orphans > 0
    assert bool(edited) == (seed in EDITING_DRIFTS)


@pytest.mark.parametrize("lifetime", ["shared", "per-trace", "saved"])
@pytest.mark.parametrize("seed,n,ratio", WORKLOADS[:4])
def test_rebuilt_bytes_match_the_reference_whatever_the_snapshot_lifetime(seed, n, ratio,
                                                                          lifetime, tmp_path):
    """Every rebuild from one snapshot, each trace rebuilt from the snapshot
    taken right after it, whose means move from trace to trace, or every
    rebuild from one snapshot saved and loaded back: each writes the bytes
    the reference gives its own snapshot."""
    _spec, mapping, pipeline, results, stats = sampled_workload(seed, n, ratio)
    graph = pipeline.graph
    if lifetime == "per-trace":
        again = SamplingPipeline(graph, mapping, SamplingConfig(ratio=ratio))
        pairs = [(again.process(r.trace), again.stats_snapshot()) for r in results]
    else:
        if lifetime == "saved":
            save_snapshot(stats, tmp_path / "stats.json")
            stats = load_snapshot(tmp_path / "stats.json")
        pairs = [(r, stats) for r in results]
    stds: dict[str, set] = {}
    for result, snapshot in pairs:
        kept = [result.trace.span(sid) for sid in result.decision.kept]
        rebuilt = reconstruct(result.decision, kept, graph, snapshot, mapping)
        expected = oracle_reconstruct(result.decision, kept, graph, snapshot, mapping)
        assert rebuilt.serialize() == oracle_serialize(expected), result.trace.trace_id
        for r in rebuilt.inferred():
            stds.setdefault(r.function, set()).add(r.uncertainty_std)
    # one std per function from one snapshot; several from the moving ones
    assert (max(map(len, stds.values())) > 1) == (lifetime == "per-trace")


def front_and_callees(callees, external=()):
    """A graph whose svc:Front.handle calls each of callees in turn, the
    ones in external being declared external, with its map, and a decision
    that keeps the root span of a trace of Front.handle alone."""
    front = "svc:Front.handle"
    doc = {"schema_version": 1, "external_functions": list(external), "functions": [
        {"function": front, "blocks": [{"id": "b0", "callees": list(callees)}],
         "flow_edges": [], "entry": "b0", "exits": ["b0"]},
        *({"function": key} for key in callees if key not in external)]}
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    root = Span("r", "t", None, "Front.handle", "svc", 0, 100)
    return graph, mapping, decision_for(front, Trace("t", [root]), mapping, [root], ()), [root]


def inferred_fills(line):
    """operation -> (service, duration, source, std) of each inferred record of a line."""
    return {r["operation"]: (r["service"], r["duration"], r["duration_source"],
                             r["uncertainty_std"])
            for r in json.loads(line)["spans"] if r["origin"] == ORIGIN_INFERRED}


def test_two_snapshots_used_in_turn_each_give_their_own_records():
    store = "svc:Store.get"
    graph, mapping, decision, kept = front_and_callees([store])
    book = ScoreBook()
    book.window_for(store).score(10.0)
    first = book.snapshot()
    book.window_for(store).score(70.0)
    second = book.snapshot()
    fills = []
    for snapshot in (first, second, first, second):
        line = reconstruct(decision, kept, graph, snapshot, mapping).serialize()
        assert line == oracle_serialize(oracle_reconstruct(decision, kept, graph, snapshot,
                                                           mapping))
        fills.append(inferred_fills(line)["Store.get"][1:])
    assert fills == [(10, recon.SOURCE_HISTORICAL, 0.0), (40, recon.SOURCE_HISTORICAL, 42.426)] * 2


def test_edge_entries_of_a_snapshot_rebuild_as_the_reference():
    """count 0 and a missing entry fill zero; an int std is written as a
    float and a long one is rounded to 3 places; a non-ASCII operation is
    escaped; an external callee, which the graph has no FunctionRef of,
    takes its operation and service from its key."""
    cafe = "svc:Caf\u00e9.r\u00e9sum\u00e9"
    callees = ["svc:A.zero", "svc:B.none", "svc:C.whole", "svc:D.long", cafe, "ext:Lib.call"]
    graph, mapping, decision, kept = front_and_callees(callees, external=["ext:Lib.call"])
    assert "ext:Lib.call" not in graph.functions
    edge = StatsSnapshot({"schema_version": 1, "kind": "stats-snapshot", "keys": {
        "svc:A.zero": {"count": 0, "mean": 50.0, "std": 3.0},
        "svc:C.whole": {"count": 3, "mean": 12.4, "std": 2},
        "svc:D.long": {"count": 5, "mean": 7.6, "std": 1.23456789},
        cafe: {"count": 2, "mean": 3.0, "std": 0.5},
        "ext:Lib.call": {"count": 4, "mean": 9.0, "std": 0.25}}})
    zero, mean = (0, recon.SOURCE_ZERO, None), recon.SOURCE_HISTORICAL
    want = {"A.zero": ("svc", *zero), "B.none": ("svc", *zero),
            "C.whole": ("svc", 12, mean, 2.0), "D.long": ("svc", 8, mean, 1.235),
            "Caf\u00e9.r\u00e9sum\u00e9": ("svc", 3, mean, 0.5),
            "Lib.call": ("ext", 9, mean, 0.25)}
    # the empty snapshot between the two uses of edge fills every call with zero
    for snapshot in (edge, ScoreBook().snapshot(), edge):
        line = reconstruct(decision, kept, graph, snapshot, mapping).serialize()
        assert line == oracle_serialize(oracle_reconstruct(decision, kept, graph, snapshot,
                                                           mapping))
        assert inferred_fills(line) == (want if snapshot is edge else
                                        {op: (svc, *zero) for op, (svc, *_) in want.items()})
    assert '"operation":"Caf\\u00e9.r\\u00e9sum\\u00e9"' in line
    assert '"uncertainty_std":2.0' in line
    with pytest.raises(TypeError, match="snapshot"):
        reconstruct(decision, kept, graph, dict(edge), mapping)


def mapped_positions(spans, labels):
    """Each span's position among the labelled spans: the path of child
    indexes from the root, unlabelled spans being transparent (an unlabelled
    span has its nearest labelled ancestor's position). Spans are given
    with every parent before its children, each sibling list in order."""
    positions, kid_count = {}, {}
    for span, label in zip(spans, labels):
        at = positions.get(span.parent_id, ())
        if label is not None:
            k = kid_count.get(at, 0)
            kid_count[at] = k + 1
            at += (k,)
        positions[span.span_id] = at
    return positions


# the three benchmark systems and two more generated systems, with the
# traffic seed and ratios of the benchmark
PLACEMENT_SYSTEMS = {
    **SYSTEMS,
    "seed-3": (SystemSpec(seed=3), False, 0.3),
    "seed-19": (SystemSpec(seed=19, n_services=6, n_functions_per_service=8,
                           branch_probability=0.3, url_span_probability=0.2), False, 0.2),
}


@pytest.mark.parametrize("system", sorted(PLACEMENT_SYSTEMS))
def test_every_rebuilt_trace_is_a_trace_with_each_kept_span_in_place(system):
    """A rebuilt trace parses back as a Trace; a kept span whose parent was
    kept and mapped sits under that parent; and each kept mapped span sits
    at its own node of the original's tree of mapped spans."""
    spec, deep, ratio = PLACEMENT_SYSTEMS[system]
    doc, meta = variable_depth_system() if deep else generate_system(spec)
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    n = 400
    traces = [s.trace for s in generate_traces(graph, meta, dataclasses.replace(spec, seed=47),
                                               n, make_default_faults(meta, n))]
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=ratio))
    results = [pipeline.process(t) for t in traces]
    stats = pipeline.stats_snapshot()
    invalid, misparented, misplaced = [], [], []
    under_kept_parent = 0
    for result in results:
        trace = result.trace
        rebuilt = pipeline.reconstruct_result(result, stats)
        spans = [r.span for r in rebuilt.spans]
        try:
            Trace(trace.trace_id, spans)
        except SpanscopeError:
            invalid.append(trace.trace_id)
        parent_of = {s.span_id: s.parent_id for s in spans}
        resolved = [mapping.resolve(s.service, s.operation) for s in trace.preorder]
        labels = [None if isinstance(r, Unmapped) else r.key for r in resolved]
        want = mapped_positions(trace.preorder, labels)
        got = mapped_positions(spans, [r.function for r in rebuilt.spans])
        for sid in result.decision.kept:
            span = trace.span(sid)
            parent = span.parent_id
            if parent in result.decision.kept and \
                    not isinstance(mapping.resolve(trace.span(parent).service,
                                                   trace.span(parent).operation), Unmapped):
                under_kept_parent += 1
                if parent_of[sid] != parent:
                    misparented.append(sid)
            mapped = not isinstance(mapping.resolve(span.service, span.operation), Unmapped)
            if mapped and got[sid] != want[sid]:
                misplaced.append(sid)
    assert under_kept_parent > 0
    assert (invalid[:3], misparented[:3], misplaced[:3]) == ([], [], []), (
        f"{len(invalid)} invalid, {len(misparented)} kept spans off their kept parent and "
        f"{len(misplaced)} kept spans off their node, of {n} traces")


def test_an_inferred_root_covers_an_orphan_that_starts_before_every_anchor():
    """The root is inferred; the earliest evidence is a kept unmapped span
    that starts and ends before the one sampled call starts."""
    front, store = "svc:Front.handle", "svc:Store.get"
    doc = {"schema_version": 1, "external_functions": [], "functions": [
        {"function": front, "blocks": [{"id": "b0", "callees": [store]}],
         "flow_edges": [], "entry": "b0", "exits": ["b0"]},
        {"function": store}]}
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    trace = Trace("t", [Span("r", "t", None, "Front.handle", "svc", 0, 100),
                        Span("u", "t", "r", "GET /items/1", "svc", 5, 10),
                        Span("leaf", "t", "r", "Store.get", "svc", 60, 30)])
    kept = [trace.span("u"), trace.span("leaf")]
    decision = decision_for(front, trace, mapping, kept, ())
    assert decision.at == (1, 0)  # leaf is call 1; u goes under call 0, the root
    rebuilt = reconstruct(decision, kept, graph, ScoreBook().snapshot(), mapping)
    root, leaf, orphan = (r.span for r in rebuilt.spans)
    assert (root.start_time, root.end_time) == (5, 90)
    assert (leaf.parent_id, orphan.parent_id) == (root.span_id, root.span_id)
    Trace("t", [root, leaf, orphan])  # every interval lies inside its parent's


def written(trace_id, rspans) -> str:
    """The line of a rebuilt trace of rspans: each span's record as the
    record writers of reconstruct write it, joined as serialize() joins them."""
    own_id = recon._json(trace_id)
    records = [recon._record(trace_id, own_id, s.span_id, s.trace_id, s.parent_id, s.operation,
                             s.service, s.start_time, s.duration, s.attributes)
               if origin == ORIGIN_SAMPLED else
               recon._inferred(recon._inferred_text(s.operation, s.service, source, std),
                               own_id, s.span_id, s.parent_id, s.start_time, s.duration)
               for s, origin, _fn, source, std in rspans]
    return recon.ReconstructedTrace(trace_id, records, None).serialize()


def test_serialize_matches_the_sort_keys_reference_on_a_hand_built_trace():
    attrs = {"zeta": "z", "alpha": "\u00fc", "mid": "\u540d\u524d", "Beta": "\U0001f600"}
    root = Span("r", "t\u00e9", None, "Front.handle", "svc\u00e9", 0, 100, attrs)
    inferred = Span("t\u00e9:inf:1", "t\u00e9", "r", "Store.get", "svc", 10, 5, {})
    measured = Span("t\u00e9:inf:2", "t\u00e9", "r", "Store.put", "svc", 20, 5, {})
    orphan = Span("o", "t\u00e9", "r", "GET /caf\u00e9", "svc", 30, 3, {"b": "2", "a": "1"})
    rebuilt = OracleRebuilt("t\u00e9", (
        recon.ReconstructedSpan(root, ORIGIN_SAMPLED, "svc\u00e9:Front.handle"),
        recon.ReconstructedSpan(inferred, ORIGIN_INFERRED, "svc:Store.get",
                                recon.SOURCE_ZERO, None),
        recon.ReconstructedSpan(measured, ORIGIN_INFERRED, "svc:Store.put",
                                recon.SOURCE_HISTORICAL, 1.25),
        recon.ReconstructedSpan(orphan, ORIGIN_SAMPLED, None),
    ))
    line = written(*rebuilt)
    assert line == oracle_serialize(rebuilt)
    assert '"uncertainty_std":null' in line and '"uncertainty_std":1.25' in line
    # records are written sorted without reordering the span's own attributes
    assert list(root.attributes) == ["zeta", "alpha", "mid", "Beta"]
    assert line.startswith('{"spans":[{"attributes":{"Beta":"\\ud83d\\ude00",'
                           '"alpha":"\\u00fc","mid":"\\u540d\\u524d","zeta":"z"},')


def non_ascii(trace):
    """The trace under a non-ASCII trace id, with non-ASCII span ids and
    attributes that need escapes on every span."""
    tid = f"{trace.trace_id}\u00e9"
    ids = {s.span_id: f"{s.span_id}\u540d\U0001f600" for s in trace.spans}
    return Trace(tid, [Span(ids[s.span_id], tid, ids.get(s.parent_id), s.operation, s.service,
                            s.start_time, s.duration,
                            {**s.attributes, "k\u00fc": f"v\u2028{i}", "\x01": '"'})
                       for i, s in enumerate(trace.spans)])


def drop_a_call_patched(doc):
    """drop-a-call, with the dropped call written back into the document as
    an optional, repeatable block after the block it was dropped from."""
    out = DRIFTS["drop-a-call"](doc)
    add_repeatable_call(out, "svc00:C0.op0", "b3", "svc00:C5.op5")
    return out


# (traffic spec, whether the system is variable_depth_system, the drift of
# its graph or None)
RECORD_SYSTEMS = {
    "default": (SystemSpec(), False, None),
    "url-spans": (SystemSpec(seed=7, n_services=6, n_functions_per_service=8,
                             branch_probability=0.3, url_span_probability=0.1), False, None),
    "deep-chains": (SystemSpec(seed=5, url_span_probability=0.0), True, None),
    "drifted": (SystemSpec(), False, DRIFTS["drop-a-call"]),
    "drifted-patched": (SystemSpec(), False, drop_a_call_patched),
}


@pytest.mark.parametrize("system", sorted(RECORD_SYSTEMS))
def test_records_written_from_the_columns_match_the_spans_they_build(system):
    """A rebuilt trace's line, written from the replay's columns, equals the
    line the record writer gives the spans those columns build, and a
    sort_keys dump of their record dicts; kept spans carry non-ASCII ids and
    attributes. The decisions on the drifted graph carry edits."""
    spec, deep, drift = RECORD_SYSTEMS[system]
    doc, meta = variable_depth_system() if deep else generate_system(spec)
    traces = [non_ascii(s.trace) for s in
              generate_traces(build_cscfg(doc), meta, spec, 150, make_default_faults(meta, 150))]
    graph = build_cscfg(drift(doc) if drift else doc)
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=0.3 if deep else 0.2))
    rebuilt_n = inferred = orphans = 0
    for trace in traces:
        try:
            result = pipeline.process(trace)
            rebuilt = pipeline.reconstruct_result(result, pipeline.stats_snapshot())
        except SpanscopeError:
            assert drift, trace.trace_id  # a drifted graph may not explain a trace
            continue
        line = rebuilt.serialize()
        assert line == written(rebuilt.trace_id, rebuilt.spans)
        assert line == oracle_serialize(rebuilt), trace.trace_id
        assert "\\u540d\\ud83d\\ude00" in line and '"\\u0001":"\\""' in line
        rebuilt_n += 1
        inferred += len(rebuilt.inferred())
        orphans += sum(r.function is None for r in rebuilt.spans)
    assert rebuilt_n > 0 and inferred > 0
    if spec.url_span_probability > 0:
        assert orphans > 0
    assert (system == "drifted") == (pipeline.decisions_leaving_graph > 0)


class Count(int):
    pass


class Name(str):
    pass


# ids with a quote, a backslash, control characters and non-ASCII text
ODD_IDS = ['q"uote', "back\\slash", "ctl\x00\x1f\n\t\x7f", "caf\u00e9\U0001f600"]


@pytest.mark.parametrize("trace_id", ['t"\\\x07', Name('t"\\\x07')], ids=["str", "str-subclass"])
def test_serialize_matches_the_reference_on_values_the_encoder_writes(trace_id):
    root = Span('r"', trace_id, None, "Front.handle", "svc", 0, 100, {})
    spans = [recon.ReconstructedSpan(root, ORIGIN_SAMPLED, "svc:Front.handle")]
    stds = [float("nan"), float("inf"), float("-inf"), -0.0]
    for i, (sid, std) in enumerate(zip(ODD_IDS, stds)):
        span = Span(sid, trace_id, 'r"', "Store.get", "svc\n", i, 1, {})
        spans.append(recon.ReconstructedSpan(span, ORIGIN_INFERRED, "svc:Store.get",
                                             recon.SOURCE_HISTORICAL, std))
    odd = [
        # a bool for an integer field, as the checked parse path accepts it
        Span("b", trace_id, 'r"', "C.f", "svc", True, False, {}),
        # trace ids that differ from the record's, or equal it as another object
        Span("o", "other\u2028", 'r"', "C.f", "svc", 5, 1, {}),
        Span("e", "".join(list(trace_id)), 'r"', "C.f", "svc", 6, 1, {}),
        # subclasses of str and int, and attributes that need escapes
        Span(Name("n"), Name(trace_id), Name('r"'), Name("C.g"), Name("svc"),
             Count(7), Count(1), {"k\\": 'v"', "\x01": "\u00e9"}),
    ]
    spans += [recon.ReconstructedSpan(s, ORIGIN_SAMPLED, None) for s in odd]
    line = written(trace_id, spans)
    assert line == oracle_serialize(OracleRebuilt(trace_id, tuple(spans)))
    for text in ('"uncertainty_std":NaN', '"uncertainty_std":Infinity',
                 '"uncertainty_std":-Infinity', '"uncertainty_std":-0.0',
                 '"duration":false', '"start_time":true'):
        assert text in line


def chain_system(depth):
    """A linear call chain of `depth` functions and one trace through it."""
    keys = [f"svcdeep:Chain.step{i}" for i in range(depth)]
    functions = [{"function": key, "blocks": [{"id": "b0", "callees": [keys[i + 1]]}],
                  "flow_edges": [], "entry": "b0", "exits": ["b0"]}
                 for i, key in enumerate(keys[:-1])]
    functions.append({"function": keys[-1]})
    doc = {"schema_version": 1, "functions": functions, "external_functions": []}
    spans = [Span(span_id=f"s{i}", trace_id="deep", parent_id=f"s{i - 1}" if i else None,
                  operation=f"Chain.step{i}", service="svcdeep", start_time=i,
                  duration=2 * (depth - i), attributes={})
             for i in range(depth)]
    return doc, Trace("deep", spans)


@pytest.mark.parametrize("depth,ratio", [(700, 0.1), (600, 1.0)])
def test_deep_chain_rebuilds_exactly(depth, ratio):
    doc, trace = chain_system(depth)
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=ratio))
    result = pipeline.process(trace)
    rebuilt = pipeline.reconstruct_result(result, pipeline.stats_snapshot())
    assert len(rebuilt.spans) == depth
    assert structural_fidelity(trace, rebuilt, mapping).structure_exact
    if ratio < 1.0:
        assert any(r.origin == ORIGIN_INFERRED for r in rebuilt.spans)


def test_depth_10000_chain_samples_and_rebuilds_through_the_cli(tmp_path, capsys):
    doc, trace = chain_system(10_000)
    graph, traces, out = (str(tmp_path / name) for name in ("graph.json", "traces.ndjson", "out"))
    build_cscfg(doc).save_artifact(graph)
    with open(traces, "w", encoding="utf-8") as fh:
        fh.write(serialize_trace(trace) + "\n")
    assert cli.main(["sample", "--graph", graph, "--traces", traces, "--out", out,
                     "--ratio", "0.1"]) == 0
    assert cli.main(["reconstruct", "--graph", graph, "--decisions", f"{out}/decisions.ndjson",
                     "--kept", f"{out}/kept.ndjson", "--stats", f"{out}/stats.json",
                     "--traces", traces, "--out", out]) == 0
    assert "structure_exact_rate 1.0" in capsys.readouterr().out.splitlines()


def test_the_walk_budget_renews_at_each_record_of_the_decision(monkeypatch):
    # each pass of the loop consumes a fork record, so a loop far longer
    # than the budget rebuilds
    fn = "svc:Main.run"
    doc = single_function_doc(fn=fn, blocks=[{"id": "b0", "callees": ["svc:Leaf.f"]}],
                              entry="b0", exits=["b0"])
    add_repeatable_call(doc, fn, "b0", "svc:Leaf.f")
    calls = 300
    trace = Trace("t", [Span("r", "t", None, "Main.run", "svc", 0, 2 * calls)] + [
        Span(f"c{i}", "t", "r", "Leaf.f", "svc", 2 * i, 1) for i in range(calls)])
    monkeypatch.setattr(recon, "_WALK_BUDGET", 10)
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=0.1))
    result = pipeline.process(trace)
    rebuilt = pipeline.reconstruct_result(result, pipeline.stats_snapshot())
    assert len(rebuilt.spans) == calls + 1
    assert structural_fidelity(trace, rebuilt, mapping).structure_exact


def retagged(trace, trace_id):
    """The same spans under another trace id."""
    return Trace(trace_id, [dataclasses.replace(s, trace_id=trace_id) for s in trace.spans])


@pytest.mark.parametrize("seed,n,ratio", WORKLOADS)
def test_fidelity_matches_the_recursive_reference(seed, n, ratio):
    _spec, mapping, pipeline, results, stats = sampled_workload(seed, n, ratio)
    rebuilt = [pipeline.reconstruct_result(r, stats) for r in results]
    inexact = 0
    for i, (result, rb) in enumerate(zip(results, rebuilt)):
        # each rebuild against its own trace, and against the next trace's
        # spans, so mismatched labels and child counts are compared too
        other = retagged(results[(i + 1) % len(results)].trace, rb.trace_id)
        for original in (result.trace, other):
            report = structural_fidelity(original, rb, mapping)
            expected = oracle_structural_fidelity(original, rb, mapping)
            assert (report.structure_exact, report.duration_error,
                    report.inferred_count) == expected, rb.trace_id
            inexact += not report.structure_exact
    assert inexact > 0


def rebuild_both_ways(doc, trace):
    """Sample one trace at ratio 0.1, then rebuild it by replay and by the
    reference search, which ignores the fork records; both rebuilds must
    agree and match the original's structure.
    """
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    pipeline = SamplingPipeline(graph, mapping, SamplingConfig(ratio=0.1))
    result = pipeline.process(trace)
    kept = [trace.span(sid) for sid in result.decision.kept]
    stats = pipeline.stats_snapshot()
    replayed = reconstruct(result.decision, kept, graph, stats, mapping)
    searched = oracle_reconstruct(result.decision, kept, graph, stats, mapping, search=True)
    assert searched.spans == replayed.spans
    assert structural_fidelity(trace, replayed, mapping).structure_exact
    return result, replayed


# both run under the default recursion limit
def test_deep_chain_samples_and_rebuilds_by_replay_and_search():
    doc, trace = chain_system(10_000)
    _result, rebuilt = rebuild_both_ways(doc, trace)
    assert len(rebuilt.spans) == len(trace)
    assert any(r.origin == ORIGIN_INFERRED for r in rebuilt.spans)


def test_root_over_deep_unmapped_chain():
    depth = 10_000
    front, store = "svcurl:Front.handle", "svcurl:Store.get"
    doc = {"schema_version": 1, "external_functions": [], "functions": [
        {"function": front, "blocks": [{"id": "b0", "callees": [store]}],
         "flow_edges": [], "entry": "b0", "exits": ["b0"]},
        {"function": store}]}
    spans = [Span("root", "u", None, "Front.handle", "svcurl", 0, 4 * depth)]
    spans += [Span(f"u{i}", "u", f"u{i - 1}" if i else "root", f"GET /items/{i}", "svcurl",
                   i + 1, 4 * depth - 2 * (i + 1))
              for i in range(depth)]
    spans.append(Span("leaf", "u", f"u{depth - 1}", "Store.get", "svcurl", depth + 1, 3))
    result, rebuilt = rebuild_both_ways(doc, Trace("u", spans))
    assert result.path.insertions == depth
    assert {r.span.span_id for r in rebuilt.spans} >= set(result.decision.kept)


def recorded_calls(trace, mapping, kept_ids):
    """The replay call of each of the kept span ids, as sample records it: a
    mapped span's index among the mapped spans in preorder, an unmapped
    span its nearest mapped ancestor's."""
    calls: dict = {}
    n = 0
    for span in trace.preorder:
        if isinstance(mapping.resolve(span.service, span.operation), Unmapped):
            calls[span.span_id] = calls[span.parent_id]
        else:
            calls[span.span_id], n = n, n + 1
    return tuple(calls[sid] for sid in kept_ids)


def decision_for(entry, trace, mapping, kept, forks):
    """A decision of trace that keeps the spans kept, each at its call."""
    ids = tuple(sorted(s.span_id for s in kept))
    return SamplingDecision(trace.trace_id, ids, entry, forks=forks,
                            at=recorded_calls(trace, mapping, ids))


def functions_of(rebuilt):
    return [(r.function, r.origin) for r in rebuilt.spans]


class TestForkInInsertedCallee:
    """Main's block b0 calls A, and the trace also calls P, before A or after
    it as the trace shows, so align inserts P; P's own body forks p1 (X) /
    p2 (Y).

    The decision records the insertion as an edit and P's branch as a fork,
    and replay rebuilds P where the trace made it, on the graph as it is.
    """

    MAIN, P = "svc:Main.run", "svc:P.p"

    def setup_method(self):
        self.spans = {
            "root": Span("root", "t", None, "Main.run", "svc", 0, 100),
            "p": Span("p", "t", "root", "P.p", "svc", 1, 20),
            "x": Span("x", "t", "p", "X.x", "svc", 2, 5),
            "a": Span("a", "t", "root", "A.a", "svc", 30, 10),
        }
        doc = {"schema_version": 1, "external_functions": [], "functions": [
            {"function": self.MAIN, "blocks": [{"id": "b0", "callees": ["svc:A.a"]}],
             "flow_edges": [], "entry": "b0", "exits": ["b0"]},
            {"function": self.P, "blocks": [{"id": "s", "callees": []},
                                            {"id": "p1", "callees": ["svc:X.x"]},
                                            {"id": "p2", "callees": ["svc:Y.y"]}],
             "flow_edges": [["s", "p1"], ["s", "p2"]], "entry": "s", "exits": ["p1", "p2"]},
            {"function": "svc:A.a"}, {"function": "svc:X.x"}, {"function": "svc:Y.y"}]}
        self.graph = build_cscfg(doc)
        self.mapping = build_map(self.graph)

    def rebuild(self, spans, *ids):
        """The forks align records for the trace of spans, and the replay of
        the kept spans ids with them."""
        trace = Trace("t", list(spans.values()))
        forks = align_trace(self.graph, trace, self.mapping).forks
        kept = [spans[i] for i in ids]
        return forks, reconstruct(decision_for(self.MAIN, trace, self.mapping, kept, forks),
                                  kept, self.graph, ScoreBook().snapshot(), self.mapping)

    def test_unwitnessed_branch_rebuilds_from_its_fork(self):
        forks, rebuilt = self.rebuild(self.spans, "root", "p", "a")
        # call 0 inserts P as call 1, and P forks into p1
        assert forks == ((0, 1, self.P), f"{self.P}#p1")
        assert functions_of(rebuilt) == [
            (self.MAIN, ORIGIN_SAMPLED), (self.P, ORIGIN_SAMPLED), ("svc:X.x", ORIGIN_INFERRED),
            ("svc:A.a", ORIGIN_SAMPLED)]

    def test_inserted_call_after_the_block_call(self):
        spans = {**self.spans, "p": Span("p", "t", "root", "P.p", "svc", 50, 20),
                 "x": Span("x", "t", "p", "X.x", "svc", 51, 5)}
        forks, rebuilt = self.rebuild(spans, "root", "a", "p", "x")
        assert forks == ((0, 2, self.P), f"{self.P}#p1")
        assert functions_of(rebuilt) == [(self.MAIN, ORIGIN_SAMPLED), ("svc:A.a", ORIGIN_SAMPLED),
                                         (self.P, ORIGIN_SAMPLED), ("svc:X.x", ORIGIN_SAMPLED)]

    def test_witnessed_branch_rebuilds(self):
        _forks, rebuilt = self.rebuild(self.spans, "root", "p", "x", "a")
        assert functions_of(rebuilt) == [(self.MAIN, ORIGIN_SAMPLED), (self.P, ORIGIN_SAMPLED),
                                         ("svc:X.x", ORIGIN_SAMPLED), ("svc:A.a", ORIGIN_SAMPLED)]


class TestSearchOnComfortEconomy:
    def setup_method(self):
        doc, meta = comfort_economy_system()
        self.entry = meta.entry
        self.graph = build_cscfg(doc)
        self.mapping = build_map(self.graph)
        traces = [s.trace for s in generate_traces(
            self.graph, meta, SystemSpec(seed=5, url_span_probability=0.0), 20)]
        self.pipeline = SamplingPipeline(self.graph, self.mapping, SamplingConfig(ratio=0.3))
        self.comfort = next(t for t in traces
                            if any(s.operation == "SeatService.getComfortClass" for s in t.spans))

    def rebuild(self, operations, forks):
        """Replay of the recorded forks, or without them the reference search."""
        result = self.pipeline.process(self.comfort)
        kept = [s for s in self.comfort.spans if s.operation in operations]
        ids = tuple(sorted(s.span_id for s in kept))
        decision = dataclasses.replace(result.decision, kept=ids,
                                       at=recorded_calls(self.comfort, self.mapping, ids))
        if forks:
            return reconstruct(decision, kept, self.graph, ScoreBook().snapshot(), self.mapping)
        return oracle_reconstruct(decision, kept, self.graph, {}, self.mapping, search=True)

    def test_witnessed_branch_search_equals_replay(self):
        ops = {"OrderService.createOrder", "SeatService.getComfortClass"}
        replayed = self.rebuild(ops, forks=True)
        assert self.rebuild(ops, forks=False).spans == replayed.spans
        assert structural_fidelity(self.comfort, replayed, self.mapping).structure_exact

    def test_unwitnessed_branch_names_both_arms(self):
        with pytest.raises(OracleAmbiguousPathError) as info:
            self.rebuild({"OrderService.createOrder"}, forks=False)
        assert info.value.branch_tags == [f"{self.entry}#c1", f"{self.entry}#e1"]

    def test_the_recorded_call_of_a_shared_callee_witnesses_its_arm(self):
        # both arms call getPrice, but only the comfort arm has a fourth call,
        # where the decision records it
        ops = {"OrderService.createOrder", "PriceService.getPrice"}
        replayed = self.rebuild(ops, forks=True)
        assert self.rebuild(ops, forks=False).spans == replayed.spans
        assert structural_fidelity(self.comfort, replayed, self.mapping).structure_exact


def test_endless_self_call_ends_in_reconstruction_error():
    doc = {"schema_version": 1, "external_functions": [], "functions": [
        {"function": "svc:Loop.f", "blocks": [{"id": "b0", "callees": ["svc:Loop.f"]}],
         "flow_edges": [], "entry": "b0", "exits": ["b0"]}]}
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    root = Span("r", "t", None, "Loop.f", "svc", 0, 10)
    decision = decision_for("svc:Loop.f", Trace("t", [root]), mapping, [root], ())
    with pytest.raises(ReconstructionError, match="walk step budget exceeded"):
        reconstruct(decision, [root], graph, ScoreBook().snapshot(), mapping)
    with pytest.raises(ReconstructionError):  # the reference search finds no path either
        oracle_reconstruct(decision, [root], graph, {}, mapping, search=True)


def outcome(rebuild, decision, kept, graph, stats, mapping):
    """("rebuilt", the rebuilt spans), or the class and text of the error
    that stopped the rebuild."""
    try:
        return "rebuilt", rebuild(decision, kept, graph, stats, mapping).spans
    except ReconstructionError as exc:
        return type(exc).__name__, str(exc)


def mutated_decisions(result, donor):
    """The decision and copies whose fork records, recorded calls or kept
    spans no longer fit its path; donor is another result whose last span is
    added."""
    decision, trace = result.decision, result.trace
    forks, at = decision.forks, decision.at
    kept = [trace.span(sid) for sid in decision.kept]
    yield decision, kept
    if forks:
        yield dataclasses.replace(decision, forks=forks[:-1]), kept
        yield dataclasses.replace(decision, forks=(f"{decision.entry}#nowhere",) + forks[1:]), kept
        yield dataclasses.replace(decision, forks=forks[::-1]), kept
        yield dataclasses.replace(decision, forks=forks[1:]), kept
    yield dataclasses.replace(decision, forks=forks + forks[-1:] + forks[:1]), kept
    if len(kept) > 1:
        yield decision, kept[1:]
        yield dataclasses.replace(decision, at=(0,) * len(at)), kept
    yield dataclasses.replace(decision, at=tuple(i + 1 for i in at)), kept
    yield dataclasses.replace(decision, at=at[:-1] + (at[-1] + 1_000,)), kept
    yield dataclasses.replace(decision, at=at[1:]), kept
    foreign = dataclasses.replace(donor.trace.spans[-1], trace_id=trace.trace_id,
                                  span_id="foreign")
    yield decision, kept + [foreign]
    edits = [k for k, f in enumerate(forks) if type(f) is not str]
    if edits:
        # the first edit dropped, one call later, under the next call, turned
        # into the other kind, repeated at the end; and an edit under no call
        k = edits[0]
        edit, before, after = forks[k], forks[:k], forks[k + 1:]
        other = edit[:2] if len(edit) == 3 else edit + (decision.entry,)
        for changed in [before + after,
                        before + ((edit[0], edit[1] + 1) + edit[2:],) + after,
                        before + ((edit[0] + 1,) + edit[1:],) + after,
                        before + (other,) + after,
                        forks + (edit,),
                        forks + ((10_000, 1),)]:
            yield dataclasses.replace(decision, forks=changed), kept


@pytest.mark.parametrize("seed,n,ratio", [(7, 120, 0.3), (None, 60, 0.1),
                                          ("move-a-call", 60, 0.3),
                                          ("drop-a-call-and-its-body", 60, 0.3)])
def test_replay_errors_match_the_tree_walker(seed, n, ratio):
    """Every check of the replay walk fires as the tree walker's does: the same
    error text, or the same rebuilt trace, on decisions that no longer fit."""
    _spec, mapping, pipeline, results, stats = sampled_workload(seed, n, ratio)
    graph = pipeline.graph
    errors = set()
    for i, result in enumerate(results):
        donor = results[(i + 7) % len(results)]
        for decision, kept in mutated_decisions(result, donor):
            got = outcome(reconstruct, decision, kept, graph, stats, mapping)
            assert got == outcome(oracle_reconstruct, decision, kept, graph, stats, mapping)
            if result.decision.forks and decision.forks == result.decision.forks[:-1] \
                    and type(result.decision.forks[-1]) is str:
                # align records every fork, so a walk never heads for the exit
                # on its own
                assert got[1] == "ran out of recorded branch choices", got
            if got[0] != "rebuilt":
                errors.add(got[1])
    checks = ["is not a successor here", "ran out of recorded branch choices",
              "unused branch records remain", "is not in the decision", ", a call of",
              "outside the", "recorded calls for", "are recorded at one call"]
    if seed in EDITING_DRIFTS:
        checks += ["is left unused", "which the walk never enters"]
    for check in checks:
        assert any(check in text for text in errors), check


def kept_of(result):
    return [result.trace.span(sid) for sid in result.decision.kept]


@pytest.mark.parametrize("seed,n,ratio", WORKLOADS)
def test_a_memoised_skeleton_rebuilds_the_bytes_of_a_fresh_walk(seed, n, ratio):
    """Each decision rebuilds the same bytes with a cold memo, with the memo
    filled by the decisions before it, with every path in it, and with the
    decisions taken in reverse order."""
    _spec, mapping, pipeline, results, stats = sampled_workload(seed, n, ratio)
    graph = pipeline.graph

    def rebuilt(ordered):
        return [reconstruct(r.decision, kept_of(r), graph, stats, mapping).serialize()
                for r in ordered]

    cold = []
    for result in results:
        graph._skeletons.clear()
        cold += rebuilt([result])
    graph._skeletons.clear()
    assert rebuilt(results) == cold
    paths = {(r.decision.entry, r.decision.forks) for r in results}
    assert set(graph._skeletons) == paths and len(paths) < len(results)
    assert rebuilt(results) == cold
    graph._skeletons.clear()
    assert rebuilt(results[::-1]) == cold[::-1]


def test_a_walk_that_fails_raises_the_same_text_each_time_and_is_not_kept():
    _spec, mapping, pipeline, results, stats = sampled_workload(7, 60, 0.3)
    graph = pipeline.graph
    result = next(r for r in results if r.decision.forks)
    decision, kept = result.decision, kept_of(result)
    reconstruct(decision, kept, graph, stats, mapping)
    for forks in (decision.forks[:-1], decision.forks + decision.forks[:1]):
        broken = dataclasses.replace(decision, forks=forks)
        expected = outcome(oracle_reconstruct, broken, kept, graph, stats, mapping)
        assert expected[0] == "ReconstructionError"
        for _ in range(3):
            assert outcome(reconstruct, broken, kept, graph, stats, mapping) == expected
            assert (decision.entry, forks) not in graph._skeletons
    assert list(graph._skeletons) == [(decision.entry, decision.forks)]


def test_a_kept_span_at_a_call_of_another_function_fails_on_a_memoised_path():
    """Two decisions on one path: the second records a kept span at a call
    of another function, which the memoised skeleton reports as the walk
    does."""
    _spec, mapping, pipeline, results, stats = sampled_workload(7, 60, 0.3)
    graph = pipeline.graph
    for result in results:
        decision, kept = result.decision, kept_of(result)
        rebuilt = reconstruct(decision, kept, graph, stats, mapping)
        fns = graph._skeletons[(decision.entry, decision.forks)].fns
        # a mapped kept span other than the root, and a free call of another function
        k = next((k for k, i in enumerate(decision.at)
                  if i > 0 and rebuilt.spans[i].span.span_id == decision.kept[k]), None)
        if k is None:
            continue
        j = next((j for j, fn in enumerate(fns)
                  if fn != fns[decision.at[k]] and j not in decision.at), None)
        if j is not None:
            break
    else:
        pytest.fail("no decision with a kept span to move")
    moved = dataclasses.replace(decision, at=decision.at[:k] + (j,) + decision.at[k + 1:])
    assert (moved.entry, moved.forks) in graph._skeletons
    got = outcome(reconstruct, moved, kept, graph, stats, mapping)
    assert got == outcome(oracle_reconstruct, moved, kept, graph, stats, mapping)
    assert got[0] == "ReconstructionError" and f"at call {j}, a call of {fns[j]!r}" in got[1]
    assert outcome(reconstruct, decision, kept, graph, stats, mapping)[0] == "rebuilt"


def test_the_skeleton_memo_holds_at_most_its_bound(monkeypatch):
    # 147 paths in 300 decisions
    _spec, mapping, pipeline, results, stats = sampled_workload(7, 300, 0.3)
    graph = pipeline.graph
    expected = [reconstruct(r.decision, kept_of(r), graph, stats, mapping).serialize()
                for r in results]
    assert len(graph._skeletons) > 100
    monkeypatch.setattr(align_mod, "PATH_CACHE_CAPACITY", 3)
    graph._skeletons.clear()
    sizes = set()
    for result, line in zip(results, expected):
        assert reconstruct(result.decision, kept_of(result), graph, stats,
                           mapping).serialize() == line
        sizes.add(len(graph._skeletons))
    assert sizes == {1, 2, 3}


def nested_callee_doc(a_calls):
    """svc:Front.handle calls svc:A.run, then svc:B.get; A.run calls each of
    a_calls, and svc:A1.run calls svc:A11.run."""
    def fn(key, callees=None):
        if callees is None:
            return {"function": key}
        return {"function": key, "blocks": [{"id": "b0", "callees": callees}],
                "flow_edges": [], "entry": "b0", "exits": ["b0"]}
    return {"schema_version": 1, "external_functions": [], "functions": [
        fn("svc:Front.handle", ["svc:A.run", "svc:B.get"]), fn("svc:A.run", a_calls),
        fn("svc:A0.run"), fn("svc:A1.run", ["svc:A11.run"]), fn("svc:A11.run"),
        fn("svc:A2.run"), fn("svc:B.get")]}


def means_snapshot(means):
    return StatsSnapshot({"schema_version": 1, "kind": "stats-snapshot", "keys": {
        key: {"count": 3, "mean": mean, "std": 1.0} for key, mean in means.items()}})


def test_an_unanchored_subtree_packs_at_its_natural_offsets_clipped_at_every_level():
    """Front.handle and B.get are kept, B.get 30 us in. A.run has no kept
    span below it, so it gets [0, 30), and its subtree packs at its natural
    offsets (A0 20, A1 5 + A11 45, A2 50 wide) clipped at each parent's end:
    A1 and A11 are cut short, and A2 is left no room at all."""
    graph = build_cscfg(nested_callee_doc(["svc:A0.run", "svc:A1.run", "svc:A2.run"]))
    mapping = build_map(graph)
    trace = Trace("t", [Span("r", "t", None, "Front.handle", "svc", 0, 200),
                        Span("a", "t", "r", "A.run", "svc", 0, 25),
                        Span("a0", "t", "a", "A0.run", "svc", 0, 5),
                        Span("a1", "t", "a", "A1.run", "svc", 5, 10),
                        Span("a11", "t", "a1", "A11.run", "svc", 5, 5),
                        Span("a2", "t", "a", "A2.run", "svc", 15, 10),
                        Span("b", "t", "r", "B.get", "svc", 30, 20)])
    kept = [trace.span("r"), trace.span("b")]
    decision = decision_for("svc:Front.handle", trace, mapping, kept, ())
    assert decision.at == (6, 0)
    stats = means_snapshot({"svc:A.run": 10, "svc:A0.run": 20, "svc:A1.run": 5,
                            "svc:A11.run": 45, "svc:A2.run": 50})
    rebuilt = reconstruct(decision, kept, graph, stats, mapping)
    assert [(r.span.operation, r.span.start_time, r.span.end_time) for r in rebuilt.spans] == [
        ("Front.handle", 0, 200), ("A.run", 0, 30), ("A0.run", 0, 20), ("A1.run", 20, 30),
        ("A11.run", 20, 30), ("A2.run", 30, 30), ("B.get", 30, 50)]
    for recursive in (False, True):
        expected = oracle_reconstruct(decision, kept, graph, stats, mapping, recursive=recursive)
        assert rebuilt.spans == expected.spans
    assert rebuilt.serialize() == oracle_serialize(expected)


def test_a_kept_span_past_its_kept_ancestors_end_stays_covered_by_its_inferred_parent():
    """Kept records are not checked against each other: a kept A11.run that
    ends after the kept root keeps its own times, and its inferred parents
    reach its end, past the root's, as the tree walker places them."""
    graph = build_cscfg(nested_callee_doc(["svc:A1.run"]))
    mapping = build_map(graph)
    trace = Trace("t", [Span("r", "t", None, "Front.handle", "svc", 0, 100),
                        Span("a", "t", "r", "A.run", "svc", 60, 40),
                        Span("a1", "t", "a", "A1.run", "svc", 80, 20),
                        Span("a11", "t", "a1", "A11.run", "svc", 90, 10)])
    late = dataclasses.replace(trace.span("a11"), duration=60)
    kept = [trace.span("r"), late]
    decision = decision_for("svc:Front.handle", trace, mapping, [trace.span("r"), late], ())
    stats = means_snapshot({"svc:A.run": 5, "svc:A1.run": 5, "svc:B.get": 5})
    rebuilt = reconstruct(decision, kept, graph, stats, mapping)
    assert [(r.span.operation, r.span.start_time, r.span.end_time) for r in rebuilt.spans] == [
        ("Front.handle", 0, 100), ("A.run", 90, 150), ("A1.run", 90, 150),
        ("A11.run", 90, 150), ("B.get", 150, 150)]
    for recursive in (False, True):
        expected = oracle_reconstruct(decision, kept, graph, stats, mapping, recursive=recursive)
        assert rebuilt.spans == expected.spans


def test_one_snapshot_on_two_graphs_gives_each_graph_its_own_layout():
    """One decision on two graphs whose A.run differs, so its path has the
    same (entry, forks) on both but other calls under A.run; each rebuild
    from the one snapshot writes its own graph's reference bytes."""
    graphs = [build_cscfg(nested_callee_doc(calls))
              for calls in (["svc:A0.run", "svc:A2.run"], ["svc:A1.run"])]
    mappings = [build_map(g) for g in graphs]
    root = Span("r", "t", None, "Front.handle", "svc", 0, 500)
    decision = decision_for("svc:Front.handle", Trace("t", [root]), mappings[0], [root], ())
    stats = means_snapshot({"svc:A.run": 10, "svc:A0.run": 20, "svc:A1.run": 5,
                            "svc:A11.run": 45, "svc:A2.run": 50, "svc:B.get": 7})
    lines = []
    for k in (0, 1, 0, 1):
        line = reconstruct(decision, [root], graphs[k], stats, mappings[k]).serialize()
        assert line == oracle_serialize(oracle_reconstruct(decision, [root], graphs[k], stats,
                                                           mappings[k]))
        lines.append(line)
    assert lines[0] == lines[2] != lines[1] == lines[3]


@pytest.mark.parametrize("seed,n,ratio", [(7, 120, 0.3), (None, 60, 0.1),
                                          ("move-a-call", 60, 0.3)])
def test_a_memoised_layout_rebuilds_the_bytes_of_the_tree_walker(seed, n, ratio, monkeypatch):
    """Each decision rebuilds the tree walker's bytes with its path laid out
    cold, laid out warm, on one graph used with two snapshots in turn, and
    after the memo clears at its bound."""
    _spec, mapping, pipeline, results, stats = sampled_workload(seed, n, ratio)
    graph = pipeline.graph
    early = SamplingPipeline(graph, mapping, SamplingConfig(ratio=ratio))
    for result in results[:n // 4]:
        early.process(result.trace)
    other = early.stats_snapshot()

    def rebuilt(result, snapshot):
        return reconstruct(result.decision, kept_of(result), graph, snapshot,
                           mapping).serialize()

    want = {id(snapshot): [oracle_serialize(oracle_reconstruct(
        r.decision, kept_of(r), graph, snapshot, mapping)) for r in results]
        for snapshot in (stats, other)}
    assert want[id(stats)] != want[id(other)]
    for result, line in zip(results, want[id(stats)]):
        graph._skeletons.clear()
        assert rebuilt(result, stats) == line
    for _ in range(2):
        assert [rebuilt(r, stats) for r in results] == want[id(stats)]
    for result, line, early_line in zip(results, want[id(stats)], want[id(other)]):
        assert (rebuilt(result, other), rebuilt(result, stats)) == (early_line, line)
    monkeypatch.setattr(align_mod, "PATH_CACHE_CAPACITY", 2)
    graph._skeletons.clear()
    assert [rebuilt(r, stats) for r in results] == want[id(stats)]
    assert len(graph._skeletons) <= 2
