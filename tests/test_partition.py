import dataclasses

import pytest

from spanscope.align import TRUNK_TAG, PathCache
from spanscope.cscfg import build_cscfg
from spanscope.errors import PartitionMismatchError
from spanscope.harness import (
    SystemSpec,
    generate_system,
    generate_traces,
    variable_depth_system,
)
from spanscope.mapping import build_map
from spanscope.model import exclusive_durations
from spanscope.pipeline import partition
from spanscope.sampler import LrsLedger, SamplingConfig, sample_trace
from spanscope.scoring import ScoreBook

from .conftest import (
    align_trace,
    comfort_economy_system,
    named_sets,
    make_span,
    make_trace,
    single_function_doc,
)
from .oracles import (
    enumerate_simple_paths,
    oracle_partition,
    reference_align,
    reference_step_forks,
)

FN = "svc:Main.run"


def aligned(graph, trace, mapping):
    return align_trace(graph, trace, mapping), trace


class TestPartition:
    def test_straight_line_single_dss(self):
        doc = single_function_doc(
            fn=FN,
            blocks=[{"id": "b0", "callees": ["svc:A.a", "svc:B.b"]}],
            edges=[], entry="b0", exits=["b0"],
            extra_functions=[{"function": "svc:A.a"}, {"function": "svc:B.b"}],
        )
        graph = build_cscfg(doc)
        mapping = build_map(graph)
        spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("a", parent="r", operation="A.a", start=5, duration=10),
            make_span("b", parent="r", operation="B.b", start=30, duration=10),
        ]
        trace = make_trace(spans)
        path = align_trace(graph, trace, mapping)
        dss = named_sets(path, trace)
        assert len(dss) == 1
        assert dss[0].branch_tag == TRUNK_TAG
        assert set(dss[0].spans) == {"r", "a", "b"}

    def test_comfort_trace_two_sets(self, comfort_samples):
        graph, mapping, meta, samples = comfort_samples
        comfort = next(s for s in samples if len(s.trace) == 4)
        path = align_trace(graph, comfort.trace, mapping)
        dss = named_sets(path, comfort.trace)
        assert len(dss) == 2
        assert dss[0].branch_tag == TRUNK_TAG
        assert len(dss[0].spans) == 1  # the entry span alone
        assert len(dss[1].spans) == 3  # the three comfort-arm spans
        assert dss[1].branch_tag.endswith("#c1")

    def test_signatures_distinguish_branches(self, comfort_samples):
        graph, mapping, meta, samples = comfort_samples
        sigs = {}
        for sample in samples:
            path = align_trace(graph, sample.trace, mapping)
            sig = tuple(d.branch_tag for d in named_sets(path, sample.trace))
            sigs.setdefault(len(sample.trace), set()).add(sig)
        assert len(sigs[4]) == 1  # all comfort traces agree
        assert len(sigs[3]) == 1  # all economy traces agree
        assert sigs[4] != sigs[3]

    def test_identical_traces_identical_signatures(self, comfort_samples):
        graph, mapping, meta, samples = comfort_samples
        trace = samples[0].trace
        p1 = named_sets(align_trace(graph, trace, mapping), trace)
        p2 = named_sets(align_trace(graph, trace, mapping), trace)
        assert [d.branch_tag for d in p1] == [d.branch_tag for d in p2]
        assert [d.spans for d in p1] == [d.spans for d in p2]

    def test_two_forks_three_sets_covering_all_spans(self):
        doc = single_function_doc(
            fn=FN,
            blocks=[
                {"id": "t0", "callees": ["svc:X.t0"]},
                {"id": "a1", "callees": ["svc:X.a1", "svc:X.a2"]},
                {"id": "b1", "callees": ["svc:X.b1"]},
                {"id": "m", "callees": ["svc:X.m1", "svc:X.m2"]},
                {"id": "c1", "callees": ["svc:X.c1", "svc:X.c2"]},
                {"id": "d1", "callees": ["svc:X.d1"]},
            ],
            edges=[["t0", "a1"], ["t0", "b1"], ["a1", "m"], ["b1", "m"],
                   ["m", "c1"], ["m", "d1"]],
            entry="t0", exits=["c1", "d1"],
            extra_functions=[{"function": f"svc:X.{n}"}
                             for n in ("t0", "a1", "a2", "b1", "m1", "m2",
                                       "c1", "c2", "d1")],
        )
        graph = build_cscfg(doc)
        mapping = build_map(graph)
        ops = ["X.t0", "X.a1", "X.a2", "X.m1", "X.m2", "X.c1", "X.c2"]
        spans = [make_span("r", operation="Main.run", start=0, duration=1000)]
        for i, op in enumerate(ops):
            spans.append(make_span(f"s{i}", parent="r", operation=op,
                                   start=10 * (i + 1), duration=5))
        trace = make_trace(spans)
        path = align_trace(graph, trace, mapping)
        dss = partition(path, trace)
        assert len(dss) == 3
        assert sum(len(d.spans) for d in dss) == len(trace)
        all_spans = [s for d in dss for s in d.spans]
        assert sorted(all_spans) == sorted(trace.span_ids())

    def test_path_missing_a_span_raises_typed_error(self, comfort_samples):
        graph, mapping, meta, samples = comfort_samples
        trace = samples[0].trace
        path = align_trace(graph, trace, mapping)
        # the path loses its last slot, and its last set if that was the only one;
        # or it holds the root's slot twice in place of its last slot
        slots, tag = path.sets[-1]
        lost = path.sets[:-1] + (((slots[:-1], tag),) if len(slots) > 1 else ())
        repeated = path.sets[:-1] + (((*slots[:-1], 0), tag),)
        # partition trusts align to put every span on a step; the sampler
        # checks the slots it is given
        keys = list(trace.operations)
        for sets in (lost, repeated):
            with pytest.raises(PartitionMismatchError,
                               match=f"partition does not cover trace '{trace.trace_id}'"):
                sample_trace(trace, dataclasses.replace(path, sets=sets), ScoreBook(),
                             LrsLedger(), SamplingConfig(), keys, exclusive_durations(trace))

    def test_dss_count_is_one_plus_fork_gaps(self, comfort_samples):
        graph, mapping, meta, samples = comfort_samples
        for sample in samples[:20]:
            path = align_trace(graph, sample.trace, mapping)
            dss = partition(path, sample.trace)
            ref = reference_align(graph, sample.trace, mapping)
            gaps = sum(1 for s in ref.steps if reference_step_forks(graph, s))
            assert len(dss) == 1 + gaps

    def test_inserted_spans_join_preceding_set(self):
        doc = single_function_doc(
            fn=FN,
            blocks=[{"id": "b0", "callees": ["svc:A.a"]}],
            edges=[], entry="b0", exits=["b0"],
            extra_functions=[{"function": "svc:A.a"}],
        )
        graph = build_cscfg(doc)
        mapping = build_map(graph)
        spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("a", parent="r", operation="A.a", start=5, duration=10),
            make_span("u", parent="r", operation="GET /x", start=30, duration=10),
        ]
        trace = make_trace(spans)
        dss = partition(align_trace(graph, trace, mapping), trace)
        assert len(dss) == 1
        assert "u" in dss[0].spans

    def test_a_fork_after_a_skipped_block_tags_the_next_set(self):
        # a forks to b, whose X.b call the trace skips, and b forks to c: the
        # set between the two forks holds no span and is dropped, and the
        # second fork tags the set of the X.c span
        doc = single_function_doc(
            fn=FN,
            blocks=[{"id": n, "callees": [f"svc:X.{n}"]} for n in "abcde"],
            edges=[["a", "b"], ["a", "e"], ["b", "c"], ["b", "d"]],
            entry="a", exits=["c", "d", "e"],
        )
        graph = build_cscfg(doc)
        mapping = build_map(graph)
        spans = [make_span("r", operation="Main.run", start=0, duration=100),
                 make_span("x", parent="r", operation="X.a", start=5, duration=10),
                 make_span("z", parent="r", operation="X.c", start=30, duration=10)]
        trace = make_trace(spans)
        path = align_trace(graph, trace, mapping)
        assert (path.cost, path.insertions) == (1, 0)
        assert path.sets == (((0, 1), TRUNK_TAG), ((2,), f"{FN}#c"))
        # the skip of X.b by call 0 is an edit, where call 2 would have been
        assert path.forks == (f"{FN}#b", (0, 2), f"{FN}#c")
        ref = reference_align(graph, trace, mapping)
        assert named_sets(path, trace) == oracle_partition(ref, graph, trace)

    def test_loop_iterations_cut_per_occurrence(self):
        # body block loops back on itself: each iteration is separately kept
        graph = self_loop_graph()
        mapping = build_map(graph)
        trace = self_loop_trace(3)
        path = align_trace(graph, trace, mapping)
        assert path.cost == 0
        dss = named_sets(path, trace)
        # the re-enter decision is taken when leaving w, so the first
        # iteration groups with the trunk and each later one is its own set
        tags = tuple(d.branch_tag for d in dss)
        assert tags[0] == TRUNK_TAG
        assert len(dss) == 3
        assert set(dss[0].spans) == {"r", "s0", "w0"}
        assert dss[1].spans == ("w1",)
        assert dss[2].spans == ("w2",)
        assert tags[1].endswith("#w") and tags[2].endswith("#w")

    def test_mutual_inferability_against_path_enumeration(self):
        # on the comfort archetype: every full path contains either all spans
        # of a dominant span set's blocks or none of them
        doc, meta = comfort_economy_system()
        graph = build_cscfg(doc)
        mapping = build_map(graph)
        fn = meta.entry
        sub = graph.subgraph(fn)
        paths = enumerate_simple_paths(sub.succ, sub.entry, sub.exit)
        from spanscope.harness import SystemSpec, generate_traces

        samples = list(generate_traces(
            graph, meta, SystemSpec(seed=2, url_span_probability=0.0), 10))
        for sample in samples:
            path = align_trace(graph, sample.trace, mapping)
            # the package's sets name no block; the reference's steps name each one
            ref = reference_align(graph, sample.trace, mapping)
            order = sample.trace.preorder
            for d in partition(path, sample.trace):
                blocks = {s.block_id for s in ref.steps
                          if s.kind == "match" and order[s.slot].span_id in set(d.spans)}
                if not blocks:
                    continue
                for p in paths:
                    onpath = blocks & set(p)
                    assert onpath == blocks or not onpath


def self_loop_graph():
    """Main.run calls L.h once, then L.w in a block that may loop on itself."""
    doc = single_function_doc(
        fn=FN,
        blocks=[{"id": "h", "callees": ["svc:L.h"]},
                {"id": "w", "callees": ["svc:L.w"]}],
        edges=[["h", "w"], ["w", "w"]],
        entry="h", exits=["w"],
        extra_functions=[{"function": "svc:L.h"}, {"function": "svc:L.w"}],
    )
    return build_cscfg(doc)


def self_loop_trace(iterations, trace_id="t1", url=False):
    spans = [make_span("r", trace_id=trace_id, operation="Main.run", start=0, duration=1000),
             make_span("s0", trace_id=trace_id, parent="r", operation="L.h", start=1,
                       duration=5)]
    for i in range(iterations):
        spans.append(make_span(f"w{i}", trace_id=trace_id, parent="r", operation="L.w",
                               start=10 * (i + 1), duration=5))
    if url:
        spans.append(make_span("u", trace_id=trace_id, parent="r", operation="GET /x",
                               start=500, duration=5))
    return make_trace(spans, trace_id=trace_id)


def nested_loop_graph():
    """Main.run calls Inner.h, whose body loops; the loop's exit is a fork too.

    Leaving the callee's last block and then the caller's block puts two
    forks on one step.
    """
    inner = "svc:Inner.h"
    doc = single_function_doc(
        fn=FN,
        blocks=[{"id": "a", "callees": [inner]}, {"id": "c", "callees": ["svc:X.c"]},
                {"id": "d", "callees": ["svc:X.d"]}],
        edges=[["a", "c"], ["a", "d"]],
        entry="a", exits=["c", "d"],
        extra_functions=[{
            "function": inner,
            "blocks": [{"id": "w", "callees": ["svc:X.w"]}],
            "flow_edges": [["w", "w"]], "entry": "w", "exits": ["w"],
        }, *({"function": f"svc:X.{n}"} for n in ("c", "d", "w"))],
    )
    return build_cscfg(doc)


def nested_loop_trace(i):
    tid = f"t{i}"
    spans = [make_span("r", trace_id=tid, operation="Main.run", start=0, duration=1000),
             make_span("h", trace_id=tid, parent="r", operation="Inner.h", start=1,
                       duration=100)]
    for k in range(1 + i % 3):
        spans.append(make_span(f"w{k}", trace_id=tid, parent="h", operation="X.w",
                               start=2 + 10 * k, duration=5))
    spans.append(make_span("e", trace_id=tid, parent="r", operation="X.c" if i % 2 else "X.d",
                           start=200, duration=5))
    if i % 4 == 0:
        spans.append(make_span("u", trace_id=tid, parent="h", operation="GET /x",
                               start=90, duration=5))
    return make_trace(spans, trace_id=tid)


def oracle_inputs(which):
    """Frozen graph, mapping and traces of one oracle input."""
    if which == "self-loop":
        graph = self_loop_graph()
        traces = [self_loop_trace(1 + i % 4, f"t{i}", url=i % 3 == 0) for i in range(24)]
        return graph, build_map(graph), traces
    if which == "nested-loop":
        graph = nested_loop_graph()
        return graph, build_map(graph), [nested_loop_trace(i) for i in range(24)]
    if which == "deep-chains":
        spec = SystemSpec(seed=5, url_span_probability=0.0)
        doc, meta = variable_depth_system()
        n = 120
    else:
        spec = SystemSpec(seed=which, n_services=6, n_functions_per_service=8,
                          branch_probability=0.3, url_span_probability=0.1)
        doc, meta = generate_system(spec)
        n = 200
    graph = build_cscfg(doc)
    traces = [s.trace for s in generate_traces(graph, meta, spec, n)]
    return graph, build_map(graph), traces


class TestRecordedForksOracle:
    """Sets and recorded forks against a partition of rescanned flow moves."""

    @pytest.mark.parametrize("shared", [True, False], ids=["cache", "no-cache"])
    @pytest.mark.parametrize("which", [7, 11, 23, "deep-chains", "self-loop", "nested-loop"])
    def test_steps_sets_and_forks_equal_the_rescan(self, which, shared):
        graph, mapping, traces = oracle_inputs(which)
        cache = PathCache() if shared else None
        oracle_cache = PathCache() if shared else None
        inserted = forked = multi = 0
        for trace in traces:
            path = align_trace(graph, trace, mapping, cache)
            ref = reference_align(graph, trace, mapping, oracle_cache)
            assert (path.cost, path.insertions) == (ref.cost, ref.insertions)
            assert named_sets(path, trace) == oracle_partition(ref, graph, trace)
            assert path.forks == ref.forks
            inserted += path.insertions
            forked += len(path.forks)
            multi += sum(1 for s in ref.steps if len(reference_step_forks(graph, s)) > 1)
        assert forked > 0
        if which == "nested-loop":
            assert multi > 0
        if which != "deep-chains":
            assert inserted > 0
        if shared:
            assert cache.hits > 0 and cache.hits == oracle_cache.hits


class TestStability:
    def test_partition_pure_function(self, comfort_samples):
        graph, mapping, meta, samples = comfort_samples
        trace = samples[1].trace
        path = align_trace(graph, trace, mapping)
        assert partition(path, trace) == partition(path, trace)
