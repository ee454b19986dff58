import copy
import random

import pytest

import spanscope.align as align_mod
from spanscope.align import TRUNK_TAG, PathCache, _solve, align, trace_signature
from spanscope.cscfg import FunctionRef, build_cscfg
from spanscope.errors import NoPathError
from spanscope.harness import SystemSpec, generate_system, generate_traces
from spanscope.mapping import Unmapped, build_map
from spanscope.partition import partition

from .conftest import (
    add_repeatable_call,
    align_trace,
    make_span,
    make_trace,
    random_cscfg_doc,
    single_function_doc,
)
from .oracles import (
    oracle_invocation_cost,
    oracle_partition,
    oracle_trace_signature,
    reference_align,
    reference_solve,
)
from .test_cscfg import drifted_graph_with_repeatable_blocks
from .test_partition import oracle_inputs

FN = "svc:Main.run"


def linear_graph():
    doc = single_function_doc(
        fn=FN,
        blocks=[
            {"id": "b0", "callees": ["svc:A.a"]},
            {"id": "b1", "callees": ["svc:B.b"]},
        ],
        edges=[["b0", "b1"]],
        entry="b0", exits=["b1"],
        extra_functions=[{"function": "svc:A.a"}, {"function": "svc:B.b"}],
    )
    return build_cscfg(doc)


def linear_trace(with_url=False, trace_id="t1"):
    spans = [
        make_span("r", trace_id=trace_id, operation="Main.run", start=0, duration=100),
        make_span("a", trace_id=trace_id, parent="r", operation="A.a", start=5, duration=10),
        make_span("b", trace_id=trace_id, parent="r", operation="B.b", start=30, duration=10),
    ]
    if with_url:
        spans.append(make_span("u", trace_id=trace_id, parent="r",
                               operation="GET /api/x", start=50, duration=5))
    return make_trace(spans, trace_id=trace_id)


def nested_graph():
    """Main.run calls Inner.h, whose body calls the leaf X.deep."""
    inner = "svc:Inner.h"
    doc = single_function_doc(
        fn=FN,
        blocks=[{"id": "b0", "callees": [inner]}],
        edges=[], entry="b0", exits=["b0"],
        extra_functions=[{
            "function": inner,
            "blocks": [{"id": "c0", "callees": ["svc:X.deep"]}],
            "flow_edges": [], "entry": "c0", "exits": ["c0"],
        }, {"function": "svc:X.deep"}],
    )
    return build_cscfg(doc)


def nested_trace(trace_id, with_url):
    spans = [
        make_span("r", trace_id=trace_id, operation="Main.run", start=0, duration=100),
        make_span("h", trace_id=trace_id, parent="r", operation="Inner.h", start=5,
                  duration=50),
        make_span("d", trace_id=trace_id, parent="h", operation="X.deep", start=10,
                  duration=10),
    ]
    if with_url:
        spans.append(make_span("u", trace_id=trace_id, parent="r",
                               operation="GET /zz", start=60, duration=5))
    return make_trace(spans, trace_id=trace_id)


class TestAlign:
    def test_exact_match_cost_zero(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        path = align_trace(graph, linear_trace(), mapping)
        assert path.cost == 0
        assert path.insertions == 0
        assert path.sets == (((0, 1, 2), TRUNK_TAG),)
        assert path.forks == ()

    def test_every_span_on_exactly_one_step(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        trace = linear_trace(with_url=True)
        path = align_trace(graph, trace, mapping)
        linked = [slot for slots, _ in path.sets for slot in slots]
        assert sorted(linked) == list(range(len(trace.preorder)))

    def test_url_span_costs_one_insertion(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        trace = linear_trace(with_url=True)
        path = align_trace(graph, trace, mapping)
        assert path.cost == 1
        assert path.insertions == 1
        assert path.sets == (((0, 1, 2, 3), TRUNK_TAG),)
        assert trace.preorder[3].span_id == "u"
        # the URL span is the one symbol the solver inserts
        assert _solve(graph, FN, ("svc:A.a", "svc:B.b", None)) == \
            (1, 1, (("match", 0), ("match", 1), ("ins", 2)))

    def test_insert_recorded_on_graph_sink(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        align_trace(graph, linear_trace(), mapping)  # fills the graph's caches
        before = copy.deepcopy(vars(graph))
        path = align_trace(graph, linear_trace(with_url=True), mapping)
        assert path.insertions == 1
        # the insertion lives on the path: the frozen graph is not written
        assert vars(graph) == before

    def test_distinct_inserted_operations_leave_the_insert_state_flat(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)

        def url_trace(i):
            trace = linear_trace(trace_id=f"t{i}")
            url = make_span("u", trace_id=f"t{i}", parent="r",
                            operation=f"GET /api/orders/{i}", start=50, duration=5)
            return make_trace(list(trace.spans) + [url], trace_id=f"t{i}")

        for i in range(10):
            assert align_trace(graph, url_trace(i), mapping).insertions == 1
        before = copy.deepcopy(vars(graph))
        for i in range(10, 5010):
            assert align_trace(graph, url_trace(i), mapping).insertions == 1
        assert vars(graph) == before

    def test_comfort_branch_cost_zero(self, comfort_samples):
        graph, mapping, meta, samples = comfort_samples
        for sample in samples[:10]:
            path = align_trace(graph, sample.trace, mapping)
            assert path.cost == 0

    def test_missing_span_skips_avoidable_block(self):
        # trace omits the A.a span; b0 is mandatory so the aligner prefers
        # keeping the path and paying the prohibitive-skip bill over nothing
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("b", parent="r", operation="B.b", start=30, duration=10),
        ]
        path = align_trace(graph, make_trace(spans), mapping)
        # one skipped block, b0 and its A.a call, before the B.b match; a
        # skip with no fork after it cuts no set
        assert path.sets == (((0, 1), TRUNK_TAG),)
        assert [a[0] for a in _solve(graph, FN, ("svc:B.b",))[2]] == ["skip", "match"]
        assert path.cost >= 1

    def test_unmapped_root_raises_no_path(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        spans = [make_span("r", operation="GET /", start=0, duration=10)]
        with pytest.raises(NoPathError) as err:
            align_trace(graph, make_trace(spans), mapping)
        assert err.value.span_id == "r"

    def test_unknown_entry_function_raises_no_path(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        spans = [make_span("r", operation="Main.run", service="elsewhere",
                           start=0, duration=10)]
        with pytest.raises(NoPathError):
            align_trace(graph, make_trace(spans), mapping)

    def test_deterministic_repeat(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        trace = linear_trace(with_url=True)
        assert align_trace(graph, trace, mapping) == align_trace(graph, trace, mapping)


class TestOptimality:
    def test_matches_brute_force_on_random_children(self):
        # one invocation against a diamond-with-tail function; symbols drawn
        # randomly so matches, inserts and skips all occur
        fn = FN
        doc = single_function_doc(
            fn=fn,
            blocks=[
                {"id": "e", "callees": ["svc:X.e"]},
                {"id": "L1", "callees": ["svc:X.l1"]},
                {"id": "L2", "callees": ["svc:X.l2"]},
                {"id": "R1", "callees": ["svc:X.r1"]},
                {"id": "t", "callees": ["svc:X.t"]},
            ],
            edges=[["e", "L1"], ["L1", "L2"], ["e", "R1"], ["L2", "t"], ["R1", "t"]],
            entry="e", exits=["t"],
            extra_functions=[{"function": f"svc:X.{n}"}
                             for n in ("e", "l1", "l2", "r1", "t")],
        )
        graph = build_cscfg(doc).freeze()
        mapping = build_map(graph)
        ops = ["X.e", "X.l1", "X.l2", "X.r1", "X.t", "X.e"]
        rng = random.Random(21)
        for trial in range(200):
            k = rng.randint(0, 5)
            chosen = [rng.choice(ops) for _ in range(k)]
            spans = [make_span("r", operation="Main.run", start=0, duration=10000)]
            for i, op in enumerate(chosen):
                spans.append(make_span(f"c{i}", parent="r", operation=op,
                                       start=10 * (i + 1), duration=5))
            trace = make_trace(spans)
            path = align_trace(graph, trace, mapping)
            resolved = [mapping.resolve(s) for s in trace.child_spans("r")]
            symbol_fns = [r.key for r in resolved]
            expected = oracle_invocation_cost(graph, fn, symbol_fns)
            assert path.cost == expected, (trial, chosen, path.cost, expected)

    def test_nested_invocations_sum_costs(self):
        graph = nested_graph().freeze()
        mapping = build_map(graph)
        spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("h", parent="r", operation="Inner.h", start=5, duration=50),
            make_span("d", parent="h", operation="X.deep", start=10, duration=10),
            make_span("u", parent="h", operation="GET /zz", start=30, duration=5),
        ]
        path = align_trace(graph, make_trace(spans), mapping)
        assert path.cost == 1  # the URL insertion inside the inner invocation
        assert path.insertions == 1

    def test_nested_skip_costs_without_inserting(self):
        inner = "svc:Inner.h"
        doc = single_function_doc(
            fn=FN, blocks=[{"id": "b0", "callees": [inner]}],
            edges=[], entry="b0", exits=["b0"],
            extra_functions=[{
                "function": inner,
                "blocks": [{"id": "s", "callees": []},
                           {"id": "ca", "callees": ["svc:Y.opt", "svc:X.deep"]},
                           {"id": "cb", "callees": ["svc:W.w"]}],
                "flow_edges": [["s", "ca"], ["s", "cb"]], "entry": "s", "exits": ["ca", "cb"],
            }, {"function": "svc:X.deep"}, {"function": "svc:Y.opt"}, {"function": "svc:W.w"}],
        )
        graph = build_cscfg(doc).freeze()
        spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("h", parent="r", operation="Inner.h", start=5, duration=50),
            make_span("d", parent="h", operation="X.deep", start=10, duration=10),
            make_span("u", parent="r", operation="GET /zz", start=60, duration=5),
        ]
        path = align_trace(graph, make_trace(spans), build_map(graph))
        # Main inserts the URL span; Inner.h skips the unwitnessed Y.opt call
        assert (path.cost, path.insertions) == (2, 1)
        # r, h, the skip of Y.opt, d, then u; entering Inner.h forks into ca,
        # which cuts after h and tags the set of d and u. The skip is an edit:
        # call 1 (h) skips the call that would have been call 2, which d is
        assert path.sets == (((0, 1), TRUNK_TAG), ((2, 3), f"{inner}#ca"))
        assert path.forks == (f"{inner}#ca", (1, 2))
        assert _solve(graph, inner, ("svc:X.deep",)) == \
            (1, 0, (("fork", f"{inner}#ca"), ("skip",), ("match", 0)))


class TestCache:
    def setup_method(self):
        self.graph = linear_graph().freeze()
        self.mapping = build_map(self.graph)

    def test_same_shape_hits(self):
        cache = PathCache()
        align_trace(self.graph, linear_trace(trace_id="t1"), self.mapping, cache)
        align_trace(self.graph, linear_trace(trace_id="t2"), self.mapping, cache)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_durations_do_not_change_key(self):
        t1 = linear_trace(trace_id="t1")
        spans = [
            make_span("r", trace_id="t2", operation="Main.run", start=0, duration=999),
            make_span("a", trace_id="t2", parent="r", operation="A.a", start=1, duration=7),
            make_span("b", trace_id="t2", parent="r", operation="B.b", start=20, duration=3),
        ]
        t2 = make_trace(spans, trace_id="t2")
        r1 = {s.span_id: self.mapping.resolve(s) for s in t1.spans}
        r2 = {s.span_id: self.mapping.resolve(s) for s in t2.spans}
        assert trace_signature(t1, r1) == trace_signature(t2, r2)

    def test_nesting_changes_key(self):
        flat = linear_trace(trace_id="t1")
        nested_spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("a", parent="r", operation="A.a", start=5, duration=40),
            make_span("b", parent="a", operation="B.b", start=10, duration=10),
        ]
        nested = make_trace(nested_spans)
        r1 = {s.span_id: self.mapping.resolve(s) for s in flat.spans}
        r2 = {s.span_id: self.mapping.resolve(s) for s in nested.spans}
        assert trace_signature(flat, r1) != trace_signature(nested, r2)

    def test_cached_path_equals_fresh(self):
        cache = PathCache()
        fresh = align_trace(self.graph, linear_trace(trace_id="t1"), self.mapping, cache)
        cached = align_trace(self.graph, linear_trace(trace_id="t2"), self.mapping, cache)
        no_cache = align_trace(self.graph, linear_trace(trace_id="t2"), self.mapping)
        assert cached == no_cache
        assert fresh.cost == cached.cost
        assert cached is fresh

    def test_lru_eviction_capacity_one(self, monkeypatch):
        monkeypatch.setattr(align_mod, "PATH_CACHE_CAPACITY", 1)
        cache = PathCache()
        t_url = linear_trace(with_url=True, trace_id="t1")
        t_flat = linear_trace(trace_id="t2")
        align_trace(self.graph, t_url, self.mapping, cache)
        align_trace(self.graph, t_flat, self.mapping, cache)  # evicts t_url's shape
        align_trace(self.graph, linear_trace(with_url=True, trace_id="t3"), self.mapping, cache)
        align_trace(self.graph, linear_trace(trace_id="t4"), self.mapping, cache)
        assert cache.hits == 0
        assert cache.misses == 4

    def test_lookup_misses_then_hits(self):
        cache = PathCache()
        trace = linear_trace()
        res = {s.span_id: self.mapping.resolve(s) for s in trace.spans}
        key = trace_signature(trace, res)
        assert cache.lookup(key) is None
        align_trace(self.graph, trace, self.mapping, cache)
        assert cache.lookup(key) is not None


def generated_samples(seed, n=200):
    spec = SystemSpec(seed=seed, n_services=8, n_functions_per_service=8,
                      branch_probability=0.3, url_span_probability=0.1)
    doc, meta = generate_system(spec)
    graph = build_cscfg(doc)
    mapping = build_map(graph)
    samples = list(generate_traces(graph, meta, spec, n))
    graph.freeze()
    return graph, mapping, samples


def assert_same_partition(signatures, references):
    """Two items share a signature exactly when they share a reference signature."""
    pairs = set(zip(signatures, references))
    assert len(pairs) == len(set(signatures)) == len(set(references))


class TestSignatureReference:
    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_generated_traces(self, seed):
        _graph, mapping, samples = generated_samples(seed)
        sigs, refs = [], []
        for sample in samples:
            trace = sample.trace
            res = {s.span_id: mapping.resolve(s) for s in trace.spans}
            sigs.append(trace_signature(trace, res))
            refs.append(oracle_trace_signature(trace, res))
        assert_same_partition(sigs, refs)
        assert 1 < len(set(sigs)) < len(sigs)

    def test_small_random_trees(self):
        # two function keys plus unmapped over tiny trees: shapes collide often
        rng = random.Random(41)
        labels = [FunctionRef("svc", "A", "a"), FunctionRef("svc", "B", "b"), Unmapped("url")]
        sigs, refs = [], []
        for i in range(3000):
            spans = [make_span("s0", trace_id=f"t{i}", duration=100)]
            for j in range(1, rng.randint(1, 6)):
                parent = rng.choice(spans)
                # half the parent's duration leaves room for the offset, so
                # each child lies inside its parent
                spans.append(make_span(f"s{j}", trace_id=f"t{i}", parent=parent.span_id,
                                       start=parent.start_time + rng.randint(0, 3),
                                       duration=parent.duration // 2))
            trace = make_trace(spans, trace_id=f"t{i}")
            res = {s.span_id: rng.choice(labels) for s in trace.spans}
            sigs.append(trace_signature(trace, res))
            refs.append(oracle_trace_signature(trace, res))
        assert_same_partition(sigs, refs)
        assert len(set(sigs)) > 100


class TestSolveCache:
    def test_new_shape_reuses_shared_invocation(self):
        graph = nested_graph().freeze()
        mapping = build_map(graph)
        cache = PathCache()
        align_trace(graph, nested_trace("t1", with_url=False), mapping, cache)
        second = align_trace(graph, nested_trace("t2", with_url=True), mapping, cache)
        # the URL span changes Main.run's invocation, not Inner.h's: Inner.h's
        # whole subtree comes back from the subtree map, unsolved
        assert cache.hits == 0
        assert cache.misses == 2
        assert cache.subtree_hits >= 1
        assert second == align_trace(graph, nested_trace("t2", with_url=True), mapping)

    def test_cache_needs_frozen_graph(self):
        graph = linear_graph()
        mapping = build_map(graph)
        trace = linear_trace()
        with pytest.raises(ValueError):
            align_trace(graph, trace, mapping)
        assert align_trace(graph.freeze(), trace, mapping).cost == 0

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_shared_cache_equals_uncached(self, seed):
        graph, mapping, samples = generated_samples(seed)
        cache = PathCache()
        for sample in samples:
            cached = align_trace(graph, sample.trace, mapping, cache)
            assert cached == align_trace(graph, sample.trace, mapping)
        assert cache.misses > 0
        assert cache.solve_hits > 0

    def test_capacity_one_bounds_both_maps(self, monkeypatch):
        monkeypatch.setattr(align_mod, "PATH_CACHE_CAPACITY", 1)
        graph, mapping, samples = generated_samples(7, n=60)
        cache = PathCache()
        for sample in samples:
            cached = align_trace(graph, sample.trace, mapping, cache)
            assert len(cache) <= 1
            assert len(cache._shapes) <= 1
            assert len(cache._solves) <= 1
            assert cached == align_trace(graph, sample.trace, mapping)
        assert cache.solve_misses > 1
        assert cache.subtree_misses > 1

    def test_a_stream_of_new_shapes_keeps_every_map_bounded(self, monkeypatch):
        # random trees over two callees, a nested caller and unmapped spans:
        # nearly every trace is a shape not seen before
        graph = nested_graph().freeze()
        mapping = build_map(graph)
        ops = ["Inner.h", "X.deep", "Main.run", "GET /zz"]
        rng = random.Random(17)
        monkeypatch.setattr(align_mod, "PATH_CACHE_CAPACITY", 8)
        cache = PathCache()
        shapes = set()
        for i in range(1500):
            tid = f"t{i}"
            # each span lasts half its parent, which leaves room for the offset
            # j below 14 at every depth, so children nest inside their parent
            spans = [make_span("r", trace_id=tid, operation="Main.run", duration=10**9)]
            for j in range(1, rng.randint(2, 14)):
                parent = rng.choice(spans)
                spans.append(make_span(f"s{j}", trace_id=tid, parent=parent.span_id,
                                       operation=rng.choice(ops), start=parent.start_time + j,
                                       duration=parent.duration // 2))
            trace = make_trace(spans, trace_id=tid)
            res = {s.span_id: mapping.resolve(s) for s in trace.spans}
            shapes.add(trace_signature(trace, res))
            align(graph, trace, cache, res)
            assert len(cache) <= 8
            assert len(cache._shapes) <= 8
            assert len(cache._solves) <= 8
        assert len(shapes) > 100 * 8
        assert cache.subtree_hits > 0 and cache.subtree_misses > len(shapes)


class TestHarnessTraffic:
    def test_generated_traces_align_with_insert_only_cost(self):
        spec = SystemSpec(seed=23, url_span_probability=0.2)
        from spanscope.harness import generate_system

        doc, meta = generate_system(spec)
        graph = build_cscfg(doc)
        mapping = build_map(graph)
        samples = list(generate_traces(graph, meta, spec, 40))
        graph.freeze()
        for sample in samples:
            path = align_trace(graph, sample.trace, mapping)
            url_spans = sum(1 for s in sample.trace.spans if s.operation.startswith("GET "))
            assert path.cost == url_spans
            assert path.insertions == url_spans


def reference_inputs(which):
    """Frozen graph, mapping and traces of one input of the reference comparison."""
    if which in ("small-40", "drifted"):
        spec = (SystemSpec(seed=3, n_services=5, n_functions_per_service=8,
                           branch_probability=0.3)
                if which == "small-40" else SystemSpec(seed=5))
        doc, meta = generate_system(spec)
        traces = [s.trace for s in generate_traces(build_cscfg(doc), meta, spec, 200)]
        graph = build_cscfg(doc) if which == "small-40" else \
            drifted_graph_with_repeatable_blocks()
        return graph.freeze(), build_map(graph), traces
    return oracle_inputs(which)


def patched_matches(ref) -> int:
    """Matches of a reference path on a repeatable block's call."""
    return sum(1 for s in ref.steps if s.kind == "match" and "#patch" in s.block_id)


class TestComposedPathReference:
    """Paths composed from subtree fragments against the frame-stack aligner."""

    @pytest.mark.parametrize("capacity", [4096, 1], ids=["default", "capacity-1"])
    @pytest.mark.parametrize("which", [7, 11, 23, "small-40", "deep-chains", "nested-loop",
                                       "drifted"])
    def test_composed_path_equals_the_reference(self, which, capacity, monkeypatch):
        graph, mapping, traces = reference_inputs(which)
        monkeypatch.setattr(align_mod, "PATH_CACHE_CAPACITY", capacity)
        cache = PathCache()
        patched = 0
        for trace in traces:
            path = align_trace(graph, trace, mapping, cache)
            ref = reference_align(graph, trace, mapping)
            assert partition(path, trace) == oracle_partition(ref, graph, trace)
            assert (path.cost, path.insertions, path.forks) == \
                (ref.cost, ref.insertions, ref.forks)
            patched += patched_matches(ref)
            if capacity == 1:
                assert len(cache._shapes) <= 1
        assert cache.misses > 0
        if capacity > 1 and which != "deep-chains":
            assert cache.subtree_hits > 0
        if which == "drifted":
            assert patched > 0

    def test_a_missing_path_names_the_same_span(self):
        # Inner.h is a line of five mandatory calls: an invocation that
        # witnesses none of them costs 5 * PROHIBITIVE_COST, which is no path
        inner = "svc:Inner.h"
        calls = [f"svc:X.c{i}" for i in range(5)]
        doc = single_function_doc(
            fn=FN, blocks=[{"id": "b0", "callees": [inner]}], edges=[], entry="b0",
            exits=["b0"],
            extra_functions=[{
                "function": inner,
                "blocks": [{"id": f"c{i}", "callees": [c]} for i, c in enumerate(calls)],
                "flow_edges": [[f"c{i}", f"c{i + 1}"] for i in range(4)],
                "entry": "c0", "exits": ["c4"],
            }] + [{"function": c} for c in calls],
        )
        graph = build_cscfg(doc).freeze()
        mapping = build_map(graph)
        full = [make_span(f"f{i}", parent="h0", operation=c.split(":")[1], start=2 + i,
                          duration=1) for i, c in enumerate(calls)]
        cases = {
            "leaf": [make_span("h0", parent="r", operation="Inner.h", start=1, duration=50)],
            "first-child": [make_span("h0", parent="r", operation="Inner.h", start=1,
                                      duration=50),
                            make_span("u", parent="h0", operation="GET /zz", start=2,
                                      duration=1)],
            "two-without-path": [make_span("h0", parent="r", operation="Inner.h", start=1,
                                           duration=50)] + full + [
                make_span("h1", parent="r", operation="Inner.h", start=60, duration=5),
                make_span("u1", parent="h1", operation="GET /zz", start=61, duration=1),
                make_span("h2", parent="r", operation="Inner.h", start=70, duration=5),
                make_span("u2", parent="h2", operation="GET /zz", start=71, duration=1)],
        }
        expected = {"leaf": inner, "first-child": "u", "two-without-path": "u1"}
        for name, spans in cases.items():
            trace = make_trace([make_span("r", operation="Main.run", start=0, duration=100)]
                               + spans)
            with pytest.raises(NoPathError) as got:
                align_trace(graph, trace, mapping)
            with pytest.raises(NoPathError) as want:
                reference_align(graph, trace, mapping)
            assert got.value.span_id == want.value.span_id == expected[name]
            assert str(got.value) == str(want.value)


def random_solver_graph(seed):
    """Random loop-carrying function graphs with optional, repeatable blocks,
    and a line of six mandatory blocks so that some invocations have no
    path."""
    rng = random.Random(seed)
    functions, external = [], set()
    for k in range(8):
        doc = random_cscfg_doc(rng)
        fn = doc["functions"][0]
        fn["function"] = f"svc:R.f{k}"
        functions.append(fn)
        external.update(doc["external_functions"])
    functions.append({
        "function": "svc:R.line",
        "blocks": [{"id": f"l{i}", "callees": [f"x:Leaf.c{i}"]} for i in range(6)],
        "flow_edges": [[f"l{i}", f"l{i + 1}"] for i in range(5)],
        "entry": "l0", "exits": ["l5"],
    })
    external.update(f"x:Leaf.c{i}" for i in range(10))
    doc = {"schema_version": 1, "functions": functions, "external_functions": sorted(external)}
    leaves = sorted(external)
    for block_id in sorted(build_cscfg(doc).blocks):
        if rng.random() < 0.3:
            fn, local = block_id.rsplit("#", 1)
            add_repeatable_call(doc, fn, local, rng.choice(leaves))
    return build_cscfg(doc).freeze(), leaves


def solve_projected(graph, fn, solved):
    """A reference solve result in the shape `_solve` returns: each action's
    node and callee dropped, and of the flow moves only those that the graph
    shows leave a node with more than one successor, as forks."""
    if solved is None:
        return None
    cost, ins, acts = solved
    out = []
    for act in acts:
        if act[0] == "match":
            out.append(("match", act[3]))
        elif act[0] == "skip":
            out.append(("skip",))
        elif act[0] == "ins":
            out.append(act)
        elif len(graph.successors(fn, act[1])) > 1:
            out.append(("fork", act[2]))
    return cost, ins, tuple(out)


def tie_graph(blocks, edges, entry, exits, patched=()):
    """A frozen graph of FN alone, with a repeatable block after each
    (block, callee) of patched."""
    doc = single_function_doc(
        fn=FN, blocks=[{"id": b, "callees": [f"svc:X.{c}" for c in cs]} for b, cs in blocks],
        edges=edges, entry=entry, exits=exits)
    for block, callee in patched:
        add_repeatable_call(doc, FN, block, f"svc:X.{callee}")
    return build_cscfg(doc).freeze()


# equal-cost choices the move preference settles: (graph, symbols, expected)
TIES = {
    # both arms call X.x: the fork to the smaller target id, "a", wins
    "same-callee-arms": (
        tie_graph([("s", ""), ("z", "x"), ("a", "x"), ("t", "")],
                  [["s", "z"], ["s", "a"], ["z", "t"], ["a", "t"]], "s", ["t"]),
        ("svc:X.x",),
        (0, 0, (("fork", f"{FN}#a"), ("match", 0)))),
    # X.b unwitnessed, the URL span unexplained: skipping first and
    # inserting first both cost (2, 1), and the skip wins
    "skip-or-insert": (
        tie_graph([("s", ""), ("b", "abc"), ("t", "")],
                  [["s", "b"], ["b", "t"], ["s", "t"]], "s", ["t"]),
        ("svc:X.a", None, "svc:X.c"),
        (2, 1, (("fork", f"{FN}#b"), ("match", 0), ("skip",), ("ins", 1), ("match", 2)))),
    # a repeatable block after b0 calls X.b, the next block's callee: the
    # fork to b1 wins over the fork to the repeatable block, as its id,
    # FN#b1, is the smaller
    "patched-or-next-static": (
        tie_graph([("b0", "a"), ("b1", "b"), ("t", "")],
                  [["b0", "b1"], ["b1", "t"], ["b0", "t"]], "b0", ["t"],
                  patched=[("b0", "b")]),
        ("svc:X.a", "svc:X.b"),
        (0, 0, (("match", 0), ("fork", f"{FN}#b1"), ("match", 1)))),
}


class TestBackwardSolver:
    @pytest.mark.parametrize("case", sorted(TIES))
    def test_ties_follow_the_move_preference(self, case):
        graph, syms, expected = TIES[case]
        assert _solve(graph, FN, syms) == expected
        assert solve_projected(graph, FN, reference_solve(graph, FN, syms)) == expected

    @pytest.mark.parametrize("seed", range(1, 17))
    def test_solve_equals_the_forward_reference(self, seed):
        graph, leaves = random_solver_graph(seed)
        rng = random.Random(seed)
        pool = leaves + [None, "svc:No.such"]
        outcomes = {"none": 0, "patched": 0, "forked": 0}
        for fn in sorted(graph.functions):
            if not graph.has_body(fn):
                continue
            for _ in range(40):
                syms = tuple(rng.choice(pool) for _ in range(rng.randint(0, 7)))
                got = _solve(graph, fn, syms)
                assert got == solve_projected(graph, fn, reference_solve(graph, fn, syms)), \
                    (fn, syms)
                if got is None:
                    outcomes["none"] += 1
                else:
                    outcomes["patched"] += any(a[0] == "fork" and "#patch" in a[1] for a in got[2])
                    outcomes["forked"] += any(a[0] == "fork" for a in got[2])
        assert all(outcomes.values()), outcomes
