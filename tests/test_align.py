import random

import pytest

from spanscope.align import PathCache, align, trace_signature
from spanscope.cscfg import FunctionRef, build_cscfg
from spanscope.errors import NoPathError
from spanscope.harness import SystemSpec, generate_system, generate_traces
from spanscope.mapping import Unmapped, build_map

from .conftest import make_span, make_trace, single_function_doc
from .oracles import oracle_invocation_cost, oracle_trace_signature

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
        path = align(graph, linear_trace(), mapping)
        assert path.cost == 0
        assert path.insertions == 0
        kinds = [s.kind for s in path.steps]
        assert kinds == ["enter", "match", "match"]

    def test_every_span_on_exactly_one_step(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        trace = linear_trace(with_url=True)
        path = align(graph, trace, mapping)
        linked = [s.slot for s in path.steps if s.slot is not None]
        assert sorted(linked) == list(range(len(trace.preorder)))

    def test_url_span_costs_one_insertion(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        trace = linear_trace(with_url=True)
        path = align(graph, trace, mapping)
        assert path.cost == 1
        assert path.insertions == 1
        inserted = [s for s in path.steps if s.kind == "insert"]
        assert len(inserted) == 1
        assert trace.preorder[inserted[0].slot].span_id == "u"
        assert inserted[0].block_id is None

    def test_insert_recorded_on_graph_sink(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        align(graph, linear_trace(with_url=True), mapping)
        assert graph.alignment_inserts == 1

    def test_distinct_inserted_operations_leave_the_insert_state_flat(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)

        def url_trace(i):
            trace = linear_trace(trace_id=f"t{i}")
            url = make_span("u", trace_id=f"t{i}", parent="r",
                            operation=f"GET /api/orders/{i}", start=50, duration=5)
            return make_trace(list(trace.spans) + [url], trace_id=f"t{i}")

        def state_size():
            return sum(len(v) for v in vars(graph).values() if hasattr(v, "__len__"))

        for i in range(10):
            align(graph, url_trace(i), mapping)
        before = state_size()
        for i in range(10, 5010):
            align(graph, url_trace(i), mapping)
        assert state_size() == before
        assert graph.alignment_inserts == 5010

    def test_comfort_branch_cost_zero(self, comfort_samples):
        graph, mapping, meta, samples = comfort_samples
        for sample in samples[:10]:
            path = align(graph, sample.trace, mapping)
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
        path = align(graph, make_trace(spans), mapping)
        skipped = [s for s in path.steps if s.kind == "skip"]
        assert len(skipped) == 1
        assert skipped[0].callee == "svc:A.a"
        assert path.cost >= 1

    def test_unmapped_root_raises_no_path(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        spans = [make_span("r", operation="GET /", start=0, duration=10)]
        with pytest.raises(NoPathError) as err:
            align(graph, make_trace(spans), mapping)
        assert err.value.span_id == "r"

    def test_unknown_entry_function_raises_no_path(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        spans = [make_span("r", operation="Main.run", service="elsewhere",
                           start=0, duration=10)]
        with pytest.raises(NoPathError):
            align(graph, make_trace(spans), mapping)

    def test_deterministic_repeat(self):
        graph = linear_graph().freeze()
        mapping = build_map(graph)
        trace = linear_trace(with_url=True)
        assert align(graph, trace, mapping) == align(graph, trace, mapping)


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
            path = align(graph, trace, mapping)
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
        path = align(graph, make_trace(spans), mapping)
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
        path = align(graph, make_trace(spans), build_map(graph))
        # Main inserts the URL span; Inner.h skips the unwitnessed Y.opt call
        assert (path.cost, path.insertions) == (2, 1)
        assert [s.kind for s in path.steps] == ["enter", "match", "skip", "match", "insert"]


class TestCache:
    def setup_method(self):
        self.graph = linear_graph().freeze()
        self.mapping = build_map(self.graph)

    def test_same_shape_hits(self):
        cache = PathCache()
        align(self.graph, linear_trace(trace_id="t1"), self.mapping, cache)
        align(self.graph, linear_trace(trace_id="t2"), self.mapping, cache)
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
        fresh = align(self.graph, linear_trace(trace_id="t1"), self.mapping, cache)
        cached = align(self.graph, linear_trace(trace_id="t2"), self.mapping, cache)
        no_cache = align(self.graph, linear_trace(trace_id="t2"), self.mapping, None)
        assert cached == no_cache
        assert fresh.cost == cached.cost
        assert cached is fresh

    def test_lru_eviction_capacity_one(self):
        cache = PathCache(capacity=1)
        t_url = linear_trace(with_url=True, trace_id="t1")
        t_flat = linear_trace(trace_id="t2")
        align(self.graph, t_url, self.mapping, cache)
        align(self.graph, t_flat, self.mapping, cache)  # evicts t_url's shape
        align(self.graph, linear_trace(with_url=True, trace_id="t3"), self.mapping, cache)
        align(self.graph, linear_trace(trace_id="t4"), self.mapping, cache)
        assert cache.hits == 0
        assert cache.misses == 4

    def test_lookup_misses_then_hits(self):
        cache = PathCache()
        trace = linear_trace()
        res = {s.span_id: self.mapping.resolve(s) for s in trace.spans}
        key = trace_signature(trace, res)
        assert cache.lookup(key) is None
        align(self.graph, trace, self.mapping, cache)
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
                spans.append(make_span(f"s{j}", trace_id=f"t{i}", parent=parent.span_id,
                                       start=parent.start_time + rng.randint(0, 3),
                                       duration=rng.randint(0, 40)))
            trace = make_trace(spans, trace_id=f"t{i}", slack=200)
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
        align(graph, nested_trace("t1", with_url=False), mapping, cache)
        second = align(graph, nested_trace("t2", with_url=True), mapping, cache)
        # the URL span changes Main.run's invocation, not Inner.h's
        assert cache.hits == 0
        assert cache.misses == 2
        assert cache.solve_hits >= 1
        assert second == align(graph, nested_trace("t2", with_url=True), mapping, None)

    def test_cache_needs_frozen_graph(self):
        graph = linear_graph()
        mapping = build_map(graph)
        trace = linear_trace()
        assert align(graph, trace, mapping).cost == 0
        with pytest.raises(ValueError):
            align(graph, trace, mapping, PathCache())

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_shared_cache_equals_uncached(self, seed):
        graph, mapping, samples = generated_samples(seed)
        cache = PathCache()
        for sample in samples:
            cached = align(graph, sample.trace, mapping, cache)
            assert cached == align(graph, sample.trace, mapping, None)
        assert cache.misses > 0
        assert cache.solve_hits > 0

    def test_capacity_one_bounds_both_maps(self):
        graph, mapping, samples = generated_samples(7, n=60)
        cache = PathCache(capacity=1)
        for sample in samples:
            cached = align(graph, sample.trace, mapping, cache)
            assert len(cache) <= 1
            assert len(cache._solves) <= 1
            assert cached == align(graph, sample.trace, mapping, None)
        assert cache.solve_misses > 1


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
            path = align(graph, sample.trace, mapping)
            url_spans = sum(1 for s in sample.trace.spans if s.operation.startswith("GET "))
            assert path.cost == url_spans
            assert path.insertions == url_spans
