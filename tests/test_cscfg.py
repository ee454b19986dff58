import dataclasses
import random

import pytest

from spanscope.cscfg import (
    PROV_DYNAMIC,
    Cscfg,
    FunctionRef,
    build_cscfg,
    compute_dominance,
    entry_node,
    exit_node,
    parse_function_key,
    patch_with_traces,
)
from spanscope.errors import (
    DanglingCalleeError,
    GraphFrozenError,
    MalformedDocumentError,
    UnreachableBlockError,
)
from spanscope.mapping import build_map

from .conftest import make_span, make_trace, random_cscfg_doc, single_function_doc
from .oracles import oracle_dom_sets, oracle_equiv_classes, oracle_pdom_sets

FN = "svc:Main.run"


def blk(bid, *callees):
    return {"id": bid, "callees": list(callees)}


class TestFunctionRef:
    def test_key_round_trip(self):
        ref = FunctionRef("svc", "pkg.Class", "fn")
        assert parse_function_key(ref.key) == ref

    def test_key_is_the_formatted_string_and_leaves_identity_alone(self):
        ref = FunctionRef("svc", "pkg.Class", "fn")
        twin = FunctionRef("svc", "pkg.Class", "fn")
        hash_before = hash(ref)
        assert ref.key == "svc:pkg.Class.fn"
        assert ref.key is ref.key  # computed once
        assert ref == twin and hash(ref) == hash(twin) == hash_before
        assert ref != FunctionRef("svc", "pkg.Class", "gn")
        assert dataclasses.astuple(ref) == ("svc", "pkg.Class", "fn")
        assert [f.name for f in dataclasses.fields(FunctionRef)] == \
            ["service", "class_name", "function_name"]
        assert dataclasses.replace(ref, function_name="gn").key == "svc:pkg.Class.gn"
        with pytest.raises(dataclasses.FrozenInstanceError):
            ref.service = "other"

    def test_empty_fields_rejected(self):
        with pytest.raises(ValueError):
            FunctionRef("", "C", "f")

    def test_bad_key_rejected(self):
        with pytest.raises(MalformedDocumentError):
            parse_function_key("noseparator")


class TestBuild:
    def test_straight_line_contraction(self):
        # BB1 and BB4 make no calls and are dropped; BB2 -> BB3 is contracted
        doc = single_function_doc(
            fn=FN,
            blocks=[blk("BB1"), blk("BB2", "x:F.foo"), blk("BB3", "x:F.bar"), blk("BB4")],
            edges=[["BB1", "BB2"], ["BB2", "BB3"], ["BB3", "BB4"]],
            entry="BB1", exits=["BB4"],
        )
        graph = build_cscfg(doc)
        assert sorted(graph.blocks_of(FN)) == [f"{FN}#BB2", f"{FN}#BB3"]
        assert graph.successors(FN, entry_node(FN)) == (f"{FN}#BB2",)
        assert graph.successors(FN, f"{FN}#BB2") == (f"{FN}#BB3",)
        assert graph.successors(FN, f"{FN}#BB3") == (exit_node(FN),)

    def test_function_with_no_call_sites_contributes_nothing(self):
        doc = single_function_doc(
            fn=FN, blocks=[blk("BB1")], edges=[], entry="BB1", exits=["BB1"],
        )
        graph = build_cscfg(doc)
        assert graph.blocks_of(FN) == []
        assert graph.knows(FN)
        assert not graph.has_body(FN)

    def test_no_block_with_empty_callees_in_output(self):
        rng = random.Random(3)
        for _ in range(50):
            graph = build_cscfg(random_cscfg_doc(rng))
            for bid in graph.blocks:
                assert graph.blocks[bid].callees

    def test_diamond_with_calls_only_in_arms(self):
        doc = single_function_doc(
            fn=FN,
            blocks=[blk("e"), blk("L", "x:F.l"), blk("R", "x:F.r"), blk("j")],
            edges=[["e", "L"], ["e", "R"], ["L", "j"], ["R", "j"]],
            entry="e", exits=["j"],
        )
        graph = build_cscfg(doc)
        ent = entry_node(FN)
        assert set(graph.successors(FN, ent)) == {f"{FN}#L", f"{FN}#R"}
        assert graph.successors(FN, f"{FN}#L") == (exit_node(FN),)
        assert graph.successors(FN, f"{FN}#R") == (exit_node(FN),)
        info = compute_dominance(graph, FN)
        # neither arm dominates the other; both reachable from the entry
        assert f"{FN}#L" not in info.dom_sets[f"{FN}#R"]
        assert f"{FN}#R" not in info.dom_sets[f"{FN}#L"]

    def test_dangling_callee_rejected(self):
        doc = {
            "schema_version": 1,
            "functions": [{
                "function": FN,
                "blocks": [blk("b0", "svc:Nope.missing")],
                "flow_edges": [],
                "entry": "b0",
                "exits": ["b0"],
            }],
            "external_functions": [],
        }
        with pytest.raises(DanglingCalleeError) as err:
            build_cscfg(doc)
        assert err.value.callee == "svc:Nope.missing"

    def test_external_callee_allowed(self):
        doc = single_function_doc(
            fn=FN, blocks=[blk("b0", "ext:Sys.call")], edges=[],
            entry="b0", exits=["b0"], external=["ext:Sys.call"],
        )
        graph = build_cscfg(doc)
        assert graph.knows("ext:Sys.call")

    def test_bad_schema_version(self):
        with pytest.raises(MalformedDocumentError):
            build_cscfg({"schema_version": 99, "functions": []})

    def test_artifact_round_trip(self):
        rng = random.Random(4)
        doc = random_cscfg_doc(rng)
        graph = build_cscfg(doc)
        clone = Cscfg.from_artifact_dict(graph.to_artifact_dict())
        assert clone.to_artifact_dict() == graph.to_artifact_dict()


class TestDominance:
    def test_straight_line_single_class(self):
        doc = single_function_doc(
            fn=FN,
            blocks=[blk("b1", "x:F.a"), blk("b2", "x:F.b"), blk("b3", "x:F.c")],
            edges=[["b1", "b2"], ["b2", "b3"]],
            entry="b1", exits=["b3"],
        )
        graph = build_cscfg(doc)
        classes = graph.dominance(FN).classes()
        assert classes == [frozenset({f"{FN}#b1", f"{FN}#b2", f"{FN}#b3"})]

    def test_diamond_three_classes_entry_join_equivalent(self):
        doc = single_function_doc(
            fn=FN,
            blocks=[blk("e", "x:F.e"), blk("L", "x:F.l"), blk("R", "x:F.r"),
                    blk("j", "x:F.j")],
            edges=[["e", "L"], ["e", "R"], ["L", "j"], ["R", "j"]],
            entry="e", exits=["j"],
        )
        graph = build_cscfg(doc)
        classes = graph.dominance(FN).classes()
        assert len(classes) == 3
        assert frozenset({f"{FN}#e", f"{FN}#j"}) in classes
        assert frozenset({f"{FN}#L"}) in classes
        assert frozenset({f"{FN}#R"}) in classes

    def test_single_block_function(self):
        doc = single_function_doc(
            fn=FN, blocks=[blk("b0", "x:F.x")], edges=[], entry="b0", exits=["b0"],
        )
        graph = build_cscfg(doc)
        assert graph.dominance(FN).classes() == [frozenset({f"{FN}#b0"})]

    def test_conditional_loop_body_in_own_class(self):
        # header h, loop body b entered conditionally, exit via h
        doc = single_function_doc(
            fn=FN,
            blocks=[blk("h", "x:F.h"), blk("b", "x:F.b")],
            edges=[["h", "b"], ["b", "h"]],
            entry="h", exits=["h"],
        )
        graph = build_cscfg(doc)
        classes = graph.dominance(FN).classes()
        assert frozenset({f"{FN}#b"}) in classes
        assert frozenset({f"{FN}#h"}) in classes

    def test_unreachable_block_reported(self):
        graph = Cscfg()
        graph.add_function(parse_function_key(FN))
        graph.add_function(parse_function_key("x:F.a"))
        graph.add_block(FN, f"{FN}#b0", ("x:F.a",))
        graph.add_block(FN, f"{FN}#b1", ("x:F.a",))
        graph.add_flow_edge(FN, entry_node(FN), f"{FN}#b0")
        graph.add_flow_edge(FN, f"{FN}#b0", exit_node(FN))
        graph.add_flow_edge(FN, f"{FN}#b1", exit_node(FN))
        with pytest.raises(UnreachableBlockError) as err:
            compute_dominance(graph, FN)
        assert f"{FN}#b1" in err.value.blocks

    def test_matches_path_enumeration_oracle_random(self):
        rng = random.Random(42)
        for _ in range(120):
            doc = random_cscfg_doc(rng, max_blocks=8)
            graph = build_cscfg(doc)
            fn = "svc:R.f"
            info = compute_dominance(graph, fn)
            nodes = graph.nodes_of(fn)
            succ = {n: graph.successors(fn, n) for n in nodes}
            dom = oracle_dom_sets(nodes, succ, entry_node(fn))
            pdom = oracle_pdom_sets(nodes, succ, exit_node(fn))
            for n in nodes:
                assert info.dom_sets[n] == dom[n], f"dom mismatch at {n}"
                assert info.pdom_sets[n] == pdom[n], f"pdom mismatch at {n}"
            expected = oracle_equiv_classes(graph.blocks_of(fn), dom, pdom)
            assert set(info.classes()) == expected


class TestPatch:
    def _patched_setup(self):
        doc = single_function_doc(
            fn=FN,
            blocks=[blk("b0", "svc:Sub.known")],
            edges=[],
            entry="b0", exits=["b0"],
            extra_functions=[
                {"function": "svc:Sub.known"},
                {"function": "svc:Remote.bar"},
            ],
        )
        graph = build_cscfg(doc)
        mapping = build_map(graph)
        spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("k", parent="r", operation="Sub.known", start=5, duration=10),
            make_span("b", parent="r", operation="Remote.bar", start=30, duration=10),
        ]
        return graph, mapping, make_trace(spans)

    def test_patch_adds_dynamic_edge(self):
        graph, mapping, trace = self._patched_setup()
        report = patch_with_traces(graph, [trace], mapping)
        assert report.edges_added == 1
        assert report.synthetic_blocks == 0
        # attached to the block whose callee span precedes the child
        assert graph.call_edges[(f"{FN}#b0", "svc:Remote.bar")] == PROV_DYNAMIC

    def test_subgraph_sees_edges_added_after_it_was_built(self):
        graph, mapping, trace = self._patched_setup()
        assert graph.subgraph(FN).patched == {}
        patch_with_traces(graph, [trace], mapping)
        assert graph.subgraph(FN).patched == {f"{FN}#b0": frozenset({"svc:Remote.bar"})}

    def test_patch_idempotent_and_monotone(self):
        graph, mapping, trace = self._patched_setup()
        patch_with_traces(graph, [trace], mapping)
        before_calls = dict(graph.call_edges)
        before_blocks = set(graph.blocks)
        report = patch_with_traces(graph, [trace], mapping)
        assert report.edges_added == 0
        assert dict(graph.call_edges) == before_calls
        assert set(graph.blocks) == before_blocks

    def test_all_static_edges_leave_graph_unchanged(self):
        graph, mapping, _ = self._patched_setup()
        spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("k", parent="r", operation="Sub.known", start=5, duration=10),
        ]
        report = patch_with_traces(graph, [make_trace(spans)], mapping)
        assert report.edges_added == 0

    def test_unresolvable_child_counted_not_fatal(self):
        graph, mapping, _ = self._patched_setup()
        spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("u", parent="r", operation="GET /api/x", start=5, duration=10),
        ]
        report = patch_with_traces(graph, [make_trace(spans)], mapping)
        assert report.edges_added == 0
        assert report.unresolved_pairs == 1

    def test_synthetic_block_when_no_sibling_anchor(self):
        doc = single_function_doc(
            fn=FN, blocks=[blk("b0", "svc:Sub.known")], edges=[],
            entry="b0", exits=["b0"],
            extra_functions=[{"function": "svc:Sub.known"}, {"function": "svc:Remote.bar"}],
        )
        graph = build_cscfg(doc)
        mapping = build_map(graph)
        spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("b", parent="r", operation="Remote.bar", start=3, duration=10),
        ]
        report = patch_with_traces(graph, [make_trace(spans)], mapping)
        assert report.synthetic_blocks == 1
        new_blocks = [b for b in graph.blocks_of(FN) if "patch" in b]
        assert len(new_blocks) == 1
        # original exit edge is preserved: the call is not proven mandatory
        assert exit_node(FN) in graph.successors(FN, f"{FN}#b0")
        info = compute_dominance(graph, FN)
        assert new_blocks[0] not in info.mandatory

    def test_dominance_recomputed_after_patch(self):
        graph, mapping, trace = self._patched_setup()
        before = compute_dominance(graph, FN)
        spans = [
            make_span("r", operation="Main.run", start=0, duration=100),
            make_span("b", parent="r", operation="Remote.bar", start=3, duration=10),
        ]
        patch_with_traces(graph, [make_trace(spans)], mapping)
        after = graph.dominance(FN)
        assert set(after.dom_sets) >= set(before.dom_sets)

    def test_frozen_graph_rejects_patch(self):
        graph, mapping, trace = self._patched_setup()
        graph.freeze()
        with pytest.raises(GraphFrozenError):
            patch_with_traces(graph, [trace], mapping)
