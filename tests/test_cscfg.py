import copy
import dataclasses
import json
import random

import pytest

from spanscope.cscfg import (
    Cscfg,
    FunctionRef,
    _dominator_sets,
    build_cscfg,
    compute_dominance,
    entry_node,
    exit_node,
    parse_function_key,
)
from spanscope.errors import (
    DanglingCalleeError,
    GraphFrozenError,
    MalformedDocumentError,
    UnreachableBlockError,
)
from spanscope.harness import SystemSpec, generate_system, generate_traces
from spanscope.mapping import Unmapped, build_map
from spanscope.pipeline import SamplingPipeline
from spanscope.sampler import SamplingConfig

from .conftest import add_repeatable_call, random_cscfg_doc, single_function_doc
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
                assert graph.blocks[bid]

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
        # neither arm lies on every path, and neither stands in for the other
        assert info.mandatory == frozenset()
        assert info.classes() == [frozenset({f"{FN}#L"}), frozenset({f"{FN}#R"})]

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
            preds = {n: [m for m in nodes if n in succ[m]] for n in nodes}
            dom = oracle_dom_sets(nodes, succ, entry_node(fn))
            pdom = oracle_pdom_sets(nodes, succ, exit_node(fn))
            # the sets compute_dominance derives its answers from, and keeps not
            assert _dominator_sets(nodes, preds, entry_node(fn)) == dom
            assert _dominator_sets(nodes, {n: list(succ[n]) for n in nodes},
                                   exit_node(fn)) == pdom
            expected = oracle_equiv_classes(graph.blocks_of(fn), dom, pdom)
            assert set(info.classes()) == expected
            assert info.mandatory == {b for b in graph.blocks_of(fn)
                                      if b in dom[exit_node(fn)]}


class TestPatch:
    """A built graph changed by add_block and add_flow_edge: its caches
    follow the change, and a frozen graph refuses it."""

    def _setup(self):
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
        return build_cscfg(doc)

    def add_repeatable_call(self, graph):
        """An optional, repeatable block after b0 that calls Remote.bar."""
        block, b0, ext = f"{FN}#x", f"{FN}#b0", exit_node(FN)
        graph.add_block(FN, block, ("svc:Remote.bar",))
        for src, dst in ((b0, block), (block, block), (block, ext)):
            graph.add_flow_edge(FN, src, dst)
        return block

    def test_subgraph_sees_edges_added_after_it_was_built(self):
        graph = self._setup()
        assert f"{FN}#x" not in graph.subgraph(FN).emissions
        block = self.add_repeatable_call(graph)
        sub = graph.subgraph(FN)
        assert sub.emissions[block] == ("svc:Remote.bar",)
        assert sub.succ[f"{FN}#b0"] == (exit_node(FN), block)

    def test_dominance_recomputed_after_patch(self):
        graph = self._setup()
        before = graph.dominance(FN)
        self.add_repeatable_call(graph)
        after = graph.dominance(FN)
        assert set(after.equiv_class) > set(before.equiv_class)
        # the new call is not mandatory
        assert after.mandatory == before.mandatory == {f"{FN}#b0"}

    def test_frozen_graph_rejects_patch(self):
        graph = self._setup().freeze()
        with pytest.raises(GraphFrozenError):
            self.add_repeatable_call(graph)
        with pytest.raises(GraphFrozenError):
            graph.add_flow_edge(FN, f"{FN}#b0", f"{FN}#b0")

    def test_a_refused_patch_leaves_the_frozen_graph_unchanged(self):
        # Sub.known has no body, and a frozen graph refuses to give it one
        graph = self._setup().freeze()
        before = graph.to_artifact_dict()
        assert graph.nodes_of("svc:Sub.known") == []
        with pytest.raises(GraphFrozenError):
            graph.add_block("svc:Sub.known", "svc:Sub.known#x", ("svc:Remote.bar",))
        assert graph.nodes_of("svc:Sub.known") == []
        assert graph.to_artifact_dict() == before


def merged_random_doc(seeds):
    """One document holding the random single-function graph of each seed."""
    functions, external = [], set()
    for seed in seeds:
        doc = random_cscfg_doc(random.Random(seed))
        for fn in doc["functions"]:
            if fn["function"] == "svc:R.f":
                fn["function"] = f"svc:R.f{seed}"
            functions.append(fn)
        external.update(doc["external_functions"])
    return {"schema_version": 1, "functions": functions,
            "external_functions": sorted(external)}


def drifted_graph_with_repeatable_blocks():
    """A generated system whose graph lags its traffic, with optional,
    repeatable blocks written into its document.

    The bodies of the functions the entry calls are missing, and one call of
    the entry is dropped. Each of those functions gets a chain of repeatable
    blocks from its start, one per function its body called, and the entry
    gets one for the dropped call after the block it was dropped from. So
    the graph has repeatable blocks after entry nodes, static blocks and
    other repeatable blocks.
    """
    doc, meta = generate_system(SystemSpec(seed=5))
    drifted = copy.deepcopy(doc)
    records = {fn["function"]: fn for fn in drifted["functions"]}
    entry = records[meta.entry]
    stripped = {}
    for block in entry["blocks"]:
        for callee in block["callees"]:
            record = records[callee]
            if record.get("blocks"):
                stripped[callee] = dict.fromkeys(c for b in record["blocks"]
                                                 for c in b["callees"])
                record.clear()
                record["function"] = callee
    last = next(b for b in reversed(entry["blocks"]) if len(b["callees"]) > 1)
    dropped = last["callees"].pop()
    for fn, callees in stripped.items():
        after = None
        for callee in callees:
            after = add_repeatable_call(drifted, fn, after, callee)
    add_repeatable_call(drifted, meta.entry, last["id"], dropped)
    return build_cscfg(drifted)


def in_older_format(artifact):
    """The artifact as older versions wrote it: each block flagged synthetic
    or not, each edge with its provenance, and a call_edges list that
    restates each block's callees with its block's provenance."""
    out = copy.deepcopy(artifact)
    call_edges = []
    for fn in out["graphs"]:
        for b in fn["blocks"]:
            b["synthetic"] = "#patch" in b["id"]
            call_edges += [[b["id"], c, "dynamic-patch" if b["synthetic"] else "static"]
                           for c in b["callees"]]
        fn["edges"] = [[src, dst, "dynamic-patch" if "#patch" in src + dst else "static"]
                       for src, dst in fn["edges"]]
    out["call_edges"] = sorted(call_edges)
    return out


def answers(graph, keys, shape):
    """Every per-function query over keys, as {query: answer}.

    shape maps each key to its node and block ids in the eager graph, so no
    query has to read the body first. The first query asked rotates with the
    key, so each kind of query is the first to read some body.
    """
    def dominance(fn):
        info = graph.dominance(fn)
        return info.mandatory, info.equiv_class

    out = {}
    for i, fn in enumerate(keys):
        nodes, blocks = shape[fn]
        asks = [
            lambda: {("has_body", fn): graph.has_body(fn)},
            lambda: {("blocks_of", fn): graph.blocks_of(fn)},
            lambda: {("nodes_of", fn): graph.nodes_of(fn)},
            lambda: {("successors", fn, n): graph.successors(fn, n) for n in nodes + ["no#such"]},
            lambda: {("flow_edges_of", fn): list(graph.flow_edges_of(fn))},
            lambda: {("subgraph", fn): graph.subgraph(fn)},
            lambda: {("dominance", fn): dominance(fn)} if blocks else {},
        ]
        k = i % len(asks)
        for ask in asks[k:] + asks[:k]:
            out.update(ask())
    return out


@pytest.fixture(scope="module")
def eager_graphs():
    """(graph, artifact dicts that load to it): random shapes, then a system
    with repeatable blocks."""
    random_graph = build_cscfg(merged_random_doc(range(12)))
    looped = drifted_graph_with_repeatable_blocks()
    return [
        (random_graph, [random_graph.to_artifact_dict()]),
        (looped, [looped.to_artifact_dict(), in_older_format(looped.to_artifact_dict())]),
    ]


class TestLazyLoad:
    @pytest.mark.parametrize("order", ["forward", "reverse", "shuffled"])
    @pytest.mark.parametrize("freeze_at", [None, 0, "half"])
    def test_loaded_graph_answers_like_the_eager_graph(self, eager_graphs, order, freeze_at):
        for eager, artifacts in eager_graphs:
            keys = sorted(eager.functions) + sorted(eager.external) + ["svc:No.such"]
            shape = {fn: (eager.nodes_of(fn), eager.blocks_of(fn)) for fn in keys}
            expected = answers(eager, keys, shape)
            if order == "reverse":
                keys.reverse()
            elif order == "shuffled":
                random.Random(9).shuffle(keys)
            cut = {None: len(keys), 0: 0, "half": len(keys) // 2}[freeze_at]
            for artifact in artifacts:
                loaded = Cscfg.from_artifact_dict(json.loads(json.dumps(artifact)))
                got = answers(loaded, keys[:cut], shape)
                subgraphs = {fn: loaded.subgraph(fn) for fn in keys[:cut]}
                if freeze_at is not None:
                    loaded.freeze()
                got.update(answers(loaded, keys[cut:], shape))
                assert got == expected
                # reading a body is not a mutation: cached subgraphs survive it
                assert all(loaded.subgraph(fn) is sub for fn, sub in subgraphs.items())
                assert loaded.to_artifact_dict() == eager.to_artifact_dict()

    def test_whole_graph_readers_and_mutations_read_every_body(self, eager_graphs):
        eager, (artifact, older) = eager_graphs[1]
        for source in (artifact, older):
            assert Cscfg.from_artifact_dict(copy.deepcopy(source)).to_artifact_dict() == \
                eager.to_artifact_dict()
            loaded = Cscfg.from_artifact_dict(copy.deepcopy(source))
            loaded.add_function(parse_function_key("svc:New.fn"))
            assert loaded.blocks == eager.blocks

    def test_save_of_a_fresh_load_writes_the_input_bytes(self, eager_graphs, tmp_path):
        for n, (eager, _artifacts) in enumerate(eager_graphs):
            src, out = tmp_path / f"in{n}.json", tmp_path / f"out{n}.json"
            eager.save_artifact(src)
            loaded = Cscfg.load_artifact(src)
            loaded.save_artifact(out)
            assert out.read_bytes() == src.read_bytes()

    def test_a_pass_reads_exactly_the_bodies_its_traffic_enters(self, tmp_path):
        spec = SystemSpec(seed=5)
        doc, meta = generate_system(spec)
        graph = build_cscfg(doc)
        path = tmp_path / "graph.json"
        graph.save_artifact(path)
        traces = [s.trace for s in generate_traces(graph, meta, spec, 300)]

        loaded = Cscfg.load_artifact(path)
        assert loaded.blocks == {}
        pipeline = SamplingPipeline(loaded, build_map(loaded), SamplingConfig(ratio=0.3))
        for trace in traces:
            pipeline.process(trace)
        resolved = (pipeline.mapping.resolve(s) for t in traces for s in t.spans)
        entered = {r.key for r in resolved
                   if not isinstance(r, Unmapped) and loaded.has_body(r.key)}
        # a block id is its function key, '#', then the block's local name
        read = {bid.rsplit("#", 1)[0] for bid in loaded.blocks}
        assert read == entered
        assert len(read) < sum(1 for fn in graph.functions if graph.has_body(fn))


def _bad_block(art, **fields):
    art["graphs"][0]["blocks"][0].update(fields)


def _edge(art, src, dst):
    art["graphs"][0]["edges"].append([src, dst, "static"])


# one case per load-time rejection; each edits a valid two-body artifact
LOAD_REJECTIONS = {
    "schema-version": lambda a: a.update(schema_version=2),
    "kind": lambda a: a.update(kind="cscfg-doc"),
    "no-graphs": lambda a: a.pop("graphs"),
    "no-edges-key": lambda a: a["graphs"][0].pop("edges"),
    "block-without-id": lambda a: a["graphs"][0]["blocks"][0].pop("id"),
    "blocks-not-a-list": lambda a: a["graphs"][0].update(blocks=5),
    "bad-function-key": lambda a: a["functions"].append("no-colon"),
    "no-callees": lambda a: _bad_block(a, callees=[]),
    "callees-int": lambda a: _bad_block(a, callees=5),
    "callees-string": lambda a: _bad_block(a, callees="x:A.b"),
    "block-id-twice": lambda a: a["graphs"][0]["blocks"].append(
        dict(a["graphs"][0]["blocks"][0])),
    "block-id-twice-across-functions": lambda a: a["graphs"][1]["blocks"][0].update(
        id=a["graphs"][0]["blocks"][0]["id"]),
    "function-twice": lambda a: a["graphs"].append(dict(a["graphs"][0], blocks=[], edges=[])),
    "edge-of-two-items": lambda a: a["graphs"][0]["edges"][0].pop(),
    "edge-to-unknown-node": lambda a: _edge(a, a["graphs"][0]["edges"][0][0], "nowhere"),
    "edge-to-another-functions-block": lambda a: _edge(
        a, a["graphs"][0]["edges"][0][0], a["graphs"][1]["blocks"][0]["id"]),
}


@pytest.mark.parametrize("case", sorted(LOAD_REJECTIONS))
def test_load_rejects_a_bad_artifact_and_names_it(tmp_path, case):
    doc = single_function_doc(
        fn=FN, blocks=[blk("b0", "svc:Sub.g"), blk("b1", "x:F.a")], edges=[["b0", "b1"]],
        entry="b0", exits=["b1"],
        extra_functions=[{"function": "svc:Sub.g", "blocks": [blk("c0", "x:F.b")],
                          "flow_edges": [], "entry": "c0", "exits": ["c0"]}, "x:F.b"],
    )
    artifact = build_cscfg(doc).to_artifact_dict()
    Cscfg.from_artifact_dict(copy.deepcopy(artifact))  # the unedited artifact loads
    LOAD_REJECTIONS[case](artifact)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(artifact), encoding="utf-8")
    with pytest.raises(MalformedDocumentError) as err:
        Cscfg.load_artifact(path)
    assert str(path) in str(err.value)


# an artifact as older versions wrote it, by hand: b0 calls Sub.g, and a
# synthetic block after it calls Sub.h; call_edges restates both calls, and
# each edge carries its provenance
MAIN_B0, MAIN_PATCH = f"{FN}#b0", f"{FN}#patch0"
OLDER_ARTIFACT = {
    "schema_version": 1, "kind": "cscfg-artifact",
    "functions": [FN, "svc:Sub.g", "svc:Sub.h"], "external_functions": [],
    "graphs": [{
        "function": FN,
        "blocks": [{"id": MAIN_B0, "callees": ["svc:Sub.g"], "synthetic": False},
                   {"id": MAIN_PATCH, "callees": ["svc:Sub.h"], "synthetic": True}],
        "edges": [[entry_node(FN), MAIN_B0, "static"],
                  [MAIN_B0, exit_node(FN), "static"],
                  [MAIN_B0, MAIN_PATCH, "dynamic-patch"],
                  [MAIN_PATCH, exit_node(FN), "dynamic-patch"],
                  [MAIN_PATCH, MAIN_PATCH, "dynamic-patch"]],
    }],
    "call_edges": [[MAIN_B0, "svc:Sub.g", "static"],
                   [MAIN_PATCH, "svc:Sub.h", "dynamic-patch"]],
}


def test_an_older_artifact_whose_call_edges_restate_its_blocks_loads_to_the_same_graph():
    # the same graph as the current format writes it: [src, dst] edges, and
    # a synthetic block is an ordinary block
    current = {**OLDER_ARTIFACT, "graphs": [{
        "function": FN,
        "blocks": [{"id": b["id"], "callees": b["callees"]}
                   for b in OLDER_ARTIFACT["graphs"][0]["blocks"]],
        "edges": [edge[:2] for edge in OLDER_ARTIFACT["graphs"][0]["edges"]],
    }]}
    del current["call_edges"]
    older = Cscfg.from_artifact_dict(copy.deepcopy(OLDER_ARTIFACT))
    fresh = Cscfg.from_artifact_dict(copy.deepcopy(current))
    assert older.to_artifact_dict() == fresh.to_artifact_dict() == current
    assert older.subgraph(FN) == fresh.subgraph(FN)
    assert older.subgraph(FN).emissions[MAIN_PATCH] == ("svc:Sub.h",)
    assert older.dominance(FN) == fresh.dominance(FN)


def test_load_refuses_a_dynamic_call_edge_on_a_static_block_and_names_it(tmp_path):
    # older versions matched such a call anywhere in the block; a graph
    # places each call it knows as a block callee, so the entry is refused
    artifact = copy.deepcopy(OLDER_ARTIFACT)
    artifact["call_edges"].append([MAIN_B0, "svc:Sub.h", "dynamic-patch"])
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(artifact), encoding="utf-8")
    with pytest.raises(MalformedDocumentError) as err:
        Cscfg.load_artifact(path)
    assert str(path) in str(err.value)
    assert f"{MAIN_B0!r} -> 'svc:Sub.h'" in str(err.value)
