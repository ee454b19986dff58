"""Call-site control flow graph: construction, dominance, artifacts.

The graph keeps only blocks that make calls. Each function contributes a
small node graph consisting of a virtual entry node, a virtual exit node and
its call-site blocks; flow edges are contracted across call-free blocks of
the original control flow. A block's callees are its call edges: they link
it to each callee's entry and are kept separate from flow edges, so
dominance stays intraprocedural. The graph holds what the document states
and nothing seen at run time: where a trace makes a call the graph lacks,
or skips one it has, alignment records the edit with the trace's decision.

A graph loaded from an artifact checks the whole artifact at load but reads
each function's body (its blocks, flow edges and successors) from the parsed
record only when a query first needs that function; whole-graph readers and
mutations read every body first.

Block A dominates B when every entry-to-B path passes through A;
post-dominance is the dual from the exit. Two blocks are mutually dominant
(control equivalent) when each entry-to-exit path contains either both or
neither, which is exactly (A dom B and B pdom A) or the converse.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .errors import (
    DanglingCalleeError,
    GraphFrozenError,
    MalformedDocumentError,
    UnreachableBlockError,
)

SHARED_SERVICE = "SHARED"

SCHEMA_VERSION = 1

_ENTRY_SUFFIX = "#@entry"
_EXIT_SUFFIX = "#@exit"


@dataclass(frozen=True)
class FunctionRef:
    """Identity of a function: deployment unit, class and function name.

    ``key`` is the ``service:Class.function`` string that scoring, alignment
    and the graph index by. It is set once at construction and is not a
    field, so equality, hashing and repr read the three fields alone.
    """

    service: str
    class_name: str
    function_name: str

    @property
    def operation(self) -> str:
        return f"{self.class_name}.{self.function_name}"

    def __post_init__(self):
        if not (self.service and self.class_name and self.function_name):
            raise ValueError("FunctionRef fields must be non-empty")
        # set once here, not as a cached_property: the key is read per span,
        # and a cached_property's first read costs more than this at graph load
        object.__setattr__(self, "key",
                           f"{self.service}:{self.class_name}.{self.function_name}")


def parse_function_key(key: str) -> FunctionRef:
    """Inverse of FunctionRef.key: 'service:Class.Function' with last-dot split."""
    if ":" not in key:
        raise MalformedDocumentError(f"function key {key!r} missing ':'")
    service, rest = key.split(":", 1)
    if "." not in rest:
        raise MalformedDocumentError(f"function key {key!r} missing '.' in Class.Function part")
    class_name, function_name = rest.rsplit(".", 1)
    return FunctionRef(service, class_name, function_name)


@dataclass(frozen=True)
class FunctionSubgraph:
    """Read-only view of one function's nodes, used by alignment and replay."""

    entry: str
    exit: str
    succ: dict[str, tuple[str, ...]]
    emissions: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class DominanceInfo:
    """Per-function dominance facts over the contracted node graph."""

    equiv_class: dict[str, str]  # call-site block -> class id (min member)
    mandatory: frozenset[str]  # blocks on every entry-to-exit path

    def classes(self) -> list[frozenset[str]]:
        grouped: dict[str, set[str]] = {}
        for block, cid in self.equiv_class.items():
            grouped.setdefault(cid, set()).add(block)
        return [frozenset(grouped[cid]) for cid in sorted(grouped)]


def entry_node(function_key: str) -> str:
    return function_key + _ENTRY_SUFFIX


def exit_node(function_key: str) -> str:
    return function_key + _EXIT_SUFFIX


class Cscfg:
    """The shared code-knowledge substrate.

    Built, then frozen before alignment uses it; like the pipeline that
    owns it, a graph is used from one thread. Subgraphs and dominance
    results are cached per function and cleared by every mutation; once
    frozen, a graph is not mutated.

    A graph from ``from_artifact_dict`` holds each function's parsed record
    until a per-function query (``blocks_of``, ``successors``, ``nodes_of``,
    ``flow_edges_of``, ``subgraph``, ``dominance``) first needs that body;
    reading a body is not a mutation, so it works on a frozen graph.
    ``to_artifact_dict`` and every mutation read all bodies first.
    ``has_body`` and ``knows`` come from load.
    """

    def __init__(self):
        self.functions: dict[str, FunctionRef] = {}
        self.external: set[str] = set()
        # call-site block id -> its callee function keys, in program order
        self.blocks: dict[str, tuple[str, ...]] = {}
        self._fn_blocks: dict[str, list[str]] = {}
        self._succ: dict[str, dict[str, tuple[str, ...]]] = {}
        self._frozen = False
        self._dom_cache: dict[str, DominanceInfo] = {}
        self._sub_cache: dict[str, "FunctionSubgraph"] = {}
        # function key -> artifact record whose body is not read yet
        self._unread: dict[str, dict] = {}

    # -- construction ----------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise GraphFrozenError("graph is frozen")
        if self._unread:
            self._read_all()
        self._sub_cache.clear()
        self._dom_cache.clear()

    def add_function(self, ref: FunctionRef) -> None:
        self._check_mutable()
        self.functions.setdefault(ref.key, ref)

    def declare_external(self, key: str) -> None:
        self._check_mutable()
        self.external.add(key)

    def _add_nodes_for(self, fn_key: str) -> None:
        if fn_key not in self._succ:
            self._fn_blocks.setdefault(fn_key, [])
            self._succ[fn_key] = {entry_node(fn_key): (), exit_node(fn_key): ()}

    def add_block(self, fn_key: str, block_id: str, callees: tuple[str, ...]) -> None:
        self._check_mutable()
        self._put_block(fn_key, block_id, callees)

    def _put_block(self, fn_key: str, block_id: str, callees) -> None:
        if not callees:
            raise MalformedDocumentError(f"block {block_id!r} has no callees")
        if block_id in self.blocks:
            raise MalformedDocumentError(f"duplicate block id {block_id!r}")
        self._add_nodes_for(fn_key)
        self.blocks[block_id] = tuple(callees)
        self._fn_blocks[fn_key].append(block_id)
        self._succ[fn_key][block_id] = ()

    def add_flow_edge(self, fn_key: str, src: str, dst: str) -> None:
        self._check_mutable()
        self._put_flow_edge(fn_key, src, dst)

    def _put_flow_edge(self, fn_key: str, src: str, dst: str) -> None:
        succ = self._succ[fn_key]
        if src not in succ or dst not in succ:
            raise MalformedDocumentError(f"flow edge {src!r}->{dst!r} names unknown node")
        if dst not in succ[src]:
            succ[src] = tuple(sorted(succ[src] + (dst,)))

    def _read(self, fn_key: str) -> None:
        """Build fn_key's body from its artifact record; a no-op once read."""
        fn = self._unread.pop(fn_key, None)
        if fn is not None:
            self._add_nodes_for(fn_key)
            for b in fn["blocks"]:
                self._put_block(fn_key, b["id"], b["callees"])
            for edge in fn["edges"]:
                self._put_flow_edge(fn_key, edge[0], edge[1])

    def _read_all(self) -> None:
        for fn_key in list(self._unread):
            self._read(fn_key)

    def freeze(self) -> "Cscfg":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- queries ---------------------------------------------------------

    def knows(self, fn_key: str) -> bool:
        return fn_key in self.functions or fn_key in self.external

    def has_body(self, fn_key: str) -> bool:
        fn = self._unread.get(fn_key)
        if fn is not None:
            return bool(fn["blocks"])
        return bool(self._fn_blocks.get(fn_key))

    def blocks_of(self, fn_key: str) -> list[str]:
        self._read(fn_key)
        return list(self._fn_blocks.get(fn_key, []))

    def successors(self, fn_key: str, node: str) -> tuple[str, ...]:
        self._read(fn_key)
        return self._succ.get(fn_key, {}).get(node, ())

    def nodes_of(self, fn_key: str) -> list[str]:
        self._read(fn_key)
        return sorted(self._succ.get(fn_key, {}))

    def flow_edges_of(self, fn_key: str):
        for src in self.nodes_of(fn_key):
            for dst in self.successors(fn_key, src):
                yield src, dst

    def subgraph(self, fn_key: str) -> "FunctionSubgraph":
        sub = self._sub_cache.get(fn_key)
        if sub is not None:
            return sub
        nodes = self.nodes_of(fn_key)
        sub = FunctionSubgraph(
            entry=entry_node(fn_key),
            exit=exit_node(fn_key),
            succ={n: self.successors(fn_key, n) for n in nodes},
            emissions={n: self.blocks.get(n, ()) for n in nodes},
        )
        self._sub_cache[fn_key] = sub
        return sub

    # -- dominance -------------------------------------------------------

    def dominance(self, fn_key: str) -> DominanceInfo:
        info = self._dom_cache.get(fn_key)
        if info is None:
            info = compute_dominance(self, fn_key)
            self._dom_cache[fn_key] = info
        return info

    # -- serialization ---------------------------------------------------

    def to_artifact_dict(self) -> dict:
        self._read_all()
        fns = []
        for key in sorted(self._succ):
            fns.append({
                "function": key,
                "blocks": [{"id": bid, "callees": list(self.blocks[bid])}
                           for bid in self._fn_blocks[key]],
                "edges": [[src, dst] for src, dst in self.flow_edges_of(key)],
            })
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "cscfg-artifact",
            "functions": sorted(self.functions),
            "external_functions": sorted(self.external),
            "graphs": fns,
        }

    @classmethod
    def from_artifact_dict(cls, obj: dict) -> "Cscfg":
        """The graph of an artifact dict, with every function body unread.

        Checks the whole artifact and builds the function index now; each
        body is built from its record (kept as given, so obj must not change
        afterwards) on first use. An older artifact reads as the current one:
        its ``call_edges`` list may only restate its blocks' callees, a
        block's ``synthetic`` flag is ignored, and an edge's third item, its
        provenance, too.
        """
        if obj.get("schema_version") != SCHEMA_VERSION or obj.get("kind") != "cscfg-artifact":
            raise MalformedDocumentError("not a cscfg artifact")
        graph = cls()
        for key in obj["functions"]:
            graph.add_function(parse_function_key(key))
        for key in obj["external_functions"]:
            graph.declare_external(key)
        unread = graph._unread
        # block id -> its function key, and -> its callees
        owner: dict[str, str] = {}
        calls: dict[str, list] = {}
        for fn in obj["graphs"]:
            key = fn["function"]
            known = (entry_node(key), exit_node(key))
            if key in unread:
                raise MalformedDocumentError(f"function {key!r} listed twice")
            for b in fn["blocks"]:
                bid, callees = b["id"], b["callees"]
                if type(bid) is not str:
                    raise MalformedDocumentError(f"block id {bid!r} is not a string")
                if type(callees) is not list or not callees:
                    raise MalformedDocumentError(f"block {bid!r} has no callee list")
                if bid in owner:
                    raise MalformedDocumentError(f"duplicate block id {bid!r}")
                owner[bid] = key
                calls[bid] = callees
            for edge in fn["edges"]:
                if type(edge) is not list or len(edge) not in (2, 3):
                    raise MalformedDocumentError(f"flow edge {edge!r} is not [src, dst]")
                src, dst = edge[0], edge[1]
                if not ((src in known or owner.get(src) == key)
                        and (dst in known or owner.get(dst) == key)):
                    raise MalformedDocumentError(f"flow edge {src!r}->{dst!r} names unknown node")
            unread[key] = fn
        for bid, callee, _prov in obj.get("call_edges", ()):
            if type(bid) is not str or callee not in calls.get(bid, ()):
                raise MalformedDocumentError(
                    f"call edge {bid!r} -> {callee!r} is not a callee of that block; "
                    "build the graph again with build-graph")
        return graph

    def save_artifact(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_artifact_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load_artifact(cls, path) -> "Cscfg":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_artifact_dict(json.load(fh))
            except (MalformedDocumentError, ValueError, KeyError, TypeError,
                    AttributeError) as exc:
                raise MalformedDocumentError(
                    f"{path}: bad cscfg artifact: {type(exc).__name__}: {exc}") from exc


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise MalformedDocumentError(msg)


def _names_block(ref, local_callees: dict) -> bool:
    # a block reference must be a string before it is looked up: a list
    # from JSON is unhashable
    return type(ref) is str and ref in local_callees


def build_cscfg(call_graph_doc) -> Cscfg:
    """Build the graph from a declarative call-graph document.

    The document lists functions with their blocks (id plus ordered callees,
    possibly empty), intraprocedural flow edges, entry/exit designation and
    an external-functions list. Blocks without calls are dropped and flow
    edges are contracted across them.
    """
    if isinstance(call_graph_doc, str):
        try:
            doc = json.loads(call_graph_doc)
        except json.JSONDecodeError as exc:
            raise MalformedDocumentError(f"invalid JSON: {exc}") from exc
    else:
        doc = call_graph_doc
    _require(isinstance(doc, dict), "call-graph document must be an object")
    _require(doc.get("schema_version") == SCHEMA_VERSION,
             f"unsupported schema_version {doc.get('schema_version')!r}")
    _require(isinstance(doc.get("functions"), list), "missing functions list")

    graph = Cscfg()
    defined: set[str] = set()
    for fn in doc["functions"]:
        _require(isinstance(fn, dict) and "function" in fn, "function entry missing 'function'")
        key = fn["function"]
        _require(type(key) is str, f"function key {key!r} is not a string")
        _require(key not in defined, f"function {key!r} defined twice")
        defined.add(key)
        graph.add_function(parse_function_key(key))
    external = doc.get("external_functions", [])
    _require(isinstance(external, list), "external_functions must be a list")
    for key in external:
        _require(type(key) is str, f"external function key {key!r} is not a string")
        parse_function_key(key)
        graph.declare_external(key)

    for fn in doc["functions"]:
        key = fn["function"]
        blocks = fn.get("blocks", [])
        _require(isinstance(blocks, list), f"{key}: blocks must be a list")
        if not blocks:
            continue  # function with zero call sites contributes no blocks
        local_callees: dict[str, tuple[str, ...]] = {}
        for b in blocks:
            _require(isinstance(b, dict) and "id" in b, f"{key}: block missing id")
            _require(type(b["id"]) is str, f"{key}: block id {b['id']!r} is not a string")
            _require(b["id"] not in local_callees, f"{key}: duplicate block {b['id']!r}")
            callees = b.get("callees", [])
            _require(isinstance(callees, list) and all(isinstance(c, str) for c in callees),
                     f"{key}: block {b['id']!r}: callees must be a list of strings")
            callees = tuple(callees)
            for c in callees:
                if c not in defined and c not in graph.external:
                    raise DanglingCalleeError(c, key)
            local_callees[b["id"]] = callees
        entry = fn.get("entry")
        _require(_names_block(entry, local_callees), f"{key}: entry {entry!r} is not a block")
        exits = fn.get("exits", [])
        _require(isinstance(exits, list) and exits, f"{key}: missing exits")
        for e in exits:
            _require(_names_block(e, local_callees), f"{key}: exit {e!r} is not a block")
        adj: dict[str, list[str]] = {lid: [] for lid in local_callees}
        edges = fn.get("flow_edges", [])
        _require(isinstance(edges, list), f"{key}: flow_edges must be a list")
        for edge in edges:
            _require(isinstance(edge, list) and len(edge) == 2, f"{key}: bad flow edge {edge!r}")
            src, dst = edge
            _require(_names_block(src, local_callees) and _names_block(dst, local_callees),
                     f"{key}: flow edge {src!r}->{dst!r} names unknown block")
            adj[src].append(dst)

        if not any(local_callees.values()):
            continue  # all blocks call-free: nothing to retain

        _contract_into(graph, key, local_callees, adj, entry, set(exits))

    return graph


def _contract_into(graph: Cscfg, fn_key: str, local_callees: dict[str, tuple[str, ...]],
                   adj: dict[str, list[str]], entry_local: str, exits: set[str]) -> None:
    """Retain call-site blocks; wire contracted flow edges through virtual nodes."""
    graph._add_nodes_for(fn_key)
    gid = lambda lid: f"{fn_key}#{lid}"
    ent = entry_node(fn_key)
    ext = exit_node(fn_key)

    call_ids = [lid for lid in local_callees if local_callees[lid]]
    for lid in call_ids:
        graph.add_block(fn_key, gid(lid), local_callees[lid])

    def targets(seeds: list[str]) -> set[str]:
        # BFS through call-free blocks; a call-site block or the function
        # exit terminates the walk in that direction.
        out: set[str] = set()
        seen: set[str] = set()
        dq = deque(seeds)
        while dq:
            b = dq.popleft()
            if b in seen:
                continue
            seen.add(b)
            if local_callees[b]:
                out.add(gid(b))
                continue
            if b in exits:
                out.add(ext)
            dq.extend(adj[b])
        return out

    for dst in sorted(targets([entry_local])):
        graph.add_flow_edge(fn_key, ent, dst)
    for lid in call_ids:
        outs: set[str] = set()
        if lid in exits:
            outs.add(ext)
        outs |= targets(list(adj[lid]))
        for dst in sorted(outs):
            graph.add_flow_edge(fn_key, gid(lid), dst)


def _dominator_sets(nodes: list[str], preds: dict[str, list[str]], root: str) -> dict[str, frozenset[str]]:
    full = frozenset(nodes)
    dom = {n: (frozenset([root]) if n == root else full) for n in nodes}
    order = sorted(nodes)
    changed = True
    while changed:
        changed = False
        for n in order:
            if n == root:
                continue
            ps = preds[n]
            if not ps:
                continue
            new = frozenset.intersection(*(dom[p] for p in ps)) | {n}
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def compute_dominance(graph: Cscfg, key: str) -> DominanceInfo:
    """Mutual-dominance classes and mandatory blocks of one function.

    Both come from the dominator and post-dominator sets, which are not
    kept. Intraprocedural: call edges are opaque. Raises
    UnreachableBlockError when blocks are cut off from the entry or cannot
    reach the exit.
    """
    graph._read(key)
    if key not in graph._succ:
        raise MalformedDocumentError(f"function {key!r} has no blocks in the graph")
    ent, ext = entry_node(key), exit_node(key)
    nodes = graph.nodes_of(key)
    succ = {n: list(graph.successors(key, n)) for n in nodes}
    preds: dict[str, list[str]] = {n: [] for n in nodes}
    for n, outs in succ.items():
        for m in outs:
            preds[m].append(n)

    reached = _bfs(ent, succ)
    if set(nodes) - reached:
        raise UnreachableBlockError(key, set(nodes) - reached, "entry")
    co_reached = _bfs(ext, preds)
    if set(nodes) - co_reached:
        raise UnreachableBlockError(key, set(nodes) - co_reached, "exit")

    dom = _dominator_sets(nodes, preds, ent)
    pdom = _dominator_sets(nodes, succ, ext)

    blocks = [n for n in nodes if n != ent and n != ext]
    parent = {b: b for b in blocks}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            if (a in dom[b] and b in pdom[a]) or (b in dom[a] and a in pdom[b]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    lo, hi = min(ra, rb), max(ra, rb)
                    parent[hi] = lo
    equiv = {b: find(b) for b in blocks}

    mandatory = frozenset(b for b in blocks if b in dom[ext])
    return DominanceInfo(equiv_class=equiv, mandatory=mandatory)


def _bfs(root: str, adjacency: dict[str, list[str]]) -> set[str]:
    seen = {root}
    dq = deque([root])
    while dq:
        n = dq.popleft()
        for m in adjacency.get(n, []):
            if m not in seen:
                seen.add(m)
                dq.append(m)
    return seen
