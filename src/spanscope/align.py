"""Incremental alignment of a trace onto an execution path through the graph.

Each invocation of a mapped function is aligned independently: the ordered
calls witnessed by its child spans are matched against the emission sequences
of paths through the function's node graph. Costs are unit: inserting a span
the graph cannot explain costs 1, passing a block whose call was not
witnessed costs 1 (legal only for avoidable blocks; mandatory blocks carry a
prohibitive cost instead), substitution is not allowed. Unmapped spans are
forced insertions and are transparent: their children are spliced into the
surrounding invocation, which is how URL-style wrapper spans behave.

Search is a shortest-path sweep over (node, emission index, symbols consumed)
states obtained with Dijkstra, so loops in the graph need no special casing.
Ties are broken deterministically: lower cost, then fewer insertions, then a
fixed action preference (match, patched match, skip, insert, move to the
smallest successor id), which keeps repeated runs byte-identical.

A PathCache memoises alignment at two levels. The trace level is keyed by
the trace's shape signature (each span's function key and child count, in
`Trace.preorder`) and stores the whole path with span slots (preorder
indexes) in place of ids, so a hit rehydrates to a value identical to a fresh
alignment. The invocation level is keyed by a function and the callee key of
each symbol aligned against it (None for an inserted unmapped span), which is
everything the solver reads besides the graph; it stores the solver's action
sequence, so a trace whose whole shape is new still reuses the invocations it
shares with earlier traces. Both levels hold at most `capacity` entries each.
Neither key names the graph, so a cache serves one frozen graph: align
refuses a cache with a graph that can still change.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from dataclasses import dataclass

from .cscfg import Cscfg, FunctionRef, entry_node
from .errors import NoPathError
from .mapping import SpanFunctionMap, Unmapped
from .model import Trace

PROHIBITIVE_COST = 1_000_000

KIND_ENTER = "enter"
KIND_MATCH = "match"
KIND_INSERT = "insert"
KIND_SKIP = "skip"


@dataclass(frozen=True)
class TransitEdge:
    """One flow move taken after a step, inside one function's graph."""

    function: str
    src: str
    dst: str


@dataclass(frozen=True)
class PathStep:
    kind: str
    block_id: str | None
    callee: str | None
    span_id: str | None
    transit: tuple[TransitEdge, ...] = ()


@dataclass(frozen=True)
class ExecutionPath:
    steps: tuple[PathStep, ...]
    cost: int
    insertions: int

    def span_ids(self) -> list[str]:
        return [s.span_id for s in self.steps if s.span_id is not None]


class PathCache:
    """Two bounded LRU maps of alignment results for one frozen graph.

    `lookup`/`store` hold whole-trace path templates keyed by
    `trace_signature` (preorder function keys and child counts); `hits`,
    `misses` and `len()` count this level.
    `lookup_solve`/`store_solve` hold per-invocation solver results keyed by
    `(function key, callee key or None per symbol)`, counted by `solve_hits`
    and `solve_misses`. Each map holds at most `capacity` entries. Neither key
    names the graph, so one cache must only ever see one frozen graph. Like
    the pipeline that owns it, a cache is used from one thread.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._solves: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.solve_hits = 0
        self.solve_misses = 0

    def _get(self, data: OrderedDict, key):
        value = data.get(key)
        if value is not None:
            data.move_to_end(key)
        return value

    def _put(self, data: OrderedDict, key, value) -> None:
        data[key] = value
        data.move_to_end(key)
        while len(data) > self.capacity:
            data.popitem(last=False)

    def lookup(self, key):
        """Hit returns the stored template, miss returns None."""
        tmpl = self._get(self._data, key)
        if tmpl is None:
            self.misses += 1
        else:
            self.hits += 1
        return tmpl

    def store(self, key, template) -> None:
        self._put(self._data, key, template)

    def lookup_solve(self, key):
        solved = self._get(self._solves, key)
        if solved is None:
            self.solve_misses += 1
        else:
            self.solve_hits += 1
        return solved

    def store_solve(self, key, solved) -> None:
        self._put(self._solves, key, solved)

    def __len__(self) -> int:
        return len(self._data)


def trace_signature(trace: Trace, resolutions: dict) -> tuple:
    """Canonical shape: each span's function key and child count, in preorder.

    Unmapped spans appear as '?'. Durations and ids are excluded, so traces
    differing only in timing share a signature; a preorder with child counts
    fixes the tree, so equal signatures imply identical alignments.
    """
    kids = trace.child_spans
    parts: list = []
    for span in trace.preorder:
        sid = span.span_id
        r = resolutions[sid]
        parts.append(r.key if isinstance(r, FunctionRef) else "?")
        parts.append(len(kids(sid)))
    return tuple(parts)


class _SymCall:
    __slots__ = ("ref", "span", "children")

    def __init__(self, ref, span, children):
        self.ref = ref
        self.span = span
        self.children = children


class _SymIns:
    __slots__ = ("span",)

    def __init__(self, span):
        self.span = span


def _build_symbols(trace: Trace, spans, resolutions) -> list:
    """Symbols of one invocation; an unmapped span is followed by its subtree's."""
    syms = []
    stack = list(reversed(spans))
    while stack:
        s = stack.pop()
        r = resolutions[s.span_id]
        if isinstance(r, Unmapped):
            syms.append(_SymIns(s))
            stack.extend(reversed(trace.child_spans(s.span_id)))
        else:
            syms.append(_SymCall(r, s, trace.child_spans(s.span_id)))
    return syms


def _solve(graph: Cscfg, fn_key: str, sym_fn: tuple):
    """Optimal action sequence for one invocation.

    sym_fn holds the callee key of each symbol, None for an inserted unmapped
    span. Returns (cost, insertions, actions) with actions a tuple of tuples,
    or None when no path exists. Cost tuples order by total cost then
    insertion count; the greedy replay over goal distances applies the fixed
    action preference, so the result is deterministic.
    """
    sub = graph.subgraph(fn_key)
    mandatory = graph.dominance(fn_key).mandatory
    n = len(sym_fn)
    start = (sub.entry, 0, 0)
    goal = (sub.exit, 0, n)

    def actions(state):
        node, k, i = state
        em = sub.emissions[node]
        out = []
        if k < len(em):
            if i < n and sym_fn[i] == em[k]:
                out.append(("match", (node, k + 1, i + 1), (0, 0)))
        if i < n and sym_fn[i] is not None and sym_fn[i] in sub.patched.get(node, ()):
            out.append(("pmatch", (node, k, i + 1), (0, 0)))
        if k < len(em):
            skip_cost = 1 if node not in mandatory else PROHIBITIVE_COST
            out.append(("skip", (node, k + 1, i), (skip_cost, 0)))
        if i < n:
            out.append(("ins", (node, k, i + 1), (1, 1)))
        if k == len(em):
            for w in sub.succ.get(node, ()):
                out.append((f"move>{w}", (w, 0, i), (0, 0)))
        return out

    # reachable state space and its edges
    edges = []
    seen = {start}
    dq = deque([start])
    while dq:
        state = dq.popleft()
        for name, nxt, cost in actions(state):
            edges.append((state, name, nxt, cost))
            if nxt not in seen:
                seen.add(nxt)
                dq.append(nxt)
    if goal not in seen:
        return None

    rev: dict = {}
    for src, _name, dst, cost in edges:
        rev.setdefault(dst, []).append((src, cost))

    # distance to goal over reversed edges
    dist = {goal: (0, 0)}
    heap = [((0, 0), 0, goal)]
    seq = 0
    while heap:
        d, _, state = heapq.heappop(heap)
        if dist.get(state, None) != d or state not in seen:
            continue
        for src, cost in rev.get(state, ()):
            cand = (d[0] + cost[0], d[1] + cost[1])
            if cand < dist.get(src, (PROHIBITIVE_COST * 4, PROHIBITIVE_COST * 4)):
                dist[src] = cand
                seq += 1
                heapq.heappush(heap, (cand, seq, src))

    if start not in dist:
        return None

    order = {"match": 0, "pmatch": 1, "skip": 2, "ins": 3}
    total = dist[start]
    acts = []
    state = start
    while state != goal:
        best = None
        here = dist[state]
        for name, nxt, cost in sorted(
            actions(state), key=lambda a: (order.get(a[0].split(">")[0], 4), a[0])
        ):
            nd = dist.get(nxt)
            if nd is None:
                continue
            if (cost[0] + nd[0], cost[1] + nd[1]) == here:
                best = (name, nxt)
                break
        if best is None:  # pragma: no cover - dist is consistent by construction
            raise RuntimeError("alignment replay lost the optimal path")
        name, nxt = best
        node, k, i = state
        if name == "match":
            acts.append(("match", node, sub.emissions[node][k], i))
        elif name == "pmatch":
            acts.append(("pmatch", node, sym_fn[i], i))
        elif name == "skip":
            acts.append(("skip", node, sub.emissions[node][k]))
        elif name == "ins":
            acts.append(("ins", i))
        else:
            acts.append(("move", node, name.split(">", 1)[1]))
        state = nxt
    return total[0], total[1], tuple(acts)


class _StepDraft:
    __slots__ = ("kind", "block_id", "callee", "span_id", "transit")

    def __init__(self, kind, block_id, callee, span_id):
        self.kind = kind
        self.block_id = block_id
        self.callee = callee
        self.span_id = span_id
        self.transit: list[TransitEdge] = []

    def freeze(self) -> PathStep:
        return PathStep(self.kind, self.block_id, self.callee, self.span_id,
                        tuple(self.transit))


def _solve_cached(graph: Cscfg, fn_key: str, sym_fn: tuple, cache: PathCache | None):
    if cache is None:
        return _solve(graph, fn_key, sym_fn)
    key = (fn_key, sym_fn)
    solved = cache.lookup_solve(key)
    if solved is None:
        solved = _solve(graph, fn_key, sym_fn)
        # no path is not stored: the trace fails, and None already means a miss
        if solved is not None:
            cache.store_solve(key, solved)
    return solved


def _emit_invocation(graph, trace, fn_key, children, resolutions, builder, inserts, cache):
    """Realize one invocation's alignment into the step builder.

    A generator: yields (callee key, child spans) for each nested invocation,
    which the caller emits completely before resuming this one, and returns
    this invocation's own (cost, insertions).
    """
    syms = _build_symbols(trace, children, resolutions)

    def emit_insert(sym):
        builder.append(_StepDraft(KIND_INSERT, None, None, sym.span.span_id))
        inserts.append((fn_key, sym.span.operation))

    if not graph.has_body(fn_key):
        for sym in syms:
            emit_insert(sym)
            if isinstance(sym, _SymCall):
                yield sym.ref.key, sym.children
        return len(syms), len(syms)

    sym_fn = tuple(s.ref.key if isinstance(s, _SymCall) else None for s in syms)
    solved = _solve_cached(graph, fn_key, sym_fn, cache)
    if solved is None:
        raise NoPathError(children[0].span_id if children else fn_key,
                          f"no path through function {fn_key!r}")
    cost, ins, acts = solved
    for act in acts:
        if act[0] in ("match", "pmatch"):
            _, node, callee, idx = act
            sym = syms[idx]
            builder.append(_StepDraft(KIND_MATCH, node, callee, sym.span.span_id))
            yield sym.ref.key, sym.children
        elif act[0] == "skip":
            _, node, callee = act
            builder.append(_StepDraft(KIND_SKIP, node, callee, None))
        elif act[0] == "ins":
            sym = syms[act[1]]
            emit_insert(sym)
            if isinstance(sym, _SymCall):
                yield sym.ref.key, sym.children
        else:
            _, src, dst = act
            builder[-1].transit.append(TransitEdge(fn_key, src, dst))
    return cost, ins


def align(graph: Cscfg, trace: Trace, mapping: SpanFunctionMap,
          cache: PathCache | None = None, resolutions: dict | None = None) -> ExecutionPath:
    """Minimum-cost alignment of a trace onto the graph.

    Raises NoPathError when the root span does not resolve to a function the
    graph knows, and ValueError when given a cache with a graph that is not
    frozen. Every span of the trace links to exactly one step.
    """
    if cache is not None and not graph.frozen:
        raise ValueError("a PathCache needs a frozen graph")
    if resolutions is None:
        resolutions = {s.span_id: mapping.resolve(s) for s in trace.spans}
    sig = trace_signature(trace, resolutions)
    if cache is not None:
        tmpl = cache.lookup(sig)
        if tmpl is not None:
            return _rehydrate(tmpl, trace)

    root = trace.root
    r = resolutions[root.span_id]
    if isinstance(r, Unmapped):
        raise NoPathError(root.span_id, f"root span does not map to a function ({r.reason})")
    if not graph.knows(r.key):
        raise NoPathError(root.span_id, f"entry function {r.key!r} absent from graph")

    builder: list[_StepDraft] = [
        _StepDraft(KIND_ENTER, entry_node(r.key), r.key, root.span_id)
    ]
    inserts: list[tuple[str, str]] = []
    # one frame per open invocation; a nested one runs to its end before its
    # caller resumes, so steps land in the order a recursive walk gives
    cost = ins = 0
    stack = [_emit_invocation(graph, trace, r.key, trace.child_spans(root.span_id),
                              resolutions, builder, inserts, cache)]
    while stack:
        try:
            fn_key, children = next(stack[-1])
        except StopIteration as done:
            stack.pop()
            cost += done.value[0]
            ins += done.value[1]
        else:
            stack.append(_emit_invocation(graph, trace, fn_key, children,
                                          resolutions, builder, inserts, cache))
    path = ExecutionPath(tuple(s.freeze() for s in builder), cost, ins)

    linked = path.span_ids()
    if len(linked) != len(trace) or set(linked) != set(trace.span_ids()):
        raise RuntimeError(f"alignment lost spans of trace {trace.trace_id!r}")

    for fn, op in inserts:
        graph.record_alignment_insert(fn, op)
    if cache is not None:
        cache.store(sig, _template(path, trace))
    return path


def _template(path: ExecutionPath, trace: Trace):
    slot = {s.span_id: i for i, s in enumerate(trace.preorder)}
    steps = tuple(
        (s.kind, s.block_id, s.callee,
         slot[s.span_id] if s.span_id is not None else None, s.transit)
        for s in path.steps
    )
    return (steps, path.cost, path.insertions)


def _rehydrate(template, trace: Trace) -> ExecutionPath:
    steps_t, cost, ins = template
    order = trace.preorder
    steps = tuple(
        PathStep(kind, block_id, callee,
                 order[slot].span_id if slot is not None else None, transit)
        for kind, block_id, callee, slot, transit in steps_t
    )
    return ExecutionPath(steps, cost, ins)
