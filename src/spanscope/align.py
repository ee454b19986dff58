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

A path names spans by slot, their index in `Trace.preorder`, so it depends
on the trace's shape only. Forks are recorded as alignment finds them: a
move out of a node with more than one flow successor puts its target on the
step it follows and on the path; every other flow move is dropped.

A PathCache memoises alignment at two levels. The trace level is keyed by
the trace's shape signature (each span's function key and child count, in
`Trace.preorder`) and stores the path itself, so a hit returns the very path
a fresh alignment of that shape gives. The invocation level is keyed by a
function and the callee key of each symbol aligned against it (None for an
inserted unmapped span), which is everything the solver reads besides the
graph; it stores the solver's action sequence, forks included, so a trace
whose whole shape is new still reuses the invocations it shares with
earlier traces. Both levels hold at most `capacity` entries each. Neither
key names the graph, so a cache serves one frozen graph: align refuses a
cache with a graph that can still change.
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


@dataclass(frozen=True, slots=True)
class PathStep:
    """One step; `slot` indexes `Trace.preorder` (None for a skip).

    `forks` holds the targets of the fork moves taken after this step, in
    order.
    """

    kind: str
    block_id: str | None
    callee: str | None
    slot: int | None
    forks: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExecutionPath:
    """Aligned steps of one trace shape; `forks` lists every fork target in order."""

    steps: tuple[PathStep, ...]
    cost: int
    insertions: int
    forks: tuple[str, ...]


class PathCache:
    """Two bounded LRU maps of alignment results for one frozen graph.

    `lookup`/`store` hold whole-trace `ExecutionPath`s keyed by
    `trace_signature` (preorder function keys and child counts). A path
    names spans by preorder slot and carries its forks, so a hit hands back
    the stored path as it is; `hits`, `misses` and `len()` count this level.
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
        """Hit returns the stored path, miss returns None."""
        path = self._get(self._data, key)
        if path is None:
            self.misses += 1
        else:
            self.hits += 1
        return path

    def store(self, key, path) -> None:
        self._put(self._data, key, path)

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
    # every preorder span has a child list, so read them without the check
    kids = trace._children
    parts: list = []
    for span in trace.preorder:
        sid = span.span_id
        r = resolutions[sid]
        parts.append(r.key if isinstance(r, FunctionRef) else "?")
        parts.append(len(kids[sid]))
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
    or None when no path exists. Of the flow moves, only those out of a node
    with more than one successor appear, as ("fork", target). Cost tuples
    order by total cost then insertion count; the greedy replay over goal
    distances applies the fixed action preference, so the result is
    deterministic.
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
        elif len(sub.succ[node]) > 1:
            acts.append(("fork", name.split(">", 1)[1]))
        state = nxt
    return total[0], total[1], tuple(acts)


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


def _emit_invocation(graph, trace, fn_key, children, resolutions, slot, steps, forks,
                     cache):
    """Realize one invocation's alignment into `steps` and `forks`.

    A generator: yields (callee key, child spans) for each nested invocation,
    which the caller emits completely before resuming this one, and returns
    this invocation's own (cost, insertions).
    """
    syms = _build_symbols(trace, children, resolutions)

    def emit_insert(sym):
        steps.append(PathStep(KIND_INSERT, None, None, slot[sym.span.span_id]))

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
            steps.append(PathStep(KIND_MATCH, node, callee, slot[sym.span.span_id]))
            yield sym.ref.key, sym.children
        elif act[0] == "skip":
            _, node, callee = act
            steps.append(PathStep(KIND_SKIP, node, callee, None))
        elif act[0] == "ins":
            sym = syms[act[1]]
            emit_insert(sym)
            if isinstance(sym, _SymCall):
                yield sym.ref.key, sym.children
        else:
            dst = act[1]
            last = steps[-1]
            steps[-1] = PathStep(last.kind, last.block_id, last.callee, last.slot,
                                 last.forks + (dst,))
            forks.append(dst)
    return cost, ins


def align(graph: Cscfg, trace: Trace, mapping: SpanFunctionMap,
          cache: PathCache | None = None, resolutions: dict | None = None) -> ExecutionPath:
    """Minimum-cost alignment of a trace onto the graph.

    Raises NoPathError when the root span does not resolve to a function the
    graph knows, and ValueError when given a cache with a graph that is not
    frozen. Every slot of the trace's preorder lies on exactly one step.
    """
    if cache is not None and not graph.frozen:
        raise ValueError("a PathCache needs a frozen graph")
    if resolutions is None:
        resolutions = {s.span_id: mapping.resolve(s) for s in trace.spans}
    sig = trace_signature(trace, resolutions)
    if cache is not None:
        path = cache.lookup(sig)
        if path is not None:
            return path

    root = trace.root
    r = resolutions[root.span_id]
    if isinstance(r, Unmapped):
        raise NoPathError(root.span_id, f"root span does not map to a function ({r.reason})")
    if not graph.knows(r.key):
        raise NoPathError(root.span_id, f"entry function {r.key!r} absent from graph")

    slot = {s.span_id: i for i, s in enumerate(trace.preorder)}
    steps = [PathStep(KIND_ENTER, entry_node(r.key), r.key, slot[root.span_id])]
    forks: list[str] = []
    # one frame per open invocation; a nested one runs to its end before its
    # caller resumes, so steps land in the order a recursive walk gives
    cost = ins = 0
    stack = [_emit_invocation(graph, trace, r.key, trace.child_spans(root.span_id),
                              resolutions, slot, steps, forks, cache)]
    while stack:
        try:
            fn_key, children = next(stack[-1])
        except StopIteration as done:
            stack.pop()
            cost += done.value[0]
            ins += done.value[1]
        else:
            stack.append(_emit_invocation(graph, trace, fn_key, children, resolutions,
                                          slot, steps, forks, cache))

    linked = sorted(s.slot for s in steps if s.slot is not None)
    if linked != list(range(len(trace))):
        raise RuntimeError(f"alignment lost spans of trace {trace.trace_id!r}")

    graph.alignment_inserts += ins
    path = ExecutionPath(tuple(steps), cost, ins, tuple(forks))
    if cache is not None:
        cache.store(sig, path)
    return path
