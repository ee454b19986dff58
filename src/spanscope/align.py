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
states, so loops in the graph need no special casing: one backward Dijkstra
from the goal state generates predecessors as it goes and stops once every
state no farther from the goal than the start is settled. Each state it
relaxes keeps its preferred optimal move, and the replay follows those
moves from the start. Ties are broken deterministically: lower cost, then
fewer insertions, then a fixed move preference (match, skip, insert, move to
the smallest successor id), which keeps repeated runs byte-identical.

A path is cached as its dominant span sets and its forks. A slot names a
span by its index in `Trace.preorder`, so a path depends on the trace's
shape only. Forks are recorded as alignment finds them: a move out of a
node with more than one flow successor records its target, and every other
flow move is dropped. Where the path leaves the graph, the forks also hold
its edits, at their place in the path, as tuples of call indexes into the
preorder of the mapped spans (the replay's calls): a mapped span that
alignment inserts is (parent call, its own call, function key), and a
block's call that it skips is (parent call, the call it would have been).
Unmapped spans are calls of no function and need no edit. Forks and edits
together pin the path through the graph, so no set names a block or
callee. Sets are cut as the path is laid out in order, each span a step and
each skipped call a step without a span: a set ends at the first fork after
a step, that fork's target tags the next set (the first is tagged
TRUNK_TAG), and a set with no span is dropped; an edit cuts nothing.

A PathCache memoises alignment at three levels, each an LRU map of at most
PATH_CACHE_CAPACITY entries. The trace level is keyed by the trace's shape
signature (each span's function key and child count, in `Trace.preorder`)
and stores the path itself, so a hit returns the very path a fresh
alignment of that shape gives. On a trace-level miss each span gets a hash-consed shape id,
keyed by its function key (None when unmapped) and its children's ids; the
subtree level stores, per shape, that id and the fragment of path a mapped
span's subtree emits after the span itself, with slots relative to the
span's slot and child fragments held by reference. A new trace shape is so
composed from the subtrees already aligned, and only subtrees never seen
before are aligned. The invocation level is keyed by a function and the
callee key of each symbol aligned against it (None for an inserted unmapped
span), which is everything the solver reads besides the graph; it stores the
solver's action sequence, forks included. No key names the graph, so a
cache serves one frozen graph: align refuses a graph that can still change.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass

from .cscfg import Cscfg, FunctionRef
from .errors import NoPathError
from .mapping import Unmapped
from .model import Trace

PROHIBITIVE_COST = 1_000_000
# the tag of a path's first set, which no fork opens
TRUNK_TAG = "trunk"
# entries each map of a PathCache holds at most
PATH_CACHE_CAPACITY = 4096
# the solver's move preference, best first; a flow move ranks (3, target id)
_MATCH, _SKIP, _INS = (0,), (1,), (2,)


@dataclass(frozen=True)
class ExecutionPath:
    """Aligned path of one trace shape, as its sets and its forks.

    Each set is a pair (slots, tag): slots index `Trace.preorder` in path
    order, and tag is the fork target that opened the set, or TRUNK_TAG.
    `forks` lists every fork target and every edit in path order.
    `leaves_graph` is True when the path skips a block's call or inserts a
    mapped span, that is when its forks hold an edit and its cost exceeds
    its unmapped spans.
    """

    sets: tuple[tuple[tuple[int, ...], str], ...]
    cost: int
    insertions: int
    forks: tuple[str | tuple, ...]
    leaves_graph: bool


class _Fragment:
    """The path a mapped span's subtree emits after the span itself.

    `items` is flat, in path order: a span's slot relative to the mapped
    span's; None for a skipped call; a fork target; (fragment, relative
    slot) for a mapped child, its step and then its fragment, referenced
    and not copied; or (fragment, relative slot, function key) for a mapped
    child that alignment inserted. `cost` and `insertions` cover the whole
    subtree.
    """

    __slots__ = ("items", "cost", "insertions")

    def __init__(self, items: tuple, cost: int, insertions: int):
        self.items = items
        self.cost = cost
        self.insertions = insertions


class _Shape:
    """A hash-consed subtree shape: its id and, once aligned, its fragment."""

    __slots__ = ("id", "fragment")

    def __init__(self, shape_id: int):
        self.id = shape_id
        self.fragment: _Fragment | None = None


class PathCache:
    """Three bounded LRU maps of alignment results for one frozen graph.

    `lookup`/`store` hold whole-trace `ExecutionPath`s keyed by
    `trace_signature` (preorder function keys and child counts). A path
    names spans by preorder slot and carries its forks, so a hit hands back
    the stored path as it is; `hits`, `misses` and `len()` count this level.
    `shapes` hash-conses the subtree shapes of a trace into the second map,
    keyed by (function key or None, the children's shape ids); an entry
    holds the shape's id and, once aligned, the fragment of path its mapped
    root emits, with slots relative to that root's slot. A trace-level miss
    counts each fragment it finds or builds in `subtree_hits` or
    `subtree_misses`. `lookup_solve`/`store_solve` hold per-invocation
    solver results keyed by `(function key, callee key or None per symbol)`,
    counted by `solve_hits` and `solve_misses`. Each map holds at most
    PATH_CACHE_CAPACITY entries, read when an entry is added. Shape ids
    come from a counter and are never reused, so an evicted shape's id never
    names another shape. No key names the graph, so one cache must only
    ever see one frozen graph. Like the pipeline that owns it, a cache is
    used from one thread.
    """

    def __init__(self):
        self._data: OrderedDict = OrderedDict()
        self._shapes: OrderedDict = OrderedDict()
        self._solves: OrderedDict = OrderedDict()
        self._next_shape_id = 0
        self.hits = 0
        self.misses = 0
        self.subtree_hits = 0
        self.subtree_misses = 0
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
        while len(data) > PATH_CACHE_CAPACITY:
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

    def shapes(self, keys: list, counts) -> tuple[list, list]:
        """The shape and the subtree end of each preorder slot, bottom-up.

        keys[i] is slot i's function key (None when unmapped), counts[i] its
        child count. Slot i's subtree covers slots i up to ends[i].
        """
        data, capacity = self._shapes, PATH_CACHE_CAPACITY
        n = len(keys)
        shapes: list = [None] * n
        ends = [0] * n
        # ids and ends of the subtrees not yet claimed by a parent; a span's
        # children are the top counts[i] entries, its last child deepest
        ids: list = []
        tails: list = []
        push_id, push_tail = ids.append, tails.append
        for i in range(n - 1, -1, -1):
            c = counts[i]
            if c:
                key = (keys[i], tuple(ids[-c:]))
                end = tails[-c]
                del ids[-c:], tails[-c:]
            else:
                key = (keys[i], ())
                end = i + 1
            shape = data.get(key)
            if shape is None:
                shape = data[key] = _Shape(self._next_shape_id)
                self._next_shape_id += 1
                if len(data) > capacity:
                    data.popitem(last=False)
            else:
                data.move_to_end(key)
            shapes[i] = shape
            ends[i] = end
            push_id(shape.id)
            push_tail(end)
        return shapes, ends

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


def _solve(graph: Cscfg, fn_key: str, sym_fn: tuple):
    """Optimal action sequence for one invocation.

    sym_fn holds the callee key of each symbol, None for an inserted unmapped
    span. Returns (cost, insertions, actions) with actions a tuple of tuples,
    or None when no path exists. A match or insertion of symbol i is
    ("match", i) or ("ins", i), and a skipped call is ("skip",). Of the flow
    moves, only those out of a node with more than one successor appear, as
    ("fork", target). Cost tuples order by total cost then insertion count,
    and a state at least (4, 4) * PROHIBITIVE_COST from the goal counts as
    unreachable. Each state keeps its preferred optimal move, ranked match,
    skip, insert, then move by target id, and the replay follows those moves
    from the start, so the result is deterministic.
    """
    sub = graph.subgraph(fn_key)
    mandatory = graph.dominance(fn_key).mandatory
    emissions, succ = sub.emissions, sub.succ
    n = len(sym_fn)
    start = (sub.entry, 0, 0)
    goal = (sub.exit, 0, n)

    # distance to goal: Dijkstra from the goal over the reversed moves, each
    # state's sources generated when it is settled. Relaxing a source keeps
    # its preferred move to a settled state as (rank, action, next state),
    # the action None for a flow move out of a node with one successor. It
    # stops once every state at most as far as the start is settled: every
    # optimal move of a state on the replay leads to one of those, so each
    # has relaxed its source (a state still queued is farther than any the
    # replay visits).
    preds: dict = {}
    for v, ws in succ.items():
        for w in ws:
            preds.setdefault(w, []).append(
                (v, len(emissions[v]), ("fork", w) if len(ws) > 1 else None))
    unreachable = (PROHIBITIVE_COST * 4, PROHIBITIVE_COST * 4)
    dist = {goal: (0, 0)}
    choice: dict = {}
    heap = [((0, 0), 0, goal)]
    seq = 0
    bound = None
    while heap:
        d, _, state = heapq.heappop(heap)
        if bound is not None and d > bound:
            break
        if dist[state] != d:
            continue
        if state == start:
            bound = d
        node, k, i = state
        cost, ins = d
        em = emissions[node]
        sources = []
        if k:
            if i and sym_fn[i - 1] == em[k - 1]:
                sources.append(((node, k - 1, i - 1), d, _MATCH, ("match", i - 1)))
            skip_cost = 1 if node not in mandatory else PROHIBITIVE_COST
            sources.append(((node, k - 1, i), (cost + skip_cost, ins), _SKIP, ("skip",)))
        else:
            rank = (3, node)
            for v, kv, act in preds.get(node, ()):
                sources.append(((v, kv, i), d, rank, act))
        if i:
            sources.append(((node, k, i - 1), (cost + 1, ins + 1), _INS, ("ins", i - 1)))
        for src, cand, rank, act in sources:
            old = dist.get(src, unreachable)
            if cand < old:
                dist[src] = cand
                choice[src] = (rank, act, state)
                seq += 1
                heapq.heappush(heap, (cand, seq, src))
            elif cand == old and src in choice and rank < choice[src][0]:
                choice[src] = (rank, act, state)

    if bound is None:
        return None
    acts = []
    state = start
    while state != goal:
        _, act, state = choice[state]
        if act is not None:
            acts.append(act)
    return bound[0], bound[1], tuple(acts)


def _solve_cached(graph: Cscfg, fn_key: str, sym_fn: tuple, cache: PathCache):
    key = (fn_key, sym_fn)
    solved = cache.lookup_solve(key)
    if solved is None:
        solved = _solve(graph, fn_key, sym_fn)
        # no path is not stored: the trace fails, and None already means a miss
        if solved is not None:
            cache.store_solve(key, solved)
    return solved


def _fragment(i: int, syms: list, solved, keys: list, frags: list) -> _Fragment:
    """Slot i's fragment from its symbols' slots and its `_solve` result.

    solved is None for a function without a body: every symbol is inserted.
    The fragments of the mapped symbols are already in frags.
    """
    items: list = []
    cost = ins = 0

    def emit(j, inserted):
        nonlocal cost, ins
        key = keys[j]
        if key is not None:
            child = frags[j]
            cost += child.cost
            ins += child.insertions
            if inserted:
                items.append((child, j - i, key))
                return
            if child.items:
                items.append((child, j - i))
                return
        items.append(j - i)

    if solved is None:
        for j in syms:
            emit(j, True)
        return _Fragment(tuple(items), cost + len(syms), ins + len(syms))
    own_cost, own_ins, acts = solved
    for act in acts:
        tag = act[0]
        if tag == "skip":
            items.append(None)
        elif tag == "fork":
            items.append(act[1])
        else:
            emit(syms[act[1]], tag == "ins")
    return _Fragment(tuple(items), cost + own_cost, ins + own_ins)


def _compose(frag: _Fragment, keys: list) -> tuple[list, list]:
    """Sets and forks of the path: the root's step, then frag flattened.

    keys[slot] is the slot's function key, None when unmapped. The mapped
    slots are counted in path order, which is preorder, so each edit gets
    the call indexes the replay gives its calls.
    """
    sets: list = []
    forks: list = []
    slots = [0]
    tag = TRUNK_TAG
    # whether a step came since the last fork: only such a fork cuts
    stepped = True
    calls = 1  # the root is call 0
    # per open fragment: its items, its span's slot and that span's call
    frames = [(iter(frag.items), 0, 0)]
    while frames:
        items, base, me = frames[-1]
        for item in items:
            kind = type(item)
            if kind is int:
                slot = base + item
                slots.append(slot)
                calls += keys[slot] is not None
                stepped = True
            elif kind is str:
                forks.append(item)
                if stepped:
                    if slots:
                        sets.append((tuple(slots), tag))
                        slots = []
                    tag = item
                    stepped = False
            elif item is None:
                forks.append((me, calls))
                stepped = True
            else:
                if len(item) == 3:
                    forks.append((me, calls, item[2]))
                rel = item[1]
                slots.append(base + rel)
                stepped = True
                frames.append((iter(item[0].items), base + rel, calls))
                calls += 1
                break
        else:
            frames.pop()
    if slots:
        sets.append((tuple(slots), tag))
    return sets, forks


def align(graph: Cscfg, trace: Trace, cache: PathCache, resolutions: dict) -> ExecutionPath:
    """Minimum-cost alignment of a trace onto the frozen graph.

    resolutions maps each span id to its `SpanFunctionMap.resolve` result.
    Raises NoPathError when the root span does not resolve to a function the
    graph knows, or when an invocation has no path (naming its first child
    span, or the function key of a leaf); the first such invocation in
    preorder is named. Raises ValueError when the graph is not frozen.
    Every slot of the trace's preorder lies in exactly one set.
    """
    if not graph.frozen:
        raise ValueError("a PathCache needs a frozen graph")
    sig = trace_signature(trace, resolutions)
    path = cache.lookup(sig)
    if path is not None:
        return path

    root = trace.root
    r = resolutions[root.span_id]
    if isinstance(r, Unmapped):
        raise NoPathError(root.span_id, f"root span does not map to a function ({r.reason})")
    if not graph.knows(r.key):
        raise NoPathError(root.span_id, f"entry function {r.key!r} absent from graph")

    keys = [None if k == "?" else k for k in sig[::2]]
    counts = sig[1::2]
    shapes, ends = cache.shapes(keys, counts)
    n = len(keys)
    frags: list = [None] * n
    # preorder scan: a subtree whose shape has a fragment is skipped whole;
    # each other mapped span is solved now, so the first invocation without
    # a path in preorder raises, and its fragment is built below
    todo = []
    i = 0
    while i < n:
        fn_key = keys[i]
        if fn_key is None:
            i += 1
            continue
        frag = shapes[i].fragment
        if frag is not None:
            cache.subtree_hits += 1
            frags[i] = frag
            i = ends[i]
            continue
        cache.subtree_misses += 1
        # symbols: the subtree's spans in preorder, through unmapped spans
        # and not into mapped ones
        syms = []
        j, end = i + 1, ends[i]
        while j < end:
            syms.append(j)
            j = j + 1 if keys[j] is None else ends[j]
        solved = None
        if graph.has_body(fn_key):
            solved = _solve_cached(graph, fn_key, tuple([keys[j] for j in syms]), cache)
            if solved is None:
                raise NoPathError(trace.preorder[i + 1].span_id if counts[i] else fn_key,
                                  f"no path through function {fn_key!r}")
        todo.append((i, syms, solved))
        i += 1
    # children before parents, so each child fragment is ready for its caller
    for i, syms, solved in reversed(todo):
        frags[i] = shapes[i].fragment = _fragment(i, syms, solved, keys, frags)

    root_frag = frags[0]
    sets, forks = _compose(root_frag, keys)
    linked = sorted(slot for slots, _ in sets for slot in slots)
    if linked != list(range(n)):
        raise RuntimeError(f"alignment lost spans of trace {trace.trace_id!r}")

    # every unmapped span is inserted at cost 1: any cost beyond them is a
    # skipped call or an inserted mapped span
    path = ExecutionPath(tuple(sets), root_frag.cost, root_frag.insertions, tuple(forks),
                         root_frag.cost > keys.count(None))
    cache.store(sig, path)
    return path
