"""Independent brute-force oracles used by the test suite.

These deliberately re-derive results from first principles (path
enumeration, sorting, literal arithmetic) and never share code with the
implementation paths they check.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter


def enumerate_simple_paths(succ: dict, src: str, dst: str, cap: int = 50000) -> list[list[str]]:
    """All simple src->dst paths; raises if the cap is exceeded."""
    out: list[list[str]] = []

    def dfs(path, seen):
        node = path[-1]
        if node == dst:
            out.append(list(path))
            if len(out) > cap:
                raise RuntimeError("path cap exceeded")
            return
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                path.append(nxt)
                seen.add(nxt)
                dfs(path, seen)
                seen.remove(nxt)
                path.pop()

    dfs([src], {src})
    return out


def oracle_dom_sets(nodes, succ: dict, entry: str) -> dict:
    """dom(B) = intersection of node sets over every simple entry->B path."""
    dom: dict = {n: None for n in nodes}

    def dfs(path, seen):
        node = path[-1]
        if dom[node] is None:
            dom[node] = set(path)
        else:
            dom[node].intersection_update(path)
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                path.append(nxt)
                seen.add(nxt)
                dfs(path, seen)
                seen.remove(nxt)
                path.pop()

    dfs([entry], {entry})
    return {n: frozenset(s) if s is not None else None for n, s in dom.items()}


def oracle_pdom_sets(nodes, succ: dict, exit_node: str) -> dict:
    pred: dict = {n: [] for n in nodes}
    for n, outs in succ.items():
        for m in outs:
            pred[m].append(n)
    return oracle_dom_sets(nodes, pred, exit_node)


def oracle_equiv_classes(blocks, dom: dict, pdom: dict) -> set:
    """Mutual-dominance classes from the containment definition directly."""
    parent = {b: b for b in blocks}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    bl = sorted(blocks)
    for i, a in enumerate(bl):
        for b in bl[i + 1:]:
            if (a in dom[b] and b in pdom[a]) or (b in dom[a] and a in pdom[b]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    groups: dict = {}
    for b in blocks:
        groups.setdefault(find(b), set()).add(b)
    return {frozenset(g) for g in groups.values()}


def alg1_budgets(sizes: list[int], p: float) -> list[int]:
    """Literal transcription of the budget allocation."""
    n = len(sizes)
    total_spans = sum(sizes)
    total_budget = math.floor(p * total_spans)
    budgets = [1] * n
    if total_budget < n:
        return budgets
    leftover = total_budget - n
    out = []
    for size in sizes:
        out.append(1 + math.floor(leftover * size / total_spans))
    return out


def exact_quantile(values, q: float) -> float:
    """Sort-based quantile with linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("empty")
    rank = q * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


class HeapRunningMedian:
    """Exact median of a multiset under insertions and deletions.

    Two heaps with lazy deletion: the lower half as a negated max-heap, the
    upper half as a min-heap. Ghost entries are counted per heap and pruned
    whenever a top is inspected, and live sizes are tracked separately so
    ghosts never skew the balance. Even sizes report the midpoint. The
    reference for `scoring.RunningMedian`, which keeps one sorted list.
    """

    __slots__ = ("_low", "_high", "_low_n", "_high_n", "_dead_low", "_dead_high")

    def __init__(self):
        self._low: list[float] = []
        self._high: list[float] = []
        self._low_n = 0
        self._high_n = 0
        self._dead_low: Counter = Counter()
        self._dead_high: Counter = Counter()

    def __len__(self) -> int:
        return self._low_n + self._high_n

    def _top_low(self) -> float:
        low, dead = self._low, self._dead_low
        v = -low[0]
        while dead[v] > 0:
            dead[v] -= 1
            heapq.heappop(low)
            v = -low[0]
        return v

    def _top_high(self) -> float:
        high, dead = self._high, self._dead_high
        v = high[0]
        while dead[v] > 0:
            dead[v] -= 1
            heapq.heappop(high)
            v = high[0]
        return v

    def add(self, x: float) -> None:
        if self._low_n == 0 or x <= self._top_low():
            heapq.heappush(self._low, -x)
            self._low_n += 1
        else:
            heapq.heappush(self._high, x)
            self._high_n += 1
        self._rebalance()

    def remove(self, x: float) -> None:
        """Remove one occurrence of x; x must be logically present."""
        if self._low_n and x <= self._top_low():
            self._low_n -= 1
            if x == -self._low[0]:
                heapq.heappop(self._low)
            else:
                self._dead_low[x] += 1
        else:
            self._high_n -= 1
            if x == self._top_high():
                heapq.heappop(self._high)
            else:
                self._dead_high[x] += 1
        self._rebalance()

    def _rebalance(self) -> None:
        low_n, high_n = self._low_n, self._high_n
        if low_n > high_n + 1:
            x = self._top_low()
            heapq.heappop(self._low)
            heapq.heappush(self._high, x)
            self._low_n = low_n - 1
            self._high_n = high_n + 1
        elif high_n > low_n:
            x = self._top_high()
            heapq.heappop(self._high)
            heapq.heappush(self._low, -x)
            self._high_n = high_n - 1
            self._low_n = low_n + 1

    def median(self) -> float:
        low_n = self._low_n
        if low_n == 0:
            raise ValueError("median of empty set")
        if low_n == self._high_n:
            return (self._top_low() + self._top_high()) / 2
        return self._top_low()


def interval_union_length(intervals) -> int:
    """Sweep over sorted interval endpoints."""
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if end is None or lo >= end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


BIG = 1_000_000


def edit_distance(emissions: list[str], symbols: list, deletable) -> int:
    """Unit-cost alignment of one emission sequence against symbols.

    symbols: list of function keys or None (forced insertions). Deleting the
    emission at index j costs 1 when deletable[j] else BIG; substitution is
    not allowed.
    """
    m, n = len(emissions), len(symbols)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for j in range(1, n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        dp[i][0] = dp[i - 1][0] + (1 if deletable[i - 1] else BIG)
    for i in range(1, m + 1):
        del_cost = 1 if deletable[i - 1] else BIG
        for j in range(1, n + 1):
            best = dp[i - 1][j] + del_cost
            cand = dp[i][j - 1] + 1
            if cand < best:
                best = cand
            if symbols[j - 1] == emissions[i - 1]:
                cand = dp[i - 1][j - 1]
                if cand < best:
                    best = cand
            dp[i][j] = best
    return dp[m][n]


def oracle_invocation_cost(graph, fn_key: str, symbol_fns: list, cap: int = 200) -> int:
    """Minimum alignment cost over every enumerable path of one function."""
    sub = graph.subgraph(fn_key)
    mandatory = graph.dominance(fn_key).mandatory
    paths = enumerate_simple_paths(sub.succ, sub.entry, sub.exit, cap=cap)
    best = None
    for path in paths:
        emissions = []
        deletable = []
        for node in path:
            for callee in sub.emissions.get(node, ()):
                emissions.append(callee)
                deletable.append(node not in mandatory)
        cost = edit_distance(emissions, symbol_fns, deletable)
        if best is None or cost < best:
            best = cost
    return best


# Reference layout for rebuilt traces: the recursive walks reconstruct used
# before its single measuring pass, kept unchanged. Widths and anchors are
# recomputed from every ancestor, so this is quadratic and only fit for tests.

SOURCE_HISTORICAL = "historical-mean"
SOURCE_ZERO = "zero-fallback"


def _stat(stats: dict, key: str):
    entry = stats.get("keys", {}).get(key)
    if entry is None or entry.get("count", 0) == 0:
        return None
    return entry


def _natural_width(node, stats: dict) -> int:
    if node.span is not None:
        return node.span.duration
    entry = _stat(stats, node.fn)
    if entry is None:
        base = 0
        node.source = SOURCE_ZERO
        node.std = None
    else:
        base = max(0, int(round(entry["mean"])))
        node.source = SOURCE_HISTORICAL
        node.std = round(float(entry["std"]), 3)
    width = base + sum(_natural_width(c, stats) for c in node.children)
    lo, hi = _anchor_bounds(node)
    if lo is not None:
        width = max(width, hi - lo)
    return width


def _anchor_bounds(node):
    lo = hi = None
    if node.span is not None:
        lo, hi = node.span.start_time, node.span.end_time
    for c in node.children:
        clo, chi = _anchor_bounds(c)
        if clo is not None:
            lo = clo if lo is None else min(lo, clo)
            hi = chi if hi is None else max(hi, chi)
    return lo, hi


def _place(node, lo: int, hi: int, stats: dict, widths: dict) -> None:
    """Assign [lo, hi) to an inferred node's children; sampled spans anchor."""
    node.lo, node.hi = lo, hi
    cursor = lo
    kids = node.children
    for idx, child in enumerate(kids):
        if child.span is not None:
            clo, chi = child.span.start_time, child.span.end_time
            _place_children_of_sampled(child, stats, widths)
            child.lo, child.hi = clo, chi
            cursor = max(cursor, chi)
            continue
        alo, ahi = _anchor_bounds(child)
        w = widths[id(child)]
        if alo is not None:
            clo = alo
            chi = max(ahi, min(alo + w, hi) if hi > alo else ahi)
        else:
            nxt = hi
            for later in kids[idx + 1:]:
                blo, _ = _anchor_bounds(later)
                if blo is not None:
                    nxt = blo
                    break
            avail = max(0, nxt - cursor)
            clo = cursor
            chi = clo + min(w, avail)
        _place(child, clo, chi, stats, widths)
        cursor = max(cursor, chi)


def _place_children_of_sampled(node, stats: dict, widths: dict) -> None:
    _place(node, node.span.start_time, node.span.end_time, stats, widths)
    node.lo, node.hi = node.span.start_time, node.span.end_time


def _collect_widths(node, stats: dict, widths: dict) -> None:
    widths[id(node)] = _natural_width(node, stats)
    for c in node.children:
        _collect_widths(c, stats, widths)


def oracle_layout(root, orphans, stats: dict) -> None:
    """Set lo/hi (and source/std on inferred nodes) on every node of a tree."""
    widths: dict[int, int] = {}
    _collect_widths(root, stats, widths)
    if root.span is not None:
        _place_children_of_sampled(root, stats, widths)
    else:
        alo, _ahi = _anchor_bounds(root)
        for o in orphans:
            alo = o.start_time if alo is None else min(alo, o.start_time)
        lo = alo if alo is not None else 0
        hi = lo + widths[id(root)]
        for o in orphans:
            hi = max(hi, o.end_time)
        _place(root, lo, hi, stats, widths)


# Reference tree walks: the recursive preorder, shape signature and fidelity
# comparison that model, align and reconstruct used before they read
# Trace.preorder or ran on explicit stacks, kept unchanged. Each recursion
# level is one tree level, so these only fit traces of modest depth.

def oracle_preorder_spans(trace) -> list:
    """Root-first ordering; siblings by (start_time, span_id)."""
    out: list = []

    def visit(span) -> None:
        out.append(span)
        for c in trace.child_spans(span.span_id):
            visit(c)

    visit(trace.root)
    return out


def oracle_trace_signature(trace, resolutions: dict) -> tuple:
    """Canonical shape: preorder function keys with nesting markers."""
    from spanscope.cscfg import FunctionRef

    parts: list[str] = []

    def visit(span) -> None:
        r = resolutions[span.span_id]
        parts.append(r.key if isinstance(r, FunctionRef) else "?")
        parts.append("(")
        for child in trace.child_spans(span.span_id):
            visit(child)
        parts.append(")")

    visit(trace.root)
    return tuple(parts)


def _oracle_label_tree_original(trace, mapping):
    from spanscope.mapping import Unmapped

    def build(span):
        r = mapping.resolve(span)
        kids = []
        for c in trace.child_spans(span.span_id):
            sub = build(c)
            if sub[0] is None:
                kids.extend(sub[2])  # unmapped spans are transparent
            else:
                kids.append(sub)
        label = None if isinstance(r, Unmapped) else r.key
        return (label, span, kids)

    return build(trace.root)


def _oracle_label_tree_rebuilt(rebuilt):
    children: dict = {}
    for r in rebuilt.spans:
        children.setdefault(r.span.parent_id, []).append(r)

    def build(r):
        kids = []
        for c in children.get(r.span.span_id, []):
            sub = build(c)
            if sub[0] is None:
                kids.extend(sub[2])
            else:
                kids.append(sub)
        return (r.function, r, kids)

    roots = children.get(None, [])
    if len(roots) != 1:
        raise ValueError("rebuilt trace must have exactly one root")
    return build(roots[0])


def oracle_structural_fidelity(original, rebuilt, mapping):
    """(structure_exact, span_recall, duration_error, inferred_count)."""
    otree = _oracle_label_tree_original(original, mapping)
    rtree = _oracle_label_tree_rebuilt(rebuilt)

    matched_ids: set = set()
    inferred_pairs: list = []
    exact = True

    def walk(onode, rnode):
        nonlocal exact
        olabel, ospan, okids = onode
        rlabel, rspan, rkids = rnode
        if olabel != rlabel:
            exact = False
            return
        if rspan.origin == "sampled" and rspan.span.span_id == ospan.span_id:
            matched_ids.add(ospan.span_id)
        elif rspan.origin == "inferred":
            matched_ids.add(ospan.span_id)
            inferred_pairs.append((ospan, rspan))
        else:
            matched_ids.add(ospan.span_id)
        if len(okids) != len(rkids):
            exact = False
        for oc, rc in zip(okids, rkids):
            walk(oc, rc)

    walk(otree, rtree)

    kept_ids = {r.span.span_id for r in rebuilt.spans if r.origin == "sampled"}
    represented = set(matched_ids)
    for span in original.spans:
        if span.span_id in kept_ids:
            represented.add(span.span_id)
    recall = len(represented) / len(original)

    errors = [
        abs(ospan.duration - rspan.span.duration) / ospan.duration
        for ospan, rspan in inferred_pairs
        if ospan.duration > 0
    ]
    mean_err = sum(errors) / len(errors) if errors else 0.0
    if math.isnan(mean_err):  # pragma: no cover
        mean_err = 0.0
    return (exact, recall, mean_err, len(rebuilt.inferred()))
