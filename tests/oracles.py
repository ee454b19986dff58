"""Independent brute-force oracles used by the test suite.

These deliberately re-derive results from first principles (path
enumeration, sorting, literal arithmetic) and never share code with the
implementation paths they check.
"""

from __future__ import annotations

import heapq
import math
import statistics
from collections import Counter, deque, namedtuple


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
    for o in node.orphans:
        lo = o.start_time if lo is None else min(lo, o.start_time)
        hi = o.end_time if hi is None else max(hi, o.end_time)
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


def oracle_layout(root, stats: dict) -> None:
    """Set lo/hi (and source/std on inferred nodes) on every node of a tree."""
    widths: dict[int, int] = {}
    _collect_widths(root, stats, widths)
    if root.span is not None:
        _place_children_of_sampled(root, stats, widths)
    else:
        alo, _ahi = _anchor_bounds(root)
        lo = alo if alo is not None else 0
        _place(root, lo, lo + widths[id(root)], stats, widths)


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
    """(structure_exact, duration_error, inferred_count)."""
    otree = _oracle_label_tree_original(original, mapping)
    rtree = _oracle_label_tree_rebuilt(rebuilt)

    inferred_pairs: list = []
    exact = True

    def walk(onode, rnode):
        nonlocal exact
        olabel, ospan, okids = onode
        rlabel, rspan, rkids = rnode
        if olabel != rlabel:
            exact = False
            return
        if rspan.origin == "inferred":
            inferred_pairs.append((ospan, rspan))
        elif rspan.span.span_id != ospan.span_id:
            exact = False
        if len(okids) != len(rkids):
            exact = False
        for oc, rc in zip(okids, rkids):
            walk(oc, rc)

    walk(otree, rtree)

    errors = [
        abs(ospan.duration - rspan.span.duration) / ospan.duration
        for ospan, rspan in inferred_pairs
        if ospan.duration > 0
    ]
    mean_err = sum(errors) / len(errors) if errors else 0.0
    if math.isnan(mean_err):  # pragma: no cover
        mean_err = 0.0
    return (exact, mean_err, len(rebuilt.inferred()))


# Score and select as they were before the fused window update: the marker
# search is a scan with a `while` loop, every window observation builds an
# OracleZ and reads its threshold through z_threshold(), and the select loop
# keeps a flag for every span and sorts every set. The fused versions must
# give the same bits. These copies reuse the package's RunningMedian, Welford
# and allocate_budget, which tests check on their own.


class OracleP2Quantile:
    """The five-marker estimator with the scan-and-loop marker update."""

    def __init__(self, quantile: float):
        self.q = quantile
        self.n = 0
        self.heights: list[float] = []
        self.positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1 + 2 * quantile, 1 + 4 * quantile, 3 + 2 * quantile, 5.0]
        self._increments = [0.0, quantile / 2, quantile, (1 + quantile) / 2, 1.0]

    def update(self, x: float) -> None:
        self.n += 1
        if self.n <= 5:
            self.heights.append(x)
            if self.n == 5:
                self.heights.sort()
            return

        h = self.heights
        pos = self.positions
        des = self._desired
        inc = self._increments

        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1

        for i in range(k + 1, 5):
            pos[i] += 1
        des[1] += inc[1]
        des[2] += inc[2]
        des[3] += inc[3]
        des[4] += inc[4]

        for i in (1, 2, 3):
            d = des[i] - pos[i]
            if (d >= 1 and pos[i + 1] - pos[i] > 1) or (d <= -1 and pos[i - 1] - pos[i] < -1):
                d = 1 if d > 0 else -1
                hi = h[i]
                pi = pos[i]
                p_next = pos[i + 1]
                p_prev = pos[i - 1]
                candidate = hi + d / (p_next - p_prev) * (
                    (pi - p_prev + d) * (h[i + 1] - hi) / (p_next - pi)
                    + (p_next - pi - d) * (hi - h[i - 1]) / (pi - p_prev)
                )
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = hi + d * (h[i + d] - hi) / (pos[i + d] - pi)
                pos[i] = pi + d

    def value(self) -> float:
        if self.n == 0:
            return 0.0
        if self.n < 5:
            ordered = sorted(self.heights)
            rank = self.q * (len(ordered) - 1)
            lo = int(math.floor(rank))
            hi = min(lo + 1, len(ordered) - 1)
            frac = rank - lo
            return ordered[lo] * (1 - frac) + ordered[hi] * frac
        return self.heights[2]


OracleZ = namedtuple("OracleZ", "value degenerate")
ORACLE_Z_CAP = 1e6  # the score of a deviation from a zero-MAD window


class OracleSpanStatWindow:
    """A score window whose observe() and z_threshold() are separate reads.

    With exact=True the median and MAD are recomputed by sorting the window.
    """

    def __init__(self, key, window, min_obs, theta, exact=False):
        from spanscope.scoring import RunningMedian, Welford

        self.key = key
        self.window = window
        self.min_obs = min_obs
        self.exact = exact
        self.count = 0
        self._values = deque()
        self._median = RunningMedian()
        self._mad_est = OracleP2Quantile(0.5)
        self._zq_est = OracleP2Quantile(theta)
        self._welford = Welford()

    def _current_mad(self, med):
        if self.exact:
            return statistics.median(abs(v - med) for v in self._values)
        return self._mad_est.value()

    def observe(self, x):
        values = self._values
        if not values:
            med = None
        elif self.exact:
            med = statistics.median(values)
        else:
            med = self._median.median()

        if med is None:
            z = OracleZ(0.0, False)
            deviation = 0.0
        elif self.count < self.min_obs:
            z = OracleZ(0.0, False)
            deviation = abs(x - med)
        else:
            mad = self._current_mad(med)
            dev = x - med
            if dev == 0:
                z = OracleZ(0.0, mad == 0)
            elif mad <= 0:
                z = OracleZ(math.copysign(ORACLE_Z_CAP, dev), True)
            else:
                z = OracleZ(dev / mad, False)
            deviation = abs(dev)

        self._zq_est.update(z.value)
        self._welford.add(x)
        self._mad_est.update(deviation)
        if len(values) == self.window:
            self._median.remove(values.popleft())
        values.append(x)
        self._median.add(x)
        self.count += 1
        return z

    def z_threshold(self):
        if self.count < self.min_obs:
            return math.inf
        return self._zq_est.value()

    def score(self, x):
        """(z, degenerate, threshold in force before x), as the package's."""
        threshold = self.z_threshold()
        return (*self.observe(x), threshold)


class OracleScoreBook:
    def __init__(self, window, min_obs, theta):
        self.args = (window, min_obs, theta)
        self.windows: dict = {}

    def window_for(self, key):
        win = self.windows.get(key)
        if win is None:
            win = self.windows[key] = OracleSpanStatWindow(key, *self.args)
        return win


def oracle_stored_decision(decision) -> str:
    """The stored decision record, what rebuild reads, keys sorted by the encoder."""
    import json

    out = {"trace_id": decision.trace_id, "kept": list(decision.kept),
           "entry": decision.entry, "forks": list(decision.forks), "at": list(decision.at)}
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def oracle_decision_serialize(decision) -> str:
    """One sampling decision as the older, longer record that also carries
    the DSS reports and the effective ratio, keys sorted by the encoder; the
    read path still accepts it and ignores those two."""
    import json

    out = {
        "trace_id": decision.trace_id,
        "kept": list(decision.kept),
        "entry": decision.entry,
        "dss": [
            {
                "dss_id": r.dss_id,
                "branch_tag": r.branch_tag,
                "size": r.size,
                "budget": r.budget,
                "picked_by_z": r.picked_by_z,
                "picked_by_lrs": r.picked_by_lrs,
            }
            for r in decision.dss_reports
        ],
        "effective_ratio": round(decision.effective_ratio, 6),
        "forks": list(decision.forks),
        "at": list(decision.at),
    }
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def oracle_sample_trace(trace, dss_list, scorebook, ledger, cfg, span_keys, exclusive,
                        entry, forks, calls):
    """Budgeted selection with a flag per span and a sort per set."""
    from spanscope.errors import PartitionMismatchError
    from spanscope.sampler import DssReport, SamplingDecision, allocate_budget

    covered = [s for d in dss_list for s in d.spans]
    if len(covered) != len(trace) or set(covered) != set(trace.span_ids()):
        raise PartitionMismatchError(
            f"partition does not cover trace {trace.trace_id!r}"
        )

    z_of: dict[str, float] = {}
    flagged: dict[str, bool] = {}
    fixed = cfg.fixed_threshold
    window_for = scorebook.window_for
    for span in trace.arrival:
        sid = span.span_id
        z, _degenerate, threshold = window_for(span_keys[sid]).score(exclusive[sid])
        if fixed is not None:
            threshold = fixed
        z_of[sid] = z
        flagged[sid] = z >= threshold

    budgets = allocate_budget([len(d) for d in dss_list], cfg.ratio)
    kept: list[str] = []
    reports: list = []
    key_stats: dict[str, tuple[int, int]] = {}
    for dss, budget in zip(dss_list, budgets):
        candidates = sorted(
            (s for s in dss.spans if flagged[s]),
            key=lambda s: (-z_of[s], s),
        )
        picked = candidates[:budget]
        by_z = len(picked)
        if len(picked) < budget:
            chosen = set(picked)
            for s in dss.spans:
                k = span_keys[s]
                if k not in key_stats:
                    key_stats[k] = ledger.stats(k)
            remainder = sorted(
                (s for s in dss.spans if s not in chosen),
                key=lambda s: key_stats[span_keys[s]] + (s,),
            )
            picked = picked + remainder[: budget - len(picked)]
        kept.extend(picked)
        reports.append(DssReport(
            dss_id=dss.dss_id,
            branch_tag=dss.branch_tag,
            size=len(dss),
            budget=budget,
            picked_by_z=by_z,
            picked_by_lrs=len(picked) - by_z,
        ))

    kept_sorted = tuple(sorted(kept))
    decision = SamplingDecision(
        trace_id=trace.trace_id,
        kept=kept_sorted,
        entry=entry,
        dss_reports=tuple(reports),
        effective_ratio=len(kept_sorted) / len(trace),
        kept_keys=tuple(sorted({span_keys[s] for s in kept_sorted})),
        forks=forks,
        at=tuple(calls[s] for s in kept_sorted),
    )
    ledger.note(decision.kept_keys)
    return decision


# The rebuild as it stood before the replay walk wrote flat preorder lists:
# a _Node tree from a walker with a replay mode and a search mode, a
# breadth-first measuring pass (_measure), a separate placing pass, and an
# emit that parses every inferred span's function key. Like the package, the
# walker places each kept span at the preorder call its decision records.
# The search enumerates fork choices until two structurally distinct paths
# fit the kept spans at their recorded calls; it is the witness oracle for
# dominant span sets, and nothing in the package calls it. Both layouts (the
# two passes here, or the recursive oracle_layout above) give the emit the
# same node fields.

ORACLE_WALK_BUDGET = 50_000  # flow moves one walk may take
ORACLE_SEARCH_BUDGET = 8000  # fork-choice prefixes one search may try


class OracleAmbiguousPathError(Exception):
    """Kept spans are consistent with more than one path through the graph."""

    def __init__(self, trace_id, branch_tags):
        tags = sorted(branch_tags)
        super().__init__(f"trace {trace_id!r}: ambiguous path, candidate branches {tags}")
        self.trace_id = trace_id
        self.branch_tags = tags


class _Node:
    __slots__ = ("fn", "block", "span", "children", "orphans", "lo", "hi", "alo", "ahi",
                 "width", "source", "std")

    def __init__(self, fn, block, span):
        self.fn = fn
        self.block = block
        self.span = span
        self.children = []
        self.orphans = []  # unmapped kept spans recorded at this call
        self.lo = 0
        self.hi = 0
        self.alo = None  # earliest sampled start in the subtree
        self.ahi = None  # latest sampled end in the subtree
        self.width = 0  # natural width, set by _measure
        self.source = None
        self.std = None


def _canonical(root) -> tuple:
    """Preorder (fn, block, span id, child count) of every node; fixes the tree."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append((node.fn, node.block, node.span.span_id if node.span else None,
                    len(node.children)))
        stack.extend(reversed(node.children))
    return tuple(out)


class _Walker:
    """Replays one path through the graph, placing kept spans by their calls.

    placed maps a preorder call index to the kept span recorded there and
    its function key. choices supplies fork decisions; when it runs dry the
    walk either follows a recorded script exactly (replay mode raises) or
    surfaces the open fork to the caller (search mode). A recorded script
    may hold edits, (parent, index) and (parent, index, function): every
    call gets a frame, which applies the edits at the head of the script
    that name it while it has listed index calls, before each call of a
    block, before each fork and at its end. run() keeps one generator frame
    per open invocation on an explicit stack and stops as soon as any frame
    surfaces an open fork. `nodes` lists the calls in preorder.
    """

    def __init__(self, graph, placed, choices, strict, trace_id):
        from spanscope.errors import ReconstructionError

        self.error = ReconstructionError
        self.graph = graph
        self.placed = placed
        self.trace_id = trace_id
        self.nodes = []
        self.choices = deque(choices)
        self.strict = strict  # True: exhausted choices at a fork is an error
        self.pending_fork = None  # (options,) when a fork had no scripted choice
        self.taken = []
        self.budget = ORACLE_WALK_BUDGET

    def _node(self, fn_key, block):
        i = len(self.nodes)
        span = None
        if i in self.placed:
            span, key = self.placed[i]
            if key != fn_key:
                raise self.error(
                    f"trace {self.trace_id!r}: kept span {span.span_id!r} of {key!r} is "
                    f"recorded at call {i}, a call of {fn_key!r}")
        node = _Node(fn_key, block, span)
        self.nodes.append(node)
        return node

    def _choose(self, succs):
        if self.choices:
            choice = self.choices.popleft()
            if choice not in succs:
                raise self.error(f"recorded branch {choice!r} is not a successor here")
            self.taken.append(choice)
            return choice
        if self.strict:
            raise self.error("ran out of recorded branch choices")
        self.pending_fork = tuple(sorted(succs))
        return None

    def _edits(self, me, holder, before_call):
        """Applies the script's edits of call me here: yields each inserted
        call as run() takes it, and returns True when a skip drops the
        block's next call (only before_call)."""
        choices = self.choices
        while choices and type(choices[0]) is tuple and choices[0][:2] == (me, len(self.nodes)):
            if len(choices[0]) == 2:
                if before_call:
                    choices.popleft()
                return before_call
            callee = choices.popleft()[2]
            child = self._node(callee, None)
            holder.children.append(child)
            yield callee, child, len(self.nodes) - 1
        return False

    def _walk_into(self, fn_key, holder, me):
        if not self.graph.has_body(fn_key):
            yield from self._edits(me, holder, False)
            return
        sub = self.graph.subgraph(fn_key)
        node = sub.entry
        while node != sub.exit:
            self.budget -= 1
            if self.budget < 0:
                raise self.error("walk step budget exceeded")
            succs = sub.succ.get(node, ())
            if not succs:
                raise self.error(f"{fn_key}: dead end at {node!r}")
            if len(succs) == 1:
                node = succs[0]
            else:
                yield from self._edits(me, holder, False)
                node = self._choose(succs)
                if node is None:
                    return  # surface the open fork
            if node == sub.exit:
                break
            for callee in sub.emissions.get(node, ()):
                if (yield from self._edits(me, holder, True)):
                    continue
                child = self._node(callee, node)
                holder.children.append(child)
                yield callee, child, len(self.nodes) - 1
        yield from self._edits(me, holder, False)

    def run(self, entry_key):
        """The walked tree, or None when the walk stopped at an open fork."""
        root = self._node(entry_key, None)
        stack = [self._walk_into(entry_key, root, 0)]
        while stack:
            call = next(stack[-1], None)
            if self.pending_fork is not None:
                return None
            if call is None:
                stack.pop()
            else:
                stack.append(self._walk_into(*call))
        return root


def _derive_replay(graph, entry_key, forks, placed, trace_id):
    from spanscope.errors import ReconstructionError

    walker = _Walker(graph, placed, forks, strict=True, trace_id=trace_id)
    walker.run(entry_key)
    if walker.choices:
        head = walker.choices[0]
        if type(head) is str:
            raise ReconstructionError(f"trace {trace_id!r}: unused branch records remain")
        # a call without a body walked nothing unless an edit gave it calls
        nodes, parent = walker.nodes, head[0]
        walked = parent < len(nodes) and (graph.has_body(nodes[parent].fn)
                                          or bool(nodes[parent].children))
        raise ReconstructionError(
            f"trace {trace_id!r}: recorded edit {list(head)} " +
            ("is left unused" if walked else f"names call {parent}, which the walk never enters"))
    return walker.nodes


def _derive_search(graph, entry_key, placed, last, trace_id):
    """Enumerate fork choices until two structurally distinct solutions
    appear; a solution has a call at every recorded index up to last."""
    from spanscope.errors import ReconstructionError

    solutions = {}
    stack = [()]
    explored = 0
    while stack:
        prefix = stack.pop()
        explored += 1
        if explored > ORACLE_SEARCH_BUDGET:
            raise ReconstructionError("path search budget exceeded")
        walker = _Walker(graph, placed, prefix, strict=False, trace_id=trace_id)
        try:
            root = walker.run(entry_key)
        except ReconstructionError:
            continue
        if root is None:
            for option in sorted(walker.pending_fork, reverse=True):
                stack.append(tuple(walker.taken) + (option,))
            continue
        if len(walker.nodes) <= last:
            continue  # a recorded call is past the path: inconsistent branch
        key = _canonical(root)
        if key not in solutions:
            solutions[key] = (tuple(walker.taken), walker.nodes)
            if len(solutions) == 2:
                break
    if not solutions:
        raise ReconstructionError(f"trace {trace_id!r}: kept spans are inconsistent with the graph")
    if len(solutions) > 1:
        (c1, _), (c2, _) = solutions.values()
        tags = []
        for a, b in zip(c1, c2):
            if a != b:
                tags = [a, b]
                break
        if not tags:
            tags = [c1[len(c2):][:1] or c1[-1:], c2[len(c1):][:1] or c2[-1:]]
            tags = [t[0] for t in tags if t]
        raise OracleAmbiguousPathError(trace_id, tags)
    (_, nodes), = solutions.values()
    return nodes


def _measure(root, stats: dict) -> None:
    """Store anchor bounds and natural width on every node, children first."""
    keys = stats.get("keys", {})
    order = [root]
    for node in order:  # breadth-first, so every child follows its parent
        order.extend(node.children)
    for node in reversed(order):
        span = node.span
        lo = hi = None
        if span is not None:
            lo, hi = span.start_time, span.end_time
        for o in node.orphans:
            lo = o.start_time if lo is None else min(lo, o.start_time)
            hi = o.end_time if hi is None else max(hi, o.end_time)
        kids_width = 0
        for c in node.children:
            if c.alo is not None:
                lo = c.alo if lo is None else min(lo, c.alo)
                hi = c.ahi if hi is None else max(hi, c.ahi)
            kids_width += c.width
        node.alo, node.ahi = lo, hi
        if span is not None:
            node.width = span.duration
            continue
        entry = keys.get(node.fn)
        if entry is None or entry.get("count", 0) == 0:
            base = 0
            node.source = SOURCE_ZERO
            node.std = None
        else:
            base = max(0, int(round(entry["mean"])))
            node.source = SOURCE_HISTORICAL
            node.std = round(float(entry["std"]), 3)
        width = base + kids_width
        if lo is not None:
            width = max(width, hi - lo)
        node.width = width


def _oracle_place(root, lo: int, hi: int) -> None:
    """Assign [lo, hi) to the root and an interval to every node below it."""
    root.lo, root.hi = lo, hi
    stack = [root]
    while stack:
        node = stack.pop()
        kids = node.children
        if not kids:
            continue
        lo, hi = node.lo, node.hi
        # limits[i]: start of the first anchored sibling after kids[i], else hi
        limits = [hi] * len(kids)
        nxt = hi
        for idx in range(len(kids) - 1, 0, -1):
            if kids[idx].alo is not None:
                nxt = kids[idx].alo
            limits[idx - 1] = nxt
        cursor = lo
        for child, limit in zip(kids, limits):
            if child.span is not None:
                clo, chi = child.span.start_time, child.span.end_time
            elif child.alo is not None:
                clo = child.alo
                chi = max(child.ahi, min(clo + child.width, hi) if hi > clo else child.ahi)
            else:
                clo = cursor
                chi = clo + min(child.width, max(0, limit - cursor))
            child.lo, child.hi = clo, chi
            cursor = max(cursor, chi)
        stack.extend(kids)


# a rebuilt trace as oracle_reconstruct gives it: its id and its
# ReconstructedSpans, which a ReconstructedTrace's `spans` must equal
OracleRebuilt = namedtuple("OracleRebuilt", "trace_id spans")


def oracle_reconstruct(decision, kept_spans, graph, stats: dict, mapping, search=False,
                       recursive=False):
    """reconstruct() on a node tree, from the walker above.

    The tree is laid out by _measure and a separate placing pass, or with
    recursive=True by oracle_layout; then a preorder emit writes the spans
    and the unmapped kept spans are attached. search=True finds the path by
    search instead of replaying the decision's forks.
    """
    import dataclasses

    import spanscope.reconstruct as recon
    from spanscope.cscfg import parse_function_key
    from spanscope.errors import ReconstructionError, UnknownEntryError
    from spanscope.mapping import Unmapped
    from spanscope.model import Span

    trace_id = decision.trace_id
    if not kept_spans:
        raise ReconstructionError("no kept spans to reconstruct from")
    if decision.entry is None:
        raise UnknownEntryError(f"decision for {trace_id!r} carries no entry function")
    if not graph.knows(decision.entry):
        raise UnknownEntryError(f"entry function {decision.entry!r} absent from graph")
    if len(decision.at) != len(decision.kept):
        raise ReconstructionError(f"trace {trace_id!r}: {len(decision.at)} recorded calls "
                                  f"for {len(decision.kept)} kept spans")
    call_of = dict(zip(decision.kept, decision.at))
    placed, orphans = {}, []
    for span in kept_spans:
        if span.span_id not in call_of:
            raise ReconstructionError(
                f"trace {trace_id!r}: kept span {span.span_id!r} is not in the decision")
        i = call_of[span.span_id]
        r = mapping.resolve(span)
        if isinstance(r, Unmapped):
            orphans.append((span, i))
        elif i in placed:
            raise ReconstructionError(
                f"trace {trace_id!r}: kept spans {placed[i][0].span_id!r} and "
                f"{span.span_id!r} are recorded at one call {i}")
        else:
            placed[i] = (span, r.key)
    if search:
        nodes = _derive_search(graph, decision.entry, placed, max(decision.at), trace_id)
    else:
        nodes = _derive_replay(graph, decision.entry, list(decision.forks), placed, trace_id)
    if any(not 0 <= i < len(nodes) for i in decision.at):
        raise ReconstructionError(f"trace {trace_id!r}: a kept span is recorded at a call "
                                  f"outside the {len(nodes)} calls of the recorded path")
    for orphan, i in orphans:
        nodes[i].orphans.append(orphan)
    root = nodes[0]
    if recursive:
        oracle_layout(root, stats)
    else:
        _measure(root, stats)
        if root.span is not None:
            lo, hi = root.span.start_time, root.span.end_time
        else:
            lo = root.alo if root.alo is not None else 0
            hi = lo + root.width
        _oracle_place(root, lo, hi)

    rspans = []
    node_ids = {}
    stack = [(root, None)]
    while stack:
        node, parent_id = stack.pop()
        if node.span is not None:
            span = node.span
            if span.parent_id != parent_id:
                span = dataclasses.replace(span, parent_id=parent_id)
            rspans.append(recon.ReconstructedSpan(span, recon.ORIGIN_SAMPLED, node.fn))
            sid = span.span_id
        else:
            ref = parse_function_key(node.fn)
            sid = f"{trace_id}:inf:{len(rspans)}"
            span = Span(
                span_id=sid,
                trace_id=trace_id,
                parent_id=parent_id,
                operation=ref.operation,
                service=ref.service,
                start_time=node.lo,
                duration=node.hi - node.lo,
                attributes={},
            )
            rspans.append(recon.ReconstructedSpan(span, recon.ORIGIN_INFERRED, node.fn,
                                                  node.source, node.std))
        node_ids[id(node)] = sid
        stack.extend((c, sid) for c in reversed(node.children))

    # each orphan under its kept parent, else under the call it is recorded at
    kept_ids = {s.span_id for s in kept_spans}
    for orphan, i in orphans:
        parent = orphan.parent_id if orphan.parent_id in kept_ids else node_ids[id(nodes[i])]
        span = orphan if orphan.parent_id == parent else \
            dataclasses.replace(orphan, parent_id=parent)
        rspans.append(recon.ReconstructedSpan(span, recon.ORIGIN_SAMPLED, None))

    return OracleRebuilt(trace_id, tuple(rspans))


def oracle_serialize(rebuilt) -> str:
    """One rebuilt trace, or an OracleRebuilt, as a JSON line, keys sorted
    by the encoder."""
    import json

    records = []
    for r in rebuilt.spans:
        d = r.span.to_dict()
        d["origin"] = r.origin
        if r.origin == "inferred":
            d["duration_source"] = r.duration_source
            d["uncertainty_std"] = r.uncertainty_std
        records.append(d)
    return json.dumps({"trace_id": rebuilt.trace_id, "spans": records},
                      sort_keys=True, separators=(",", ":"))


# -- the reference aligner -----------------------------------------------------
#
# align, its per-invocation generator and the forward-enumerating solver as
# they stood before paths were composed from subtree fragments: one generator
# frame per mapped span, and a solver that lists every reachable state and
# edge before a reverse Dijkstra. Every flow move the solver takes is kept on
# the step it follows. Forks are not recorded here: reference_step_forks finds
# them by rescanning those moves against the graph's out-degrees, and
# partition and the decision's fork record are checked against that rescan.
# Edits are numbered here from the steps alone: each step knows the slot of
# the span whose invocation made it, and the mapped spans are counted as
# their steps come.


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


def _build_symbols(trace, spans, resolutions) -> list:
    """Symbols of one invocation; an unmapped span is followed by its subtree's."""
    from spanscope.mapping import Unmapped

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


def reference_solve(graph, fn_key: str, sym_fn: tuple):
    """Optimal action sequence for one invocation.

    sym_fn holds the callee key of each symbol, None for an inserted unmapped
    span. Returns (cost, insertions, actions) with actions a tuple of tuples,
    or None when no path exists. Every flow move appears, as ("move", node,
    target). Cost tuples order by total cost then insertion count; the greedy
    replay over goal distances applies the fixed action preference, so the
    result is deterministic.
    """
    from spanscope.align import PROHIBITIVE_COST

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

    order = {"match": 0, "skip": 1, "ins": 2}
    total = dist[start]
    acts = []
    state = start
    while state != goal:
        best = None
        here = dist[state]
        for name, nxt, cost in sorted(
            actions(state), key=lambda a: (order.get(a[0].split(">")[0], 3), a[0])
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
        elif name == "skip":
            acts.append(("skip", node, sub.emissions[node][k]))
        elif name == "ins":
            acts.append(("ins", i))
        else:
            acts.append(("move", node, name.split(">", 1)[1]))
        state = nxt
    return total[0], total[1], tuple(acts)


def _reference_solve_cached(graph, fn_key: str, sym_fn: tuple, cache):
    if cache is None:
        return reference_solve(graph, fn_key, sym_fn)
    key = (fn_key, sym_fn)
    solved = cache.lookup_solve(key)
    if solved is None:
        solved = reference_solve(graph, fn_key, sym_fn)
        # no path is not stored: the trace fails, and None already means a miss
        if solved is not None:
            cache.store_solve(key, solved)
    return solved


# step kinds of the reference aligner; the package's paths hold no steps
KIND_ENTER = "enter"
KIND_MATCH = "match"
KIND_INSERT = "insert"
KIND_SKIP = "skip"

# one step of reference_align: its kind, block, callee and slot, then the
# (function, source, target) flow moves taken after it, and the slot of the
# span whose invocation made it (None for the entry)
ReferenceStep = namedtuple("ReferenceStep", "kind block_id callee slot moves owner",
                           defaults=((), None))
# a reference_align result: its ReferenceSteps, cost, insertions and forks,
# edits included
ReferencePath = namedtuple("ReferencePath", "steps cost insertions forks")


def reference_step_forks(graph, step) -> tuple:
    """Targets of the moves after a step that leave a node with more than
    one successor, in order."""
    return tuple(dst for fn, src, dst in step.moves if len(graph.successors(fn, src)) > 1)


def _reference_emit_invocation(graph, trace, fn_key, owner, children, resolutions, slot,
                               steps, cache):
    """Realize the alignment of the invocation of slot owner into `steps`.

    A generator: yields (callee key, slot, child spans) for each nested
    invocation, which the caller emits completely before resuming this one,
    and returns this invocation's own (cost, insertions).
    """
    from spanscope.errors import NoPathError

    syms = _build_symbols(trace, children, resolutions)

    def emit_insert(sym):
        steps.append(ReferenceStep(KIND_INSERT, None, None, slot[sym.span.span_id],
                                   owner=owner))

    if not graph.has_body(fn_key):
        for sym in syms:
            emit_insert(sym)
            if isinstance(sym, _SymCall):
                yield sym.ref.key, slot[sym.span.span_id], sym.children
        return len(syms), len(syms)

    sym_fn = tuple(s.ref.key if isinstance(s, _SymCall) else None for s in syms)
    solved = _reference_solve_cached(graph, fn_key, sym_fn, cache)
    if solved is None:
        raise NoPathError(children[0].span_id if children else fn_key,
                          f"no path through function {fn_key!r}")
    cost, ins, acts = solved
    for act in acts:
        if act[0] == "match":
            _, node, callee, idx = act
            sym = syms[idx]
            steps.append(ReferenceStep(KIND_MATCH, node, callee, slot[sym.span.span_id],
                                       owner=owner))
            yield sym.ref.key, slot[sym.span.span_id], sym.children
        elif act[0] == "skip":
            _, node, callee = act
            steps.append(ReferenceStep(KIND_SKIP, node, callee, None, owner=owner))
        elif act[0] == "ins":
            sym = syms[act[1]]
            emit_insert(sym)
            if isinstance(sym, _SymCall):
                yield sym.ref.key, slot[sym.span.span_id], sym.children
        else:
            _, src, dst = act
            steps[-1] = steps[-1]._replace(moves=steps[-1].moves + ((fn_key, src, dst),))
    return cost, ins


def reference_align(graph, trace, mapping, cache=None, resolutions=None):
    """Minimum-cost alignment of a trace onto the graph.

    Raises NoPathError when the root span does not resolve to a function the
    graph knows, and ValueError when given a cache with a graph that is not
    frozen. Every slot of the trace's preorder lies on exactly one step. The
    result is a ReferencePath of ReferenceSteps, whose forks are
    reference_step_forks of every step with each step's edit before them;
    oracle_partition cuts it into sets.
    `cache` is a PathCache of its own: this aligner reads and writes only its
    whole-trace and solve maps.
    """
    from spanscope.align import trace_signature
    from spanscope.cscfg import entry_node
    from spanscope.errors import NoPathError
    from spanscope.mapping import Unmapped

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
    steps = [ReferenceStep(KIND_ENTER, entry_node(r.key), r.key, slot[root.span_id])]
    # one frame per open invocation; a nested one runs to its end before its
    # caller resumes, so steps land in the order a recursive walk gives
    cost = ins = 0
    stack = [_reference_emit_invocation(graph, trace, r.key, slot[root.span_id],
                                        trace.child_spans(root.span_id), resolutions, slot,
                                        steps, cache)]
    while stack:
        try:
            fn_key, owner, children = next(stack[-1])
        except StopIteration as done:
            stack.pop()
            cost += done.value[0]
            ins += done.value[1]
        else:
            stack.append(_reference_emit_invocation(graph, trace, fn_key, owner, children,
                                                    resolutions, slot, steps, cache))

    linked = sorted(s.slot for s in steps if s.slot is not None)
    if linked != list(range(len(trace))):
        raise RuntimeError(f"alignment lost spans of trace {trace.trace_id!r}")

    # each step's edit, then the forks after it; a mapped span's call is its
    # place among the mapped steps
    forks = []
    calls = {}
    for step in steps:
        if step.kind == KIND_SKIP:
            forks.append((calls[step.owner], len(calls)))
        elif step.slot is not None:
            res = resolutions[trace.preorder[step.slot].span_id]
            if not isinstance(res, Unmapped):
                if step.kind == KIND_INSERT:
                    forks.append((calls[step.owner], len(calls), res.key))
                calls[step.slot] = len(calls)
        forks += reference_step_forks(graph, step)
    path = ReferencePath(tuple(steps), cost, ins, tuple(forks))
    if cache is not None:
        cache.store(sig, path)
    return path


def oracle_partition(path, graph, trace) -> list:
    """Cut a reference path after every step whose moves the rescan finds a
    fork in; the new set's tag is the first fork's target."""
    from spanscope.errors import PartitionMismatchError
    from spanscope.partition import TRUNK_TAG, DominantSpanSet

    order = trace.preorder
    sets: list = []
    spans: list = []
    tag = TRUNK_TAG

    def close() -> None:
        nonlocal spans
        if spans:
            sets.append(DominantSpanSet(
                dss_id=f"{trace.trace_id}:d{len(sets)}",
                spans=tuple(spans),
                branch_tag=tag,
            ))
        spans = []

    for step in path.steps:
        if step.slot is not None:
            spans.append(order[step.slot].span_id)
        forks = reference_step_forks(graph, step)
        if forks:
            close()
            tag = forks[0]
    close()

    covered = [s for d in sets for s in d.spans]
    if len(covered) != len(trace) or set(covered) != set(trace.span_ids()):
        raise PartitionMismatchError(f"partition does not cover trace {trace.trace_id!r}")
    return sets
