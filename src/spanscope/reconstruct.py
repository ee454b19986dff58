"""Rebuilds a full trace skeleton from sampled spans plus the graph.

The execution path is re-derived and every call the path implies becomes a
span: kept spans appear verbatim, the rest are inferred with durations filled
from historical statistics (mean exclusive duration per function; the
standard deviation rides along as an uncertainty annotation, the fill itself
is deterministic). Inferred intervals are packed left to right inside their
parent, bending around the real timestamps of sampled spans.

Decisions produced by the sampler carry the entry function and the ordered
fork choices of the original path, so replay is exact. Decisions without
fork records fall back to a search over paths consistent with the kept
spans' functions; if more than one structurally distinct path fits, the
reconstruction refuses with AmbiguousPathError and reports the candidate
branches. Keeping one span per dominant span set does not witness every
branch (a span after a join falls into the branch's set), so the search can
be ambiguous for sampler decisions stripped of their fork records.

Unmapped kept spans have no place on the graph; they re-attach under their
original parent when it was kept, else under the tightest containing sampled
span, else under the root.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .cscfg import Cscfg, parse_function_key
from .errors import (
    AmbiguousPathError,
    ReconstructionError,
    UnknownEntryError,
)
from .mapping import SpanFunctionMap, Unmapped
from .model import Span, Trace
from .sampler import SamplingDecision

ORIGIN_SAMPLED = "sampled"
ORIGIN_INFERRED = "inferred"
SOURCE_HISTORICAL = "historical-mean"
SOURCE_ZERO = "zero-fallback"

_SEARCH_BUDGET = 8000  # fork-choice prefixes one search may try
# flow moves one walk may take: about two per function body, so a chain of
# depth 10,000 fits with room, and a function that calls itself forever fails
_WALK_BUDGET = 50_000

# encodes what the fragment writer leaves to it: bools, non-finite floats,
# subclasses of str and int, and non-empty attribute maps
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _json(value) -> str:
    """One value as _ENCODER writes it. Exact str, int and finite float and
    None are written directly, by the functions the encoder itself uses."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return _ENCODER.encode(value)


class ReconstructedSpan(NamedTuple):
    span: Span
    origin: str  # sampled | inferred
    function: str | None  # function key; None for unmapped sampled spans
    duration_source: str | None = None
    uncertainty_std: float | None = None


@dataclass(frozen=True)
class ReconstructedTrace:
    trace_id: str
    spans: tuple[ReconstructedSpan, ...]  # preorder

    def inferred(self) -> list[ReconstructedSpan]:
        return [r for r in self.spans if r.origin == ORIGIN_INFERRED]

    def serialize(self) -> str:
        """One JSON line: each span's record plus its origin, with keys and
        attributes in sorted order, as a sort_keys encoder with compact
        separators writes it. Each record is one f-string over its values'
        JSON; the trace's own id is quoted once."""
        trace_id = self.trace_id
        own_id = _json(trace_id)
        q, j = _quote, _json
        records = []
        for span, origin, _fn, source, std in self.spans:
            if origin == ORIGIN_INFERRED:
                source = f'"duration_source":{j(source)},'
                std = f',"uncertainty_std":{j(std)}'
            else:
                source = std = ""
            attrs = span.attributes
            attrs = _ENCODER.encode(dict(sorted(attrs.items()))) if attrs else "{}"
            tid = span.trace_id
            tid = own_id if tid is trace_id or tid == trace_id and type(tid) is str else j(tid)
            # the exact types every span carries are tested inline, which
            # saves a call per value; _json writes anything else
            sid, parent, op, svc = span.span_id, span.parent_id, span.operation, span.service
            start, dur = span.start_time, span.duration
            records.append(
                f'{{"attributes":{attrs},"duration":{dur if type(dur) is int else j(dur)},'
                f'{source}"operation":{q(op) if type(op) is str else j(op)},'
                f'"origin":{j(origin)},'
                f'"parent_id":{q(parent) if type(parent) is str else j(parent)},'
                f'"service":{q(svc) if type(svc) is str else j(svc)},'
                f'"span_id":{q(sid) if type(sid) is str else j(sid)},'
                f'"start_time":{start if type(start) is int else j(start)},"trace_id":{tid}{std}}}')
        return f'{{"spans":[{",".join(records)}],"trace_id":{own_id}}}'


class _Node:
    __slots__ = ("fn", "block", "span", "children", "lo", "hi", "alo", "ahi",
                 "width", "source", "std")

    def __init__(self, fn: str, block: str | None, span: Span | None):
        self.fn = fn
        self.block = block
        self.span = span
        self.children: list[_Node] = []
        self.lo = 0
        self.hi = 0
        self.alo: int | None = None  # earliest sampled start in the subtree
        self.ahi: int | None = None  # latest sampled end in the subtree
        self.width = 0  # natural width, set by _measure
        self.source: str | None = None
        self.std: float | None = None


def _canonical(root: _Node) -> tuple:
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
    """Replays one path through the graph, consuming kept spans greedily.

    choices supplies fork decisions; when it runs dry the walk either follows
    a recorded script exactly (replay mode raises) or surfaces the open fork
    to the caller (search mode). run() keeps one frame per open invocation on
    an explicit stack: each frame is a generator that walks its function's
    blocks and yields every call it makes, and the callee's frame runs to its
    end before the caller resumes. The walk stops as soon as any frame
    surfaces an open fork.
    """

    def __init__(self, graph: Cscfg, kept_seq: list[tuple[Span, str]], choices, strict: bool):
        self.graph = graph
        self.kept = deque(kept_seq)
        self.choices = deque(choices)
        self.strict = strict  # True: exhausted choices at a fork is an error
        self.pending_fork = None  # (options,) when a fork had no scripted choice
        self.taken: list[str] = []
        self.budget = _WALK_BUDGET

    def _tick(self):
        self.budget -= 1
        if self.budget < 0:
            raise ReconstructionError("walk step budget exceeded")

    def _choose(self, succs: tuple[str, ...], exit_id: str) -> str | None:
        if self.choices:
            choice = self.choices.popleft()
            if choice not in succs:
                raise ReconstructionError(
                    f"recorded branch {choice!r} is not a successor here"
                )
            self.taken.append(choice)
            return choice
        if self.strict:
            # a trailing fork after the last witnessed span: the only
            # consistent continuation produced no spans, so head for the exit
            if exit_id in succs and not self.kept:
                self.taken.append(exit_id)
                return exit_id
            raise ReconstructionError("ran out of recorded branch choices")
        self.pending_fork = tuple(sorted(succs))
        return None

    def _consume_patched(self, holder: _Node, node: str, patched):
        """Yields a call for each kept span that a dynamic edge of node explains."""
        kept = self.kept
        while kept and kept[0][1] in patched:
            span, fn = kept.popleft()
            child = _Node(fn, node, span)
            holder.children.append(child)
            yield fn, child

    def _walk_into(self, fn_key: str, holder: _Node):
        """Yields (callee, child node) for each call; returns early at an open fork."""
        if not self.graph.has_body(fn_key):
            return
        sub = self.graph.subgraph(fn_key)
        node = sub.entry
        while node != sub.exit:
            self._tick()
            succs = sub.succ.get(node, ())
            if not succs:
                raise ReconstructionError(f"{fn_key}: dead end at {node!r}")
            if len(succs) == 1:
                node = succs[0]
            else:
                node = self._choose(succs, sub.exit)
                if node is None:
                    return  # surface the open fork
            if node == sub.exit:
                break
            patched = sub.patched.get(node)
            if patched:
                yield from self._consume_patched(holder, node, patched)
            for callee in sub.emissions.get(node, ()):
                span = None
                if self.kept and self.kept[0][1] == callee:
                    span = self.kept.popleft()[0]
                child = _Node(callee, node, span)
                holder.children.append(child)
                yield callee, child
                if patched:
                    yield from self._consume_patched(holder, node, patched)

    def run(self, entry_key: str) -> _Node | None:
        """The walked tree, or None when the walk stopped at an open fork."""
        root_span = None
        if self.kept and self.kept[0][1] == entry_key and self.kept[0][0].parent_id is None:
            root_span = self.kept.popleft()[0]
        root = _Node(entry_key, None, root_span)
        stack = [self._walk_into(entry_key, root)]
        while stack:
            call = next(stack[-1], None)
            if self.pending_fork is not None:
                return None
            if call is None:
                stack.pop()
            else:
                stack.append(self._walk_into(*call))
        return root


def _derive_replay(graph, entry_key, forks, kept_seq, trace_id) -> _Node:
    walker = _Walker(graph, kept_seq, forks, strict=True)
    root = walker.run(entry_key)
    if root is None:  # pragma: no cover - strict walker never surfaces forks
        raise ReconstructionError("replay stalled at a fork")
    if walker.choices:
        raise ReconstructionError(f"trace {trace_id!r}: unused branch records remain")
    if walker.kept:
        missing = [s.span_id for s, _ in walker.kept]
        raise ReconstructionError(
            f"trace {trace_id!r}: kept spans not explained by the recorded path: {missing}"
        )
    return root


def _derive_search(graph, entry_key, kept_seq, trace_id) -> _Node:
    """Enumerate fork choices until two structurally distinct solutions appear."""
    solutions: dict = {}
    stack: list[tuple[str, ...]] = [()]
    explored = 0
    while stack:
        prefix = stack.pop()
        explored += 1
        if explored > _SEARCH_BUDGET:
            raise ReconstructionError("path search budget exceeded")
        walker = _Walker(graph, list(kept_seq), prefix, strict=False)
        try:
            root = walker.run(entry_key)
        except ReconstructionError:
            continue
        if root is None:
            for option in sorted(walker.pending_fork, reverse=True):
                stack.append(tuple(walker.taken) + (option,))
            continue
        if walker.kept:
            continue  # not all kept spans explained: inconsistent branch
        key = _canonical(root)
        if key not in solutions:
            solutions[key] = (tuple(walker.taken), root)
            if len(solutions) == 2:
                break
    if not solutions:
        raise ReconstructionError(
            f"trace {trace_id!r}: kept spans are inconsistent with the graph"
        )
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
        raise AmbiguousPathError(trace_id, tags)
    (_, root), = solutions.values()
    return root


def _measure(root: _Node, stats: dict) -> None:
    """Store anchor bounds and natural width on every node, children first.

    Each node is visited once and reads only its own span or statistics and
    what its children already store. An inferred node's width is its
    historical mean (source and std are set here) plus its children's
    widths, stretched to cover its sampled descendants.
    """
    keys = stats.get("keys", {})
    order = [root]
    for node in order:  # breadth-first, so every child follows its parent
        order.extend(node.children)
    for node in reversed(order):
        span = node.span
        lo = hi = None
        if span is not None:
            lo, hi = span.start_time, span.end_time
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


def _attach_orphans(orphans: list[Span], kept_spans: list[Span],
                    rspans: list[ReconstructedSpan], sampled: list[Span]) -> None:
    """Append each unmapped kept span under its kept parent, else under the
    shortest sampled span that contains it, else under the root."""
    root_id = rspans[0].span.span_id
    sampled.sort(key=lambda s: (s.duration, s.span_id))
    # orphans are kept spans, so this set holds the ids appended below too
    known_ids = {s.span_id for s in kept_spans} | {r.span.span_id for r in rspans}
    for orphan in orphans:
        if orphan.parent_id in known_ids:
            parent = orphan.parent_id
        else:
            parent = None
            for cand in sampled:
                if cand.span_id != orphan.span_id and \
                        cand.start_time <= orphan.start_time and orphan.end_time <= cand.end_time:
                    parent = cand.span_id
                    break
            if parent is None:
                parent = root_id
        span = orphan if orphan.parent_id == parent else orphan.with_parent(parent)
        rspans.append(ReconstructedSpan(span, ORIGIN_SAMPLED, None))


def reconstruct(decision: SamplingDecision, kept_spans: list[Span], graph: Cscfg,
                stats: dict, mapping: SpanFunctionMap) -> ReconstructedTrace:
    """Rebuild the full trace implied by a decision.

    stats is a statistics snapshot as produced by ScoreBook.snapshot(). Kept
    spans appear with id, timing and attributes untouched; their parent link
    is rewired when the original parent was not kept.
    """
    if not kept_spans:
        raise ReconstructionError("no kept spans to reconstruct from")
    if decision.entry is None:
        raise UnknownEntryError(f"decision for {decision.trace_id!r} carries no entry function")
    if not graph.knows(decision.entry):
        raise UnknownEntryError(f"entry function {decision.entry!r} absent from graph")

    ordered = sorted(kept_spans, key=lambda s: (s.start_time, s.span_id))
    kept_seq: list[tuple[Span, str]] = []
    orphans: list[Span] = []
    for span in ordered:
        r = mapping.resolve(span)
        if isinstance(r, Unmapped):
            orphans.append(span)
        else:
            kept_seq.append((span, r.key))

    if decision.forks is not None:
        root = _derive_replay(graph, decision.entry, list(decision.forks),
                              kept_seq, decision.trace_id)
    else:
        root = _derive_search(graph, decision.entry, kept_seq, decision.trace_id)

    _measure(root, stats)
    # root interval: verbatim when sampled, otherwise anchored left on the
    # earliest sampled evidence (orphans included so they stay containable)
    if root.span is not None:
        root.lo, root.hi = root.span.start_time, root.span.end_time
    else:
        alo = root.alo
        for o in orphans:
            alo = o.start_time if alo is None else min(alo, o.start_time)
        root.lo = alo if alo is not None else 0
        root.hi = root.lo + root.width
        for o in orphans:
            root.hi = max(root.hi, o.end_time)

    # one preorder pass: emit each node (an inferred span's id carries its
    # preorder index), then place its children inside its interval before
    # pushing them. Sampled spans keep their times; inferred ones are packed
    # left to right, bending around the anchors of later siblings.
    trace_id = decision.trace_id
    functions = graph.functions
    rspans: list[ReconstructedSpan] = []
    sampled: list[Span] = []
    stack: list[tuple[_Node, str | None]] = [(root, None)]
    while stack:
        node, parent_id = stack.pop()
        span = node.span
        if span is not None:
            if span.parent_id != parent_id:
                span = span.with_parent(parent_id)
            rspans.append(ReconstructedSpan(span, ORIGIN_SAMPLED, node.fn))
            sampled.append(span)
            sid = span.span_id
        else:
            fn = node.fn
            # the graph holds a FunctionRef for every function but external ones
            ref = functions.get(fn) or parse_function_key(fn)
            sid = f"{trace_id}:inf:{len(rspans)}"
            rspans.append(ReconstructedSpan(
                Span(sid, trace_id, parent_id, ref.operation, ref.service,
                     node.lo, node.hi - node.lo, {}),
                ORIGIN_INFERRED, fn, node.source, node.std))
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
        stack.extend((c, sid) for c in reversed(kids))

    if orphans:
        _attach_orphans(orphans, kept_spans, rspans, sampled)
    return ReconstructedTrace(decision.trace_id, tuple(rspans))


@dataclass(frozen=True)
class FidelityReport:
    """How one rebuilt trace compares with its original.

    structure_exact: the two function trees are equal. duration_error: the
    mean relative duration error over the inferred spans matched by position.
    inferred_count: the inferred spans of the rebuilt trace.
    """

    structure_exact: bool
    duration_error: float
    inferred_count: int


def _label_tree(spans, labels, items):
    """(label, item, kids) tree over spans given root first, in one pass.

    labels[i] is the function key of spans[i], None when unmapped; items[i]
    is what the node carries. Unmapped spans are transparent: the nodes below
    them join their nearest labelled ancestor's kids, in the order given.
    Every span must follow its parent, except an unlabelled span with no
    labelled descendant (a rebuilt orphan), which adds no node anyway.
    """
    root = (labels[0], items[0], [])
    node_of = {spans[0].span_id: root}
    for span, label, item in zip(spans[1:], labels[1:], items[1:]):
        parent = node_of.get(span.parent_id)
        if label is None:
            node_of[span.span_id] = parent
        else:
            node = (label, item, [])
            parent[2].append(node)
            node_of[span.span_id] = node
    return root


def structural_fidelity(original: Trace, rebuilt: ReconstructedTrace,
                        mapping: SpanFunctionMap) -> FidelityReport:
    """Compare the function trees of an original trace and its reconstruction.

    Unmapped spans have no function and are transparent on both sides: their
    children are promoted, so structure compares what the graph can explain.
    The trees are walked in step from the roots; a pair whose labels differ
    is not descended into.
    """
    if original.trace_id != rebuilt.trace_id:
        raise ValueError("trace ids differ")
    rspans = [r.span for r in rebuilt.spans]
    if not rspans or [s for s in rspans if s.parent_id is None] != rspans[:1]:
        raise ReconstructionError("rebuilt trace must have exactly one root")

    resolved = [mapping.resolve(s) for s in original.preorder]
    olabels = [None if isinstance(r, Unmapped) else r.key for r in resolved]
    otree = _label_tree(original.preorder, olabels, original.preorder)
    rtree = _label_tree(rspans, [r.function for r in rebuilt.spans], rebuilt.spans)

    inferred_pairs: list[tuple[Span, ReconstructedSpan]] = []
    exact = True
    # children pushed in reverse, so pairs are visited (and inferred_pairs
    # filled, which orders the float sum below) in preorder
    stack = [(otree, rtree)]
    while stack:
        (olabel, ospan, okids), (rlabel, rspan, rkids) = stack.pop()
        if olabel != rlabel:
            exact = False
            continue
        if rspan.origin == ORIGIN_INFERRED:
            inferred_pairs.append((ospan, rspan))
        if len(okids) != len(rkids):
            exact = False
        stack.extend(reversed(list(zip(okids, rkids))))

    errors = [
        abs(ospan.duration - rspan.span.duration) / ospan.duration
        for ospan, rspan in inferred_pairs
        if ospan.duration > 0
    ]
    mean_err = sum(errors) / len(errors) if errors else 0.0
    if math.isnan(mean_err):  # pragma: no cover
        mean_err = 0.0

    return FidelityReport(
        structure_exact=exact,
        duration_error=mean_err,
        inferred_count=len(rebuilt.inferred()),
    )
