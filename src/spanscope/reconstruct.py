"""Rebuilds a full trace skeleton from sampled spans plus the graph.

The execution path is replayed from the decision's entry function and its
ordered fork records, with the edits align made where the graph lags the
code (a call the graph lacks is inserted, a call the trace skips is
dropped), and every call the path implies becomes a span: kept
spans appear verbatim, the rest are inferred with durations filled from
historical statistics (mean exclusive duration per function; the standard
deviation rides along as an uncertainty annotation, the fill itself is
deterministic). Inferred intervals are packed left to right inside their
parent, bending around the real timestamps of sampled spans.

The replay walk writes the calls to flat lists in preorder, each with the
end of its subtree, and settles a call's anchor bounds and natural width as
soon as the walk of its body closes. One forward pass then writes each
call's JSON record straight from those columns and places its children
inside its interval, which gives each child its parent's span id. Neither
step builds an object per call: the rebuilt trace holds the records, which
serialize() joins, and builds its Span and ReconstructedSpan objects from
the same columns only when `spans` is first read, as fidelity and the
inferred-span reports do.

Each kept span goes to the call its decision records: "at", parallel to
the kept ids, indexes the replay's preorder of calls. A mapped kept span is
that call, which must be a call of its function, so a mapped span under a
kept unmapped wrapper goes under its mapped caller. An unmapped kept span
(an orphan) names the call of its nearest mapped ancestor, widens that
call's anchor bounds, and goes under its original parent when that was
kept, else under that call.
"""

from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError, dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .cscfg import Cscfg, parse_function_key
from .errors import ReconstructionError, UnknownEntryError
from .mapping import SpanFunctionMap, Unmapped
from .model import Span, Trace
from .sampler import SamplingDecision

ORIGIN_SAMPLED = "sampled"
ORIGIN_INFERRED = "inferred"
SOURCE_HISTORICAL = "historical-mean"
SOURCE_ZERO = "zero-fallback"

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


def _record(trace_id: str, own_id: str, sid, tid, parent, op, svc, start, dur, attrs,
            origin: str, source=None, std=None) -> str:
    """One span's JSON record: its fields, its origin and, when inferred, its
    fill source and std, with keys and attributes in sorted order, as a
    sort_keys encoder with compact separators writes it. own_id is trace_id
    as JSON, written for a span of that trace without encoding it again.

    The record is one f-string over its values' JSON. The two origins and the
    exact types every span carries are tested inline, which saves a call per
    value; _json writes anything else.
    """
    q, j = _quote, _json
    if origin == ORIGIN_INFERRED:
        origin = '"inferred"'
        source = f'"duration_source":{q(source) if type(source) is str else j(source)},'
        std = ',"uncertainty_std":' + (float.__repr__(std) if type(std) is float and
                                        math.isfinite(std) else j(std))
    else:
        origin = '"sampled"' if origin == ORIGIN_SAMPLED else j(origin)
        source = std = ""
    attrs = _ENCODER.encode(dict(sorted(attrs.items()))) if attrs else "{}"
    tid = own_id if tid is trace_id or tid == trace_id and type(tid) is str else j(tid)
    return (f'{{"attributes":{attrs},"duration":{dur if type(dur) is int else j(dur)},'
            f'{source}"operation":{q(op) if type(op) is str else j(op)},'
            f'"origin":{origin},'
            f'"parent_id":{q(parent) if type(parent) is str else j(parent)},'
            f'"service":{q(svc) if type(svc) is str else j(svc)},'
            f'"span_id":{q(sid) if type(sid) is str else j(sid)},'
            f'"start_time":{start if type(start) is int else j(start)},"trace_id":{tid}{std}}}')


class ReconstructedTrace:
    """A rebuilt trace: its id and its spans, in preorder with orphans last.

    reconstruct writes each span's JSON record as it places the span, from
    the replay's columns, and hands both over: `records` are what
    serialize() joins, and `spans` are built from the columns only on first
    read, so writing a trace out never builds them. Two traces are equal
    when their ids and spans are. Like Span, it is frozen: its slots are
    written only here.
    """

    __slots__ = ("trace_id", "_spans", "_records", "_columns")

    def __init__(self, trace_id: str, records: list[str], columns: tuple):
        _set = object.__setattr__
        _set(self, "trace_id", trace_id)
        _set(self, "_spans", None)
        _set(self, "_records", records)
        _set(self, "_columns", columns)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to {name!r}: ReconstructedTrace is frozen")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete {name!r}: ReconstructedTrace is frozen")

    @property
    def spans(self) -> tuple[ReconstructedSpan, ...]:
        if self._spans is None:
            object.__setattr__(self, "_spans", _spans_of(self.trace_id, *self._columns))
            object.__setattr__(self, "_columns", None)
        return self._spans

    def inferred(self) -> list[ReconstructedSpan]:
        return [r for r in self.spans if r.origin == ORIGIN_INFERRED]

    def serialize(self) -> str:
        """One JSON line: each span's record, then the trace id, as a
        sort_keys encoder with compact separators writes it."""
        return f'{{"spans":[{",".join(self._records)}],"trace_id":{_json(self.trace_id)}}}'

    def __eq__(self, other):
        if not isinstance(other, ReconstructedTrace):
            return NotImplemented
        return self.trace_id == other.trace_id and self.spans == other.spans

    def __repr__(self) -> str:
        return f"ReconstructedTrace(trace_id={self.trace_id!r}, spans={self.spans!r})"


def _spans_of(trace_id: str, fns, kept, los, his, fills, psids, functions,
              orphans) -> tuple[ReconstructedSpan, ...]:
    """The spans whose records reconstruct wrote, from its columns: preorder
    call i and its placed parent id, then each orphan under its parent."""
    rspans = []
    for i, fn in enumerate(fns):
        span, parent_id = kept[i], psids[i]
        if span is not None:
            if span.parent_id != parent_id:
                span = span.with_parent(parent_id)
            rspans.append(ReconstructedSpan(span, ORIGIN_SAMPLED, fn))
        else:
            ref = functions.get(fn) or parse_function_key(fn)
            _base, source, std = fills[i]
            rspans.append(ReconstructedSpan(
                Span(f"{trace_id}:inf:{i}", trace_id, parent_id, ref.operation, ref.service,
                     los[i], his[i] - los[i], {}),
                ORIGIN_INFERRED, fn, source, std))
    for orphan, parent_id in orphans:
        span = orphan if orphan.parent_id == parent_id else orphan.with_parent(parent_id)
        rspans.append(ReconstructedSpan(span, ORIGIN_SAMPLED, None))
    return tuple(rspans)


def _fill(stat: dict | None) -> tuple:
    """(base width, source, std) of an inferred call from its function's
    statistics: the historical mean, or zero when there are none."""
    if stat is None or stat.get("count", 0) == 0:
        return 0, SOURCE_ZERO, None
    return max(0, int(round(stat["mean"]))), SOURCE_HISTORICAL, round(float(stat["std"]), 3)


def _replay(graph: Cscfg, entry: str, forks: tuple, placed: dict, boxes: dict,
            trace_id: str, keys: dict) -> tuple:
    """Walk the recorded path and list its calls in preorder.

    placed maps a preorder index to the kept span recorded at that call and
    its function key; boxes maps it to the interval its orphans span.
    Returns parallel lists indexed by preorder position: function key, kept
    span (None when inferred), subtree end, earliest sampled start and
    latest sampled end in the subtree, orphans included (None when it holds
    no sampled span), natural width, and the _fill of an inferred call (None
    for a sampled one). Call i's children are i+1, end[i+1], ... up to end[i].

    One generator per open function body walks its blocks, and reads the
    recorded forks in order. A fork takes the next item, which must be a
    branch (align records one at every fork it passes, so a fork with none
    left is an error), and each call the body makes is appended with the
    kept span recorded at its index. A callee with a body gets a frame of
    its own, which runs to its end before the caller resumes. A call is
    settled when its body is walked, or at once, from its span (which holds
    its orphans) or its orphans' box and statistics, and its children's
    settled values.

    An edit (parent, index[, function]) is replayed where the walk of call
    parent has listed index calls: before a call of a block, before a fork
    and at the end of the body. An insertion appends a call of its function
    there, and a skip drops the block's next call. A call of a function
    without a body gets a frame, which replays only edits, when the next
    item is an insertion under it.
    """
    fns: list[str] = []
    spans: list[Span | None] = []
    ends: list[int] = []
    alo: list[int | None] = []
    ahi: list[int | None] = []
    widths: list[int] = []
    fills: list[tuple | None] = []
    budget = _WALK_BUDGET
    has_body, subgraph = graph.has_body, graph.subgraph
    items = iter(forks)

    def take() -> None:
        """Moves to the next item; edit_at is the call index it applies at
        when it is an edit, else -1."""
        nonlocal head, edit_at
        head = next(items, None)
        edit_at = -1 if head is None or type(head) is str else head[1]

    head = edit_at = None
    take()

    def call(fn: str) -> bool:
        """Append a call; True when its body is still to walk, else it is settled."""
        i = len(fns)
        span = None
        got = placed.get(i)
        if got is not None:
            span, key = got
            if key != fn:
                raise ReconstructionError(
                    f"trace {trace_id!r}: kept span {span.span_id!r} of {key!r} is recorded "
                    f"at call {i}, a call of {fn!r}")
        fns.append(fn)
        spans.append(span)
        ends.append(i + 1)
        alo.append(None)
        ahi.append(None)
        widths.append(0)
        fills.append(None)
        if has_body(fn):
            return True
        if edit_at == i + 1 and head[0] == i:
            return True
        settle(i)
        return False

    def settle(me: int) -> None:
        """Anchor bounds and natural width of call me, from its listed children."""
        span = spans[me]
        lo, hi = (span.start_time, span.end_time) if span is not None else \
            boxes.get(me, (None, None))
        kids_width = 0
        c = me + 1
        end = ends[me] = len(fns)
        while c < end:
            clo = alo[c]
            if clo is not None:
                lo = clo if lo is None else min(lo, clo)
                hi = ahi[c] if hi is None else max(hi, ahi[c])
            kids_width += widths[c]
            c = ends[c]
        alo[me], ahi[me] = lo, hi
        if span is not None:
            widths[me] = span.duration
            return
        fill = fills[me] = _fill(keys.get(fns[me]))
        width = fill[0] + kids_width
        if lo is not None:
            width = max(width, hi - lo)
        widths[me] = width

    def edits(me: int, before_call: bool):
        """Replays the edits of call me at this point: yields each inserted
        call whose body is to walk, and returns True when a skip drops the
        block's next call (only before_call)."""
        while edit_at == len(fns) and head[0] == me:
            if len(head) == 2:
                if not before_call:
                    return False
                take()
                return True
            fn = head[2]
            take()
            if call(fn):
                yield len(fns) - 1
        return False

    def walk(me: int):
        """Yields the index of each call whose body is to walk; settles `me` at its end."""
        nonlocal budget
        fn_key = fns[me]
        if has_body(fn_key):
            sub = subgraph(fn_key)
            node, exit_id, succ, emissions = sub.entry, sub.exit, sub.succ, sub.emissions
        else:
            node = exit_id = None  # a frame for edits only
        while node != exit_id:
            budget -= 1
            if budget < 0:
                raise ReconstructionError("walk step budget exceeded")
            succs = succ.get(node, ())
            if not succs:
                raise ReconstructionError(f"{fn_key}: dead end at {node!r}")
            if len(succs) == 1:
                node = succs[0]
            else:
                if edit_at == len(fns):
                    yield from edits(me, False)
                node = head
                if node is None:
                    raise ReconstructionError("ran out of recorded branch choices")
                if node not in succs:
                    raise ReconstructionError(f"recorded branch {node!r} is not a successor here")
                take()
            if node == exit_id:
                break
            for callee in emissions.get(node, ()):
                if edit_at == len(fns) and (yield from edits(me, True)):
                    continue
                if call(callee):
                    yield len(fns) - 1
        if edit_at == len(fns):
            yield from edits(me, False)
        settle(me)

    if call(entry):
        stack = [walk(0)]
        while stack:
            i = next(stack[-1], None)
            if i is None:
                stack.pop()
            else:
                stack.append(walk(i))
    if head is not None:
        if type(head) is str:
            raise ReconstructionError(f"trace {trace_id!r}: unused branch records remain")
        # a call without a body walked nothing unless an edit gave it calls
        parent = head[0]
        walked = parent < len(fns) and (has_body(fns[parent]) or ends[parent] > parent + 1)
        raise ReconstructionError(
            f"trace {trace_id!r}: recorded edit {list(head)} " +
            ("is left unused" if walked else f"names call {parent}, which the walk never enters"))
    return fns, spans, ends, alo, ahi, widths, fills


def reconstruct(decision: SamplingDecision, kept_spans: list[Span], graph: Cscfg,
                stats: dict, mapping: SpanFunctionMap) -> ReconstructedTrace:
    """Rebuild the full trace implied by a decision.

    stats is a statistics snapshot as produced by ScoreBook.snapshot(). Kept
    spans keep their id, timing and attributes, and each goes where its
    recorded call places it (see above): a mapped span's parent is its
    call's parent in the replay, its original parent only when that was
    mapped.
    """
    trace_id = decision.trace_id
    if not kept_spans:
        raise ReconstructionError("no kept spans to reconstruct from")
    if decision.entry is None:
        raise UnknownEntryError(f"decision for {trace_id!r} carries no entry function")
    if not graph.knows(decision.entry):
        raise UnknownEntryError(f"entry function {decision.entry!r} absent from graph")
    at = decision.at
    if len(at) != len(decision.kept):
        raise ReconstructionError(
            f"trace {trace_id!r}: {len(at)} recorded calls for {len(decision.kept)} kept spans")

    call_of = dict(zip(decision.kept, at))
    placed: dict[int, tuple[Span, str]] = {}
    boxes: dict[int, tuple[int, int]] = {}  # per call, the interval its orphans span
    orphans: list[tuple[Span, int]] = []
    for span in kept_spans:
        i = call_of.get(span.span_id)
        if i is None:
            raise ReconstructionError(
                f"trace {trace_id!r}: kept span {span.span_id!r} is not in the decision")
        r = mapping.resolve(span)
        if isinstance(r, Unmapped):
            orphans.append((span, i))
            lo, hi = boxes.get(i, (span.start_time, span.end_time))
            boxes[i] = (min(lo, span.start_time), max(hi, span.end_time))
        elif placed.setdefault(i, (span, r.key))[0] is not span:
            raise ReconstructionError(
                f"trace {trace_id!r}: kept spans {placed[i][0].span_id!r} and "
                f"{span.span_id!r} are recorded at one call {i}")

    fns, spans, ends, alo, ahi, widths, fills = _replay(
        graph, decision.entry, decision.forks, placed, boxes, trace_id, stats.get("keys", {}))
    n = len(fns)
    if not 0 <= min(at) <= max(at) < n:
        raise ReconstructionError(f"trace {trace_id!r}: a kept span is recorded at a call "
                                  f"outside the {n} calls of the recorded path")
    los = [0] * n
    his = [0] * n
    # root interval: from the earliest sampled evidence, orphans included,
    # and wide enough to hold every anchor; a sampled root's is its own
    lo = los[0] = alo[0] if alo[0] is not None else 0
    his[0] = lo + widths[0]

    # one forward pass in preorder: write call i's record (an inferred
    # span's id carries its preorder index), then place its children inside
    # its interval. Sampled spans keep their times; inferred ones are packed
    # left to right, bending around the anchors of later siblings.
    functions = graph.functions
    own_id = _json(trace_id)
    records: list[str] = []
    psids: list[str | None] = [None] * n
    for i in range(n):
        span = spans[i]
        if span is not None:
            sid = span.span_id
            records.append(_record(trace_id, own_id, sid, span.trace_id, psids[i],
                                   span.operation, span.service, span.start_time,
                                   span.duration, span.attributes, ORIGIN_SAMPLED))
        else:
            fn = fns[i]
            # the graph holds a FunctionRef for every function but external ones
            ref = functions.get(fn) or parse_function_key(fn)
            sid = f"{trace_id}:inf:{i}"
            _base, source, std = fills[i]
            records.append(_record(trace_id, own_id, sid, trace_id, psids[i], ref.operation,
                                   ref.service, los[i], his[i] - los[i], None,
                                   ORIGIN_INFERRED, source, std))
        end = ends[i]
        if end == i + 1:
            continue
        lo, hi = los[i], his[i]
        c = i + 1
        if ends[c] == end:
            kids, limits = (c,), (hi,)
        else:
            kids = []
            while c < end:
                kids.append(c)
                c = ends[c]
            # limits[k]: start of the first anchored sibling after kids[k], else hi
            limits = [hi] * len(kids)
            nxt = hi
            for k in range(len(kids) - 1, 0, -1):
                if alo[kids[k]] is not None:
                    nxt = alo[kids[k]]
                limits[k - 1] = nxt
        cursor = lo
        for c, limit in zip(kids, limits):
            span = spans[c]
            if span is not None:
                clo, chi = span.start_time, span.end_time
            elif alo[c] is not None:
                clo = alo[c]
                chi = max(ahi[c], min(clo + widths[c], hi) if hi > clo else ahi[c])
            else:
                clo = cursor
                chi = clo + min(widths[c], max(0, limit - cursor))
            los[c], his[c], psids[c] = clo, chi, sid
            cursor = max(cursor, chi)

    # each orphan under its kept parent, else under the call it is recorded at
    present = {s.span_id for s in kept_spans} if orphans else ()
    placed_orphans = [(o, o.parent_id if o.parent_id in present else
                       f"{trace_id}:inf:{i}" if spans[i] is None else spans[i].span_id)
                      for o, i in orphans]
    records += [_record(trace_id, own_id, o.span_id, o.trace_id, parent, o.operation,
                        o.service, o.start_time, o.duration, o.attributes, ORIGIN_SAMPLED)
                for o, parent in placed_orphans]
    return ReconstructedTrace(
        trace_id, records, (fns, spans, los, his, fills, psids, functions, placed_orphans))


@dataclass(frozen=True)
class FidelityReport:
    """How one rebuilt trace compares with its original.

    structure_exact: the two function trees are equal, and each sampled span
    sits at its own original node. duration_error: the mean relative
    duration error over the inferred spans matched by position.
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
    is not descended into. The structure is exact when every pair has equal
    labels and child counts, and every sampled rebuilt span is paired with
    the original node of its own span.
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
        elif rspan.span.span_id != ospan.span_id:
            exact = False  # a kept span at another span's place
        if len(okids) != len(rkids):
            exact = False
        stack.extend(reversed(list(zip(okids, rkids))))

    errors = [
        abs(ospan.duration - rspan.span.duration) / ospan.duration
        for ospan, rspan in inferred_pairs
        if ospan.duration > 0
    ]
    mean_error = sum(errors) / len(errors) if errors else 0.0
    return FidelityReport(exact, mean_error, len(rebuilt.inferred()))


def fidelity_means(reports: list[FidelityReport]) -> tuple[float, float]:
    """The share of reports whose structure is exact, and the duration error
    over every inferred span: each report's mean weighted by its inferred
    count. Each is 0.0 when there is nothing to average."""
    exact = sum(r.structure_exact for r in reports)
    inferred = sum(r.inferred_count for r in reports)
    err_sum = sum(r.duration_error * r.inferred_count for r in reports)
    return exact / len(reports) if reports else 0.0, err_sum / inferred if inferred else 0.0
