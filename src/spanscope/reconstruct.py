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

The replay walk lists the calls in preorder, each with its children and
its parent. That skeleton depends only on the graph, the entry and the
forks, and the paths a service takes recur across its traces, so the graph
carries a memo of skeletons keyed by (entry, forks). A graph is fixed once
built, so an entry never goes stale; the memo is cleared when it holds
align.PATH_CACHE_CAPACITY skeletons, and a walk that fails is not kept.
A skeleton also keeps its layout for the last statistics snapshot a
rebuild used it with, and lays itself out again for another: per call,
its row of the rebuild table, its natural width (its fill plus its
children's natural widths) and its natural offset in the path.

Only the anchored calls, those a kept span or orphan is recorded at and
their ancestors, depend on the trace. One reverse pass settles each of
them after its subtree, from this trace's kept spans and orphans: its
anchor bounds and its width; every other call keeps its natural width.
One forward pass writes each call's JSON record straight from those
columns and places its children inside its interval, which gives each
child its parent's span id: under an anchored call they are packed around
the anchors, and under any other at their natural offsets, clipped at its
end. Neither pass builds an object per call: the rebuilt trace holds the
records, which serialize() joins, and builds its Span and ReconstructedSpan
objects from the same columns only when `spans` is first read, as fidelity
and the inferred-span reports do.

What an inferred call takes from its function is fixed for as long as the
statistics snapshot is: its fill (base width, source and std) and every
field of its record but the span's own duration, parent id, span id and
start time, and the trace id. The rebuild table holds these per function,
each row made when a path that calls the function is first laid out (see
_row). The table lives on the snapshot, so a run that passes one snapshot
to every rebuild makes each row once, and a record of an inferred span
joins its row's text with the span's own values.

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

from . import align
from .cscfg import Cscfg, parse_function_key
from .errors import ReconstructionError, UnknownEntryError
from .mapping import SpanFunctionMap, Unmapped
from .model import Span, Trace
from .sampler import SamplingDecision
from .scoring import StatsSnapshot

ORIGIN_SAMPLED = "sampled"
ORIGIN_INFERRED = "inferred"
SOURCE_HISTORICAL = "historical-mean"
SOURCE_ZERO = "zero-fallback"

# flow moves a replay may take between two records of its decision: about
# two per function body, so a chain of depth 10,000 fits with room, and a
# function that calls itself forever, which consumes no record, fails
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


def _record(trace_id: str, own_id: str, sid, tid, parent, op, svc, start, dur, attrs) -> str:
    """A sampled span's JSON record: its fields and its origin, with keys
    and attributes in sorted order, as a sort_keys encoder with compact
    separators writes it. own_id is trace_id as JSON, written for a span of
    that trace without encoding it again.

    The record is one f-string over its values' JSON. The exact types every
    span carries are tested inline, which saves a call per value; _json
    writes anything else.
    """
    q, j = _quote, _json
    attrs = _ENCODER.encode(dict(sorted(attrs.items()))) if attrs else "{}"
    tid = own_id if tid is trace_id or tid == trace_id and type(tid) is str else j(tid)
    return (f'{{"attributes":{attrs},"duration":{dur if type(dur) is int else j(dur)},'
            f'"operation":{q(op) if type(op) is str else j(op)},"origin":"sampled",'
            f'"parent_id":{q(parent) if type(parent) is str else j(parent)},'
            f'"service":{q(svc) if type(svc) is str else j(svc)},'
            f'"span_id":{q(sid) if type(sid) is str else j(sid)},'
            f'"start_time":{start if type(start) is int else j(start)},"trace_id":{tid}}}')


def _row(fn: str, stat: dict | None) -> tuple:
    """fn's row of the rebuild table: (base width, source, std, FunctionRef,
    record text) of an inferred call of fn. The fill is fn's historical
    mean, or zero when its statistics are missing or count nothing; the
    text is what _inferred_text gives fn's operation, service and fill."""
    if stat is None or stat.get("count", 0) == 0:
        base, source, std = 0, SOURCE_ZERO, None
    else:
        base, source = max(0, int(round(stat["mean"]))), SOURCE_HISTORICAL
        std = round(float(stat["std"]), 3)
    # a graph's FunctionRef of a key is the key parsed, external or not, so
    # a row depends on the snapshot alone
    ref = parse_function_key(fn)
    return base, source, std, ref, _inferred_text(ref.operation, ref.service, source, std)


def _inferred_text(op, svc, source, std) -> tuple[str, str, str]:
    """The three parts of an inferred record that its function and fill fix:
    the fields that sort between duration and parent_id, between parent_id
    and span_id, and after trace_id."""
    return (f',"duration_source":{_json(source)},"operation":{_json(op)},"origin":"inferred",'
            f'"parent_id":',
            f',"service":{_json(svc)},"span_id":',
            f',"uncertainty_std":{_json(std)}}}')


def _inferred(text: tuple, own_id: str, sid: str, parent, start, dur) -> str:
    """An inferred span's JSON record, keys sorted as _record sorts them: the
    three parts of text joined with the span's own values. own_id is its
    trace id as JSON."""
    head, mid, tail = text
    return (f'{{"attributes":{{}},"duration":{dur if type(dur) is int else _json(dur)}{head}'
            f'{_quote(parent) if type(parent) is str else _json(parent)}{mid}{_quote(sid)},'
            f'"start_time":{start if type(start) is int else _json(start)},'
            f'"trace_id":{own_id}{tail}')


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


def _spans_of(trace_id: str, fns, kept, los, his, rows, psids,
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
            _base, source, std, ref, _text = rows[i]
            rspans.append(ReconstructedSpan(
                Span(f"{trace_id}:inf:{i}", trace_id, parent_id, ref.operation, ref.service,
                     los[i], his[i] - los[i], {}),
                ORIGIN_INFERRED, fn, source, std))
    for orphan, parent_id in orphans:
        span = orphan if orphan.parent_id == parent_id else orphan.with_parent(parent_id)
        rspans.append(ReconstructedSpan(span, ORIGIN_SAMPLED, None))
    return tuple(rspans)


def _replay(graph: Cscfg, entry: str, forks: tuple, trace_id: str,
            fns: list) -> tuple[list, list]:
    """Walk the recorded path and list its calls in preorder.

    Appends each call's function key to fns as it lists it, so fns holds
    the calls listed so far when the walk raises, and returns each call's
    parent (-1 for the root) and its children in preorder, listed as it
    goes. All three depend only on the graph, the entry and the forks;
    trace_id names the trace in errors.

    One generator per open function body walks its blocks, and reads the
    recorded forks in order. A fork takes the next item, which must be a
    branch (align records one at every fork it passes, so a fork with none
    left is an error), and each call the body makes is appended. A callee
    with a body gets a frame of its own, which runs to its end before the
    caller resumes.

    An edit (parent, index[, function]) is replayed where the walk of call
    parent has listed index calls: before a call of a block, before a fork
    and at the end of the body. An insertion appends a call of its function
    there, and a skip drops the block's next call. A call of a function
    without a body gets a frame, which replays only edits, when the next
    item is an insertion under it.
    """
    parents: list[int] = []
    kids: list[list[int]] = []
    has_body, subgraph = graph.has_body, graph.subgraph
    items = iter(forks)

    def take() -> None:
        """Moves to the next item and renews the step budget; edit_at is the
        call index it applies at when it is an edit, else -1."""
        nonlocal head, edit_at, budget
        budget = _WALK_BUDGET
        head = next(items, None)
        edit_at = -1 if head is None or type(head) is str else head[1]

    head = edit_at = budget = None
    take()

    def call(fn: str, parent: int) -> bool:
        """Append a call under parent; True when its body is still to walk."""
        i = len(fns)
        fns.append(fn)
        parents.append(parent)
        kids.append([])
        if parent >= 0:
            kids[parent].append(i)
        return has_body(fn) or edit_at == i + 1 and head[0] == i

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
            if call(fn, me):
                yield len(fns) - 1
        return False

    def walk(me: int):
        """Yields the index of each call whose body is to walk."""
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
                if call(callee, me):
                    yield len(fns) - 1
        if edit_at == len(fns):
            yield from edits(me, False)

    if call(entry, -1):
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
        walked = parent < len(fns) and (has_body(fns[parent]) or bool(kids[parent]))
        raise ReconstructionError(
            f"trace {trace_id!r}: recorded edit {list(head)} " +
            ("is left unused" if walked else f"names call {parent}, which the walk never enters"))
    return parents, kids


class _Skeleton:
    """The calls of one recorded path, as _replay lists them, and their
    layout for the last statistics snapshot a rebuild used them with.

    fns holds each call's function key, kids each call's children in
    preorder and parents each call's parent (-1 for the root); they depend
    only on the graph, the entry and the forks. table is the rebuild table
    of that snapshot, or None before the first rebuild; it is held, so a
    check by identity never takes another table for it. rows, widths and
    offsets are its layout: per call, its row, its natural width (its
    row's base width plus its children's natural widths) and its natural
    offset (its parent's, plus the natural widths of its earlier siblings;
    the root's is 0). Without a kept span or orphan below it, a call is
    that wide and its subtree packs at those offsets.
    """

    __slots__ = ("fns", "kids", "parents", "table", "rows", "widths", "offsets")

    def __init__(self, fns: list, parents: list, kids: list):
        self.fns, self.parents, self.kids = tuple(fns), parents, kids
        self.table = self.rows = self.widths = self.offsets = None

    def lay_out(self, table: dict, keys: dict) -> None:
        """Fills the layout for the snapshot whose rebuild table and keys
        these are. Rows are made in preorder, so when function keys do not
        parse, the first call's is the one reported, as every other rebuild
        check reports the first fault on the path; a layout that fails is
        not kept."""
        fns, kids = self.fns, self.kids
        n = len(fns)
        rows: list = []
        for fn in fns:
            row = table.get(fn)
            if row is None:
                row = table[fn] = _row(fn, keys.get(fn))
            rows.append(row)
        widths = [row[0] for row in rows]
        for me in range(n - 1, -1, -1):
            width = widths[me]
            for c in kids[me]:
                width += widths[c]
            widths[me] = width
        offsets = [0] * n
        for i in range(n):
            start = offsets[i]
            for c in kids[i]:
                offsets[c] = start
                start += widths[c]
        self.rows, self.widths, self.offsets = tuple(rows), widths, offsets
        self.table = table


def _skeleton(graph: Cscfg, entry: str, forks: tuple, placed: dict,
              trace_id: str) -> tuple[_Skeleton, list]:
    """The recorded path's _Skeleton, and per call the mapped kept span
    recorded there, else None.

    The skeleton is memoised on the graph by (entry, forks), which is all
    the walk reads; a walk that raises is not stored. Each kept span
    recorded at a listed call must be a call of its function. That is
    checked in preorder, and when the walk fails, over the calls it listed
    before it raised, so the first fault on the path is the one reported,
    as when the walk checked each call as it listed it.
    """
    key = (entry, forks)
    memo = graph._skeletons
    got = memo.get(key)
    if got is None:
        fns: list[str] = []
        try:
            parents, kids = _replay(graph, entry, forks, trace_id, fns)
        except ReconstructionError:
            _kept_at(placed, fns, trace_id)
            raise
        if len(memo) >= align.PATH_CACHE_CAPACITY:
            memo.clear()
        got = memo[key] = _Skeleton(fns, parents, kids)
    return got, _kept_at(placed, got.fns, trace_id)


def _kept_at(placed: dict, fns, trace_id: str) -> list:
    """Per listed call, the mapped kept span placed at it, else None; the
    first span in preorder at a call of another function raises. A span
    recorded past the listed calls is left to the caller."""
    n = len(fns)
    spans: list[Span | None] = [None] * n
    for i in sorted(placed):
        if not 0 <= i < n:
            continue
        span, key = placed[i]
        if key != fns[i]:
            raise ReconstructionError(
                f"trace {trace_id!r}: kept span {span.span_id!r} of {key!r} is recorded "
                f"at call {i}, a call of {fns[i]!r}")
        spans[i] = span
    return spans


def reconstruct(decision: SamplingDecision, kept_spans: list[Span], graph: Cscfg,
                stats: StatsSnapshot, mapping: SpanFunctionMap) -> ReconstructedTrace:
    """Rebuild the full trace implied by a decision.

    stats is a statistics snapshot, as ScoreBook.snapshot() or
    load_snapshot() gives it, and holds the rebuild table: the rows this
    rebuild makes stay on it for every later rebuild from it, so a run
    passes one snapshot to all its rebuilds. The graph likewise keeps the
    calls of each path it replays, with their layout for the last snapshot
    they were rebuilt from (see above), for every later rebuild on it. Kept
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
        r = mapping.resolve(span.service, span.operation)
        if isinstance(r, Unmapped):
            orphans.append((span, i))
            lo, hi = boxes.get(i, (span.start_time, span.end_time))
            boxes[i] = (min(lo, span.start_time), max(hi, span.end_time))
        elif placed.setdefault(i, (span, r.key))[0] is not span:
            raise ReconstructionError(
                f"trace {trace_id!r}: kept spans {placed[i][0].span_id!r} and "
                f"{span.span_id!r} are recorded at one call {i}")

    try:
        table = stats._table
    except AttributeError:
        raise TypeError("stats must be a snapshot from ScoreBook.snapshot() or "
                        "load_snapshot()") from None
    sk, spans = _skeleton(graph, decision.entry, decision.forks, placed, trace_id)
    fns, kids = sk.fns, sk.kids
    n = len(fns)
    if not 0 <= min(at) <= max(at) < n:
        raise ReconstructionError(f"trace {trace_id!r}: a kept span is recorded at a call "
                                  f"outside the {n} calls of the recorded path")
    if sk.table is not table:
        sk.lay_out(table, stats.get("keys", {}))
    rows, natural, offsets = sk.rows, sk.widths, sk.offsets

    # the anchored calls: each call a kept span or orphan is recorded at,
    # and its ancestors. Every other call keeps its natural width.
    parents = sk.parents
    marked = bytearray(n)
    anchored = []
    for i in at:
        while i >= 0 and not marked[i]:
            marked[i] = 1
            anchored.append(i)
            i = parents[i]
    anchored.sort(reverse=True)

    # one reverse pass settles each anchored call after its subtree: its
    # anchor bounds, the earliest sampled start and latest sampled end in the
    # subtree, orphans included (None on every other call), and its width
    alo: list[int | None] = [None] * n
    ahi: list[int | None] = [None] * n
    widths = list(natural)
    for me in anchored:
        span = spans[me]
        lo, hi = (span.start_time, span.end_time) if span is not None else \
            boxes.get(me, (None, None))
        kids_width = 0
        for c in kids[me]:
            if marked[c]:
                clo = alo[c]
                if lo is None or clo < lo:
                    lo = clo
                chi = ahi[c]
                if hi is None or chi > hi:
                    hi = chi
            kids_width += widths[c]
        alo[me], ahi[me] = lo, hi
        if span is not None:
            widths[me] = span.duration
        else:
            width = rows[me][0] + kids_width
            widths[me] = width if width > hi - lo else hi - lo

    los = [0] * n
    his = [0] * n
    # root interval: from the earliest sampled evidence, orphans included,
    # and wide enough to hold every anchor; a sampled root's is its own
    lo = los[0] = alo[0]
    his[0] = lo + widths[0]

    # one forward pass in preorder: write call i's record (an inferred
    # span's id carries its preorder index), then place its children inside
    # its interval. Sampled spans keep their times; inferred ones are packed
    # left to right, bending around the anchors of later siblings.
    own_id = _json(trace_id)
    records: list[str] = []
    psids: list[str | None] = [None] * n
    for i in range(n):
        span = spans[i]
        if span is not None:
            sid = span.span_id
            records.append(_record(trace_id, own_id, sid, span.trace_id, psids[i],
                                   span.operation, span.service, span.start_time,
                                   span.duration, span.attributes))
        else:
            sid = f"{trace_id}:inf:{i}"
            records.append(_inferred(rows[i][4], own_id, sid, psids[i], los[i], his[i] - los[i]))
        cs = kids[i]
        if not cs:
            continue
        lo, hi = los[i], his[i]
        if not marked[i]:
            # no anchor below: packing from lo puts each child at lo plus its
            # natural offset within call i, both ends clipped at hi, which is
            # where the cursor loop below would put it
            base = lo - offsets[i]
            for c in cs:
                clo = base + offsets[c]
                chi = clo + natural[c]
                if chi > hi:
                    chi = hi
                    if clo > hi:
                        clo = hi
                los[c], his[c], psids[c] = clo, chi, sid
            continue
        if len(cs) == 1:
            limits = (hi,)
        else:
            # limits[k]: start of the first anchored sibling after cs[k], else hi
            limits = [hi] * len(cs)
            nxt = hi
            for k in range(len(cs) - 1, 0, -1):
                if alo[cs[k]] is not None:
                    nxt = alo[cs[k]]
                limits[k - 1] = nxt
        cursor = lo
        for c, limit in zip(cs, limits):
            span = spans[c]
            if span is not None:
                clo = span.start_time
                chi = clo + span.duration
            elif alo[c] is not None:
                clo, chi = alo[c], ahi[c]
                if hi > clo:
                    end = clo + widths[c]
                    if end > hi:
                        end = hi
                    if end > chi:
                        chi = end
            else:
                clo = cursor
                chi = cursor + widths[c]
                if chi > limit:
                    chi = limit if limit > cursor else cursor
            los[c], his[c], psids[c] = clo, chi, sid
            if chi > cursor:
                cursor = chi

    # each orphan under its kept parent, else under the call it is recorded at
    present = {s.span_id for s in kept_spans} if orphans else ()
    placed_orphans = [(o, o.parent_id if o.parent_id in present else
                       f"{trace_id}:inf:{i}" if spans[i] is None else spans[i].span_id)
                      for o, i in orphans]
    records += [_record(trace_id, own_id, o.span_id, o.trace_id, parent, o.operation,
                        o.service, o.start_time, o.duration, o.attributes)
                for o, parent in placed_orphans]
    return ReconstructedTrace(
        trace_id, records, (fns, spans, los, his, rows, psids, placed_orphans))


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

    resolved = [mapping.resolve(s.service, s.operation) for s in original.preorder]
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
