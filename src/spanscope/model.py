"""Span and trace primitives plus the newline-delimited interchange format.

A trace file is newline-delimited JSON, one trace per line:

    {"trace_id": "...", "spans": [{"span_id": ..., "trace_id": ...,
      "parent_id": ..., "operation": "Class.FunctionName", "service": ...,
      "start_time": <int microseconds>, "duration": <int microseconds>,
      "attributes": {...}}, ...]}

Traces are immutable after parsing and safe to share across threads. A
child's interval must lie inside its parent's; no clock skew is tolerated.

``parse_trace`` reads a record into columns, one per field, in input
order; one combined test over the columns admits a well-formed record, and
any other goes through itemised checks that name its first fault. A
``Trace`` holds those columns with one preorder permutation, the arrival
order, by (start_time, span_id), and each span's children in arrival
order; ``exclusive_durations`` relies on that order to take the union of
child intervals without sorting them. The sampling pipeline reads the
columns by position and builds no ``Span``; a trace builds its spans only
when a reader asks for them.

Every span-record line is read and written here. ``_span_row`` is the one
record check: one combined type test admits a well-formed span record, and
any other goes through itemised checks that name its first fault; both
``span_from_dict`` and ``parse_trace``'s record-by-record fallback use it.
``serialize_trace`` is the one writer: it writes a record line from a
trace's columns, for every span or for the spans at given positions (the
kept line of ``sample``). ``read_records`` is the one line loop: it numbers
a file's non-blank lines, parses each one, and raises on a bad one naming
the file and the line; trace, kept and decision files are all read by it.

``Span`` is a frozen slotted record. Its one constructor writes each slot
through the slot's member descriptor, past the frozen ``__setattr__``, so
a trace, rebuild and the generators all build spans the same cheap way.
"""

from __future__ import annotations

import json
from collections.abc import KeysView
from dataclasses import FrozenInstanceError, dataclass, field, fields
from itertools import chain, repeat
from operator import attrgetter, itemgetter

from .errors import InvariantViolationError, MalformedDocumentError, UnknownSpanError

SpanId = str

# a span record's fields, in the order of Span's fields and of the columns
_FIELDS = ("span_id", "trace_id", "parent_id", "operation", "service", "start_time",
           "duration", "attributes")
_field_getters = [itemgetter(name) for name in _FIELDS]
_span_fields = attrgetter(*_FIELDS)
_STR, _INT, _DICT, _PARENT = {str}, {int}, {dict}, {str, type(None)}


@dataclass(frozen=True, slots=True, init=False)
class Span:
    """One timed operation; part of exactly one trace."""

    span_id: SpanId
    trace_id: str
    parent_id: SpanId | None
    operation: str
    service: str
    start_time: int
    duration: int
    attributes: dict[str, str] = field(default_factory=dict)

    def __init__(self, span_id: SpanId, trace_id: str, parent_id: SpanId | None,
                 operation: str, service: str, start_time: int, duration: int,
                 attributes: dict[str, str] | None = None):
        # the frozen __setattr__ raises, so each slot is written through its
        # member descriptor (bound below the class), one call per field
        _set_span_id(self, span_id)
        _set_trace_id(self, trace_id)
        _set_parent_id(self, parent_id)
        _set_operation(self, operation)
        _set_service(self, service)
        _set_start_time(self, start_time)
        _set_duration(self, duration)
        _set_attributes(self, {} if attributes is None else attributes)

    @property
    def end_time(self) -> int:
        return self.start_time + self.duration

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "operation": self.operation,
            "service": self.service,
            "start_time": self.start_time,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def with_parent(self, parent_id: SpanId | None) -> "Span":
        """A copy under another parent; the attributes dict is shared, not copied."""
        return Span(self.span_id, self.trace_id, parent_id, self.operation, self.service,
                    self.start_time, self.duration, self.attributes)


(_set_span_id, _set_trace_id, _set_parent_id, _set_operation, _set_service,
 _set_start_time, _set_duration, _set_attributes) = (
    Span.__dict__[f.name].__set__ for f in fields(Span))


# The __setattr__ and __delattr__ that dataclass writes for a frozen slotted
# class call super() with the class as it was before slots were added, which
# raises TypeError for a name that is not a field; these refuse every name
# alike. __init__ writes through the slot descriptors and never calls them.
def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to {name!r}: Span is frozen")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete {name!r}: Span is frozen")


Span.__setattr__ = _refuse_set
Span.__delattr__ = _refuse_delete


class Trace:
    """A tree of spans with exactly one root, held as columns.

    The columns are in input order, position i for the i-th span: ``ids``,
    ``parent_ids``, ``operations``, ``services``, ``starts``, ``durations``
    and ``attributes``. ``index`` maps each span id to its position.
    ``arrival_order`` lists the positions in arrival order, by (start_time,
    span_id); ``children[i]`` lists position i's children in that same
    order; ``order`` lists the positions root first, each followed by its
    subtree, siblings in arrival order: it is the one tree walk every
    consumer reads, and slot k of a path is ``order[k]``. The columns are
    read-only.

    Construction validates the tree invariants, each child's interval
    inside its parent's included. ``Trace(trace_id, spans)`` builds the
    columns from span objects and keeps those objects; ``parse_trace``
    builds the columns from a record and makes no span object. ``spans``, in
    input order, is built from the columns on first read and kept, and
    ``preorder``, ``arrival`` and ``child_spans`` read it; until then,
    ``span()`` and ``root`` build just the span they are asked for.
    """

    __slots__ = ("trace_id", "ids", "parent_ids", "operations", "services", "starts",
                 "durations", "attributes", "index", "arrival_order", "children", "order",
                 "_spans")

    def __init__(self, trace_id: str, spans: list[Span]):
        spans = tuple(spans)
        if not spans:
            raise MalformedDocumentError(f"trace {trace_id!r} has no spans")
        self._fill(trace_id, tuple(zip(*map(_span_fields, spans))))
        self._spans = spans

    @classmethod
    def _of_columns(cls, trace_id: str, columns: tuple) -> "Trace":
        """A trace of the eight columns _columns reads, without span objects."""
        trace = cls.__new__(cls)
        trace._fill(trace_id, columns)
        trace._spans = None
        return trace

    def _fill(self, trace_id: str, columns: tuple) -> None:
        ids, tids, parents, ops, svcs, starts, durations, attrs = columns
        self.trace_id = trace_id
        self.ids, self.parent_ids, self.operations, self.services = ids, parents, ops, svcs
        self.starts, self.durations, self.attributes = starts, durations, attrs
        self.index, self.arrival_order, self.children, self.order = _tree(
            trace_id, ids, tids, parents, starts, durations)

    def _span(self, i: int) -> Span:
        spans = self._spans
        if spans is not None:
            return spans[i]
        return Span(self.ids[i], self.trace_id, self.parent_ids[i], self.operations[i],
                    self.services[i], self.starts[i], self.durations[i], self.attributes[i])

    @property
    def spans(self) -> tuple[Span, ...]:
        spans = self._spans
        if spans is None:
            ids = self.ids
            spans = self._spans = tuple(map(
                Span, ids, repeat(self.trace_id, len(ids)), self.parent_ids, self.operations,
                self.services, self.starts, self.durations, self.attributes))
        return spans

    @property
    def preorder(self) -> tuple[Span, ...]:
        return tuple(map(self.spans.__getitem__, self.order))

    @property
    def arrival(self) -> tuple[Span, ...]:
        return tuple(map(self.spans.__getitem__, self.arrival_order))

    @property
    def root(self) -> Span:
        return self._span(self.order[0])

    def __len__(self) -> int:
        return len(self.ids)

    def _position(self, span_id: SpanId) -> int:
        try:
            return self.index[span_id]
        except KeyError:
            raise UnknownSpanError(f"no span {span_id!r} in trace {self.trace_id!r}") from None

    def span(self, span_id: SpanId) -> Span:
        return self._span(self._position(span_id))

    def has_span(self, span_id: SpanId) -> bool:
        return span_id in self.index

    def child_spans(self, span_id: SpanId) -> tuple[Span, ...]:
        return tuple(map(self.spans.__getitem__, self.children[self._position(span_id)]))

    def span_ids(self) -> KeysView[SpanId]:
        """The span ids as a read-only set view, without a copy."""
        return self.index.keys()


def _tree(trace_id: str, ids, tids, parents, starts, durations) -> tuple:
    """The index, arrival order, child lists and preorder of a trace's
    columns. One combined test admits a well-formed tree; any other goes
    through itemised checks, which raise on its first fault in this order:
    per span in input order, its trace id, an empty or duplicate id and a
    negative duration; then no root or a second one; a dangling parent,
    first in input order; a span the walk from the root does not reach,
    least id first; and a child outside its parent, first in input order."""
    n = len(ids)
    index = dict(zip(ids, range(n)))
    # each span's parent position; None for the root and a dangling parent
    up = [index.get(p) for p in parents]
    if not (tids.count(trace_id) == n and len(index) == n and all(ids)
            and min(durations) >= 0 and parents.count(None) == 1 and up.count(None) == 1):
        _refuse_spans(trace_id, ids, tids, parents, durations, index)
    root = up.index(None)

    # children are appended in arrival order, so each list is already
    # sorted; ids are unique, so the positions are never compared
    arrival = [i for _, _, i in sorted(zip(starts, ids, range(n)))]
    children: list[list[int]] = [[] for _ in ids]
    inside = True
    for i in arrival:
        p = up[i]
        if p is not None:
            children[p].append(i)
            start = starts[i]
            if start < starts[p] or start + durations[i] > starts[p] + durations[p]:
                inside = False

    # parent links form a tree iff the walk from the root reaches every
    # span; each span sits in one child list and the root in none, so the
    # walk ends, and a cycle shows up as unreachable spans
    order: list[int] = []
    visit, stack = order.append, [root]
    pop, push = stack.pop, stack.extend
    while stack:
        i = pop()
        # down the first children; later siblings wait on the stack
        while True:
            visit(i)
            kids = children[i]
            if not kids:
                break
            if len(kids) > 1:
                push(kids[:0:-1])
            i = kids[0]
    if len(order) != n:
        reached = set(order)
        missing = sorted(ids[i] for i in range(n) if i not in reached)
        raise InvariantViolationError(missing[0], "span not reachable from root")
    if not inside:
        bad = next(i for i, p in enumerate(up) if p is not None and (
            starts[i] < starts[p] or starts[i] + durations[i] > starts[p] + durations[p]))
        raise InvariantViolationError(ids[bad], "interval extends beyond parent")
    return index, arrival, children, order


def _refuse_spans(trace_id: str, ids, tids, parents, durations, index: dict) -> None:
    """Raise on the first fault of the per-span checks, the root and the
    parent links, in _tree's order; called only when there is one."""
    seen: set = set()
    roots = []
    for sid, tid, parent, duration in zip(ids, tids, parents, durations):
        if tid != trace_id:
            raise InvariantViolationError(
                sid, f"trace_id {tid!r} does not match record {trace_id!r}")
        if not sid:
            raise InvariantViolationError(sid, "empty span id")
        if sid in seen:
            raise InvariantViolationError(sid, "duplicate span id")
        if duration < 0:
            raise InvariantViolationError(sid, "negative duration")
        seen.add(sid)
        if parent is None:
            roots.append(sid)
    if not roots:
        raise InvariantViolationError(ids[0], "trace has no root span")
    if len(roots) > 1:
        raise InvariantViolationError(roots[1], "trace has multiple root spans")
    sid, parent = next((sid, parent) for sid, parent in zip(ids, parents)
                       if parent is not None and parent not in index)
    raise InvariantViolationError(sid, f"dangling parent {parent!r}")


def exclusive_durations(trace: Trace) -> list[int]:
    """Each span's duration minus the union of its direct children's
    intervals, which lie inside it, in input order, in one pass over the
    child lists. Children may overlap (async fan-out), so coverage is the
    interval union, and the result is never negative."""
    starts, durations = trace.starts, trace.durations
    out = list(durations)
    for i, kids in enumerate(trace.children):
        if kids:
            # children come in start order and lie inside the span (Trace
            # checks both): one sweep adds the part of each that lies past
            # the furthest end so far, and every added part lies inside it
            covered_to = starts[i]
            covered = 0
            for c in kids:
                lo = starts[c]
                end = lo + durations[c]
                if lo < covered_to:
                    lo = covered_to
                if end > lo:
                    covered += end - lo
                    covered_to = end
            out[i] -= covered
    return out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise MalformedDocumentError(msg)


def span_from_dict(obj: dict, trace_id: str | None = None) -> Span:
    """A span from its record; trace_id stands in for a record without one."""
    return Span(*_span_row(obj, trace_id))


def _span_row(obj, trace_id: str | None) -> tuple:
    """A span record's eight fields, in Span's order, its attributes copied.

    One combined test admits the common well-formed record; any other goes
    through the itemised checks, which accept it or name its first fault.
    """
    if type(obj) is dict:
        get = obj.get
        span_id, operation, service = get("span_id"), get("operation"), get("service")
        start, duration = get("start_time"), get("duration")
        tid, parent = get("trace_id", trace_id), get("parent_id")
        attrs = get("attributes", {})
        if (type(span_id) is str and type(operation) is str and type(service) is str
                and type(start) is int and type(duration) is int
                and type(tid) is str and tid and (parent is None or type(parent) is str)
                and type(attrs) is dict
                and (not attrs or all(type(k) is str and type(v) is str
                                      for k, v in attrs.items()))):
            return span_id, tid, parent, operation, service, start, duration, \
                dict(attrs) if attrs else {}
    return _checked_span_row(obj, trace_id)


def _checked_span_row(obj, trace_id: str | None) -> tuple:
    _require(isinstance(obj, dict), "span record must be an object")
    for key in ("span_id", "operation", "service", "start_time", "duration"):
        _require(key in obj, f"span record missing field {key!r}")
    tid = obj.get("trace_id", trace_id)
    _require(isinstance(tid, str) and bool(tid), "span record missing trace_id")
    _require(isinstance(obj["span_id"], str), "span_id must be a string")
    _require(isinstance(obj["operation"], str), "operation must be a string")
    _require(isinstance(obj["service"], str), "service must be a string")
    # a JSON boolean is a Python int, so the type is compared, as the fast path does
    _require(type(obj["start_time"]) is int, "start_time must be an integer")
    _require(type(obj["duration"]) is int, "duration must be an integer")
    parent = obj.get("parent_id")
    _require(parent is None or isinstance(parent, str), "parent_id must be a string or null")
    attrs = obj.get("attributes", {})
    _require(isinstance(attrs, dict), "attributes must be an object")
    for k, v in attrs.items():
        _require(isinstance(k, str) and isinstance(v, str), "attributes must map strings to strings")
    return (obj["span_id"], tid, parent, obj["operation"], obj["service"], obj["start_time"],
            obj["duration"], dict(attrs))


def parse_trace(document: str) -> Trace:
    """Parse one trace record; raises on bad syntax or broken invariants."""
    try:
        obj = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedDocumentError(f"invalid JSON: {exc}") from exc
    _require(isinstance(obj, dict), "trace record must be an object")
    _require("trace_id" in obj and isinstance(obj["trace_id"], str), "missing trace_id")
    records = obj.get("spans")
    _require(isinstance(records, list), "missing spans array")
    trace_id = obj["trace_id"]
    if not records:
        raise MalformedDocumentError(f"trace {trace_id!r} has no spans")
    return Trace._of_columns(trace_id, _columns(records, trace_id))


def _columns(records: list, trace_id: str) -> tuple:
    """The eight columns of a trace record's span records, in input order.

    One combined test admits records that carry all eight fields, each of
    its type; any other set goes record by record through _span_row, the
    one record check, which accepts a record without trace_id, parent_id or
    attributes and raises on the first fault of the first bad record.
    """
    try:
        # a list per field: a tuple per record would cost more memory than
        # it saves time
        columns = [list(map(field, records)) for field in _field_getters]
    except (KeyError, TypeError):  # a field missing, or a record not an object
        pass
    else:
        ids, tids, parents, ops, svcs, starts, durations, attrs = columns
        if (trace_id and tids.count(trace_id) == len(tids)
                and {*map(type, ids), *map(type, ops), *map(type, svcs)} == _STR
                and {*map(type, starts), *map(type, durations)} == _INT
                and {*map(type, parents)} <= _PARENT
                and {*map(type, attrs)} == _DICT
                # JSON object keys are strings
                and {*map(type, chain.from_iterable(map(dict.values, attrs)))} <= _STR):
            return columns
    return tuple(zip(*[_span_row(obj, trace_id) for obj in records]))


def serialize_trace(trace: Trace, positions=None) -> str:
    """A trace record line from the trace's columns: every span in input
    order, or the spans at positions, in their order; keys sorted, no
    spaces."""
    ids, parents, ops, svcs = trace.ids, trace.parent_ids, trace.operations, trace.services
    starts, durations, attrs = trace.starts, trace.durations, trace.attributes
    trace_id = trace.trace_id
    spans = [{"attributes": attrs[i], "duration": durations[i], "operation": ops[i],
              "parent_id": parents[i], "service": svcs[i], "span_id": ids[i],
              "start_time": starts[i], "trace_id": trace_id}
             for i in (range(len(ids)) if positions is None else positions)]
    return json.dumps({"spans": spans, "trace_id": trace_id}, sort_keys=True,
                      separators=(",", ":"))


def _span_records(line: str) -> tuple:
    """The trace id and the spans of a record line that need not hold a tree."""
    obj = json.loads(line)
    trace_id = obj["trace_id"]
    return trace_id, [span_from_dict(s, trace_id) for s in obj["spans"]]


# what a parser raises on a bad line: a record of the wrong shape, or one
# nested past the JSON decoder's limit
_LINE_FAULTS = (MalformedDocumentError, InvariantViolationError, ValueError, LookupError,
                TypeError, AttributeError, RecursionError)


def read_records(path, kind: str, parse=_span_records):
    """Yield (line number, parse(line)) for each non-blank line of the
    newline-delimited file at path; by default a line is a record of spans,
    parsed into its trace id and its spans. A line parse refuses raises a
    bad `kind` record error naming the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    record = parse(line)
                except _LINE_FAULTS as exc:
                    raise MalformedDocumentError(
                        f"{path}:{lineno}: bad {kind} record: {type(exc).__name__}: {exc}"
                    ) from exc
                yield lineno, record


def read_trace_file(path):
    """Yield the traces of a newline-delimited file; a line that is not a
    valid trace raises a bad trace record error naming the file and the line."""
    return (trace for _, trace in read_records(path, "trace", parse_trace))
