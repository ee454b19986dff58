"""Span and trace primitives plus the newline-delimited interchange format.

A trace file is newline-delimited JSON, one trace per line:

    {"trace_id": "...", "spans": [{"span_id": ..., "trace_id": ...,
      "parent_id": ..., "operation": "Class.FunctionName", "service": ...,
      "start_time": <int microseconds>, "duration": <int microseconds>,
      "attributes": {...}}, ...]}

Traces are immutable after parsing and safe to share across threads. A
child's interval must lie inside its parent's; no clock skew is tolerated.

``Span`` is a frozen slotted record. Its one constructor writes each slot
through the slot's member descriptor, past the frozen ``__setattr__``, so
parse, rebuild and the generators all build spans the same cheap way.
A trace's child lists come in arrival order, by (start_time, span_id);
``_exclusive`` relies on that order to take the union of child intervals
without sorting them.
"""

from __future__ import annotations

import json
from collections.abc import KeysView
from dataclasses import FrozenInstanceError, dataclass, field, fields
from operator import attrgetter

from .errors import InvariantViolationError, MalformedDocumentError, UnknownSpanError

SpanId = str

_arrival_key = attrgetter("start_time", "span_id")


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
    """A tree of spans with exactly one root.

    Construction validates the tree invariants, each child's interval
    inside its parent's included.
    ``arrival`` holds the spans in arrival order, by (start_time, span_id);
    ``child_spans`` lists each span's children in that same order.
    ``preorder`` holds the spans root first, each followed by its subtree,
    siblings in arrival order; it is the one tree walk every consumer reads.
    """

    def __init__(self, trace_id: str, spans: list[Span]):
        self.trace_id = trace_id
        self.spans = tuple(spans)
        self.arrival: tuple[Span, ...] = ()
        self.preorder: tuple[Span, ...] = ()
        self._by_id: dict[SpanId, Span] = {}
        self._children: dict[SpanId, tuple[Span, ...]] = {}
        self._root: Span | None = None
        self._validate()

    def _validate(self) -> None:
        spans, by_id = self.spans, self._by_id
        if not spans:
            raise MalformedDocumentError(f"trace {self.trace_id!r} has no spans")
        roots = []
        for s in spans:
            if s.trace_id != self.trace_id:
                raise InvariantViolationError(
                    s.span_id, f"trace_id {s.trace_id!r} does not match record {self.trace_id!r}"
                )
            if not s.span_id:
                raise InvariantViolationError(s.span_id, "empty span id")
            if s.span_id in by_id:
                raise InvariantViolationError(s.span_id, "duplicate span id")
            if s.duration < 0:
                raise InvariantViolationError(s.span_id, "negative duration")
            by_id[s.span_id] = s
            if s.parent_id is None:
                roots.append(s)

        if not roots:
            raise InvariantViolationError(spans[0].span_id, "trace has no root span")
        if len(roots) > 1:
            raise InvariantViolationError(roots[1].span_id, "trace has multiple root spans")
        self._root = roots[0]

        # children are appended in arrival order, so each list is already sorted
        arrival = sorted(spans, key=_arrival_key)
        kids: dict[SpanId, list[Span]] = {sid: [] for sid in by_id}
        for s in arrival:
            if s.parent_id is not None:
                siblings = kids.get(s.parent_id)
                if siblings is None:
                    # name the first dangling span in input order
                    bad = next(x for x in spans
                               if x.parent_id is not None and x.parent_id not in by_id)
                    raise InvariantViolationError(bad.span_id,
                                                  f"dangling parent {bad.parent_id!r}")
                siblings.append(s)

        # parent links form a tree iff the walk from the root reaches every
        # span; each span sits in one child list and the root in none, so the
        # walk ends, and a cycle shows up as unreachable spans
        preorder = []
        stack = [self._root]
        while stack:
            s = stack.pop()
            preorder.append(s)
            stack.extend(reversed(kids[s.span_id]))
        if len(preorder) != len(spans):
            missing = sorted(set(by_id) - {s.span_id for s in preorder})
            raise InvariantViolationError(missing[0], "span not reachable from root")

        for s in spans:
            if s.parent_id is None:
                continue
            parent = by_id[s.parent_id]
            start = s.start_time
            if (start < parent.start_time
                    or start + s.duration > parent.start_time + parent.duration):
                raise InvariantViolationError(s.span_id, "interval extends beyond parent")

        self.arrival = tuple(arrival)
        self.preorder = tuple(preorder)
        self._children = {sid: tuple(lst) for sid, lst in kids.items()}

    @property
    def root(self) -> Span:
        return self._root

    def __len__(self) -> int:
        return len(self.spans)

    def span(self, span_id: SpanId) -> Span:
        try:
            return self._by_id[span_id]
        except KeyError:
            raise UnknownSpanError(f"no span {span_id!r} in trace {self.trace_id!r}") from None

    def has_span(self, span_id: SpanId) -> bool:
        return span_id in self._by_id

    def child_spans(self, span_id: SpanId) -> tuple[Span, ...]:
        if span_id not in self._by_id:
            raise UnknownSpanError(f"no span {span_id!r} in trace {self.trace_id!r}")
        return self._children[span_id]

    def span_ids(self) -> KeysView[SpanId]:
        """The span ids as a read-only set view, without a copy."""
        return self._by_id.keys()


def _exclusive(span: Span, children: tuple[Span, ...]) -> int:
    # children come in start order and lie inside the span (Trace checks
    # both): one sweep adds the part of each that lies past the furthest end
    # so far. Every added part lies inside the span, so the result is >= 0.
    duration = span.duration
    covered_to = span.start_time
    covered = 0
    for c in children:
        lo = c.start_time
        end = lo + c.duration
        if lo < covered_to:
            lo = covered_to
        if end > lo:
            covered += end - lo
            covered_to = end
    return duration - covered


def exclusive_durations(trace: Trace) -> dict[SpanId, int]:
    """Each span's duration minus the union of its direct children's
    intervals, which lie inside it, in one pass over the child lists.
    Children may overlap (async fan-out), so coverage is the interval
    union, and the result is never negative."""
    out: dict[SpanId, int] = {}
    for span in trace.spans:
        kids = trace._children[span.span_id]
        out[span.span_id] = _exclusive(span, kids) if kids else span.duration
    return out


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise MalformedDocumentError(msg)


def span_from_dict(obj: dict, trace_id: str | None = None) -> Span:
    # one combined test admits the common well-formed record; any other goes
    # through the itemised checks, which accept or name the first problem
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
            return Span(span_id, tid, parent, operation, service, start, duration, dict(attrs))
    return _checked_span_from_dict(obj, trace_id)


def _checked_span_from_dict(obj: dict, trace_id: str | None = None) -> Span:
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
    return Span(
        span_id=obj["span_id"],
        trace_id=tid,
        parent_id=parent,
        operation=obj["operation"],
        service=obj["service"],
        start_time=obj["start_time"],
        duration=obj["duration"],
        attributes=dict(attrs),
    )


def parse_trace(document: str) -> Trace:
    """Parse one trace record; raises on bad syntax or broken invariants."""
    try:
        obj = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedDocumentError(f"invalid JSON: {exc}") from exc
    _require(isinstance(obj, dict), "trace record must be an object")
    _require("trace_id" in obj and isinstance(obj["trace_id"], str), "missing trace_id")
    _require(isinstance(obj.get("spans"), list), "missing spans array")
    spans = [span_from_dict(s, obj["trace_id"]) for s in obj["spans"]]
    return Trace(obj["trace_id"], spans)


def serialize_trace(trace: Trace) -> str:
    record = {
        "trace_id": trace.trace_id,
        "spans": [s.to_dict() for s in trace.spans],
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def bad_record(path, lineno: int, kind: str, exc: Exception) -> MalformedDocumentError:
    """The error for a bad `kind` record on line `lineno` of file `path`."""
    return MalformedDocumentError(
        f"{path}:{lineno}: bad {kind} record: {type(exc).__name__}: {exc}")


def read_trace_file(path):
    """Yield traces from a newline-delimited file; a line that is not a
    valid trace raises a bad_record error naming the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    trace = parse_trace(line)
                except (MalformedDocumentError, InvariantViolationError) as exc:
                    raise bad_record(path, lineno, "trace", exc) from exc
                yield trace
