import dataclasses
import json
import random

import pytest

import spanscope.model as model
from spanscope.errors import InvariantViolationError, MalformedDocumentError, UnknownSpanError
from spanscope.model import (
    Span,
    _checked_span_from_dict,
    exclusive_durations,
    parse_trace,
    serialize_trace,
    span_from_dict,
)

from .conftest import make_span, make_trace
from .oracles import interval_union_length, oracle_preorder_spans


def child_ids(trace, span_id):
    return [c.span_id for c in trace.child_spans(span_id)]


def fig2_trace():
    # root with two children, mirroring a three-function call tree
    root = make_span("s1", operation="OrderService.getTicketListByDateAndTripId",
                     start=0, duration=100)
    c1 = make_span("s2", parent="s1", operation="Seat.getTravelDate", start=10, duration=20)
    c2 = make_span("s3", parent="s1", operation="Seat.getSoldTickets", start=40, duration=30)
    return make_trace([root, c1, c2])


class TestParse:
    def test_single_span_document(self):
        doc = json.dumps({"trace_id": "t1", "spans": [make_span("a").to_dict()]})
        trace = parse_trace(doc)
        assert len(trace) == 1
        assert trace.root.span_id == "a"
        assert trace.root.parent_id is None

    def test_three_span_tree(self):
        trace = fig2_trace()
        doc = serialize_trace(trace)
        parsed = parse_trace(doc)
        assert len(child_ids(parsed, "s1")) == 2
        assert parsed.root.span_id == "s1"

    def test_dangling_parent_names_span(self):
        spans = [make_span("a"), make_span("b", parent="nope", start=1, duration=2)]
        with pytest.raises(InvariantViolationError) as err:
            make_trace(spans)
        assert err.value.span_id == "b"

    def test_dangling_parent_named_in_input_order(self):
        spans = [make_span("r"), make_span("z", parent="gone", start=9, duration=1),
                 make_span("a", parent="lost", start=1, duration=1)]
        with pytest.raises(InvariantViolationError) as err:
            make_trace(spans)
        assert err.value.span_id == "z"

    def test_multiple_roots_rejected(self):
        with pytest.raises(InvariantViolationError):
            make_trace([make_span("a"), make_span("b")])

    def test_cycle_rejected(self):
        spans = [
            make_span("a"),
            make_span("b", parent="c", start=1, duration=1),
            make_span("c", parent="b", start=1, duration=1),
        ]
        with pytest.raises(InvariantViolationError):
            make_trace(spans)

    def test_negative_duration_rejected(self):
        with pytest.raises(InvariantViolationError):
            make_trace([make_span("a", duration=-1)])

    def test_child_outside_parent_rejected(self):
        spans = [make_span("a", duration=50), make_span("b", parent="a", start=40, duration=20)]
        with pytest.raises(InvariantViolationError):
            make_trace(spans)

    def test_bad_json_is_malformed(self):
        with pytest.raises(MalformedDocumentError):
            parse_trace("{nope")

    def test_missing_fields_malformed(self):
        with pytest.raises(MalformedDocumentError):
            parse_trace(json.dumps({"trace_id": "t", "spans": [{"span_id": "a"}]}))

    def test_round_trip_identity(self):
        trace = fig2_trace()
        doc = serialize_trace(trace)
        again = serialize_trace(parse_trace(doc))
        assert doc == again


class TestExclusiveDuration:
    def test_leaf(self):
        trace = make_trace([make_span("a", duration=100)])
        assert exclusive_durations(trace)["a"] == 100

    def test_two_disjoint_children(self):
        spans = [
            make_span("p", duration=100),
            make_span("c1", parent="p", start=0, duration=30),
            make_span("c2", parent="p", start=50, duration=20),
        ]
        trace = make_trace(spans)
        assert exclusive_durations(trace)["p"] == 50

    def test_overlapping_children_use_union(self):
        spans = [
            make_span("p", duration=100),
            make_span("c1", parent="p", start=10, duration=30),  # [10, 40]
            make_span("c2", parent="p", start=30, duration=30),  # [30, 60]
        ]
        trace = make_trace(spans)
        assert exclusive_durations(trace)["p"] == 100 - 50

    def test_unknown_span(self):
        trace = make_trace([make_span("a")])
        assert "zzz" not in exclusive_durations(trace)
        with pytest.raises(UnknownSpanError):
            trace.child_spans("zzz")

    def test_against_interval_union_oracle_random(self):
        rng = random.Random(11)
        for _ in range(300):
            dur = rng.randint(10, 200)
            spans = [make_span("p", duration=dur)]
            intervals = []
            for i in range(rng.randint(0, 6)):
                start = rng.randint(0, dur - 1)
                width = rng.randint(0, dur - start)
                spans.append(make_span(f"c{i}", parent="p", start=start, duration=width))
                intervals.append((start, start + width))
            trace = make_trace(spans)
            expected = max(0, dur - interval_union_length(intervals))
            assert exclusive_durations(trace)["p"] == expected

    def test_exclusive_never_exceeds_duration_and_sums_bounded(self):
        rng = random.Random(7)
        for _ in range(100):
            spans = [make_span("root", duration=1000)]
            counter = 0
            frontier = [("root", 0, 1000)]
            while frontier and counter < 12:
                parent, lo, hi = frontier.pop()
                if hi - lo < 4 or rng.random() < 0.3:
                    continue
                mid = rng.randint(lo + 1, hi - 1)
                counter += 1
                sid = f"s{counter}"
                spans.append(make_span(sid, parent=parent, start=lo, duration=mid - lo))
                frontier.append((sid, lo, mid))
            trace = make_trace(spans)
            excl = exclusive_durations(trace)
            for span in trace.spans:
                assert 0 <= excl[span.span_id] <= span.duration
            assert sum(excl.values()) <= trace.root.duration


class TestChildren:
    def test_order_by_start_time(self):
        trace = fig2_trace()
        assert child_ids(trace, "s1") == ["s2", "s3"]

    def test_leaf_has_no_children(self):
        trace = fig2_trace()
        assert child_ids(trace, "s2") == []

    def test_tie_broken_by_span_id(self):
        spans = [
            make_span("p", duration=100),
            make_span("zz", parent="p", start=10, duration=5),
            make_span("aa", parent="p", start=10, duration=5),
        ]
        trace = make_trace(spans)
        assert child_ids(trace, "p") == ["aa", "zz"]

    def test_preorder_contains_all_spans_once(self):
        trace = fig2_trace()
        order = [s.span_id for s in trace.preorder]
        assert order == ["s1", "s2", "s3"]


GOOD_RECORD = {"span_id": "a", "trace_id": "t1", "parent_id": "p", "operation": "C.f",
               "service": "svc", "start_time": 5, "duration": 7, "attributes": {"k": "v"}}


class _Str(str):
    pass


class _Dict(dict):
    pass


def span_records():
    """The well-formed record, then every field missing or of a wrong type."""
    yield dict(GOOD_RECORD)
    yield {k: v for k, v in GOOD_RECORD.items() if k not in ("parent_id", "attributes")}
    for bad in (None, "a", ["a"], 3, _Dict(GOOD_RECORD)):
        yield bad
    for name in GOOD_RECORD:
        yield {k: v for k, v in GOOD_RECORD.items() if k != name}
        for wrong in (None, True, False, 1, 2.0, -1, "", "x", _Str("x"), [], {}, _Dict()):
            yield {**GOOD_RECORD, name: wrong}
    for attrs in ({"k": 1}, {"k": None}, {"k": True}, {1: "v"}, {"k": _Str("v")},
                  {"a": "b", "k": ["v"]}, _Dict(k="v")):
        yield {**GOOD_RECORD, "attributes": attrs}


def outcome(parse, record, trace_id):
    try:
        return repr(parse(record, trace_id))
    except MalformedDocumentError as exc:
        return f"MalformedDocumentError: {exc}"


class TestSpanRecords:
    def test_fast_path_matches_itemised_checks(self):
        records = list(span_records())
        assert len(records) > 100
        for record in records:
            for trace_id in (None, "t9"):
                assert outcome(span_from_dict, record, trace_id) == \
                    outcome(_checked_span_from_dict, record, trace_id), record

    def test_well_formed_record_skips_itemised_checks(self, monkeypatch):
        def itemised(obj, trace_id=None):
            raise AssertionError("itemised checks ran")

        monkeypatch.setattr(model, "_checked_span_from_dict", itemised)
        span = span_from_dict(dict(GOOD_RECORD))
        assert span.to_dict() == GOOD_RECORD

    def test_with_parent_equals_replace_and_shares_attributes(self):
        span = make_span("b", parent="a", start=3, duration=7, attributes={"k": "v"})
        moved = span.with_parent("root")
        assert moved == dataclasses.replace(span, parent_id="root")
        assert moved.attributes is span.attributes
        assert span.with_parent(None) == dataclasses.replace(span, parent_id=None)

    def test_span_stays_a_frozen_dataclass_record(self):
        span = Span("b", "t1", "a", "C.f", "svc", 3, 7, {"k": "v"})
        assert [f.name for f in dataclasses.fields(Span)] == \
            ["span_id", "trace_id", "parent_id", "operation", "service",
             "start_time", "duration", "attributes"]
        assert repr(span) == ("Span(span_id='b', trace_id='t1', parent_id='a', "
                              "operation='C.f', service='svc', start_time=3, duration=7, "
                              "attributes={'k': 'v'})")
        # a name that is not a field is refused the same way
        for name in ("span_id", "duration", "attributes", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(span, name, "x")
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(span, name)
        assert span == Span("b", "t1", "a", "C.f", "svc", 3, 7, {"k": "v"})
        for name, other in (("span_id", "c"), ("trace_id", "t2"), ("parent_id", None),
                            ("operation", "C.g"), ("service", "svc2"), ("start_time", 4),
                            ("duration", 8), ("attributes", {"k": "w"})):
            assert span != dataclasses.replace(span, **{name: other}), name
        keyword = Span(span_id="b", trace_id="t1", parent_id="a", operation="C.f",
                       service="svc", start_time=3, duration=7, attributes={"k": "v"})
        assert keyword == span and dataclasses.astuple(keyword) == \
            ("b", "t1", "a", "C.f", "svc", 3, 7, {"k": "v"})
        bare, twin = (Span("r", "t1", None, "C.f", "svc", 0, 1) for _ in range(2))
        assert bare.attributes == {} and bare.attributes is not twin.attributes

    def test_bool_for_an_integer_field_is_refused(self):
        # a JSON boolean is a Python int, so an isinstance check would let it by
        for field in ("start_time", "duration"):
            record = {"trace_id": "t1", "spans": [{**GOOD_RECORD, "parent_id": None,
                                                   field: True}]}
            with pytest.raises(MalformedDocumentError, match=f"{field} must be an integer"):
                parse_trace(json.dumps(record))


def random_tree(rng, n):
    """Spans in shuffled input order; many share a start time, and children
    may overlap each other but lie inside their parent."""
    spans = [make_span("root", start=0, duration=rng.randint(0, 200))]
    for i in range(1, n):
        parent = rng.choice(spans)
        lo, hi = parent.start_time, parent.end_time
        # two draws in three start the child with its parent
        start = rng.choice((lo, lo, rng.randint(lo, hi)))
        sid = f"{rng.choice('abc')}{rng.randrange(1000)}-{i}"
        spans.append(make_span(sid, parent=parent.span_id, start=start,
                               duration=rng.randint(0, hi - start)))
    rng.shuffle(spans)
    return make_trace(spans)


def by_arrival(spans):
    return tuple(sorted(spans, key=lambda s: (s.start_time, s.span_id)))


class TestArrival:
    def test_arrival_and_child_lists_match_a_per_parent_sort(self):
        rng = random.Random(31)
        for _ in range(300):
            trace = random_tree(rng, rng.randint(1, 40))
            assert trace.arrival == by_arrival(trace.spans)
            for span in trace.spans:
                kids = [c for c in trace.spans if c.parent_id == span.span_id]
                assert trace.child_spans(span.span_id) == by_arrival(kids)

    def test_preorder_matches_the_recursive_reference(self):
        rng = random.Random(33)
        for _ in range(300):
            trace = random_tree(rng, rng.randint(1, 40))
            assert trace.preorder == tuple(oracle_preorder_spans(trace))

    def test_exclusive_durations_match_per_span_and_oracle(self):
        rng = random.Random(32)
        for _ in range(300):
            trace = random_tree(rng, rng.randint(1, 40))
            expected = {}
            for s in trace.spans:
                clipped = [(max(c.start_time, s.start_time), min(c.end_time, s.end_time))
                           for c in trace.spans if c.parent_id == s.span_id]
                expected[s.span_id] = max(0, s.duration - interval_union_length(clipped))
            assert exclusive_durations(trace) == expected
