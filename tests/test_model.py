import dataclasses
import json
import random

import pytest

import spanscope.model as model
from spanscope.cscfg import build_cscfg
from spanscope.errors import InvariantViolationError, MalformedDocumentError, UnknownSpanError
from spanscope.harness import SystemSpec, generate_system, generate_traces, make_default_faults
from spanscope.model import (
    Span,
    _checked_span_row,
    _span_row,
    exclusive_durations,
    parse_trace,
    serialize_trace,
    span_from_dict,
)

from .conftest import make_span, make_trace
from .oracles import (
    ReferenceTrace,
    interval_union_length,
    oracle_preorder_spans,
    reference_exclusive_durations,
    reference_parse_trace,
)


def child_ids(trace, span_id):
    return [c.span_id for c in trace.child_spans(span_id)]


def exclusive_by_id(trace):
    """exclusive_durations, which is in the trace's input order, by span id."""
    return dict(zip(trace.ids, exclusive_durations(trace)))


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
        assert exclusive_by_id(trace)["a"] == 100

    def test_two_disjoint_children(self):
        spans = [
            make_span("p", duration=100),
            make_span("c1", parent="p", start=0, duration=30),
            make_span("c2", parent="p", start=50, duration=20),
        ]
        trace = make_trace(spans)
        assert exclusive_by_id(trace)["p"] == 50

    def test_overlapping_children_use_union(self):
        spans = [
            make_span("p", duration=100),
            make_span("c1", parent="p", start=10, duration=30),  # [10, 40]
            make_span("c2", parent="p", start=30, duration=30),  # [30, 60]
        ]
        trace = make_trace(spans)
        assert exclusive_by_id(trace)["p"] == 100 - 50

    def test_unknown_span(self):
        trace = make_trace([make_span("a")])
        assert "zzz" not in exclusive_by_id(trace)
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
            assert exclusive_by_id(trace)["p"] == expected

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
            excl = exclusive_by_id(trace)
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
                assert outcome(_span_row, record, trace_id) == \
                    outcome(_checked_span_row, record, trace_id), record

    def test_well_formed_record_skips_itemised_checks(self, monkeypatch):
        def itemised(obj, trace_id=None):
            raise AssertionError("itemised checks ran")

        monkeypatch.setattr(model, "_checked_span_row", itemised)
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
            assert exclusive_by_id(trace) == expected


def generated_lines(seed, n=120):
    """Trace lines of a generated 6x8 system, as serialize_trace writes them."""
    spec = SystemSpec(seed=seed, n_services=6, n_functions_per_service=8,
                      url_span_probability=0.1)
    doc, meta = generate_system(spec)
    samples = generate_traces(build_cscfg(doc), meta, spec, n, make_default_faults(meta, n))
    return [serialize_trace(sample.trace) for sample in samples]


def read(parse, line):
    """The trace a reader makes of line, or the class and text of its error."""
    try:
        return parse(line)
    except Exception as exc:  # every error must match, whatever its class
        return (type(exc).__name__, str(exc))


def assert_same_trace(got, want):
    """got, a Trace, holds what want, a Trace or a ReferenceTrace, holds."""
    assert got.trace_id == want.trace_id and len(got) == len(want)
    assert got.spans == want.spans
    assert got.preorder == want.preorder and got.arrival == want.arrival
    assert got.root == want.root
    for sid in want.span_ids():
        assert got.span(sid) == want.span(sid)
        assert got.child_spans(sid) == want.child_spans(sid)
    assert exclusive_by_id(got) == (reference_exclusive_durations(want)
                                    if isinstance(want, ReferenceTrace)
                                    else exclusive_by_id(want))


def assert_reads_as_reference(line):
    got, want = read(parse_trace, line), read(reference_parse_trace, line)
    if isinstance(want, tuple):
        assert got == want, line
    else:
        assert not isinstance(got, tuple), (got, line)
        assert_same_trace(got, want)


def one_fault_records(record):
    """Copies of a well-formed trace record, each with one fault or one
    field left out, then a few with two faults in different spans."""
    spans = record["spans"]
    n = len(spans)
    # a span with a parent and, where there is one, a span with siblings
    child = next(j for j, s in enumerate(spans) if s["parent_id"] is not None)
    parent_of = {s["span_id"]: s for s in spans}
    fields = ("span_id", "trace_id", "parent_id", "operation", "service", "start_time",
              "duration", "attributes")

    def edited(edit):
        out = json.loads(json.dumps(record))
        edit(out, out["spans"])
        return out

    for j in sorted({0, child, n - 1}):
        for name in fields:
            yield edited(lambda r, ss, j=j, name=name: ss[j].pop(name))
            for wrong in (None, True, False, 1, -1, 2.0, "", "x", [], {}):
                yield edited(lambda r, ss, j=j, name=name, wrong=wrong:
                             ss[j].__setitem__(name, wrong))
        for attrs in ({"k": 1}, {"k": None}, {"k": True}, {"a": "b", "k": ["v"]}):
            yield edited(lambda r, ss, j=j, attrs=attrs: ss[j].__setitem__("attributes", attrs))
        for not_an_object in (["a"], "a", 3, None):
            yield edited(lambda r, ss, j=j, bad=not_an_object: ss.__setitem__(j, bad))
        yield edited(lambda r, ss, j=j: ss[j].__setitem__("span_id", ""))
        yield edited(lambda r, ss, j=j: ss[j].__setitem__("span_id", ss[(j + 1) % n]["span_id"]))
        yield edited(lambda r, ss, j=j: ss[j].__setitem__("duration", -1))
        yield edited(lambda r, ss, j=j: ss[j].__setitem__("parent_id", None))
        yield edited(lambda r, ss, j=j: ss[j].__setitem__("parent_id", "nope"))
        yield edited(lambda r, ss, j=j: ss[j].__setitem__("trace_id", "other"))
    # no root: the root's parent is one of its children, which makes a cycle
    yield edited(lambda r, ss: ss[0].__setitem__("parent_id", ss[child]["span_id"]))
    # a cycle apart from the root
    if n > 2:
        yield edited(lambda r, ss: (ss[1].__setitem__("parent_id", ss[2]["span_id"]),
                                    ss[2].__setitem__("parent_id", ss[1]["span_id"])))
    # a child that starts before its parent, and one that ends after it
    start = parent_of[spans[child]["parent_id"]]["start_time"]
    yield edited(lambda r, ss: ss[child].__setitem__("start_time", start - 1))
    yield edited(lambda r, ss: ss[child].__setitem__("duration", 10**12))
    # two faults in one span: the first check in order is the one named
    yield edited(lambda r, ss: (ss[child].__setitem__("span_id", ss[0]["span_id"]),
                                ss[child].__setitem__("duration", -1)))
    yield edited(lambda r, ss: (ss[child].__setitem__("trace_id", "other"),
                                ss[child].__setitem__("span_id", "")))
    # two faults: the first in input order is the one named
    yield edited(lambda r, ss: (ss[n - 1].__setitem__("duration", -1),
                                ss[child].__setitem__("parent_id", "nope")))
    yield edited(lambda r, ss: (ss[n - 1].__setitem__("start_time", True),
                                ss[child].pop("service")))
    yield edited(lambda r, ss: (ss[n - 1].__setitem__("span_id", ""),
                                ss[child].__setitem__("trace_id", "other")))
    # faults of the record itself
    for spans_value in ({}, "x", None, [], [[]]):
        yield edited(lambda r, ss, v=spans_value: r.__setitem__("spans", v))
    yield edited(lambda r, ss: r.pop("spans"))
    for trace_id in ("", 7, None):
        yield edited(lambda r, ss, v=trace_id: r.__setitem__("trace_id", v))


def stripped(record):
    """The record as exporters write it: no parent_id on the root, no
    per-span trace_id, and no empty attributes."""
    out = json.loads(json.dumps(record))
    for span in out["spans"]:
        del span["trace_id"]
        if span["parent_id"] is None:
            del span["parent_id"]
        if not span["attributes"]:
            del span["attributes"]
    return out


class TestColumnReader:
    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_generated_lines_read_as_the_reference_reads_them(self, seed):
        rng = random.Random(seed)
        lines = generated_lines(seed)
        for line in lines:
            assert_reads_as_reference(line)
            # the same spans in another input order
            record = json.loads(line)
            rng.shuffle(record["spans"])
            assert_reads_as_reference(json.dumps(record))

    def test_each_fault_is_named_as_the_reference_names_it(self):
        record = json.loads(max(generated_lines(7, 40), key=len))
        errors = set()
        for bad in one_fault_records(record):
            line = json.dumps(bad)
            assert_reads_as_reference(line)
            want = read(reference_parse_trace, line)
            if isinstance(want, tuple):
                errors.add(want[0] + ": " + want[1].split(":")[0])
        for line in ("{nope", "[]", "[" * 100_000, '{"trace_id": "t"}'):
            assert_reads_as_reference(line)
        # both classes of fault and each itemised check show up
        assert {e.split(":")[0] for e in errors} == {"MalformedDocumentError",
                                                     "InvariantViolationError"}
        assert len(errors) > 10

    def test_a_stripped_line_reads_as_the_full_line(self):
        for seed in (7, 11, 23):
            for line in generated_lines(seed, 40):
                record = json.loads(line)
                short = parse_trace(json.dumps(stripped(record)))
                assert_same_trace(short, parse_trace(line))
                assert_same_trace(short, reference_parse_trace(line))

    def test_trace_of_spans_and_of_columns_agree(self):
        for line in generated_lines(11, 40):
            trace = parse_trace(line)
            assert_same_trace(make_trace(list(trace.spans), trace.trace_id), trace)
