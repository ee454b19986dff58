import pytest

from spanscope.cscfg import SHARED_SERVICE, FunctionRef, build_cscfg
from spanscope.errors import DuplicateSharedEntryError
from spanscope.mapping import (
    REASON_NO_FUNCTION_FORM,
    REASON_UNKNOWN_FUNCTION,
    REASON_UNKNOWN_SERVICE,
    RESOLVE_MEMO_CAPACITY,
    Unmapped,
    build_map,
    normalize_operation,
)

from .conftest import make_span, single_function_doc


def order_graph():
    doc = single_function_doc(
        fn="ts-order-service:OrderService.getTicketListByDateAndTripId",
        blocks=[{"id": "b0", "callees": ["SHARED:Common.checkToken"]}],
        edges=[], entry="b0", exits=["b0"],
        extra_functions=[{"function": "SHARED:Common.checkToken"}],
    )
    return build_cscfg(doc)


class TestNormalize:
    def test_plain(self):
        assert normalize_operation("OrderService.create") == ("OrderService", "create")

    def test_signature_stripped(self):
        assert normalize_operation("C.f(int, long)") == ("C", "f")

    def test_template_brackets_stripped(self):
        assert normalize_operation("Repo<Order>.save") == ("Repo", "save")

    def test_url_style_is_none(self):
        assert normalize_operation("GET /api/v1/orders") is None

    def test_last_dot_wins(self):
        assert normalize_operation("pkg.sub.Class.fn") == ("pkg.sub.Class", "fn")


class TestResolve:
    def test_exact_service_match(self):
        mapping = build_map(order_graph())
        span = make_span("s", operation="OrderService.getTicketListByDateAndTripId",
                         service="ts-order-service")
        ref = mapping.resolve(span.service, span.operation)
        assert isinstance(ref, FunctionRef)
        assert ref.service == "ts-order-service"

    def test_shared_library_resolved_with_caller_service(self):
        mapping = build_map(order_graph())
        span = make_span("s", operation="Common.checkToken", service="ts-order-service")
        ref = mapping.resolve(span.service, span.operation)
        assert isinstance(ref, FunctionRef)
        assert ref.service == SHARED_SERVICE

    def test_url_span_unmapped(self):
        mapping = build_map(order_graph())
        span = make_span("s", operation="GET /api/v1/orders", service="ts-order-service")
        res = mapping.resolve(span.service, span.operation)
        assert res == Unmapped(REASON_NO_FUNCTION_FORM)

    def test_unknown_service(self):
        mapping = build_map(order_graph())
        span = make_span("s", operation="C.f", service="nowhere")
        assert mapping.resolve(span.service, span.operation) == Unmapped(REASON_UNKNOWN_SERVICE)

    def test_unknown_function(self):
        mapping = build_map(order_graph())
        span = make_span("s", operation="OrderService.zzz", service="ts-order-service")
        assert mapping.resolve(span.service, span.operation) == Unmapped(REASON_UNKNOWN_FUNCTION)

    def test_case_sensitive(self):
        mapping = build_map(order_graph())
        span = make_span("s", operation="orderservice.getTicketListByDateAndTripId",
                         service="ts-order-service")
        assert isinstance(mapping.resolve(span.service, span.operation), Unmapped)

    def test_deterministic_pure(self):
        mapping = build_map(order_graph())
        span = make_span("s", operation="OrderService.getTicketListByDateAndTripId",
                         service="ts-order-service")
        assert mapping.resolve(span.service, span.operation) == \
            mapping.resolve(span.service, span.operation)

    def test_every_span_resolves_or_names_its_reason(self):
        mapping = build_map(order_graph())
        spans = [
            make_span("a", operation="OrderService.getTicketListByDateAndTripId",
                      service="ts-order-service"),
            make_span("b", operation="GET /x", service="ts-order-service"),
            make_span("c", operation="C.f", service="zzz"),
        ]
        got = [mapping.resolve(s.service, s.operation) for s in spans]
        assert isinstance(got[0], FunctionRef)
        assert got[1:] == [Unmapped(REASON_NO_FUNCTION_FORM), Unmapped(REASON_UNKNOWN_SERVICE)]

    def test_misses_leave_the_map_unchanged(self):
        mapping = build_map(order_graph())
        before = {name: dict(value) for name, value in vars(mapping).items()}
        misses = [("GET /x", "ts-order-service", REASON_NO_FUNCTION_FORM),
                  ("C.f", "zzz", REASON_UNKNOWN_SERVICE),
                  ("OrderService.zzz", "ts-order-service", REASON_UNKNOWN_FUNCTION)]
        for i in range(10_000):
            op, service, reason = misses[i % 3]
            assert mapping.resolve(service, op) == Unmapped(reason)
        assert vars(mapping) == before

    def test_memo_is_bounded_and_misses_are_resolved_every_time(self):
        mapping = build_map(order_graph())
        peak = 0
        for i in range(10_000):
            op = ("OrderService.getTicketListByDateAndTripId" if i % 2 else "Common.checkToken")
            span = make_span(f"s{i}", operation=f"{op}(x{i})", service="ts-order-service")
            ref = mapping.resolve(span.service, span.operation)
            assert isinstance(ref, FunctionRef)
            assert ref is mapping._lookup(span.service, span.operation)
            assert mapping.resolve(span.service, span.operation) is ref
            peak = max(peak, len(mapping._memo))
            assert len(mapping._memo) <= RESOLVE_MEMO_CAPACITY
        assert peak == RESOLVE_MEMO_CAPACITY
        miss = ("ts-order-service", "OrderService.zzz(x1)")
        for _ in range(5):
            assert mapping._lookup(*miss) == Unmapped(REASON_UNKNOWN_FUNCTION)
            assert mapping.resolve(*miss) == Unmapped(REASON_UNKNOWN_FUNCTION)
            assert ("ts-order-service", "OrderService.zzz(x1)") not in mapping._memo


class TestBuildMap:
    def test_empty_graph_resolves_nothing(self):
        graph = build_cscfg({"schema_version": 1, "functions": [], "external_functions": []})
        mapping = build_map(graph)
        assert isinstance(mapping.resolve("svc", "C.f"), Unmapped)

    def test_shared_precedence_never_overrides_local(self):
        doc = single_function_doc(
            fn="svc:C.f",
            blocks=[{"id": "b0", "callees": ["x:Leaf.g"]}],
            edges=[], entry="b0", exits=["b0"],
            external=["x:Leaf.g"],
        )
        graph = build_cscfg(doc)
        shared = [FunctionRef(SHARED_SERVICE, "C", "f")]
        mapping = build_map(graph, shared)
        ref = mapping.resolve("svc", "C.f")
        assert ref.service == "svc"
        # the shared entry still answers for other services
        ref2 = mapping.resolve("other", "C.f")
        assert ref2.service == SHARED_SERVICE

    def test_duplicate_shared_entry_rejected(self):
        graph = build_cscfg({"schema_version": 1, "functions": [], "external_functions": []})
        shared = [FunctionRef(SHARED_SERVICE, "C", "f"), FunctionRef(SHARED_SERVICE, "C", "f")]
        with pytest.raises(DuplicateSharedEntryError):
            build_map(graph, shared)
