"""Resolution of spans to functions.

A span's operation name is expected in Class.FunctionName form; its service
field names the deployment unit. Exact per-service matches win; functions of
shared libraries (service sentinel "SHARED") are found through a dictionary
keyed by class and function alone, because their spans inherit the caller's
service metadata. Spans that resolve to nothing are reported as Unmapped
values that carry the reason, never dropped silently; the map keeps no
record of its misses, so counting them by reason is left to whoever holds
the resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cscfg import SHARED_SERVICE, Cscfg, FunctionRef
from .errors import DuplicateSharedEntryError

REASON_NO_FUNCTION_FORM = "no-function-form"
REASON_UNKNOWN_SERVICE = "unknown-service"
REASON_UNKNOWN_FUNCTION = "unknown-function"

# (service, operation) pairs a memo holds at most; it is emptied when full
RESOLVE_MEMO_CAPACITY = 4096


@dataclass(frozen=True)
class Unmapped:
    """Resolution miss; a value, not an error."""

    reason: str


def normalize_operation(operation: str) -> tuple[str, str] | None:
    """Split an operation name into (class, function); None if not in form.

    Signatures after '(' and template brackets are stripped, the split is on
    the last remaining dot. Matching stays case-sensitive.
    """
    op = operation.split("(", 1)[0]
    if "<" in op:
        out = []
        depth = 0
        for ch in op:
            if ch == "<":
                depth += 1
            elif ch == ">":
                depth = max(0, depth - 1)
            elif depth == 0:
                out.append(ch)
        op = "".join(out)
    op = op.strip()
    if "." not in op:
        return None
    class_name, function_name = op.rsplit(".", 1)
    if not class_name or not function_name:
        return None
    return class_name, function_name


class SpanFunctionMap:
    """Immutable resolver built from a graph plus a shared-library dictionary.

    resolve() is a pure function of the map and a span's service and
    operation. It memoises mapped (service, operation) pairs, up to
    RESOLVE_MEMO_CAPACITY of them, and that memo is its only mutable state;
    misses are resolved every time. The sampling pipeline keeps its own
    memo of each pair's resolution and scoring key in front of this one,
    so it asks the map once per distinct pair; rebuild and the fidelity
    check ask per span. Like the pipeline that owns it, a map is used from
    one thread.
    """

    def __init__(self, service_index: dict[str, dict[tuple[str, str], FunctionRef]],
                 shared: dict[tuple[str, str], FunctionRef]):
        self._service_index = service_index
        self._shared = shared
        self._memo: dict[tuple[str, str], FunctionRef] = {}

    def resolve(self, service: str, operation: str) -> FunctionRef | Unmapped:
        key = (service, operation)
        ref = self._memo.get(key)
        if ref is None:
            ref = self._lookup(service, operation)
            if isinstance(ref, FunctionRef):
                if len(self._memo) >= RESOLVE_MEMO_CAPACITY:
                    self._memo.clear()
                self._memo[key] = ref
        return ref

    def _lookup(self, service: str, operation: str) -> FunctionRef | Unmapped:
        parsed = normalize_operation(operation)
        if parsed is None:
            return Unmapped(REASON_NO_FUNCTION_FORM)
        local = self._service_index.get(service)
        if local is not None:
            ref = local.get(parsed)
            if ref is not None:
                return ref
        shared_ref = self._shared.get(parsed)
        if shared_ref is not None:
            return shared_ref
        if local is None:
            return Unmapped(REASON_UNKNOWN_SERVICE)
        return Unmapped(REASON_UNKNOWN_FUNCTION)


def build_map(graph: Cscfg, shared_entries: list[FunctionRef] | None = None) -> SpanFunctionMap:
    """Index every function the graph knows about, plus shared dictionary entries."""
    service_index: dict[str, dict[tuple[str, str], FunctionRef]] = {}
    shared: dict[tuple[str, str], FunctionRef] = {}

    def index(ref: FunctionRef) -> None:
        key = (ref.class_name, ref.function_name)
        if ref.service == SHARED_SERVICE:
            shared.setdefault(key, ref)
        else:
            service_index.setdefault(ref.service, {}).setdefault(key, ref)

    for fn_key in sorted(graph.functions):
        index(graph.functions[fn_key])
    for fn_key in sorted(graph.external):
        index(graph.external[fn_key])

    seen: set[tuple[str, str]] = set()
    for ref in shared_entries or []:
        if ref.service != SHARED_SERVICE:
            ref = FunctionRef(SHARED_SERVICE, ref.class_name, ref.function_name)
        key = (ref.class_name, ref.function_name)
        if key in seen:
            raise DuplicateSharedEntryError(
                f"shared dictionary lists {ref.class_name}.{ref.function_name} twice"
            )
        seen.add(key)
        shared.setdefault(key, ref)

    return SpanFunctionMap(service_index, shared)


def load_shared_dictionary(path) -> list[FunctionRef]:
    """Shared-dictionary file: JSON list of {class_name, function_name}."""
    import json

    from .errors import MalformedDocumentError

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise MalformedDocumentError(f"{path}: bad shared dictionary: {exc}") from exc
    if not isinstance(data, list):
        raise MalformedDocumentError(f"{path}: shared dictionary must be a JSON list")
    refs = []
    for item in data:
        if not (isinstance(item, dict) and type(item.get("class_name")) is str
                and type(item.get("function_name")) is str
                and item["class_name"] and item["function_name"]):
            raise MalformedDocumentError(
                f"{path}: bad shared dictionary entry {item!r}: class_name and "
                f"function_name must be non-empty strings")
        refs.append(FunctionRef(SHARED_SERVICE, item["class_name"], item["function_name"]))
    return refs
