"""Dominant span sets of an aligned trace, named by span id.

Alignment cuts the sets once per trace shape and caches them on the path
as preorder slots with their tags (see `spanscope.align`); partition only
names each slot's span. A set's tag is the fork target that opened it, the
first block entered through the fork edge, which identifies the branch
taken; the leading set is tagged TRUNK_TAG. Alignment puts every span in
exactly one set, so the sets cover the trace; the sampler reads the slots
and tags on the path itself and checks that the slots cover the trace. The
named sets serve readers that want span ids (`TraceResult.dss_list`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .align import TRUNK_TAG, ExecutionPath
from .model import Trace

__all__ = ["TRUNK_TAG", "DominantSpanSet", "partition"]


@dataclass(frozen=True)
class DominantSpanSet:
    """The spans of one path segment, in path order; the sampler keeps at
    least one of them. The segment's tag stays on the path."""

    spans: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.spans)


def partition(path: ExecutionPath, trace: Trace) -> list[DominantSpanSet]:
    """The path's sets, in path order, with their slots named by span id;
    pure function of (path, trace)."""
    ids, order = trace.ids, trace.order
    return [DominantSpanSet(tuple([ids[order[slot]] for slot in slots]))
            for slots, _ in path.sets]
