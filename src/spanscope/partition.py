"""Segmentation of an aligned trace into dominant span sets.

Walking the execution path's (slot, forks) steps in order, a cut is made
after every step that alignment marked with forks, i.e. a step followed by a transfer out of a node
with more than one flow successor. The forked step and everything
accumulated since the previous cut form one set; spans inserted by alignment
join the set of the step they follow. Each set is tagged with the step's
first fork target, the first block entered through the fork edge, which
identifies the branch taken; the leading segment is tagged "trunk". Steps
name spans by preorder slot, so one path serves every trace of its shape.

A segment that contains only skipped blocks witnesses no spans and yields no
set; this only happens on alignments with positive cost. Alignment puts
every span on exactly one step, so the sets cover the trace; the sampler
checks its own input again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .align import ExecutionPath
from .model import Trace

TRUNK_TAG = "trunk"


@dataclass(frozen=True)
class DominantSpanSet:
    """The spans of one path segment, in path order, and the tag of the
    branch that opened the segment; the sampler keeps at least one of them."""

    dss_id: str
    spans: tuple[str, ...]
    branch_tag: str

    def __len__(self) -> int:
        return len(self.spans)


def partition(path: ExecutionPath, trace: Trace) -> list[DominantSpanSet]:
    """Cut the path after each forked step; pure function of (path, trace)."""
    order = trace.preorder
    sets: list[DominantSpanSet] = []
    spans: list[str] = []
    tag = TRUNK_TAG
    for slot, forks in path.steps:
        if slot is not None:
            spans.append(order[slot].span_id)
        if forks:
            if spans:
                sets.append(DominantSpanSet(f"{trace.trace_id}:d{len(sets)}", tuple(spans), tag))
                spans = []
            tag = forks[0]
    if spans:
        sets.append(DominantSpanSet(f"{trace.trace_id}:d{len(sets)}", tuple(spans), tag))
    return sets
