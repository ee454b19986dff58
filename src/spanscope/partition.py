"""Segmentation of an aligned trace into dominant span sets.

Walking the execution path in order, a cut is made after every step that
alignment marked with forks, i.e. a step followed by a transfer out of a node
with more than one flow successor. The forked step and everything
accumulated since the previous cut form one set; spans inserted by alignment
join the set of the step they follow. Each set is tagged with the step's
first fork target, the first block entered through the fork edge, which
identifies the branch taken; the leading segment is tagged "trunk". Steps
name spans by preorder slot, so one path serves every trace of its shape.

A segment that contains only skipped blocks witnesses no spans and yields no
set; this only happens on alignments with positive cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from .align import ExecutionPath
from .errors import PartitionMismatchError
from .model import Trace

TRUNK_TAG = "trunk"


@dataclass(frozen=True)
class DominantSpanSet:
    """Spans that witness one branch decision; keeping any one keeps the branch."""

    dss_id: str
    spans: tuple[str, ...]
    anchor: tuple[int, int]  # first and last step index covered
    branch_tag: str

    def __len__(self) -> int:
        return len(self.spans)


def partition(path: ExecutionPath, trace: Trace) -> list[DominantSpanSet]:
    """Cut the path after each forked step; pure function of (path, trace)."""
    order = trace.preorder
    sets: list[DominantSpanSet] = []
    spans: list[str] = []
    seg_start = 0
    tag = TRUNK_TAG

    def close(end_index: int) -> None:
        nonlocal spans, seg_start
        if spans:
            sets.append(DominantSpanSet(
                dss_id=f"{trace.trace_id}:d{len(sets)}",
                spans=tuple(spans),
                anchor=(seg_start, end_index),
                branch_tag=tag,
            ))
        spans = []
        seg_start = end_index + 1

    for index, step in enumerate(path.steps):
        if step.slot is not None:
            spans.append(order[step.slot].span_id)
        if step.forks:
            close(index)
            tag = step.forks[0]
    close(len(path.steps) - 1)

    covered = [s for d in sets for s in d.spans]
    if len(covered) != len(trace) or set(covered) != trace.span_ids():
        raise PartitionMismatchError(f"partition does not cover trace {trace.trace_id!r}")
    return sets


def dss_signature(dss_list: list[DominantSpanSet]) -> tuple[str, ...]:
    """Ordered branch tags; equal signatures mean the same branches were taken."""
    return tuple(d.branch_tag for d in dss_list)
