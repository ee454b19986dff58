"""Span selection under a budget, one decision per trace.

The budget is split across dominant span sets: every set gets at least one
slot, and when floor(p * total spans) exceeds the number of sets the leftover
is distributed proportionally to set sizes, rounding down. Floors are not
redistributed, and with tight budgets the effective ratio exceeds p because
of the per-set minimum.

Within a set, spans whose robust Z-score reaches the per-key threshold are
taken first, highest score first; any remaining quota is filled by the least
recently sampled span types. Scoring observes in arrival order, so a span is
judged against statistics that do not yet include it. Only these flagged
spans are sorted by Z, and only when a set has more of them than its quota;
the ledger is read and the rest sorted only when the rest must be cut.

A decision is stored as what rebuild reads: the trace id, the entry
function, the forks of the aligned path, the sorted kept span ids and "at",
the call where rebuild places each kept span, as an index into the
preorder of the replay's calls: a mapped span's own call, an unmapped
span's nearest mapped ancestor's. The forks are fork targets (strings) and,
where the path leaves the graph, align's edits (arrays): [parent call, call
index, function key] for a call the graph lacks, [parent call, call index]
for a call the trace skips. The per-set DSS reports and the
effective ratio stay on the in-memory SamplingDecision; a record that
carries them ("dss", "effective_ratio") reads the same, those two ignored.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .cscfg import FunctionRef
from .errors import EmptyPartitionError, PartitionMismatchError
from .model import Trace
from .partition import DominantSpanSet
from .scoring import DEFAULT_MIN_OBS, DEFAULT_THETA, DEFAULT_WINDOW, ScoreBook


# keys are written in the order they are built; serialize builds them sorted
_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class SamplingConfig:
    ratio: float = 0.15
    theta_quantile: float = DEFAULT_THETA
    window: int = DEFAULT_WINDOW
    min_obs: int = DEFAULT_MIN_OBS
    lrs_horizon: int = 1024
    fixed_threshold: float | None = None  # overrides the quantile threshold when set

    def __post_init__(self):
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        if not 0 < self.theta_quantile < 1:
            raise ValueError("theta_quantile must be in (0, 1)")
        # what SpanStatWindow and LrsLedger reject, refused before either exists
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.lrs_horizon < 1:
            raise ValueError("horizon must be >= 1")


class DssReport(NamedTuple):
    dss_id: str
    branch_tag: str
    size: int
    budget: int
    picked_by_z: int
    picked_by_lrs: int


@dataclass(frozen=True)
class SamplingDecision:
    trace_id: str
    kept: tuple[str, ...]  # span ids, sorted
    entry: str | None  # function key of the root invocation
    dss_reports: tuple[DssReport, ...]
    effective_ratio: float
    forks: tuple[str | tuple, ...]  # fork targets and edits of the aligned path, in order
    at: tuple[int, ...]  # replay call of each kept span, parallel to kept
    kept_keys: tuple[str, ...] = ()  # span-type keys of kept spans, for the ledger

    def serialize(self) -> str:
        """The stored record: what rebuild reads, keys sorted. The DSS reports
        and the effective ratio stay in memory only."""
        return _ENCODER.encode({"at": list(self.at), "entry": self.entry,
                                "forks": list(self.forks), "kept": list(self.kept),
                                "trace_id": self.trace_id})


def decision_from_dict(obj: dict) -> SamplingDecision:
    """A decision from its stored record, without DSS reports; keys that
    rebuild does not read are ignored. A record without "forks" or "at" is
    refused, as rebuild has no other way to the path or the kept spans'
    calls; so is one whose kept ids are not a list of strings, whose forks
    are not a list of strings and edits, or whose "at" is not one call index
    per kept id. A bad edit is named."""
    trace_id, entry, forks = obj["trace_id"], obj.get("entry"), obj["forks"]
    kept, at = obj["kept"], obj["at"]
    # both are used as keys, so an unhashable value would fail far from here
    if type(trace_id) is not str or not (entry is None or type(entry) is str):
        raise TypeError("trace_id must be a string and entry a string or null")
    # a string would read as its characters, and other values fail in the replay
    if not (type(forks) is list and _strings(kept)):
        raise TypeError("forks and kept must be lists of strings")
    if not _indexes(at) or len(at) != len(kept):
        raise TypeError('"at" must be a list of one call index (an int >= 0) per kept id')
    # a record holds no DSS reports and no ratio
    return SamplingDecision(trace_id, tuple(kept), entry, (), 0.0,
                            tuple(f if type(f) is str else _edit(f) for f in forks), tuple(at))


def _strings(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


def _indexes(value) -> bool:
    # bool is an int subclass, so compare the type itself
    return type(value) is list and all(type(i) is int and i >= 0 for i in value)


def _edit(value) -> tuple:
    """An edit of the forks: [parent call, call index] or [parent call,
    call index, function key], call indexes as ints >= 0."""
    if type(value) is not list:
        raise TypeError("forks and kept must be lists of strings")
    if not (2 <= len(value) <= 3 and _indexes(value[:2])
            and (len(value) == 2 or type(value[2]) is str)):
        raise TypeError(f"fork {value!r} is not an edit [parent call, call index] or "
                        "[parent call, call index, function key]")
    return tuple(value)


class LrsLedger:
    """Selection history per span type within a horizon of recent decisions."""

    def __init__(self, horizon: int = 1024):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = horizon
        self.seq = 0
        self._picks: dict[str, deque[int]] = {}

    def _prune(self, key: str) -> None:
        picks = self._picks.get(key)
        if not picks:
            return
        floor = self.seq - self.horizon
        while picks and picks[0] <= floor:
            picks.popleft()

    def stats(self, key: str) -> tuple[int, int]:
        """(last sampled sequence or -1, count within horizon) in one pass."""
        self._prune(key)
        picks = self._picks.get(key)
        if not picks:
            return (-1, 0)
        return (picks[-1], len(picks))

    def note(self, keys) -> None:
        """Advance by one decision; old entries decay past the horizon."""
        self.seq += 1
        for key in set(keys):
            self._picks.setdefault(key, deque()).append(self.seq)
            self._prune(key)


def allocate_budget(sizes: list[int], p: float) -> list[int]:
    """Per-set budgets from the set sizes; follows the allocation arithmetic
    literally. Floor rounding uses IEEE float semantics on p * total.
    """
    if not sizes:
        raise EmptyPartitionError("no dominant span sets to allocate over")
    if any(s < 1 for s in sizes):
        raise EmptyPartitionError("every dominant span set must be non-empty")
    total_spans = sum(sizes)
    total_budget = math.floor(p * total_spans)
    n = len(sizes)
    if total_budget < n:
        return [1] * n
    leftover = total_budget - n
    return [1 + (leftover * size) // total_spans for size in sizes]


def sample_trace(trace: Trace, dss_list: list[DominantSpanSet], scorebook: ScoreBook,
                 ledger: LrsLedger, cfg: SamplingConfig,
                 span_keys: dict[str, str], exclusive: dict[str, int],
                 entry: str | None, forks: tuple[str, ...],
                 calls: dict[str, int]) -> SamplingDecision:
    """Apply the budgeted selection to one trace and update shared state.

    span_keys maps span ids to their scoring key; exclusive carries each
    span's exclusive duration; entry and forks are the aligned path's entry
    function and fork targets, and calls maps each span id to the replay
    call it is placed at, all stored for rebuild. The ledger is advanced
    with the kept spans.
    """
    covered = [s for d in dss_list for s in d.spans]
    if len(covered) != len(trace) or set(covered) != trace.span_ids():
        raise PartitionMismatchError(
            f"partition does not cover trace {trace.trace_id!r}"
        )

    # only spans whose Z reaches the threshold in force are kept in z_of
    z_of: dict[str, float] = {}
    fixed = cfg.fixed_threshold
    window_for = scorebook.window_for
    for span in trace.arrival:
        sid = span.span_id
        z, _, threshold = window_for(span_keys[sid]).score(exclusive[sid])
        if z >= (threshold if fixed is None else fixed):
            z_of[sid] = z

    budgets = allocate_budget([len(d) for d in dss_list], cfg.ratio)
    kept: list[str] = []
    reports: list[DssReport] = []
    key_stats: dict[str, tuple[int, int]] = {}
    for dss, budget in zip(dss_list, budgets):
        spans = dss.spans
        picked = [s for s in spans if s in z_of]
        if len(picked) > budget:
            picked.sort(key=lambda s: (-z_of[s], s))
            del picked[budget:]
        by_z = len(picked)
        if by_z < budget:
            # the rest of the quota goes to the least recently sampled types
            rest = [s for s in spans if s not in z_of]
            need = budget - by_z
            if len(rest) > need:
                for s in rest:
                    k = span_keys[s]
                    if k not in key_stats:
                        key_stats[k] = ledger.stats(k)
                rest.sort(key=lambda s: key_stats[span_keys[s]] + (s,))
                del rest[need:]
            picked += rest
        kept += picked
        reports.append(DssReport(
            dss_id=dss.dss_id,
            branch_tag=dss.branch_tag,
            size=len(spans),
            budget=budget,
            picked_by_z=by_z,
            picked_by_lrs=len(picked) - by_z,
        ))

    kept_sorted = tuple(sorted(kept))
    decision = SamplingDecision(
        trace_id=trace.trace_id,
        kept=kept_sorted,
        entry=entry,
        dss_reports=tuple(reports),
        effective_ratio=len(kept_sorted) / len(trace),
        kept_keys=tuple(sorted({span_keys[s] for s in kept_sorted})),
        forks=forks,
        at=tuple([calls[s] for s in kept_sorted]),
    )
    ledger.note(decision.kept_keys)
    return decision


def span_key(resolution, span) -> str:
    """Scoring and ledger key: the function when mapped, else the operation."""
    if isinstance(resolution, FunctionRef):
        return resolution.key
    return f"op:{span.operation}"
