"""Span selection under a budget, one decision per trace.

The budget is split across dominant span sets, read as the aligned path's
preorder slots (`ExecutionPath.sets`): selection builds no DominantSpanSet,
and it checks that the slots cover the trace, each span once. Every set
gets at least one slot, and when floor(p * total spans) exceeds the number
of sets the leftover is distributed proportionally to set sizes, rounding
down. Floors are not redistributed, and with tight budgets the effective
ratio exceeds p because of the per-set minimum.

Within a set, spans whose robust Z-score reaches the per-key threshold are
taken first, highest score first; any remaining quota is filled by the least
recently sampled span types. SamplingConfig holds the three settings: the
ratio p, the threshold quantile θ and the window size. A window's cold start
(`scoring.MIN_OBS`) and the ledger's horizon (`LRS_HORIZON`) are module
constants. Scoring observes in arrival order, so a span is
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
for a call the trace skips. The in-memory SamplingDecision also carries
one DssReport per set, the set's spans picked by Z and by LRS; a set's tag
and size stay on the path, and its budget is `allocate_budget`'s. A record
read back has no reports, and a record that carries older fields ("dss",
"effective_ratio") reads the same, those ignored.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .align import ExecutionPath
from .cscfg import FunctionRef
from .errors import EmptyPartitionError, PartitionMismatchError
from .model import Trace
from .scoring import DEFAULT_THETA, DEFAULT_WINDOW, ScoreBook


LRS_HORIZON = 1024  # decisions a ledger remembers, read when the ledger is built

# keys are written in the order they are built; serialize builds them sorted
_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class SamplingConfig:
    ratio: float = 0.15
    theta: float = DEFAULT_THETA
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        if not 0 < self.theta < 1:
            raise ValueError("theta must be in (0, 1)")
        # what SpanStatWindow rejects, refused before any window exists
        if self.window < 1:
            raise ValueError("window must be >= 1")


class DssReport(NamedTuple):
    """How one set's budget was filled: the spans picked by Z, then by LRS."""

    picked_by_z: int
    picked_by_lrs: int


@dataclass(frozen=True)
class SamplingDecision:
    trace_id: str
    kept: tuple[str, ...]  # span ids, sorted
    entry: str | None  # function key of the root invocation
    forks: tuple[str | tuple, ...]  # fork targets and edits of the aligned path, in order
    at: tuple[int, ...]  # replay call of each kept span, parallel to kept
    dss_reports: tuple[DssReport, ...] = ()  # one per set of the path; not stored

    def serialize(self) -> str:
        """The stored record: what rebuild reads, keys sorted. The DSS reports
        stay in memory only."""
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
    return SamplingDecision(trace_id, tuple(kept), entry,
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
    """Selection history per span type within the last LRS_HORIZON decisions.

    Each key holds the decisions that kept it, oldest first. A key is pruned
    only when its oldest pick has left the horizon, so a read or a note that
    finds it inside costs one comparison. Every LRS_HORIZON decisions, note
    drops each key whose newest pick has left the horizon, and a prune that
    empties a key drops it too: the keys held are then those kept in the
    last 2 x LRS_HORIZON decisions at most. A dropped key reads (-1, 0), as
    a key whose picks have all left the horizon, so no decision moves.
    """

    def __init__(self):
        self.horizon = LRS_HORIZON
        self.seq = 0
        self._picks: dict[str, deque[int]] = {}

    def stats(self, key: str) -> tuple[int, int]:
        """(last sampled sequence or -1, count within horizon) in one pass."""
        picks = self._picks.get(key)
        if picks is None:
            return (-1, 0)
        floor = self.seq - self.horizon
        if picks[0] <= floor:
            if picks[-1] <= floor:
                del self._picks[key]
                return (-1, 0)
            _prune(picks, floor)
        return (picks[-1], len(picks))

    def note(self, keys) -> None:
        """Advance by one decision, noting each distinct key once; old
        entries decay past the horizon."""
        seq = self.seq = self.seq + 1
        floor = seq - self.horizon
        all_picks = self._picks
        for key in set(keys):
            picks = all_picks.get(key)
            if picks is None:
                all_picks[key] = deque((seq,))
            else:
                picks.append(seq)
                if picks[0] <= floor:
                    _prune(picks, floor)
        if not seq % self.horizon:
            for key in [k for k, picks in all_picks.items() if picks[-1] <= floor]:
                del all_picks[key]


def _prune(picks: deque[int], floor: int) -> None:
    """Drop the picks at or below floor from the oldest end."""
    while picks[0] <= floor:
        picks.popleft()


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


def sample_trace(trace: Trace, path: ExecutionPath, scorebook: ScoreBook,
                 ledger: LrsLedger, cfg: SamplingConfig,
                 span_keys: list[str], exclusive: list[int]) -> SamplingDecision:
    """Apply the budgeted selection to one trace and update shared state.

    The sets are the path's, read as preorder slots: slot k is the span at
    `trace.order[k]`, and `path.calls[k]` is its call. span_keys and
    exclusive are columns of the trace, in its input order: each span's
    scoring key and its exclusive duration. The path's entry and forks and
    the kept spans' calls are stored for rebuild. The ledger is advanced
    with the kept spans.
    """
    sets, order, n = path.sets, trace.order, len(trace)
    # every slot once, n in all
    if sorted([slot for slots, _ in sets for slot in slots]) != list(range(n)):
        raise PartitionMismatchError(
            f"partition does not cover trace {trace.trace_id!r}"
        )

    # a span's Z where it reaches the threshold in force, else None, by position
    ids = trace.ids
    z_at: list[float | None] = [None] * n
    windows = scorebook._windows
    for i in trace.arrival_order:
        key = span_keys[i]
        try:
            win = windows[key]
        except KeyError:
            win = scorebook.window_for(key)
        z, threshold = win.score(exclusive[i])
        if z >= threshold:
            z_at[i] = z
    z_of = list(map(z_at.__getitem__, order))  # by slot

    budgets = allocate_budget([len(slots) for slots, _ in sets], cfg.ratio)
    kept: list[int] = []  # slots
    reports: list[DssReport] = []
    key_stats: dict[str, tuple[int, int]] = {}
    for (slots, _), budget in zip(sets, budgets):
        picked = [s for s in slots if z_of[s] is not None]
        if len(picked) > budget:
            picked.sort(key=lambda s: (-z_of[s], ids[order[s]]))
            del picked[budget:]
        by_z = len(picked)
        if by_z < budget:
            # the rest of the quota goes to the least recently sampled types
            rest = [s for s in slots if z_of[s] is None]
            need = budget - by_z
            if len(rest) > need:
                for s in rest:
                    key = span_keys[order[s]]
                    if key not in key_stats:
                        key_stats[key] = ledger.stats(key)
                rest.sort(key=lambda s: key_stats[span_keys[order[s]]] + (ids[order[s]],))
                del rest[need:]
            picked += rest
        kept += picked
        reports.append(DssReport(by_z, len(picked) - by_z))

    kept.sort(key=lambda s: ids[order[s]])
    positions = [order[s] for s in kept]
    ledger.note({span_keys[i] for i in positions})
    calls = path.calls
    return SamplingDecision(
        trace_id=trace.trace_id,
        kept=tuple([ids[i] for i in positions]),
        entry=path.entry,
        forks=path.forks,
        at=tuple([calls[s] for s in kept]),
        dss_reports=tuple(reports),
    )


def span_key(resolution, operation: str) -> str:
    """Scoring and ledger key: the function when mapped, else the operation."""
    if isinstance(resolution, FunctionRef):
        return resolution.key
    return f"op:{operation}"
