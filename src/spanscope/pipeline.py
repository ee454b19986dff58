"""End-to-end engine: map, align, select, reconstruct.

One pipeline owns the graph, the span-function map, the path cache,
the scoring windows and the selection ledger. Traces stream through one at a
time, and each stage's wall time is accumulated. Memory is not bounded on an
endless stream: the score book keeps one window for every distinct scoring
key it has seen. The ledger holds only the keys kept in its last two
horizons of decisions.
Alignment cuts the dominant span sets as the path's preorder slots, and
selection reads them there; `TraceResult.dss_list` names them by span id,
through this module's `partition`, only when read.

The stages read a trace's columns by position (see `spanscope.model`), so
sampling a parsed trace builds no Span. A pipeline and the graph, map,
cache and score book it owns are used from one thread, so equal inputs
give byte-identical decisions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .align import ExecutionPath, PathCache, align
from .cscfg import Cscfg
from .mapping import RESOLVE_MEMO_CAPACITY, SpanFunctionMap
from .model import Trace, exclusive_durations
from .reconstruct import ReconstructedTrace, reconstruct
from .sampler import LrsLedger, SamplingConfig, SamplingDecision, sample_trace, span_key
from .scoring import ScoreBook, StatsSnapshot

STAGE_MAP = "map"
STAGE_ALIGN = "align"
STAGE_SELECT = "select"
STAGE_RECONSTRUCT = "reconstruct"

_first, _second = itemgetter(0), itemgetter(1)


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


@dataclass
class TraceResult:
    trace: Trace
    decision: SamplingDecision
    path: ExecutionPath

    @cached_property
    def dss_list(self) -> list[DominantSpanSet]:
        """The path's sets named by span id, built through this module's
        `partition` on first read; sampling itself never reads them."""
        return partition(self.path, self.trace)


class SamplingPipeline:
    def __init__(self, graph: Cscfg, mapping: SpanFunctionMap, cfg: SamplingConfig):
        self.graph = graph
        self.mapping = mapping
        self.cfg = cfg
        self.cache = PathCache()
        self.scorebook = ScoreBook(window=cfg.window, theta=cfg.theta)
        self.ledger = LrsLedger()
        self.timings: dict[str, float] = {
            STAGE_MAP: 0.0, STAGE_ALIGN: 0.0, STAGE_SELECT: 0.0, STAGE_RECONSTRUCT: 0.0,
        }
        self.traces_seen = 0
        self.decisions_leaving_graph = 0
        # (service, operation) -> (resolution, scoring key)
        self._resolved: dict[tuple[str, str], tuple] = {}

    def _timed(self, stage: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.timings[stage] += time.perf_counter() - t0
        return out

    def _map_stage(self, trace: Trace):
        # per-span inputs for the rest of the pipeline, in the trace's input
        # order: function resolution, scoring key and exclusive duration.
        # Each distinct (service, operation) pair is resolved once and then
        # read from the memo, until the memo is emptied when full.
        memo = self._resolved
        pairs = list(zip(trace.services, trace.operations))
        got = list(map(memo.get, pairs))
        if None in got:
            resolve = self.mapping.resolve
            fresh: dict = {}
            for pair in pairs:
                if pair not in memo and pair not in fresh:
                    r = resolve(*pair)
                    fresh[pair] = (r, span_key(r, pair[1]))
            if len(memo) + len(fresh) > RESOLVE_MEMO_CAPACITY:
                memo.clear()
            memo.update(fresh)
            got = [g if g is not None else fresh[p] for g, p in zip(got, pairs)]
        return list(map(_first, got)), list(map(_second, got)), exclusive_durations(trace)

    def process(self, trace: Trace) -> TraceResult:
        resolutions, keys, exclusive = self._timed(STAGE_MAP, self._map_stage, trace)
        path = self._timed(STAGE_ALIGN, align, self.graph, trace, self.cache, resolutions)
        decision = self._timed(STAGE_SELECT, sample_trace, trace, path, self.scorebook,
                               self.ledger, self.cfg, keys, exclusive)
        self.traces_seen += 1
        self.decisions_leaving_graph += path.leaves_graph
        return TraceResult(trace, decision, path)

    def reconstruct_result(self, result: TraceResult,
                           stats: StatsSnapshot) -> ReconstructedTrace:
        kept = [result.trace.span(sid) for sid in result.decision.kept]
        return self._timed(STAGE_RECONSTRUCT, reconstruct, result.decision, kept,
                           self.graph, stats, self.mapping)

    def stats_snapshot(self) -> StatsSnapshot:
        return self.scorebook.snapshot()

    def timing_report(self) -> dict:
        """Wall-clock stage split plus deterministic counters.

        `path_cache` counts whole-trace alignment hits and misses,
        `subtree_cache` the subtree fragments found and aligned anew on
        whole-trace misses, `solve_cache` per-invocation solver hits and
        misses. `decisions_leaving_graph` counts the decisions whose path
        leaves the graph (`ExecutionPath.leaves_graph`), those that record
        an edit: the one count in a run that shows its graph lags the code.
        """
        total = sum(self.timings.values())
        per_trace = total / self.traces_seen if self.traces_seen else 0.0
        cache = self.cache
        return {
            "stages_s": {k: round(v, 6) for k, v in sorted(self.timings.items())},
            "traces": self.traces_seen,
            "per_trace_ms": round(per_trace * 1000, 3),
            "path_cache": {"hits": cache.hits, "misses": cache.misses},
            "subtree_cache": {"hits": cache.subtree_hits, "misses": cache.subtree_misses},
            "solve_cache": {"hits": cache.solve_hits, "misses": cache.solve_misses},
            "decisions_leaving_graph": self.decisions_leaving_graph,
        }


def write_timing(timing: dict, path) -> None:
    """Write a timing_report() as the line-per-value timing.txt."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"traces {timing['traces']}\n")
        fh.write(f"per_trace_ms {timing['per_trace_ms']}\n")
        for stage, secs in timing["stages_s"].items():
            fh.write(f"stage {stage} {secs}\n")
