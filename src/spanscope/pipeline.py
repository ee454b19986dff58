"""End-to-end engine: map, align, partition, select, reconstruct.

One pipeline owns the frozen graph, the span-function map, the path cache,
the scoring windows and the selection ledger. Traces stream through one at a
time with bounded memory; per-stage wall time is accumulated so the cost
split between trace partitioning and span selection stays observable.

A pipeline and the graph, map, cache and score book it owns are used from
one thread, so equal inputs give byte-identical decisions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .align import ExecutionPath, PathCache, align
from .cscfg import Cscfg, FunctionRef
from .mapping import SpanFunctionMap
from .model import Trace, exclusive_durations
from .partition import DominantSpanSet, partition
from .reconstruct import ReconstructedTrace, reconstruct
from .sampler import LrsLedger, SamplingConfig, SamplingDecision, sample_trace, span_key
from .scoring import ScoreBook

STAGE_MAP = "map"
STAGE_ALIGN = "align"
STAGE_PARTITION = "partition"
STAGE_SELECT = "select"
STAGE_RECONSTRUCT = "reconstruct"
PARTITION_STAGES = (STAGE_MAP, STAGE_ALIGN, STAGE_PARTITION)


@dataclass
class TraceResult:
    trace: Trace
    decision: SamplingDecision
    dss_list: list[DominantSpanSet]
    path: ExecutionPath


def _calls(trace: Trace, resolutions: dict) -> dict[str, int]:
    """Each span's call in the replay's preorder: a mapped span's index among
    the mapped spans in preorder, an unmapped span its nearest mapped
    ancestor's (align passes unmapped spans through; the root is mapped)."""
    calls: dict[str, int] = {}
    n = 0
    for span in trace.preorder:
        sid = span.span_id
        if isinstance(resolutions[sid], FunctionRef):
            calls[sid], n = n, n + 1
        else:
            calls[sid] = calls[span.parent_id]
    return calls


class SamplingPipeline:
    def __init__(self, graph: Cscfg, mapping: SpanFunctionMap, cfg: SamplingConfig):
        if not graph.frozen:
            graph.freeze()
        self.graph = graph
        self.mapping = mapping
        self.cfg = cfg
        self.cache = PathCache()
        self.scorebook = ScoreBook(window=cfg.window, min_obs=cfg.min_obs,
                                   theta=cfg.theta_quantile)
        self.ledger = LrsLedger(cfg.lrs_horizon)
        self.timings: dict[str, float] = {
            STAGE_MAP: 0.0, STAGE_ALIGN: 0.0, STAGE_PARTITION: 0.0,
            STAGE_SELECT: 0.0, STAGE_RECONSTRUCT: 0.0,
        }
        self.traces_seen = 0
        self.decisions_leaving_graph = 0

    def _timed(self, stage: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.timings[stage] += time.perf_counter() - t0
        return out

    def _map_stage(self, trace: Trace):
        # per-span inputs for the rest of the pipeline: function resolution,
        # scoring key and exclusive duration
        resolve = self.mapping.resolve
        resolutions: dict = {}
        keys: dict[str, str] = {}
        for s in trace.spans:
            sid = s.span_id
            r = resolutions[sid] = resolve(s)
            keys[sid] = span_key(r, s)
        return resolutions, keys, exclusive_durations(trace)

    def partition_trace(self, trace: Trace):
        """Map, align and partition only; no sampling state is touched."""
        resolutions, keys, exclusive = self._timed(STAGE_MAP, self._map_stage, trace)
        path = self._timed(STAGE_ALIGN, align, self.graph, trace, self.cache, resolutions)
        dss_list = self._timed(STAGE_PARTITION, partition, path, trace)
        return path, dss_list, resolutions, keys, exclusive

    def process(self, trace: Trace) -> TraceResult:
        path, dss_list, resolutions, keys, exclusive = self.partition_trace(trace)
        root_res = resolutions[trace.root.span_id]
        entry = root_res.key if isinstance(root_res, FunctionRef) else None
        decision = self._timed(
            STAGE_SELECT, sample_trace, trace, dss_list, self.scorebook,
            self.ledger, self.cfg, keys, exclusive,
            entry=entry, forks=path.forks, calls=_calls(trace, resolutions),
        )
        self.traces_seen += 1
        self.decisions_leaving_graph += path.leaves_graph
        return TraceResult(trace, decision, dss_list, path)

    def reconstruct_result(self, result: TraceResult,
                           stats: dict | None = None) -> ReconstructedTrace:
        kept = [result.trace.span(sid) for sid in result.decision.kept]
        if stats is None:
            stats = self.scorebook.snapshot()
        return self._timed(STAGE_RECONSTRUCT, reconstruct, result.decision, kept,
                           self.graph, stats, self.mapping)

    def stats_snapshot(self) -> dict:
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
            "partition_side_s": round(sum(self.timings[s] for s in PARTITION_STAGES), 6),
            "selection_side_s": round(self.timings[STAGE_SELECT], 6),
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
        fh.write(f"partition_side_s {timing['partition_side_s']}\n")
        fh.write(f"selection_side_s {timing['selection_side_s']}\n")
        for stage, secs in timing["stages_s"].items():
            fh.write(f"stage {stage} {secs}\n")
