"""Span-level trace sampling driven by call-site control-flow knowledge."""

from .align import ExecutionPath, PathCache, trace_signature
from .cscfg import (
    Cscfg,
    DominanceInfo,
    FunctionRef,
    build_cscfg,
    compute_dominance,
    parse_function_key,
)
from .errors import SpanscopeError
from .mapping import SpanFunctionMap, Unmapped, build_map
from .model import (
    Span,
    Trace,
    parse_trace,
    serialize_trace,
)
from .partition import DominantSpanSet
from .pipeline import SamplingPipeline
from .reconstruct import ReconstructedTrace, structural_fidelity
from .sampler import (
    LrsLedger,
    SamplingConfig,
    SamplingDecision,
    allocate_budget,
    sample_trace,
)
from .scoring import P2Quantile, RunningMedian, ScoreBook, SpanStatWindow

__version__ = "0.1.0"

__all__ = [
    "ExecutionPath", "PathCache", "trace_signature",
    "Cscfg", "DominanceInfo", "FunctionRef", "build_cscfg", "compute_dominance",
    "parse_function_key",
    "SpanscopeError",
    "SpanFunctionMap", "Unmapped", "build_map",
    "Span", "Trace", "parse_trace", "serialize_trace",
    "DominantSpanSet",
    "SamplingPipeline",
    "ReconstructedTrace", "structural_fidelity",
    "LrsLedger", "SamplingConfig", "SamplingDecision", "allocate_budget",
    "sample_trace",
    "P2Quantile", "RunningMedian", "ScoreBook", "SpanStatWindow",
]
