"""Synthetic microservice systems for desk-scale evaluation.

generate_system() emits a call-graph document plus the ground truth needed to
drive traffic over it: per-fork branch probabilities, designated error arms
for structural faults, and per-function log-normal duration parameters.
generate_traces() walks the built graph, samples exclusive durations, wraps
occasional children in URL-style unmappable spans, injects faults over
trace-index windows and labels exactly the perturbed spans.

Faults come in two kinds: latency multiplies the target function's exclusive
duration, structural forces a designated early-return arm whose natural
probability is zeroed for the rest of the run, so only faulted traces take
it. Defaults put 4 percent of traces inside fault windows.

evaluate() runs the whole pipeline next to three baselines (uniform span
sampling, per-trace latency top-k, whole-trace anomaly keep-all) and reports
sampling ratios by span-count bucket, faulty-span coverage, reconstruction
fidelity and stage timings. Everything is deterministic in the seed.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass, field, replace

from . import scoring
from .align import PathCache, align
from .cscfg import SHARED_SERVICE, Cscfg, build_cscfg
from .errors import InvalidSpecError, UnknownFaultTargetError
from .mapping import build_map
from .model import Span, Trace, exclusive_durations
from .pipeline import SamplingPipeline, write_timing
from .reconstruct import fidelity_means, structural_fidelity
from .sampler import SamplingConfig
from .scoring import P2Quantile, ScoreBook

BASE_EPOCH = 1_700_000_000_000_000  # microseconds

BUCKETS = ((1, 10), (11, 20), (21, 30), (31, None))
_BUCKET_LABELS = tuple(f"{lo}-{hi}" if hi else f"{lo}+" for lo, hi in BUCKETS)

BASELINE_UNIFORM = "uniform-span"
BASELINE_TOPK = "latency-topk"
BASELINE_WHOLE_TRACE = "whole-trace-anomaly"
BASELINES = (BASELINE_UNIFORM, BASELINE_TOPK, BASELINE_WHOLE_TRACE)
_BASELINE_SEED = 1234  # seeds the uniform baseline's draws
_LSR_PROBE = 300  # leading traces whose sets and spans give the LSR

TraceSample = namedtuple("TraceSample", "trace labels")


@dataclass(frozen=True)
class SystemSpec:
    seed: int = 7
    n_services: int = 4
    n_functions_per_service: int = 8
    branch_probability: float = 0.16
    max_call_depth: int = 5
    shared_library_fraction: float = 0.12
    url_span_probability: float = 0.03
    duration_mu_range: tuple = (5.0, 8.0)  # ln(microseconds)
    duration_sigma_range: tuple = (0.2, 0.5)

    def validate(self) -> None:
        for name in ("branch_probability", "shared_library_fraction", "url_span_probability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidSpecError(f"{name} must be in [0, 1], got {v}")
        if self.max_call_depth < 1:
            raise InvalidSpecError("max_call_depth must be >= 1")
        if self.n_services < 1 or self.n_functions_per_service < 1:
            raise InvalidSpecError("need at least one service and one function")
        # the entry places a branch whenever branch_probability > 0, and it
        # has callees only when a function sits on a level below it
        if self.branch_probability > 0 and (self.max_call_depth < 2
                                             or self.n_functions_per_service < 2):
            raise InvalidSpecError("branch_probability > 0 needs max_call_depth >= 2 "
                                   "and n_functions_per_service >= 2")
        if self.duration_sigma_range[0] < 0:
            raise InvalidSpecError("sigma must be non-negative")


@dataclass(frozen=True)
class FaultSpec:
    kind: str  # latency | structural
    target: str  # function key
    window: tuple[int, int]  # [start, end) trace indexes
    factor: float = 10.0

    def validate(self) -> None:
        if self.kind not in ("latency", "structural"):
            raise InvalidSpecError(f"unknown fault kind {self.kind!r}")
        if self.kind == "latency" and self.factor <= 1:
            raise InvalidSpecError("latency factor must be > 1")
        if self.window[0] < 0 or self.window[1] < self.window[0]:
            raise InvalidSpecError("bad fault window")


@dataclass
class SystemMeta:
    """Ground truth accompanying a generated system."""

    entry: str
    fork_probs: dict = field(default_factory=dict)  # (fn, node) -> [(target, prob)]
    error_arms: dict = field(default_factory=dict)  # fn -> (fork node, error block)
    durations: dict = field(default_factory=dict)  # fn -> (mu, sigma)


def _fn_key(service: str, cls: str, fn: str) -> str:
    return f"{service}:{cls}.{fn}"


def generate_system(spec: SystemSpec) -> tuple[dict, SystemMeta]:
    """Deterministic synthetic system: call-graph document plus ground truth."""
    spec.validate()
    rng = random.Random(spec.seed)
    levels = spec.max_call_depth
    services = [f"svc{i:02d}" for i in range(spec.n_services)]

    per_level: dict[int, list[str]] = {l: [] for l in range(levels)}
    level_of: dict[str, int] = {}
    all_fns: list[str] = []
    for si, svc in enumerate(services):
        for j in range(spec.n_functions_per_service):
            key = _fn_key(svc, f"C{j}", f"op{j}")
            level = min(levels - 1, j * levels // spec.n_functions_per_service)
            per_level[level].append(key)
            level_of[key] = level
            all_fns.append(key)

    n_shared = round(spec.shared_library_fraction * len(all_fns))
    shared = [_fn_key(SHARED_SERVICE, "Lib", f"util{k}") for k in range(n_shared)]
    # dedicated early-return handlers; only error arms call them
    error_fns = {svc: _fn_key(svc, "Err", "fail") for svc in services}

    meta = SystemMeta(entry=all_fns[0])
    for key in all_fns + shared + sorted(error_fns.values()):
        mu = rng.uniform(*spec.duration_mu_range)
        sigma = rng.uniform(*spec.duration_sigma_range)
        meta.durations[key] = (round(mu, 4), round(sigma, 4))

    def callee_pool(key: str) -> list[str]:
        level = level_of[key]
        pool = [f for f in all_fns if level_of[f] > level]
        return pool

    error_candidates: dict[str, str] = {}  # fn key -> local block id starting the error arm
    functions_doc = []

    for key in all_fns:
        level = level_of[key]
        pool = callee_pool(key)
        if level == levels - 1 or not pool:
            functions_doc.append({"function": key})
            continue

        svc = key.split(":", 1)[0]
        same = [f for f in pool if f.startswith(svc + ":")]
        other = [f for f in pool if not f.startswith(svc + ":")]

        def pick_callee() -> str:
            roll = rng.random()
            if shared and roll < 0.12:
                return rng.choice(shared)
            if other and (roll < 0.32 or not same):
                return rng.choice(other)
            return rng.choice(same or other or shared)

        blocks: list[dict] = []
        edges: list[list[str]] = []
        bi = 0

        def new_block(callees: list[str]) -> str:
            nonlocal bi
            bid = f"b{bi}"
            bi += 1
            blocks.append({"id": bid, "callees": callees})
            return bid

        def glue() -> str:
            return new_block([])

        head = glue()
        prev = head
        early_exits: list[str] = []
        n_segments = rng.randint(2, 3)
        want_diamond = spec.branch_probability > 0 and key == meta.entry
        for seg in range(n_segments):
            make_diamond = rng.random() < spec.branch_probability or (want_diamond and seg == 0)
            join = glue()
            if make_diamond:
                arm1 = [new_block([pick_callee() for _ in range(rng.randint(1, 2))])
                        for _ in range(rng.randint(1, 2))]
                edges.append([prev, arm1[0]])
                for a, b in zip(arm1, arm1[1:]):
                    edges.append([a, b])
                edges.append([arm1[-1], join])
                make_error = key not in error_candidates and \
                    (key == meta.entry or rng.random() < 0.75)
                if make_error:
                    # early-return arm: the handler runs and the function exits
                    err = new_block([error_fns[svc]])
                    edges.append([prev, err])
                    early_exits.append(err)
                    error_candidates[key] = err
                else:
                    # empty fallthrough arm
                    edges.append([prev, join])
            else:
                block = new_block([pick_callee() for _ in range(rng.randint(1, 2))])
                edges.append([prev, block])
                edges.append([block, join])
            prev = join

        functions_doc.append({
            "function": key,
            "blocks": blocks,
            "flow_edges": edges,
            "entry": head,
            "exits": [prev] + early_exits,
        })

    for key in shared + sorted(error_fns.values()):
        functions_doc.append({"function": key})

    doc = {
        "schema_version": 1,
        "functions": functions_doc,
        "external_functions": [],
    }

    graph = build_cscfg(doc)
    _assign_fork_probs(graph, meta, error_candidates, rng)
    return doc, meta


def _assign_fork_probs(graph: Cscfg, meta: SystemMeta, error_candidates: dict,
                       rng: random.Random) -> None:
    for key in sorted(graph.functions):
        if not graph.has_body(key):
            continue
        err_local = error_candidates.get(key)
        err_global = f"{key}#{err_local}" if err_local else None
        for node, succs in graph.subgraph(key).succ.items():
            if len(succs) <= 1:
                continue
            weights = []
            for s in succs:
                if err_global is not None and s == err_global:
                    weights.append(0.08)
                    if key not in meta.error_arms:
                        meta.error_arms[key] = (node, s)
                else:
                    weights.append(rng.uniform(0.5, 1.5))
            total = sum(weights)
            meta.fork_probs[(key, node)] = [
                (s, w / total) for s, w in zip(succs, weights)
            ]


def variable_depth_system(seed: int = 3) -> tuple[dict, SystemMeta]:
    """Two forks with chain arms of fixed lengths; span counts vary, set counts do not."""
    svc = "svcchain"
    entry = _fn_key(svc, "Front", "handle")
    chains = {"A": 2, "B": 28, "C": 4, "D": 30}
    functions = [dict(function=entry, blocks=[], flow_edges=[], entry=None, exits=None)]
    chain_heads = {}
    for name, length in sorted(chains.items()):
        keys = [_fn_key(svc, f"Chain{name}", f"step{i}") for i in range(length)]
        chain_heads[name] = keys[0]
        for i, key in enumerate(keys):
            if i + 1 < length:
                functions.append({
                    "function": key,
                    "blocks": [{"id": "b0", "callees": [keys[i + 1]]}],
                    "flow_edges": [],
                    "entry": "b0",
                    "exits": ["b0"],
                })
            else:
                functions.append({"function": key})
    functions[0] = {
        "function": entry,
        "blocks": [
            {"id": "s", "callees": []},
            {"id": "f1a", "callees": [chain_heads["A"]]},
            {"id": "f1b", "callees": [chain_heads["B"]]},
            {"id": "m", "callees": []},
            {"id": "f2c", "callees": [chain_heads["C"]]},
            {"id": "f2d", "callees": [chain_heads["D"]]},
            {"id": "e", "callees": []},
        ],
        "flow_edges": [
            ["s", "f1a"], ["s", "f1b"], ["f1a", "m"], ["f1b", "m"],
            ["m", "f2c"], ["m", "f2d"], ["f2c", "e"], ["f2d", "e"],
        ],
        "entry": "s",
        "exits": ["e"],
    }
    doc = {"schema_version": 1, "functions": functions, "external_functions": []}
    meta = SystemMeta(entry=entry)
    rng = random.Random(seed)
    graph = build_cscfg(doc)
    _assign_fork_probs(graph, meta, {}, rng)
    for fn in graph.functions:
        meta.durations[fn] = (6.0, 0.35)
    return doc, meta


def make_default_faults(meta: SystemMeta, n_traces: int) -> list[FaultSpec]:
    """Two windows totalling 4 percent of traces: one latency, one structural."""
    faults = [FaultSpec("latency", meta.entry,
                        (int(n_traces * 0.48), int(n_traces * 0.50)), factor=10.0)]
    if meta.error_arms:
        target = sorted(meta.error_arms)[0]
        faults.append(FaultSpec("structural", target,
                                (int(n_traces * 0.70), int(n_traces * 0.72))))
    return faults


def generate_traces(graph_or_doc, meta: SystemMeta, spec: SystemSpec, n: int,
                    faults: list[FaultSpec] | None = None):
    """Yield TraceSample(trace, labels); deterministic in spec.seed."""
    graph = graph_or_doc if isinstance(graph_or_doc, Cscfg) else build_cscfg(graph_or_doc)
    faults = list(faults or [])
    for f in faults:
        f.validate()
        if not graph.knows(f.target):
            raise UnknownFaultTargetError(f"fault target {f.target!r} not in system")
        if f.kind == "structural" and f.target not in meta.error_arms:
            raise UnknownFaultTargetError(
                f"structural fault target {f.target!r} has no error branch"
            )

    # arms under structural fault are only taken when forced
    zeroed = {meta.error_arms[f.target] for f in faults if f.kind == "structural"}
    zeroed_targets = {(fn_node_err[1]) for fn_node_err in zeroed}

    rng = random.Random(spec.seed ^ 0x9E3779B9)

    for idx in range(n):
        latency_active = {f.target: f.factor for f in faults
                          if f.kind == "latency" and f.window[0] <= idx < f.window[1]}
        forced = {f.target for f in faults
                  if f.kind == "structural" and f.window[0] <= idx < f.window[1]}
        labels: set[str] = set()

        def draw_exclusive(fn_key: str) -> int:
            mu, sigma = meta.durations.get(fn_key, (6.0, 0.3))
            return max(1, int(round(rng.lognormvariate(mu, sigma))))

        def choose(fn_key: str, node: str, succs) -> str:
            if fn_key in forced:
                fork_node, err = meta.error_arms[fn_key]
                if node == fork_node and err in succs:
                    return err
            probs = dict(meta.fork_probs.get((fn_key, node), []))
            weights = []
            for s in succs:
                w = probs.get(s)
                if w is None:
                    w = 1.0 / len(succs)
                if s in zeroed_targets and fn_key not in forced:
                    w = 0.0
                weights.append(w)
            total = sum(weights)
            if total <= 0:
                weights = [1.0] * len(succs)
                total = float(len(succs))
            roll = rng.random() * total
            acc = 0.0
            for s, w in zip(succs, weights):
                acc += w
                if roll < acc:
                    return s
            return succs[-1]

        def walk(fn_key: str, caller_service: str) -> dict:
            service = fn_key.split(":", 1)[0]
            if service == SHARED_SERVICE:
                service = caller_service  # library spans inherit caller metadata
            node_rec = {
                "fn": fn_key, "service": service, "children": [],
                "exclusive": draw_exclusive(fn_key), "label": False, "url": False,
            }
            if fn_key in latency_active:
                node_rec["exclusive"] = int(node_rec["exclusive"] * latency_active[fn_key])
                node_rec["label"] = True
            # the subtree's duration: its own time plus its children's widths
            node_rec["width"] = node_rec["exclusive"]
            if not graph.has_body(fn_key):
                return node_rec
            sub = graph.subgraph(fn_key)
            node = sub.entry
            err_block = meta.error_arms.get(fn_key, (None, None))[1]
            while node != sub.exit:
                succs = sub.succ[node]
                node = succs[0] if len(succs) == 1 else choose(fn_key, node, succs)
                if node == sub.exit:
                    break
                for callee in sub.emissions[node]:
                    child = walk(callee, service)
                    if fn_key in forced and node == err_block:
                        child["label"] = True
                    if rng.random() < spec.url_span_probability:
                        child = {
                            "fn": None, "service": service, "children": [child],
                            "exclusive": 0, "width": child["width"], "label": False,
                            "url": True,
                            "op": f"GET /api/v1/{callee.rsplit('.', 1)[-1].lower()}",
                        }
                    node_rec["children"].append(child)
                    node_rec["width"] += child["width"]
            return node_rec

        root = walk(meta.entry, meta.entry.split(":", 1)[0])

        tid = f"t{idx:06d}"
        spans: list[Span] = []
        counter = 0

        def pack(node_rec: dict, start: int, parent_id: str | None) -> None:
            nonlocal counter
            sid = f"{tid}.{counter:04d}"
            counter += 1
            kids = node_rec["children"]
            gap = node_rec["exclusive"] // (len(kids) + 1) if kids else 0
            cursor = start + gap
            child_entries = []
            for child in kids:
                child_entries.append((child, cursor))
                cursor += child["width"] + gap
            if node_rec["fn"] is None:
                operation = node_rec["op"]
            else:
                operation = node_rec["fn"].split(":", 1)[1]
            spans.append(Span(
                span_id=sid, trace_id=tid, parent_id=parent_id,
                operation=operation, service=node_rec["service"],
                start_time=start, duration=node_rec["width"],
                attributes={},
            ))
            if node_rec["label"]:
                labels.add(sid)
            for child, child_start in child_entries:
                pack(child, child_start, sid)

        pack(root, BASE_EPOCH + idx * 10_000_000, None)
        yield TraceSample(Trace(tid, spans), frozenset(labels))


def _z_scores(samples: list[TraceSample], cfg: SamplingConfig):
    """Each trace with its spans' Z-scores by span id, scored in arrival order
    against one window per "service|operation" of cfg's window and theta."""
    book = ScoreBook(window=cfg.window, theta=cfg.theta)
    for sample in samples:
        trace = sample.trace
        excl = exclusive_durations(trace)
        scores = {}
        for i in trace.arrival_order:
            key = f"{trace.services[i]}|{trace.operations[i]}"
            scores[trace.ids[i]] = book.window_for(key).score(float(excl[i]))[0]
        yield trace, scores


def run_baseline(name: str, samples: list[TraceSample], p: float,
                 cfg: SamplingConfig) -> dict[str, frozenset]:
    """Per-trace kept span sets for one baseline at budget p. The two scoring
    baselines read the same Z-scores, from windows of cfg's window and theta;
    whole-trace's threshold, the theta quantile of each trace's largest Z, is
    infinite for its first scoring.MIN_OBS traces."""
    if not 0 < p <= 1:
        raise InvalidSpecError("baseline budget must be in (0, 1]")
    kept: dict[str, frozenset] = {}

    if name == BASELINE_UNIFORM:
        rng = random.Random(_BASELINE_SEED)
        for sample in samples:
            kept[sample.trace.trace_id] = frozenset(
                s.span_id for s in sample.trace.spans if rng.random() < p
            )
        return kept

    if name == BASELINE_TOPK:
        for trace, scores in _z_scores(samples, cfg):
            k = math.floor(p * len(trace))
            top = sorted(scores, key=lambda sid: (-scores[sid], sid))[:k]
            kept[trace.trace_id] = frozenset(top)
        return kept

    if name == BASELINE_WHOLE_TRACE:
        threshold_est = P2Quantile(cfg.theta)
        pool = 0.0
        for trace, scores in _z_scores(samples, cfg):
            max_z = max(scores.values(), default=-math.inf)
            threshold = threshold_est.value() if threshold_est.n >= scoring.MIN_OBS else math.inf
            pool += p * len(trace)
            if max_z >= threshold and pool >= len(trace):
                kept[trace.trace_id] = frozenset(trace.span_ids())
                pool -= len(trace)
            else:
                kept[trace.trace_id] = frozenset()
            threshold_est.update(max_z)
        return kept

    raise InvalidSpecError(f"unknown baseline {name!r}")


def bucket_of(span_count: int) -> str:
    for (_, hi), label in zip(BUCKETS, _BUCKET_LABELS):
        if hi is None or span_count <= hi:
            return label


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def lognormal_relative_error(sigma: float) -> float:
    """Expected |x - mean| / x for a log-normal sample against its own mean.

    This is the relative error an ideal mean-filler makes in expectation; the
    harness bound for reconstruction is twice this value plus a small margin.
    """
    e = math.exp(sigma * sigma)
    return 2 * e * _phi(1.5 * sigma) - e - 2 * _phi(0.5 * sigma) + 1


@dataclass
class EvalReport:
    n_traces: int
    ratio_requested: float
    lsr: float
    sampling_ratio: float
    coverage: dict  # method -> coverage in [0,1], or None when no labels
    labeled_spans: int
    structure_exact_rate: float
    mean_duration_error: float
    duration_error_bound: float
    buckets: list  # dicts per bucket
    timings: dict

    def text_lines(self) -> list[str]:
        lines = [
            f"traces {self.n_traces}",
            f"ratio_requested {self.ratio_requested:.6f}",
            f"lsr {self.lsr:.6f}",
            f"sampling_ratio {self.sampling_ratio:.6f}",
            f"labeled_spans {self.labeled_spans}",
            f"structure_exact_rate {self.structure_exact_rate:.6f}",
            f"mean_duration_error {self.mean_duration_error:.6f}",
            f"duration_error_bound {self.duration_error_bound:.6f}",
        ]
        for method in sorted(self.coverage):
            cov = self.coverage[method]
            lines.append(
                f"coverage {method} " + ("n/a" if cov is None else f"{cov:.6f}")
            )
        for b in self.buckets:
            lines.append(
                "bucket {bucket} traces {traces} mean_ratio {mean_ratio:.6f} "
                "mean_dss {mean_dss:.4f} mean_spans {mean_spans:.4f}".format(**b)
            )
        return lines


def evaluate(doc_or_graph, meta: SystemMeta, spec: SystemSpec, n_traces: int,
             cfg: SamplingConfig | None = None, faults="default",
             ratio: float | None = None) -> EvalReport:
    """Full pipeline against all baselines on one synthetic workload.

    Without a ratio, the run samples at the LSR (sets over spans of the
    leading _LSR_PROBE traces) plus 0.05. Every trace is sampled and then rebuilt for the
    fidelity figures, and the baselines run at the same ratio.
    """
    graph = doc_or_graph if isinstance(doc_or_graph, Cscfg) else build_cscfg(doc_or_graph)
    mapping = build_map(graph)
    if faults == "default":
        faults = make_default_faults(meta, n_traces)
    samples = list(generate_traces(graph, meta, spec, n_traces, faults))

    base_cfg = cfg or SamplingConfig(ratio=0.2)
    probe_cache = PathCache()
    dss_total = span_total = 0
    for sample in samples[:_LSR_PROBE]:
        trace = sample.trace
        resolutions = list(map(mapping.resolve, trace.services, trace.operations))
        dss_total += len(align(graph, trace, probe_cache, resolutions).sets)
        span_total += len(trace)
    lsr = dss_total / span_total if span_total else 0.0

    p = ratio if ratio is not None else min(1.0, lsr + 0.05)
    run_cfg = replace(base_cfg, ratio=p)
    pipeline = SamplingPipeline(graph, mapping, run_cfg)

    results = []
    kept_auto: dict[str, frozenset] = {}
    bucket_rows: dict[str, list] = {label: [] for label in _BUCKET_LABELS}
    for sample in samples:
        res = pipeline.process(sample.trace)
        results.append(res)
        kept_auto[sample.trace.trace_id] = frozenset(res.decision.kept)
        bucket_rows[bucket_of(len(sample.trace))].append(
            (len(res.decision.kept) / len(sample.trace), len(res.path.sets), len(sample.trace))
        )

    reports = []
    bounds = []  # per inferred span, the relative error an ideal filler expects
    stats = pipeline.stats_snapshot()
    for res in results:
        rebuilt = pipeline.reconstruct_result(res, stats)
        reports.append(structural_fidelity(res.trace, rebuilt, pipeline.mapping))
        bounds += [lognormal_relative_error(meta.durations.get(r.function, (6.0, 0.3))[1])
                   for r in rebuilt.inferred()]
    structure_exact_rate, mean_duration_error = fidelity_means(reports)

    labeled = set()
    for sample in samples:
        labeled.update(sample.labels)

    def coverage_of(kept: dict[str, frozenset]):
        if not labeled:
            return None
        hit = sum(
            len(sample.labels & kept.get(sample.trace.trace_id, frozenset()))
            for sample in samples
        )
        return hit / len(labeled)

    coverage = {"autoscope": coverage_of(kept_auto)}
    for name in BASELINES:
        kept = run_baseline(name, samples, p, run_cfg)
        coverage[name] = coverage_of(kept)

    total_spans = sum(len(s.trace) for s in samples)
    total_kept = sum(len(v) for v in kept_auto.values())
    buckets = []
    for label, rows in bucket_rows.items():
        buckets.append({
            "bucket": label,
            "traces": len(rows),
            "mean_ratio": sum(r[0] for r in rows) / len(rows) if rows else 0.0,
            "mean_dss": sum(r[1] for r in rows) / len(rows) if rows else 0.0,
            "mean_spans": sum(r[2] for r in rows) / len(rows) if rows else 0.0,
        })

    return EvalReport(
        n_traces=len(samples),
        ratio_requested=p,
        lsr=lsr,
        sampling_ratio=total_kept / total_spans if total_spans else 0.0,
        coverage=coverage,
        labeled_spans=len(labeled),
        structure_exact_rate=structure_exact_rate,
        mean_duration_error=mean_duration_error,
        duration_error_bound=(2.0 * sum(bounds) / len(bounds) + 0.02) if bounds else 0.0,
        buckets=buckets,
        timings=pipeline.timing_report(),
    )


def write_report_files(report: EvalReport, out_dir) -> list[str]:
    """Deterministic CSV and text outputs; timing goes to a separate file."""
    import csv
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "buckets.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["bucket", "traces", "mean_ratio", "mean_dss", "mean_spans"])
        for b in report.buckets:
            w.writerow([b["bucket"], b["traces"], f"{b['mean_ratio']:.6f}",
                        f"{b['mean_dss']:.4f}", f"{b['mean_spans']:.4f}"])
    written.append(path)

    path = os.path.join(out_dir, "coverage.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "faulty_span_coverage"])
        for method in sorted(report.coverage):
            cov = report.coverage[method]
            w.writerow([method, "n/a" if cov is None else f"{cov:.6f}"])
    written.append(path)

    path = os.path.join(out_dir, "fidelity.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["structure_exact_rate", "mean_duration_error", "duration_error_bound"])
        w.writerow([f"{report.structure_exact_rate:.6f}",
                    f"{report.mean_duration_error:.6f}",
                    f"{report.duration_error_bound:.6f}"])
    written.append(path)

    path = os.path.join(out_dir, "report.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.text_lines()) + "\n")
    written.append(path)

    path = os.path.join(out_dir, "timing.txt")
    write_timing(report.timings, path)
    written.append(path)
    return written
