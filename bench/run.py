"""spanscope benchmark: sample a generated trace stream, then rebuild it.

    python3 bench/run.py --workload default --seed 1 --seconds 20 --trace 0

1. bench/generate.py runs in a child process and turns (workload, seed) into
   a graph artifact, one trace file per pass and fault labels under
   .bench_work/. --seconds sets the number of passes.
2. This process is the system under test. A pass sets up as `spanscope
   sample` does (load the artifact, build the span-function map, construct
   the pipeline), samples its trace file in a closed loop (read one line,
   parse, process, write its decision and kept spans, then read the next),
   saves the statistics snapshot, and then rebuilds every trace from what it
   wrote, as `spanscope reconstruct` does. Each pass loads its own graph, so
   the subgraph, dominance and path caches start cold every time.
3. Every trace is checked outside the timed regions. A trace that raises or
   fails a check counts as failed and the run goes on.
4. End-to-end timings are divided by the host slowness measured next to
   them (see calibrate()); throughput and set-up time are medians.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-module metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from importlib import import_module

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from spanscope.align import PathCache  # noqa: E402
from spanscope.cscfg import Cscfg  # noqa: E402
from spanscope.mapping import SpanFunctionMap, Unmapped  # noqa: E402
from spanscope.pipeline import SamplingPipeline  # noqa: E402
from spanscope.sampler import SamplingConfig, decision_from_dict  # noqa: E402
from spanscope.scoring import P2Quantile, RunningMedian, SpanStatWindow  # noqa: E402
from spanscope.scoring import load_snapshot, save_snapshot  # noqa: E402

from generate import trace_file  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Modules whose functions are called through the module, so the traced run
# can wrap them. Several are shadowed on the package by same-named functions.
model_mod = import_module("spanscope.model")
mapping_mod = import_module("spanscope.mapping")
recon_mod = import_module("spanscope.reconstruct")

SETUP_REPEATS = 9  # extra set-ups before the passes, for a steadier setup_s median
SEGMENT = 50  # traces per segment; each segment is followed by a calibration
# Calibration time of the development host (2-vCPU x86 VM) when neither slow
# nor fast; timings are reported at this host speed.
CALIBRATION_MS = 0.60


def _kernel() -> int:
    """Fixed stdlib-only work, independent of the program under test."""
    d: dict = {}
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0) + i
    return len(json.dumps(sorted((str(v), k) for k, v in d.items())))


def calibrate() -> float:
    """Host slowness right now: kernel time in ms over CALIBRATION_MS.

    The host's speed drifts by tens of percent over seconds to minutes, and
    the drift slows this kernel as much as the program. Dividing each timing
    by the slowness measured next to it reports it at one host speed; the
    best of three runs drops a collector pause that lands in the kernel.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3 / CALIBRATION_MS


def install_tracer(tracer: Tracer) -> None:
    """Wrap each module's public entry points, from outside the program."""
    pipeline_mod = import_module("spanscope.pipeline")
    tracer.wrap(model_mod, "parse_trace", "model.parse")
    tracer.wrap(Cscfg, "load_artifact", "cscfg.load_artifact")
    tracer.wrap_cold(Cscfg, "subgraph", "cscfg.subgraph")
    tracer.wrap_cold(Cscfg, "dominance", "cscfg.dominance")
    tracer.wrap(mapping_mod, "build_map", "mapping.build_map")
    tracer.wrap(SpanFunctionMap, "resolve", "mapping.resolve",
                tally=lambda r: "mapping.unmapped" if isinstance(r, Unmapped) else None)
    tracer.wrap(SamplingPipeline, "process", "pipeline.process")
    tracer.wrap_cached(pipeline_mod, "align", "align", PathCache)
    tracer.wrap(import_module("spanscope.align"), "trace_signature", "align.signature")
    tracer.wrap(pipeline_mod, "partition", "partition")
    tracer.wrap(pipeline_mod, "sample_trace", "sampler.select")
    tracer.wrap(SpanStatWindow, "score", "scoring.score")
    tracer.wrap(P2Quantile, "update", "scoring.p2_update")
    tracer.wrap(RunningMedian, "add", "scoring.median")
    tracer.wrap(RunningMedian, "remove", "scoring.median")
    tracer.wrap(sys.modules[__name__], "write_outputs", "io.write")
    tracer.wrap(recon_mod, "reconstruct", "reconstruct.rebuild")
    tracer.wrap(recon_mod, "structural_fidelity", "reconstruct.fidelity")


@dataclass
class PassResult:
    setup_s: float = 0.0
    sample_s: float = 0.0  # wall time of the sample phase, checks excluded
    sample_ms: list = field(default_factory=list)  # per-trace latency
    sample_n: list = field(default_factory=list)  # per-trace span count
    sample_slow: list = field(default_factory=list)  # calibrate() after each segment
    rebuild_ms: list = field(default_factory=list)
    rebuild_n: list = field(default_factory=list)
    rebuild_slow: list = field(default_factory=list)
    attempted: int = 0
    failed: set = field(default_factory=set)  # trace ids, or line numbers when unparsed
    failures: Counter = field(default_factory=Counter)  # error class or check -> count
    # deterministic counters
    spans: int = 0
    kept: int = 0
    requested: float = 0.0
    floor_short: float = 0.0
    budget_off: float = 0.0  # sum over traces of |kept share - requested ratio|
    sets: int = 0
    by_lrs: int = 0
    cost: int = 0
    insertions: int = 0
    traces_ok: int = 0
    faulty_kept: int = 0
    rebuilt: int = 0
    rebuilt_spans: int = 0
    exact: int = 0
    inferred: int = 0
    err_sum: float = 0.0
    err_n: int = 0

    def fail(self, key, error: str) -> None:
        self.failed.add(key)
        self.failures[error] += 1


def write_outputs(dfh, kfh, result) -> None:
    """Decision and kept spans of one trace, byte for byte as `spanscope sample`."""
    dfh.write(result.decision.serialize() + "\n")
    kept_spans = [result.trace.span(sid).to_dict() for sid in result.decision.kept]
    kfh.write(json.dumps({"trace_id": result.trace.trace_id, "spans": kept_spans},
                         sort_keys=True, separators=(",", ":")) + "\n")


def setup(graph_path: str, ratio: float) -> SamplingPipeline:
    graph = Cscfg.load_artifact(graph_path)
    mapping = mapping_mod.build_map(graph)
    return SamplingPipeline(graph, mapping, SamplingConfig(ratio=ratio))


def _digest_file(digest, path: str) -> None:
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)


def _check_sample(res: PassResult, result, labels: dict, ratio: float) -> str | None:
    """Per-trace checks and counters of the sample phase; returns a failed check."""
    trace, decision = result.trace, result.decision
    kept = set(decision.kept)
    n = len(trace)
    res.traces_ok += 1
    res.spans += n
    res.kept += len(kept)
    res.requested += ratio * n
    res.floor_short += max(0.0, ratio * n - len(kept))
    res.budget_off += abs(len(kept) / n - ratio)
    res.sets += len(result.dss_list)
    res.by_lrs += sum(r.picked_by_lrs for r in decision.dss_reports)
    res.cost += result.path.cost
    res.insertions += result.path.insertions
    res.faulty_kept += len(kept & labels.get(trace.trace_id, set()))
    if not kept <= trace.span_ids():
        return "check:kept-id-outside-trace"
    if any(kept.isdisjoint(d.spans) for d in result.dss_list):
        return "check:dss-without-kept-span"
    return None


def _check_rebuild(res: PassResult, original, kept_ids, rebuilt, mapping) -> str | None:
    """Per-trace checks and counters of the rebuild phase; returns a failed check."""
    if original is None:
        return "check:decision-without-input-trace"
    res.rebuilt += 1
    res.rebuilt_spans += len(rebuilt.spans)
    report = recon_mod.structural_fidelity(original, rebuilt, mapping)
    res.exact += 1 if report.structure_exact else 0
    res.inferred += report.inferred_count
    if report.inferred_count:
        res.err_sum += report.duration_error * report.inferred_count
        res.err_n += report.inferred_count
    by_id = {r.span.span_id: r.span for r in rebuilt.spans}
    for sid in kept_ids:
        got = by_id.get(sid)
        want = original.span(sid) if original.has_span(sid) else None
        if got is None or want is None or got.with_parent(want.parent_id) != want:
            return "check:kept-span-changed"
    return None


def _checked(check, *args) -> str | None:
    try:
        return check(*args)
    except Exception as exc:  # a check that cannot run on an output fails it
        return f"check:{type(exc).__name__}"


def _originals(path: str):
    """Parsed traces of the input file in order, skipping lines that do not parse."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield model_mod.parse_trace(line)
            except Exception:  # counted as failed by the sample phase already
                continue


def run_pass(wl, inputs: str, traces_path: str, out: str, labels: dict,
             digests: tuple, tracer: Tracer | None) -> PassResult:
    """Set up, sample one trace file, rebuild it; digests get the bytes written."""
    res = PassResult()
    section = tracer.section if tracer is not None else (lambda _label: nullcontext())
    graph_path = os.path.join(inputs, "graph.json")
    decisions_path = os.path.join(out, "decisions.ndjson")
    kept_path = os.path.join(out, "kept.ndjson")
    stats_path = os.path.join(out, "stats.json")
    rebuilt_path = os.path.join(out, "reconstructed.ndjson")
    clock = time.perf_counter

    slow = calibrate()
    with section("setup"):
        t0 = clock()
        pipeline = setup(graph_path, wl.ratio)
        res.setup_s = (clock() - t0) / slow

    with section("sample"), \
            open(traces_path, "r", encoding="utf-8") as fin, \
            open(decisions_path, "w", encoding="utf-8") as dfh, \
            open(kept_path, "w", encoding="utf-8") as kfh:
        lineno = 0
        while True:
            t0 = clock()
            line = fin.readline()
            if not line:
                break
            lineno += 1
            line = line.strip()
            if not line:
                continue
            res.attempted += 1
            key = f"{os.path.basename(traces_path)}:{lineno}"
            try:
                trace = model_mod.parse_trace(line)
                key = trace.trace_id
                result = pipeline.process(trace)
                write_outputs(dfh, kfh, result)
            except Exception as exc:  # one bad trace costs one trace
                res.sample_s += clock() - t0
                res.fail(key, type(exc).__name__)
                continue
            dt = clock() - t0
            res.sample_s += dt
            res.sample_ms.append(dt * 1e3)
            res.sample_n.append(len(result.trace))
            if len(res.sample_ms) % SEGMENT == 0:
                res.sample_slow.append(calibrate())
            bad = _checked(_check_sample, res, result, labels, wl.ratio)
            if bad:
                res.fail(key, bad)
        if len(res.sample_ms) % SEGMENT:
            res.sample_slow.append(calibrate())
        t0 = clock()
        save_snapshot(pipeline.stats_snapshot(), stats_path)
        res.sample_s += clock() - t0
    del pipeline
    _digest_file(digests[0], decisions_path)

    with section("reconstruct_setup"):
        graph = Cscfg.load_artifact(graph_path)
        mapping = mapping_mod.build_map(graph)
        stats = load_snapshot(stats_path)

    with section("reconstruct"), \
            open(decisions_path, "r", encoding="utf-8") as dfh, \
            open(kept_path, "r", encoding="utf-8") as kfh, \
            open(rebuilt_path, "w", encoding="utf-8") as rfh:
        originals = _originals(traces_path)
        lineno = 0
        while True:
            t0 = clock()
            dline = dfh.readline()
            if not dline:
                break
            lineno += 1
            key = f"decisions.ndjson:{lineno}"
            try:
                decision = decision_from_dict(json.loads(dline))
                key = decision.trace_id
                kobj = json.loads(kfh.readline())
                kept = [model_mod.span_from_dict(s, kobj["trace_id"]) for s in kobj["spans"]]
                rebuilt = recon_mod.reconstruct(decision, kept, graph, stats, mapping)
                rfh.write(rebuilt.serialize() + "\n")
            except Exception as exc:  # one bad trace costs one trace
                res.fail(key, type(exc).__name__)
                continue
            res.rebuild_ms.append((clock() - t0) * 1e3)
            original = next((t for t in originals if t.trace_id == decision.trace_id), None)
            res.rebuild_n.append(len(original) if original is not None else 0)
            if len(res.rebuild_ms) % SEGMENT == 0:
                res.rebuild_slow.append(calibrate())
            bad = _checked(_check_rebuild, res, original, decision.kept, rebuilt, mapping)
            if bad:
                res.fail(key, bad)
        if len(res.rebuild_ms) % SEGMENT:
            res.rebuild_slow.append(calibrate())
    _digest_file(digests[1], rebuilt_path)
    return res


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 when every trace failed."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _total(passes: list, name: str):
    return sum(getattr(p, name) for p in passes)


def quality(passes: list, faulty: int, ratio: float) -> dict:
    """Deterministic outcome of one sweep over the run's trace files."""
    return {
        "coverage.faulty_spans": _ratio(_total(passes, "faulty_kept"), faulty),
        "reconstruct.structure_exact_rate": _ratio(_total(passes, "exact"),
                                                   _total(passes, "rebuilt")),
        "reconstruct.duration_error": _ratio(_total(passes, "err_sum"), _total(passes, "err_n")),
        # per trace: over the whole stream, budget that per-set minimums add
        # and budget that floors lose cancel out and leave a near-zero rest
        "sample.budget_error": _ratio(_total(passes, "budget_off"), _total(passes, "traces_ok")),
    }


def _calibrated(p: PassResult, phase: str) -> list:
    """Per-trace latencies of one phase, each divided by its segment's slowness."""
    ms, slow = getattr(p, phase + "_ms"), getattr(p, phase + "_slow")
    return [x / slow[i // SEGMENT] for i, x in enumerate(ms)]


def _throughput(passes: list, phase: str) -> float:
    """Median over segments of SEGMENT consecutive traces of spans / time."""
    rates = []
    for p in passes:
        ms, n = _calibrated(p, phase), getattr(p, phase + "_n")
        for i in range(0, len(ms), SEGMENT):
            rates.append(sum(n[i:i + SEGMENT]) / sum(ms[i:i + SEGMENT]) * 1e3)
    return statistics.median(rates) if rates else 0.0


def end_to_end(passes: list, setups: list, faulty: int, ratio: float) -> dict:
    """Timings are calibrated to one host speed; set-up time and throughput
    are medians, latency percentiles are over every trace of the run."""
    sample_ms = [x for p in passes for x in _calibrated(p, "sample")]
    rebuild_ms = [x for p in passes for x in _calibrated(p, "rebuild")]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sample.spans_per_s": (_throughput(passes, "sample"), "spans/s"),
        "sample.trace_p50_ms": (_percentile(sample_ms, 0.50), "ms"),
        "sample.trace_p99_ms": (_percentile(sample_ms, 0.99), "ms"),
        "reconstruct.spans_per_s": (_throughput(passes, "rebuild"), "spans/s"),
        "reconstruct.trace_p99_ms": (_percentile(rebuild_ms, 0.99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, value in quality(passes, faulty, ratio).items():
        metrics[name] = (value, "ratio")
    return metrics


def per_module(tracer: Tracer, traced: list, untraced: list) -> dict:
    """Per-module numbers from the traced passes."""
    sums = tracer.summaries()
    n = len(traced)
    traces = _total(traced, "traces_ok")

    def row(section, name):
        return sums.get(section, {}).get(name, (0, 0, 0))

    def mean(section, name, scale, own=False):
        calls, total, self_ns = row(section, name)
        return _ratio(self_ns if own else total, calls) / scale

    hits, misses = row("sample", "align.hit")[0], row("sample", "align.miss")[0]
    resolves = row("sample", "mapping.resolve")[0]
    unmapped = tracer.counts.get(("sample", "mapping.unmapped"), 0)
    us, ms = 1e3, 1e6
    return {
        "model.parse.us": (mean("sample", "model.parse", us), "us"),
        "cscfg.load_artifact.ms": (mean("setup", "cscfg.load_artifact", ms), "ms"),
        "cscfg.subgraph_cold.ms": (mean("sample", "cscfg.subgraph_cold", ms), "ms"),
        "cscfg.subgraph_cold.calls": (row("sample", "cscfg.subgraph_cold")[0] / n, "count"),
        "cscfg.dominance_cold.ms": (mean("sample", "cscfg.dominance_cold", ms), "ms"),
        "cscfg.dominance_cold.calls": (row("sample", "cscfg.dominance_cold")[0] / n, "count"),
        "mapping.build_map.ms": (mean("setup", "mapping.build_map", ms), "ms"),
        "mapping.resolve.us": (mean("sample", "mapping.resolve", us), "us"),
        "mapping.resolve.calls": (resolves / n, "count"),
        "mapping.unmapped_share": (_ratio(unmapped, resolves), "ratio"),
        "align.signature.us": (mean("sample", "align.signature", us), "us"),
        "align.hit.us": (mean("sample", "align.hit", us), "us"),
        "align.miss.us": (mean("sample", "align.miss", us), "us"),
        "align.hit_rate": (_ratio(hits, hits + misses), "ratio"),
        "align.cost_mean": (_ratio(_total(traced, "cost"), traces), "cost/trace"),
        "align.insertions_mean": (_ratio(_total(traced, "insertions"), traces), "spans/trace"),
        "partition.us": (mean("sample", "partition", us), "us"),
        "partition.sets_per_trace": (_ratio(_total(traced, "sets"), traces), "sets/trace"),
        "scoring.score.us": (mean("sample", "scoring.score", us, own=True), "us"),
        "scoring.p2_update.us": (mean("sample", "scoring.p2_update", us), "us"),
        "scoring.median.us": (mean("sample", "scoring.median", us), "us"),
        "sampler.select.us": (mean("sample", "sampler.select", us, own=True), "us"),
        "sampler.lrs_share": (_ratio(_total(traced, "by_lrs"), _total(traced, "kept")), "ratio"),
        "sampler.floor_loss": (_ratio(_total(traced, "floor_short"),
                                      _total(traced, "requested")), "ratio"),
        "reconstruct.rebuild.us": (mean("reconstruct", "reconstruct.rebuild", us), "us"),
        "reconstruct.fidelity.us": (mean("reconstruct", "reconstruct.fidelity", us), "us"),
        "reconstruct.inferred_share": (_ratio(_total(traced, "inferred"),
                                              _total(traced, "rebuilt_spans")), "ratio"),
        "pipeline.process.self_us": (mean("sample", "pipeline.process", us, own=True), "us"),
        "io.write.us": (mean("sample", "io.write", us), "us"),
        "trace.overhead": (_ratio(_total(traced, "sample_s"), _total(untraced, "sample_s")),
                           "ratio"),
    }


def measure(workload: str, inputs: str, work: str, passes: int, trace: bool) -> dict:
    """Sample and rebuild each generated trace file once (untraced), and once
    more traced when `trace` is set; returns the result object to print."""
    wl = WORKLOADS[workload]
    with open(os.path.join(inputs, "labels.json"), "r", encoding="utf-8") as fh:
        labels = {tid: set(sids) for tid, sids in json.load(fh).items()}
    faulty = sum(len(v) for v in labels.values())
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)

    setups = []
    if not trace:
        graph_path = os.path.join(inputs, "graph.json")
        for _ in range(SETUP_REPEATS):
            slow = calibrate()
            t0 = time.perf_counter()
            setup(graph_path, wl.ratio)
            setups.append((time.perf_counter() - t0) / slow)

    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    digests = (hashlib.sha256(), hashlib.sha256())
    traced_digests = (hashlib.sha256(), hashlib.sha256())
    tracer = Tracer() if trace else None
    for k in range(passes):
        traces_path = trace_file(inputs, k)
        untraced.append(run_pass(wl, inputs, traces_path, out, labels, digests, None))
        if tracer is not None:
            with tracer:
                install_tracer(tracer)
                traced.append(run_pass(wl, inputs, traces_path, out, labels,
                                       traced_digests, tracer))

    decisions_sha256, rebuilt_sha256 = (d.hexdigest() for d in digests)
    notes = []
    if tracer is not None:
        if tuple(d.hexdigest() for d in traced_digests) != (decisions_sha256, rebuilt_sha256):
            notes.append("traced and untraced runs differ in decisions_sha256 or rebuilt_sha256")
        metrics = per_module(tracer, traced, untraced)
        tracer.dump(os.path.join(os.path.dirname(work), f"trace-{workload}.tsv.gz"))
    else:
        metrics = end_to_end(untraced, setups + [p.setup_s for p in untraced], faulty, wl.ratio)

    all_passes = untraced + traced
    failures = Counter()
    for p in all_passes:
        failures.update(p.failures)
    checks_failed = sum(n for error, n in failures.items() if error.startswith("check:"))
    attempted = _total(all_passes, "attempted")
    failed = sum(len(p.failed) for p in all_passes)
    return {
        "workload": workload,
        "passes": passes,
        "traced": tracer is not None,
        "traces_per_pass": untraced[0].attempted,
        "decisions_sha256": decisions_sha256,
        "rebuilt_sha256": rebuilt_sha256,
        "effective_ratio": _ratio(_total(untraced, "kept"), _total(untraced, "spans")),
        "failures": dict(sorted(failures.items())),
        "failed_share": _ratio(failed, attempted),
        "notes": notes,
        "correct": not notes and checks_failed == 0 and _total(all_passes, "traces_ok") > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(result: dict) -> None:
    """Readable lines, then the JSON result object as the last line."""
    print(f"workload {result['workload']}: {result['passes']} passes of "
          f"{result['traces_per_pass']} traces, " + ("untraced and traced" if result["traced"]
                                                      else "untraced"))
    print(f"decisions_sha256 {result['decisions_sha256']}")
    print(f"rebuilt_sha256 {result['rebuilt_sha256']}")
    print(f"effective_ratio {result['effective_ratio']:.6f}")
    print(f"failed_share {result['failed_share']:.6f} "
          f"({result['failed']}/{result['attempted']}) by class {result['failures']}")
    for note in result["notes"]:
        print(f"check failed: {note}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spanscope sample/reconstruct benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced passes and print per-module metrics")
    parser.add_argument("--traces", type=int, help="traces per pass (default: the workload's)")
    args = parser.parse_args(argv)

    passes = WORKLOADS[args.workload].passes(args.seconds)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    gen = [sys.executable, os.path.join(BENCH_DIR, "generate.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(passes), "--out", inputs]
    if args.traces:
        gen += ["--traces", str(args.traces)]
    try:
        subprocess.run(gen, check=True, timeout=300)
        result = measure(args.workload, inputs, work, passes, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
