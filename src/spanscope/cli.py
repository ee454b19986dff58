"""Command-line entry point.

Subcommands: build-graph, sample, reconstruct, eval, stats-export. A JSON
configuration file may supply any option; explicit flags win over the file,
which wins over defaults. Each command runs one single-threaded pipeline,
so outputs are deterministic for fixed inputs and seed; wall-clock timings
go to a separate timing.txt that is expected to differ between runs.

`sample` writes one decision per trace to decisions.ndjson: a record of
what `reconstruct` reads, the trace id, the entry function, the forks of
the aligned path, the sorted kept span ids and "at", the replay call where
each kept span goes. kept.ndjson holds the kept spans themselves. The
per-set DSS reports stay in memory and are not stored. Where the graph
lags the code, align inserts a call the graph lacks or skips a call the
trace does not make; "forks" then also holds each such edit, at its place
in the path, and `reconstruct` replays it. `sample` prints the stored bytes
ratio, the bytes of those two files over the bytes of the trace file, and
how many decisions record edits, the one sign in a run that its graph lags
the code. `reconstruct` reads the two files in step, one decision and one
kept record at a time, and checks that each kept record belongs to its
decision's trace and holds the spans the decision lists; a kept record left
over after the last decision is an error too, and so is a decision whose
"at" places a kept span past the replay's calls or at a call of another
function, or whose edits do not fit its path; each names its file and line.
Lines rebuilt before an error stay written.
Each rebuilt trace is written as the rebuild placed it, from its records;
its span objects are built only with --traces, for the fidelity report.

Exit codes: 0 success, 1 input or pipeline error, 2 configuration error.
Set SPANSCOPE_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import harness
from .cscfg import Cscfg, build_cscfg
from .errors import ConfigError, DanglingCalleeError, MalformedDocumentError, SpanscopeError
from .mapping import build_map, load_shared_dictionary
from .model import bad_record, exclusive_durations, read_trace_file, span_from_dict
from .pipeline import SamplingPipeline, write_timing
from .reconstruct import fidelity_means, reconstruct, structural_fidelity
from .sampler import SamplingConfig, decision_from_dict, span_key
from .scoring import ScoreBook, load_snapshot, save_snapshot

log = logging.getLogger("spanscope")

# the config keys of the system that `eval` generates
_SYSTEM_KEYS = ("seed", "n_services", "n_functions_per_service", "branch_probability",
                "max_call_depth", "shared_library_fraction", "url_span_probability")
# every key that `sample`, `eval` or `stats-export` reads, so one file serves all three
_CONFIG_KEYS = frozenset(_SYSTEM_KEYS + (
    "n_traces", "ratio", "theta", "window", "min_obs", "lrs_horizon", "fixed_threshold"))


def _setup_logging() -> None:
    level = os.environ.get("SPANSCOPE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config key {unknown[0]!r}")
    return cfg


def _setting(args, config: dict, name: str, default):
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _sampling_config(args, config: dict) -> SamplingConfig:
    try:
        fixed = _setting(args, config, "fixed_threshold", None)
        return SamplingConfig(
            ratio=float(_setting(args, config, "ratio", 0.15)),
            theta_quantile=float(_setting(args, config, "theta", 0.90)),
            window=int(_setting(args, config, "window", 512)),
            min_obs=int(_setting(args, config, "min_obs", 8)),
            lrs_horizon=int(_setting(args, config, "lrs_horizon", 1024)),
            fixed_threshold=None if fixed is None else float(fixed),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_mapping(graph: Cscfg, shared_dict_path: str | None):
    shared = load_shared_dictionary(shared_dict_path) if shared_dict_path else None
    return build_map(graph, shared)


def cmd_build_graph(args) -> int:
    try:
        graph = build_cscfg(_read_text(args.graph))
    except (MalformedDocumentError, DanglingCalleeError) as exc:
        raise MalformedDocumentError(f"{args.graph}: bad call-graph document: {exc}") from exc
    for fn in sorted(graph.functions):
        if not graph.has_body(fn):
            continue
        classes = graph.dominance(fn).classes()
        print(f"{fn}: {len(graph.blocks_of(fn))} blocks, "
              f"{len(classes)} mutual-dominance classes")
    graph.freeze()
    graph.save_artifact(args.out)
    print(f"artifact written to {args.out}")
    return 0


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_sample(args) -> int:
    config = _load_config(args.config)
    cfg = _sampling_config(args, config)
    graph = Cscfg.load_artifact(args.graph)
    mapping = _load_mapping(graph, args.shared_dict)
    pipeline = SamplingPipeline(graph, mapping, cfg)

    os.makedirs(args.out, exist_ok=True)
    decisions_path = os.path.join(args.out, "decisions.ndjson")
    kept_path = os.path.join(args.out, "kept.ndjson")
    total_spans = total_kept = 0
    with open(decisions_path, "w", encoding="utf-8") as dfh, \
            open(kept_path, "w", encoding="utf-8") as kfh:
        for trace in read_trace_file(args.traces):
            result = pipeline.process(trace)
            dfh.write(result.decision.serialize() + "\n")
            kept_spans = [result.trace.span(sid).to_dict() for sid in result.decision.kept]
            kfh.write(json.dumps(
                {"trace_id": result.trace.trace_id, "spans": kept_spans},
                sort_keys=True, separators=(",", ":")) + "\n")
            total_spans += len(result.trace)
            total_kept += len(result.decision.kept)

    save_snapshot(pipeline.stats_snapshot(), os.path.join(args.out, "stats.json"))
    timing = pipeline.timing_report()
    write_timing(timing, os.path.join(args.out, "timing.txt"))
    ratio = total_kept / total_spans if total_spans else 0.0
    input_bytes = os.path.getsize(args.traces)
    stored = os.path.getsize(decisions_path) + os.path.getsize(kept_path)
    print(f"sampled {timing['traces']} traces, effective ratio {ratio:.4f}")
    print(f"stored bytes ratio {stored / input_bytes if input_bytes else 0.0:.4f} "
          f"(decisions and kept spans over the trace file)")
    print(f"partition side {timing['partition_side_s']}s, "
          f"selection side {timing['selection_side_s']}s, "
          f"{timing['per_trace_ms']} ms/trace")
    paths, solves = timing["path_cache"], timing["solve_cache"]
    subtrees = timing["subtree_cache"]
    print(f"align cache: trace hits {paths['hits']}/{paths['hits'] + paths['misses']}, "
          f"invocation hits {solves['hits']}/{solves['hits'] + solves['misses']}, "
          f"subtree hits {subtrees['hits']}/{subtrees['hits'] + subtrees['misses']}")
    print(f"{timing['decisions_leaving_graph']} of {timing['traces']} decisions record edits "
          f"(calls the graph lacks or the trace skips)")
    return 0


def _kept_records(fh, path: str):
    """Yields (line number, trace id, spans) for each record of the open kept
    file, one at a time; a bad record raises an error naming file and line."""
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            trace_id = obj["trace_id"]
            spans = [span_from_dict(s, trace_id) for s in obj["spans"]]
        except (ValueError, KeyError, TypeError, MalformedDocumentError) as exc:
            raise bad_record(path, lineno, "kept-spans", exc) from exc
        yield lineno, trace_id, spans


def cmd_reconstruct(args) -> int:
    graph = Cscfg.load_artifact(args.graph)
    mapping = _load_mapping(graph, args.shared_dict)
    stats = load_snapshot(args.stats)
    originals = {}
    if args.traces:
        originals = {t.trace_id: t for t in read_trace_file(args.traces)}

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "reconstructed.ndjson")
    n = 0
    reports = []
    # sample writes one kept record per decision, in the same order, so the
    # two files are read in step
    with open(args.decisions, "r", encoding="utf-8") as dfh, \
            open(args.kept, "r", encoding="utf-8") as kfh, \
            open(out_path, "w", encoding="utf-8") as fh:
        kept_records = _kept_records(kfh, args.kept)
        for lineno, line in enumerate(dfh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                decision = decision_from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise bad_record(args.decisions, lineno, "decision", exc) from exc
            where = f"{args.decisions}:{lineno}: trace {decision.trace_id!r}"
            kept_lineno, kept_id, spans = next(kept_records, (None, None, None))
            if kept_lineno is None:
                raise MalformedDocumentError(f"{where} has no kept record in {args.kept}")
            if kept_id != decision.trace_id:
                raise MalformedDocumentError(
                    f"{where} meets the kept record of trace {kept_id!r} "
                    f"at {args.kept}:{kept_lineno}")
            if tuple(sorted(s.span_id for s in spans)) != decision.kept:
                raise MalformedDocumentError(
                    f"{where}: its {len(decision.kept)} kept span ids differ from the "
                    f"{len(spans)} at {args.kept}:{kept_lineno}")
            try:
                rebuilt = reconstruct(decision, spans, graph, stats, mapping)
            except SpanscopeError as exc:  # the decision does not fit the graph
                raise MalformedDocumentError(f"{where}: {exc}") from exc
            fh.write(rebuilt.serialize() + "\n")
            n += 1
            if decision.trace_id in originals:
                reports.append(structural_fidelity(originals[decision.trace_id],
                                                   rebuilt, mapping))
        kept_lineno, kept_id, _spans = next(kept_records, (None, None, None))
        if kept_lineno is not None:
            raise MalformedDocumentError(
                f"{args.kept}:{kept_lineno}: the kept record of trace {kept_id!r} "
                f"follows the last decision in {args.decisions}")
    if reports:
        exact_rate, duration_error = fidelity_means(reports)
        fidelity = {"structure_exact_rate": round(exact_rate, 6),
                    "mean_duration_error": round(duration_error, 6)}
        with open(os.path.join(args.out, "fidelity.json"), "w", encoding="utf-8") as fh:
            json.dump(fidelity, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"structure_exact_rate {fidelity['structure_exact_rate']}")
    print(f"reconstructed {n} traces to {out_path}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    spec_fields = {}
    for name in _SYSTEM_KEYS:
        if name in config:
            spec_fields[name] = config[name]
    if args.seed is not None:
        spec_fields["seed"] = args.seed
    try:
        spec = harness.SystemSpec(**spec_fields)
        spec.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    n = args.n if args.n is not None else config.get("n_traces", 2000)
    # bool is an int subclass, so compare the type itself
    if type(n) is not int or n < 1:
        raise ConfigError(f"n_traces must be a positive integer, got {n!r}")
    doc, meta = harness.generate_system(spec)
    cfg = _sampling_config(args, config)
    report = harness.evaluate(doc, meta, spec, n, cfg=cfg, ratio=args.ratio)
    files = harness.write_report_files(report, args.out)
    for line in report.text_lines():
        print(line)
    print("wrote " + ", ".join(sorted(os.path.basename(f) for f in files)))
    return 0


def cmd_stats_export(args) -> int:
    config = _load_config(args.config)
    cfg = _sampling_config(args, config)
    graph = Cscfg.load_artifact(args.graph)
    mapping = _load_mapping(graph, args.shared_dict)
    # scored as `sample` scores: same keys, same int durations, same order
    book = ScoreBook(window=cfg.window, min_obs=cfg.min_obs, theta=cfg.theta_quantile)
    n = 0
    for trace in read_trace_file(args.traces):
        excl = exclusive_durations(trace)
        for span in trace.arrival:
            book.window_for(span_key(mapping.resolve(span), span)).score(excl[span.span_id])
        n += 1
    save_snapshot(book.snapshot(), args.out)
    print(f"statistics over {n} traces written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanscope",
        description="Span-level trace sampling with code-structure awareness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("build-graph", help="build and freeze a call-site graph artifact")
    pb.add_argument("--graph", required=True, help="call-graph document (JSON)")
    pb.add_argument("--out", required=True, help="artifact output path")
    pb.set_defaults(func=cmd_build_graph)

    ps = sub.add_parser("sample", help="run map/align/partition/select over traces")
    ps.add_argument("--graph", required=True, help="graph artifact path")
    ps.add_argument("--traces", required=True, help="trace file (ndjson)")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--ratio", type=float, help="sampling ratio p in (0,1]")
    ps.add_argument("--theta", type=float, help="threshold quantile (default 0.90)")
    ps.add_argument("--window", type=int, help="sliding window size (default 512)")
    ps.add_argument("--shared-dict", help="shared-library dictionary")
    ps.add_argument("--config", help="JSON config file")
    ps.set_defaults(func=cmd_sample)

    pr = sub.add_parser("reconstruct", help="rebuild full traces from decisions")
    pr.add_argument("--graph", required=True)
    pr.add_argument("--decisions", required=True)
    pr.add_argument("--kept", required=True)
    pr.add_argument("--stats", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--traces", help="original traces, enables the fidelity report")
    pr.add_argument("--shared-dict")
    pr.set_defaults(func=cmd_reconstruct)

    pe = sub.add_parser("eval", help="synthetic end-to-end evaluation")
    pe.add_argument("--out", required=True)
    pe.add_argument("--seed", type=int)
    pe.add_argument("--n", type=int, help="number of traces (default 2000)")
    pe.add_argument("--ratio", type=float, help="fixed ratio; default derives from the LSR")
    pe.add_argument("--theta", type=float)
    pe.add_argument("--window", type=int)
    pe.add_argument("--config", help="JSON config file (system and sampling fields)")
    pe.set_defaults(func=cmd_eval)

    px = sub.add_parser("stats-export", help="export per-key statistics from traces")
    px.add_argument("--graph", required=True)
    px.add_argument("--traces", required=True)
    px.add_argument("--out", required=True)
    px.add_argument("--shared-dict")
    px.add_argument("--window", type=int)
    px.add_argument("--config")
    px.set_defaults(func=cmd_stats_export)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpanscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
