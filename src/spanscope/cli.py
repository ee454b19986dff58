"""Command-line entry point.

Subcommands: build-graph, sample, reconstruct, eval. `sample` and `eval`
read a JSON configuration file of the 11 keys in `_CONFIG_KEYS`: ratio, theta
and window, which both read, and seed, n_services, n_functions_per_service,
branch_probability, max_call_depth, shared_library_fraction,
url_span_probability and n_traces, which only `eval` reads. A value must be a
JSON number of its key's type, an integer for an integer key; any other value
or key is a configuration error. A flag of the same name wins over the file,
which wins over defaults. Each command runs one single-threaded pipeline,
so outputs are deterministic for fixed inputs and seed; wall-clock timings
go to a separate timing.txt that is expected to differ between runs.

`sample` writes one decision per trace to decisions.ndjson: a record of
what `reconstruct` reads, the trace id, the entry function, the forks of
the aligned path, the sorted kept span ids and "at", the replay call where
each kept span goes. kept.ndjson holds the kept spans themselves. The
per-set pick counts stay in memory and are not stored. Where the graph
lags the code, align inserts a call the graph lacks or skips a call the
trace does not make; "forks" then also holds each such edit, at its place
in the path, and `reconstruct` replays it. `sample` prints the stored bytes
ratio, the bytes of those two files over the bytes of the trace file, and
how many decisions record edits, the one sign in a run that its graph lags
the code. `model` reads every line of a trace, decision or kept file and
writes every kept line, so this module holds no line loop and no span-record
format. `reconstruct` reads the two files in step, one decision and one kept
record at a time, and checks that each kept record belongs to its decision's
trace and holds the spans the decision lists; a kept record left over after
the last decision is an error too, and so is a decision whose "at" places a
kept span past the replay's calls or at a call of another function, or
whose edits do not fit its path; each names its file and line.
Lines rebuilt before an error stay written.
Each rebuilt trace is written as the rebuild placed it, from its records;
its span objects are built only with --traces, for the fidelity report.
The trace file given there is read in step with the decisions too, in
whatever order it holds the traces: only the traces read ahead of their own
decision are held, each until that decision uses it.

Exit codes: 0 success, 1 input or pipeline error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing, nullcontext
from dataclasses import fields

from . import harness
from .cscfg import Cscfg, build_cscfg
from .errors import (
    ConfigError,
    DanglingCalleeError,
    InvalidSpecError,
    MalformedDocumentError,
    SpanscopeError,
)
from .mapping import build_map, load_shared_dictionary
from .model import read_records, read_trace_file, serialize_trace
from .pipeline import SamplingPipeline, write_timing
from .reconstruct import fidelity_means, reconstruct, structural_fidelity
from .sampler import SamplingConfig, decision_from_dict
from .scoring import DEFAULT_THETA, DEFAULT_WINDOW, load_snapshot, save_snapshot

# every key that `sample` or `eval` reads, so one file serves both, and its
# type; each names a SystemSpec or SamplingConfig field, or the trace count
# that `eval --n` sets, and the flag of the same name
_CONFIG_KEYS = {"seed": int, "n_services": int, "n_functions_per_service": int,
                "branch_probability": float, "max_call_depth": int,
                "shared_library_fraction": float, "url_span_probability": float,
                "n_traces": int, "ratio": float, "theta": float, "window": int}


def _load_config(path: str | None) -> dict:
    """The file's values, each a JSON number of its key's type."""
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(cfg.keys() - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config key {unknown[0]!r}")
    for key, value in cfg.items():
        kind = _CONFIG_KEYS[key]
        # a JSON boolean is a Python int, so compare the type itself
        if type(value) is not int and (kind is int or type(value) is not float):
            raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                              f"got {json.dumps(value)}")
    return cfg


def _settings(args) -> dict:
    """The config file's values with the flags that were given laid over them."""
    values = _load_config(args.config)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _fields_set(cls, values: dict) -> dict:
    """The values of the dataclass cls's fields that were set, by name."""
    return {f.name: values[f.name] for f in fields(cls) if f.name in values}


def _sampling_config(values: dict) -> SamplingConfig:
    """The sampling keys that were set; SamplingConfig holds the defaults of the rest."""
    try:
        return SamplingConfig(**_fields_set(SamplingConfig, values))
    except ValueError as exc:
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
        print(f"{fn}: {len(graph.subgraph(fn).blocks)} blocks, "
              f"{len(classes)} mutual-dominance classes")
    graph.save_artifact(args.out)
    print(f"artifact written to {args.out}")
    return 0


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_sample(args) -> int:
    cfg = _sampling_config(_settings(args))
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
            kept = map(trace.index.__getitem__, result.decision.kept)
            kfh.write(serialize_trace(trace, kept) + "\n")
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
    stages = timing["stages_s"]
    print(f"stage seconds: map {stages['map']}, align {stages['align']}, "
          f"select {stages['select']}; {timing['per_trace_ms']} ms/trace")
    paths, solves = timing["path_cache"], timing["solve_cache"]
    subtrees = timing["subtree_cache"]
    print(f"align cache: trace hits {paths['hits']}/{paths['hits'] + paths['misses']}, "
          f"invocation hits {solves['hits']}/{solves['hits'] + solves['misses']}, "
          f"subtree hits {subtrees['hits']}/{subtrees['hits'] + subtrees['misses']}")
    print(f"{timing['decisions_leaving_graph']} of {timing['traces']} decisions record edits "
          f"(calls the graph lacks or the trace skips)")
    return 0


def _decision(line: str):
    return decision_from_dict(json.loads(line))


class _TraceFile:
    """The traces of a trace file, read in step with the decisions.

    take(trace_id) reads ahead until that trace turns up and holds the
    traces it passes over, by id, until their own decision takes them; a
    bad line raises when the reader reaches it. Only the traces ahead of
    their decisions are held, so a file in sample's order holds none.
    """

    def __init__(self, path: str):
        self._traces = read_trace_file(path)
        self._ahead: dict = {}

    def take(self, trace_id: str):
        """trace_id's trace, or None when the file does not hold it."""
        trace = self._ahead.pop(trace_id, None)
        if trace is not None:
            return trace
        for trace in self._traces:
            if trace.trace_id == trace_id:
                return trace
            self._ahead[trace.trace_id] = trace
        return None

    def close(self) -> None:
        self._traces.close()


def cmd_reconstruct(args) -> int:
    graph = Cscfg.load_artifact(args.graph)
    mapping = _load_mapping(graph, args.shared_dict)
    stats = load_snapshot(args.stats)

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "reconstructed.ndjson")
    n = 0
    reports = []
    # sample writes one kept record per decision, in the same order, so the
    # two files are read in step
    with closing(read_records(args.decisions, "decision", _decision)) as decisions, \
            closing(read_records(args.kept, "kept-spans")) as kept_records, \
            open(out_path, "w", encoding="utf-8") as fh, \
            closing(_TraceFile(args.traces)) if args.traces else nullcontext() as originals:
        for lineno, decision in decisions:
            where = f"{args.decisions}:{lineno}: trace {decision.trace_id!r}"
            kept_lineno, (kept_id, spans) = next(kept_records, (None, (None, None)))
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
            original = None if originals is None else originals.take(decision.trace_id)
            if original is not None:
                reports.append(structural_fidelity(original, rebuilt, mapping))
        kept_lineno, (kept_id, _spans) = next(kept_records, (None, (None, None)))
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
    values = _settings(args)
    try:
        spec = harness.SystemSpec(**_fields_set(harness.SystemSpec, values))
        spec.validate()
    except InvalidSpecError as exc:
        raise ConfigError(str(exc)) from exc
    n = values.get("n_traces", 2000)
    if n < 1:
        raise ConfigError(f"n_traces must be a positive integer, got {n!r}")
    cfg = _sampling_config(values)
    doc, meta = harness.generate_system(spec)
    report = harness.evaluate(doc, meta, spec, n, cfg=cfg, ratio=values.get("ratio"))
    files = harness.write_report_files(report, args.out)
    for line in report.text_lines():
        print(line)
    print("wrote " + ", ".join(sorted(os.path.basename(f) for f in files)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spanscope",
        description="Span-level trace sampling with code-structure awareness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("build-graph", help="build a call-site graph artifact")
    pb.add_argument("--graph", required=True, help="call-graph document (JSON)")
    pb.add_argument("--out", required=True, help="artifact output path")
    pb.set_defaults(func=cmd_build_graph)

    ps = sub.add_parser("sample", help="run map/align/select over traces")
    ps.add_argument("--graph", required=True, help="graph artifact path")
    ps.add_argument("--traces", required=True, help="trace file (ndjson)")
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--ratio", type=float, help="sampling ratio p in (0,1]")
    ps.add_argument("--theta", type=float, help=f"threshold quantile (default {DEFAULT_THETA})")
    ps.add_argument("--window", type=int, help=f"sliding window size (default {DEFAULT_WINDOW})")
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
    pe.add_argument("--n", type=int, dest="n_traces", metavar="N",
                    help="number of traces (default 2000)")
    pe.add_argument("--ratio", type=float, help="fixed ratio; default derives from the LSR")
    pe.add_argument("--theta", type=float, help=f"threshold quantile (default {DEFAULT_THETA})")
    pe.add_argument("--window", type=int, help=f"sliding window size (default {DEFAULT_WINDOW})")
    pe.add_argument("--config", help="JSON config file (system and sampling fields)")
    pe.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
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
