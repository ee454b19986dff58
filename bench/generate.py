"""Load generator: turns a workload name and a seed into input files.

Writes into --out:
  graph.json       frozen call-site graph artifact, as `spanscope build-graph` writes it
  traces-K.ndjson  the traces of pass K, one per line, as `spanscope sample` reads them
  labels.json      {trace_id: [faulty span ids]} for traces inside fault windows

The passes are consecutive slices of one trace stream, and each slice has
its own fault windows (harness.make_default_faults) at the same relative
positions. The generator runs in its own process, so the measured process
starts with cold graph caches and none of the generator's memory.

    python3 bench/generate.py --workload default --seed 1 --passes 4 --out DIR [--traces N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spanscope import harness  # noqa: E402
from spanscope.cscfg import build_cscfg  # noqa: E402
from spanscope.model import serialize_trace  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def trace_file(inputs: str, k: int) -> str:
    return os.path.join(inputs, f"traces-{k}.ndjson")


def generate(workload: str, seed: int, out_dir: str, passes: int,
             traces: int | None = None) -> None:
    wl = WORKLOADS[workload]
    n = traces or wl.traces
    doc, meta = wl.build_system()
    graph = build_cscfg(doc)
    graph.freeze()
    os.makedirs(out_dir, exist_ok=True)
    graph.save_artifact(os.path.join(out_dir, "graph.json"))
    faults = [replace(f, window=(f.window[0] + k * n, f.window[1] + k * n))
              for k in range(passes) for f in harness.make_default_faults(meta, n)]
    stream = harness.generate_traces(graph, meta, wl.traffic_spec(seed), passes * n, faults)
    labels = {}
    for k in range(passes):
        with open(trace_file(out_dir, k), "w", encoding="utf-8") as fh:
            for _ in range(n):
                sample = next(stream)
                fh.write(serialize_trace(sample.trace) + "\n")
                if sample.labels:
                    labels[sample.trace.trace_id] = sorted(sample.labels)
    with open(os.path.join(out_dir, "labels.json"), "w", encoding="utf-8") as fh:
        json.dump(labels, fh, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traces", type=int, help="traces per pass (default: the workload's)")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.passes, args.traces)
    return 0


if __name__ == "__main__":
    sys.exit(main())
