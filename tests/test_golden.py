"""Golden bytes: the files `sample` and `reconstruct` write, pinned by sha256.

Each case is a small run of one benchmark system: its graph, 200 traces of
its traffic with the default fault windows, then `sample` and `reconstruct`
through `cli.main`. A change that moves a decision, a kept span, a statistic
or a rebuilt span fails here. When a change means to move them, say why and
update the hashes with it.
"""

import hashlib
from dataclasses import replace

import pytest

from spanscope import cli, harness
from spanscope.cscfg import build_cscfg
from spanscope.model import serialize_trace

N_TRACES = 200
TRAFFIC_SEED = 5

# (traffic spec, whether the system is variable_depth_system, ratio); the
# systems and ratios of the default, shape-churn and deep-chains workloads
SYSTEMS = {
    "default": (harness.SystemSpec(), False, 0.3),
    "shape-churn": (harness.SystemSpec(n_services=40, n_functions_per_service=40,
                                       branch_probability=0.3, url_span_probability=0.1),
                    False, 0.3),
    "deep-chains": (harness.SystemSpec(url_span_probability=0.0), True, 0.1),
}

GOLDEN = {
    "default": {
        "decisions.ndjson": "9efdbf8591cfa3aa606fcd45fff264c9e01f01fcf104453c91fd9f85390bab48",
        "kept.ndjson": "4b8a09b79ae9ef53a8581813debf7d80bd9656952a8a6c66113d5dc8a1d4a92e",
        "stats.json": "e56caf2fa85bdc6bbfe300ed49d66783550c7a9f204529990e601e68d0b4e1d5",
        "reconstructed.ndjson":
            "e74105f214a60cefb3f1650d2dd4954577d9cd8208c0de071dafca2229e92678",
    },
    "shape-churn": {
        "decisions.ndjson": "77ed4d75a176c9b77cbb1f80d1aa7ca18ebae1a8f7edf13918ae2e649cb8c352",
        "kept.ndjson": "244bf7b18fa205d3967e4aed21d8385803e65c86837c321c0f9638b39c93fb5b",
        "stats.json": "ee91e35f2aec1e96ec70b2466f17a709d012ec5dde975d466950550d307fde3f",
        "reconstructed.ndjson":
            "bd906640e4e7c224d181b0f926b81a0795840832c183b619cfeab4b22e3f9f5d",
    },
    "deep-chains": {
        "decisions.ndjson": "b403f5a9bacc65dcf48133ea572aa5b73c1dc4c52fc23ab3622a9cfdb4a600c8",
        "kept.ndjson": "fa69853905aea5dcb810c786b8bb86c733c632745270c6d2f22f87e2ee97ee08",
        "stats.json": "2f91b8258d871deea3e2feb0453720d588fa5aca3821e52daf61c559e318888b",
        "reconstructed.ndjson":
            "280edbd538dfc49302999508bf0885fa9778fb36e9336e46350f6f49d01f023b",
    },
}


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_sample_and_reconstruct_write_the_golden_bytes(tmp_path, system):
    spec, depth, ratio = SYSTEMS[system]
    doc, meta = harness.variable_depth_system() if depth else harness.generate_system(spec)
    graph = build_cscfg(doc).freeze()
    graph_path, trace_path = str(tmp_path / "graph.json"), tmp_path / "traces.ndjson"
    graph.save_artifact(graph_path)
    faults = harness.make_default_faults(meta, N_TRACES)
    samples = harness.generate_traces(graph, meta, replace(spec, seed=TRAFFIC_SEED),
                                      N_TRACES, faults)
    trace_path.write_text("".join(serialize_trace(s.trace) + "\n" for s in samples),
                          encoding="utf-8")

    out = tmp_path / "out"
    assert cli.main(["sample", "--graph", graph_path, "--traces", str(trace_path),
                     "--out", str(out), "--ratio", str(ratio)]) == 0
    assert cli.main(["reconstruct", "--graph", graph_path,
                     "--decisions", str(out / "decisions.ndjson"),
                     "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                     "--out", str(out)]) == 0

    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN[system]}
    assert got == GOLDEN[system]
