"""Golden bytes: the files `sample` and `reconstruct` write, pinned by sha256.

Each case is a small run of one benchmark system: its graph, 200 traces of
its traffic with the default fault windows, then `sample` and `reconstruct`
through `cli.main`. One more run starts from a graph that `build-graph`
builds from a document that lags the code, so that its decisions record
align's edits, and every trace still rebuilds exactly. A change that moves a
decision, a kept span, a statistic or a rebuilt span fails here. When a
change means to move them, say why and update the hashes with it.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from spanscope import cli, harness
from spanscope.cscfg import build_cscfg
from spanscope.model import serialize_trace

from .test_drift import DRIFTS, strip_body

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
        "decisions.ndjson": "480baafaba35eaf34cc99e3fcbe6c6347c5a84d693a8cb37f77e456e471d172a",
        "kept.ndjson": "4b8a09b79ae9ef53a8581813debf7d80bd9656952a8a6c66113d5dc8a1d4a92e",
        "stats.json": "e56caf2fa85bdc6bbfe300ed49d66783550c7a9f204529990e601e68d0b4e1d5",
        "reconstructed.ndjson":
            "c2db510c3dbc82466543d3f7ec983fbc4c2240c6e54b433fb9397111a9b5fa59",
    },
    "shape-churn": {
        "decisions.ndjson": "7628866ccf900a91476bc079bfb901dc3dee586be7758cc6b5b058b272384d1a",
        "kept.ndjson": "244bf7b18fa205d3967e4aed21d8385803e65c86837c321c0f9638b39c93fb5b",
        "stats.json": "ee91e35f2aec1e96ec70b2466f17a709d012ec5dde975d466950550d307fde3f",
        "reconstructed.ndjson":
            "830986ec06776abc7c8fdf90f7d5ac4fefdf78af1d60503af68ef73b93ed7045",
    },
    "deep-chains": {
        "decisions.ndjson": "26bca81168a0fd557f2225464d5bb464751e0237f1eee18076ea9ea37e70ed2b",
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
    graph = build_cscfg(doc)
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


# the default system's graph without one call its traffic makes, and
# without the body of the function that call calls
DRIFTED = {
    "graph.json": "49a9558ff52b79673fb50d589a910a024d06d801c815ef874559ce45a9b929c9",
    "decisions.ndjson": "dd702cf383778fe0fd066043bf98a4165cae09d62ff31e1038c623b7ffa9f63c",
    "kept.ndjson": "f5fea33401ef53a715bd3fe5937b428bee370a451af530c1afe8b56af743a45b",
    "stats.json": "e56caf2fa85bdc6bbfe300ed49d66783550c7a9f204529990e601e68d0b4e1d5",
    "reconstructed.ndjson":
        "74e26948fe1d9edb91c4fadc1d289a01ec0c8fc295a86c3401247ff90a2034ee",
    "fidelity.json": "98d5ade330496568a06e01a1bb59504e850381897274be110c00a0e27f82c93b",
}


def test_a_lagging_graph_built_by_build_graph_rebuilds_every_trace_exactly(tmp_path, capsys):
    spec = harness.SystemSpec()
    doc, meta = harness.generate_system(spec)
    faults = harness.make_default_faults(meta, N_TRACES)
    samples = harness.generate_traces(build_cscfg(doc), meta, replace(spec, seed=TRAFFIC_SEED),
                                      N_TRACES, faults)
    doc_path, trace_path = tmp_path / "doc.json", tmp_path / "traces.ndjson"
    doc_path.write_text(json.dumps(strip_body(DRIFTS["drop-a-call"](doc), "svc00:C5.op5")),
                        encoding="utf-8")
    trace_path.write_text("".join(serialize_trace(s.trace) + "\n" for s in samples),
                          encoding="utf-8")

    out = tmp_path / "out"
    graph_path = str(out / "graph.json")
    out.mkdir()
    assert cli.main(["build-graph", "--graph", str(doc_path), "--out", graph_path]) == 0
    assert cli.main(["sample", "--graph", graph_path, "--traces", str(trace_path),
                     "--out", str(out), "--ratio", "0.3"]) == 0
    edited = capsys.readouterr().out.splitlines()[-1]
    assert edited.endswith(f"of {N_TRACES} decisions record edits "
                           "(calls the graph lacks or the trace skips)")
    assert int(edited.split()[0]) > 0
    assert cli.main(["reconstruct", "--graph", graph_path,
                     "--decisions", str(out / "decisions.ndjson"),
                     "--kept", str(out / "kept.ndjson"), "--stats", str(out / "stats.json"),
                     "--traces", str(trace_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "structure_exact_rate 1.0"

    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in DRIFTED}
    assert got == DRIFTED
