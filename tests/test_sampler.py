import dataclasses
import json
import os
import random
import subprocess
import sys

import pytest

import spanscope.sampler as sampler
import spanscope.scoring as scoring
from spanscope.align import TRUNK_TAG, ExecutionPath, PathCache, align
from spanscope.cscfg import build_cscfg
from spanscope.errors import EmptyPartitionError, PartitionMismatchError
from spanscope.harness import (
    SystemSpec,
    generate_system,
    generate_traces,
    make_default_faults,
    variable_depth_system,
)
from spanscope.mapping import build_map
from spanscope.model import exclusive_durations, serialize_trace
from spanscope.pipeline import SamplingPipeline
from spanscope.sampler import (
    DssReport,
    LrsLedger,
    SamplingConfig,
    SamplingDecision,
    allocate_budget,
    decision_from_dict,
    sample_trace,
    span_key,
)
from spanscope.scoring import ScoreBook, SpanStatWindow

from .conftest import make_span, make_trace, named_sets
from .oracles import (
    OracleLrsLedger,
    OracleScoreBook,
    alg1_budgets,
    oracle_decision_serialize,
    oracle_sample_trace,
    oracle_stored_decision,
)


def path_of(trace, *sets):
    """The ExecutionPath whose sets hold the given span ids, in order; a set
    is a list of ids, tagged TRUNK_TAG, or a pair (ids, tag). Each preorder
    slot is its own call, the path has no forks, and its entry is
    svc:C.f0."""
    slot_of = {trace.ids[i]: k for k, i in enumerate(trace.order)}
    sets = [s if isinstance(s, tuple) else (s, TRUNK_TAG) for s in sets]
    return ExecutionPath(tuple((tuple(slot_of[sid] for sid in ids), tag) for ids, tag in sets),
                         cost=0, insertions=0, forks=(), leaves_graph=False,
                         calls=tuple(range(len(trace))), entry="svc:C.f0")


class TestAllocateBudget:
    def test_hand_example_three_and_nine(self):
        assert allocate_budget([3, 9], 0.5) == [2, 4]

    def test_tight_budget_floors_to_one_each(self):
        # total budget 1 < 3 sets: every set still gets one slot, so the
        # effective ratio 3/15 exceeds the requested 0.1
        assert allocate_budget([5, 5, 5], 0.1) == [1, 1, 1]

    def test_single_set_full_retention(self):
        assert allocate_budget([10], 1.0) == [10]

    def test_empty_partition_rejected(self):
        with pytest.raises(EmptyPartitionError):
            allocate_budget([], 0.5)
        with pytest.raises(EmptyPartitionError):
            allocate_budget([0, 3], 0.5)

    def test_matches_transcription_randomized(self):
        rng = random.Random(77)
        for _ in range(1000):
            sizes = [rng.randint(1, 40) for _ in range(rng.randint(1, 12))]
            p = rng.choice([0.01, 0.05, rng.random(), 0.5, 0.9, 1.0])
            if p <= 0:
                p = 0.01
            assert allocate_budget(sizes, p) == alg1_budgets(sizes, p)

    def test_budget_never_exceeds_set_size(self):
        rng = random.Random(78)
        for _ in range(500):
            sizes = [rng.randint(1, 30) for _ in range(rng.randint(1, 8))]
            p = min(1.0, max(0.01, rng.random()))
            for b, size in zip(allocate_budget(sizes, p), sizes):
                assert 1 <= b <= size

    def test_monotone_in_p(self):
        rng = random.Random(79)
        for _ in range(200):
            sizes = [rng.randint(1, 30) for _ in range(rng.randint(1, 8))]
            p1 = rng.uniform(0.01, 0.99)
            p2 = min(1.0, p1 + rng.uniform(0, 1 - p1))
            assert sum(allocate_budget(sizes, p2)) >= sum(allocate_budget(sizes, p1))


def trace_of(n, trace_id="t1"):
    spans = [make_span("s00", trace_id=trace_id, operation="C.f0", start=0,
                       duration=10000)]
    for i in range(1, n):
        spans.append(make_span(f"s{i:02d}", trace_id=trace_id, parent="s00",
                               operation=f"C.f{i}", start=i * 10, duration=50))
    return make_trace(spans, trace_id=trace_id)


def setup_state(theta=0.9, window=64, ratio=0.5):
    cfg = SamplingConfig(ratio=ratio, theta=theta, window=window)
    return cfg, ScoreBook(window=window, theta=theta), LrsLedger()


def run_sample(trace, path, cfg, book, ledger, exclusive=None):
    """sample_trace with each span keyed by its operation and exclusive by id
    (each span's duration when not given); sample_trace reads both in the
    trace's input order."""
    excl = exclusive or {s.span_id: s.duration for s in trace.spans}
    return sample_trace(trace, path, book, ledger, cfg,
                        [f"k:{op}" for op in trace.operations], [excl[i] for i in trace.ids])


class TestSampleTrace:
    def test_high_z_span_wins_its_set(self):
        cfg, book, ledger = setup_state(ratio=0.34)
        # warm the windows: constant durations put every threshold at Z = 0
        for i in range(30):
            t = trace_of(3, trace_id=f"w{i}")
            run_sample(t, path_of(t, ["s00", "s01", "s02"]), cfg, book, ledger)
        t = trace_of(3, trace_id="hot")
        excl = {"s00": 10000, "s01": 50 * 40, "s02": 50}  # s01 blows up
        decision = run_sample(t, path_of(t, ["s00", "s01", "s02"]), cfg, book,
                              ledger, exclusive=excl)
        assert decision.kept == ("s01",)
        assert decision.dss_reports[0].picked_by_z == 1

    def test_low_z_fills_by_least_recently_sampled(self):
        # cold windows see an infinite threshold, so nothing is picked by Z
        cfg, book, ledger = setup_state(ratio=0.5)
        t = trace_of(4)
        decision = run_sample(t, path_of(t, ["s00", "s01", "s02", "s03"]), cfg, book, ledger)
        assert decision.dss_reports[0].picked_by_z == 0
        assert decision.dss_reports[0].picked_by_lrs == 2

    def test_full_budget_keeps_everything(self):
        cfg, book, ledger = setup_state(ratio=1.0)
        t = trace_of(4)
        decision = run_sample(t, path_of(t, ["s00", "s01", "s02", "s03"]), cfg, book, ledger)
        assert set(decision.kept) == set(t.span_ids())
        assert decision.entry == "svc:C.f0"

    def test_every_set_contributes_at_least_one(self):
        cfg, book, ledger = setup_state(ratio=0.01)
        t = trace_of(9)
        path = path_of(t, ["s00", "s01", "s02"], (["s03", "s04", "s05"], "b1"),
                       (["s06", "s07", "s08"], "b2"))
        decision = run_sample(t, path, cfg, book, ledger)
        for report in decision.dss_reports:
            assert report.picked_by_z + report.picked_by_lrs >= 1
        assert len(decision.kept) == 3

    def test_partition_mismatch_rejected(self):
        cfg, book, ledger = setup_state()
        t = trace_of(3)
        with pytest.raises(PartitionMismatchError):
            run_sample(t, path_of(t, ["s00", "s01"]), cfg, book, ledger)

    def test_deterministic_for_identical_state(self):
        def go():
            cfg, book, ledger = setup_state(ratio=0.4)
            out = []
            for i in range(10):
                t = trace_of(6, trace_id=f"t{i}")
                path = path_of(t, ["s00", "s01", "s02"], (["s03", "s04", "s05"], "x"))
                out.append(run_sample(t, path, cfg, book, ledger))
            return out

        assert go() == go()

    def test_signature_preserved_in_kept_sets(self):
        cfg, book, ledger = setup_state(ratio=0.01)
        t = trace_of(6)
        path = path_of(t, ["s00", "s01"], (["s02", "s03"], "b1"), (["s04", "s05"], "b2"))
        decision = run_sample(t, path, cfg, book, ledger)
        kept = set(decision.kept)
        witnessed = [d.branch_tag for d in named_sets(path, t) if kept & set(d.spans)]
        assert witnessed == ["trunk", "b1", "b2"]

    def test_decision_serialization_round_trip(self):
        cfg, book, ledger = setup_state(ratio=0.5)
        t = trace_of(4)
        decision = run_sample(t, path_of(t, list(t.span_ids())), cfg, book, ledger)
        record = json.loads(decision.serialize())
        assert list(record) == ["at", "entry", "forks", "kept", "trace_id"]
        back = decision_from_dict(record)
        assert back.trace_id == decision.trace_id
        assert back.kept == decision.kept
        assert back.entry == decision.entry
        assert back.forks == decision.forks
        assert back.at == decision.at == tuple(int(sid[1:]) for sid in decision.kept)
        # the DSS reports are not stored
        assert decision.dss_reports and back.dss_reports == ()

    def test_a_record_without_forks_is_refused(self):
        # rebuild replays the recorded forks and has no other way to the path
        record = {"at": [0], "entry": "svc:A.f", "kept": ["s1"], "trace_id": "t"}
        with pytest.raises(KeyError, match="forks"):
            decision_from_dict(record)
        with pytest.raises(TypeError):
            decision_from_dict({**record, "forks": None})
        assert decision_from_dict({**record, "forks": []}).forks == ()

    def test_dss_report_fields_and_decision_bytes(self):
        assert DssReport._fields == ("picked_by_z", "picked_by_lrs")
        assert DssReport(picked_by_z=1, picked_by_lrs=1) == DssReport(1, 1)
        assert [f.name for f in dataclasses.fields(SamplingDecision)] == [
            "trace_id", "kept", "entry", "forks", "at", "dss_reports"]
        decision = SamplingDecision("t", ("s1", "s2"), "svc:A.f", ("svc:A.f#b1",), (0, 2),
                                    (DssReport(1, 1),))
        line = decision.serialize()
        assert line == ('{"at":[0,2],"entry":"svc:A.f","forks":["svc:A.f#b1"],'
                        '"kept":["s1","s2"],"trace_id":"t"}')
        back = decision_from_dict(json.loads(line))
        assert back == SamplingDecision("t", ("s1", "s2"), "svc:A.f", ("svc:A.f#b1",), (0, 2))
        assert back.serialize() == line
        # an older record that carries the reports and the ratio still reads;
        # those two fields are ignored
        old_line = (
            '{"dss":[{"branch_tag":"svc:A.f#b1","budget":2,"dss_id":"d0",'
            '"picked_by_lrs":1,"picked_by_z":1,"size":4}],"effective_ratio":0.5,'
            '"at":[0,2],"entry":"svc:A.f","forks":["svc:A.f#b1"],"kept":["s1","s2"],'
            '"trace_id":"t"}')
        old = decision_from_dict(json.loads(old_line))
        assert old == back
        assert old.serialize() == line


class TestLedger:
    def test_first_decision_counts_once(self):
        ledger = LrsLedger()
        ledger.note(("k1",))
        assert ledger.stats("k1") == (1, 1)
        assert ledger.stats("other") == (-1, 0)

    def test_two_span_set_alternates_under_lrs(self):
        # within each key's first MIN_OBS scores the windows are cold, so
        # nothing is picked by Z
        cfg, book, ledger = setup_state(ratio=0.5)
        picks = []
        for i in range(scoring.MIN_OBS):
            t = trace_of(2, trace_id=f"t{i}")
            decision = run_sample(t, path_of(t, ["s00", "s01"]), cfg, book, ledger)
            assert decision.dss_reports[0].picked_by_z == 0
            picks.append(decision.kept[0])
        assert picks == ["s00", "s01"] * (scoring.MIN_OBS // 2)

    def test_horizon_decay(self, monkeypatch):
        monkeypatch.setattr(sampler, "LRS_HORIZON", 2)
        ledger = LrsLedger()
        for _ in range(3):
            ledger.note(("k",))
        assert ledger.stats("k") == (3, 2)  # the first decision decayed out

    def test_stats_give_last_and_count(self):
        ledger = LrsLedger()
        for _ in range(5):
            ledger.note(("k",))
        assert ledger.stats("k") == (5, 5)
        assert ledger.stats("none") == (-1, 0)

    def test_a_prune_that_empties_a_key_drops_it(self, monkeypatch):
        monkeypatch.setattr(sampler, "LRS_HORIZON", 3)
        ledger = LrsLedger()
        ledger.note(("k", "j"))
        ledger.note(("j",))
        ledger.note(("j",))
        assert ledger.stats("k") == (1, 1)
        ledger.note(("j",))
        assert ledger.stats("k") == (-1, 0)
        assert "k" not in ledger._picks
        assert ledger.stats("j") == (4, 3)

    @pytest.mark.parametrize("horizon", [1, 5, 64, sampler.LRS_HORIZON])
    def test_key_count_is_bounded_by_the_keys_kept_in_two_horizons(self, horizon,
                                                                    monkeypatch):
        # kept keys rotate through a pool that drifts, and one key in four
        # decisions is never seen again, as an unmapped operation with an id
        # in its name would be
        monkeypatch.setattr(sampler, "LRS_HORIZON", horizon)
        rng = random.Random(f"rotate-{horizon}")
        ledger, ref = LrsLedger(), OracleLrsLedger(horizon)
        recent: list[set] = []  # the kept keys of the last 2 x horizon decisions
        in_recent: dict[str, int] = {}  # key -> decisions of `recent` that kept it
        peak = 0
        for seq in range(1, 20 * horizon + 1):
            pool = seq // max(1, horizon // 4)
            keys = {f"k{pool + rng.randrange(12)}" for _ in range(rng.randint(0, 4))}
            if rng.random() < 0.25:
                keys.add(f"op:/items/{seq}")
            asked = sorted(keys | {f"k{pool + rng.randrange(-8, 16)}" for _ in range(3)})
            assert [ledger.stats(k) for k in asked] == [ref.stats(k) for k in asked]
            ledger.note(keys)
            ref.note(keys)
            recent.append(keys)
            for key in keys:
                in_recent[key] = in_recent.get(key, 0) + 1
            if len(recent) > 2 * horizon:
                for key in recent.pop(0):
                    in_recent[key] -= 1
                    if not in_recent[key]:
                        del in_recent[key]
            assert len(ledger._picks) <= len(in_recent)
            peak = max(peak, len(ledger._picks))
        assert {k: ledger.stats(k) for k in ref.picks} == {k: ref.stats(k) for k in ref.picks}
        assert len(ref.picks) > 4 * peak  # the reference kept every key it saw


def aligned_rows(graph, traces):
    """(trace, path, span keys, exclusive durations) of each trace, aligned
    through one PathCache."""
    mapping, cache = build_map(graph), PathCache()
    rows = []
    for t in traces:
        resolutions = list(map(mapping.resolve, t.services, t.operations))
        rows.append((t, align(graph, t, cache, resolutions),
                     list(map(span_key, resolutions, t.operations)), exclusive_durations(t)))
    return rows


@pytest.fixture(scope="module")
def partitioned():
    """Aligned traces of three generated 6x8 systems, by seed."""
    out = {}
    for seed in (7, 11, 23):
        spec = SystemSpec(seed=seed, n_services=6, n_functions_per_service=8,
                          branch_probability=0.3, url_span_probability=0.1)
        doc, meta = generate_system(spec)
        graph = build_cscfg(doc)
        out[seed] = aligned_rows(graph, [s.trace for s in generate_traces(
            graph, meta, spec, 300, make_default_faults(meta, 300))])
    return out


@pytest.mark.parametrize("ratio", [0.1, 0.3, 0.8])
def test_select_bit_identical_to_sort_every_set(partitioned, ratio, monkeypatch):
    # a short horizon, so that picks decay out of the ledgers
    monkeypatch.setattr(sampler, "LRS_HORIZON", 64)
    cfg = SamplingConfig(ratio=ratio)
    z_cut = lrs_cut = lrs_all = 0
    for rows in partitioned.values():
        book = ScoreBook(window=cfg.window, theta=cfg.theta)
        ref_book = OracleScoreBook(cfg.window, scoring.MIN_OBS, cfg.theta)
        ledger, ref_ledger = LrsLedger(), OracleLrsLedger(sampler.LRS_HORIZON)
        for trace, path, keys, exclusive in rows:
            got = sample_trace(trace, path, book, ledger, cfg, keys, exclusive)
            # the oracle reads each column by span id, and the sets named by id
            by_id = [dict(zip(trace.ids, column)) for column in (keys, exclusive)]
            calls = {trace.ids[i]: call for i, call in zip(trace.order, path.calls)}
            want = oracle_sample_trace(trace, named_sets(path, trace), ref_book, ref_ledger, cfg,
                                       by_id[0], by_id[1], entry=path.entry, forks=path.forks,
                                       calls=calls)
            assert dataclasses.astuple(got) == want  # kept, dss_reports and the rest
            sizes = [len(slots) for slots, _ in path.sets]
            for size, budget, (by_z, by_lrs) in zip(
                    sizes, allocate_budget(sizes, cfg.ratio), got.dss_reports):
                z_cut += by_z == budget and by_z > 0
                lrs_cut += 0 < by_lrs < size - by_z
                lrs_all += 0 < by_lrs == size - by_z
        # the ledger prunes and drops keys as it goes, and the reference
        # forgets nothing: compare what they answer for every key ever kept
        assert ledger.seq == ref_ledger.seq
        assert set(ledger._picks) <= set(ref_ledger.picks)
        assert {k: ledger.stats(k) for k in ref_ledger.picks} == \
            {k: ref_ledger.stats(k) for k in ref_ledger.picks}
    # each branch of the select loop ran
    assert min(z_cut, lrs_cut, lrs_all) > 0, (z_cut, lrs_cut, lrs_all)


# the bench's systems: SystemSpec() defaults, a 40x40 system with many trace
# shapes, and the deep chains of variable_depth_system
GENERATED_SYSTEMS = {
    "default": SystemSpec(),
    "shape-churn": SystemSpec(n_services=40, n_functions_per_service=40,
                              branch_probability=0.3, url_span_probability=0.1),
    "deep-chains": SystemSpec(url_span_probability=0.0),
}


@pytest.mark.parametrize("ratio", [0.05, 0.3])
@pytest.mark.parametrize("system", sorted(GENERATED_SYSTEMS))
def test_each_set_fills_its_budget_and_its_report_counts_the_kept(system, ratio):
    spec = GENERATED_SYSTEMS[system]
    doc, meta = variable_depth_system() if system == "deep-chains" else generate_system(spec)
    graph = build_cscfg(doc)
    cfg = SamplingConfig(ratio=ratio)
    pipeline = SamplingPipeline(graph, build_map(graph), cfg)
    by_z_total = by_lrs_total = 0
    for sample in generate_traces(graph, meta, spec, 200, make_default_faults(meta, 200)):
        result = pipeline.process(sample.trace)
        kept, reports = set(result.decision.kept), result.decision.dss_reports
        sizes = [len(d) for d in result.dss_list]
        assert len(reports) == len(sizes)
        for d, size, budget, (by_z, by_lrs) in zip(
                result.dss_list, sizes, allocate_budget(sizes, ratio), reports):
            assert by_z + by_lrs == min(budget, size) == len(kept.intersection(d.spans))
            by_z_total += by_z
            by_lrs_total += by_lrs
    # both ways of picking ran
    assert by_z_total > 0 and by_lrs_total > 0


@pytest.mark.parametrize("system", sorted(GENERATED_SYSTEMS))
def test_sampling_scores_each_span_once_in_arrival_order(system, monkeypatch):
    """Every span reaches its window through SpanStatWindow.score, once,
    which is what the benchmark's tracer wraps to time scoring."""
    spec = GENERATED_SYSTEMS[system]
    doc, meta = variable_depth_system() if system == "deep-chains" else generate_system(spec)
    graph = build_cscfg(doc)
    pipeline = SamplingPipeline(graph, build_map(graph), SamplingConfig())
    scored = []
    score = SpanStatWindow.score

    def recording_score(self, x):
        scored.append((self.key, x))
        return score(self, x)

    monkeypatch.setattr(SpanStatWindow, "score", recording_score)
    for sample in generate_traces(graph, meta, spec, 100, make_default_faults(meta, 100)):
        trace = sample.trace
        keys = list(map(span_key, map(pipeline.mapping.resolve, trace.services,
                                      trace.operations), trace.operations))
        exclusive = exclusive_durations(trace)
        scored.clear()
        pipeline.process(trace)
        assert scored == [(keys[i], exclusive[i]) for i in trace.arrival_order]


@pytest.mark.parametrize("system", sorted(GENERATED_SYSTEMS))
def test_sample_command_writes_the_same_bytes_under_two_hash_seeds(system, tmp_path):
    """Keys are strings, whose hashes change with PYTHONHASHSEED, so no
    decision may rest on the order of a set or a hash. More traces than the
    ledger's horizon, so that it also drops keys."""
    spec = GENERATED_SYSTEMS[system]
    doc, meta = variable_depth_system() if system == "deep-chains" else generate_system(spec)
    graph = build_cscfg(doc)
    n = sampler.LRS_HORIZON + 76
    graph_path, trace_path = tmp_path / "graph.json", tmp_path / "traces.ndjson"
    graph.save_artifact(str(graph_path))
    trace_path.write_text("".join(serialize_trace(s.trace) + "\n" for s in generate_traces(
        graph, meta, spec, n, make_default_faults(meta, n))), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(sampler.__file__))
    outs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hash-seed-{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "spanscope.cli", "sample", "--graph", str(graph_path),
                        "--traces", str(trace_path), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        outs.append(out)
    for name in ("decisions.ndjson", "kept.ndjson", "stats.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def assert_encodes_like_the_sort_keys_reference(decision, n_spans):
    line = decision.serialize()
    assert line == oracle_stored_decision(decision), decision.trace_id
    back = decision_from_dict(json.loads(line))
    # only what rebuild reads is stored
    assert back == dataclasses.replace(decision, dss_reports=())
    assert back.serialize() == line
    # the older record with the DSS reports and the rounded ratio reads back
    # to the same decision and the same stored line
    old = decision_from_dict(json.loads(oracle_decision_serialize(decision, n_spans)))
    assert old == back
    assert old.serialize() == line


class TestDecisionEncoder:
    """Stored decision bytes against a sort_keys encoder, and older records read back."""

    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_generated_decisions_match_the_reference(self, seed):
        spec = SystemSpec(seed=seed, n_services=6, n_functions_per_service=8,
                          branch_probability=0.3, url_span_probability=0.1)
        doc, meta = generate_system(spec)
        graph = build_cscfg(doc)
        pipeline = SamplingPipeline(graph, build_map(graph), SamplingConfig(ratio=0.3))
        forked = 0
        for sample in generate_traces(graph, meta, spec, 200, make_default_faults(meta, 200)):
            decision = pipeline.process(sample.trace).decision
            assert_encodes_like_the_sort_keys_reference(decision, len(sample.trace))
            forked += bool(decision.forks)
        assert forked > 0

    @pytest.mark.parametrize("forks", [(), ("svc:A.f#b1", "svc:B.g#\u00e9")],
                             ids=["empty-forks", "forks"])
    @pytest.mark.parametrize("entry", [None, "svc:A.f", "sv\u00e7:\u540d.f"])
    def test_hand_built_decisions_match_the_reference(self, forks, entry):
        decision = SamplingDecision("t\u00e9", ("s\u00fc1", "s2", "\u540d"), entry,
                                    forks=forks, at=(0, 12, 3),
                                    dss_reports=(DssReport(1, 1), DssReport(0, 1)))
        assert_encodes_like_the_sort_keys_reference(decision, 7)
        empty = SamplingDecision("t", (), entry, forks=forks, at=())
        assert_encodes_like_the_sort_keys_reference(empty, 1)
