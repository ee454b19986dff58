import math
import random
import statistics

import pytest

import spanscope.scoring as scoring
from spanscope.scoring import P2Quantile, RunningMedian, ScoreBook, SpanStatWindow

from .oracles import (
    HeapRunningMedian,
    OracleP2Quantile,
    OracleSpanStatWindow,
    Welford,
    exact_quantile,
)


class TestP2Quantile:
    def test_first_five_sorted_exactly(self):
        est = P2Quantile(0.5)
        for x in [5, 1, 4, 2, 3]:
            est.update(x)
        assert est.heights == [1, 2, 3, 4, 5]
        assert est.value() == 3

    def test_uniform_stream_close_to_target(self):
        rng = random.Random(1)
        est = P2Quantile(0.9)
        for _ in range(10000):
            est.update(rng.random())
        assert abs(est.value() - 0.9) <= 0.02

    def test_monotone_stream_median(self):
        n = 2000
        est = P2Quantile(0.5)
        for x in range(1, n + 1):
            est.update(float(x))
        assert abs(est.value() - n / 2) <= 0.05 * (n / 2)

    def test_marker_invariants_hold_after_every_update(self):
        rng = random.Random(2)
        est = P2Quantile(0.75)
        for i in range(2000):
            est.update(rng.gauss(0, 1))
            if est.n >= 5:
                assert est.heights == sorted(est.heights)
                assert est.positions == sorted(est.positions)
                assert len(set(est.positions)) == 5
                assert est.positions[0] == 1
                assert est.positions[4] == est.n == i + 1  # n is read from the markers

    def test_value_before_five_is_exact_interpolation(self):
        est = P2Quantile(0.5)
        est.update(10.0)
        assert est.value() == 10.0
        est.update(20.0)
        assert est.value() == 15.0

    def test_shuffled_0_to_99_ninetieth(self):
        values = list(range(100))
        random.Random(9).shuffle(values)
        est = P2Quantile(0.9)
        for v in values:
            est.update(float(v))
        exact = exact_quantile(range(100), 0.9)
        assert abs(exact - 89.1) < 1e-9
        assert abs(est.value() - exact) <= 2.0


class TestRunningMedian:
    def test_matches_sort_oracle_with_sliding_window(self):
        rng = random.Random(5)
        for _ in range(2000):
            rm = RunningMedian()
            window = []
            cap = rng.randint(1, 64)
            for _ in range(rng.randint(1, 80)):
                x = rng.choice([rng.randint(0, 8), rng.uniform(0, 50)])
                if len(window) == cap:
                    rm.remove(window.pop(0))
                window.append(x)
                rm.add(x)
                assert rm.median() == statistics.median(window)

    def test_heavy_duplicates(self):
        rm = RunningMedian()
        window = []
        rng = random.Random(6)
        for _ in range(500):
            x = rng.randint(0, 2)
            if len(window) == 9:
                rm.remove(window.pop(0))
            window.append(x)
            rm.add(x)
            assert rm.median() == statistics.median(window)

    def test_sorted_list_invariant(self):
        rm = RunningMedian()
        live = []
        rng = random.Random(7)
        for _ in range(200):
            if live and rng.random() < 0.4:
                rm.remove(live.pop(rng.randrange(len(live))))
            else:
                x = rng.random()
                live.append(x)
                rm.add(x)
            assert rm._vals == sorted(rm._vals)
            assert len(rm) == len(live)


def bits(x):
    """Type and exact value: repr round-trips a float bit for bit."""
    return type(x).__name__, repr(x)


def stats_bits(win):
    return {k: bits(v) for k, v in win.stats().items()}


def stream(rng, kind, n):
    if kind == "few-ints":  # heavy duplicates
        return [rng.randint(0, 3) for _ in range(n)]
    if kind == "ints":
        return [rng.randint(0, 10 ** 6) for _ in range(n)]
    if kind == "few-floats":
        return [rng.choice((0.5, 1.25, 3.0, 1e-3)) for _ in range(n)]
    return [rng.lognormvariate(5, 1.0) for _ in range(n)]


# Each stream holds one numeric type, as every caller feeds a window: equal
# int and float values in one window may come back as either type.
@pytest.mark.parametrize("kind", ["few-ints", "ints", "few-floats", "floats"])
def test_window_outputs_bit_identical_to_heap_median(kind, monkeypatch):
    # the reference window reads its median from the two heaps of
    # HeapRunningMedian, where the package's reads its one sorted list
    rng = random.Random(f"median-{kind}")
    observed = 0
    windows = [1, 2, 3, 4, 5, 16, 511, 512] + [rng.randint(1, 512) for _ in range(4)]
    for window in windows:
        min_obs = rng.choice((1, 8))
        monkeypatch.setattr(scoring, "MIN_OBS", min_obs)
        win = SpanStatWindow("k", window=window)
        ref = OracleSpanStatWindow("k", window, min_obs, scoring.DEFAULT_THETA)
        assert isinstance(ref._median, HeapRunningMedian)
        for i, x in enumerate(stream(rng, kind, 2 * window + 2000)):
            assert bits(win.z_threshold()) == bits(ref.z_threshold())
            assert [bits(v) for v in win.score(x)] == [bits(v) for v in ref.score(x)]
            assert bits(win.median()) == bits(ref._median.median())
            if i % 97 == 0:
                assert stats_bits(win) == stats_bits(ref)
            observed += 1
        assert stats_bits(win) == stats_bits(ref)
    assert observed >= 25_000


def marker_bits(est):
    """Heights with their types, positions and desired positions."""
    return ([bits(h) for h in est.heights], list(est.positions),
            [bits(d) for d in est._desired])


def p2_draw(rng, kind, i, heights):
    if kind == "duplicates":
        return rng.randint(0, 3)
    if kind == "decreasing":
        return 5000.0 - 0.37 * i
    if kind == "on-marker":
        if len(heights) == 5 and rng.random() < 0.7:
            return rng.choice(heights)
        return rng.uniform(0, 100)
    if kind == "ints":
        return rng.randint(0, 10 ** 6)
    if kind == "ints-and-floats":
        return rng.choice((rng.randint(0, 50), rng.uniform(0, 50), 25, 25.0))
    if kind == "outliers":
        x = rng.lognormvariate(3, 0.5)
        return x * 1e6 if rng.random() < 0.05 else x
    if kind == "nan":
        return math.nan if rng.random() < 0.02 else rng.uniform(-1, 1)
    return rng.lognormvariate(5, 1.0)


P2_KINDS = ["duplicates", "decreasing", "on-marker", "ints", "ints-and-floats",
            "outliers", "nan", "floats"]


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("kind", P2_KINDS)
def test_p2_markers_bit_identical_to_scan_update(q, kind):
    rng = random.Random(f"p2-{q}-{kind}")
    est, ref = P2Quantile(q), OracleP2Quantile(q)
    for i in range(3000):
        x = p2_draw(rng, kind, i, ref.heights)
        est.update(x)
        ref.update(x)
        assert marker_bits(est) == marker_bits(ref)
        assert bits(est.value()) == bits(ref.value())


def assert_markers_are_floats(est, ref, n):
    """est's positions and desired positions are floats, its positions equal
    the reference's integers, and n is an int equal to the updates made."""
    assert all(type(p) is float for p in est.positions), est.positions
    assert all(type(d) is float for d in est._desired), est._desired
    assert all(type(p) is int for p in ref.positions)
    assert est.positions == ref.positions
    assert type(est.n) is int and est.n == ref.n == n


# `_p2_step` stays on the interpreter's float fast path only while positions
# are floats: an int bump would bring the generic path back. "window" feeds
# a SpanStatWindow of theta q an int stream twice its window long, and
# checks both of its estimators, whose markers score moves itself.
@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("kind", P2_KINDS + ["window"])
def test_p2_markers_stay_floats(q, kind):
    rng = random.Random(f"floats-{q}-{kind}")
    if kind == "window":
        win = SpanStatWindow("k", window=64, theta=q)
        pairs = ((win._zq_est, OracleP2Quantile(q)), (win._mad_est, OracleP2Quantile(0.5)))
        for i in range(128):
            x = rng.randint(0, 10 ** 6)
            deviation = abs(x - win.median()) if win.count else 0.0
            z = win.score(x)[0]
            pairs[0][1].update(z)
            pairs[1][1].update(deviation)
            for est, ref in pairs:
                assert_markers_are_floats(est, ref, i + 1)
        return
    est, ref = P2Quantile(q), OracleP2Quantile(q)
    for i in range(1000):
        x = p2_draw(rng, kind, i, ref.heights)
        est.update(x)
        ref.update(x)
        assert_markers_are_floats(est, ref, i + 1)


def window_state(win):
    """Everything a window carries between observations, bit for bit: its
    values in arrival order and sorted, both estimators' markers, and the
    count, mean and M2 of its moments."""
    return (win.count, [bits(v) for v in win._values], [bits(v) for v in win._sorted],
            marker_bits(win._mad_est), marker_bits(win._zq_est),
            (win.count, bits(win._mean), bits(win._m2)))


def oracle_window_state(ref):
    """window_state of the reference window, laid out as the package's."""
    wf = ref._welford
    return (ref.count, [bits(v) for v in ref._values], [bits(v) for v in sorted(ref._values)],
            marker_bits(ref._mad_est), marker_bits(ref._zq_est),
            (wf.count, bits(wf._mean), bits(wf._m2)))


# via_book: the window comes from ScoreBook.window_for, which passes window
# and theta on by position, rather than from SpanStatWindow itself
@pytest.mark.parametrize("via_book", [False, True])
@pytest.mark.parametrize("kind", ["few-ints", "ints", "few-floats", "floats"])
def test_score_bit_identical_to_observe_then_threshold(kind, via_book, monkeypatch):
    rng = random.Random(f"score-{kind}-{via_book}")
    observed = 0
    for window in (1, 4, 16, 512):
        for min_obs in (0, 1, 3, 8):
            monkeypatch.setattr(scoring, "MIN_OBS", min_obs)
            theta = rng.choice((0.5, 0.9, 0.99))
            if via_book:
                win = ScoreBook(window=window, theta=theta).window_for("k")
            else:
                win = SpanStatWindow("k", window=window, theta=theta)
            ref = OracleSpanStatWindow("k", window, min_obs, theta)
            for x in stream(rng, kind, 1200):
                got, want = win.score(x), ref.score(x)
                assert [bits(v) for v in got] == [bits(v) for v in want]
                observed += 1
            assert window_state(win) == oracle_window_state(ref)
    assert observed >= 4_800


@pytest.mark.parametrize("kind", ["few-ints", "ints", "few-floats", "floats"])
def test_p2_fed_a_windows_streams_ends_with_its_markers(kind, monkeypatch):
    # the window moves its estimators' markers itself past their first five
    # observations; P2Quantile.update on the same z and deviation streams
    # must leave the same bits
    rng = random.Random(f"streams-{kind}")
    for window in (1, 5, 512):
        for min_obs in (0, 3, 8):
            monkeypatch.setattr(scoring, "MIN_OBS", min_obs)
            theta = rng.choice((0.5, 0.9, 0.99))
            win = SpanStatWindow("k", window=window, theta=theta)
            zq, mad = P2Quantile(theta), P2Quantile(0.5)
            for x in stream(rng, kind, 1500):
                deviation = abs(x - win.median()) if win.count else 0.0
                zq.update(win.score(x)[0])
                mad.update(deviation)
            assert marker_bits(zq) == marker_bits(win._zq_est)
            assert marker_bits(mad) == marker_bits(win._mad_est)
            assert zq.n == mad.n == win.count


class TestWelford:
    def test_matches_statistics(self):
        rng = random.Random(8)
        data = [rng.uniform(0, 100) for _ in range(500)]
        wf = Welford()
        for x in data:
            wf.add(x)
        assert math.isclose(wf.mean, statistics.fmean(data), rel_tol=1e-12)
        assert math.isclose(wf.std, statistics.stdev(data), rel_tol=1e-9)


class TestSpanStatWindow:
    def test_exact_mode_hand_example(self):
        # window {8, 9, 10, 11, 12}: median 10, MAD 1, so 14 scores 4.0 in
        # the exact reference; the streaming MAD estimate reads 3.0 here
        win = OracleSpanStatWindow("k", window=5, min_obs=8, theta=0.9, exact=True)
        for x in [8, 9, 10, 11, 8, 9, 10, 11, 12]:
            win.score(x)
        assert list(win._values) == [8, 9, 10, 11, 12]
        z, _threshold = win.score(14)
        assert z == 4.0

    def test_constant_window_degenerate_zero(self):
        win = SpanStatWindow("k", window=8)
        for _ in range(8):
            win.score(10)
        z, _threshold = win.score(10)
        assert z == 0.0

    def test_constant_window_outlier_capped(self):
        win = SpanStatWindow("k", window=8)
        for _ in range(8):
            win.score(10)
        z, _threshold = win.score(99)
        assert z == scoring.Z_CAP == 1e6
        z2 = SpanStatWindow("k2", window=8)
        for _ in range(8):
            z2.score(10)
        assert z2.score(3)[0] == -1e6

    def test_cold_start_returns_zero_non_degenerate(self):
        win = SpanStatWindow("k", window=16)
        for i in range(8):
            z, _threshold = win.score(100 + i * 50)
            assert z == 0.0

    def test_majority_identical_values_score_zero(self):
        win = SpanStatWindow("k", window=9)
        data = [7, 7, 7, 7, 7, 1, 2, 3, 4]
        for x in data:
            win.score(x)
        assert win.score(7)[0] == 0.0

    def test_shift_and_scale_invariance_exact_values(self):
        rng = random.Random(11)
        base = [float(rng.randint(1, 2 ** 30)) for _ in range(60)]
        probe = float(rng.randint(1, 2 ** 30))
        shift = 2.0 ** 20
        scale = 2.0 ** 3  # power of two keeps float arithmetic exact

        def run(xs, x):
            win = SpanStatWindow("k", window=32)
            for v in xs:
                win.score(v)
            return win.score(x)[0]

        z0 = run(base, probe)
        assert run([v + shift for v in base], probe + shift) == z0
        assert run([v * scale for v in base], probe * scale) == z0

    def test_sliding_window_matches_fresh_window_exact_mode(self):
        rng = random.Random(12)
        stream = [rng.randint(1, 100) for _ in range(50)]
        win = SpanStatWindow("k", window=16)
        for x in stream:
            win.score(x)
        survivors = stream[-16:]
        assert statistics.median(win._values) == statistics.median(survivors)
        med = statistics.median(survivors)
        assert statistics.median(abs(v - med) for v in win._values) == \
            statistics.median(abs(v - med) for v in survivors)

    def test_estimated_median_equals_exact_at_every_step(self):
        rng = random.Random(13)
        win = SpanStatWindow("k", window=32)
        seen = []
        for _ in range(200):
            x = rng.uniform(0, 1000)
            seen.append(x)
            win.score(x)
            assert win.median() == statistics.median(seen[-32:])

    def test_robust_z_resists_outliers_better_than_classic(self):
        rng = random.Random(14)
        values = []
        for _ in range(1000):
            x = rng.lognormvariate(5, 0.4)
            if rng.random() < 0.05:
                x *= 100
            values.append(x)
        typical = statistics.median(values)
        med = statistics.median(values)
        mad = statistics.median(abs(v - med) for v in values)
        robust_z = abs((typical * 1.1 - med) / mad)
        mean = statistics.fmean(values)
        std = statistics.stdev(values)
        classic_z_of_outlier = abs((typical * 100 - mean) / std)
        assert robust_z <= 3
        # classic stats are dragged by the tail: a plain 10% deviation looks
        # tiny while the robust score still separates true outliers
        outlier_robust = abs((typical * 100 - med) / mad)
        assert outlier_robust > 3
        assert classic_z_of_outlier < outlier_robust


class TestThreshold:
    def test_cold_start_threshold_infinite(self):
        win = SpanStatWindow("k", window=16)
        for _ in range(7):
            win.score(10)
        assert win.z_threshold() == math.inf

    def test_all_zero_stream_threshold_zero(self):
        win = SpanStatWindow("k", window=16)
        for _ in range(20):
            win.score(10)
        assert win.z_threshold() == 0.0

    def test_threshold_tracks_upper_quantile(self):
        rng = random.Random(15)
        win = SpanStatWindow("k", window=128, theta=0.9)
        zs = []
        for _ in range(3000):
            zs.append(win.score(rng.lognormvariate(5, 0.4))[0])
        thr = win.z_threshold()
        exact = exact_quantile(zs, 0.9)
        assert abs(thr - exact) <= max(0.35, 0.25 * abs(exact))

    def test_scorebook_snapshot_shape(self):
        book = ScoreBook(window=8)
        book.window_for("a").score(10)
        book.window_for("a").score(12)
        book.window_for("b").score(5)
        snap = book.snapshot()
        assert snap["kind"] == "stats-snapshot"
        assert set(snap["keys"]) == {"a", "b"}
        entry = snap["keys"]["a"]
        assert entry["count"] == 2
        assert entry["mean"] == 11
