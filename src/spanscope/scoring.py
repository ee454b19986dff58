"""Robust streaming statistics for span durations.

Each span type gets a sliding window of exclusive durations. The window
median is read from the window's values kept in one sorted list, so it is
exact at every step. Dispersion is the median absolute deviation, estimated
with the five-marker streaming quantile algorithm over |x - running median|;
deviations are not recomputed when the median moves.
The same estimator tracks a high quantile of the emitted Z-scores, which
serves as the selection threshold.

Z = (x - median) / MAD. With MAD = 0 the score degenerates: it is 0 when the
observation sits on the median and a capped sentinel otherwise.

SpanStatWindow.score(x) is the one way to feed a window: it returns
(z, threshold), the threshold being the one in force before x, and then
folds x into every statistic. A window's size and theta are its
settings; its cold start is MIN_OBS, a module constant read when the window
is built.

ScoreBook.snapshot() and load_snapshot() give a StatsSnapshot: the dict that
save_snapshot() writes, with each key's count, mean and std among its
statistics, which rebuild reads to fill inferred spans. It is read-only once
made. A snapshot also carries the table rebuild derives from it, so that
table lives as long as the snapshot: built once for a run that passes one
snapshot to every rebuild, and never shared by two snapshots.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque

DEFAULT_WINDOW = 512
DEFAULT_THETA = 0.90
MIN_OBS = 8  # a window's cold start, read when the window is built
Z_CAP = 1e6


class P2Quantile:
    """Constant-space streaming quantile estimator.

    Five markers track the minimum, the target quantile, its half-way
    neighbours and the maximum. Marker heights move by piecewise-parabolic
    interpolation with a linear fallback; positions stay strictly increasing
    integers and heights non-decreasing. The first five observations are held
    exactly and sorted.
    """

    __slots__ = ("q", "n", "heights", "positions", "_desired", "_increments")

    def __init__(self, quantile: float):
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = quantile
        self.n = 0
        self.heights: list[float] = []
        self.positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1 + 2 * quantile, 1 + 4 * quantile, 3 + 2 * quantile, 5.0]
        self._increments = [0.0, quantile / 2, quantile, (1 + quantile) / 2, 1.0]

    def update(self, x: float) -> None:
        self.n += 1
        if self.n <= 5:
            self.heights.append(x)
            if self.n == 5:
                self.heights.sort()
            return

        h = self.heights
        pos = self.positions
        des = self._desired
        inc = self._increments

        # find the cell of x and bump every position above it; `not x >= h[k]`
        # picks the same cell as a linear scan up the markers, NaN included
        if x < h[0]:
            h[0] = x
            pos[1] += 1
            pos[2] += 1
            pos[3] += 1
        elif x >= h[4]:
            h[4] = x
        elif not x >= h[1]:
            pos[1] += 1
            pos[2] += 1
            pos[3] += 1
        elif not x >= h[2]:
            pos[2] += 1
            pos[3] += 1
        elif not x >= h[3]:
            pos[3] += 1
        pos[4] += 1
        des[1] += inc[1]
        des[2] += inc[2]
        des[3] += inc[3]
        des[4] += inc[4]

        for i in (1, 2, 3):
            pi = pos[i]
            d = des[i] - pi
            if d >= 1:
                if pos[i + 1] - pi <= 1:
                    continue
                d = 1
            elif d <= -1:
                if pos[i - 1] - pi >= -1:
                    continue
                d = -1
            else:
                continue
            hi = h[i]
            p_next = pos[i + 1]
            p_prev = pos[i - 1]
            candidate = hi + d / (p_next - p_prev) * (
                (pi - p_prev + d) * (h[i + 1] - hi) / (p_next - pi)
                + (p_next - pi - d) * (hi - h[i - 1]) / (pi - p_prev)
            )
            if h[i - 1] < candidate < h[i + 1]:
                h[i] = candidate
            else:
                h[i] = hi + d * (h[i + d] - hi) / (pos[i + d] - pi)
            pos[i] = pi + d

    def value(self) -> float:
        """Current estimate; exact for fewer than five observations."""
        if self.n == 0:
            return 0.0
        if self.n < 5:
            ordered = sorted(self.heights)
            rank = self.q * (len(ordered) - 1)
            lo = int(math.floor(rank))
            hi = min(lo + 1, len(ordered) - 1)
            frac = rank - lo
            return ordered[lo] * (1 - frac) + ordered[hi] * frac
        return self.heights[2]


class RunningMedian:
    """Exact median of a multiset under insertions and deletions.

    The values are kept in one sorted list: insertion and deletion bisect
    for their slot and shift the tail, which is cheap for windows of a few
    hundred values. Even sizes report the midpoint of the two middle values.
    """

    __slots__ = ("_vals",)

    def __init__(self):
        self._vals: list[float] = []

    def __len__(self) -> int:
        return len(self._vals)

    def add(self, x: float) -> None:
        insort(self._vals, x)

    def remove(self, x: float) -> None:
        """Remove one occurrence of x; x must be present."""
        vals = self._vals
        del vals[bisect_left(vals, x)]

    def median(self) -> float:
        vals = self._vals
        n = len(vals)
        if n == 0:
            raise ValueError("median of empty set")
        mid = n // 2
        if n % 2:
            return vals[mid]
        return (vals[mid - 1] + vals[mid]) / 2


class Welford:
    """Running mean and standard deviation, single pass."""

    __slots__ = ("count", "_mean", "_m2")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.count - 1))


class SpanStatWindow:
    """Sliding window of exclusive durations for one span type.

    score(x) reads the threshold in force, scores x against the median and
    MAD in place before x is inserted, then feeds the Z quantile, the Welford
    moments, the MAD estimator and the window, and returns (z, threshold).
    The first MIN_OBS observations score 0 and see an infinite
    threshold, so cold windows flag nothing. Distinct keys are independent.
    """

    def __init__(self, key: str, window: int = DEFAULT_WINDOW, theta: float = DEFAULT_THETA):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.key = key
        self.window = window
        self._warm_at = MIN_OBS
        self.theta = theta
        self.count = 0
        self._values: deque[float] = deque()
        self._median = RunningMedian()
        self._mad_est = P2Quantile(0.5)
        self._zq_est = P2Quantile(theta)
        self._welford = Welford()
        # bound-method and marker-list aliases keep the per-observation path
        # lean; both estimators see one update per observation, so their
        # estimate is heights[2] once count reaches five
        self._median_value = self._median.median
        self._median_add = self._median.add
        self._median_remove = self._median.remove
        self._mad_update = self._mad_est.update
        self._mad_heights = self._mad_est.heights
        self._zq_update = self._zq_est.update
        self._zq_heights = self._zq_est.heights
        self._wf_add = self._welford.add

    def score(self, x: float) -> tuple[float, float]:
        """Score x, then add it; returns (z, threshold in force)."""
        count = self.count
        cold = count < self._warm_at
        threshold = self._zq_heights[2] if count >= 5 and not cold else self.z_threshold()

        values = self._values
        z = 0.0
        if not count:
            deviation = 0.0
        else:
            dev = x - self._median_value()
            if not cold and dev != 0:
                mad = self._mad_heights[2] if count >= 5 else self._mad_est.value()
                z = math.copysign(Z_CAP, dev) if mad <= 0 else dev / mad
            deviation = abs(dev)

        self._zq_update(z)
        self._wf_add(x)
        self._mad_update(deviation)
        if len(values) == self.window:
            self._median_remove(values.popleft())
        values.append(x)
        self._median_add(x)
        self.count = count + 1
        return z, threshold

    def z_threshold(self) -> float:
        """Current estimate of the theta quantile of emitted Z-scores.

        Infinite until MIN_OBS scores exist, so nothing is flagged while the
        window is cold.
        """
        if self.count < self._warm_at:
            return math.inf
        return self._zq_est.value()

    def stats(self) -> dict:
        count = self.count
        return {
            "count": count,
            "median": self._median.median() if count else 0.0,
            "mad": self._mad_est.value() if count else 0.0,
            "z_quantile": self._zq_est.value(),
            "mean": self._welford.mean,
            "std": self._welford.std,
        }


class ScoreBook:
    """All per-key windows plus snapshot export.

    One window per key, created on first use. Like the pipeline that owns
    it, a score book is used from one thread.
    """

    def __init__(self, window: int = DEFAULT_WINDOW, theta: float = DEFAULT_THETA):
        self.window = window
        self.theta = theta
        self._windows: dict[str, SpanStatWindow] = {}

    def window_for(self, key: str) -> SpanStatWindow:
        win = self._windows.get(key)
        if win is None:
            win = SpanStatWindow(key, self.window, self.theta)
            self._windows[key] = win
        return win

    def snapshot(self) -> StatsSnapshot:
        keys = {}
        for key in sorted(self._windows):
            keys[key] = self._windows[key].stats()
        return StatsSnapshot({"schema_version": 1, "kind": "stats-snapshot", "keys": keys})


class StatsSnapshot(dict):
    """A statistics snapshot: its document, as a dict, plus one private slot
    that holds the rebuild table, which reconstruct fills from this
    snapshot. The slot is no part of the document: equality, json.dump and
    save_snapshot see the dict alone."""

    __slots__ = ("_table",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._table = {}


def save_snapshot(snapshot: dict, path) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_snapshot(path) -> StatsSnapshot:
    """A statistics snapshot, checked for what rebuild reads of it: `keys`
    maps each key to an object whose count, mean and std are finite numbers."""
    import json

    from .errors import MalformedDocumentError

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise MalformedDocumentError(f"{path}: bad statistics snapshot: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != "stats-snapshot":
        raise MalformedDocumentError(f"{path}: not a statistics snapshot")
    keys = data.get("keys")
    if not isinstance(keys, dict):
        raise MalformedDocumentError(f"{path}: snapshot keys must be an object")
    for key, entry in keys.items():
        # bool is an int subclass, so compare the type itself
        if not isinstance(entry, dict) or not all(
                type(entry.get(name)) is int
                or type(entry.get(name)) is float and math.isfinite(entry[name])
                for name in ("count", "mean", "std")):
            raise MalformedDocumentError(
                f"{path}: snapshot entry {key!r} needs finite numeric count, mean and std")
    return StatsSnapshot(data)
