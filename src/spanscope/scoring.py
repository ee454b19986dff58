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
folds x into every statistic. It is one pass over the window's own state:
the median from its sorted list, both estimators' markers moved by
`_p2_step`, the one marker step, which P2Quantile.update also calls, the
mean and M2 updated in place, and one bisect delete and one insort to slide
the window. A window's size and theta are its settings; its cold start is
MIN_OBS, a module constant read when the window is built. RunningMedian,
the same sorted list behind a class, has no caller in the package.

P² marker positions are held as integral floats (1.0, 2.0, ...; exact as
doubles below 2^53), so that every operation of the marker step's common
path is float against float: CPython's specializing interpreter (3.11+)
has fast paths only for float-float and int-int arithmetic and comparison,
and an int position against a float desired position takes the generic
path on every marker of every step. P2Quantile.n still reads an int.
Durations stay as they come, ints in practice, because their types reach
stats.json (an odd window's median and the early MAD heights are written
as ints), so three subtractions in score stay mixed int-float: x minus an
even window's midpoint median, and Welford's two x - mean.

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


def _p2_step(x: float, h: list, pos: list, des: list, inc: list) -> None:
    """Move five P² markers by one observation x, past the first five.

    h, pos, des and inc are the markers' heights, positions, desired
    positions and the desired positions' increments. It is the one marker
    step: P2Quantile.update and SpanStatWindow.score both call it.

    Positions are integral floats and a moving marker steps by d = +-1.0,
    so the step's subtractions and comparisons are float-float. Its values
    are those of integer positions: each operand of a division is exact, so
    the quotient rounds once, as int/int true division does. (With int
    heights the two agree while a height difference times a position gap
    stays below 2^53.) Heights keep their types: a step writes x or a
    quotient.
    """
    # find the cell of x and bump every position above it; `not x >= h[k]`
    # picks the same cell as a linear scan up the markers, NaN included
    if x < h[0]:
        h[0] = x
        pos[1] += 1.0
        pos[2] += 1.0
        pos[3] += 1.0
    elif x >= h[4]:
        h[4] = x
    elif not x >= h[1]:
        pos[1] += 1.0
        pos[2] += 1.0
        pos[3] += 1.0
    elif not x >= h[2]:
        pos[2] += 1.0
        pos[3] += 1.0
    elif not x >= h[3]:
        pos[3] += 1.0
    pos[4] += 1.0
    des[1] += inc[1]
    des[2] += inc[2]
    des[3] += inc[3]
    des[4] += inc[4]

    # a marker that moves steps d = +-1.0 towards its neighbour j
    for i in (1, 2, 3):
        pi = pos[i]
        d = des[i] - pi
        if d >= 1.0:
            if pos[i + 1] - pi <= 1.0:
                continue
            d = 1.0
            j = i + 1
        elif d <= -1.0:
            if pos[i - 1] - pi >= -1.0:
                continue
            d = -1.0
            j = i - 1
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
            h[i] = hi + d * (h[j] - hi) / (pos[j] - pi)
        pos[i] = pi + d


class P2Quantile:
    """Constant-space streaming quantile estimator.

    Five markers track the minimum, the target quantile, its half-way
    neighbours and the maximum. Marker heights move by piecewise-parabolic
    interpolation with a linear fallback; positions stay strictly increasing
    integers, held as floats for `_p2_step`'s fast path, and heights
    non-decreasing. The first five observations are held exactly and sorted.
    The markers are the whole state: the count of observations, an int, is
    read from them.
    """

    __slots__ = ("q", "heights", "positions", "_desired", "_increments")

    def __init__(self, quantile: float):
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = quantile
        self.heights: list[float] = []
        self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1 + 2 * quantile, 1 + 4 * quantile, 3 + 2 * quantile, 5.0]
        self._increments = [0.0, quantile / 2, quantile, (1 + quantile) / 2, 1.0]

    @property
    def n(self) -> int:
        """Observations seen: the top marker's position once five are held."""
        held = len(self.heights)
        return int(self.positions[4]) if held == 5 else held

    def update(self, x: float) -> None:
        h = self.heights
        if len(h) < 5:
            h.append(x)
            if len(h) == 5:
                h.sort()
            return
        _p2_step(x, h, self.positions, self._desired, self._increments)

    def value(self) -> float:
        """Current estimate; exact for fewer than five observations."""
        h = self.heights
        if len(h) == 5:
            return h[2]
        if not h:
            return 0.0
        ordered = sorted(h)
        rank = self.q * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac


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


class SpanStatWindow:
    """Sliding window of exclusive durations for one span type.

    score(x) is the whole update for one observation, in one pass: it reads
    the threshold in force and the median of the window's own sorted list,
    scores x against that median and the MAD before x is inserted, moves
    the Z-quantile and MAD markers through `_p2_step`, the marker step
    P2Quantile.update also calls, updates the running mean and M2 (Welford)
    in place, and slides the window with one bisect delete and one insort.
    It returns (z, threshold). The first MIN_OBS observations score 0 and
    see an infinite threshold, so cold windows flag nothing; the first five
    go to the estimators' own update, which holds them exactly. Distinct
    keys are independent.
    """

    __slots__ = ("key", "window", "theta", "count", "_warm_at", "_values", "_sorted",
                 "_mean", "_m2", "_mad_est", "_zq_est", "_mad_markers", "_zq_markers")

    def __init__(self, key: str, window: int = DEFAULT_WINDOW, theta: float = DEFAULT_THETA):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.key = key
        self.window = window
        self._warm_at = MIN_OBS
        self.theta = theta
        self.count = 0
        self._values: deque[float] = deque()  # arrival order
        self._sorted: list[float] = []  # the same values, sorted
        self._mean = 0.0
        self._m2 = 0.0
        mad = self._mad_est = P2Quantile(0.5)
        zq = self._zq_est = P2Quantile(theta)
        # each estimator's marker lists, which the estimator mutates in place
        self._mad_markers = (mad.heights, mad.positions, mad._desired, mad._increments)
        self._zq_markers = (zq.heights, zq.positions, zq._desired, zq._increments)

    def score(self, x: float) -> tuple[float, float]:
        """Score x, then add it; returns (z, threshold in force)."""
        count = self.count
        srt = self._sorted
        n = len(srt)
        zh, zp, zd, zi = self._zq_markers
        mh, mp, md, mi = self._mad_markers
        if not count:
            threshold = self.z_threshold()
            z = deviation = 0.0
        else:
            mid = n // 2
            dev = x - (srt[mid] if n % 2 else (srt[mid - 1] + srt[mid]) / 2)
            if count < self._warm_at:
                threshold = math.inf
                z = 0.0
            else:
                if count >= 5:
                    threshold = zh[2]
                    mad = mh[2]
                else:
                    threshold = self._zq_est.value()
                    mad = self._mad_est.value()
                if dev == 0.0:
                    z = 0.0
                else:
                    z = math.copysign(Z_CAP, dev) if mad <= 0.0 else dev / mad
            deviation = abs(dev)

        if count >= 5:
            _p2_step(z, zh, zp, zd, zi)
            _p2_step(deviation, mh, mp, md, mi)
        else:
            self._zq_est.update(z)
            self._mad_est.update(deviation)
        count += 1
        self.count = count
        mean = self._mean
        delta = x - mean
        mean += delta / count
        self._mean = mean
        self._m2 += delta * (x - mean)
        values = self._values
        if n == self.window:
            del srt[bisect_left(srt, values.popleft())]
        values.append(x)
        insort(srt, x)
        return z, threshold

    def z_threshold(self) -> float:
        """Current estimate of the theta quantile of emitted Z-scores.

        Infinite until MIN_OBS scores exist, so nothing is flagged while the
        window is cold.
        """
        if self.count < self._warm_at:
            return math.inf
        return self._zq_est.value()

    def median(self) -> float:
        """The median of the window's values; 0.0 while it is empty."""
        srt = self._sorted
        n = len(srt)
        if not n:
            return 0.0
        mid = n // 2
        return srt[mid] if n % 2 else (srt[mid - 1] + srt[mid]) / 2

    def stats(self) -> dict:
        count = self.count
        return {
            "count": count,
            "median": self.median(),
            "mad": self._mad_est.value() if count else 0.0,
            "z_quantile": self._zq_est.value(),
            "mean": self._mean,
            "std": math.sqrt(self._m2 / (count - 1)) if count >= 2 else 0.0,
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
    maps each key to an object whose count, mean and std are finite numbers,
    the count an integer >= 0 and the std >= 0."""
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
        if type(entry["count"]) is not int or entry["count"] < 0:
            raise MalformedDocumentError(
                f"{path}: snapshot entry {key!r}: count must be an integer >= 0, "
                f"not {entry['count']!r}")
        if entry["std"] < 0:
            raise MalformedDocumentError(
                f"{path}: snapshot entry {key!r}: std must be >= 0, not {entry['std']!r}")
    return StatsSnapshot(data)
