"""Call tracer for the traced run.

Wraps named functions and methods of the program from outside, records one
span per call (name, start, end, parent) in memory, and restores the
originals on exit. Self time is a span's duration minus the durations of its
direct children; calls are nested and single-threaded, so children never
overlap.
"""

from __future__ import annotations

import gzip
import time
import weakref
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.sections: dict[str, list[range]] = {}
        self.counts: dict[tuple[str | None, str], int] = {}
        self._section: str | None = None

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def section(self, label: str):
        """Attribute the spans and counts recorded inside the block to `label`."""
        first = len(self.start)
        self._section = label
        try:
            yield
        finally:
            self._section = None
            self.sections.setdefault(label, []).append(range(first, len(self.start)))

    def count(self, name: str) -> None:
        key = (self._section, name)
        self.counts[key] = self.counts.get(key, 0) + 1

    # -- patching --------------------------------------------------------

    def _install(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, tally=None) -> None:
        """Record every call of owner.attr as a span named `name`.

        tally, when given, maps a call's result to a count name or None.
        """
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        open_, close, count = self._open, self._close, self.count

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if tally is not None:
                counted = tally(result)
                if counted is not None:
                    count(counted)
            return result

        self._install(owner, attr, traced)

    def wrap_cold(self, owner, attr: str, name: str) -> None:
        """Like wrap() for a per-object, per-key cached method.

        The first call for a key on an object is named `name + "_cold"`,
        later ones `name + "_warm"`.
        """
        fn = getattr(owner, attr)
        cold, warm = self._name_id(name + "_cold"), self._name_id(name + "_warm")
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        open_, close = self._open, self._close

        def traced(obj, key, *args, **kwargs):
            keys = seen.setdefault(obj, set())
            first = key not in keys
            keys.add(key)
            i = open_(cold if first else warm)
            try:
                return fn(obj, key, *args, **kwargs)
            finally:
                close(i)

        self._install(owner, attr, traced)

    def wrap_cached(self, owner, attr: str, name: str, cache_type) -> None:
        """Like wrap() for a call that is passed a cache of `cache_type`.

        The call is named `name + ".hit"` when the cache's `hits` counter
        advanced during it, else `name + ".miss"`.
        """
        fn = getattr(owner, attr)
        hit, miss = self._name_id(name + ".hit"), self._name_id(name + ".miss")
        open_, close, name_of = self._open, self._close, self.name_of

        def traced(*args, **kwargs):
            cache = next((a for a in (*args, *kwargs.values())
                          if isinstance(a, cache_type)), None)
            before = cache.hits if cache is not None else None
            i = open_(miss)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
                if cache is not None and cache.hits != before:
                    name_of[i] = hit

        self._install(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- analysis --------------------------------------------------------

    def summaries(self) -> dict[str, dict[str, list[int]]]:
        """section -> name -> [calls, total ns, self ns]."""
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        own = array("q", dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, dict[str, list[int]]] = {}
        for label, ranges in self.sections.items():
            rows = out.setdefault(label, {})
            for span_range in ranges:
                for i in span_range:
                    row = rows.setdefault(self.names[self.name_of[i]], [0, 0, 0])
                    row[0] += 1
                    row[1] += dur[i]
                    row[2] += own[i]
        return out

    def dump(self, path) -> None:
        """Write every span as `id parent name start_ns end_ns`, tab-separated, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (nid, p, s, e) in enumerate(zip(self.name_of, self.parent,
                                                   self.start, self.end)):
                fh.write(f"{i}\t{p}\t{self.names[nid]}\t{s}\t{e}\n")
