"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: `Tracer.wrap` replaces a
function or method on the object its caller looks it up on (a module
namespace or a class), so calls made from inside circuitlab are seen without
touching the package.  Each span keeps (name, start, end, parent) plus an
optional work count (points evaluated, sweeps run, ...) in flat arrays, so a
pass with hundreds of thousands of calls stays a few megabytes.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: float = 0.0


class Tracer:
    """Records nested spans; `install` wraps targets, `uninstall` restores them."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._units = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._units.append(0.0)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner: object, attr: str, name: str,
             units: Callable[[tuple, dict, object], float] | None = None) -> None:
        """Replace owner.attr by a recording wrapper until `uninstall`.

        `units(args, kwargs, result)` gives the span's work count."""
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if units is not None:
                self._units[idx] = float(units(args, kwargs, out))
            return out

        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def summary(self) -> "TraceSummary":
        """Per-name totals, self times and work counts, overall and under
        each top-level span (the benchmark opens one per scenario)."""
        n = self.n_spans
        names = np.frombuffer(self._name, dtype=np.int32, count=n) if n else np.zeros(0, np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32, count=n) if n else np.zeros(0, np.int32)
        start = np.frombuffer(self._start, dtype=float, count=n) if n else np.zeros(0)
        end = np.frombuffer(self._end, dtype=float, count=n) if n else np.zeros(0)
        units = np.frombuffer(self._units, dtype=float, count=n) if n else np.zeros(0)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        # parents always precede their children, so one forward sweep finds roots
        root = np.arange(n, dtype=np.int64)
        for i in np.nonzero(has_parent)[0]:
            root[i] = root[parent[i]]

        overall: dict[str, NameStats] = {}
        under: dict[tuple[str, str], NameStats] = {}
        for name_id, name in enumerate(self._names):
            sel = names == name_id
            if not np.any(sel):
                continue
            overall[name] = NameStats(int(sel.sum()), float(dur[sel].sum()),
                                      float(self_time[sel].sum()),
                                      float(units[sel].sum()))
            for r in np.unique(root[sel]):
                rsel = sel & (root == r)
                key = (self._names[names[r]], name)
                st = under.setdefault(key, NameStats())
                st.calls += int(rsel.sum())
                st.total_s += float(dur[rsel].sum())
                st.self_s += float(self_time[rsel].sum())
                st.units += float(units[rsel].sum())
        return TraceSummary(overall, under, n)


@dataclass
class TraceSummary:
    overall: dict[str, NameStats]
    under: dict[tuple[str, str], NameStats]   # (top-level span, name) -> stats
    n_spans: int

    def get(self, name: str) -> NameStats:
        return self.overall.get(name, NameStats())

    def within(self, top: str, name: str) -> NameStats:
        return self.under.get((top, name), NameStats())
