"""In-memory span recording around the simulator's public layer functions.

The benchmark measures layers from outside the program: :func:`install`
replaces chosen methods on their classes with wrappers that record one span
per call (name, start, end, parent span) into columnar arrays, and
:func:`uninstall` puts every original back exactly as it was.  All spans of
one traced run share the recorder's ``run_id``.  Nothing under ``src/``
knows about this module.

Spans nest strictly (the simulator is single-threaded), so the time a
span's children cover is the sum of their durations and a span's self time
is its duration minus that sum (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import math
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Hook",
    "SpanRecorder",
    "install",
    "uninstall",
    "self_times",
    "tail_percentile",
    "percentile",
]

#: Standard percentiles, lowest first; :func:`tail_percentile` picks from these.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
_MISSING = object()


class SpanRecorder:
    """Columnar span store: one row per call, parent ``-1`` at top level."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append one closed span (for tests and synthetic trees)."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(name_id, parent, duration)`` as numpy arrays."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            end - start,
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        name, parent, dur = self.columns()
        own = self_times(parent, dur)
        counts = np.bincount(name, minlength=len(self.names))
        totals = np.bincount(name, weights=dur, minlength=len(self.names))
        selfs = np.bincount(name, weights=own, minlength=len(self.names))
        return {
            n: {"calls": int(counts[i]), "total_s": float(totals[i]),
                "self_s": float(selfs[i])}
            for i, n in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        names, _, dur = self.columns()
        nid = self._name_ids.get(name)
        return dur[names == nid] if nid is not None else dur[:0]

    def self_seconds(self, name: str, children: Sequence[str]) -> float:
        """Total duration of the ``name`` spans minus that of their direct
        children named in ``children`` (other children count as own time)."""
        names, parent, dur = self.columns()
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        child_ids = [self._name_ids[c] for c in children if c in self._name_ids]
        mask = np.isin(names, child_ids) & (parent >= 0)
        mask &= names[np.where(parent >= 0, parent, 0)] == nid
        return float(dur[names == nid].sum() - dur[mask].sum())

    def write(self, path: Path) -> Path:
        """Write every span (one binary ``.npz``) plus a JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        header = {"run_id": self.run_id, "names": self.names, "spans": len(self)}
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        return path


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    child = parent >= 0
    covered = np.bincount(
        parent[child], weights=duration[child], minlength=len(duration)
    )
    return duration - covered


@dataclass(frozen=True)
class Hook:
    """One method to wrap: ``cls.attr`` recorded as span ``name``.

    ``observe(args, result)`` runs after the span closes, outside its timed
    interval, for counts that need the call's arguments or result.
    """

    cls: type
    attr: str
    name: str
    observe: Optional[Callable] = None


def _wrap(fn: Callable, rec: SpanRecorder, nid: int, observe: Optional[Callable]):
    names, parents, starts, ends, stack = (
        rec.name, rec.parent, rec.start, rec.end, rec.stack
    )
    clock = time.perf_counter

    @functools.wraps(fn)
    def span(*args, **kwargs):
        idx = len(starts)
        names.append(nid)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(idx)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()
        if observe is not None:
            observe(args, result)
        return result

    return span


def install(hooks: Sequence[Hook], rec: SpanRecorder) -> List[Tuple[type, str, object]]:
    """Wrap every hook's method; returns the undo list for :func:`uninstall`.

    A method a class inherits is wrapped on that class only (its base keeps
    the original), and uninstalling deletes the wrapper again.
    """
    undo: List[Tuple[type, str, object]] = []
    try:
        for hook in hooks:
            original = getattr(hook.cls, hook.attr)
            if not callable(original) or isinstance(
                hook.cls.__dict__.get(hook.attr), (staticmethod, classmethod)
            ):
                raise TypeError(f"{hook.cls.__name__}.{hook.attr} is not a plain method")
            undo.append((hook.cls, hook.attr, hook.cls.__dict__.get(hook.attr, _MISSING)))
            setattr(hook.cls, hook.attr,
                    _wrap(original, rec, rec.name_id(hook.name), hook.observe))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: List[Tuple[type, str, object]]) -> None:
    """Restore what :func:`install` replaced, newest first."""
    while undo:
        cls, attr, original = undo.pop()
        if original is _MISSING:
            delattr(cls, attr)
        else:
            setattr(cls, attr, original)


def tail_percentile(samples: int, ladder: Sequence[float] = PERCENTILE_LADDER,
                    beyond: int = 10) -> Optional[float]:
    """Highest ladder percentile with at least ``beyond`` samples above it.

    With ``n`` samples, ``n * (100 - p) / 100`` of them lie beyond the
    ``p``-th percentile; None when even the lowest rung has too few.
    """
    best = None
    for p in ladder:
        if round(samples * (100.0 - p) / 100.0, 9) >= beyond:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the smallest value with ``p``% at or below)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]
