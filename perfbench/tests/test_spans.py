"""Self-tests of the benchmark's span arithmetic and wrappers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import spans  # noqa: E402


def _tree() -> spans.SpanRecorder:
    """step[0,10] > {pick[1,4] > lookup[2,3], round[5,9] > {grant[5,6], alloc[7,8.5]}}"""
    rec = spans.SpanRecorder("synthetic")
    step = rec.add("step", 0.0, 10.0)
    pick = rec.add("pick", 1.0, 4.0, step)
    rec.add("lookup", 2.0, 3.0, pick)
    rnd = rec.add("round", 5.0, 9.0, step)
    rec.add("grant", 5.0, 6.0, rnd)
    rec.add("alloc", 7.0, 8.5, rnd)
    return rec


def test_self_time_subtracts_only_direct_children():
    _, parent, dur = _tree().columns()
    assert spans.self_times(parent, dur).tolist() == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5]


def test_self_times_sum_to_root_duration():
    _, parent, dur = _tree().columns()
    assert spans.self_times(parent, dur).sum() == pytest.approx(10.0)


def test_summary_and_partial_exclusion():
    rec = _tree()
    summary = rec.summary()
    assert summary["round"] == {"calls": 1, "total_s": 4.0, "self_s": 1.5}
    assert rec.self_seconds("round", ("grant",)) == 3.0
    assert rec.self_seconds("round", ("grant", "alloc")) == 1.5
    assert rec.self_seconds("missing", ("grant",)) == 0.0


@pytest.mark.parametrize("samples, expected", [
    (9, None), (19, None), (20, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (320, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert spans.tail_percentile(samples) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert spans.percentile(values, 50) == 50
    assert spans.percentile(values, 95) == 95
    assert spans.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        spans.percentile([], 50)


class _Base:
    def work(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


class _Child(_Base):
    def inner(self, x):
        if x < 0:
            raise ValueError("negative")
        return x * 3


def test_wrappers_record_nesting_and_restore_originals():
    before = dict(_Base.__dict__), dict(_Child.__dict__)
    rec = spans.SpanRecorder("unit")
    undo = spans.install(
        [spans.Hook(_Child, "work", "work"), spans.Hook(_Child, "inner", "inner")], rec
    )
    assert _Child().work(2) == 7
    with pytest.raises(ValueError):
        _Child().work(-1)
    assert rec.stack == [-1]
    names = [rec.names[i] for i in rec.name]
    assert names == ["work", "inner", "work", "inner"]
    assert list(rec.parent) == [-1, 0, -1, 2]
    assert all(e >= s for s, e in zip(rec.start, rec.end))
    spans.uninstall(undo)
    assert (dict(_Base.__dict__), dict(_Child.__dict__)) == before
    assert "work" not in _Child.__dict__


def test_observe_sees_arguments_and_result():
    seen = []
    rec = spans.SpanRecorder("unit")
    undo = spans.install(
        [spans.Hook(_Base, "inner", "inner", lambda a, r: seen.append((a[1], r)))], rec
    )
    try:
        _Base().inner(4)
    finally:
        spans.uninstall(undo)
    assert seen == [(4, 8)]


def test_install_rolls_back_when_a_hook_is_invalid():
    class Odd:
        @staticmethod
        def helper():
            return 1

    before = dict(_Base.__dict__)
    with pytest.raises(TypeError):
        spans.install([spans.Hook(_Base, "inner", "inner"),
                       spans.Hook(Odd, "helper", "helper")],
                      spans.SpanRecorder("unit"))
    assert dict(_Base.__dict__) == before


def test_layer_hooks_restore_the_simulator_classes():
    counts = layers.Counts()
    hooks = layers.hooks(counts)
    before = [(h.cls, h.attr, h.cls.__dict__.get(h.attr)) for h in hooks]
    undo = spans.install(hooks, spans.SpanRecorder("unit"))
    assert all(h.cls.__dict__.get(h.attr) is not fn for h, (_, _, fn) in zip(hooks, before))
    spans.uninstall(undo)
    assert all(cls.__dict__.get(attr) is fn for cls, attr, fn in before)


def test_written_spans_round_trip(tmp_path):
    rec = _tree()
    path = rec.write(tmp_path / "spans.npz")
    with np.load(path) as data:
        assert data["parent"].tolist() == list(rec.parent)
        assert (data["end"] - data["start"]).tolist() == rec.columns()[2].tolist()
    assert '"run_id": "synthetic"' in path.with_suffix(".json").read_text()
