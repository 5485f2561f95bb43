"""Tests of the span recorder.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.layers import LAYERS  # noqa: E402
from perfbench.spans import SpanRecorder, Spans, _resolve, self_times  # noqa: E402
from repro.harness import runner  # noqa: E402
from repro.harness.config import ExperimentConfig, Variant  # noqa: E402


def test_self_time_subtracts_nested_and_sibling_children():
    spans = Spans()
    root = spans.add(0, 0.0, 10.0, -1)
    spans.add(1, 1.0, 4.0, root)
    second = spans.add(1, 5.0, 9.0, root)
    spans.add(2, 6.0, 7.0, second)
    spans.add(2, 7.5, 8.0, second)
    assert list(self_times(spans)) == [3.0, 3.0, 2.5, 1.0, 0.5]


def test_self_times_of_separate_roots_are_their_durations():
    spans = Spans()
    spans.add(0, 0.0, 2.0, -1)
    spans.add(0, 3.0, 3.5, -1)
    assert list(self_times(spans)) == [2.0, 0.5]


def test_wrapped_calls_record_parents_and_layer_totals():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda x: x * 2, recorder.name_id("inner", "low"))
    outer = recorder.wrap(lambda x: inner(x) + inner(x),
                          recorder.name_id("outer", "high"))
    assert outer(3) == 12  # no open cell: calls go straight through
    recorder.open_cell()
    assert outer(3) == 12
    recorder.close_cell("cell")
    spans = recorder.cells["cell"]
    assert list(spans.parent) == [-1, 0, 0]
    assert [recorder.names[n] for n in spans.name] == ["outer", "inner", "inner"]
    # outer 0..5, inner 1..2 and 3..4: outer keeps 5 - 2 of its 5 ticks.
    assert recorder.layer_totals() == {"low": (2.0, 2), "high": (3.0, 1)}


def test_exception_closes_the_span():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.wrap(boom, recorder.name_id("boom", "layer"))
    recorder.open_cell()
    try:
        wrapped()
    except KeyError:
        pass
    recorder.close_cell("cell")
    spans = recorder.cells["cell"]
    assert len(spans) == 1 and spans.end[0] >= spans.start[0]


def test_every_patched_function_is_restored():
    originals = {target: _resolve(target) for targets in LAYERS.values()
                 for target in targets}
    from repro.harness import fuzz, invariants

    imported_by_name = fuzz.check_all
    assert imported_by_name is invariants.check_all
    recorder = SpanRecorder()
    recorder.install(LAYERS)
    try:
        for target, (owner, attr, raw) in originals.items():
            bound = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
            assert bound is not raw, target
        assert fuzz.check_all is not imported_by_name
    finally:
        recorder.restore()
    assert not recorder.installed
    for target, (owner, attr, raw) in originals.items():
        bound = owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        assert bound is raw, target
    assert fuzz.check_all is imported_by_name


def _run(cfg):
    result, _system = runner.run_experiment_with_system(cfg)
    return result


def test_traced_cell_is_cycle_and_output_identical():
    cfg = ExperimentConfig(app="agrep", variant=Variant.SPECULATING, workload_scale=0.1)
    untraced = _run(cfg)
    recorder = SpanRecorder()
    recorder.install(LAYERS)
    try:
        recorder.open_cell()
        traced = _run(cfg)
        recorder.close_cell("agrep/speculating")
    finally:
        recorder.restore()
    assert traced.cycles == untraced.cycles
    assert traced.output == untraced.output
    assert traced.counters == untraced.counters
    totals = recorder.layer_totals()
    for layer in ("vm", "kernel", "spechint.runtime", "spechint.tool", "tip",
                  "fs", "storage", "sim", "apps", "harness"):
        assert totals[layer][1] > 0, layer
