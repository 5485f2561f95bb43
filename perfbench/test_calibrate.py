"""Tests of the calibration sampler.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.calibrate import INTERVAL_S, REFERENCE_S, Calibrator  # noqa: E402


def _spin(cpu_seconds: float) -> None:
    end = time.process_time() + cpu_seconds
    while time.process_time() < end:
        pass


def test_sampling_bursts_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    calibrator = Calibrator()
    with calibrator.sampling():
        _spin(4 * INTERVAL_S)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    # One burst on entry, then about one per interval of CPU time.
    assert len(calibrator.samples) >= 3


def test_take_reports_the_median_burst_against_the_reference():
    calibrator = Calibrator()
    calibrator.samples = [REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S]
    assert calibrator.current() == 2.0
    assert calibrator.take() == 2.0
    assert calibrator.samples == []
