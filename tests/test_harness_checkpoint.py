"""Tests for crash-safe harness checkpointing and resume."""

import json
import os
import signal
import stat
import subprocess
import sys
import time

import pytest

from repro.errors import CheckpointError
from repro.harness.checkpoint import (
    CHECKPOINT_VERSION,
    SweepCheckpoint,
    atomic_write_json,
    flush_on_signals,
)
from repro.harness.experiments import SWEEP_POINTS, run_sweep_resumable
from repro.harness.parallel import run_cells_parallel, sweep_parallel_cells
from repro.harness.results import RunResult


def make_result(key: str, cycles: int = 1000) -> RunResult:
    return RunResult(
        app="agrep", variant="speculating", cycles=cycles, cpu_hz=500_000_000,
        counters={"app.read_calls": 7, "spec.restarts": 2},
        output=f"output of {key}".encode(),
        read_trace=((1, 0, 100), (1, 100, 100)),
    )


class TestAtomicWrite:
    def test_writes_valid_json(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})
        with open(path) as handle:
            assert json.load(handle) == {"a": 1}

    def test_replaces_existing_file(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"v": 1})
        atomic_write_json(path, {"v": 2})
        with open(path) as handle:
            assert json.load(handle) == {"v": 2}

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write_json(str(tmp_path / "out.json"), [1, 2, 3])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_fsyncs_file_and_containing_directory(self, tmp_path, monkeypatch):
        """Durability needs two fsyncs: the temp file's data before the
        rename, and the directory's metadata after it — otherwise a
        power-loss-style kill can roll the rename back."""
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        atomic_write_json(str(tmp_path / "out.json"), {"a": 1})
        assert synced == [False, True]  # file data first, then directory

    def test_directory_fsync_failure_is_best_effort(self, tmp_path,
                                                    monkeypatch):
        real_fsync = os.fsync

        def flaky_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("EINVAL: fsync on directory unsupported")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})  # must not raise
        with open(path) as handle:
            assert json.load(handle) == {"a": 1}

    def test_crash_window_never_corrupts(self, tmp_path):
        """SIGKILL a writer loop at random points; the target file must
        always hold one complete, valid JSON state — never a torn write."""
        path = str(tmp_path / "state.json")
        script = (
            "import sys, time\n"
            f"sys.path.insert(0, {os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), 'src')!r})\n"
            "from repro.harness.checkpoint import atomic_write_json\n"
            "i = 0\n"
            "while True:\n"
            f"    atomic_write_json({path!r}, {{'gen': i, 'pad': 'x' * 4096}})\n"
            "    i += 1\n"
        )
        for attempt in range(5):
            process = subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            try:
                time.sleep(0.05 + 0.03 * attempt)  # vary the kill point
            finally:
                process.kill()
                process.wait(timeout=30)
            if not os.path.exists(path):
                continue  # killed before the first write completed
            with open(path) as handle:
                state = json.load(handle)  # raises if torn
            assert set(state) == {"gen", "pad"}
            assert len(state["pad"]) == 4096


class TestFlushOnSignals:
    def test_sigterm_flushes_then_exits_with_143(self):
        flushed = []
        with pytest.raises(SystemExit) as excinfo, \
                flush_on_signals(lambda: flushed.append("yes")):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(1)  # handler fires before the sleep finishes
            pytest.fail("SIGTERM handler did not fire")
        assert excinfo.value.code == 128 + signal.SIGTERM
        assert flushed == ["yes"]

    def test_handlers_restored_after_scope(self):
        before = signal.getsignal(signal.SIGTERM)
        with flush_on_signals(lambda: None):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before


class TestRunResultRoundtrip:
    def test_roundtrip_preserves_fields(self):
        original = make_result("cell-a")
        original.spec_parks = {"spec_exit": 1}
        original.fault_profile = "transient-errors"
        original.watchdog_tripped = "restart_storm"
        original.isolation_violations = 2
        original.quarantines = 1
        original.audit_head_digest = "abc123"
        restored = RunResult.from_jsonable(original.to_jsonable())
        assert restored.app == original.app
        assert restored.cycles == original.cycles
        assert restored.counters == original.counters
        assert restored.output == original.output
        assert restored.read_trace == original.read_trace
        assert restored.spec_parks == original.spec_parks
        assert restored.fault_profile == original.fault_profile
        assert restored.watchdog_tripped == original.watchdog_tripped
        assert restored.isolation_violations == 2
        assert restored.quarantines == 1
        assert restored.audit_head_digest == "abc123"

    def test_jsonable_is_json_serializable(self):
        blob = json.dumps(make_result("x").to_jsonable())
        assert "output_b64" in blob


class TestSweepCheckpoint:
    def test_record_and_reload(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        checkpoint = SweepCheckpoint(path, "sweep:test")
        checkpoint.record_payload("cell-a", make_result("cell-a").to_jsonable())
        checkpoint.record_payload(
            "cell-b", make_result("cell-b", cycles=2000).to_jsonable())

        reloaded = SweepCheckpoint.load(path, "sweep:test")
        assert len(reloaded) == 2
        assert reloaded.keys() == ["cell-a", "cell-b"]
        assert reloaded.payload("cell-b")["cycles"] == 2000

    def test_missing_file_is_typed_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            SweepCheckpoint.load(str(tmp_path / "absent.json"), "x")

    def test_corrupt_json_is_typed_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            SweepCheckpoint.load(str(path), "x")

    def test_wrong_version_is_typed_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "version": CHECKPOINT_VERSION + 1, "identity": "x", "cells": {},
        }))
        with pytest.raises(CheckpointError, match="version"):
            SweepCheckpoint.load(str(path), "x")

    def test_wrong_identity_is_typed_error(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        SweepCheckpoint(path, "sweep:disks").flush()
        with pytest.raises(CheckpointError, match="belongs to sweep"):
            SweepCheckpoint.load(path, "sweep:cache")

    def test_missing_cell_is_typed_error(self, tmp_path):
        """A cell absent from a checkpoint reloaded from disk is a typed
        error, not a raw KeyError."""
        path = str(tmp_path / "c.json")
        checkpoint = SweepCheckpoint(path, "x")
        checkpoint.record_payload("present", make_result("present").to_jsonable())
        reloaded = SweepCheckpoint.load(path, "x")
        assert "absent" not in reloaded
        with pytest.raises(CheckpointError, match="no cell"):
            reloaded.payload("absent")

    def test_missing_payload_is_typed_error(self, tmp_path):
        checkpoint = SweepCheckpoint(str(tmp_path / "c.json"), "x")
        with pytest.raises(CheckpointError, match="no cell"):
            checkpoint.payload("absent")

    def test_malformed_cell_is_typed_error(self, tmp_path):
        """A resumed sweep restoring a cell that is not a RunResult fails
        with a typed error, not a raw KeyError from deserialization."""
        path = str(tmp_path / "c.json")
        checkpoint = SweepCheckpoint(path, "sweep:cache:scale=0.2")
        keys = [spec[0] for spec in sweep_parallel_cells("cache", 0.2)]
        for key in keys:
            checkpoint.record_payload(key, make_result(key).to_jsonable())
        checkpoint.record_payload(keys[1], {"not": "a RunResult"})
        with pytest.raises(CheckpointError, match="malformed"):
            run_sweep_resumable("cache", workload_scale=0.2,
                                checkpoint_path=path, resume=True)

    def test_unwritable_flush_is_typed_error(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir"
        checkpoint = SweepCheckpoint(str(missing_dir / "c.json"), "x")
        with pytest.raises(CheckpointError, match="cannot write"):
            checkpoint.flush()

    def test_bad_quarantine_table_is_typed_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "version": CHECKPOINT_VERSION, "identity": "x", "cells": {},
            "quarantined": ["not", "a", "dict"],
        }))
        with pytest.raises(CheckpointError, match="quarantine table"):
            SweepCheckpoint.load(str(path), "x")

    def test_quarantine_roundtrip_and_clear_on_success(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        checkpoint = SweepCheckpoint(path, "x")
        record = {"status": "QUARANTINED", "failures": [], "traceback": "tb"}
        checkpoint.record_quarantine("poisoned", record)

        reloaded = SweepCheckpoint.load(path, "x")
        assert reloaded.quarantined == {"poisoned": record}
        assert "poisoned" not in reloaded  # quarantine is not a result

        # A later success supersedes the quarantine record.
        reloaded.record_payload("poisoned", {"value": 1})
        assert SweepCheckpoint.load(path, "x").quarantined == {}

    def test_merge_from_adopts_only_missing_cells(self, tmp_path):
        main = SweepCheckpoint(str(tmp_path / "a.json"), "x")
        main.record_payload("shared", {"value": 1})
        other = SweepCheckpoint(str(tmp_path / "b.json"), "x")
        other.record_payload("shared", {"value": 999})
        other.record_payload("extra", {"value": 2})
        assert main.merge_from(other) == 1
        assert main.payload("shared") == {"value": 1}  # ours wins
        assert main.payload("extra") == {"value": 2}

    def test_merge_from_identity_mismatch_is_typed_error(self, tmp_path):
        main = SweepCheckpoint(str(tmp_path / "a.json"), "sweep-a")
        other = SweepCheckpoint(str(tmp_path / "b.json"), "sweep-b")
        with pytest.raises(CheckpointError, match="cannot merge"):
            main.merge_from(other)


class _Killed(Exception):
    """Simulated harness kill mid-sweep."""


class TestRunCells:
    """The in-process (``jobs=1``) path of the cell engine."""

    def _cells(self, log):
        def run(key):
            log.append(key)
            return make_result(key, cycles=100 * (len(log))).to_jsonable()
        return [(f"cell-{i}", run, (f"cell-{i}",)) for i in range(4)]

    def _run(self, cells, **kwargs):
        return run_cells_parallel(cells, jobs=1, **kwargs).results

    def test_plain_run_without_checkpoint(self):
        log = []
        results = self._run(self._cells(log))
        assert len(results) == 4
        assert log == [f"cell-{i}" for i in range(4)]

    def test_killed_sweep_resumes_identically(self, tmp_path):
        """Kill the sweep after two cells; the resumed sweep must restore
        them from the checkpoint and produce results identical to an
        uninterrupted run."""
        path = str(tmp_path / "ckpt.json")

        # Uninterrupted reference (deterministic cells).
        reference = self._run(self._cells([]))

        # First attempt: the third cell kills the harness.
        killed_log = []
        cells = self._cells(killed_log)

        def dying():
            raise _Killed()

        cells[2] = (cells[2][0], dying, ())
        with pytest.raises(_Killed):
            self._run(cells, checkpoint_path=path, identity="t")
        assert killed_log == ["cell-0", "cell-1"]

        # Resume: completed cells restored, only the rest re-run.
        resumed_log = []
        results = self._run(
            self._cells(resumed_log), checkpoint_path=path,
            identity="t", resume=True,
        )
        assert resumed_log == ["cell-2", "cell-3"]  # only missing cells ran
        assert results.keys() == reference.keys()
        for cell_key in reference:
            for field in ("output_b64", "read_trace", "counters"):
                assert results[cell_key][field] == reference[cell_key][field]

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        path = str(tmp_path / "new.json")
        log = []
        results = self._run(self._cells(log), checkpoint_path=path,
                            identity="t", resume=True)
        assert len(results) == 4
        assert len(log) == 4
        assert os.path.exists(path)

    def test_identity_mismatch_refuses_resume(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._run(self._cells([]), checkpoint_path=path, identity="sweep-a")
        with pytest.raises(CheckpointError, match="belongs to sweep"):
            self._run(self._cells([]), checkpoint_path=path,
                      identity="sweep-b", resume=True)

    def test_progress_callback_reports_resumed_cells(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        self._run(self._cells([])[:2], checkpoint_path=path, identity="t")
        seen = []
        self._run(self._cells([]), checkpoint_path=path, identity="t",
                  resume=True, progress=lambda k, r: seen.append((k, r)))
        # Restored cells are reported first, then the cells that ran.
        assert seen == [("cell-0", True), ("cell-1", True),
                        ("cell-2", False), ("cell-3", False)]


class TestSweepCells:
    def test_cell_grid_shapes(self):
        from repro.harness.config import APPS, Variant

        for kind, points in SWEEP_POINTS.items():
            cells = sweep_parallel_cells(kind, workload_scale=0.2)
            assert len(cells) == len(points) * len(APPS) * len(tuple(Variant))
            keys = [spec[0] for spec in cells]
            assert len(set(keys)) == len(keys)  # unique keys

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            sweep_parallel_cells("nope")
