"""Tests for the supervised fault-tolerant parallel sweep engine.

The matrix the ISSUE requires: determinism (parallel byte-identical to
serial), worker crash mid-cell, hung cell, poisoned cell quarantine,
pool-startup degradation, parent SIGKILL + resume, SIGTERM checkpoint
flush, and the CLI ``--jobs`` wiring.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import QuarantinedCell, WorkerCrash
from repro.faults.plan import PROFILES
from repro.harness.checkpoint import SweepCheckpoint
from repro.harness.parallel import (
    chaos_parallel_cells,
    merge_worker_partials,
    require_complete,
    run_cells_parallel,
    sweep_parallel_cells,
)
from repro.harness.supervisor import SupervisorConfig

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")

#: Snappy supervision for fault-injection tests: fast heartbeats, short
#: backoff.  The stall deadline stays generous — only the hang tests
#: lower it, so a slow CI machine cannot false-kill a healthy worker.
FAST = SupervisorConfig(
    jobs=2,
    heartbeat_interval_s=0.05,
    stall_deadline_s=30.0,
    backoff_base_s=0.05,
    backoff_cap_s=0.2,
)


# ---------------------------------------------------------------------------
# Synthetic cell runners (module-level: pickled by reference into workers)
# ---------------------------------------------------------------------------

def ok_cell(key, value=0):
    return {"key": key, "value": value}


def counted_cell(key, runs_dir, seconds=0.0):
    """Append one line per execution so tests can count real runs."""
    with open(os.path.join(runs_dir, f"{key}.runs"), "a") as handle:
        handle.write("x\n")
    if seconds:
        time.sleep(seconds)
    return {"key": key, "value": 1}


def always_fail_cell(key):
    raise RuntimeError(f"poisoned cell {key}")


def crash_once_cell(key, marker_dir):
    """SIGKILL our own worker on the first attempt; succeed on retry."""
    marker = os.path.join(marker_dir, f"{key}.crashed")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return {"key": key, "recovered": True}


def crash_always_cell(key):
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable")


def hang_once_cell(key, marker_dir):
    """Freeze (no sim progress, worker alive) on the first attempt."""
    marker = os.path.join(marker_dir, f"{key}.hung")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(600)
    return {"key": key, "recovered": True}


def runs_of(key, runs_dir):
    path = os.path.join(runs_dir, f"{key}.runs")
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return len(handle.readlines())


def canonical(results):
    return {key: json.dumps(payload, sort_keys=True)
            for key, payload in results.items()}


# ---------------------------------------------------------------------------
# Determinism guard
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_parallel_sweep_cells_byte_identical_to_serial(self):
        cells = sweep_parallel_cells("cache", workload_scale=0.2)[:6]
        serial = run_cells_parallel(cells, jobs=1)
        parallel = run_cells_parallel(cells, jobs=2, config=FAST)
        assert not serial.quarantined and not parallel.quarantined
        assert canonical(serial.results) == canonical(parallel.results)
        assert serial.stats.mode == "serial"
        assert parallel.stats.mode == "parallel"
        assert parallel.stats.worker_crashes == 0
        assert parallel.stats.cell_timeouts == 0

    def test_parallel_chaos_cells_byte_identical_to_serial(self):
        profile = next(name for name in sorted(PROFILES) if name != "none")
        cells = chaos_parallel_cells(
            apps=("agrep",), profiles=(None, profile), workload_scale=0.2,
        )
        serial = run_cells_parallel(cells, jobs=1)
        parallel = run_cells_parallel(cells, jobs=2, config=FAST)
        assert canonical(serial.results) == canonical(parallel.results)

    def test_parallel_registry_byte_identical_to_serial(self, tmp_path):
        import glob

        cells = sweep_parallel_cells("cache", workload_scale=0.2)[:4]
        serial_reg = str(tmp_path / "serial-registry.jsonl")
        parallel_reg = str(tmp_path / "parallel-registry.jsonl")
        meta = {"kind": "sweep-cell", "code_version": "repro-test"}
        run_cells_parallel(cells, jobs=1,
                           registry_path=serial_reg, registry_meta=meta)
        run_cells_parallel(cells, jobs=4, config=FAST,
                           registry_path=parallel_reg, registry_meta=meta)
        with open(serial_reg, "rb") as handle:
            serial_bytes = handle.read()
        with open(parallel_reg, "rb") as handle:
            parallel_bytes = handle.read()
        assert serial_bytes == parallel_bytes
        # Worker sidecar ledgers must be merged away, not left behind.
        assert glob.glob(parallel_reg + ".reg-worker-*") == []

    def test_parallel_checkpoint_file_matches_serial(self, tmp_path):
        cells = sweep_parallel_cells("cache", workload_scale=0.2)[:4]
        serial_path = str(tmp_path / "serial.ckpt")
        parallel_path = str(tmp_path / "parallel.ckpt")
        run_cells_parallel(cells, jobs=1, checkpoint_path=serial_path,
                           identity="determinism")
        run_cells_parallel(cells, jobs=2, checkpoint_path=parallel_path,
                           identity="determinism", config=FAST)
        with open(serial_path) as handle:
            serial_state = json.load(handle)
        with open(parallel_path) as handle:
            parallel_state = json.load(handle)
        assert serial_state == parallel_state


# ---------------------------------------------------------------------------
# Supervision: crash / hang / poison / storm / degradation
# ---------------------------------------------------------------------------

class TestSupervision:
    def test_poisoned_cell_quarantined_others_complete(self):
        cells = [
            ("good-a", ok_cell, ("good-a", 1)),
            ("bad", always_fail_cell, ("bad",)),
            ("good-b", ok_cell, ("good-b", 2)),
        ]
        outcome = run_cells_parallel(cells, jobs=2, config=FAST,
                                     on_event=lambda _msg: None)
        assert sorted(outcome.results) == ["good-a", "good-b"]
        record = outcome.quarantined["bad"]
        assert record["status"] == "QUARANTINED"
        assert len(record["failures"]) == FAST.max_cell_failures
        assert "RuntimeError" in record["traceback"]
        assert "poisoned cell bad" in record["traceback"]
        assert outcome.stats.cell_errors == FAST.max_cell_failures
        assert outcome.stats.retries == FAST.max_cell_failures - 1
        with pytest.raises(QuarantinedCell, match="bad"):
            require_complete(outcome, what="test sweep")

    def test_worker_crash_mid_cell_rescheduled(self, tmp_path):
        cells = [("steady", ok_cell, ("steady", 1)),
                 ("crasher", crash_once_cell, ("crasher", str(tmp_path)))]
        outcome = run_cells_parallel(cells, jobs=2, config=FAST,
                                     on_event=lambda _msg: None)
        assert not outcome.quarantined
        assert outcome.results["crasher"] == {"key": "crasher",
                                              "recovered": True}
        assert outcome.stats.worker_crashes >= 1
        assert outcome.stats.retries >= 1
        # The crashed slot was refilled on top of the initial pool.
        assert outcome.stats.workers_spawned >= 3

    def test_hung_cell_killed_and_rescheduled(self, tmp_path):
        import dataclasses

        config = dataclasses.replace(FAST, heartbeat_interval_s=0.1,
                                     stall_deadline_s=0.6)
        cells = [("hanger", hang_once_cell, ("hanger", str(tmp_path))),
                 ("steady", ok_cell, ("steady", 1))]
        outcome = run_cells_parallel(cells, jobs=2, config=config,
                                     on_event=lambda _msg: None)
        assert not outcome.quarantined
        assert outcome.results["hanger"] == {"key": "hanger",
                                             "recovered": True}
        assert outcome.stats.cell_timeouts >= 1

    def test_crash_storm_aborts_with_typed_error(self):
        import dataclasses

        config = dataclasses.replace(FAST, max_pool_failures=2,
                                     max_cell_failures=10)
        cells = [("doomed", crash_always_cell, ("doomed",))]
        with pytest.raises(WorkerCrash, match="pool unhealthy"):
            run_cells_parallel(cells, jobs=2, config=config,
                               on_event=lambda _msg: None)

    def test_pool_startup_failure_degrades_to_serial(self, monkeypatch):
        from repro.harness import supervisor as supervisor_mod

        def broken_start(self):
            raise RuntimeError("no processes for you")

        monkeypatch.setattr(supervisor_mod.Supervisor, "start", broken_start)
        events = []
        cells = [("a", ok_cell, ("a", 1)), ("b", ok_cell, ("b", 2))]
        outcome = run_cells_parallel(cells, jobs=2, config=FAST,
                                     on_event=events.append)
        assert outcome.stats.mode == "serial"
        assert sorted(outcome.results) == ["a", "b"]
        assert any("degrading to serial" in message for message in events)

    def test_jobs_one_runs_serial(self):
        outcome = run_cells_parallel([("a", ok_cell, ("a", 1))], jobs=1)
        assert outcome.stats.mode == "serial"
        assert outcome.results == {"a": {"key": "a", "value": 1}}


# ---------------------------------------------------------------------------
# Checkpoint integration: resume, quarantine persistence, partial merge
# ---------------------------------------------------------------------------

class TestCheckpointIntegration:
    def test_resume_restores_instead_of_recomputing(self, tmp_path):
        runs_dir = str(tmp_path)
        path = str(tmp_path / "sweep.ckpt")
        cells = [(f"cell-{i}", counted_cell, (f"cell-{i}", runs_dir))
                 for i in range(4)]
        first = run_cells_parallel(cells, jobs=2, checkpoint_path=path,
                                   identity="resume-test", config=FAST)
        assert len(first.results) == 4
        second = run_cells_parallel(cells, jobs=2, checkpoint_path=path,
                                    identity="resume-test", resume=True,
                                    config=FAST)
        assert canonical(second.results) == canonical(first.results)
        assert second.stats.cells_restored == 4
        assert second.stats.cells_completed == 0
        for i in range(4):
            assert runs_of(f"cell-{i}", runs_dir) == 1  # never recomputed

    def test_quarantine_record_persisted_and_retried_on_resume(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        bad = [("flaky", always_fail_cell, ("flaky",))]
        outcome = run_cells_parallel(bad, jobs=2, checkpoint_path=path,
                                     identity="quarantine-test", config=FAST,
                                     on_event=lambda _msg: None)
        assert "flaky" in outcome.quarantined
        reloaded = SweepCheckpoint.load(path, "quarantine-test")
        assert "flaky" in reloaded.quarantined
        assert reloaded.quarantined["flaky"]["status"] == "QUARANTINED"

        # Resume retries the quarantined cell; success clears the record.
        healed = [("flaky", ok_cell, ("flaky", 7))]
        outcome = run_cells_parallel(healed, jobs=2, checkpoint_path=path,
                                     identity="quarantine-test", resume=True,
                                     config=FAST)
        assert outcome.results["flaky"] == {"key": "flaky", "value": 7}
        reloaded = SweepCheckpoint.load(path, "quarantine-test")
        assert "flaky" in reloaded
        assert "flaky" not in reloaded.quarantined

    def test_merge_worker_partials_adopts_and_deletes(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        main = SweepCheckpoint(path, "merge-test")
        main.record_payload("done-before", {"value": 1})

        partial = SweepCheckpoint(path + ".worker-0", "merge-test")
        partial.record_payload("done-before", {"value": 1})
        partial.record_payload("orphaned", {"value": 2})

        adopted = merge_worker_partials(main)
        assert adopted == 1
        assert not os.path.exists(path + ".worker-0")
        reloaded = SweepCheckpoint.load(path, "merge-test")
        assert reloaded.payload("orphaned") == {"value": 2}

    def test_merge_ignores_foreign_identity_partials(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        main = SweepCheckpoint(path, "merge-test")
        main.flush()
        foreign = SweepCheckpoint(path + ".worker-1", "other-sweep")
        foreign.record_payload("alien", {"value": 9})

        events = []
        adopted = merge_worker_partials(main, on_event=events.append)
        assert adopted == 0
        assert "alien" not in main
        assert any("ignoring stale partial" in message for message in events)
        assert not os.path.exists(path + ".worker-1")

    def test_fresh_start_clears_stale_partials(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        stale = SweepCheckpoint(path + ".worker-0", "fresh-test")
        stale.record_payload("stale-cell", {"value": 1})
        outcome = run_cells_parallel(
            [("a", ok_cell, ("a", 1))], jobs=1,
            checkpoint_path=path, identity="fresh-test",
        )
        assert "stale-cell" not in outcome.results
        assert not os.path.exists(path + ".worker-0")


# ---------------------------------------------------------------------------
# Kill matrix: parent SIGKILL mid-sweep, SIGTERM flush
# ---------------------------------------------------------------------------

_KILL_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_parallel_supervisor import counted_cell
from repro.harness.parallel import run_cells_parallel

cells = [("cell-%d" % i, counted_cell, ("cell-%d" % i, {runs_dir!r}, 0.3))
         for i in range(8)]
run_cells_parallel(cells, jobs={jobs}, checkpoint_path={path!r},
                   identity="kill-test", resume=True,
                   on_event=lambda _msg: None)
print("COMPLETED")
"""


def _recorded_cells(path):
    """Cells durably recorded in the main checkpoint plus any partials."""
    import glob

    keys = set()
    for candidate in [path] + sorted(glob.glob(glob.escape(path) + ".worker-*")):
        try:
            with open(candidate) as handle:
                keys.update(json.load(handle).get("cells", {}))
        except (OSError, ValueError):
            continue
    return keys


class TestKillMatrix:
    def _launch(self, tmp_path, jobs):
        runs_dir = str(tmp_path)
        path = str(tmp_path / "sweep.ckpt")
        script = _KILL_SCRIPT.format(src=SRC_DIR, tests=TESTS_DIR,
                                     runs_dir=runs_dir, path=path, jobs=jobs)
        process = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        return process, path, runs_dir

    def _wait_for_cells(self, process, path, minimum, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if len(_recorded_cells(path)) >= minimum:
                return
            if process.poll() is not None:
                pytest.fail("sweep subprocess exited before the kill point")
            time.sleep(0.05)
        pytest.fail(f"no {minimum} checkpointed cells within {timeout_s}s")

    def test_parent_sigkill_then_resume_equals_uninterrupted(self, tmp_path):
        process, path, runs_dir = self._launch(tmp_path, jobs=2)
        try:
            self._wait_for_cells(process, path, minimum=2)
        finally:
            process.kill()
            process.wait(timeout=30)

        survivors = _recorded_cells(path)
        assert len(survivors) >= 2

        # Resume in-process: the merged result set must equal an
        # uninterrupted run's, with the survivors restored, not re-run.
        cells = [(f"cell-{i}", counted_cell, (f"cell-{i}", runs_dir, 0.0))
                 for i in range(8)]
        outcome = run_cells_parallel(cells, jobs=2, checkpoint_path=path,
                                     identity="kill-test", resume=True,
                                     config=FAST)
        assert not outcome.quarantined
        assert sorted(outcome.results) == [f"cell-{i}" for i in range(8)]
        assert outcome.stats.cells_restored >= len(survivors)
        for key in survivors:
            assert runs_of(key, runs_dir) == 1  # restored, never recomputed
        for i in range(8):
            payload = outcome.results[f"cell-{i}"]
            assert payload == {"key": f"cell-{i}", "value": 1}

    def test_sigterm_flushes_checkpoint_before_exit(self, tmp_path):
        process, path, runs_dir = self._launch(tmp_path, jobs=1)
        try:
            self._wait_for_cells(process, path, minimum=1)
            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=30)
        finally:
            process.kill()
            process.wait(timeout=30)
        assert returncode == 128 + signal.SIGTERM  # conventional 143

        reloaded = SweepCheckpoint.load(path, "kill-test")
        assert len(reloaded) >= 1

        cells = [(f"cell-{i}", counted_cell, (f"cell-{i}", runs_dir, 0.0))
                 for i in range(8)]
        outcome = run_cells_parallel(cells, jobs=1, checkpoint_path=path,
                                     identity="kill-test", resume=True)
        assert sorted(outcome.results) == [f"cell-{i}" for i in range(8)]
        for key in reloaded.keys():
            assert runs_of(key, runs_dir) == 1


# ---------------------------------------------------------------------------
# Sweep / oracle / CLI integration
# ---------------------------------------------------------------------------

class TestIntegration:
    def test_run_sweep_resumable_parallel_matches_serial(self, tmp_path):
        from repro.harness.experiments import run_sweep_resumable

        serial = run_sweep_resumable("cache", workload_scale=0.2)
        stats_out = {}
        parallel = run_sweep_resumable(
            "cache", workload_scale=0.2,
            checkpoint_path=str(tmp_path / "sweep.ckpt"),
            jobs=2, supervisor_config=FAST, stats_out=stats_out,
        )
        assert stats_out["mode"] == "parallel"
        assert parallel.keys() == serial.keys()
        for point, matrix in serial.items():
            for app, by_variant in matrix.items():
                for variant, result in by_variant.items():
                    other = parallel[point][app][variant]
                    assert other.to_jsonable() == result.to_jsonable()

    def test_oracle_parallel_matches_serial(self):
        from repro.harness.config import ExperimentConfig
        from repro.harness.oracle import run_oracle

        base = ExperimentConfig(workload_scale=0.2)
        serial = run_oracle(("agrep",), profiles=(None,), base=base)
        parallel = run_oracle(("agrep",), profiles=(None,), base=base,
                              jobs=2)
        assert parallel.passed
        assert parallel.to_jsonable() == serial.to_jsonable()

    @pytest.mark.parametrize("extra, jobs", [
        ([], 1),
        (["--checkpoint", "sweep.ckpt"], 1),
        (["--jobs", "3"], 3),
    ], ids=["plain", "checkpoint", "jobs"])
    def test_cli_sweep_forwards_jobs(self, monkeypatch, capsys, extra, jobs):
        from repro import cli
        from repro.harness import experiments

        captured = {}

        def fake_resumable(kind, **kwargs):
            captured["kind"] = kind
            captured.update(kwargs)
            if kwargs["jobs"] > 1:
                kwargs["stats_out"]["mode"] = "parallel"
            from repro.harness.results import RunResult

            fake = RunResult(app="agrep", variant="original", cycles=1,
                             cpu_hz=1, counters={}, output=b"",
                             read_trace=())
            from repro.harness.config import APPS, Variant
            from repro.harness.experiments import SWEEP_POINTS

            return {point: {app: {v.value: fake for v in Variant}
                            for app in APPS}
                    for point in SWEEP_POINTS[kind]}

        monkeypatch.setattr(experiments, "run_sweep_resumable",
                            fake_resumable)
        exit_code = cli.main(["sweep", "cache", "--scale", "0.2", *extra])
        assert exit_code == 0
        # Every sweep, plain or not, runs on the cell engine.
        assert captured["kind"] == "cache"
        assert captured["jobs"] == jobs
        out = capsys.readouterr().out
        # The supervisor stats block prints only for a parallel run.
        assert ("parallel" in out) == (jobs > 1)

    def test_cli_run_oracle_forwards_jobs(self, monkeypatch):
        from repro import cli
        from repro.harness import oracle as oracle_mod
        from repro.harness.oracle import OracleReport

        captured = {}

        def fake_oracle(apps, **kwargs):
            captured["apps"] = tuple(apps)
            captured.update(kwargs)
            return OracleReport()

        monkeypatch.setattr(oracle_mod, "run_oracle", fake_oracle)
        exit_code = cli.main(["run", "agrep", "--oracle", "--jobs", "4",
                              "--scale", "0.2"])
        assert exit_code == 0
        assert captured["apps"] == ("agrep",)
        assert captured["jobs"] == 4
