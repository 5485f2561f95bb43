"""The benchmark's three workloads and the outcome check for every cell.

Each workload is set up once from the benchmark seed and then run pass
after pass, serially in this process (closed loop, one caller).  A pass
returns one :class:`Cell` per cell it issued, classified as

* ``ok`` - it completed and its output equals the app's fault-free
  original-variant output;
* ``expected`` - a profile that expects data loss raised the typed
  ``DataLossError``;
* ``failed`` - anything else: wrong output, an untyped escape, a missing
  expected error, an invariant violation, or a stop at the host-time cap
  (reason ``runaway``).

A pass can run traced: the span recorder is installed before the first
system is built, every cell's spans are filed under its key, and the
simulator's own counters are read from every system the pass builds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import random
import shutil
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import DataLossError, ReproError
from repro.faults.plan import PROFILES
from repro.harness import fuzz, runner
from repro.harness.config import ExperimentConfig, Variant
from repro.params import SystemConfig
from repro.registry import regression, similarity
from repro.registry.store import RunRegistry

from perfbench.calibrate import Calibrator
from perfbench.spans import SpanRecorder

APPS = ("agrep", "gnuld", "xds", "postgres20")
VARIANTS = (Variant.ORIGINAL, Variant.SPECULATING, Variant.MANUAL)
DEGRADED_PROFILES = ("disk-death", "rebuild-storm", "double-fault")
DEGRADED_SCALE = 0.3

# Per-cell host-time caps are in calibrated seconds: each is scaled by the
# pass's slowdown so far, so a capped cell costs the same after the pass is
# normalised (see perfbench/calibrate.py).
#: A guard only, far above any fault-free cell.
FIG3_CELL_CAP_S = 60.0
#: The slowest degraded cell that completes (xds or gnuld manual under
#: double-fault) takes about 1.2 s.
DEGRADED_CELL_CAP_S = 5.0
#: Host-time cap per fuzz pass.  A full pass takes about 21 s, 17 s of
#: it in one storm cell.
FUZZ_PASS_CAP_S = 60.0
FUZZ_SCALE = 0.25
FUZZ_APPS = ("agrep",)


class Runaway(BaseException):
    """Raised by the host-time cap.  A BaseException, so that no
    ``except Exception`` inside the simulator can swallow it."""


@contextlib.contextmanager
def host_time_cap(seconds: float) -> Iterator[None]:
    """Raise :class:`Runaway` in this thread after ``seconds`` of wall time."""
    def _fire(signum, frame):
        raise Runaway()

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Cell:
    """One issued cell: its host time, outcome and simulated digest."""

    key: str
    seconds: float
    status: str
    reason: str = ""
    #: Digest of everything simulated about the cell (identical across
    #: passes and between traced and untraced passes).
    digest: str = ""


@dataclass
class PassResult:
    cells: List[Cell]
    wall_s: float
    #: The pass's median calibration burst over the reference burst.
    slowdown: float
    #: Mean over the workload's original/speculating pairs of
    #: 1 - sim_s(speculating) / sim_s(original), in percent.
    spec_cut_pct: float
    #: Digest over the whole pass (the campaign digest for fuzz).
    digest: str
    #: Summed simulator counters (see :func:`system_counts`).
    counts: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Failed checks beyond the per-cell outcomes.
    problems: List[str] = field(default_factory=list)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of a RunResult's simulated outcome."""
    return _sha(repr((
        result.cycles, sorted(result.counters.items()), result.output,
        result.read_trace,
    )).encode())


def system_counts(system) -> Dict[str, float]:
    """The simulator's own counters of one system, by benchmark name."""
    snap = system.stats.snapshot()
    audit = 0
    for process in system.kernel.processes:
        spec = process.spec
        if spec is not None and spec.auditor is not None:
            audit += spec.auditor.table.records_total
    counts = {
        "instructions": system.kernel.machine.instructions,
        "events": system.engine.dispatched,
        "sim_s": system.clock.now / system.config.cpu.hz,
        "demand_stall_sim_s":
            snap.get("kernel.demand_stall_cycles", 0) / system.config.cpu.hz,
        "audit_records": audit,
    }
    for name in (
        "app.read_calls", "kernel.context_switches", "spec.restarts",
        "spec.hints_issued", "spec.cow_regions_copied", "tip.hinted_blocks",
        "tip.hints_consumed", "tip.prefetches_issued", "tip.prefetches_dropped",
        "cache.block_reads", "cache.demand_misses", "cache.prefetched_blocks",
        "cache.prefetched_unused", "array.completed", "array.retries",
        "array.timeouts", "array.degraded_reads", "array.reconstructed_blocks",
        "array.prefetches_dropped", "array.hedges_issued", "array.hedges_won",
        "array.faulted_attempts", "faults.data_loss",
    ):
        counts[name] = snap.get(name, 0)
    return counts


class _Observer:
    """Collects every system the runner builds while it is attached."""

    def __init__(self) -> None:
        self.systems: List[object] = []

    def _see(self, system: object) -> None:
        self.systems.append(system)

    def __enter__(self) -> "_Observer":
        runner.add_system_observer(self._see)
        return self

    def __exit__(self, *exc) -> None:
        runner.remove_system_observer(self._see)

    def drain_into(self, totals: Dict[str, float]) -> List[object]:
        systems, self.systems = self.systems, []
        for system in systems:
            for name, value in system_counts(system).items():
                totals[name] = totals.get(name, 0) + value
        return systems


def _add(totals: Dict[str, float], name: str, value: float) -> None:
    totals[name] = totals.get(name, 0) + value


def _collect() -> float:
    """Collect garbage between cells; returns the seconds it took.

    The caller charges them to the cell that left the garbage, instead of
    leaving its reference cycles (a whole simulated system) to be scanned,
    and counted in peak memory, during the next cell.
    """
    start = time.perf_counter()
    gc.collect()
    return time.perf_counter() - start


# ---------------------------------------------------------------- grids


@dataclass
class GridCell:
    key: str
    cfg: ExperimentConfig
    expects_loss: bool


class GridWorkload:
    """App x variant grids run through ``run_experiment_with_system``."""

    def __init__(self, cells: List[GridCell], cap_s: float,
                 references: Dict[str, bytes]) -> None:
        self.cells = cells
        self.cap_s = cap_s
        #: app -> fault-free original-variant output; an app missing here
        #: takes its reference from the pass's own original cell.
        self.references = references

    def run_pass(self, calibrator: Calibrator,
                 recorder: Optional[SpanRecorder] = None) -> PassResult:
        cells: List[Cell] = []
        sim_s: Dict[Tuple[str, str], float] = {}
        references = dict(self.references)
        counts: Dict[str, float] = {}
        start = time.perf_counter()
        with _Observer() as observer, calibrator.sampling():
            for spec in self.cells:
                if recorder is not None:
                    recorder.open_cell()
                cell, result = self._run_cell(spec, references,
                                              self.cap_s * calibrator.current())
                if recorder is not None:
                    recorder.close_cell(spec.key)
                cells.append(cell)
                observer.drain_into(counts)
                cell.seconds += _collect()
                _add(counts, "harness.cells", 1)
                if result is None:
                    continue
                _add(counts, "harness.violations", result.isolation_violations)
                if cell.status == "ok":
                    pair = (spec.cfg.fault_profile or "", spec.cfg.app)
                    sim_s[pair + (spec.cfg.variant.value,)] = (
                        result.cycles / result.cpu_hz)
        wall = time.perf_counter() - start
        cuts = [
            1.0 - sim_s[(profile, app, "speculating")] / original
            for (profile, app, variant), original in sim_s.items()
            if variant == "original" and (profile, app, "speculating") in sim_s
        ]
        return PassResult(
            cells=cells, wall_s=wall, slowdown=calibrator.take(),
            spec_cut_pct=100.0 * sum(cuts) / len(cuts) if cuts else 0.0,
            digest=_sha("\n".join(f"{c.key}:{c.digest}" for c in cells).encode()),
            counts=counts,
        )

    def _run_cell(self, spec: GridCell, references: Dict[str, bytes], cap_s: float):
        start = time.perf_counter()
        try:
            with host_time_cap(cap_s):
                result, _system = runner.run_experiment_with_system(spec.cfg)
        except Runaway:
            seconds = time.perf_counter() - start
            return Cell(spec.key, seconds, "failed", "runaway", "runaway"), None
        except Exception as error:  # classified here, never re-raised
            seconds = time.perf_counter() - start
            digest = f"{type(error).__name__}:{_sha(str(error).encode())}"
            if isinstance(error, DataLossError) and spec.expects_loss:
                return Cell(spec.key, seconds, "expected", "", digest), None
            kind = "typed" if isinstance(error, ReproError) else "untyped"
            return Cell(spec.key, seconds, "failed",
                        f"{kind}-escape:{type(error).__name__}", digest), None
        seconds = time.perf_counter() - start
        digest = result_digest(result)
        app = spec.cfg.app
        if spec.cfg.variant is Variant.ORIGINAL and app not in references:
            references[app] = result.output
        if spec.expects_loss:
            reason = "missing-expected-error"
        elif result.output != references.get(app):
            reason = "wrong-output"
        elif result.isolation_violations:
            reason = "isolation-violation"
        else:
            return Cell(spec.key, seconds, "ok", "", digest), result
        return Cell(spec.key, seconds, "failed", reason, digest), result


def fig3(seed: int) -> GridWorkload:
    """The paper's Figure 3 grid: 4 apps x 3 variants, scale 1, no faults."""
    system = SystemConfig(seed=seed)
    cells = [
        GridCell(f"{app}/{variant.value}",
                 ExperimentConfig(app=app, variant=variant, system=system), False)
        for app in APPS for variant in VARIANTS
    ]
    return GridWorkload(cells, FIG3_CELL_CAP_S, references={})


def degraded(seed: int) -> GridWorkload:
    """The same grid under three degraded-storage profiles at scale 0.3."""
    cells = [
        GridCell(
            f"{profile}/{app}/{variant.value}",
            ExperimentConfig(app=app, variant=variant, workload_scale=DEGRADED_SCALE,
                             fault_profile=profile, fault_seed=seed),
            PROFILES[profile].expects_data_loss,
        )
        for profile in DEGRADED_PROFILES for app in APPS for variant in VARIANTS
    ]
    references = {
        app: runner.run_experiment_with_system(ExperimentConfig(
            app=app, workload_scale=DEGRADED_SCALE))[0].output
        for app in APPS
    }
    return GridWorkload(cells, DEGRADED_CELL_CAP_S, references)


# ----------------------------------------------------------------- fuzz


def committed_fuzz_campaign(repo_root: str) -> Tuple[int, int, str]:
    """(generator seed, budget, digest) of the committed BENCH_fuzz full run."""
    path = os.path.join(repo_root, "benchmarks", "BENCH_fuzz.json")
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return int(data["seed"]), int(data["budget_full"]), str(data["digest_full"])


@contextlib.contextmanager
def shuffled_campaign(order_seed: int) -> Iterator[None]:
    """Make ``run_fuzz`` run its generated cases in a seeded order.

    Cells are independent and the campaign digest sorts them, so the
    order changes which cell runs first and the order of checkpoint and
    registry writes, not any cell's result.
    """
    base = fuzz.FaultPlanGenerator

    class SeededOrder(base):  # type: ignore[misc, valid-type]
        def cases(self, budget):
            cases = super().cases(budget)
            random.Random(order_seed).shuffle(cases)
            return cases

    fuzz.FaultPlanGenerator = SeededOrder
    try:
        yield
    finally:
        fuzz.FaultPlanGenerator = base


class FuzzWorkload:
    """The committed fuzz campaign with a checkpoint and a registry ledger,
    then the registry read path over that ledger."""

    def __init__(self, seed: int, repo_root: str, workdir: str) -> None:
        self.order_seed = seed
        self.campaign_seed, self.budget, self.expected_digest = (
            committed_fuzz_campaign(repo_root))
        self.workdir = workdir
        self.reference = runner.run_experiment_with_system(ExperimentConfig(
            app=FUZZ_APPS[0], workload_scale=FUZZ_SCALE))[0].output
        self._passes = 0

    def _fresh_dir(self) -> str:
        self._passes += 1
        path = os.path.join(self.workdir, f"pass-{self._passes}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def run_pass(self, calibrator: Calibrator,
                 recorder: Optional[SpanRecorder] = None) -> PassResult:
        tmp = self._fresh_dir()
        ledger = os.path.join(tmp, "ledger.jsonl")
        checkpoint = os.path.join(tmp, "campaign.ckpt.json")
        times: Dict[str, float] = {}
        outputs: Dict[str, List[Optional[bytes]]] = {}
        counts: Dict[str, float] = {}
        observer = _Observer()
        mark = start = time.perf_counter()
        if recorder is not None:
            recorder.open_cell()

        def progress(key: str, resumed: bool) -> None:
            # Called after each cell's checkpoint write: the time since the
            # previous call is the cell's (the first one also carries the
            # campaign's case generation and ledger creation).
            nonlocal mark
            seconds = time.perf_counter() - mark
            if recorder is not None:
                recorder.close_cell(key)
            outputs[key] = [bytes(s.kernel.processes[0].output)
                            if s.kernel.processes else None
                            for s in observer.drain_into(counts)]
            times[key] = seconds + _collect()
            if recorder is not None:
                recorder.open_cell()
            mark = time.perf_counter()

        report = None
        try:
            with observer, calibrator.sampling(), \
                    shuffled_campaign(self.order_seed), host_time_cap(FUZZ_PASS_CAP_S):
                report = fuzz.run_fuzz(
                    self.budget, seed=self.campaign_seed, apps=FUZZ_APPS,
                    workload_scale=FUZZ_SCALE, checkpoint_path=checkpoint,
                    registry_path=ledger, progress=progress,
                    on_event=lambda message: None,
                )
        except Runaway:
            times["runaway"] = time.perf_counter() - mark
        if report is not None:
            records = self._read_registry(ledger)
            _add(counts, "registry.records", records)
            _add(counts, "registry.ledger_bytes", os.path.getsize(ledger))
        wall = time.perf_counter() - start
        slowdown = calibrator.take()
        if recorder is not None:
            recorder.close_cell("registry" if report is not None else "runaway")
        results = self._results(report, checkpoint)
        cells: List[Cell] = []
        cuts = []
        for key, seconds in times.items():
            result = results.get(key)
            if result is None:
                cells.append(Cell(key, seconds, "failed", "runaway", "runaway"))
                continue
            status, reason = self._classify(result, outputs[key])
            cells.append(Cell(key, seconds, status, reason, result.digest))
            if {"original", "speculating"} <= set(result.cycles):
                cuts.append(1.0 - result.cycles["speculating"]
                            / result.cycles["original"])
            _add(counts, "harness.cells", 1)
            _add(counts, "harness.violations", len(result.violations))
        cells.extend(Cell(f"not-run/{i}", 0.0, "failed", "not-run", "not-run")
                     for i in range(self.budget - len(results) - ("runaway" in times)))
        digest = report.digest if report is not None else "runaway"
        problems = []
        if report is not None and digest != self.expected_digest:
            problems.append(f"campaign digest {digest} differs from the committed "
                            f"BENCH_fuzz digest {self.expected_digest}")
        return PassResult(
            cells=cells, wall_s=wall, slowdown=slowdown,
            spec_cut_pct=100.0 * sum(cuts) / len(cuts) if cuts else 0.0,
            digest=digest, counts=counts,
            notes=[f"campaign digest {digest} (committed {self.expected_digest})"],
            problems=problems,
        )

    @staticmethod
    def _results(report, checkpoint: str) -> Dict[str, "fuzz.FuzzCellResult"]:
        """Cell verdicts: the report's, or the checkpoint's after a stop."""
        if report is not None:
            return {cell.key: cell for cell in report.cells}
        from repro.harness.checkpoint import SweepCheckpoint

        saved = SweepCheckpoint.load(checkpoint, "fuzz")
        return {key: fuzz.FuzzCellResult.from_jsonable(saved.payload(key))
                for key in saved.keys()}

    def _classify(self, result, outputs: List[Optional[bytes]]) -> Tuple[str, str]:
        if result.violations:
            monitors = ",".join(sorted({v.monitor for v in result.violations}))
            return "failed", f"violation:{monitors}"
        status = "ok"
        # Variants run original first, then speculating: the same order as
        # the sorted escape table and the systems the observer saw.
        for (variant, escape), output in zip(sorted(result.escapes.items()), outputs):
            if escape is None:
                if output != self.reference:
                    return "failed", f"wrong-output:{variant}"
            elif escape == "DataLossError" and result.case.plan.expects_data_loss:
                status = "expected"
            else:
                return "failed", f"escape:{variant}:{escape}"
        return status, ""

    @staticmethod
    def _read_registry(ledger: str) -> int:
        """The registry read path: regression check, neighbours, lineage.
        Returns the ledger's record count."""
        registry = RunRegistry.open(ledger)
        try:
            records = registry.records()
            regression.check_all(registry)
            cases = [r for r in records if r.kind == "fuzz-case"]
            for record in cases[:3]:
                similarity.similar_runs(registry, record)
            for root in records:
                if root.kind == "fuzz-campaign":
                    registry.lineage(root.run_id)
            return len(records)
        finally:
            registry.close()


