"""The cell engine: run sealed simulation cells, serially or sharded.

Every harness grid — sweep points, the differential oracle, chaos
matrices, fuzz campaigns — is a set of sealed deterministic simulation
cells.  Independent seeding means any subset can run anywhere, in any
order, and merge into the same result set, so one driver,
:func:`run_cells_parallel`, runs them all.  That is the "cell as the
unit of parallelism" model of Simics' threading commands.

This module is the policy layer above :mod:`repro.harness.supervisor`:

* it turns sweep / oracle / chaos grids into picklable cell specs whose
  runners return ``RunResult.to_jsonable()`` payloads;
* it integrates the crash-safe :class:`SweepCheckpoint`: the parent
  records every completed cell, workers keep per-slot partial
  checkpoints (``<path>.worker-<slot>``), and both parent- and
  worker-SIGKILLs resume without recomputation because the parent merges
  partials back into the main checkpoint atomically on the next run;
* ``jobs <= 1`` runs the cells in-process, and a pool that fails to
  start degrades to that same path: same results, same checkpoint bytes.

The determinism guard (tests + ``benchmarks/bench_parallel_sweep.py``)
asserts the parallel result set is byte-identical to serial across all
chaos profiles.
"""

from __future__ import annotations

import contextlib
import glob
import os
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckpointError, QuarantinedCell
from repro.harness.checkpoint import SweepCheckpoint, flush_on_signals
from repro.harness.config import Variant
from repro.harness.supervisor import (
    CellSpec,
    Supervisor,
    SupervisorConfig,
    SupervisorOutcome,
    SupervisorStats,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiments import SweepPoint

#: Payload a cell runner returns: a JSON-safe dict (RunResult or oracle
#: cell serialization) that crosses the result pipe verbatim.
Payload = Dict[str, object]


# ---------------------------------------------------------------------------
# Cell runners (module-level: pickled by reference into workers)
# ---------------------------------------------------------------------------

def run_sweep_cell_payload(
    kind: str,
    point: object,
    app: str,
    variant_value: str,
    workload_scale: float,
) -> Payload:
    """One sweep cell, serialized for the result pipe."""
    from repro.harness.experiments import run_sweep_cell

    result = run_sweep_cell(kind, point, app, Variant(variant_value),  # type: ignore[arg-type]
                            workload_scale)
    return result.to_jsonable()


def run_oracle_cell_payload(
    app: str,
    profile: Optional[str],
    workload_scale: float,
    fault_seed: int,
    analysis_optimize: bool,
    trace_dir: Optional[str],
    system: Optional[object] = None,
) -> Payload:
    """One differential-oracle cell, both variants serialized.

    ``system`` is an optional :class:`~repro.params.SystemConfig` — a
    plain frozen dataclass, so it ships to the worker by value.
    """
    from repro.harness.oracle import run_oracle_cell

    cell = run_oracle_cell(
        app, profile, workload_scale=workload_scale, fault_seed=fault_seed,
        analysis_optimize=analysis_optimize, trace_dir=trace_dir,
        system=system,  # type: ignore[arg-type]
    )
    return cell.to_payload()


def sweep_parallel_cells(
    kind: str,
    workload_scale: float = 1.0,
    points: Optional[Sequence[SweepPoint]] = None,
) -> List[CellSpec]:
    """Picklable cell specs of one sweep; ``points`` defaults to the kind's."""
    from repro.harness.config import APPS
    from repro.harness.experiments import SWEEP_POINTS, point_label

    if kind not in SWEEP_POINTS:
        raise ValueError(
            f"unknown sweep kind {kind!r}; expected one of {sorted(SWEEP_POINTS)}"
        )
    cells: List[CellSpec] = []
    for point in SWEEP_POINTS[kind] if points is None else points:
        for app in APPS:
            for variant in tuple(Variant):
                key = f"{kind}={point_label(point)}/{app}/{variant.value}"
                cells.append((key, run_sweep_cell_payload,
                              (kind, point, app, variant.value,
                               workload_scale)))
    return cells


def chaos_parallel_cells(
    apps: Tuple[str, ...],
    profiles: Tuple[Optional[str], ...],
    workload_scale: float = 1.0,
) -> List[CellSpec]:
    """Cell specs of an app x variant x chaos-profile matrix.

    Each cell is a ``degraded`` sweep cell at its profile (``None`` runs
    fault-free), keyed by ``chaos=<profile>/<app>/<variant>``.
    """
    cells: List[CellSpec] = []
    for profile in profiles:
        for app in apps:
            for variant in tuple(Variant):
                key = f"chaos={profile or 'fault-free'}/{app}/{variant.value}"
                cells.append((key, run_sweep_cell_payload,
                              ("degraded", profile or "none", app,
                               variant.value, workload_scale)))
    return cells


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _partial_paths(checkpoint_path: str) -> List[str]:
    return sorted(glob.glob(glob.escape(checkpoint_path) + ".worker-*"))


def merge_worker_partials(
    checkpoint: SweepCheckpoint,
    on_event: Optional[Callable[[str], None]] = None,
) -> int:
    """Fold per-worker partial checkpoints into the main one.

    Cells recorded by workers that outlived (or died with) a killed
    parent are adopted, the merged state is flushed atomically, and the
    partial files are deleted.  Idempotent: re-running after a crash
    mid-merge re-adopts the same deterministic cells.  Returns the
    number of cells adopted.
    """
    adopted = 0
    partials = _partial_paths(checkpoint.path)
    for path in partials:
        try:
            partial = SweepCheckpoint.load(path, checkpoint.identity)
        except CheckpointError as exc:
            if on_event is not None:
                on_event(f"ignoring stale partial {path!r}: {exc}")
            continue
        adopted += checkpoint.merge_from(partial)
    if adopted:
        checkpoint.flush()
    for path in partials:
        with contextlib.suppress(OSError):
            os.unlink(path)
    return adopted


def run_cells_parallel(
    cells: List[CellSpec],
    jobs: int,
    checkpoint_path: Optional[str] = None,
    identity: str = "sweep",
    resume: bool = False,
    progress: Optional[Callable[[str, bool], None]] = None,
    config: Optional[SupervisorConfig] = None,
    on_event: Optional[Callable[[str], None]] = None,
    registry_path: Optional[str] = None,
    registry_meta: Optional[Dict[str, object]] = None,
) -> SupervisorOutcome:
    """Run cell specs, checkpointing results; the one cell engine.

    With ``checkpoint_path`` set, each finished cell is checkpointed
    atomically; with ``resume`` also set, previously checkpointed cells
    are restored (and reported to ``progress`` as ``(key, True)``) before
    any cell runs.  SIGINT / SIGTERM flush the checkpoint before exiting.
    With ``jobs <= 1`` (or when the worker pool cannot start) the cells
    run serially in-process; otherwise they run under supervision:
    crashed and hung cells are rescheduled, and poisoned cells are
    quarantined instead of sinking the sweep.  Results are identical
    either way.

    With ``registry_path`` set, every completed cell also lands in the
    persistent run registry: workers append records to per-slot sidecar
    ledgers (``<path>.reg-worker-<slot>``) before reporting, the parent
    merges the sidecars and re-records every delivered payload
    (idempotent, content-addressed), and the registry is compacted to
    its canonical byte form — so a serial run and a ``--jobs N`` run of
    the same cells produce byte-identical registries.  ``registry_meta``
    carries the record context (kind, parent run id).
    """
    if on_event is None:
        def on_event(message: str) -> None:
            print(f"  [supervisor] {message}", file=sys.stderr)

    config = config or SupervisorConfig()
    if config.jobs != jobs:
        import dataclasses

        config = dataclasses.replace(config, jobs=jobs)

    checkpoint: Optional[SweepCheckpoint] = None
    if checkpoint_path is not None:
        if resume and os.path.exists(checkpoint_path):
            checkpoint = SweepCheckpoint.load(checkpoint_path, identity)
        else:
            checkpoint = SweepCheckpoint(checkpoint_path, identity)
            checkpoint.flush()
            # A fresh (non-resume) start owns the namespace: stale
            # partials from an abandoned run must not leak in later.
            for path in _partial_paths(checkpoint_path):
                with contextlib.suppress(OSError):
                    os.unlink(path)
        merge_worker_partials(checkpoint, on_event=on_event)

    if registry_path is not None and not resume:
        # Same namespace rule for registry sidecars.  The registry file
        # itself is an append-forever ledger and is never cleared.
        for path in _registry_sidecar_paths(registry_path):
            with contextlib.suppress(OSError):
                os.unlink(path)

    # Restore already-completed cells before any worker spawns.
    restored: Dict[str, Payload] = {}
    remaining: List[CellSpec] = []
    for spec in cells:
        key = spec[0]
        if checkpoint is not None and key in checkpoint:
            restored[key] = checkpoint.payload(key)
            if progress is not None:
                progress(key, True)
        else:
            remaining.append(spec)

    guard = (
        flush_on_signals(checkpoint.flush)
        if checkpoint is not None
        else contextlib.nullcontext()
    )
    with guard:
        if jobs <= 1:
            outcome = _run_cells_serial(remaining, checkpoint, progress,
                                        config)
        else:
            outcome = _run_cells_supervised(remaining, checkpoint, progress,
                                            config, identity, on_event,
                                            registry_path, registry_meta)

    outcome.results.update(restored)
    outcome.stats.cells_restored = len(restored)
    if checkpoint is not None:
        merge_worker_partials(checkpoint, on_event=on_event)
    if registry_path is not None:
        record_results_in_registry(registry_path, outcome.results,
                                   registry_meta, on_event=on_event)
    return outcome


def _registry_sidecar_paths(registry_path: str) -> List[str]:
    return sorted(glob.glob(glob.escape(registry_path) + ".reg-worker-*"))


def record_results_in_registry(
    registry_path: str,
    results: Dict[str, Payload],
    registry_meta: Optional[Dict[str, object]],
    on_event: Optional[Callable[[str], None]] = None,
) -> None:
    """Fold a cell-result set into the persistent run registry.

    Worker sidecar ledgers are merged first (they may hold cells whose
    parent died before delivery), then every delivered payload is
    recorded directly — idempotent because records are content-addressed
    — and the store is compacted to canonical bytes.
    """
    from repro.registry.recorder import record_payload
    from repro.registry.store import RunRegistry, merge_worker_sidecars

    try:
        registry = RunRegistry.open(registry_path)
        try:
            merge_worker_sidecars(registry, registry_path)
            for key in sorted(results):
                record_payload(registry, key, results[key], registry_meta,
                               durable=False)
            registry.compact()
        finally:
            registry.close()
    except Exception as exc:
        if on_event is not None:
            on_event(f"run registry update failed ({exc!r}); "
                     f"results and checkpoint are unaffected")


def _run_cells_supervised(
    cells: List[CellSpec],
    checkpoint: Optional[SweepCheckpoint],
    progress: Optional[Callable[[str, bool], None]],
    config: SupervisorConfig,
    identity: str,
    on_event: Callable[[str], None],
    registry_path: Optional[str] = None,
    registry_meta: Optional[Dict[str, object]] = None,
) -> SupervisorOutcome:
    def on_result(key: str, payload: Payload) -> None:
        if checkpoint is not None:
            checkpoint.record_payload(key, payload)
        if progress is not None:
            progress(key, False)

    def on_quarantine(key: str, record: Dict[str, object]) -> None:
        if checkpoint is not None:
            checkpoint.record_quarantine(key, record)

    partial_path_for: Optional[Callable[[int], str]] = None
    if checkpoint is not None:
        base = checkpoint.path

        def _partial_for(slot: int) -> str:
            return f"{base}.worker-{slot}"

        partial_path_for = _partial_for

    registry_sidecar_for: Optional[Callable[[int], str]] = None
    if registry_path is not None:
        from repro.registry.store import sidecar_path

        def _sidecar_for(slot: int) -> str:
            return sidecar_path(registry_path, slot)

        registry_sidecar_for = _sidecar_for

    supervisor = Supervisor(
        cells, config, identity=identity,
        partial_path_for=partial_path_for,
        on_result=on_result, on_quarantine=on_quarantine, on_event=on_event,
        registry_sidecar_for=registry_sidecar_for,
        registry_ctx=dict(registry_meta) if registry_meta else None,
    )
    try:
        supervisor.start()
    except Exception as exc:  # pool startup failure: degrade, don't die
        on_event(f"worker pool failed to start ({exc!r}); "
                 f"degrading to serial execution")
        return _run_cells_serial(cells, checkpoint, progress, config)
    return supervisor.run()


def _run_cells_serial(
    cells: List[CellSpec],
    checkpoint: Optional[SweepCheckpoint],
    progress: Optional[Callable[[str, bool], None]],
    config: SupervisorConfig,
) -> SupervisorOutcome:
    """In-process path for ``jobs <= 1`` and a pool that cannot start."""
    outcome = SupervisorOutcome(
        stats=SupervisorStats(mode="serial", jobs=1)
    )
    for key, fn, args in cells:
        payload = fn(*args)
        outcome.results[key] = payload
        outcome.stats.cells_completed += 1
        if checkpoint is not None:
            checkpoint.record_payload(key, payload)
        if progress is not None:
            progress(key, False)
    return outcome


def require_complete(outcome: SupervisorOutcome, what: str = "sweep") -> None:
    """Raise typed :class:`QuarantinedCell` when any cell was poisoned.

    Called by consumers that need the *complete* result set (matrix
    assembly, report formatting).  The message carries each quarantined
    cell's final traceback tail so the failure is diagnosable from the
    one-line CLI error; the full records live in the checkpoint.
    """
    if not outcome.quarantined:
        return
    lines = []
    for key, record in sorted(outcome.quarantined.items()):
        tb = str(record.get("traceback", "")).strip().splitlines()
        last = tb[-1] if tb else "unknown failure"
        failures = record.get("failures", [])
        lines.append(f"{key!r} ({len(failures)} failures; last: {last})")
    raise QuarantinedCell(
        f"{what} completed with {len(outcome.quarantined)} quarantined "
        f"cell(s): " + "; ".join(lines)
    )
