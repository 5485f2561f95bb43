"""Experiment drivers keyed to the paper's tables and figures."""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.errors import CheckpointError
from repro.harness.config import APPS, ExperimentConfig, Variant
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment
from repro.params import SystemConfig

#: Result matrix: {app: {variant_value: RunResult}}.
Matrix = Dict[str, Dict[str, RunResult]]


def run_one(
    app: str,
    variant: Variant,
    system: Optional[SystemConfig] = None,
    **kwargs: object,
) -> RunResult:
    """Run one (app, variant) pair on the default (or given) system."""
    cfg = ExperimentConfig(
        app=app, variant=variant, system=system or SystemConfig(), **kwargs
    )
    return run_experiment(cfg)


def run_matrix(
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
    system: Optional[SystemConfig] = None,
    workload_scale: float = 1.0,
) -> Matrix:
    """Run every (app, variant) combination — the Figure 3 grid."""
    base = system or SystemConfig()
    results: Matrix = {}
    for app in apps:
        results[app] = {}
        for variant in variants:
            results[app][variant.value] = run_one(
                app, variant, system=base, workload_scale=workload_scale
            )
    return results


#: One sweep-axis value: numeric (disks/cache/ratio) or a fault-profile
#: name (degraded).
SweepPoint = Union[float, str]

#: The points each sweep kind runs (``repro sweep KIND`` and the sweep
#: benchmarks); ``run_sweep_resumable(points=...)`` overrides them.
SWEEP_POINTS: Dict[str, Tuple[SweepPoint, ...]] = {
    "disks": (1, 2, 4, 10),
    "cache": (6.0, 12.0, 32.0),
    "ratio": (1, 3, 5, 9),
    "degraded": ("none", "disk-death", "rebuild-storm"),
}


def point_label(point: SweepPoint) -> str:
    """Stable cell-key rendering of a sweep point (numbers via ``%g``)."""
    if isinstance(point, str):
        return point
    return f"{point:g}"


def run_sweep_cell(
    kind: str,
    point: SweepPoint,
    app: str,
    variant: Variant,
    workload_scale: float,
) -> RunResult:
    """Run one sweep cell: ``app`` x ``variant`` at one sweep ``point``.

    This is the one definition of what a sweep point means:

    * ``disks`` — array width, Table 8 and Figure 5;
    * ``cache`` — file cache size in paper megabytes, Table 7;
    * ``ratio`` — Figure 6's processor/disk speed ratio (see below);
    * ``degraded`` — a fault profile (``"none"`` is the healthy
      baseline); permanent-death profiles run with auto-enabled parity
      redundancy (see ``resolved_system``), so the cell completes through
      degraded reads and background rebuild rather than failing.

    Module-level (and argument-addressable) so the parallel engine can
    ship the cell to a worker process by reference.
    """
    if kind == "disks":
        system = SystemConfig()
        system = system.replace(
            array=dataclasses.replace(system.array, ndisks=int(point))
        )
        return run_one(app, variant, system=system,
                       workload_scale=workload_scale)
    if kind == "cache":
        return run_experiment(ExperimentConfig(
            app=app, variant=variant, cache_paper_mb=float(point),
            workload_scale=workload_scale,
        ))
    if kind == "degraded":
        profile = str(point)
        return run_experiment(ExperimentConfig(
            app=app, variant=variant,
            fault_profile=None if profile == "none" else profile,
            workload_scale=workload_scale,
        ))
    # kind == "ratio": following the paper, delay completion notification
    # by the ratio and allow one outstanding prefetch per disk, then scale
    # the cycle count back down by the ratio ("then scaled our resulting
    # measurements by half") before the cell is checkpointed.
    system = SystemConfig()
    system = system.replace(
        array=dataclasses.replace(
            system.array,
            completion_delay_factor=float(point),
            max_prefetches_per_disk=1,
        )
    )
    result = run_one(app, variant, system=system,
                     workload_scale=workload_scale)
    result.cycles = int(result.cycles / float(point))
    return result


def run_sweep_resumable(
    kind: str,
    workload_scale: float = 1.0,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[str, bool], None]] = None,
    jobs: int = 1,
    supervisor_config: Optional[object] = None,
    stats_out: Optional[Dict[str, object]] = None,
    registry_path: Optional[str] = None,
    points: Optional[Sequence[SweepPoint]] = None,
) -> Dict[SweepPoint, Matrix]:
    """Run one sweep: ``{point: {app: {variant: RunResult}}}``.

    ``points`` defaults to ``SWEEP_POINTS[kind]``.  The sweep's cells run
    through :func:`~repro.harness.parallel.run_cells_parallel`; with
    ``checkpoint_path`` set each finished cell is checkpointed atomically,
    and with ``resume`` also set completed cells are restored from the
    checkpoint.

    With ``jobs > 1`` the cells are sharded across the supervised worker
    pool: crashed and hung cells are rescheduled, poisoned cells are
    quarantined, and per-worker partial checkpoints make even a SIGKILL
    of this process resumable.  A quarantined cell raises
    :class:`~repro.errors.QuarantinedCell` *after* every other cell has
    completed and been checkpointed — the sweep's work is preserved, only
    the assembly of the full matrix fails.  ``stats_out`` (if given) is
    filled with the supervisor's counters of a ``jobs > 1`` run.

    With ``registry_path`` set, a ``sweep`` group record is written to
    the persistent run registry and every cell is recorded as a
    ``sweep-cell`` child of it (lineage for ``repro runs lineage``).
    """
    from repro.harness.parallel import (
        require_complete,
        run_cells_parallel,
        sweep_parallel_cells,
    )

    cells = sweep_parallel_cells(kind, workload_scale, points)
    identity = f"sweep:{kind}:scale={workload_scale:g}"
    registry_meta: Optional[Dict[str, object]] = None
    if registry_path is not None:
        from repro.registry.recorder import record_group

        ran = SWEEP_POINTS[kind] if points is None else points
        registry_meta = record_group(registry_path, "sweep", {
            "identity": identity,
            "sweep_kind": kind,
            "workload_scale": workload_scale,
            "points": [point_label(p) for p in ran],
        })
        registry_meta["kind"] = "sweep-cell"
    outcome = run_cells_parallel(
        cells,
        jobs=jobs,
        checkpoint_path=checkpoint_path,
        identity=identity,
        resume=resume,
        progress=progress,
        config=supervisor_config,  # type: ignore[arg-type]
        registry_path=registry_path,
        registry_meta=registry_meta,
    )
    if stats_out is not None and jobs > 1:
        stats_out.update(outcome.stats.to_jsonable())
    require_complete(outcome, what=f"{kind} sweep")
    results: Dict[SweepPoint, Matrix] = {}
    for key, _runner, (_kind, point, app, variant, _scale) in cells:
        payload = outcome.results[key]
        try:
            result = RunResult.from_jsonable(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint cell {key!r} is malformed: {exc}"
            ) from exc
        results.setdefault(point, {}).setdefault(app, {})[variant] = result
    return results


def improvements(matrix: Matrix) -> Dict[str, Dict[str, float]]:
    """Percent improvement of each hinting variant over the original."""
    table: Dict[str, Dict[str, float]] = {}
    for app, by_variant in matrix.items():
        original = by_variant[Variant.ORIGINAL.value]
        table[app] = {
            variant: result.improvement_over(original)
            for variant, result in by_variant.items()
            if variant != Variant.ORIGINAL.value
        }
    return table
