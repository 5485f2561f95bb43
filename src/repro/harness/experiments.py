"""Experiment drivers keyed to the paper's tables and figures."""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

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


def run_disk_sweep(
    ndisks_list: Iterable[int] = (1, 2, 4, 10),
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
    workload_scale: float = 1.0,
) -> Dict[int, Matrix]:
    """Vary available I/O parallelism — Table 8 and Figure 5."""
    results: Dict[int, Matrix] = {}
    for ndisks in ndisks_list:
        system = SystemConfig()
        system = system.replace(
            array=dataclasses.replace(system.array, ndisks=ndisks)
        )
        results[ndisks] = run_matrix(
            apps, variants, system=system, workload_scale=workload_scale
        )
    return results


def run_cache_size_sweep(
    cache_mbs: Iterable[float] = (6.0, 12.0, 64.0),
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
    workload_scale: float = 1.0,
) -> Dict[float, Matrix]:
    """Vary the file cache size — Table 7."""
    results: Dict[float, Matrix] = {}
    for mb in cache_mbs:
        matrix: Matrix = {}
        for app in apps:
            matrix[app] = {}
            for variant in variants:
                matrix[app][variant.value] = run_experiment(
                    ExperimentConfig(
                        app=app,
                        variant=variant,
                        cache_paper_mb=mb,
                        workload_scale=workload_scale,
                    )
                )
        results[mb] = matrix
    return results


def run_cpu_ratio_sweep(
    ratios: Iterable[float] = (1, 2, 3, 5, 7, 9),
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
    workload_scale: float = 1.0,
) -> Dict[float, Matrix]:
    """Simulate a widening processor/disk speed gap — Figure 6.

    Following the paper: delay completion notification by the ratio and
    limit outstanding prefetches to one per disk; the reported elapsed
    times are then scaled back down by the ratio.
    """
    results: Dict[float, Matrix] = {}
    for ratio in ratios:
        system = SystemConfig()
        system = system.replace(
            array=dataclasses.replace(
                system.array,
                completion_delay_factor=float(ratio),
                max_prefetches_per_disk=1,
            )
        )
        matrix = run_matrix(apps, variants, system=system,
                            workload_scale=workload_scale)
        for app_results in matrix.values():
            for result in app_results.values():
                # "then scaled our resulting measurements by half" (by the
                # ratio in general): the faster processor finishes the same
                # cycle count proportionally sooner.
                result.cycles = int(result.cycles / ratio)
        results[ratio] = matrix
    return results


def run_degraded_sweep(
    profiles: Iterable[str] = ("none", "disk-death", "rebuild-storm"),
    apps: Iterable[str] = APPS,
    variants: Iterable[Variant] = tuple(Variant),
    workload_scale: float = 1.0,
) -> Dict[str, Matrix]:
    """Vary the storage fault regime — healthy vs. degraded-mode runs.

    ``"none"`` is the healthy baseline; permanent-death profiles run with
    auto-enabled parity redundancy (see ``resolved_system``), so each cell
    completes through degraded reads and background rebuild rather than
    failing.  The resulting matrix quantifies the degraded-mode slowdown
    and how much speculation still helps while the array rebuilds.
    """
    results: Dict[str, Matrix] = {}
    for profile in profiles:
        matrix: Matrix = {}
        for app in apps:
            matrix[app] = {}
            for variant in variants:
                matrix[app][variant.value] = run_experiment(
                    ExperimentConfig(
                        app=app,
                        variant=variant,
                        fault_profile=None if profile == "none" else profile,
                        workload_scale=workload_scale,
                    )
                )
        results[profile] = matrix
    return results


#: One sweep-axis value: numeric (disks/cache/ratio) or a fault-profile
#: name (degraded).
SweepPoint = Union[float, str]

#: Sweep-point values matching the CLI's ``sweep`` command.
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
    """Run one sweep cell; mirrors the batch sweep drivers exactly.

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
    # kind == "ratio": Figure 6's widened processor/disk gap, with the
    # post-run cycle scaling applied before the cell is checkpointed.
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


def sweep_registry_meta(
    registry_path: str,
    kind: str,
    workload_scale: float,
    identity: str,
) -> Dict[str, object]:
    """Write the sweep's group record; returns the cells' record context.

    The group record is pure function of the sweep's identity (no
    results, no clock), so serial and parallel runs — and re-runs — all
    produce the same parent run id and deduplicate onto one ledger line.
    """
    from repro.registry.fingerprint import code_version
    from repro.registry.record import RunRecord
    from repro.registry.store import RunRegistry

    version = code_version()
    parent = RunRecord(
        kind="sweep",
        code_version=version,
        meta={
            "identity": identity,
            "sweep_kind": kind,
            "workload_scale": workload_scale,
            "points": [point_label(p) for p in SWEEP_POINTS[kind]],
        },
    )
    registry = RunRegistry.open(registry_path)
    try:
        parent_id = registry.record(parent)
        registry.compact()
    finally:
        registry.close()
    return {
        "kind": "sweep-cell",
        "parent_id": parent_id,
        "code_version": version,
    }


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
) -> Dict[SweepPoint, Matrix]:
    """Checkpointed equivalent of the batch sweep drivers.

    Runs the sweep's cells through
    :func:`~repro.harness.parallel.run_cells_parallel`, checkpointing each
    finished cell atomically; with ``resume`` set, completed cells are
    restored from the checkpoint.  The reassembled nested mapping is
    identical to the batch drivers' output.

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

    identity = f"sweep:{kind}:scale={workload_scale:g}"
    registry_meta: Optional[Dict[str, object]] = None
    if registry_path is not None:
        registry_meta = sweep_registry_meta(registry_path, kind,
                                            workload_scale, identity)
    outcome = run_cells_parallel(
        sweep_parallel_cells(kind, workload_scale),
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
    flat: Dict[str, RunResult] = {}
    for key, payload in outcome.results.items():
        try:
            flat[key] = RunResult.from_jsonable(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint cell {key!r} is malformed: {exc}"
            ) from exc
    results: Dict[SweepPoint, Matrix] = {}
    for point in SWEEP_POINTS[kind]:
        matrix: Matrix = {}
        for app in APPS:
            matrix[app] = {}
            for variant in tuple(Variant):
                key = f"{kind}={point_label(point)}/{app}/{variant.value}"
                matrix[app][variant.value] = flat[key]
        results[point] = matrix
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
