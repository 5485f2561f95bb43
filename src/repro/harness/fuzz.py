"""The chaos-fuzzing engine: generated fault schedules, monitored cells.

A fuzz *cell* is a differential pair — spec-off, then spec-on, of one
app from one base config — under a *generated*
:class:`~repro.faults.plan.FaultPlan`, judged by the invariant-monitor
suite (:mod:`repro.harness.invariants`).  The differential oracle runs
its built-in-profile cells through the same :func:`observe_cell`.
Every fuzz cell:

1. reconstructs its :class:`~repro.faults.generate.FuzzCase` from JSON
   (cells cross the supervised worker pool as plain payloads);
2. runs both variants (:func:`observe_cell`), capturing the live system
   through the runner's observer hook so monitors can inspect audit
   tables, the hint-lifecycle ledger and the TIP queue even when the
   run escaped with an exception;
3. evaluates every monitor and returns the violations plus a canonical
   *cell digest* over outputs, demand-read traces, cycle counts and
   escapes — two campaigns with the same seed must produce identical
   digests whether they ran serially or on ``--jobs N`` workers, and the
   benchmark guard (``benchmarks/bench_fuzz_throughput.py``) pins that.

A campaign (:func:`run_fuzz`) fans cells over
:func:`~repro.harness.parallel.run_cells_parallel`, so crash/hang
quarantine, per-worker partial checkpoints, and graceful serial
degradation all apply; a quarantined fuzz cell surfaces as a
``supervisor`` violation, never silently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FuzzError
from repro.faults.generate import (
    CoverageLedger,
    FaultPlanGenerator,
    FuzzCase,
    case_dimensions,
    validate_spec_overrides,
)
from repro.faults.plan import FaultPlan
from repro.harness.config import ALL_APPS, ExperimentConfig, Variant
from repro.harness.invariants import (
    DEFAULT_MONITORS,
    CellObservation,
    InvariantMonitor,
    VariantObservation,
    Violation,
    check_all,
)
from repro.harness.runner import (
    add_system_observer,
    remove_system_observer,
    run_experiment_with_system,
)
from repro.params import SystemConfig
from repro.trace.tracer import NULL_TRACER, Tracer

#: Default workload scale for fuzz cells (small enough that a 50-cell
#: budget stays interactive, large enough that speculation engages).
DEFAULT_FUZZ_SCALE = 0.25


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def case_config(case: FuzzCase, workload_scale: float) -> ExperimentConfig:
    """The base experiment configuration of one fuzz cell."""
    if case.app not in ALL_APPS:
        raise FuzzError(
            f"fuzz case app {case.app!r} unknown; expected one of {ALL_APPS}"
        )
    validate_spec_overrides(case.spec_overrides)
    system = SystemConfig()
    if case.spec_overrides:
        system = system.replace(spechint=dataclasses.replace(
            system.spechint, **case.spec_overrides
        ))
    return ExperimentConfig(
        app=case.app,
        system=system,
        workload_scale=workload_scale,
        fault_plan=case.plan,
    )


def observe_variant(
    cfg: ExperimentConfig, tracer: Tracer = NULL_TRACER
) -> VariantObservation:
    """Run one variant, capturing the live system and any escape.

    The system is grabbed through the runner's observer hook *before* the
    kernel starts, so monitors see post-mortem state (audit tables, the
    lifecycle ledger) even when the run raised.  Typed and untyped
    escapes are both captured as data — the typed-errors monitor judges
    them; only exits (KeyboardInterrupt, SystemExit) propagate.
    """
    vobs = VariantObservation(variant=cfg.variant.value)

    def _observer(system: object) -> None:
        vobs.system = system
        vobs.clock_samples.append(("built", system.clock.now))  # type: ignore[attr-defined]

    add_system_observer(_observer)
    try:
        result, system = run_experiment_with_system(cfg, tracer=tracer)
        vobs.result = result
        vobs.system = system
    except Exception as exc:
        vobs.error = exc
    finally:
        remove_system_observer(_observer)
    if vobs.system is not None:
        vobs.clock_samples.append(
            ("end", vobs.system.clock.now)  # type: ignore[attr-defined]
        )
    return vobs


def observe_cell(
    base: ExperimentConfig,
    tracers: Optional[Dict[Variant, Tracer]] = None,
) -> CellObservation:
    """Run original, then speculating, from one base config.

    The two runs differ only in the variant; ``tracers`` optionally
    traces either one.  The cell's plan is the base config's literal
    plan, else its resolved profile (an empty plan when fault-free).
    """
    tracers = tracers or {}
    variants = {
        variant.value: observe_variant(base.with_(variant=variant),
                                       tracers.get(variant, NULL_TRACER))
        for variant in (Variant.ORIGINAL, Variant.SPECULATING)
    }
    plan = base.fault_plan or base.resolved_fault_plan() or FaultPlan()
    return CellObservation(app=base.app, plan=plan, variants=variants)


@dataclass
class FuzzCellResult:
    """Outcome of one fuzz cell, JSON-round-trippable for the pool."""

    case: FuzzCase
    violations: List[Violation] = field(default_factory=list)
    digest: str = ""
    cycles: Dict[str, int] = field(default_factory=dict)
    escapes: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Registry identity keys (see :mod:`repro.registry.fingerprint`),
    #: stamped by :func:`run_fuzz_case` from the cell's resolved config.
    params_digest: str = ""
    seed: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def key(self) -> str:
        return self.case.key

    @property
    def dimensions(self) -> List[str]:
        return case_dimensions(self.case.plan, self.case.spec_overrides)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "case": self.case.to_jsonable(),
            "violations": [v.to_jsonable() for v in self.violations],
            "digest": self.digest,
            "cycles": dict(self.cycles),
            "escapes": dict(self.escapes),
            "params_digest": self.params_digest,
            "seed": self.seed,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "FuzzCellResult":
        return cls(
            case=FuzzCase.from_jsonable(data["case"]),
            violations=[
                Violation.from_jsonable(v)  # type: ignore[arg-type]
                for v in data.get("violations", ())
            ],
            digest=str(data.get("digest", "")),
            cycles={str(k): int(v)  # type: ignore[call-overload]
                    for k, v in dict(data.get("cycles", {})).items()},
            escapes={str(k): (str(v) if v is not None else None)
                     for k, v in dict(data.get("escapes", {})).items()},
            params_digest=str(data.get("params_digest", "")),
            seed=int(data.get("seed", 0)),  # type: ignore[call-overload]
        )


def _cell_digest(
    case: FuzzCase,
    observations: Dict[str, VariantObservation],
    violations: List[Violation],
) -> str:
    """Canonical digest of everything deterministic about this cell."""
    variants: Dict[str, object] = {}
    for name, vobs in sorted(observations.items()):
        entry: Dict[str, object] = {
            "escape": type(vobs.error).__name__ if vobs.error else None,
        }
        if vobs.result is not None:
            entry["output_sha"] = _sha(vobs.result.output.hex())
            entry["trace_sha"] = _sha(repr(vobs.result.read_trace))
            entry["cycles"] = vobs.result.cycles
            entry["fault_events"] = vobs.result.fault_events()
        variants[name] = entry
    payload = {
        "key": case.key,
        "plan": case.plan.to_jsonable(),
        "spec_overrides": dict(sorted(case.spec_overrides.items())),
        "variants": variants,
        "violations": sorted(v.monitor for v in violations),
    }
    return _sha(json.dumps(payload, sort_keys=True))


def run_fuzz_case(
    case: FuzzCase,
    workload_scale: float = DEFAULT_FUZZ_SCALE,
    monitors: Tuple[InvariantMonitor, ...] = DEFAULT_MONITORS,
) -> FuzzCellResult:
    """Run one cell (both variants) and judge it with every monitor."""
    from repro.registry.fingerprint import params_digest

    base = case_config(case, workload_scale)
    obs = observe_cell(base)
    observations = obs.variants
    violations = check_all(obs, monitors)
    return FuzzCellResult(
        case=case,
        violations=violations,
        digest=_cell_digest(case, observations, violations),
        cycles={
            name: vobs.result.cycles
            for name, vobs in sorted(observations.items())
            if vobs.result is not None
        },
        escapes={
            name: (type(vobs.error).__name__ if vobs.error else None)
            for name, vobs in sorted(observations.items())
        },
        # params_digest excludes the variant axis: one identity per cell.
        params_digest=params_digest(base),
        seed=base.system.seed,
    )


def run_fuzz_cell_payload(
    case_json: Dict[str, object], workload_scale: float
) -> Dict[str, object]:
    """Module-level cell runner (pickled by reference into workers)."""
    case = FuzzCase.from_jsonable(case_json)
    return run_fuzz_case(case, workload_scale=workload_scale).to_jsonable()


@dataclass
class FuzzReport:
    """Everything one campaign produced."""

    seed: int
    budget: int
    workload_scale: float
    ledger: CoverageLedger
    cells: List[FuzzCellResult] = field(default_factory=list)
    quarantined: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures() and not self.quarantined

    def failures(self) -> List[FuzzCellResult]:
        return [cell for cell in self.cells if not cell.passed]

    @property
    def digest(self) -> str:
        """Campaign digest: identical for serial and parallel runs."""
        lines = sorted(f"{cell.key}:{cell.digest}" for cell in self.cells)
        return _sha("\n".join(lines))

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "workload_scale": self.workload_scale,
            "passed": self.passed,
            "digest": self.digest,
            "coverage": self.ledger.to_jsonable(),
            "cells": [cell.to_jsonable() for cell in self.cells],
            "quarantined": dict(self.quarantined),
        }

    def summary(self) -> str:
        failures = self.failures()
        verdict = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.quarantined:
            extra = f", {len(self.quarantined)} quarantined"
        return (f"fuzz: {verdict} ({len(self.cells) - len(failures)}/"
                f"{len(self.cells)} cells clean{extra}; "
                f"digest {self.digest})")


def run_fuzz(
    budget: int,
    seed: int = 7,
    apps: Sequence[str] = ("agrep",),
    jobs: int = 1,
    workload_scale: float = DEFAULT_FUZZ_SCALE,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    progress: Optional[Callable[[str, bool], None]] = None,
    on_event: Optional[Callable[[str], None]] = None,
    registry_path: Optional[str] = None,
) -> FuzzReport:
    """One fuzz campaign: ``budget`` generated cells over the pool.

    Deterministic in ``(budget, seed, apps, workload_scale)``: the
    coverage ledger, every cell digest, and the campaign digest are
    identical whether cells ran serially or sharded across workers.

    With ``registry_path`` set, a ``fuzz-campaign`` group record plus a
    ``fuzz-case`` record per cell (carrying its invariant-monitor
    verdicts) land in the persistent run registry.
    """
    for app in apps:
        if app not in ALL_APPS:
            raise FuzzError(
                f"unknown fuzz app {app!r}; expected one of {ALL_APPS}"
            )
    from repro.harness.parallel import quarantine_violation, run_cells_parallel

    generator = FaultPlanGenerator(seed, apps=apps)
    cases = generator.cases(budget)
    ledger = CoverageLedger()
    for case in cases:
        ledger.note(case)

    registry_meta: Optional[Dict[str, object]] = None
    if registry_path is not None:
        from repro.registry.recorder import record_group

        registry_meta = record_group(registry_path, "fuzz-campaign", {
            "budget": budget,
            "fuzz_seed": seed,
            "apps": list(apps),
            "workload_scale": workload_scale,
        })

    cells = [
        (case.key, run_fuzz_cell_payload,
         (case.to_jsonable(), workload_scale))
        for case in cases
    ]
    outcome = run_cells_parallel(
        cells, jobs=jobs, checkpoint_path=checkpoint_path,
        identity="fuzz", resume=resume, progress=progress,
        on_event=on_event,
        registry_path=registry_path, registry_meta=registry_meta,
    )

    report = FuzzReport(
        seed=seed, budget=budget, workload_scale=workload_scale,
        ledger=ledger,
    )
    for case in cases:  # generation order, not arrival order
        payload = outcome.results.get(case.key)
        if payload is not None:
            report.cells.append(FuzzCellResult.from_jsonable(payload))
            continue
        record = outcome.quarantined.get(case.key, {})
        report.quarantined[case.key] = dict(record)
        report.cells.append(FuzzCellResult(
            case=case, violations=[quarantine_violation(record)],
            digest="quarantined",
        ))
    return report


__all__ = [
    "DEFAULT_FUZZ_SCALE",
    "FuzzCellResult",
    "FuzzReport",
    "case_config",
    "observe_cell",
    "observe_variant",
    "run_fuzz",
    "run_fuzz_case",
    "run_fuzz_cell_payload",
]
