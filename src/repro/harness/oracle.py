"""The differential correctness oracle.

The paper's promise is that speculative pre-execution is *transparent*:
a transformed application produces exactly the output of the original, and
demands exactly the same data in the same order — hinting changes timing,
never semantics.  An oracle cell checks the promise for one app under one
chaos profile: it runs :class:`Variant.ORIGINAL`, then
:class:`Variant.SPECULATING`, from one base config exactly as a fuzz cell
does (:func:`~repro.harness.fuzz.observe_cell`), and judges the pair with
the invariant monitors, whose ``spec-identity`` clause requires
byte-identical output and demand reads.  The oracle adds one rule of its
own, :class:`CompletionMonitor`.  A failing cell carries its
:class:`~repro.harness.invariants.Violation` list, the fuzz-cell shape.
The CLI exposes this as ``run APP --oracle``; CI runs a smoke subset on
every push.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DataLossError, OracleMismatch
from repro.faults.plan import PROFILES
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.fuzz import observe_cell
from repro.harness.invariants import (
    DEFAULT_MONITORS,
    CellObservation,
    InvariantMonitor,
    Violation,
    check_all,
)
from repro.harness.results import RunResult
from repro.registry.fingerprint import params_digest
from repro.sim.clock import SimClock
from repro.trace.export import export_to_path
from repro.trace.tracer import Tracer

#: Chaos profiles the full oracle sweeps (None = fault-free baseline).
ORACLE_PROFILES: Tuple[Optional[str], ...] = (None,) + tuple(
    name for name in sorted(PROFILES) if name != "none"
)


class CompletionMonitor(InvariantMonitor):
    """Every variant completes, or raises the data loss its plan expects.

    The monitors accept one typed error on both sides as symmetric; a
    cell that never ran its workload proves nothing about transparency.
    """

    name = "completion"

    def check(self, obs: CellObservation) -> List[Violation]:
        violations: List[Violation] = []
        for vobs in obs.variants.values():
            error = vobs.error
            if error is None or (obs.expects_data_loss
                                 and isinstance(error, DataLossError)):
                continue
            violations.append(self._violation(
                f"{vobs.variant} raised {type(error).__name__}: {error}",
                variant=vobs.variant, error_type=type(error).__name__,
                error=str(error),
            ))
        return violations


#: The oracle's verdict: its completion rule, then the full contract.
ORACLE_MONITORS = (CompletionMonitor(),) + DEFAULT_MONITORS


@dataclass
class OracleCell:
    """Outcome of one (app, profile) differential comparison."""

    app: str
    profile: Optional[str]
    violations: List[Violation] = field(default_factory=list)
    #: Registry identity keys of the cell's config, as on a fuzz cell.
    params_digest: str = ""
    seed: int = 0
    original: Optional[RunResult] = None
    speculating: Optional[RunResult] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def detail(self) -> str:
        return "; ".join(str(v) for v in self.violations)

    @property
    def profile_name(self) -> str:
        return self.profile or "fault-free"

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "OracleCell":
        """Rebuild a cell from its :meth:`to_payload` form."""
        cell = cls(
            app=str(payload["app"]),
            profile=payload.get("profile"),  # type: ignore[arg-type]
            violations=[
                Violation.from_jsonable(v)  # type: ignore[arg-type]
                for v in payload.get("violations", ())  # type: ignore[attr-defined]
            ],
            params_digest=str(payload.get("params_digest", "")),
            seed=int(payload.get("seed", 0)),  # type: ignore[call-overload]
        )
        if "original" in payload:
            cell.original = RunResult.from_jsonable(payload["original"])  # type: ignore[arg-type]
        if "speculating" in payload:
            cell.speculating = RunResult.from_jsonable(payload["speculating"])  # type: ignore[arg-type]
        return cell

    def to_payload(self) -> Dict[str, object]:
        """Full serialized form: the cell engine's result payload.

        Also the shape the run registry records.
        """
        payload = self._verdict()
        payload["profile"] = self.profile
        if self.original is not None:
            payload["original"] = self.original.to_jsonable()
        if self.speculating is not None:
            payload["speculating"] = self.speculating.to_jsonable()
        return payload

    def _verdict(self) -> Dict[str, object]:
        return {
            "app": self.app,
            "violations": [v.to_jsonable() for v in self.violations],
            "params_digest": self.params_digest,
            "seed": self.seed,
        }

    def to_jsonable(self) -> Dict[str, object]:
        """The oracle report's entry for this cell."""
        entry = self._verdict()
        entry.update(profile=self.profile_name, passed=self.passed)
        if self.speculating is not None:
            entry["spec_restarts"] = self.speculating.spec_restarts
            entry["spec_hints_issued"] = self.speculating.spec_hints_issued
            entry["isolation_violations"] = self.speculating.isolation_violations
            entry["watchdog_tripped"] = self.speculating.watchdog_tripped
        return entry


@dataclass
class OracleReport:
    """Every cell of one oracle invocation."""

    cells: List[OracleCell] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    def failures(self) -> List[OracleCell]:
        return [cell for cell in self.cells if not cell.passed]

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "cells": [cell.to_jsonable() for cell in self.cells],
        }

    def summary(self) -> str:
        ok = sum(1 for cell in self.cells if cell.passed)
        verdict = "PASS" if self.passed else "FAIL"
        return f"oracle: {verdict} ({ok}/{len(self.cells)} cells identical)"


def run_oracle_cell(
    base: ExperimentConfig,
    profile: Optional[str] = None,
    trace_dir: Optional[str] = None,
) -> OracleCell:
    """Differential run of ``base.app`` under one chaos profile.

    Both variants run from ``base`` with ``profile`` as its fault
    profile, so they differ only in whether the binary was transformed;
    :data:`ORACLE_MONITORS` judge the pair.  Never raises — the caller
    decides whether a failure is fatal.

    With ``trace_dir`` set, both variants run under a tracer and a
    *failing* cell dumps both event streams as JSONL to
    ``trace_dir/<app>-<profile>-<variant>.jsonl``, answering "what did
    the two runs actually do" without a re-run.  The tracer only reads
    the clock, so traced runs are cycle-identical to untraced ones.
    """
    tracers = {variant: Tracer(SimClock())
               for variant in (Variant.ORIGINAL, Variant.SPECULATING)
               if trace_dir is not None}
    cfg = base.with_(fault_profile=profile)
    obs = observe_cell(cfg, tracers)
    cell = OracleCell(
        app=base.app, profile=profile,
        params_digest=params_digest(cfg), seed=cfg.system.seed,
        violations=check_all(obs, ORACLE_MONITORS),
        original=obs.variants["original"].result,
        speculating=obs.variants["speculating"].result,
    )
    if trace_dir is not None and not cell.passed:
        os.makedirs(trace_dir, exist_ok=True)
        stem = f"{base.app}-{cell.profile_name}"
        for variant, tracer in tracers.items():
            path = os.path.join(trace_dir, f"{stem}-{variant.value}.jsonl")
            export_to_path(tracer, path, "jsonl")
    return cell


def run_oracle_cell_payload(
    base: ExperimentConfig,
    profile: Optional[str],
    trace_dir: Optional[str],
) -> Dict[str, object]:
    """Module-level cell runner (pickled by reference into workers)."""
    return run_oracle_cell(base, profile, trace_dir).to_payload()


def run_oracle(
    apps: Sequence[str],
    profiles: Sequence[Optional[str]] = ORACLE_PROFILES,
    base: ExperimentConfig = ExperimentConfig(),
    strict: bool = False,
    trace_dir: Optional[str] = None,
    jobs: int = 1,
    registry_path: Optional[str] = None,
) -> OracleReport:
    """Differential oracle over an app x chaos-profile grid.

    Every cell is ``base`` with its app and fault profile replaced, run
    through :func:`~repro.harness.parallel.run_cells_parallel` (in-process
    for ``jobs <= 1``, supervised otherwise).  A cell captures whatever
    its variants raise, so the report does not depend on ``jobs``; a
    cell the supervisor quarantined (repeated crash/hang) is reported
    with a ``supervisor`` violation, never dropped.

    With ``strict`` set, every cell still runs, then the first failing
    cell in grid order raises :class:`OracleMismatch`; otherwise every
    cell is collected into the report for the caller to inspect.
    ``trace_dir`` enables per-cell failure trace dumps (see
    :func:`run_oracle_cell`).

    With ``registry_path`` set, an ``oracle`` group record plus one
    ``oracle-cell`` record per cell (with its two ``oracle-variant``
    children) land in the persistent run registry.
    """
    from repro.harness.parallel import quarantine_violation, run_cells_parallel

    registry_meta: Optional[Dict[str, object]] = None
    if registry_path is not None:
        from repro.registry.recorder import record_group

        registry_meta = record_group(registry_path, "oracle", {
            "apps": list(apps),
            "profiles": [p or "fault-free" for p in profiles],
            "workload_scale": base.workload_scale,
            "fault_seed": base.fault_seed,
        })

    keys = [(f"oracle/{app}/{profile or 'fault-free'}", app, profile)
            for app in apps for profile in profiles]
    cells = [(key, run_oracle_cell_payload,
              (base.with_(app=app), profile, trace_dir))
             for key, app, profile in keys]
    outcome = run_cells_parallel(cells, jobs=jobs, identity="oracle",
                                 registry_path=registry_path,
                                 registry_meta=registry_meta)

    report = OracleReport()
    for key, app, profile in keys:  # grid order, not arrival order
        if key in outcome.results:
            cell = OracleCell.from_payload(outcome.results[key])
        else:
            cell = OracleCell(app=app, profile=profile, violations=[
                quarantine_violation(outcome.quarantined.get(key, {})),
            ])
        report.cells.append(cell)
        if strict and not cell.passed:
            raise OracleMismatch(
                f"{app} under {cell.profile_name}: {cell.detail}"
            )
    return report
