"""The differential correctness oracle.

The paper's promise is that speculative pre-execution is *transparent*:
a transformed application produces exactly the output of the original, and
demands exactly the same data in the same order — hinting changes timing,
never semantics.  This module turns the promise into an executable check:

* run each application twice on the same seed — :class:`Variant.ORIGINAL`
  (speculation off) and :class:`Variant.SPECULATING` (speculation on);
* assert byte-identical program output;
* assert identical demand-read sequences (the kernel's per-read
  ``(ino, offset, length)`` trace);
* repeat under every chaos profile, so the guarantee holds while disks
  fail, hints are corrupted, and restart storms rage.

A divergence raises (or, in collect mode, records) a typed
:class:`~repro.errors.OracleMismatch` pinpointing the first differing
element.  The CLI exposes this as ``run APP --oracle``; CI runs a smoke
subset on every push.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DataLossError, OracleMismatch
from repro.faults.plan import PROFILES
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment
from repro.params import SystemConfig
from repro.sim.clock import SimClock
from repro.trace.export import export_to_path
from repro.trace.tracer import Tracer

#: Chaos profiles the full oracle sweeps (None = fault-free baseline).
ORACLE_PROFILES: Tuple[Optional[str], ...] = (None,) + tuple(
    name for name in sorted(PROFILES) if name != "none"
)


def _first_output_diff(a: bytes, b: bytes) -> str:
    """Human description of the first differing output byte."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return (f"output byte {i}: original {a[i]:#04x} vs "
                    f"speculating {b[i]:#04x}")
    return f"output length: original {len(a)} vs speculating {len(b)} bytes"


def _first_trace_diff(
    a: Sequence[Tuple[int, int, int]], b: Sequence[Tuple[int, int, int]]
) -> str:
    """Human description of the first differing demand read."""
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return (f"demand read #{i}: original {a[i]} vs "
                    f"speculating {b[i]}")
    return (f"demand-read count: original {len(a)} vs "
            f"speculating {len(b)} calls")


@dataclass
class OracleCell:
    """Outcome of one (app, profile) differential comparison."""

    app: str
    profile: Optional[str]
    passed: bool
    detail: str = ""
    original: Optional[RunResult] = None
    speculating: Optional[RunResult] = None

    @property
    def profile_name(self) -> str:
        return self.profile or "fault-free"

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "OracleCell":
        """Rebuild a cell from its :meth:`to_payload` form."""
        cell = cls(
            app=str(payload["app"]),
            profile=(str(payload["profile"])
                     if payload.get("profile") is not None else None),
            passed=bool(payload["passed"]),
            detail=str(payload.get("detail", "")),
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
        payload: Dict[str, object] = {
            "app": self.app,
            "profile": self.profile,
            "passed": self.passed,
            "detail": self.detail,
        }
        if self.original is not None:
            payload["original"] = self.original.to_jsonable()
        if self.speculating is not None:
            payload["speculating"] = self.speculating.to_jsonable()
        return payload

    def to_jsonable(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "app": self.app,
            "profile": self.profile_name,
            "passed": self.passed,
            "detail": self.detail,
        }
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
    app: str,
    profile: Optional[str] = None,
    workload_scale: float = 1.0,
    fault_seed: int = 7,
    system: Optional[SystemConfig] = None,
    analysis_optimize: bool = False,
    trace_dir: Optional[str] = None,
) -> OracleCell:
    """Differential run of one app under one chaos profile.

    Both runs share the system seed and (when chaotic) the fault seed; the
    only difference is whether the binary was transformed
    (``analysis_optimize`` additionally applies the static-analysis
    elision plan to the transformed side).  Returns the cell; never raises
    — the caller decides whether a failure is fatal.

    With ``trace_dir`` set, both variants run under a tracer and a
    *diverging* cell dumps both event streams as JSONL to
    ``trace_dir/<app>-<profile>-<variant>.jsonl`` — the first question
    about any divergence is "what did the two runs actually do", and the
    traces answer it without a re-run.  Tracing cannot mask the bug being
    hunted: the tracer only reads the clock, so traced runs are
    cycle-identical to untraced ones.
    """
    base = ExperimentConfig(
        app=app,
        system=system or SystemConfig(),
        workload_scale=workload_scale,
        fault_profile=profile,
        fault_seed=fault_seed,
        analysis_optimize=analysis_optimize,
    )
    tracers: Dict[Variant, Tracer] = {}
    if trace_dir is not None:
        # Only pass the tracer kwarg when actually tracing: tests stub
        # run_experiment with plain (cfg)-signature fakes.
        tracers = {
            Variant.ORIGINAL: Tracer(SimClock()),
            Variant.SPECULATING: Tracer(SimClock()),
        }

    def _run(variant: Variant) -> "tuple[Optional[RunResult], Optional[DataLossError]]":
        cfg = base.with_(variant=variant)
        try:
            if variant in tracers:
                return run_experiment(cfg, tracer=tracers[variant]), None
            return run_experiment(cfg), None
        except DataLossError as exc:
            # Unrecoverable faults (double-fault profiles) are a legitimate,
            # *symmetric* outcome: both variants must fail the same way.
            return None, exc

    original, original_loss = _run(Variant.ORIGINAL)
    speculating, speculating_loss = _run(Variant.SPECULATING)

    cell = OracleCell(app=app, profile=profile, passed=True,
                      original=original, speculating=speculating)
    expects_loss = profile is not None and PROFILES[profile].expects_data_loss
    if original_loss is not None and speculating_loss is not None:
        cell.detail = (f"both variants raised DataLossError "
                       f"({'expected' if expects_loss else 'UNEXPECTED'} "
                       f"for this profile)")
        cell.passed = expects_loss
    elif original_loss is not None or speculating_loss is not None:
        side = "original" if original_loss is not None else "speculating"
        loss = original_loss if original_loss is not None else speculating_loss
        cell.passed = False
        cell.detail = (f"asymmetric data loss: only the {side} variant "
                       f"raised DataLossError ({loss})")
    elif expects_loss:
        cell.passed = False
        cell.detail = ("expected both variants to raise DataLossError "
                       "(double-fault profile), but both completed")
    else:
        assert original is not None and speculating is not None
        if speculating.output != original.output:
            cell.passed = False
            cell.detail = _first_output_diff(original.output, speculating.output)
        elif speculating.read_trace != original.read_trace:
            cell.passed = False
            cell.detail = _first_trace_diff(original.read_trace,
                                            speculating.read_trace)
    if trace_dir is not None and not cell.passed:
        os.makedirs(trace_dir, exist_ok=True)
        stem = f"{app}-{cell.profile_name}"
        for variant, tracer in tracers.items():
            path = os.path.join(trace_dir, f"{stem}-{variant.value}.jsonl")
            export_to_path(tracer, path, "jsonl")
        cell.detail += f" [traces in {trace_dir}/{stem}-*.jsonl]"
    return cell


def run_oracle(
    apps: Sequence[str],
    profiles: Sequence[Optional[str]] = ORACLE_PROFILES,
    workload_scale: float = 1.0,
    fault_seed: int = 7,
    system: Optional[SystemConfig] = None,
    strict: bool = False,
    analysis_optimize: bool = False,
    trace_dir: Optional[str] = None,
    jobs: int = 1,
    registry_path: Optional[str] = None,
) -> OracleReport:
    """Differential oracle over an app x chaos-profile grid.

    The (app, profile) cells run through
    :func:`~repro.harness.parallel.run_cells_parallel`: in-process for
    ``jobs <= 1``, under the supervised pool otherwise.  Each cell is the
    same two same-seed runs either way, so the report does not depend on
    ``jobs``.  A cell the supervisor had to quarantine (repeated
    crash/hang) is reported as a failed cell with its failure record — an
    oracle run never silently drops a cell.

    With ``strict`` set, every cell still runs, then the first divergence
    in grid order raises :class:`OracleMismatch`; otherwise every cell is
    collected into the report for the caller to inspect.  ``trace_dir``
    enables per-cell divergence trace dumps (see :func:`run_oracle_cell`).

    With ``registry_path`` set, an ``oracle`` group record plus one
    ``oracle-cell`` record per cell (with its two ``oracle-variant``
    children) land in the persistent run registry.
    """
    from repro.harness.parallel import (
        run_cells_parallel,
        run_oracle_cell_payload,
    )

    registry_meta: Optional[Dict[str, object]] = None
    if registry_path is not None:
        registry_meta = _oracle_registry_meta(
            registry_path, apps, profiles, workload_scale, fault_seed,
        )

    cells = []
    keys: List[Tuple[str, str, Optional[str]]] = []
    for app in apps:
        for profile in profiles:
            key = f"oracle/{app}/{profile or 'fault-free'}"
            keys.append((key, app, profile))
            cells.append((key, run_oracle_cell_payload,
                          (app, profile, workload_scale, fault_seed,
                           analysis_optimize, trace_dir, system)))
    outcome = run_cells_parallel(cells, jobs=jobs, identity="oracle",
                                 registry_path=registry_path,
                                 registry_meta=registry_meta)

    report = OracleReport()
    for key, app, profile in keys:  # grid order, not arrival order
        if key in outcome.results:
            cell = OracleCell.from_payload(outcome.results[key])
        else:
            record = outcome.quarantined.get(key, {})
            failures = record.get("failures", [])
            cell = OracleCell(
                app=app, profile=profile, passed=False,
                detail=(f"quarantined after {len(failures)} supervisor "  # type: ignore[arg-type]
                        f"failures (crash/hang); see checkpoint record"),
            )
        report.cells.append(cell)
        if strict and not cell.passed:
            raise OracleMismatch(
                f"{app} under {cell.profile_name}: {cell.detail}"
            )
    return report


def _oracle_registry_meta(
    registry_path: str,
    apps: Sequence[str],
    profiles: Sequence[Optional[str]],
    workload_scale: float,
    fault_seed: int,
) -> Dict[str, object]:
    """Write the oracle matrix's group record; returns the cell context."""
    from repro.registry.fingerprint import code_version
    from repro.registry.record import RunRecord
    from repro.registry.store import RunRegistry

    version = code_version()
    parent = RunRecord(
        kind="oracle",
        code_version=version,
        meta={
            "apps": list(apps),
            "profiles": [p or "fault-free" for p in profiles],
            "workload_scale": workload_scale,
            "fault_seed": fault_seed,
        },
    )
    registry = RunRegistry.open(registry_path)
    try:
        parent_id = registry.record(parent)
        registry.compact()
    finally:
        registry.close()
    return {"parent_id": parent_id, "code_version": version}

