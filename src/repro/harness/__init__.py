"""Experiment harness.

Builds complete simulated systems (disks -> striping -> cache/TIP -> kernel
-> application), runs the paper's three benchmarks in their three variants,
and formats the paper's tables and figures from the collected statistics.
"""

from repro.harness.checkpoint import (
    SweepCheckpoint,
    atomic_write_json,
    flush_on_signals,
)
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.experiments import (
    run_matrix,
    run_one,
    run_sweep_cell,
    run_sweep_resumable,
)
from repro.harness.parallel import (
    run_cells_parallel,
    sweep_parallel_cells,
)
from repro.harness.supervisor import (
    Supervisor,
    SupervisorConfig,
    SupervisorOutcome,
)
from repro.harness.fuzz import (
    FuzzCellResult,
    FuzzReport,
    run_fuzz,
    run_fuzz_case,
)
from repro.harness.invariants import (
    DEFAULT_MONITORS,
    CellObservation,
    InvariantMonitor,
    VariantObservation,
    Violation,
    check_all,
)
from repro.harness.oracle import (
    OracleCell,
    OracleReport,
    run_oracle,
    run_oracle_cell,
)
from repro.harness.results import RunResult
from repro.harness.runner import build_system, run_experiment

__all__ = [
    "ExperimentConfig",
    "Variant",
    "RunResult",
    "build_system",
    "run_experiment",
    "run_one",
    "run_matrix",
    "run_sweep_cell",
    "run_sweep_resumable",
    "sweep_parallel_cells",
    "SweepCheckpoint",
    "Supervisor",
    "SupervisorConfig",
    "SupervisorOutcome",
    "atomic_write_json",
    "flush_on_signals",
    "run_cells_parallel",
    "OracleCell",
    "OracleReport",
    "run_oracle",
    "run_oracle_cell",
    "FuzzCellResult",
    "FuzzReport",
    "run_fuzz",
    "run_fuzz_case",
    "DEFAULT_MONITORS",
    "CellObservation",
    "InvariantMonitor",
    "VariantObservation",
    "Violation",
    "check_all",
]
