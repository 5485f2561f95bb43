#!/usr/bin/env python3
"""The repo benchmark: host time of the simulator on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig3 --seed 1999 --seconds 35 --trace 0

Workloads (all closed loop: one caller, cells run serially in this
process):

* ``fig3`` - the paper's Figure 3 grid, 4 apps x 3 variants at scale 1,
  fault-free; the seed is the system seed (file layout jitter).
* ``degraded`` - the same grid under the disk-death, rebuild-storm and
  double-fault profiles at scale 0.3 (36 cells, 5 s host-time cap per
  cell); the seed is the fault seed.
* ``fuzz`` - the committed BENCH_fuzz campaign (generator seed, budget and
  digest read from benchmarks/BENCH_fuzz.json) with a checkpoint and a
  registry ledger, then the registry read path; the seed orders the cells.

``--trace 0`` runs passes until ``--seconds`` have gone (at least two)
and reports the end-to-end metrics with tracing off; pass and cell times
are divided by a machine-speed calibration sampled during the pass
(perfbench/calibrate.py).  ``--trace 1`` runs
one untraced pass and one traced pass, which wraps each layer's public
functions (perfbench/layers.py), and reports per-layer self time, calls
and share plus the simulator's own counters; the spans are written to
``.perfbench/``.  The last line of standard output is one JSON object.
The exit code is 1 when an outcome or determinism check fails and 2 when
the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("fig3", "degraded", "fuzz")
#: Fresh processes timed from start to the first cell, per run.
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
#: Failure reasons that are counted but are not wrong results.
STOPPED = ("runaway", "not-run")

Metric = Tuple[float, str]


def build(name: str, seed: int, workdir: str):
    """Set up one workload: imports, cell plan, reference outputs."""
    from perfbench import workloads

    if name == "fig3":
        return workloads.fig3(seed)
    if name == "degraded":
        return workloads.degraded(seed)
    return workloads.FuzzWorkload(seed, ROOT, workdir)


def measure_setup(name: str, seed: int) -> List[float]:
    """Seconds from spawning a fresh process until it has imported and set
    up the workload; the child reports the moment on the shared clock."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
            stdout=subprocess.PIPE, text=True,
        )
        samples.append(float(child.stdout) - start)
    return samples


def check_outcomes(passes) -> List[str]:
    """Failures that are wrong results rather than stops, and digest drift."""
    problems = []
    for index, result in enumerate(passes):
        problems += [f"pass {index}: {problem}" for problem in result.problems]
        for cell in result.cells:
            if cell.status == "failed" and cell.reason not in STOPPED:
                problems.append(f"pass {index}: {cell.key} failed: {cell.reason}")
    digests = {result.digest for result in passes}
    if len(digests) > 1:
        problems.append(f"simulated digests differ across passes: {sorted(digests)}")
    return problems


def end_to_end(passes, setup: List[float]) -> Tuple[Dict[str, Metric], List[str]]:
    """End-to-end metrics.  Pass and cell times are divided by their
    pass's calibration slowdown.  Set-up time is not: interpreter start and
    imports did not follow the bursts' slowdown, and dividing widened its
    spread."""
    samples = [cell.seconds / result.slowdown for result in passes
               for cell in result.cells if cell.reason != "not-run"]
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    attempted = sum(len(result.cells) for result in passes)
    failed = [cell for result in passes for cell in result.cells
              if cell.status == "failed"]
    walls = [result.wall_s / result.slowdown for result in passes]
    metrics: Dict[str, Metric] = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cell_s.p50": (statistics.median(samples), "s"),
        "cell_s.p90": (p90, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((attempted - len(failed)) / attempted, "ratio"),
    }
    reasons: Dict[str, int] = {}
    for cell in failed:
        label = f"{cell.key} ({cell.reason})"
        reasons[label] = reasons.get(label, 0) + 1
    lines = [
        "pass and cell times are host seconds divided by the calibration slowdown "
        f"(pass slowdowns {', '.join(f'{p.slowdown:.3f}' for p in passes)})",
        f"setup_s        {metrics['setup_s'][0]:.4f} s   median of {len(setup)} "
        f"fresh processes: {', '.join(f'{s:.3f}' for s in setup)}",
        f"wall_s         {metrics['wall_s'][0]:.4f} s   median of {len(walls)} "
        f"passes: {', '.join(f'{w:.3f}' for w in walls)} "
        f"(raw {', '.join(f'{p.wall_s:.3f}' for p in passes)})",
        f"cell_s.p50     {metrics['cell_s.p50'][0]:.4f} s   over {len(samples)} cell samples",
        f"cell_s.p90     {p90:.4f} s   over {len(samples)} cell samples, "
        f"{sum(1 for s in samples if s > p90)} above it",
        f"peak_rss_mb    {metrics['peak_rss_mb'][0]:.1f} MB",
        f"ok_frac        {metrics['ok_frac'][0]:.4f}     ok or expected / attempted = "
        f"{attempted - len(failed)}/{attempted}",
        f"failed_frac    {len(failed) / attempted:.4f}     failed / attempted = "
        f"{len(failed)}/{attempted}",
        # Simulated, so deterministic per seed; printed, not bounded: on
        # degraded it moves about 10% with the fault seed.
        f"spec_cut_pct   {passes[0].spec_cut_pct:.4f} %   mean of "
        f"1 - sim_s(speculating)/sim_s(original) over completed pairs",
    ]
    lines += [f"  failed x{count}: {label}" for label, count in sorted(reasons.items())]
    return metrics, lines


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def per_layer(recorder, traced, untraced) -> Tuple[Dict[str, Metric], List[str]]:
    """Layer self time, calls and share, plus the simulator's counters.

    Times are divided by their pass's calibration slowdown, as in
    :func:`end_to_end`; shares are of the traced pass's raw time.
    """
    metrics: Dict[str, Metric] = {}
    traced_wall = traced.wall_s / traced.slowdown
    untraced_wall = untraced.wall_s / untraced.slowdown
    lines = [f"traced pass {traced_wall:.3f} s (raw {traced.wall_s:.3f}, slowdown "
             f"{traced.slowdown:.3f}), untraced {untraced_wall:.3f} s (raw "
             f"{untraced.wall_s:.3f}, slowdown {untraced.slowdown:.3f}), "
             f"{recorder.span_count()} spans"]
    unattributed = traced.wall_s
    for layer, (own, calls) in recorder.layer_totals().items():
        unattributed -= own
        metrics[f"{layer}.self_s"] = (own / traced.slowdown, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.share"] = (_ratio(own, traced.wall_s), "ratio")
        lines.append(f"  {layer:<18} self {own / traced.slowdown:9.4f} s  calls "
                     f"{calls:9d}  share {_ratio(own, traced.wall_s):6.1%} of traced pass")
    lines.append(f"  {'(outside layers)':<18} self {unattributed / traced.slowdown:9.4f} s"
                 "   (garbage collection between cells, calibration bursts, bookkeeping)")
    c = traced.counts
    hz_note = f"rates per untraced second ({untraced_wall:.3f} s)"
    counters: List[Tuple[str, float, str, str]] = [
        ("vm.instructions", c["instructions"], "count", ""),
        ("vm.minstr_per_s", _ratio(c["instructions"] / 1e6, untraced_wall), "Minstr/s",
         hz_note),
        ("kernel.read_calls", c["app.read_calls"], "count", ""),
        ("kernel.context_switches", c["kernel.context_switches"], "count", ""),
        ("kernel.demand_stall_sim_s", c["demand_stall_sim_s"], "s", "simulated"),
        ("spechint.restarts", c["spec.restarts"], "count", ""),
        ("spechint.hints_issued", c["spec.hints_issued"], "count", ""),
        ("spechint.cow_regions_copied", c["spec.cow_regions_copied"], "count", ""),
        ("spechint.audit_records", c["audit_records"], "count", ""),
        ("tip.hinted_blocks", c["tip.hinted_blocks"], "count", ""),
        ("tip.prefetches_issued", c["tip.prefetches_issued"], "count", ""),
        ("tip.prefetches_dropped", c["tip.prefetches_dropped"], "count", ""),
        ("tip.hint_accuracy", _ratio(c["tip.hints_consumed"], c["tip.hinted_blocks"]),
         "ratio", f"consumed {c['tip.hints_consumed']:.0f} / hinted "
         f"{c['tip.hinted_blocks']:.0f}"),
        ("tip.drops_per_issue",
         _ratio(c["tip.prefetches_dropped"], c["tip.prefetches_issued"]), "ratio",
         f"dropped {c['tip.prefetches_dropped']:.0f} / issued "
         f"{c['tip.prefetches_issued']:.0f}"),
        ("fs.block_reads", c["cache.block_reads"], "count", ""),
        ("fs.demand_misses", c["cache.demand_misses"], "count", ""),
        ("fs.miss_ratio", _ratio(c["cache.demand_misses"], c["cache.block_reads"]),
         "ratio", f"demand misses / block reads {c['cache.block_reads']:.0f}"),
        ("fs.prefetch_unused_ratio",
         _ratio(c["cache.prefetched_unused"], c["cache.prefetched_blocks"]), "ratio",
         f"unused / prefetched {c['cache.prefetched_blocks']:.0f}"),
        ("storage.completed", c["array.completed"], "count", ""),
        ("storage.retries", c["array.retries"], "count", ""),
        ("storage.timeouts", c["array.timeouts"], "count", ""),
        ("storage.degraded_reads", c["array.degraded_reads"], "count", ""),
        ("storage.reconstructed_blocks", c["array.reconstructed_blocks"], "count", ""),
        ("storage.prefetches_dropped", c["array.prefetches_dropped"], "count", ""),
        ("storage.hedge_win_ratio",
         _ratio(c["array.hedges_won"], c["array.hedges_issued"]), "ratio",
         f"won / issued {c['array.hedges_issued']:.0f}"),
        ("sim.events", c["events"], "count", ""),
        ("sim.kevents_per_s", _ratio(c["events"] / 1e3, untraced_wall), "kevents/s",
         hz_note),
        ("sim.elapsed_s", c["sim_s"], "s", "simulated"),
        ("faults.faulted_attempts", c["array.faulted_attempts"], "count", ""),
        ("faults.data_loss", c["faults.data_loss"], "count", ""),
        ("harness.cells", c["harness.cells"], "count", ""),
        ("harness.violations", c["harness.violations"], "count", ""),
        ("registry.records", c.get("registry.records", 0), "count", ""),
        ("registry.ledger_bytes", c.get("registry.ledger_bytes", 0), "bytes", ""),
        ("trace.overhead_s", traced_wall - untraced_wall, "s",
         "traced wall - untraced wall"),
        ("trace.spans", recorder.span_count(), "count", ""),
    ]
    for name, value, unit, base in counters:
        metrics[name] = (value, unit)
        lines.append(f"  {name:<28} {value:14.4f} {unit}" + (f"   ({base})" if base else ""))
    return metrics, lines


def _emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Metric]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="system seed (fig3, default 1999), fault seed "
                             "(degraded, default 7) or cell order (fuzz, default 7)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seed = args.seed if args.seed is not None else (1999 if args.workload == "fig3" else 7)

    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    try:
        import repro  # noqa: F401  (the program under test)
        from perfbench import workloads
        from perfbench.calibrate import Calibrator
        from perfbench.layers import LAYERS
        from perfbench.spans import SpanRecorder
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{seed}-{os.getpid()}")
    if args.setup_only:
        try:
            build(args.workload, seed, workdir)
            print(repr(time.time()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    calibrator = Calibrator()
    setup = measure_setup(args.workload, seed) if args.trace == 0 else []
    workload = build(args.workload, seed, workdir)
    try:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(workload.run_pass(calibrator))
            elapsed = time.perf_counter() - start
            if args.trace or (len(passes) >= 2 and elapsed
                              + statistics.median(p.wall_s for p in passes) > args.seconds):
                break
        problems = check_outcomes(passes)
        if args.trace == 0:
            metrics, lines = end_to_end(passes, setup)
            counted = passes
        else:
            recorder = SpanRecorder()
            recorder.install(LAYERS)
            try:
                traced = workload.run_pass(calibrator, recorder)
            finally:
                recorder.restore()
            if traced.digest != passes[0].digest:
                problems.append(f"traced pass digest {traced.digest} differs from "
                                f"untraced {passes[0].digest}")
            problems += check_outcomes([traced])
            metrics, lines = per_layer(recorder, traced, passes[0])
            os.makedirs(OUT_DIR, exist_ok=True)
            stem = os.path.join(OUT_DIR, f"spans-{args.workload}-{seed}")
            recorder.write(stem)
            lines.append(f"spans written to {os.path.relpath(stem, ROOT)}.{{json,bin}}")
            counted = passes + [traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"passes {len(passes)}  python {sys.version.split()[0]}  "
          f"nproc {os.cpu_count()}")
    for note in dict.fromkeys(n for result in counted for n in result.notes):
        print(note)
    for line in lines:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = sum(len(result.cells) for result in counted)
    failed = sum(1 for result in counted for cell in result.cells if cell.status == "failed")
    _emit(not problems, attempted, failed, metrics)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
