"""Supervised worker pool for parallel sweep execution.

The parallel sweep engine shards simulation cells across worker
processes.  Workers are treated as **untrusted**: they can crash (OOM
kill, segfault, ``SIGKILL``), hang (a simulation whose clock stops
advancing), or fail the same cell every time they touch it.  The
:class:`Supervisor` keeps the sweep alive through all three:

* **heartbeats** — each worker runs a daemon thread that reports its
  in-flight cell's *simulation progress* (systems built, sim cycles)
  over its private result queue a few times per second (one queue per
  worker: a shared queue's cross-process write lock is a non-robust
  semaphore, and a worker SIGKILLed while holding it would wedge every
  other worker's channel);
* **hung-cell watchdog** — a cell whose reported sim progress does not
  change within ``stall_deadline_s`` is declared hung; its worker is
  killed and the cell rescheduled.  The deadline is a *sim-progress*
  deadline, not total-wall-clock guesswork: a slow cell whose clock
  keeps advancing is healthy no matter how long it runs;
* **crash detection** — a worker that dies without delivering a result
  gets its cell rescheduled with exponential backoff and a fresh worker
  respawned in its slot;
* **quarantine** — a cell that fails ``max_cell_failures`` times (by
  crash, hang, or exception) is recorded as quarantined with every
  attempt's traceback, mirroring the runtime's ``IsolationQuarantine``:
  one poisoned cell must not sink an hours-long sweep;
* **pool-health abort** — if workers keep dying without completing any
  cell (a crash storm: broken interpreter, impossible environment), the
  run aborts with a typed :class:`~repro.errors.WorkerCrash` instead of
  spinning forever.  Completed cells are already checkpointed by then.

Workers also write **partial checkpoints** (``<path>.worker-<slot>``)
before reporting a result, so even a ``SIGKILL`` of the *parent*
mid-sweep loses at most the cells that were actually mid-computation;
the next run merges the partials back (see ``harness/parallel.py``).

``concurrent.futures.ProcessPoolExecutor`` is deliberately not used:
killing one hung worker breaks the whole executor (``BrokenProcessPool``)
and it offers no per-task heartbeat channel, so the supervisor manages
``multiprocessing.Process`` workers directly.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CellTimeout, WorkerCrash

#: One schedulable unit: key, a picklable callable, its arguments.  The
#: callable must be a module-level function (pickled by reference) and
#: must return a JSON-safe dict — payloads cross the result pipe and are
#: recorded verbatim into checkpoints.
CellSpec = Tuple[str, Callable[..., Dict[str, object]], Tuple[object, ...]]


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervised pool."""

    #: Worker process count (the CLI's ``--jobs``).
    jobs: int = 2
    #: Seconds between worker heartbeats.
    heartbeat_interval_s: float = 0.2
    #: Sim-progress deadline: a cell whose reported (systems, cycles)
    #: progress stays frozen this long is hung.  Generous by default —
    #: the cost of a false kill is a wasted re-run, the cost of a missed
    #: hang is a stuck sweep.
    stall_deadline_s: float = 30.0
    #: Failures (crash/hang/exception) before a cell is quarantined.
    max_cell_failures: int = 3
    #: Exponential-backoff schedule for rescheduling a failed cell.
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 5.0
    #: Consecutive worker deaths with no completed cell in between before
    #: the pool is declared unhealthy and the run aborts.
    max_pool_failures: int = 8


@dataclass
class CellFailure:
    """One failed attempt at one cell."""

    kind: str  # "crash" | "timeout" | "error"
    detail: str

    def to_jsonable(self) -> Dict[str, object]:
        return {"kind": self.kind, "detail": self.detail}


@dataclass
class SupervisorStats:
    """Counters describing how a supervised run behaved."""

    mode: str = "parallel"  # "parallel" | "serial"
    jobs: int = 1
    cells_completed: int = 0
    cells_restored: int = 0
    retries: int = 0
    worker_crashes: int = 0
    cell_timeouts: int = 0
    cell_errors: int = 0
    workers_spawned: int = 0

    def to_jsonable(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class SupervisorOutcome:
    """Everything a supervised run produced."""

    results: Dict[str, Dict[str, object]] = field(default_factory=dict)
    quarantined: Dict[str, Dict[str, object]] = field(default_factory=dict)
    stats: SupervisorStats = field(default_factory=SupervisorStats)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _WorkerProgress:
    """Mutable slots shared between a worker's main and heartbeat threads.

    Reads and writes of these slots are single-bytecode attribute ops,
    so the heartbeat thread always sees a coherent (if slightly stale)
    view without locking.
    """

    __slots__ = ("key", "systems", "clock")

    def __init__(self) -> None:
        self.key: Optional[str] = None
        self.systems = 0
        self.clock = None  # repro.sim.clock.SimClock of the live system


def _heartbeat_loop(
    worker_id: int,
    result_queue: "multiprocessing.Queue",
    progress: _WorkerProgress,
    interval_s: float,
    parent_pid: int,
) -> None:
    """Daemon thread: report sim progress; die with the parent.

    The progress value is ``(systems_built, sim_cycles)`` — any change
    counts as progress, including a new system being wired (an oracle
    cell builds two).  The ppid check makes orphaned workers exit when
    the parent is SIGKILLed instead of lingering on a dead task queue.
    """
    while True:
        time.sleep(interval_s)
        if os.getppid() != parent_pid:
            os._exit(2)
        key = progress.key
        if key is None:
            continue
        clock = progress.clock
        cycles = clock.now if clock is not None else -1
        try:
            result_queue.put(("hb", worker_id, key, (progress.systems, cycles)))
        except (OSError, ValueError):
            os._exit(2)


def _worker_main(
    worker_id: int,
    slot: int,
    task_queue: "multiprocessing.Queue",
    result_queue: "multiprocessing.Queue",
    heartbeat_interval_s: float,
    partial_path: Optional[str],
    identity: str,
    registry_sidecar: Optional[str] = None,
    registry_ctx: Optional[Dict[str, object]] = None,
) -> None:
    """Worker process: run cells from the task queue until told to stop."""
    # The parent owns interruption: a terminal Ctrl-C goes to the parent,
    # which flushes the checkpoint and tears the pool down deliberately.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_pid = os.getppid()

    progress = _WorkerProgress()

    def observe_system(system: object) -> None:
        progress.systems += 1
        progress.clock = system.clock  # type: ignore[attr-defined]

    from repro.harness import runner as runner_mod
    from repro.harness.checkpoint import SweepCheckpoint

    runner_mod.add_system_observer(observe_system)

    partial: Optional[SweepCheckpoint] = None
    if partial_path is not None:
        # Reload an existing partial (this slot crashed earlier and kept
        # some cells) or start a fresh one.
        try:
            partial = SweepCheckpoint.load(partial_path, identity)
        except Exception:
            partial = SweepCheckpoint(partial_path, identity)

    threading.Thread(
        target=_heartbeat_loop,
        args=(worker_id, result_queue, progress, heartbeat_interval_s,
              parent_pid),
        daemon=True,
    ).start()

    result_queue.put(("ready", worker_id))
    while True:
        try:
            task = task_queue.get(timeout=0.5)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                os._exit(2)
            continue
        if task is None:
            return
        key, fn, args = task
        progress.key = key
        result_queue.put(("start", worker_id, key))
        try:
            payload = fn(*args)
        except BaseException:
            result_queue.put(("fail", worker_id, key, traceback.format_exc()))
            progress.key = None
            continue
        if partial is not None:
            # Persist before reporting: a parent SIGKILL between these
            # two steps loses nothing — the next run merges the partial.
            try:
                partial.record_payload(key, payload)
            except Exception:
                pass  # a broken partial only costs recomputation
        if registry_sidecar is not None:
            # Same ordering for the run-registry sidecar ledger: the cell
            # reaches the registry even if the parent dies before it can
            # merge.  Best-effort — the parent re-records every delivered
            # payload idempotently, so a failed append loses nothing.
            try:
                from repro.registry.recorder import append_payload_records

                append_payload_records(registry_sidecar, key, payload,
                                       registry_ctx)
            except Exception:
                pass
        result_queue.put(("done", worker_id, key, payload))
        progress.key = None


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

@dataclass
class _Worker:
    """Parent-side handle of one worker process."""

    worker_id: int
    slot: int
    process: "multiprocessing.Process"
    task_queue: "multiprocessing.Queue"
    #: This worker's private result/heartbeat channel (see
    #: ``_spawn_worker`` for why it must not be shared).
    result_queue: "multiprocessing.Queue" = None  # type: ignore[assignment]
    cell: Optional[CellSpec] = None
    #: Last heartbeat progress value and when it last *changed*.
    last_progress: object = None
    last_change: float = 0.0

    @property
    def idle(self) -> bool:
        return self.cell is None


class Supervisor:
    """Runs cells on a pool of supervised worker processes.

    ``on_result(key, payload)`` fires (in the parent) for every completed
    cell — the parallel engine checkpoints there.  ``on_quarantine(key,
    record)`` fires when a cell is poisoned.  ``on_event(message)``
    carries human-readable supervision events (crashes, kills, retries).
    """

    def __init__(
        self,
        cells: List[CellSpec],
        config: SupervisorConfig,
        identity: str = "sweep",
        partial_path_for: Optional[Callable[[int], str]] = None,
        on_result: Optional[Callable[[str, Dict[str, object]], None]] = None,
        on_quarantine: Optional[Callable[[str, Dict[str, object]], None]] = None,
        on_event: Optional[Callable[[str], None]] = None,
        registry_sidecar_for: Optional[Callable[[int], str]] = None,
        registry_ctx: Optional[Dict[str, object]] = None,
    ) -> None:
        self.config = config
        self.identity = identity
        self.partial_path_for = partial_path_for
        self.registry_sidecar_for = registry_sidecar_for
        self.registry_ctx = registry_ctx
        self.on_result = on_result
        self.on_quarantine = on_quarantine
        self.on_event = on_event

        self._cells: Dict[str, CellSpec] = {key: (key, fn, args)
                                            for key, fn, args in cells}
        self._pending: "deque[str]" = deque(key for key, _, _ in cells)
        self._deferred: List[Tuple[float, str]] = []  # (eligible_at, key)
        self._failures: Dict[str, List[CellFailure]] = {}
        self.outcome = SupervisorOutcome(
            stats=SupervisorStats(mode="parallel", jobs=config.jobs)
        )

        # fork when the platform has it (cheap, inherits test-registered
        # cell runners), else spawn.
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._pool_failures = 0  # consecutive deaths without a completed cell

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the pool.  Raises on startup failure (caller may then
        degrade to the serial path — the run has not begun)."""
        for slot in range(self.config.jobs):
            self._spawn_worker(slot)

    def _spawn_worker(self, slot: int) -> _Worker:
        self._next_worker_id += 1
        worker_id = self._next_worker_id
        task_queue: multiprocessing.Queue = self._ctx.Queue()
        # One result queue PER worker, never shared.  A shared queue
        # serializes every worker's feeder thread through one
        # cross-process write lock, and that lock is a plain (non-robust)
        # POSIX semaphore: a worker SIGKILLed while its feeder holds it
        # leaves the lock held forever, silently wedging every *other*
        # worker's heartbeats and results.  With a dedicated queue a
        # dying worker can only poison its own channel, which the parent
        # discards when it reaps the death.
        result_queue: multiprocessing.Queue = self._ctx.Queue()
        partial = (self.partial_path_for(slot)
                   if self.partial_path_for is not None else None)
        sidecar = (self.registry_sidecar_for(slot)
                   if self.registry_sidecar_for is not None else None)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, slot, task_queue, result_queue,
                  self.config.heartbeat_interval_s, partial, self.identity,
                  sidecar, self.registry_ctx),
            name=f"sweep-worker-{slot}",
            daemon=True,
        )
        process.start()
        worker = _Worker(worker_id=worker_id, slot=slot, process=process,
                         task_queue=task_queue, result_queue=result_queue,
                         last_change=time.monotonic())
        self._workers[worker_id] = worker
        self.outcome.stats.workers_spawned += 1
        return worker

    def run(self) -> SupervisorOutcome:
        """Drive the pool until every cell is completed or quarantined."""
        try:
            self._loop()
        finally:
            self._shutdown()
        return self.outcome

    # -- main loop -------------------------------------------------------------

    def _accounted(self) -> int:
        return len(self.outcome.results) + len(self.outcome.quarantined)

    def _loop(self) -> None:
        total = len(self._cells)
        tick = max(0.02, self.config.heartbeat_interval_s / 2.0)
        while self._accounted() < total:
            now = time.monotonic()
            self._promote_deferred(now)
            self._assign_idle_workers()
            self._drain_messages(tick)
            now = time.monotonic()
            self._check_watchdog(now)
            self._check_liveness()

    def _promote_deferred(self, now: float) -> None:
        still_waiting: List[Tuple[float, str]] = []
        for eligible_at, key in self._deferred:
            if eligible_at <= now:
                self._pending.append(key)
            else:
                still_waiting.append((eligible_at, key))
        self._deferred = still_waiting

    def _assign_idle_workers(self) -> None:
        for worker in self._workers.values():
            if not worker.idle:
                continue
            key = self._next_runnable()
            if key is None:
                return
            worker.cell = self._cells[key]
            worker.last_progress = None
            worker.last_change = time.monotonic()
            worker.task_queue.put(worker.cell)

    def _next_runnable(self) -> Optional[str]:
        while self._pending:
            key = self._pending.popleft()
            if key in self.outcome.results or key in self.outcome.quarantined:
                continue  # late duplicate (e.g. a kill raced a result)
            return key
        return None

    def _drain_messages(self, timeout_s: float) -> None:
        # Sweep every worker's private channel; sleep one tick only when
        # the whole pool was silent, so a busy pool drains at full speed.
        drained_any = False
        for worker in list(self._workers.values()):
            drained_any |= self._drain_worker_queue(worker.result_queue)
        if not drained_any:
            time.sleep(timeout_s)

    def _drain_worker_queue(self, result_queue: "multiprocessing.Queue") -> bool:
        drained = False
        while True:
            try:
                message = result_queue.get_nowait()
            except queue_mod.Empty:
                return drained
            except (OSError, ValueError, EOFError):
                return drained  # channel torn down mid-drain
            drained = True
            self._handle_message(message)

    def _handle_message(self, message: Tuple[object, ...]) -> None:
        kind = message[0]
        worker_id = message[1]
        worker = self._workers.get(worker_id)  # None: stale (killed) worker
        now = time.monotonic()
        if kind == "ready":
            return
        if kind == "start":
            if worker is not None:
                worker.last_change = now
            return
        if kind == "hb":
            _, _, _key, progress = message
            if worker is not None and progress != worker.last_progress:
                worker.last_progress = progress
                worker.last_change = now
            return
        if kind == "done":
            _, _, key, payload = message
            self._complete(key, payload)  # accept even from stale workers
            if worker is not None:
                worker.cell = None
                worker.last_change = now
            return
        if kind == "fail":
            _, _, key, tb = message
            self.outcome.stats.cell_errors += 1
            if worker is not None:
                worker.cell = None
                worker.last_change = now
            self._record_failure(key, CellFailure("error", tb))
            return
        raise AssertionError(f"unknown worker message {kind!r}")

    def _complete(self, key: str, payload: Dict[str, object]) -> None:
        if key in self.outcome.results:
            return  # duplicate from a rescheduled + stale pair
        self.outcome.results[key] = payload
        self.outcome.quarantined.pop(key, None)
        self.outcome.stats.cells_completed += 1
        self._pool_failures = 0
        if self.on_result is not None:
            self.on_result(key, payload)

    # -- failure handling ------------------------------------------------------

    def _record_failure(self, key: str, failure: CellFailure) -> None:
        if key in self.outcome.results:
            return  # a parallel attempt already completed the cell
        attempts = self._failures.setdefault(key, [])
        attempts.append(failure)
        if len(attempts) >= self.config.max_cell_failures:
            record: Dict[str, object] = {
                "status": "QUARANTINED",
                "failures": [f.to_jsonable() for f in attempts],
                "traceback": attempts[-1].detail,
            }
            self.outcome.quarantined[key] = record
            self._emit(f"quarantined {key!r} after {len(attempts)} failures "
                       f"(last: {failure.kind})")
            if self.on_quarantine is not None:
                self.on_quarantine(key, record)
            return
        delay = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * (2 ** (len(attempts) - 1)),
        )
        self.outcome.stats.retries += 1
        self._emit(f"rescheduling {key!r} in {delay:.2f}s "
                   f"(failure {len(attempts)}: {failure.kind})")
        self._deferred.append((time.monotonic() + delay, key))

    def _check_watchdog(self, now: float) -> None:
        deadline = self.config.stall_deadline_s
        for worker in list(self._workers.values()):
            if worker.idle or now - worker.last_change <= deadline:
                continue
            key = worker.cell[0] if worker.cell else "?"
            self.outcome.stats.cell_timeouts += 1
            timeout = CellTimeout(
                f"cell {key!r}: no sim progress for {deadline:.1f}s "
                f"(last heartbeat {worker.last_progress!r}); "
                f"killing worker {worker.worker_id}"
            )
            self._emit(str(timeout))
            self._kill_worker(worker)
            self._record_failure(key, CellFailure("timeout", str(timeout)))
            self._spawn_worker(worker.slot)

    def _check_liveness(self) -> None:
        for worker in list(self._workers.values()):
            if worker.process.is_alive():
                continue
            del self._workers[worker.worker_id]
            # Final best-effort drain: a "done" the worker delivered just
            # before dying must still count.
            self._drain_worker_queue(worker.result_queue)
            self._discard_queue(worker.result_queue)
            self.outcome.stats.worker_crashes += 1
            self._pool_failures += 1
            if worker.cell is not None:
                key = worker.cell[0]
                crash = WorkerCrash(
                    f"worker {worker.worker_id} died "
                    f"(exitcode {worker.process.exitcode}) running {key!r}"
                )
                self._emit(str(crash))
                self._record_failure(key, CellFailure("crash", str(crash)))
            else:
                self._emit(f"idle worker {worker.worker_id} died "
                           f"(exitcode {worker.process.exitcode})")
            if self._pool_failures > self.config.max_pool_failures:
                raise WorkerCrash(
                    f"worker pool unhealthy: {self._pool_failures} "
                    f"consecutive worker deaths without a completed cell; "
                    f"aborting (completed cells are checkpointed)"
                )
            self._spawn_worker(worker.slot)

    # -- teardown --------------------------------------------------------------

    def _kill_worker(self, worker: _Worker) -> None:
        del self._workers[worker.worker_id]
        with_suppress_kill(worker.process)
        # A watchdog-killed worker's channel is stale by definition (no
        # progress for a full deadline) — discard it unread.
        self._discard_queue(worker.result_queue)

    @staticmethod
    def _discard_queue(result_queue: "multiprocessing.Queue") -> None:
        try:
            result_queue.cancel_join_thread()
            result_queue.close()
        except (OSError, ValueError):
            pass

    def _shutdown(self) -> None:
        for worker in self._workers.values():
            try:
                worker.task_queue.put_nowait(None)
            except (OSError, ValueError, queue_mod.Full):
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers.values():
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                with_suppress_kill(worker.process)
            self._discard_queue(worker.result_queue)
        self._workers.clear()

    def _emit(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event(message)


def with_suppress_kill(process: "multiprocessing.Process") -> None:
    """SIGKILL a worker and reap it, ignoring already-dead races."""
    try:
        process.kill()
    except (OSError, ValueError, AttributeError):
        pass
    process.join(timeout=2.0)
