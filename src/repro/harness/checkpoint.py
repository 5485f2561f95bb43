"""Crash-safe harness recovery.

Long sweeps (every app x variant x sweep point) can be killed — by the
machine, the batch scheduler, or an impatient operator — with most of the
work already done.  This module makes that survivable:

* every finished cell is appended to a JSON checkpoint file, written
  atomically (write a temp file in the same directory, then ``os.replace``
  it over the old checkpoint) so a crash mid-write never corrupts the
  previous state;
* a restarted sweep passed ``resume=True`` (see
  :func:`repro.harness.parallel.run_cells_parallel`) loads the
  checkpoint, skips every completed cell, and recomputes only the
  missing ones — the reassembled results are identical to an
  uninterrupted run because every cell is seeded independently;
* version and identity mismatches (a checkpoint from a different sweep or
  an incompatible format) raise a typed
  :class:`~repro.errors.CheckpointError` instead of silently mixing
  incompatible results.
"""

from __future__ import annotations

import contextlib
import json
import signal
import threading
from typing import Callable, Dict, Iterator, List, Tuple

from repro.errors import CheckpointError
from repro.registry.store import atomic_write_text

#: Bump when the checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 1


def atomic_write_json(path: str, obj: object) -> None:
    """Write ``obj`` as JSON to ``path`` atomically and durably.

    A JSON wrapper over :func:`repro.registry.store.atomic_write_text`:
    readers see the old or the new complete file, never a torn write.
    """
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True))


@contextlib.contextmanager
def flush_on_signals(
    flush: Callable[[], None],
    signums: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[None]:
    """Install handlers that flush a checkpoint before dying.

    A Ctrl-C'd (SIGINT) or terminated (SIGTERM) sweep flushes its
    checkpoint and then exits the way the signal intended — SIGINT
    re-raises as :class:`KeyboardInterrupt`, SIGTERM as ``SystemExit``
    with the conventional ``128 + signum`` status — so the next
    ``--resume`` restores every completed cell.  Outside the main thread
    (where Python forbids installing handlers) this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    previous: Dict[int, object] = {}

    def handler(signum: int, frame: object) -> None:
        try:
            flush()
        finally:
            for num, old in previous.items():
                signal.signal(num, old)  # type: ignore[arg-type]
        if signum == signal.SIGINT:
            raise KeyboardInterrupt
        raise SystemExit(128 + signum)

    try:
        for signum in signums:
            previous[signum] = signal.signal(signum, handler)
    except (ValueError, OSError):
        # Embedded interpreter or exotic platform: run unguarded.
        for num, old in previous.items():
            signal.signal(num, old)  # type: ignore[arg-type]
        yield
        return
    try:
        yield
    finally:
        for num, old in previous.items():
            signal.signal(num, old)  # type: ignore[arg-type]


class SweepCheckpoint:
    """Checkpointed per-cell results of one sweep.

    Cells are keyed by a caller-chosen string (e.g. ``"disks=4/agrep/
    speculating"``).  The ``identity`` string names the sweep; resuming
    against a checkpoint written by a different sweep is a typed error.
    """

    def __init__(self, path: str, identity: str) -> None:
        self.path = path
        self.identity = identity
        self._cells: Dict[str, Dict[str, object]] = {}
        #: Poisoned cells: key -> quarantine record (failure kinds and
        #: tracebacks).  Kept separate from ``cells`` so resuming retries
        #: them — quarantine documents a completed run, it is not a
        #: permanent verdict on the cell.
        self._quarantined: Dict[str, Dict[str, object]] = {}

    # -- persistence ----------------------------------------------------------

    @classmethod
    def load(cls, path: str, identity: str) -> "SweepCheckpoint":
        """Load an existing checkpoint; typed errors on any corruption."""
        checkpoint = cls(path, identity)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise CheckpointError(
                f"no checkpoint at {path!r} to resume from"
            ) from None
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} is unreadable or corrupt: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise CheckpointError(f"checkpoint {path!r}: not a JSON object")
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r}: version {version!r} is not "
                f"{CHECKPOINT_VERSION}"
            )
        stored_identity = data.get("identity")
        if stored_identity != identity:
            raise CheckpointError(
                f"checkpoint {path!r} belongs to sweep {stored_identity!r}, "
                f"not {identity!r}"
            )
        cells = data.get("cells")
        if not isinstance(cells, dict):
            raise CheckpointError(f"checkpoint {path!r}: no cell table")
        checkpoint._cells = cells
        quarantined = data.get("quarantined", {})
        if not isinstance(quarantined, dict):
            raise CheckpointError(f"checkpoint {path!r}: bad quarantine table")
        checkpoint._quarantined = quarantined
        return checkpoint

    def flush(self) -> None:
        """Persist the current state atomically; typed error on failure."""
        state: Dict[str, object] = {
            "version": CHECKPOINT_VERSION,
            "identity": self.identity,
            "cells": self._cells,
        }
        if self._quarantined:
            state["quarantined"] = self._quarantined
        try:
            atomic_write_json(self.path, state)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {self.path!r}: {exc}"
            ) from exc

    # -- cells -----------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def keys(self) -> List[str]:
        return sorted(self._cells)

    def record_payload(self, key: str, payload: Dict[str, object]) -> None:
        """Store one finished cell's raw JSON payload and flush."""
        self._cells[key] = payload
        self._quarantined.pop(key, None)
        self.flush()

    def payload(self, key: str) -> Dict[str, object]:
        """One cell's raw JSON payload; typed error when absent."""
        try:
            return self._cells[key]
        except KeyError:
            raise CheckpointError(f"checkpoint has no cell {key!r}") from None

    # -- quarantine ------------------------------------------------------------

    @property
    def quarantined(self) -> Dict[str, Dict[str, object]]:
        """Quarantine records of poisoned cells (read-only view)."""
        return dict(self._quarantined)

    def record_quarantine(self, key: str, record: Dict[str, object]) -> None:
        """Mark one cell as poisoned (with its failure record) and flush."""
        self._quarantined[key] = record
        self.flush()

    def merge_from(self, other: "SweepCheckpoint") -> int:
        """Adopt cells from ``other`` (same identity) that we lack.

        Returns the number of cells adopted.  Used by the parallel engine
        to fold per-worker partial checkpoints into the main one; the
        caller flushes once after merging every partial, so the merge is
        atomic with respect to crashes (the main checkpoint is either the
        old or the fully merged state).
        """
        if other.identity != self.identity:
            raise CheckpointError(
                f"cannot merge checkpoint of sweep {other.identity!r} "
                f"into {self.identity!r}"
            )
        adopted = 0
        for key, payload in other._cells.items():
            if key not in self._cells:
                self._cells[key] = payload
                adopted += 1
        return adopted

