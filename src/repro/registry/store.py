"""Crash-safe persistent store for the run registry.

:class:`JsonlStore` is an append-only ledger of one canonical JSON line
per record.  Appends are fsynced; a torn final line (power-loss
mid-append) is ignored on load and healed by the next
:meth:`~JsonlStore.compact`, which rewrites the ledger sorted by run id
so a serial and a ``--jobs N`` run of the same cells leave identical
bytes.  Records deduplicate by ``run_id``: recording the same content
twice is a no-op, which is what makes parallel-worker sidecar merges and
resume-replays idempotent.

:func:`atomic_write_text` is the project's one write-temp / fsync /
rename / directory-fsync helper; harness checkpoints and reports write
through it too.

No imports from :mod:`repro.harness` — the harness imports this package
while its own package init is still running, so the registry must stay a
leaf (stdlib + ``repro.errors`` + sibling registry modules only).
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.errors import RegistryError, UnknownRunError
from repro.registry.fingerprint import canonical_json
from repro.registry.record import GROUP_KINDS, RunRecord, group_key

_SQLITE_MAGIC = b"SQLite format 3"


def _fsync_directory(directory: str) -> None:
    """Flush a directory's metadata so a just-renamed entry is durable.

    ``os.replace`` makes the rename atomic with respect to readers, but a
    power-loss-style kill can still roll it back unless the containing
    directory is fsynced too.  Best-effort: filesystems that reject
    directory fsync (some network mounts) keep the old guarantee.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` atomically and durably.

    The temp file lives in the target's directory so ``os.replace`` is a
    same-filesystem rename: readers observe either the old complete file
    or the new complete file, never a torn write.  The temp file's data
    is fsynced before the rename and the directory after it, so the new
    file survives a power-loss-style kill as well as a process kill.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    _fsync_directory(directory)


class JsonlStore:
    """Append-only JSONL ledger, one canonical record line per run."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._records: Dict[str, Dict[str, object]] = {}
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            raw = handle.read()
        if raw.startswith(_SQLITE_MAGIC):
            raise RegistryError(
                f"registry {self.path!r} is a SQLite database; SQLite "
                "ledgers are no longer supported, use a .jsonl path"
            )
        lines = raw.decode("utf-8", errors="replace").splitlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError:
                if index == len(lines) - 1:
                    # Torn final append (crash mid-write): ignore; the next
                    # compact() rewrites the file without it.
                    continue
                raise RegistryError(
                    f"registry {self.path!r} line {index + 1} is not JSON "
                    "(corrupt ledger; only the *final* line may be torn)"
                )
            run_id = str(data.get("run_id", ""))
            if run_id:
                self._records[run_id] = data

    def put(self, data: Dict[str, object], durable: bool = True) -> bool:
        """Add a record; returns False on content-addressed dedup.

        With ``durable=False`` the record lands in memory only and is
        persisted by the next :meth:`compact` (one atomic rename instead
        of one fsync per record) — the bulk path for parents merging a
        finished sweep, whose payloads already survive in the worker
        sidecars and the checkpoint.
        """
        run_id = str(data["run_id"])
        if run_id in self._records:
            return False
        self._records[run_id] = data
        if durable:
            line = canonical_json(data) + "\n"
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        return True

    def get(self, run_id: str) -> Optional[Dict[str, object]]:
        return self._records.get(run_id)

    def ids(self) -> List[str]:
        return sorted(self._records)

    def all(self) -> List[Dict[str, object]]:
        return [self._records[run_id] for run_id in self.ids()]

    def delete(self, run_id: str) -> bool:
        """Drop a record in memory; the next :meth:`compact` persists it."""
        if run_id not in self._records:
            return False
        del self._records[run_id]
        return True

    def compact(self) -> None:
        """Rewrite the ledger as one canonical line per record, sorted.

        Sorting by content-addressed ``run_id`` is what erases insertion
        -order noise: a serial sweep and a parallel sweep arrive at the
        same set of records in different orders, and compaction folds
        both into identical bytes.
        """
        text = "".join(
            canonical_json(self._records[run_id]) + "\n" for run_id in self.ids()
        )
        atomic_write_text(self.path, text)

    def close(self) -> None:
        return None


class RunRegistry:
    """Facade over the ledger: typed records, queries, lineage, merge, gc."""

    def __init__(self, store: JsonlStore) -> None:
        self.store = store

    @classmethod
    def open(cls, path: str) -> "RunRegistry":
        return cls(JsonlStore(path))

    @property
    def path(self) -> str:
        return self.store.path

    def close(self) -> None:
        self.store.close()

    # -- writing -----------------------------------------------------------

    def record(self, record: RunRecord, durable: bool = True) -> str:
        """Store a record (idempotent); returns its run id.

        ``durable=False`` defers persistence to the next :meth:`compact`
        — the bulk path (see :meth:`JsonlStore.put`).
        """
        self.store.put(record.to_jsonable(), durable=durable)
        return record.run_id

    def record_jsonable(self, data: Dict[str, object]) -> str:
        """Store a serialized record after validating it round-trips."""
        record = RunRecord.from_jsonable(data)
        return self.record(record)

    def merge_file(self, path: str) -> int:
        """Adopt every record from a sidecar JSONL file; returns adds.

        Non-durable puts: every merge is followed by a compact, which
        persists the batch atomically.
        """
        sidecar = JsonlStore(path)
        added = 0
        for data in sidecar.all():
            record = RunRecord.from_jsonable(data)
            if self.store.put(record.to_jsonable(), durable=False):
                added += 1
        return added

    def compact(self) -> None:
        self.store.compact()

    # -- reading -----------------------------------------------------------

    def get(self, run_id: str) -> RunRecord:
        data = self.store.get(run_id)
        if data is None:
            raise UnknownRunError(f"no registry record with run id {run_id!r}")
        return RunRecord.from_jsonable(data)

    def find(self, prefix: str) -> RunRecord:
        """Resolve a unique run-id prefix; ambiguity is an error."""
        matches = [run_id for run_id in self.store.ids() if run_id.startswith(prefix)]
        if not matches:
            raise UnknownRunError(
                f"no registry record matches run id prefix {prefix!r}"
            )
        if len(matches) > 1:
            shown = ", ".join(matches[:4])
            raise UnknownRunError(
                f"run id prefix {prefix!r} is ambiguous ({len(matches)} "
                f"matches: {shown}{'...' if len(matches) > 4 else ''})"
            )
        return self.get(matches[0])

    def records(self) -> List[RunRecord]:
        return [RunRecord.from_jsonable(data) for data in self.store.all()]

    def query(
        self,
        app: Optional[str] = None,
        variant: Optional[str] = None,
        kind: Optional[str] = None,
        chaos_profile: Optional[str] = None,
        params_digest: Optional[str] = None,
        seed: Optional[int] = None,
        parent_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Filter records by identity columns (sorted by run id)."""
        out: List[RunRecord] = []
        for record in self.records():
            if app is not None and record.app != app:
                continue
            if variant is not None and record.variant != variant:
                continue
            if kind is not None and record.kind != kind:
                continue
            if chaos_profile is not None and record.chaos_profile != chaos_profile:
                continue
            if params_digest is not None and record.params_digest != params_digest:
                continue
            if seed is not None and record.seed != seed:
                continue
            if parent_id is not None and record.parent_id != parent_id:
                continue
            out.append(record)
            if limit is not None and len(out) >= limit:
                break
        return out

    # -- lineage -----------------------------------------------------------

    def children(self, run_id: str) -> List[RunRecord]:
        return self.query(parent_id=run_id)

    def ancestors(self, run_id: str) -> List[RunRecord]:
        """Parent chain, nearest first; tolerates a pruned parent."""
        chain: List[RunRecord] = []
        seen = {run_id}
        current = self.get(run_id)
        while current.parent_id and current.parent_id not in seen:
            data = self.store.get(current.parent_id)
            if data is None:
                break
            current = RunRecord.from_jsonable(data)
            seen.add(current.run_id)
            chain.append(current)
        return chain

    def lineage(self, run_id: str) -> Dict[str, object]:
        """Jsonable lineage view: ancestors, the run, its descendants."""
        record = self.find(run_id)

        def _tree(node: RunRecord) -> Dict[str, object]:
            return {
                "run_id": node.run_id,
                "kind": node.kind,
                "app": node.app,
                "variant": node.variant,
                "cell_key": node.cell_key,
                "children": [_tree(child) for child in self.children(node.run_id)],
            }

        return {
            "run_id": record.run_id,
            "ancestors": [
                {"run_id": a.run_id, "kind": a.kind, "cell_key": a.cell_key}
                for a in self.ancestors(record.run_id)
            ],
            "tree": _tree(record),
        }

    # -- garbage collection ------------------------------------------------

    def gc(self, keep: int, dry_run: bool = False) -> List[str]:
        """Prune leaf records beyond ``keep`` per population group.

        Within each :func:`group_key` population the ``keep``
        lexicographically-greatest run ids survive (content-addressed ids
        carry no time order, so any deterministic rule is as good as
        another).  Descendants of pruned records and group records left
        with no children are pruned too.  The prune is persisted by one atomic :meth:`compact`,
        so it lands all or nothing.  Returns the pruned ids, sorted.
        """
        if keep < 1:
            raise RegistryError(f"gc keep must be >= 1, got {keep}")
        records = self.records()
        by_group: Dict[Tuple[str, str, str, str, str], List[RunRecord]] = {}
        for record in records:
            if record.kind in GROUP_KINDS:
                continue
            by_group.setdefault(group_key(record), []).append(record)
        doomed = set()
        for members in by_group.values():
            members.sort(key=lambda r: r.run_id, reverse=True)
            doomed.update(r.run_id for r in members[keep:])
        # Cascade: descendants of pruned records go too.
        parent_of = {r.run_id: r.parent_id for r in records}
        changed = True
        while changed:
            changed = False
            for run_id, parent in parent_of.items():
                if run_id not in doomed and parent in doomed:
                    doomed.add(run_id)
                    changed = True
        # Group records whose every child was pruned follow their children.
        for record in records:
            if record.kind not in GROUP_KINDS or record.run_id in doomed:
                continue
            child_ids = [r.run_id for r in records if r.parent_id == record.run_id]
            if child_ids and all(c in doomed for c in child_ids):
                doomed.add(record.run_id)
        pruned = sorted(doomed)
        if not dry_run:
            for run_id in pruned:
                self.store.delete(run_id)
            self.compact()
        return pruned


def merge_worker_sidecars(registry: RunRegistry, base_path: str) -> int:
    """Merge (and remove) every ``<base>.reg-worker-*`` sidecar ledger."""
    directory = os.path.dirname(os.path.abspath(base_path)) or "."
    prefix = os.path.basename(base_path) + ".reg-worker-"
    added = 0
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return 0
    for name in names:
        if not name.startswith(prefix):
            continue
        path = os.path.join(directory, name)
        added += registry.merge_file(path)
        with contextlib.suppress(OSError):
            os.unlink(path)
    return added


def sidecar_path(base_path: str, slot: int) -> str:
    """Per-worker sidecar ledger path for registry base ``base_path``."""
    return f"{base_path}.reg-worker-{slot}"
