"""Turns harness cell payloads into registry records.

The harness ships cell outcomes between processes as plain jsonable
payloads (``RunResult.to_jsonable()`` dicts, oracle-cell dicts, fuzz-cell
dicts).  This module is the one place that knows how to map each payload
shape onto :class:`~repro.registry.record.RunRecord` values — it runs
identically inside supervised worker processes (appending to per-worker
sidecar ledgers) and in the serial path (recording directly), which is
what makes a serial registry and a ``--jobs N`` registry byte-identical.

Classification is structural, mirroring how the checkpoints store the
same payloads without a type tag:

* ``{"case": ..., "violations": ...}`` — a fuzz cell;
* ``{"profile": ..., "violations": ...}`` — a differential-oracle cell
  (with optional ``original``/``speculating`` RunResult sub-payloads);
* ``{"app": ..., "cycles": ...}`` — a plain RunResult.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.errors import RegistryError
from repro.registry.fingerprint import chaos_key, code_version, plan_key
from repro.registry.record import RunRecord
from repro.registry.store import JsonlStore, RunRegistry

Payload = Mapping[str, object]

#: Variant label for records that compare variants rather than being one.
DIFFERENTIAL = "differential"


def _ctx_value(ctx: Optional[Mapping[str, object]], key: str, default: object):
    if ctx is None:
        return default
    return ctx.get(key, default)


def _base_kwargs(ctx: Optional[Mapping[str, object]]) -> Dict[str, object]:
    return {
        "code_version": str(
            _ctx_value(ctx, "code_version", None) or code_version()
        ),
        "parent_id": _ctx_value(ctx, "parent_id", None),
    }


def _run_record(
    key: Optional[str], payload: Payload, ctx: Optional[Mapping[str, object]]
) -> RunRecord:
    return RunRecord(
        app=str(payload.get("app", "")),
        variant=str(payload.get("variant", "")),
        kind=str(_ctx_value(ctx, "kind", "run")),
        params_digest=str(payload.get("params_digest", "")),
        seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
        chaos_profile=chaos_key(payload.get("fault_profile")),  # type: ignore[arg-type]
        cell_key=key,
        result=dict(payload),
        trace_summary=_ctx_value(ctx, "trace_summary", None),  # type: ignore[arg-type]
        tuning=payload.get("tuning_provenance"),  # type: ignore[arg-type]
        **_base_kwargs(ctx),  # type: ignore[arg-type]
    )


def _differential_record(
    kind: str, app: object, chaos_profile: str, key: Optional[str],
    payload: Payload, result: Dict[str, object],
    ctx: Optional[Mapping[str, object]],
) -> RunRecord:
    """A fuzz or oracle cell: its identity, result and monitor verdicts."""
    return RunRecord(
        app=str(app or ""),
        variant=DIFFERENTIAL,
        kind=kind,
        params_digest=str(payload.get("params_digest", "")),
        seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
        chaos_profile=chaos_profile,
        cell_key=key,
        result=result,
        verdicts=list(payload.get("violations") or []),  # type: ignore[arg-type]
        **_base_kwargs(ctx),  # type: ignore[arg-type]
    )


def _fuzz_records(
    key: Optional[str], payload: Payload, ctx: Optional[Mapping[str, object]]
) -> List[RunRecord]:
    case = payload.get("case")
    if not isinstance(case, dict):
        raise RegistryError(
            f"fuzz payload for cell {key!r} has no case object"
        )
    plan = case.get("plan")
    chaos = plan_key(plan) if isinstance(plan, dict) else "none"
    return [_differential_record("fuzz-case", case.get("app"), chaos, key,
                                 payload, dict(payload), ctx)]


def _oracle_records(
    key: Optional[str], payload: Payload, ctx: Optional[Mapping[str, object]]
) -> List[RunRecord]:
    variants = {
        name: payload[name]
        for name in ("original", "speculating")
        if isinstance(payload.get(name), dict)
    }
    summary = {
        name: value for name, value in payload.items()
        if name not in variants
    }
    cell = _differential_record(
        "oracle-cell", payload.get("app"),
        chaos_key(payload.get("profile")),  # type: ignore[arg-type]
        key, payload, summary, ctx,
    )
    records = [cell]
    for name, sub in sorted(variants.items()):
        child_ctx = {
            "kind": "oracle-variant",
            "parent_id": cell.run_id,
            "code_version": cell.code_version,
        }
        records.append(_run_record(
            f"{key}/{name}" if key else name, sub, child_ctx  # type: ignore[arg-type]
        ))
    return records


def records_for_payload(
    key: Optional[str],
    payload: Payload,
    ctx: Optional[Mapping[str, object]] = None,
) -> List[RunRecord]:
    """Map one harness cell payload onto its registry records."""
    if "case" in payload and "violations" in payload:
        return _fuzz_records(key, payload, ctx)
    if "profile" in payload and "violations" in payload:
        return _oracle_records(key, payload, ctx)
    if "app" in payload and "cycles" in payload:
        return [_run_record(key, payload, ctx)]
    raise RegistryError(
        f"cell {key!r} payload matches no known shape (keys: "
        f"{sorted(payload)[:8]}); cannot derive registry records"
    )


def record_group(
    registry_path: str, kind: str, meta: Dict[str, object]
) -> Dict[str, object]:
    """Write a grid's group record; returns its cells' record context.

    The group record is a pure function of the grid's identity (no
    results, no clock), so serial and parallel runs — and re-runs — all
    produce the same parent run id and deduplicate onto one ledger line.
    """
    version = code_version()
    registry = RunRegistry.open(registry_path)
    try:
        parent_id = registry.record(
            RunRecord(kind=kind, code_version=version, meta=meta)
        )
        registry.compact()
    finally:
        registry.close()
    return {"parent_id": parent_id, "code_version": version}


def record_payload(
    registry: RunRegistry,
    key: Optional[str],
    payload: Payload,
    ctx: Optional[Mapping[str, object]] = None,
    durable: bool = True,
) -> List[str]:
    """Record a payload's records directly (serial path); returns ids.

    ``durable=False`` is the bulk path: callers recording a whole sweep
    must compact afterwards, which persists the batch atomically.
    """
    return [
        registry.record(r, durable=durable)
        for r in records_for_payload(key, payload, ctx)
    ]


def append_payload_records(
    sidecar_path: str,
    key: Optional[str],
    payload: Payload,
    ctx: Optional[Mapping[str, object]] = None,
) -> None:
    """Append a payload's records to a worker sidecar ledger.

    Runs inside supervised worker processes *before* the result is
    reported, mirroring the partial-checkpoint ordering: a cell whose
    record reached a sidecar survives the parent dying, and the parent
    re-records every delivered payload anyway (idempotently), so a torn
    sidecar never loses data.
    """
    store = JsonlStore(sidecar_path)
    for record in records_for_payload(key, payload, ctx):
        store.put(record.to_jsonable())
