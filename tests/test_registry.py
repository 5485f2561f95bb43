"""Tests for the persistent run registry (ledger, lineage, tuning).

Covers the full registry stack: identity fingerprints, content-addressed
records, the JSONL ledger with its crash-safety semantics, payload
classification, similarity search, the baseline-population regression
detector (including the planted-slowdown acceptance scenario), garbage
collection, the auto-tuner with provenance replay, and the ``repro
runs`` / ``--auto-tune`` CLI surface.
"""

import json
import os
import sqlite3

import pytest

from repro.errors import RegistryError, UnknownRunError
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.results import (
    RESULT_SCHEMA_VERSION,
    RunResult,
)
from repro.harness.runner import run_experiment
from repro.registry.fingerprint import (
    TUNABLE_SPEC_PARAMS,
    chaos_key,
    code_version,
    digest_of,
    feature_vector,
    params_digest,
    plan_key,
    spec_tunables,
)
from repro.registry.record import (
    REGISTRY_SCHEMA_VERSION,
    RunRecord,
    group_key,
)
from repro.registry.recorder import (
    append_payload_records,
    record_payload,
    records_for_payload,
)
from repro.registry.regression import (
    check_all,
    check_run,
    parse_match_keys,
)
from repro.registry.similarity import similar_runs
from repro.registry import store as store_mod
from repro.registry.store import (
    JsonlStore,
    RunRegistry,
    merge_worker_sidecars,
    sidecar_path,
)
from repro.registry.tuner import (
    AutoTuner,
    apply_proposal,
    apply_provenance,
    validate_spec_params,
)

SCALE = 0.1


# ---------------------------------------------------------------------------
# Synthetic payload / record factories
# ---------------------------------------------------------------------------

def run_payload(app="agrep", variant="speculating", seed=1999,
                cycles=4_000_000, lead=900_000.0, wasted=0, disclosed=27,
                pdigest="0123456789abcdef", chaos=None, spec_params=None,
                isolation=0, watchdog=False, **extra):
    payload = {
        "app": app,
        "variant": variant,
        "cycles": cycles,
        "counters": {"app.workload_completed_cycle": cycles},
        "hint_lead_median": lead,
        "hint_lifecycle": {"disclosed": disclosed, "consumed": disclosed,
                           "cancelled": 0, "wasted": wasted, "open": 0},
        "stall_breakdown": {"wall": cycles, "compute": cycles // 2,
                            "checks": cycles // 10,
                            "demand_stall": cycles // 4,
                            "other": cycles // 10},
        "pct_prefetches_before_demand": 80.0,
        "params_digest": pdigest,
        "seed": seed,
        "spec_params": spec_params or {"throttle_cancel_limit": 0,
                                       "throttle_disable_reads": 32},
        "fault_profile": chaos,
        "isolation_violations": isolation,
        "watchdog_tripped": watchdog,
    }
    payload.update(extra)
    return payload


def make_record(**kwargs):
    payload = run_payload(**{k: v for k, v in kwargs.items()
                             if k not in ("kind", "parent_id", "cell_key")})
    ctx = {k: kwargs[k] for k in ("kind", "parent_id") if k in kwargs}
    return records_for_payload(kwargs.get("cell_key"), payload, ctx)[0]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_params_digest_pools_seeds_but_not_scales(self):
        base = ExperimentConfig(app="agrep", workload_scale=SCALE)
        reseeded = base.with_(system=base.system.replace(seed=2003))
        other_app = base.with_(app="gnuld")
        rescaled = base.with_(workload_scale=0.2)
        assert params_digest(base) == params_digest(reseeded)
        assert params_digest(base) == params_digest(other_app)
        assert params_digest(base) != params_digest(rescaled)

    def test_chaos_keys(self):
        assert chaos_key(None) == "none"
        assert chaos_key("none") == "none"
        assert chaos_key("stuck-disk") == "stuck-disk"
        plan = {"name": "fuzz-7-0", "slow_factor": 10.0}
        key = chaos_key(None, plan)
        assert key.startswith("fuzz-7-0:")
        assert key == plan_key(plan)
        assert plan_key({"name": "fuzz-7-0", "slow_factor": 20.0}) != key

    def test_spec_tunables_covers_exactly_the_knobs(self):
        cfg = ExperimentConfig(app="agrep")
        tunables = spec_tunables(cfg.system.spechint)
        assert tuple(sorted(tunables)) == tuple(sorted(TUNABLE_SPEC_PARAMS))

    def test_feature_vector_is_normalized(self):
        vec = feature_vector(run_payload())
        assert len(vec) == 6
        assert abs(sum(vec[:4]) - 1.0) < 1e-9
        assert feature_vector({}) == (0.0,) * 6

    def test_code_version_env_override(self, monkeypatch):
        assert code_version() == "repro-fp1"
        monkeypatch.setenv("REPRO_CODE_VERSION", "deadbeef")
        assert code_version() == "deadbeef"

    def test_digest_is_order_insensitive(self):
        assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})


# ---------------------------------------------------------------------------
# Records: content addressing + schema versioning
# ---------------------------------------------------------------------------

class TestRunRecord:
    def test_run_id_is_content_addressed(self):
        a = make_record(seed=1999)
        b = make_record(seed=1999)
        c = make_record(seed=2000)
        assert a.run_id == b.run_id
        assert a.run_id != c.run_id
        assert len(a.run_id) == 24

    def test_round_trip(self):
        record = make_record(kind="sweep-cell", cell_key="disks=4/agrep")
        data = record.to_jsonable()
        assert data["schema_version"] == REGISTRY_SCHEMA_VERSION
        again = RunRecord.from_jsonable(data)
        assert again == record
        assert again.run_id == record.run_id

    def test_unknown_schema_version_rejected(self):
        data = make_record().to_jsonable()
        data["schema_version"] = 99
        with pytest.raises(RegistryError, match="schema_version"):
            RunRecord.from_jsonable(data)

    def test_tampered_record_fails_content_check(self):
        data = make_record().to_jsonable()
        data["seed"] = 4242
        with pytest.raises(RegistryError, match="content check"):
            RunRecord.from_jsonable(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RegistryError, match="kind"):
            make_record(kind="banana")

    def test_metric_values(self):
        values = make_record(cycles=1000, wasted=3, disclosed=30,
                             lead=250.0).metric_values()
        assert values == {"elapsed_cycles": 1000.0,
                          "hint_lead_median": 250.0,
                          "wasted_prefetch_fraction": 0.1}

    def test_metric_values_none_for_mapping_cycles(self):
        # Fuzz cells carry per-variant cycle mappings, not one scalar.
        record = make_record()
        record.result["cycles"] = {"original": 1, "speculating": 2}
        assert record.metric_values() is None

    def test_group_key_pools_identity(self):
        a = make_record(seed=1999)
        b = make_record(seed=2003)
        c = make_record(chaos="stuck-disk")
        assert group_key(a) == group_key(b)
        assert group_key(a) != group_key(c)


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------

class TestStores:
    def test_put_get_dedup_reload(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        record = make_record()
        store = JsonlStore(path)
        assert store.put(record.to_jsonable()) is True
        assert store.put(record.to_jsonable()) is False  # content dedup
        store.close()
        store = JsonlStore(path)
        assert store.ids() == [record.run_id]
        assert store.get(record.run_id) == record.to_jsonable()
        store.close()

    def test_jsonl_tolerates_torn_final_line(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        store = JsonlStore(path)
        store.put(make_record(seed=1).to_jsonable())
        store.put(make_record(seed=2).to_jsonable())
        store.close()
        with open(path, "a") as handle:
            handle.write('{"schema_version": 1, "app": "agr')  # torn write
        reloaded = JsonlStore(path)
        assert len(reloaded.ids()) == 2

    def test_jsonl_rejects_mid_file_corruption(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        store = JsonlStore(path)
        store.put(make_record(seed=1).to_jsonable())
        store.close()
        with open(path) as handle:
            good = handle.read()
        with open(path, "w") as handle:
            handle.write("garbage not json\n" + good)
        with pytest.raises(RegistryError):
            JsonlStore(path)

    @staticmethod
    def _sqlite_file(path):
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        return path

    def test_jsonl_rejects_sqlite_file(self, tmp_path):
        path = self._sqlite_file(str(tmp_path / "ledger.jsonl"))
        with pytest.raises(RegistryError, match="SQLite"):
            JsonlStore(path)

    def test_open_rejects_existing_sqlite_ledger(self, tmp_path):
        path = self._sqlite_file(str(tmp_path / "x.db"))
        with pytest.raises(RegistryError,
                           match=r"no longer supported.*\.jsonl"):
            RunRegistry.open(path)

    def test_compact_is_canonical_sorted_form(self, tmp_path):
        a, b = make_record(seed=1), make_record(seed=2)
        first, second = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for path, order in ((first, (a, b)), (second, (b, a))):
            store = JsonlStore(path)
            for record in order:
                store.put(record.to_jsonable())
            store.compact()
            store.close()
        with open(first, "rb") as handle:
            left = handle.read()
        with open(second, "rb") as handle:
            right = handle.read()
        assert left == right  # insertion order compacted away

    def test_registry_find_by_prefix(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        record = make_record()
        registry.record(record)
        assert registry.find(record.run_id[:6]).run_id == record.run_id
        with pytest.raises(UnknownRunError, match="no registry record"):
            registry.find("ffffff")
        registry.close()

    def test_registry_find_ambiguous_prefix(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        for seed in range(40):  # enough records to share a hex prefix
            registry.record(make_record(seed=seed))
        ids = sorted(r.run_id for r in registry.records())
        shared = os.path.commonprefix(ids[:2])
        if shared:
            with pytest.raises(UnknownRunError, match="ambiguous"):
                registry.find(shared[:1])
        registry.close()


# ---------------------------------------------------------------------------
# Lineage + GC
# ---------------------------------------------------------------------------

class TestLineageAndGc:
    def _family(self, registry):
        parent = RunRecord(app="", variant="", kind="sweep",
                           params_digest="", seed=0,
                           code_version=code_version(),
                           meta={"identity": "t"})
        registry.record(parent)
        children = [
            make_record(seed=seed, kind="sweep-cell",
                        parent_id=parent.run_id, cell_key=f"cell-{seed}")
            for seed in (1, 2, 3)
        ]
        for child in children:
            registry.record(child)
        return parent, children

    def test_lineage_tree(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        parent, children = self._family(registry)
        assert {c.run_id for c in registry.children(parent.run_id)} == \
            {c.run_id for c in children}
        assert [a.run_id for a in registry.ancestors(children[0].run_id)] == \
            [parent.run_id]
        view = registry.lineage(parent.run_id)
        assert view["ancestors"] == []
        assert len(view["tree"]["children"]) == 3
        registry.close()

    def test_gc_keeps_n_per_population_and_prunes_orphans(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        parent, children = self._family(registry)
        keep = sorted(children, key=lambda r: r.run_id)[-1:]
        dry = registry.gc(keep=1, dry_run=True)
        assert len(registry.records()) == 4  # dry run wrote nothing
        pruned = registry.gc(keep=1)
        assert sorted(pruned) == sorted(dry)
        remaining = {r.run_id for r in registry.records()}
        assert keep[0].run_id in remaining
        assert parent.run_id in remaining  # still has a child
        assert len(remaining) == 2
        with pytest.raises(RegistryError):
            registry.gc(keep=0)
        registry.close()

    def test_gc_prune_is_one_ledger_rewrite(self, tmp_path, monkeypatch):
        path = str(tmp_path / "r.jsonl")
        registry = RunRegistry.open(path)
        for seed in range(6):
            registry.record(make_record(seed=seed))
        survivors = [registry.store.get(run_id)
                     for run_id in registry.store.ids()[-2:]]
        writes = []
        real_write = store_mod.atomic_write_text

        def counting_write(target, text):
            writes.append(target)
            real_write(target, text)

        monkeypatch.setattr(store_mod, "atomic_write_text", counting_write)
        pruned = registry.gc(keep=2)
        registry.close()
        assert len(pruned) == 4
        assert writes == [path]  # k deletes, one rewrite
        # Same bytes as a ledger compacted from the survivors alone.
        expected = JsonlStore(str(tmp_path / "expected.jsonl"))
        for data in survivors:
            expected.put(data, durable=False)
        expected.compact()
        with open(path, "rb") as left, open(expected.path, "rb") as right:
            assert left.read() == right.read()


# ---------------------------------------------------------------------------
# Recorder: payload classification + sidecar merge
# ---------------------------------------------------------------------------

class TestRecorder:
    def test_unknown_payload_shape_rejected(self):
        with pytest.raises(RegistryError, match="no known shape"):
            records_for_payload("x", {"bogus": 1})

    def test_oracle_payload_yields_cell_and_variants(self, tmp_path):
        violation = {"monitor": "spec-identity",
                     "detail": "output divergence: output byte 0",
                     "witness": {}}
        payload = {
            "app": "agrep", "profile": "stuck-disk",
            "violations": [violation],
            "original": run_payload(variant="original"),
            "speculating": run_payload(variant="speculating"),
        }
        records = records_for_payload("oracle/agrep/stuck-disk", payload)
        assert [r.kind for r in records] == \
            ["oracle-cell", "oracle-variant", "oracle-variant"]
        cell, first, second = records
        assert cell.chaos_profile == "stuck-disk"
        assert cell.verdicts == [violation]
        assert "original" not in cell.result  # sub-payloads live in children
        assert first.parent_id == cell.run_id
        assert second.parent_id == cell.run_id

    def test_sidecar_merge_is_idempotent(self, tmp_path):
        base = str(tmp_path / "r.jsonl")
        registry = RunRegistry.open(base)
        payload = run_payload()
        ids = record_payload(registry, "cell-a", payload)
        append_payload_records(sidecar_path(base, 0), "cell-a", payload)
        append_payload_records(sidecar_path(base, 1), "cell-a", payload)
        merged = merge_worker_sidecars(registry, base)
        assert merged == 0  # parent already had the records
        assert [r.run_id for r in registry.records()] == ids
        assert not os.path.exists(sidecar_path(base, 0))  # consumed
        registry.close()


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------

class TestSimilarity:
    def test_nearest_neighbor_ranks_same_config_first(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        target = make_record(seed=1999)
        twin = make_record(seed=2000)
        cousin = make_record(app="gnuld", seed=1999, cycles=9_000_000)
        for record in (target, twin, cousin):
            registry.record(record)
        neighbors = similar_runs(registry, target)
        assert [n.record.run_id for n in neighbors] == \
            [twin.run_id, cousin.run_id]
        assert neighbors[0].score > neighbors[1].score
        assert any("same app" in why for why in neighbors[0].why)
        registry.close()


# ---------------------------------------------------------------------------
# Regression detection (the acceptance scenario)
# ---------------------------------------------------------------------------

class TestRegressionDetector:
    def _baseline(self, registry, cycles=4_000_000, count=5):
        for seed in range(1999, 1999 + count):
            # Small seed-dependent jitter, like real layout jitter.
            registry.record(make_record(
                seed=seed, cycles=cycles + 1000 * (seed % 7),
            ))

    def test_planted_slowdown_is_flagged(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        self._baseline(registry)
        slow = make_record(seed=2042, cycles=int(4_000_000 * 1.15))
        registry.record(slow)
        report = check_run(registry, slow)
        assert not report.clean
        finding = report.findings[0]
        assert finding.metric == "elapsed_cycles"
        assert finding.run_id == slow.run_id
        assert finding.drift_pct > 10.0
        assert "elapsed_cycles" in finding.describe()
        registry.close()

    def test_identical_rerun_stays_silent(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        self._baseline(registry)
        rerun = make_record(seed=1999, cycles=4_000_000 + 1000 * (1999 % 7))
        assert registry.record(rerun) in \
            {r.run_id for r in registry.records()}  # deduplicated
        report = check_all(registry)
        assert report.clean
        assert report.checked == 5
        registry.close()

    def test_improvement_is_not_flagged(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        self._baseline(registry)
        fast = make_record(seed=2042, cycles=2_000_000)
        registry.record(fast)
        assert check_run(registry, fast).clean
        registry.close()

    def test_small_population_is_skipped(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        self._baseline(registry, count=2)
        slow = make_record(seed=2042, cycles=40_000_000)
        registry.record(slow)
        report = check_run(registry, slow)
        assert report.clean
        assert report.skipped_no_baseline == 1
        registry.close()

    def test_chaos_runs_never_pool_with_fault_free(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        self._baseline(registry)
        chaotic = make_record(seed=2042, chaos="stuck-disk",
                              cycles=40_000_000)
        registry.record(chaotic)
        assert check_run(registry, chaotic).skipped_no_baseline == 1
        loose = check_run(registry, chaotic,
                          parse_match_keys("app,variant"))
        assert not loose.clean  # relaxed keys pool it in, and it's 10x
        registry.close()

    def test_parse_match_keys_rejects_unknown(self):
        assert parse_match_keys(None) == \
            ("app", "variant", "kind", "chaos", "params")
        with pytest.raises(RegistryError, match="hostname"):
            parse_match_keys("app,hostname")


# ---------------------------------------------------------------------------
# Auto-tuner
# ---------------------------------------------------------------------------

class TestAutoTuner:
    FAST_PARAMS = {"throttle_cancel_limit": 2, "throttle_disable_reads": 64,
                   "watchdog_restart_limit": 64, "watchdog_fault_limit": 256,
                   "watchdog_min_accuracy": 0.02,
                   "watchdog_accuracy_window": 256}

    def test_proposes_fastest_healthy_same_chaos_run(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        best = make_record(seed=1, chaos="stuck-disk", cycles=1_000_000,
                           spec_params=self.FAST_PARAMS)
        slower = make_record(seed=2, chaos="stuck-disk", cycles=2_000_000)
        tripped = make_record(seed=3, chaos="stuck-disk", cycles=500_000,
                              watchdog=True)
        fault_free = make_record(seed=4, cycles=100_000)
        for record in (best, slower, tripped, fault_free):
            registry.record(record)
        proposal = AutoTuner(registry).propose("agrep", "stuck-disk")
        assert proposal is not None
        assert proposal.spec_params == self.FAST_PARAMS
        assert best.run_id in proposal.source_run_ids
        assert tripped.run_id not in proposal.source_run_ids
        assert "stuck-disk" in proposal.basis
        registry.close()

    def test_falls_back_to_fault_free_tier(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        registry.record(make_record(seed=4, cycles=100_000,
                                    spec_params=self.FAST_PARAMS))
        proposal = AutoTuner(registry).propose("agrep", "stuck-disk")
        assert proposal is not None
        assert "fallback from chaos profile 'none'" in proposal.basis
        registry.close()

    def test_empty_registry_proposes_nothing(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        assert AutoTuner(registry).propose("agrep") is None
        registry.close()

    def test_validate_rejects_unknown_knob(self):
        with pytest.raises(RegistryError, match="cache_capacity"):
            validate_spec_params({"cache_capacity": 1})

    def test_provenance_version_gate(self):
        cfg = ExperimentConfig(app="agrep")
        with pytest.raises(RegistryError, match="version"):
            apply_provenance(cfg, {"provenance_version": 99})
        with pytest.raises(RegistryError, match="spec_params"):
            apply_provenance(cfg, {"provenance_version": 1})

    def test_proposal_and_provenance_replay_agree(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        registry.record(make_record(seed=1, chaos="stuck-disk",
                                    cycles=1_000_000,
                                    spec_params=self.FAST_PARAMS))
        proposal = AutoTuner(registry).propose("agrep", "stuck-disk")
        base = ExperimentConfig(app="agrep", workload_scale=SCALE,
                                variant=Variant.SPECULATING,
                                fault_profile="stuck-disk")
        tuned = apply_proposal(base, proposal)
        assert spec_tunables(tuned.system.spechint) == self.FAST_PARAMS
        replayed = apply_provenance(base, tuned.tuning_provenance)
        assert replayed == tuned
        registry.close()


# ---------------------------------------------------------------------------
# End-to-end: real runs, tuned replay byte-identity (acceptance)
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def test_tuned_postgres_chaos_run_replays_byte_identically(self, tmp_path):
        registry = RunRegistry.open(str(tmp_path / "r.jsonl"))
        base = ExperimentConfig(app="postgres20", workload_scale=SCALE,
                                variant=Variant.SPECULATING,
                                fault_profile="stuck-disk")
        seeded = base.with_(system=base.system.replace(seed=2000))
        record_payload(registry, None, run_experiment(seeded).to_jsonable())

        proposal = AutoTuner(registry).propose("postgres20", "stuck-disk")
        assert proposal is not None
        tuned_cfg = apply_proposal(base, proposal)
        tuned = run_experiment(tuned_cfg)
        assert tuned.tuning_provenance == proposal.to_provenance()
        (tuned_id,) = record_payload(registry, None, tuned.to_jsonable())

        # Replay purely from the registry's provenance record: same
        # payload bytes, same content-addressed id (deduplicated).
        provenance = registry.get(tuned_id).tuning
        replay_cfg = apply_provenance(base, provenance)
        replay = run_experiment(replay_cfg)
        assert replay.to_jsonable() == tuned.to_jsonable()
        (replay_id,) = record_payload(registry, None, replay.to_jsonable())
        assert replay_id == tuned_id
        registry.close()


# ---------------------------------------------------------------------------
# Satellite: RunResult schema versioning
# ---------------------------------------------------------------------------

class TestResultSchemaVersion:
    def _payload(self):
        cfg = ExperimentConfig(app="agrep", workload_scale=SCALE,
                               variant=Variant.SPECULATING)
        return run_experiment(cfg).to_jsonable()

    def test_v2_round_trips_registry_fields(self):
        data = self._payload()
        assert data["schema_version"] == RESULT_SCHEMA_VERSION
        again = RunResult.from_jsonable(data)
        assert again.params_digest == data["params_digest"]
        assert again.seed == data["seed"]
        assert again.spec_params == data["spec_params"]
        assert again.to_jsonable() == data

    def test_v1_payload_still_accepted(self):
        data = self._payload()
        del data["schema_version"]
        for name in ("params_digest", "seed", "spec_params",
                     "tuning_provenance"):
            data.pop(name, None)
        again = RunResult.from_jsonable(data)
        assert again.params_digest == ""
        assert again.cycles == data["cycles"]

    def test_unknown_version_rejected(self):
        data = self._payload()
        data["schema_version"] = 99
        with pytest.raises(RegistryError, match="schema_version"):
            RunResult.from_jsonable(data)


# ---------------------------------------------------------------------------
# Satellite: per-disk hedge counters in the trace summary
# ---------------------------------------------------------------------------

class TestHedgeCountersInTraceSummary:
    def test_summary_per_disk_io_includes_hedges_won(self):
        from repro.sim.clock import SimClock
        from repro.trace import TraceAnalyzer, Tracer

        cfg = ExperimentConfig(app="agrep", workload_scale=SCALE,
                               variant=Variant.SPECULATING)
        result = run_experiment(cfg)
        result.counters["disk2.hedges"] = 3
        result.counters["disk2.hedges_won"] = 2
        per_disk = result.per_disk_io_counters()
        assert per_disk[2] == {"hedges": 3, "hedges_won": 2}

        tracer = Tracer(SimClock())
        summary = TraceAnalyzer(tracer, result=result).summary()
        assert summary["per_disk_io"]["2"] == {"hedges": 3, "hedges_won": 2}


# ---------------------------------------------------------------------------
# CLI: the `repro runs` family
# ---------------------------------------------------------------------------

class TestRunsCli:
    @pytest.fixture()
    def populated(self, tmp_path):
        path = str(tmp_path / "registry.jsonl")
        registry = RunRegistry.open(path)
        for seed in range(1999, 2004):
            registry.record(make_record(
                seed=seed, cycles=4_000_000 + 1000 * (seed % 7)))
        slow = make_record(seed=2042, cycles=int(4_000_000 * 1.2))
        registry.record(slow)
        registry.compact()
        registry.close()
        return path, slow.run_id

    def _main(self, *argv):
        from repro.cli import main
        return main(list(argv))

    def test_list_show_diff_similar_lineage(self, populated, capsys):
        path, slow_id = populated
        assert self._main("runs", "list", "--registry", path) == 0
        assert "6 record(s)" in capsys.readouterr().out
        assert self._main("runs", "show", "--registry", path,
                          slow_id[:8]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == slow_id
        assert self._main("runs", "diff", "--registry", path,
                          slow_id, slow_id) == 0
        assert self._main("runs", "similar", "--registry", path,
                          slow_id) == 0
        assert "score" in capsys.readouterr().out
        assert self._main("runs", "lineage", "--registry", path,
                          slow_id) == 0

    def test_regressions_exit_code_and_filtering(self, populated, capsys):
        path, slow_id = populated
        # The planted 20% slowdown flips the exit code for CI.
        assert self._main("runs", "regressions", "--registry", path) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and slow_id[:12] in out
        # Checking only a healthy run stays green.
        assert self._main("runs", "regressions", "--registry", path,
                          "--min-baseline", "6") == 0

    def test_gc_dry_run(self, populated, capsys):
        path, _ = populated
        assert self._main("runs", "gc", "--registry", path,
                          "--keep", "2", "--dry-run") == 0
        assert "would prune 4" in capsys.readouterr().out

    def test_unknown_run_is_an_error_not_a_crash(self, populated, capsys):
        path, _ = populated
        assert self._main("runs", "show", "--registry", path, "ffff") == 1
        assert "UnknownRunError" in capsys.readouterr().err

    def test_run_flags_require_registry(self, capsys):
        assert self._main("run", "agrep", "--scale", "0.05",
                          "--auto-tune") == 1
        assert "--registry" in capsys.readouterr().err
