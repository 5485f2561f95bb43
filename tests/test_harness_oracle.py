"""Tests for the differential correctness oracle."""

import json

import pytest

from repro.errors import OracleMismatch
from repro.harness import fuzz as fuzz_mod
from repro.harness.config import ExperimentConfig, Variant
from repro.harness.invariants import (
    VariantObservation,
    Violation,
    _first_output_diff,
    _first_trace_diff,
)
from repro.harness.oracle import (
    ORACLE_PROFILES,
    OracleCell,
    OracleReport,
    run_oracle,
    run_oracle_cell,
)
from repro.harness.results import RunResult
from repro.params import ArrayParams, SystemConfig

SCALE = 0.3
BASE = ExperimentConfig(app="agrep", workload_scale=SCALE)


class TestDiffDescriptions:
    def test_first_output_byte_diff(self):
        msg = _first_output_diff(b"abc", b"abd")
        assert "byte 2" in msg

    def test_output_length_diff(self):
        msg = _first_output_diff(b"abc", b"abcd")
        assert "length" in msg

    def test_first_trace_diff(self):
        msg = _first_trace_diff([(1, 0, 10), (1, 10, 10)],
                                [(1, 0, 10), (2, 10, 10)])
        assert "read #1" in msg

    def test_trace_count_diff(self):
        msg = _first_trace_diff([(1, 0, 10)], [(1, 0, 10), (1, 10, 10)])
        assert "count" in msg


class TestProfiles:
    def test_oracle_profiles_cover_all_chaos_modes(self):
        from repro.faults.plan import PROFILES

        assert None in ORACLE_PROFILES  # fault-free baseline included
        named = {p for p in ORACLE_PROFILES if p is not None}
        assert named == {name for name in PROFILES if name != "none"}


class TestOracleCell:
    def test_fault_free_cell_passes(self):
        cell = run_oracle_cell(BASE)
        assert cell.passed, cell.detail
        assert cell.original is not None and cell.speculating is not None
        assert cell.original.output == cell.speculating.output
        assert len(cell.original.read_trace) > 0
        assert cell.original.read_trace == cell.speculating.read_trace
        assert cell.profile_name == "fault-free"

    def test_chaos_cell_passes(self):
        cell = run_oracle_cell(BASE, "transient-errors")
        assert cell.passed, cell.detail

    def test_cell_jsonable_shape(self):
        cell = run_oracle_cell(BASE)
        entry = cell.to_jsonable()
        assert entry["app"] == "agrep"
        assert entry["passed"] is True
        assert entry["violations"] == []
        assert "isolation_violations" in entry


def _fake_observe_variant(output_by_variant, trace_by_variant=None):
    """Stand-in for the observation path: canned results, no system."""
    trace_by_variant = trace_by_variant or {}

    def fake(cfg, tracer=None):
        variant = cfg.variant.value
        return VariantObservation(variant=variant, result=RunResult(
            app=cfg.app, variant=variant, cycles=1, cpu_hz=1,
            output=output_by_variant[variant],
            read_trace=trace_by_variant.get(variant, ()),
        ))

    return fake


DIVERGENT_OUTPUT = {
    Variant.ORIGINAL.value: b"good",
    Variant.SPECULATING.value: b"bad!",
}


class TestMismatchDetection:
    def test_output_divergence_detected(self, monkeypatch):
        monkeypatch.setattr(fuzz_mod, "observe_variant",
                            _fake_observe_variant(DIVERGENT_OUTPUT))
        cell = run_oracle_cell(BASE)
        assert not cell.passed
        assert [v.monitor for v in cell.violations] == ["spec-identity"]
        assert "output" in cell.detail

    def test_trace_divergence_detected(self, monkeypatch):
        monkeypatch.setattr(fuzz_mod, "observe_variant", _fake_observe_variant(
            {Variant.ORIGINAL.value: b"same", Variant.SPECULATING.value: b"same"},
            {Variant.ORIGINAL.value: ((1, 0, 10),),
             Variant.SPECULATING.value: ((1, 0, 20),)},
        ))
        cell = run_oracle_cell(BASE)
        assert not cell.passed
        assert [v.monitor for v in cell.violations] == ["spec-identity"]
        assert "demand read" in cell.detail

    def test_strict_mode_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(fuzz_mod, "observe_variant",
                            _fake_observe_variant(DIVERGENT_OUTPUT))
        with pytest.raises(OracleMismatch, match="agrep under fault-free"):
            run_oracle(("agrep",), profiles=(None,), strict=True)

    def test_collect_mode_records_failures(self, monkeypatch):
        monkeypatch.setattr(fuzz_mod, "observe_variant",
                            _fake_observe_variant(DIVERGENT_OUTPUT))
        report = run_oracle(("agrep",), profiles=(None, "transient-errors"))
        assert not report.passed
        assert len(report.failures()) == 2
        assert "FAIL" in report.summary()

    def test_any_monitor_fails_the_cell(self, monkeypatch):
        """Identical output is not enough: a broken audit chain fails."""
        real = fuzz_mod.observe_variant

        def forge_audit_record(cfg, tracer=None):
            vobs = real(cfg, tracer)
            for process in vobs.processes:
                auditor = getattr(getattr(process, "spec", None),
                                  "auditor", None)
                if auditor is not None:
                    auditor.table.record("forged", "written")
                    auditor.table.records()[-1].detail = "rewritten"
            return vobs

        monkeypatch.setattr(fuzz_mod, "observe_variant", forge_audit_record)
        cell = run_oracle_cell(BASE)
        assert cell.original.output == cell.speculating.output
        assert [v.monitor for v in cell.violations] == ["audit-chain"]

    def test_non_data_loss_escape_fails_and_is_named(self):
        """Both variants raising the same typed error is symmetric to the
        monitors; the completion rule still fails the cell."""
        one_disk = BASE.with_(system=SystemConfig(array=ArrayParams(ndisks=1)))
        cell = run_oracle_cell(one_disk, "disk-death")
        assert cell.original is None and cell.speculating is None
        assert [v.monitor for v in cell.violations] == \
            ["completion", "completion"]
        assert "InvalidBlockError" in cell.detail


class TestRunOracleDeterminism:
    def test_one_disk_failures_match_serially_and_in_parallel(
            self, monkeypatch):
        from repro.harness import parallel

        outcomes = []
        real = parallel.run_cells_parallel

        def capture(*args, **kwargs):
            outcomes.append(real(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(parallel, "run_cells_parallel", capture)
        one_disk = BASE.with_(system=SystemConfig(array=ArrayParams(ndisks=1)))
        serial = run_oracle(("agrep",), profiles=("disk-death",),
                            base=one_disk)
        par = run_oracle(("agrep",), profiles=("disk-death",),
                         base=one_disk, jobs=2)
        assert serial.to_jsonable() == par.to_jsonable()
        (cell,) = par.cells
        assert not cell.passed
        assert "InvalidBlockError" in cell.detail
        assert "supervisor" not in {v.monitor for v in cell.violations}
        for outcome in outcomes:
            assert outcome.stats.retries == 0
            assert not outcome.quarantined


class TestOracleCli:
    def test_oracle_records_the_plain_run_params_digest(self, tmp_path):
        from repro.cli import main

        ledger = str(tmp_path / "r.jsonl")
        common = ["--scale", "0.2", "--cache-mb", "6", "--registry", ledger]
        assert main(["run", "agrep", *common]) == 0
        assert main(["run", "agrep", "--oracle", "--chaos", "none",
                     *common]) == 0
        with open(ledger, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        digests = {r["kind"]: r["params_digest"] for r in records
                   if r["kind"] in ("run", "oracle-variant")}
        assert digests["oracle-variant"] == digests["run"]


class TestOracleReport:
    def test_empty_report_passes(self):
        assert OracleReport().passed

    def test_jsonable_roundtrips_through_json(self):
        report = OracleReport(cells=[
            OracleCell(app="agrep", profile=None),
            OracleCell(app="gnuld", profile="stuck-disk", violations=[
                Violation("spec-identity", "output byte 0"),
            ]),
        ])
        blob = json.dumps(report.to_jsonable())
        data = json.loads(blob)
        assert data["passed"] is False
        assert len(data["cells"]) == 2
