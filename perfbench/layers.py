"""The layer table: which public functions of each repro module get a span.

Each entry names a layer (one of the repo's modules) and the functions
whose calls are timed as that layer.  A target is ``module:attr`` for a
module-level function, ``module:Class.method`` for a method, or
``module:TABLE[key]`` for an entry of a module-level dict of functions.  The
benchmark wraps these at run time from its own files; nothing in
``src/`` is edited.
"""

from __future__ import annotations

from typing import Dict, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "vm": ("repro.vm.machine:Machine.execute",),
    "kernel": (
        "repro.kernel.kernel:Kernel.run",
        "repro.kernel.kernel:Kernel.spawn",
        "repro.kernel.kernel:Kernel.syscall",
    ),
    "spechint.runtime": (
        "repro.spechint.runtime:SpecProcessState.before_read",
        "repro.spechint.runtime:SpecProcessState.spec_read",
        "repro.spechint.runtime:SpecProcessState.spec_syscall",
        "repro.spechint.runtime:SpecProcessState.perform_restart",
    ),
    "spechint.cow": (
        "repro.spechint.cow:CowMap.load_word",
        "repro.spechint.cow:CowMap.store_word",
        "repro.spechint.cow:CowMap.load_byte",
        "repro.spechint.cow:CowMap.store_byte",
        "repro.spechint.cow:CowMap.read_bytes",
        "repro.spechint.cow:CowMap.write_bytes",
        "repro.spechint.cow:CowMap.precopy_range",
    ),
    "spechint.auditor": (
        "repro.spechint.auditor:AuditTable.record",
        "repro.spechint.auditor:AuditTable.verify",
        "repro.spechint.auditor:IsolationAuditor.check_cow_containment",
        "repro.spechint.auditor:IsolationAuditor.verify_restart_boundary",
    ),
    "spechint.tool": ("repro.spechint.tool:SpecHintTool.transform",),
    "tip": (
        "repro.tip.manager:TipManager.hint_segments",
        "repro.tip.manager:TipManager.consume_hints",
        "repro.tip.manager:TipManager.cancel_all",
        "repro.tip.manager:TipManager.on_block_arrived",
        "repro.tip.manager:TipManager.on_prefetch_dropped",
        "repro.tip.manager:TipManager.after_read",
        "repro.tip.manager:TipManager.find_victim",
    ),
    "fs": (
        "repro.fs.manager:CacheManagerBase.access_block",
        "repro.fs.manager:CacheManagerBase.start_prefetch",
        "repro.fs.manager:CacheManagerBase.read_call_completed",
    ),
    "storage": (
        "repro.storage.striping:StripedArray.submit",
        "repro.storage.striping:StripedArray.drain_rebuild",
        "repro.storage.disk:Disk.submit",
    ),
    "sim": (
        "repro.sim.engine:EventEngine.dispatch_due",
        "repro.sim.engine:EventEngine.advance_to_next",
    ),
    "faults": (
        "repro.faults.injector:FaultInjector.on_disk_service",
        "repro.faults.injector:FaultInjector.filter_hint",
        "repro.faults.generate:FaultPlanGenerator.cases",
    ),
    # The runner's builder table: the postgres builders close over
    # build_postgres, so wrapping the table entries is what catches them.
    "apps": (
        "repro.harness.runner:_BUILDERS[agrep]",
        "repro.harness.runner:_BUILDERS[gnuld]",
        "repro.harness.runner:_BUILDERS[xds]",
        "repro.harness.runner:_BUILDERS[postgres20]",
    ),
    "harness": (
        "repro.harness.runner:run_experiment_with_system",
        "repro.harness.fuzz:run_fuzz_case",
        "repro.harness.invariants:check_all",
        "repro.harness.checkpoint:SweepCheckpoint.flush",
    ),
    "registry": (
        "repro.registry.store:RunRegistry.record",
        "repro.registry.store:RunRegistry.compact",
        "repro.registry.store:merge_worker_sidecars",
        "repro.registry.regression:check_all",
        "repro.registry.similarity:similar_runs",
    ),
}
