"""Tests for the TIP informed prefetching and caching manager."""


from repro.faults.injector import FAULT_DATA_LOSS
from repro.fs.cache import BlockCache
from repro.fs.filesystem import FileSystem
from repro.fs.readahead import SequentialReadAhead
from repro.params import (
    ArrayParams,
    BLOCK_SIZE,
    CpuParams,
    DiskParams,
    TipParams,
)
from repro.sim.clock import SimClock
from repro.sim.engine import EventEngine
from repro.sim.stats import StatRegistry
from repro.storage.request import IORequest
from repro.storage.striping import StripedArray
from repro.tip.hints import HintSegment, Ioctl
from repro.tip.manager import TipManager

PID = 1


def make_tip(cache_blocks=16, nfiles=2, file_blocks=32, tip_params=None):
    fs = FileSystem()
    for i in range(nfiles):
        fs.create(f"f{i}", bytes(file_blocks * BLOCK_SIZE))
    clock = SimClock()
    engine = EventEngine(clock)
    stats = StatRegistry()
    array = StripedArray(
        fs.total_blocks, ArrayParams(), DiskParams(), CpuParams(), engine, stats
    )
    cache = BlockCache(cache_blocks, stats)
    manager = TipManager(
        fs, array, cache, SequentialReadAhead(), stats, tip_params or TipParams()
    )
    return manager, fs, engine, stats


def seg(fs, path, offset, length, via=Ioctl.TIPIO_FD_SEG):
    return HintSegment(fs.lookup(path), offset, length, PID, via)


def drain(engine):
    while engine.advance_to_next():
        pass


class TestHintIntake:
    def test_hint_expands_to_blocks(self):
        manager, fs, _, stats = make_tip()
        accepted = manager.hint_segments(PID, [seg(fs, "f0", 0, 3 * BLOCK_SIZE)])
        assert accepted == 3
        assert stats.get("tip.hinted_blocks") == 3

    def test_zero_length_hint_accepted_empty(self):
        manager, fs, _, _ = make_tip()
        assert manager.hint_segments(PID, [seg(fs, "f0", 0, 0)]) == 0

    def test_hint_beyond_eof_clamped(self):
        manager, fs, _, _ = make_tip(file_blocks=2)
        accepted = manager.hint_segments(PID, [seg(fs, "f0", 0, 10 * BLOCK_SIZE)])
        assert accepted == 2

    def test_hint_offset_past_eof_empty(self):
        manager, fs, _, _ = make_tip(file_blocks=2)
        accepted = manager.hint_segments(PID, [seg(fs, "f0", 5 * BLOCK_SIZE, 100)])
        assert accepted == 0

    def test_ignore_hints_mode(self):
        manager, fs, _, stats = make_tip(tip_params=TipParams(ignore_hints=True))
        assert manager.hint_segments(PID, [seg(fs, "f0", 0, BLOCK_SIZE)]) == 0
        assert manager.outstanding_hints(PID) == 0
        assert stats.get("tip.hints_ignored") == 1


class TestPrefetching:
    def test_hints_trigger_prefetch(self):
        manager, fs, engine, stats = make_tip()
        manager.hint_segments(PID, [seg(fs, "f0", 0, 4 * BLOCK_SIZE)])
        assert stats.get("tip.prefetches_issued") == 4
        drain(engine)
        inode = fs.lookup("f0")
        assert all(manager.peek_valid(inode, b) for b in range(4))

    def test_prefetch_depth_limited_by_horizon(self):
        params = TipParams(prefetch_horizon=4, max_inflight_per_disk=16)
        manager, fs, _, stats = make_tip(cache_blocks=64, tip_params=params)
        manager.hint_segments(PID, [seg(fs, "f0", 0, 20 * BLOCK_SIZE)])
        assert stats.get("tip.prefetches_issued") == 4

    def test_inflight_per_disk_limit(self):
        params = TipParams(prefetch_horizon=64, max_inflight_per_disk=1)
        manager, fs, _, stats = make_tip(cache_blocks=64, tip_params=params)
        # f0's first 8 blocks live in one stripe unit = one disk.
        manager.hint_segments(PID, [seg(fs, "f0", 0, 8 * BLOCK_SIZE)])
        assert stats.get("tip.prefetches_issued") == 1

    def test_more_prefetches_after_arrival(self):
        params = TipParams(prefetch_horizon=64, max_inflight_per_disk=1)
        manager, fs, engine, stats = make_tip(cache_blocks=64, tip_params=params)
        manager.hint_segments(PID, [seg(fs, "f0", 0, 4 * BLOCK_SIZE)])
        drain(engine)
        assert stats.get("tip.prefetches_issued") == 4


class TestConsume:
    def test_matching_read_consumes(self):
        manager, fs, _, stats = make_tip()
        inode = fs.lookup("f0")
        manager.hint_segments(PID, [seg(fs, "f0", 0, 2 * BLOCK_SIZE)])
        hinted = manager.consume_hints(PID, inode, 0, 1, 0, 2 * BLOCK_SIZE)
        assert hinted
        assert stats.get("tip.hinted_read_calls") == 1
        assert stats.get("tip.hints_consumed") == 2
        assert manager.outstanding_hints(PID) == 0

    def test_unhinted_read_not_matched(self):
        manager, fs, _, _ = make_tip()
        inode = fs.lookup("f1")
        manager.hint_segments(PID, [seg(fs, "f0", 0, BLOCK_SIZE)])
        assert not manager.consume_hints(PID, inode, 0, 0, 0, 100)

    def test_no_hints_no_match(self):
        manager, fs, _, _ = make_tip()
        inode = fs.lookup("f0")
        assert not manager.consume_hints(PID, inode, 0, 0, 0, 100)

    def test_repeated_partial_block_reads_stay_hinted(self):
        """Several short reads of one hinted block all count as hinted."""
        manager, fs, _, _ = make_tip()
        inode = fs.lookup("f0")
        manager.hint_segments(PID, [seg(fs, "f0", 0, BLOCK_SIZE)])
        assert manager.consume_hints(PID, inode, 0, 0, 0, 512)
        assert manager.consume_hints(PID, inode, 0, 0, 512, 512)

    def test_match_deep_in_queue(self):
        manager, fs, _, _ = make_tip(file_blocks=64, cache_blocks=4)
        inode = fs.lookup("f0")
        manager.hint_segments(PID, [seg(fs, "f0", 0, 40 * BLOCK_SIZE)])
        # Read block 30 (well past the front of the queue).
        assert manager.consume_hints(
            PID, inode, 30, 30, 30 * BLOCK_SIZE, BLOCK_SIZE
        )

    def test_accuracy_improves_on_consume(self):
        manager, fs, _, _ = make_tip()
        inode = fs.lookup("f0")
        manager.hint_segments(PID, [seg(fs, "f0", 0, BLOCK_SIZE)])
        before = manager.accuracy_of(PID).consumed
        manager.consume_hints(PID, inode, 0, 0, 0, BLOCK_SIZE)
        assert manager.accuracy_of(PID).consumed == before + 1


class TestCancelAll:
    def test_cancel_empties_queue(self):
        manager, fs, _, stats = make_tip()
        manager.hint_segments(PID, [seg(fs, "f0", 0, 5 * BLOCK_SIZE)])
        assert manager.cancel_all(PID) == 5
        assert manager.outstanding_hints(PID) == 0
        assert stats.get("tip.hints_cancelled") == 5

    def test_cancel_counts_as_inaccurate(self):
        manager, fs, _, _ = make_tip()
        manager.hint_segments(PID, [seg(fs, "f0", 0, 2 * BLOCK_SIZE)])
        manager.cancel_all(PID)
        assert manager.accuracy_of(PID).cancelled == 2
        assert manager.accuracy_of(PID).value < 1.0

    def test_cancel_without_hints_is_zero(self):
        manager, _, _, _ = make_tip()
        assert manager.cancel_all(PID) == 0

    def test_issued_prefetches_proceed_after_cancel(self):
        manager, fs, engine, _ = make_tip()
        manager.hint_segments(PID, [seg(fs, "f0", 0, 2 * BLOCK_SIZE)])
        manager.cancel_all(PID)
        drain(engine)
        inode = fs.lookup("f0")
        assert manager.peek_valid(inode, 0)  # prefetch was not recalled


class TestAccuracyDiscount:
    def test_low_accuracy_shrinks_depth(self):
        manager, fs, _, _ = make_tip(cache_blocks=128, file_blocks=200)
        full_depth = manager.params.prefetch_horizon
        for _ in range(40):
            manager.hint_segments(PID, [seg(fs, "f0", 0, 4 * BLOCK_SIZE)])
            manager.cancel_all(PID)
        assert manager.accuracy_of(PID).value < 0.5
        assert manager.effective_depth(PID) < full_depth


class TestEviction:
    def test_unhinted_lru_evicted_first(self):
        manager, fs, engine, _ = make_tip(cache_blocks=4)
        inode = fs.lookup("f0")
        # Fill the cache with unhinted demand blocks.
        for b in range(4):
            manager.access_block(inode, b, lambda: None)
        drain(engine)
        manager.hint_segments(PID, [seg(fs, "f1", 0, BLOCK_SIZE)])
        drain(engine)
        # One unhinted block was evicted to make room.
        valid = [b for b in range(4) if manager.peek_valid(inode, b)]
        assert len(valid) == 3

    def test_hinted_blocks_protected_within_horizon(self):
        params = TipParams(prefetch_horizon=64)
        manager, fs, engine, stats = make_tip(cache_blocks=4, tip_params=params)
        manager.hint_segments(PID, [seg(fs, "f0", 0, 4 * BLOCK_SIZE)])
        drain(engine)
        # All 4 cached blocks are hinted within the horizon (well, their
        # hints were consumed... re-hint to protect them):
        manager.hint_segments(PID, [seg(fs, "f0", 0, 4 * BLOCK_SIZE)])
        assert manager.find_victim() is None

    def test_finalize_counts_unconsumed(self):
        manager, fs, _, stats = make_tip()
        manager.hint_segments(PID, [seg(fs, "f0", 0, 3 * BLOCK_SIZE)])
        manager.finalize()
        assert stats.get("tip.hints_unconsumed_at_end") == 3


class TestCancelDrain:
    """TIPIO_CANCEL_ALL's post-condition: the queue is provably drained
    (the restart protocol restarts speculation on the strength of this)."""

    def test_cancel_all_drains_outstanding_hints(self):
        manager, fs, _, stats = make_tip()
        manager.hint_segments(PID, [seg(fs, "f0", 0, 5 * BLOCK_SIZE)])
        assert manager.outstanding_hints(PID) == 5
        cancelled = manager.cancel_all(PID)
        assert cancelled == 5
        assert manager.outstanding_hints(PID) == 0
        assert manager.cancelled_total == 5
        assert stats.get("tip.cancel_drained") == 1

    def test_leaked_unconsumed_hint_is_cancelled(self):
        """A hint the application never consumed (leaked from its point of
        view) must still be drained by the cancel, not linger."""
        manager, fs, engine, _ = make_tip()
        manager.hint_segments(PID, [seg(fs, "f0", 0, 3 * BLOCK_SIZE)])
        drain(engine)
        # Consume two of three; the third leaks.
        inode = fs.lookup("f0")
        manager.consume_hints(PID, inode, 0, 1, 0, 2 * BLOCK_SIZE)
        assert manager.outstanding_hints(PID) == 1
        assert manager.cancel_all(PID) == 1
        assert manager.outstanding_hints(PID) == 0

    def test_cancel_idempotent_on_empty_queue(self):
        manager, fs, _, _ = make_tip()
        assert manager.cancel_all(PID) == 0
        manager.hint_segments(PID, [seg(fs, "f0", 0, BLOCK_SIZE)])
        manager.cancel_all(PID)
        assert manager.cancel_all(PID) == 0
        assert manager.cancelled_total == 1

    def test_cancelled_total_accumulates_across_calls(self):
        manager, fs, _, _ = make_tip()
        manager.hint_segments(PID, [seg(fs, "f0", 0, 2 * BLOCK_SIZE)])
        manager.cancel_all(PID)
        manager.hint_segments(PID, [seg(fs, "f1", 0, 3 * BLOCK_SIZE)])
        manager.cancel_all(PID)
        assert manager.cancelled_total == 5


def fail_prefetches(manager, engine, fault, times=None):
    """Make the next ``times`` array submissions (all if None) fail one
    cycle later with ``fault``, as the array reports a dropped prefetch."""
    real_submit = manager.array.submit
    remaining = [times]

    def submit(lbn, kind, callback):
        if remaining[0] is not None:
            if remaining[0] == 0:
                return real_submit(lbn, kind, callback)
            remaining[0] -= 1
        request = IORequest(lbn, kind, callback)
        request.failed = True
        request.fault = fault
        engine.schedule_after(1, lambda: callback(request), label="test:drop")
        return request

    manager.array.submit = submit


class TestLostBlocks:
    """A prefetch that fails with data loss retires its hints; a transient
    drop leaves them queued for a re-issue."""

    def test_lost_key_retired_from_every_queue_once(self):
        manager, fs, engine, stats = make_tip()
        fail_prefetches(manager, engine, FAULT_DATA_LOSS)
        ino = fs.lookup("f0").ino
        manager.hint_segments(1, [seg(fs, "f0", 0, 2 * BLOCK_SIZE)])
        manager.hint_segments(2, [seg(fs, "f0", 0, 2 * BLOCK_SIZE)])
        assert stats.get("tip.prefetches_issued") == 2
        # Bounded drain: re-issuing lost blocks would never go quiet.
        for _ in range(100):
            if not engine.advance_to_next():
                break
        # Each lost block was fetched once and never re-issued.
        assert stats.get("tip.prefetches_issued") == 2
        assert manager.data_loss_drops == 2
        assert manager.outstanding_hints(1) == 0
        assert manager.outstanding_hints(2) == 0
        records = manager.lifecycle.records()
        assert sorted((r.pid, r.key) for r in records) == [
            (1, (ino, 0)), (1, (ino, 1)), (2, (ino, 0)), (2, (ino, 1)),
        ]
        assert all(r.terminal == "wasted" and r.detail == "data-loss"
                   for r in records)
        assert manager.lifecycle.summary_counts()["wasted"] == 4
        assert manager.lifecycle.open_total == 0
        # Retired hints no longer protect their blocks from eviction.
        assert manager._hinted_seqs == {}
        # The accuracy tracker is left as it was.
        assert manager.accuracy_of(1).value == manager.accuracy_of(2).value

    def test_transient_drop_keeps_hint_queued_and_reissues(self):
        manager, fs, engine, stats = make_tip()
        fail_prefetches(manager, engine, "timeout", times=1)
        manager.hint_segments(PID, [seg(fs, "f0", 0, BLOCK_SIZE)])
        drain(engine)
        assert stats.get("tip.prefetches_dropped") == 1
        assert stats.get("tip.prefetches_issued") == 2
        assert manager.data_loss_drops == 0
        assert manager.outstanding_hints(PID) == 1
        assert manager.peek_valid(fs.lookup("f0"), 0)
        (record,) = manager.lifecycle.records()
        assert record.terminal is None

    def test_cached_placement_matches_derived_placement(self):
        params = TipParams(prefetch_horizon=64, max_inflight_per_disk=2)
        manager, fs, engine, _ = make_tip(cache_blocks=64, tip_params=params)
        manager.hint_segments(PID, [seg(fs, "f0", 0, 32 * BLOCK_SIZE),
                                    seg(fs, "f1", 0, 32 * BLOCK_SIZE)])
        queue = manager._procs[PID].queue
        placed = [entry for entry in queue if entry.inode is not None]
        assert placed
        for entry in placed:
            ino, block = entry.key
            assert entry.inode is fs.inode(ino)
            assert entry.disk == manager.array.disk_of(
                fs.inode(ino).lbn_of_block(block))

    def test_saturation_count_tracks_inflight_slots(self):
        params = TipParams(prefetch_horizon=64, max_inflight_per_disk=1)
        manager, fs, engine, stats = make_tip(cache_blocks=64, tip_params=params)
        manager.hint_segments(PID, [seg(fs, "f0", 0, 32 * BLOCK_SIZE),
                                    seg(fs, "f1", 0, 32 * BLOCK_SIZE)])

        def saturated():
            return sum(1 for inflight in manager._inflight_per_disk.values()
                       if inflight >= params.max_inflight_per_disk)

        assert manager._saturated_disks == saturated() > 0
        while engine.advance_to_next():
            assert manager._saturated_disks == saturated()
        assert manager._saturated_disks == 0
        assert stats.get("tip.prefetches_issued") == 64
