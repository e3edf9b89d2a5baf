"""FaultPlan semantics on the block device: determinism, taxonomy, accounting.

The fault layer is only useful if it is *boringly* deterministic — a crash
found in CI must replay identically from its seed — and if its accounting
contract holds: acknowledged ops record stats, failed/crashed ops record
nothing. These tests pin both down, on the memory and the file medium,
plus the SimulatedSSD trim/used_blocks accounting the free pool depends on.
"""

import pytest

from repro.storage import FaultPlan, SimulatedSSD, SSDProfile
from repro.util.errors import CrashPoint, InjectedFaultError, StorageError

BS = 64  # small blocks keep payload literals readable


def make_device(plan=None, num_blocks=64, path=None):
    profile = SSDProfile(block_size=BS, queue_depth=4)
    return SimulatedSSD(num_blocks, profile, path=path, faults=plan)


def payload(tag: int) -> bytes:
    return bytes([tag % 256]) * BS


def run_sequence(device):
    """A fixed op sequence; returns outcomes so runs can be compared."""
    outcomes = []
    for i in range(30):
        try:
            if i % 3 == 2:
                data, _ = device.read_blocks([i % 8, (i + 1) % 8])
                outcomes.append(("read", [bytes(d) for d in data]))
            else:
                device.write_blocks([i % 8, (i + 3) % 8], [payload(i), payload(i + 1)])
                outcomes.append(("write", i))
        except InjectedFaultError:
            outcomes.append(("read-error", i))
        except CrashPoint:
            outcomes.append(("crash", i))
    return outcomes


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(read_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(torn_write_rate=-0.1)

    def test_write_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            FaultPlan(torn_write_rate=0.6, dropped_write_rate=0.6)

    def test_unknown_snapshot_fault_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(snapshot_fault="meteor-strike")

    def test_decisions_are_pure_functions_of_op_index(self):
        plan = FaultPlan(7, read_error_rate=0.5, corrupt_write_rate=0.5)
        # Querying out of order or repeatedly never changes an answer.
        first = [plan.read_error(i) for i in range(50)]
        again = [plan.read_error(i) for i in reversed(range(50))]
        assert first == list(reversed(again))
        assert plan.corrupt_site(9, 4, BS) == plan.corrupt_site(9, 4, BS)


class TestDeterminism:
    def test_identical_runs_inject_identical_faults_and_stats(self):
        results = []
        for _ in range(2):
            plan = FaultPlan(
                11,
                read_error_rate=0.3,
                dropped_write_rate=0.2,
                corrupt_write_rate=0.2,
            )
            device = make_device(plan)
            outcomes = run_sequence(device)
            results.append((outcomes, device.events, device.stats.snapshot()))
        assert results[0][0] == results[1][0]  # same outcomes, same bytes read
        assert results[0][1] == results[1][1]  # same FaultEvents
        assert results[0][2] == results[1][2]  # same IOStats to the microsecond

    @pytest.mark.parametrize(
        "rates, kinds",
        [
            (
                dict(read_error_rate=0.3, dropped_write_rate=0.2, corrupt_write_rate=0.2),
                {"read-error", "dropped", "corrupt"},
            ),
            (dict(torn_write_rate=0.3), {"torn"}),
        ],
        ids=["read-dropped-corrupt", "torn"],
    )
    def test_file_medium_matches_memory(self, tmp_path, rates, kinds):
        results = []
        for path in (None, str(tmp_path / "dev.img")):
            device = make_device(FaultPlan(11, **rates), path=path)
            outcomes = run_sequence(device)
            results.append(
                (outcomes, device.events, device.stats.snapshot(), device.export_blocks())
            )
            device.close()
        memory, file = results
        assert {event.kind for event in memory[1]} == kinds  # every fault fired
        # Same outcomes and bytes read, FaultEvents, IOStats and contents.
        assert file == memory

    def test_different_seeds_differ(self):
        events = []
        for seed in (0, 1):
            plan = FaultPlan(seed, read_error_rate=0.4)
            device = make_device(plan)
            run_sequence(device)
            events.append([e.op_index for e in device.events])
        assert events[0] != events[1]


class TestReadErrors:
    def test_read_error_raises_and_records_no_stats(self):
        device = make_device(FaultPlan(read_error_rate=1.0))
        device.write_blocks([0], [payload(1)])  # writes unaffected
        before = device.stats.snapshot()
        with pytest.raises(InjectedFaultError):
            device.read_blocks([0])
        delta = device.stats.snapshot().delta(before)
        assert delta.read_ops == 0
        assert delta.block_reads == 0
        assert delta.bytes_read == 0
        assert delta.busy_us == 0.0

    def test_disarm_restores_clean_reads(self):
        plan = FaultPlan(read_error_rate=1.0)
        device = make_device(plan)
        device.write_blocks([3], [payload(9)])
        plan.disarm()
        data, _ = device.read_blocks([3])
        assert data[0] == payload(9)
        assert device.stats.read_ops == 1
        plan.arm()
        with pytest.raises(InjectedFaultError):
            device.read_blocks([3])


class TestWriteFaults:
    def test_torn_write_commits_prefix_then_crashes_without_stats(self):
        plan = FaultPlan(3, torn_write_rate=1.0)
        device = make_device(plan)
        ids = [0, 1, 2, 3]
        data = [payload(10 + i) for i in ids]
        with pytest.raises(CrashPoint):
            device.write_blocks(ids, data)
        keep, partial = plan.torn_shape(0, len(ids), BS)
        for position in range(keep):
            assert device.peek_block(ids[position]) == data[position]
        if partial:
            torn = device.peek_block(ids[keep])
            assert torn[:partial] == data[keep][:partial]
            assert torn[partial:] == b"\x00" * (BS - partial)
        for position in range(keep + 1, len(ids)):
            assert device.peek_block(ids[position]) == b"\x00" * BS
        assert device.stats.write_ops == 0  # never acknowledged

    def test_dropped_write_acks_full_batch_but_loses_blocks(self):
        plan = FaultPlan(5, dropped_write_rate=1.0)
        device = make_device(plan)
        ids = [4, 5, 6, 7]
        data = [payload(20 + i) for i in ids]
        latency = device.write_blocks(ids, data)
        # Host-visible accounting covers the whole batch: the loss is silent.
        assert latency == device.profile.write_batch_latency_us(len(ids))
        assert device.stats.write_ops == 1
        assert device.stats.block_writes == len(ids)
        assert device.stats.bytes_written == len(ids) * BS
        dropped = plan.dropped_blocks(0, len(ids))
        assert dropped  # at least one block lost
        for position, bid in enumerate(ids):
            want = b"\x00" * BS if position in dropped else data[position]
            assert device.peek_block(bid) == want

    def test_corrupt_write_flips_exactly_one_bit(self):
        plan = FaultPlan(9, corrupt_write_rate=1.0)
        device = make_device(plan)
        ids = [1, 2]
        data = [payload(30), payload(31)]
        device.write_blocks(ids, data)
        position, offset, mask = plan.corrupt_site(0, len(ids), BS)
        diffs = []
        for p, bid in enumerate(ids):
            stored = device.peek_block(bid)
            diffs.extend(
                (p, o) for o in range(BS) if stored[o] != data[p][o]
            )
        assert diffs == [(position, offset)]
        stored = device.peek_block(ids[position])
        assert stored[offset] == data[position][offset] ^ mask
        assert device.stats.write_ops == 1  # corruption is a silent success


class TestCrashPoints:
    def test_crash_at_read_op(self):
        device = make_device(FaultPlan(crash_at_op=1))
        device.write_blocks([0], [payload(1)])  # op 0
        with pytest.raises(CrashPoint):
            device.read_blocks([0])  # op 1
        assert device.stats.read_ops == 0

    def test_crash_at_trim_op(self):
        device = make_device(FaultPlan(crash_at_op=1))
        device.write_blocks([0, 1], [payload(1), payload(2)])  # op 0
        with pytest.raises(CrashPoint):
            device.trim([0])  # op 1
        assert device.used_blocks() == 2  # trim never happened

    def test_op_index_counts_reads_writes_and_trims(self):
        device = make_device(FaultPlan())
        device.write_blocks([0], [payload(1)])
        device.read_blocks([0])
        device.trim([0])
        assert device.op_index == 3


class TestTrimAccounting:
    """SimulatedSSD.trim / used_blocks, incl. under injected read errors."""

    def test_trim_releases_and_zeroes_blocks(self):
        ssd = SimulatedSSD(16, SSDProfile(block_size=BS))
        ssd.write_blocks(list(range(10)), [payload(i) for i in range(10)])
        assert ssd.used_blocks() == 10
        ssd.trim([2, 3, 4])
        assert ssd.used_blocks() == 7
        data, _ = ssd.read_blocks([2])
        assert data[0] == b"\x00" * BS  # trimmed blocks read back as zeroes
        ssd.trim([2])  # double-trim is a no-op
        assert ssd.used_blocks() == 7
        with pytest.raises(StorageError):
            ssd.trim([16])

    def test_read_errors_do_not_skew_trim_or_counters(self):
        plan = FaultPlan(read_error_rate=1.0)
        device = make_device(plan, num_blocks=16)
        device.write_blocks(list(range(8)), [payload(i) for i in range(8)])
        writes_before = device.stats.snapshot()
        for bid in range(8):
            with pytest.raises(InjectedFaultError):
                device.read_blocks([bid])
        device.trim([0, 1])
        assert device.used_blocks() == 6
        delta = device.stats.snapshot().delta(writes_before)
        # Eight failed reads and one trim: zero new stats of any kind.
        assert delta.read_ops == 0
        assert delta.write_ops == 0
        assert delta.block_ios == 0
        assert delta.busy_us == 0.0
        plan.disarm()
        data, _ = device.read_blocks([5])
        assert data[0] == payload(5)
        assert device.stats.read_ops == 1


class TestWalAndSnapshotHooks:
    def test_wal_action_targets_one_append(self):
        plan = FaultPlan(wal_tear_at=(3, 10))
        assert plan.wal_action(2) is None
        assert plan.wal_action(3) == ("tear", 10)
        plan.disarm()
        assert plan.wal_action(3) is None

    def test_snapshot_action_respects_generation_filter(self):
        plan = FaultPlan(snapshot_fault="torn-tmp", snapshot_fault_generation=4)
        assert plan.snapshot_action(3) is None
        assert plan.snapshot_action(4) == "torn-tmp"
        unfiltered = FaultPlan(snapshot_fault="crash-after-commit")
        assert unfiltered.snapshot_action(1) == "crash-after-commit"
        assert unfiltered.snapshot_action(99) == "crash-after-commit"
