"""Tests for the simulated SSD device and its latency model."""

import threading

import pytest

from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.util.errors import StorageError


class TestProfile:
    def test_batch_latency_waves(self):
        profile = SSDProfile(read_latency_us=100.0, queue_depth=8)
        assert profile.read_batch_latency_us(0) == 0.0
        assert profile.read_batch_latency_us(1) == 100.0
        assert profile.read_batch_latency_us(8) == 100.0
        assert profile.read_batch_latency_us(9) == 200.0
        assert profile.read_batch_latency_us(24) == 300.0

    def test_write_latency_waves(self):
        profile = SSDProfile(write_latency_us=20.0, queue_depth=4)
        assert profile.write_batch_latency_us(5) == 40.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SSDProfile(block_size=0)
        with pytest.raises(ValueError):
            SSDProfile(queue_depth=0)
        with pytest.raises(ValueError):
            SSDProfile(read_latency_us=-1)


class TestReadWrite:
    def test_roundtrip(self, ssd):
        payload = b"hello world"
        ssd.write_block(3, payload)
        data, _ = ssd.read_block(3)
        assert data[: len(payload)] == payload
        assert len(data) == ssd.block_size

    def test_unwritten_blocks_read_zero(self, ssd):
        data, _ = ssd.read_block(7)
        assert data == b"\x00" * ssd.block_size

    def test_overwrite(self, ssd):
        ssd.write_block(0, b"first")
        ssd.write_block(0, b"second")
        data, _ = ssd.read_block(0)
        assert data.startswith(b"second")

    def test_batch_roundtrip(self, ssd):
        ssd.write_blocks([1, 2, 3], [b"a", b"b", b"c"])
        data, _ = ssd.read_blocks([3, 1, 2])
        assert [d[:1] for d in data] == [b"c", b"a", b"b"]

    def test_out_of_range_block(self, ssd):
        with pytest.raises(StorageError):
            ssd.read_block(ssd.num_blocks)
        with pytest.raises(StorageError):
            ssd.write_block(-1, b"x")

    def test_oversized_payload_rejected(self, ssd):
        with pytest.raises(StorageError):
            ssd.write_block(0, b"x" * (ssd.block_size + 1))

    def test_mismatched_batch_rejected(self, ssd):
        with pytest.raises(StorageError):
            ssd.write_blocks([1, 2], [b"only-one"])

    def test_rejected_write_batch_stores_nothing(self):
        ssd = SimulatedSSD(8, SSDProfile(block_size=64))
        with pytest.raises(StorageError):
            ssd.write_blocks([0, 8], [b"a", b"b"])
        with pytest.raises(StorageError):
            ssd.write_blocks([1, 2], [b"a", b"b" * 65])
        assert ssd.used_blocks() == 0
        assert ssd.stats.write_ops == 0
        assert ssd.op_index == 0  # a rejected batch is not a device op

    def test_rejected_trim_drops_nothing(self):
        ssd = SimulatedSSD(8, SSDProfile(block_size=64))
        ssd.write_blocks([1, 2], [b"a", b"b"])
        with pytest.raises(StorageError):
            ssd.trim([1, 99])
        assert ssd.read_block(1)[0].startswith(b"a")
        assert ssd.used_blocks() == 2

    def test_rejected_poke_and_import_store_nothing(self):
        ssd = SimulatedSSD(8, SSDProfile(block_size=64))
        ssd.write_block(3, b"kept")
        with pytest.raises(StorageError):
            ssd.poke_block(8, b"x")
        with pytest.raises(StorageError):
            ssd.import_blocks({2: b"x" * 100})
        with pytest.raises(StorageError):
            ssd.import_blocks({2: b"x", 8: b"y"})
        assert ssd.export_blocks() == {3: b"kept".ljust(64, b"\x00")}

    def test_import_pads_short_blocks(self):
        ssd = SimulatedSSD(8, SSDProfile(block_size=64))
        ssd.import_blocks({2: b"x"})
        assert ssd.read_block(2)[0] == b"x".ljust(64, b"\x00")

    def test_trim_zeroes_content(self, ssd):
        ssd.write_block(5, b"data")
        ssd.trim([5])
        data, _ = ssd.read_block(5)
        assert data == b"\x00" * ssd.block_size
        assert ssd.used_blocks() == 0


class TestAccounting:
    def test_stats_accumulate(self, ssd):
        ssd.write_blocks([0, 1], [b"a", b"b"])
        ssd.read_blocks([0, 1, 1])
        assert ssd.stats.block_writes == 2
        assert ssd.stats.block_reads == 3
        assert ssd.stats.bytes_read == 3 * ssd.block_size

    def test_latency_returned_matches_profile(self, ssd):
        latency = ssd.write_blocks([0], [b"x"])
        assert latency == ssd.profile.write_batch_latency_us(1)
        _, rlat = ssd.read_blocks(list(range(40)))
        assert rlat == ssd.profile.read_batch_latency_us(40)

    def test_window_delta(self, ssd):
        before = ssd.stats.snapshot()
        ssd.write_block(0, b"x")
        ssd.read_block(0)
        window = ssd.stats.snapshot().delta(before)
        assert window.block_reads == 1
        assert window.block_writes == 1
        assert window.block_ios == 2
        assert window.iops(2.0) == 1.0

    def test_iops_zero_wall(self, ssd):
        window = ssd.stats.snapshot()
        assert window.iops(0.0) == 0.0


class TestConcurrency:
    def test_parallel_writers_distinct_blocks(self):
        ssd = SimulatedSSD(num_blocks=64, profile=SSDProfile(block_size=64))

        def writer(start):
            for i in range(start, 64, 4):
                ssd.write_block(i, bytes([i]) * 8)

        threads = [threading.Thread(target=writer, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(64):
            data, _ = ssd.read_block(i)
            assert data[0] == i

    def test_capacity_properties(self):
        ssd = SimulatedSSD(num_blocks=10, profile=SSDProfile(block_size=128))
        assert ssd.capacity_bytes == 1280
        with pytest.raises(ValueError):
            SimulatedSSD(num_blocks=0)
