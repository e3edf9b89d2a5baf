"""Tests for the file medium of the block device and cross-"process" recovery."""

import os

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex
from repro.storage.snapshot import SnapshotManager
from repro.storage.ssd import SimulatedSSD, SSDProfile
from repro.storage.wal import WriteAheadLog
from repro.util.errors import StorageError
from tests.conftest import DIM


@pytest.fixture
def device(tmp_path):
    dev = SimulatedSSD(
        num_blocks=128, profile=SSDProfile(block_size=512), path=str(tmp_path / "dev.img")
    )
    yield dev
    dev.close()


class TestDevice:
    def test_roundtrip(self, device):
        device.write_block(3, b"hello")
        data, _ = device.read_block(3)
        assert data.startswith(b"hello")
        assert len(data) == 512

    def test_unwritten_reads_zero(self, device):
        data, _ = device.read_block(100)
        assert data == b"\x00" * 512

    def test_batch_io_and_stats(self, device):
        device.write_blocks([1, 2], [b"a", b"b"])
        payloads, latency = device.read_blocks([2, 1])
        assert payloads[0][:1] == b"b"
        assert latency == device.profile.read_batch_latency_us(2)
        assert device.stats.block_writes == 2

    def test_trim_zeroes(self, device):
        device.write_block(7, b"x")
        device.trim([7])
        data, _ = device.read_block(7)
        assert data == b"\x00" * 512

    def test_used_blocks(self, device):
        assert device.used_blocks() == 0
        device.write_block(0, b"z")
        assert device.used_blocks() == 1

    def test_out_of_range(self, device):
        with pytest.raises(StorageError):
            device.read_block(999)

    def test_oversized_payload(self, device):
        with pytest.raises(StorageError):
            device.write_block(0, b"x" * 513)

    def test_persistence_across_reopen(self, tmp_path):
        path = str(tmp_path / "p.img")
        dev = SimulatedSSD(16, SSDProfile(block_size=512), path=path)
        dev.write_block(5, b"durable")
        dev.sync()
        dev.close()
        dev2 = SimulatedSSD.reopen(path, 16, SSDProfile(block_size=512))
        data, _ = dev2.read_block(5)
        assert data.startswith(b"durable")
        dev2.close()

    def test_reopen_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            SimulatedSSD.reopen(str(tmp_path / "nope.img"), 16)

    def test_refuses_to_shrink(self, tmp_path):
        path = str(tmp_path / "s.img")
        SimulatedSSD(32, SSDProfile(block_size=512), path=path).close()
        with pytest.raises(StorageError):
            SimulatedSSD(8, SSDProfile(block_size=512), path=path)

    def test_reopen_rejects_truncated_file(self, tmp_path):
        path = str(tmp_path / "t.img")
        profile = SSDProfile(block_size=512)
        dev = SimulatedSSD(16, profile, path=path)
        dev.write_block(9, b"precious")
        dev.close()
        # Chop the tail off, as a crashed filesystem or bad copy would.
        with open(path, "r+b") as fh:
            fh.truncate(16 * 512 - 100)
        with pytest.raises(StorageError, match="truncated or resized"):
            SimulatedSSD.reopen(path, 16, profile)

    def test_reopen_rejects_wrong_geometry(self, tmp_path):
        path = str(tmp_path / "g.img")
        profile = SSDProfile(block_size=512)
        SimulatedSSD(16, profile, path=path).close()
        # File is intact, but the caller asks for a different block count:
        # the size check must catch the mismatch in both directions.
        with pytest.raises(StorageError):
            SimulatedSSD.reopen(path, 32, profile)
        with pytest.raises(StorageError):
            SimulatedSSD.reopen(path, 8, profile)
        SimulatedSSD.reopen(path, 16, profile).close()  # exact match is fine

    def test_peek_poke_and_export_roundtrip(self, tmp_path):
        path = str(tmp_path / "pp.img")
        dev = SimulatedSSD(16, SSDProfile(block_size=512), path=path)
        before = dev.stats.snapshot()
        dev.poke_block(4, b"backdoor")
        assert dev.peek_block(4).startswith(b"backdoor")
        exported = dev.export_blocks()
        assert exported[4].startswith(b"backdoor")
        delta = dev.stats.snapshot().delta(before)
        assert delta.read_ops == 0 and delta.write_ops == 0  # stats-free
        dev2 = SimulatedSSD(16, SSDProfile(block_size=512), path=str(tmp_path / "pp2.img"))
        dev2.import_blocks(exported)
        data, _ = dev2.read_block(4)
        assert data.startswith(b"backdoor")
        dev.close()
        dev2.close()


class TestColdRecovery:
    """Full restart path: new device object + on-disk snapshot and WAL."""

    def test_recover_from_files_only(self, tmp_path, vectors, small_config, rng):
        dev_path = str(tmp_path / "index.img")
        profile = SSDProfile(block_size=small_config.block_size)
        device = SimulatedSSD(small_config.ssd_blocks, profile, path=dev_path)
        wal = WriteAheadLog(str(tmp_path / "u.wal"))
        snaps = SnapshotManager(str(tmp_path))

        index = SPFreshIndex.build(
            vectors, config=small_config, wal=wal, snapshots=snaps, device=device
        )
        index.checkpoint()
        inserted = {}
        for i in range(15):
            vid = 90_000 + i
            vec = rng.normal(size=DIM).astype(np.float32)
            index.insert(vid, vec)
            inserted[vid] = vec
        device.sync()
        wal.close()
        device.close()
        del index  # "process exit"

        # Restart: everything comes back from files.
        device2 = SimulatedSSD.reopen(dev_path, small_config.ssd_blocks, profile)
        wal2 = WriteAheadLog(str(tmp_path / "u.wal"))
        snaps2 = SnapshotManager(str(tmp_path))
        recovered = SPFreshIndex.recover(device2, small_config, snaps2, wal=wal2)
        assert recovered.live_vector_count == len(vectors) + 15
        for vid, vec in inserted.items():
            result = recovered.query(
                QueryRequest.single(vec, k=1, nprobe=recovered.num_postings)
            ).result
            assert result.ids[0] == vid
        device2.close()

    def test_checkpoint_syncs_device_before_snapshot(
        self, tmp_path, vectors, small_config, monkeypatch
    ):
        # The snapshot references device blocks and the WAL is truncated
        # right after it, so the blocks must be fsync'd before it lands.
        dev_path = str(tmp_path / "index.img")
        profile = SSDProfile(block_size=small_config.block_size)
        device = SimulatedSSD(small_config.ssd_blocks, profile, path=dev_path)
        snaps = SnapshotManager(str(tmp_path))
        index = SPFreshIndex.build(
            vectors, config=small_config, snapshots=snaps, device=device
        )
        order = []
        real_fsync, real_save = os.fsync, snaps.save

        def fsync(fd):
            order.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def save(state):
            order.append(("save", None))
            return real_save(state)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(snaps, "save", save)
        index.checkpoint()
        assert order == [("fsync", os.stat(dev_path).st_ino), ("save", None)]
        device.close()
