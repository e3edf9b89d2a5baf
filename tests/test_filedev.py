"""Tests for the file-backed block device and cross-"process" recovery."""

import numpy as np
import pytest

from repro.api import QueryRequest
from repro.core.index import SPFreshIndex
from repro.storage.filedev import FileBackedSSD
from repro.storage.snapshot import SnapshotManager
from repro.storage.ssd import SSDProfile
from repro.storage.wal import WriteAheadLog
from repro.util.errors import StorageError
from tests.conftest import DIM


@pytest.fixture
def device(tmp_path):
    dev = FileBackedSSD(
        str(tmp_path / "dev.img"), num_blocks=128, profile=SSDProfile(block_size=512)
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
        dev = FileBackedSSD(path, 16, SSDProfile(block_size=512))
        dev.write_block(5, b"durable")
        dev.sync()
        dev.close()
        dev2 = FileBackedSSD.reopen(path, 16, SSDProfile(block_size=512))
        data, _ = dev2.read_block(5)
        assert data.startswith(b"durable")
        dev2.close()

    def test_reopen_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            FileBackedSSD.reopen(str(tmp_path / "nope.img"), 16)

    def test_refuses_to_shrink(self, tmp_path):
        path = str(tmp_path / "s.img")
        FileBackedSSD(path, 32, SSDProfile(block_size=512)).close()
        with pytest.raises(StorageError):
            FileBackedSSD(path, 8, SSDProfile(block_size=512))

    def test_reopen_rejects_truncated_file(self, tmp_path):
        path = str(tmp_path / "t.img")
        profile = SSDProfile(block_size=512)
        dev = FileBackedSSD(path, 16, profile)
        dev.write_block(9, b"precious")
        dev.close()
        # Chop the tail off, as a crashed filesystem or bad copy would.
        with open(path, "r+b") as fh:
            fh.truncate(16 * 512 - 100)
        with pytest.raises(StorageError, match="truncated or resized"):
            FileBackedSSD.reopen(path, 16, profile)

    def test_reopen_rejects_wrong_geometry(self, tmp_path):
        path = str(tmp_path / "g.img")
        profile = SSDProfile(block_size=512)
        FileBackedSSD(path, 16, profile).close()
        # File is intact, but the caller asks for a different block count:
        # the size check must catch the mismatch in both directions.
        with pytest.raises(StorageError):
            FileBackedSSD.reopen(path, 32, profile)
        with pytest.raises(StorageError):
            FileBackedSSD.reopen(path, 8, profile)
        FileBackedSSD.reopen(path, 16, profile).close()  # exact match is fine

    def test_peek_poke_and_export_roundtrip(self, tmp_path):
        path = str(tmp_path / "pp.img")
        dev = FileBackedSSD(path, 16, SSDProfile(block_size=512))
        before = dev.stats.snapshot()
        dev.poke_block(4, b"backdoor")
        assert dev.peek_block(4).startswith(b"backdoor")
        exported = dev.export_blocks()
        assert exported[4].startswith(b"backdoor")
        delta = dev.stats.snapshot().delta(before)
        assert delta.read_ops == 0 and delta.write_ops == 0  # stats-free
        dev2 = FileBackedSSD(str(tmp_path / "pp2.img"), 16, SSDProfile(block_size=512))
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
        device = FileBackedSSD(dev_path, small_config.ssd_blocks, profile)
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
        device2 = FileBackedSSD.reopen(dev_path, small_config.ssd_blocks, profile)
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
