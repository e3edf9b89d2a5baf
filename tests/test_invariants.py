"""Tests for the whole-index invariant checker (repro/core/invariants.py)."""

import numpy as np
import pytest

from repro.core.invariants import InvariantViolation, check_invariants
from repro.storage.layout import PostingData


def empty_posting(dim: int) -> PostingData:
    return PostingData.from_rows(
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.uint8),
        np.empty((0, dim), dtype=np.float32),
    )


class TestCleanIndex:
    def test_built_index_passes(self, built_index):
        report = check_invariants(built_index)
        assert report.ok, report.failures
        assert report.live_vectors == built_index.live_vector_count
        assert report.postings == built_index.num_postings
        assert report.npa_checked > 0

    def test_passes_after_churn_and_drain(self, built_index, rng):
        from tests.conftest import DIM

        for i in range(150):
            built_index.insert(50_000 + i, rng.normal(size=DIM).astype(np.float32))
        for i in range(0, 150, 3):
            built_index.delete(50_000 + i)
        built_index.drain()
        report = check_invariants(built_index)
        assert report.ok, report.failures

    def test_counter_incremented(self, built_index):
        assert built_index.stats.invariant_checks == 0
        built_index.check_invariants()
        assert built_index.stats.invariant_checks == 1

    def test_raise_if_failed_noop_when_ok(self, built_index):
        check_invariants(built_index).raise_if_failed()


class TestViolationDetection:
    def test_detects_lost_vector(self, built_index):
        """A live id in the version map with no live replica on disk."""
        ghost = 777_777
        built_index.version_map.register(ghost)
        report = check_invariants(built_index)
        assert ghost in report.lost_vectors
        assert not report.ok
        with pytest.raises(InvariantViolation):
            report.raise_if_failed()

    def test_detects_stale_only_vector(self, built_index):
        """Bumping a vector's version makes every on-disk copy stale."""
        vid = 0
        version = built_index.version_map.current_version(vid)
        built_index.version_map.cas_bump(vid, version)
        report = check_invariants(built_index)
        assert vid in report.lost_vectors

    def test_detects_oversized_posting(self, built_index, rng):
        from tests.conftest import DIM

        pid = built_index.controller.posting_ids()[0]
        n = built_index.config.max_posting_size + 5
        ids = np.arange(600_000, 600_000 + n)
        for vid in ids:
            built_index.version_map.register(int(vid))
        built_index.controller.append(
            pid,
            PostingData.from_rows(
                ids,
                np.zeros(n, dtype=np.uint8),
                rng.normal(size=(n, DIM)).astype(np.float32),
            ),
        )
        report = check_invariants(built_index, npa_sample=0)
        assert any(p == pid for p, _ in report.oversized_postings)
        ok_report = check_invariants(
            built_index, npa_sample=0, check_size_bounds=False
        )
        assert not ok_report.oversized_postings

    def test_detects_posting_without_centroid(self, built_index):
        pid = built_index.controller.posting_ids()[0]
        built_index.centroid_index.remove(pid)
        report = check_invariants(built_index, npa_sample=0)
        assert pid in report.postings_without_centroid

    def test_detects_centroid_without_posting(self, built_index):
        built_index.centroid_index.add(
            999, np.zeros(built_index.config.dim, dtype=np.float32)
        )
        report = check_invariants(built_index, npa_sample=0)
        assert 999 in report.centroids_without_posting

    def test_detects_npa_violation(self, built_index):
        """Planting an empty posting whose centroid sits exactly on a live
        vector makes that vector's nearest posting hold no copy of it."""
        from tests.helpers import live_vector_of

        vid = int(built_index.version_map.live_ids()[0])
        vector = live_vector_of(built_index, vid)
        fake_pid = built_index.posting_ids.next()
        built_index.controller.create(fake_pid, empty_posting(built_index.config.dim))
        built_index.centroid_index.add(fake_pid, vector.copy())
        report = check_invariants(
            built_index,
            npa_sample=built_index.live_vector_count,
            npa_allowance=0,
        )
        assert vid in report.npa_violations
        assert not report.ok


class TestCodeCoherence:
    """The PQ code audit tolerates a codeword tie and still flags a wrong code."""

    TIE = 0  # vector id sitting exactly between two codewords of subspace 0

    @pytest.fixture
    def coded_index(self):
        from repro.core.config import SPFreshConfig
        from repro.core.index import SPFreshIndex

        # Two codewords per 2-d subspace; every vector lies near a codeword
        # pair except TIE, equidistant from (0, 0) and (2, 0) in subspace 0.
        books = np.array(
            [[[0, 0], [2, 0]], [[0, 0], [0, 2]]], dtype=np.float32
        )
        rng = np.random.default_rng(5)
        picks = rng.integers(0, 2, size=(60, 2))
        vectors = np.hstack([books[0][picks[:, 0]], books[1][picks[:, 1]]])
        vectors = (vectors + rng.normal(scale=0.2, size=vectors.shape)).astype(
            np.float32
        )
        vectors[self.TIE] = (1.0, 0.0, 0.0, 0.0)
        config = SPFreshConfig(
            dim=4,
            max_posting_size=32,
            min_posting_size=3,
            build_target_posting_size=16,
            ssd_blocks=1 << 12,
            quant_enabled=True,
            quant_kind="pq",
            quant_subspaces=2,
            quant_codebook_size=2,
            seed=7,
        )
        index = SPFreshIndex.build(vectors, config=config)
        index.quantizer.codebooks = books
        for pid in index.controller.posting_ids():
            self.rewrite_codes(index, pid, lambda ids, codes: codes)
        assert check_invariants(index).code_mismatches == []
        return index

    @staticmethod
    def rewrite_codes(index, pid, edit) -> None:
        data, _ = index.controller.get(pid)
        codes = edit(data.ids, index.quantizer.encode(data.vectors))
        index.controller.put(
            pid, PostingData.from_rows(data.ids, data.versions, data.vectors, codes)
        )

    def holders(self, index, vid):
        return [
            pid
            for pid in index.controller.posting_ids()
            if vid in index.controller.get(pid)[0].ids
        ]

    def test_tied_codeword_is_not_a_mismatch(self, coded_index):
        """The write path may land on either codeword of an exact tie."""

        def other_tie(ids, codes):
            rows = ids == self.TIE
            codes[rows, 0] = 1 - codes[rows, 0]
            return codes

        pids = self.holders(coded_index, self.TIE)
        assert pids
        for pid in pids:
            self.rewrite_codes(coded_index, pid, other_tie)
        assert check_invariants(coded_index).code_mismatches == []

    def test_far_codeword_is_reported(self, coded_index):
        """The audit can fire: a code naming the far codeword is flagged."""
        victim = 1  # near one codeword of each subspace, never tied

        def far(ids, codes):
            rows = ids == victim
            codes[rows, 1] = 1 - codes[rows, 1]
            return codes

        pid = self.holders(coded_index, victim)[0]
        self.rewrite_codes(coded_index, pid, far)
        report = check_invariants(coded_index)
        assert report.code_mismatches == [(pid, 1)]
        assert not report.ok
