"""Tests for the product quantizer's single-query surface.

``distance_table`` / ``adc_distances``, constructor validation, the
unfitted errors and the memory model — what the DiskANN baseline uses.
The batched kernels the engine scans with are in test_quantize.py.
"""

import numpy as np
import pytest

from repro.quantize.pq import ProductQuantizer


@pytest.fixture
def fitted(rng):
    pq = ProductQuantizer(dim=16, num_subspaces=4, codebook_size=16)
    data = rng.normal(size=(500, 16)).astype(np.float32)
    pq.fit(data, rng)
    return pq, data


class TestConstruction:
    def test_dim_divisibility(self):
        with pytest.raises(ValueError):
            ProductQuantizer(dim=10, num_subspaces=4)

    def test_codebook_size_bounds(self):
        with pytest.raises(ValueError):
            ProductQuantizer(dim=8, num_subspaces=2, codebook_size=1)
        with pytest.raises(ValueError):
            ProductQuantizer(dim=8, num_subspaces=2, codebook_size=512)

    def test_unfitted_raises(self):
        pq = ProductQuantizer(dim=8, num_subspaces=2)
        with pytest.raises(RuntimeError):
            pq.encode(np.zeros((1, 8), dtype=np.float32))
        with pytest.raises(RuntimeError):
            pq.distance_table(np.zeros(8, dtype=np.float32))
        with pytest.raises(RuntimeError):
            pq.decode(np.zeros((1, 2), dtype=np.uint8))


class TestEncodeDecode:
    def test_codes_shape_and_dtype(self, fitted):
        pq, data = fitted
        codes = pq.encode(data[:10])
        assert codes.shape == (10, 4)
        assert codes.dtype == np.uint8

    def test_single_vector_encode(self, fitted):
        pq, data = fitted
        assert pq.encode(data[0]).shape == (1, 4)

    def test_reconstruction_reduces_error_vs_random(self, fitted, rng):
        pq, data = fitted
        decoded = pq.decode(pq.encode(data[:50]))
        err = np.linalg.norm(decoded - data[:50], axis=1).mean()
        random_err = np.linalg.norm(
            data[:50] - data[rng.permutation(50)], axis=1
        ).mean()
        assert err < random_err * 0.7

    def test_small_training_set(self, rng):
        pq = ProductQuantizer(dim=8, num_subspaces=2, codebook_size=16)
        tiny = rng.normal(size=(4, 8)).astype(np.float32)
        pq.fit(tiny, rng)
        codes = pq.encode(tiny)
        assert (codes < 16).all()


class TestADC:
    def test_adc_matches_decoded_distance(self, fitted):
        pq, data = fitted
        query = data[0]
        codes = pq.encode(data[:20])
        table = pq.distance_table(query)
        adc = pq.adc_distances(table, codes)
        decoded = pq.decode(codes)
        exact_to_decoded = ((decoded - query) ** 2).sum(axis=1)
        np.testing.assert_allclose(adc, exact_to_decoded, rtol=1e-3, atol=1e-2)

    def test_adc_preserves_rough_ordering(self, fitted, rng):
        pq, data = fitted
        query = rng.normal(size=16).astype(np.float32)
        codes = pq.encode(data)
        table = pq.distance_table(query)
        adc = pq.adc_distances(table, codes)
        exact = ((data - query) ** 2).sum(axis=1)
        # Top-10 by ADC should overlap strongly with top-50 exact.
        top_adc = set(np.argsort(adc)[:10].tolist())
        top_exact = set(np.argsort(exact)[:50].tolist())
        assert len(top_adc & top_exact) >= 7

    def test_single_code_row(self, fitted):
        pq, data = fitted
        table = pq.distance_table(data[0])
        single = pq.adc_distances(table, pq.encode(data[0])[0])
        assert single.shape == (1,)


class TestMemoryModel:
    def test_scales_with_vectors(self):
        pq = ProductQuantizer(dim=16, num_subspaces=4)
        assert pq.memory_bytes(2000) - pq.memory_bytes(1000) == 1000 * 4
