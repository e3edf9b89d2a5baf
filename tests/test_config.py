"""Tests for configuration validation and presets."""

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.core.config import SPFreshConfig
from repro.util.errors import ConfigError


class TestValidation:
    def test_default_is_valid(self):
        SPFreshConfig().validate()

    def test_bad_dim(self):
        with pytest.raises(ConfigError):
            SPFreshConfig(dim=0).validate()

    def test_min_must_be_below_max(self):
        with pytest.raises(ConfigError):
            SPFreshConfig(min_posting_size=100, max_posting_size=50).validate()

    def test_replica_counts_positive(self):
        with pytest.raises(ConfigError):
            SPFreshConfig(replica_count=0).validate()
        with pytest.raises(ConfigError):
            SPFreshConfig(insert_replicas=0).validate()
        with pytest.raises(ConfigError):
            SPFreshConfig(reassign_replicas=0).validate()

    def test_negative_epsilon(self):
        with pytest.raises(ConfigError):
            SPFreshConfig(closure_epsilon=-0.1).validate()

    def test_build_target_below_split_limit(self):
        with pytest.raises(ConfigError):
            SPFreshConfig(
                build_target_posting_size=200, max_posting_size=100
            ).validate()

    def test_reassign_requires_split(self):
        with pytest.raises(ConfigError):
            SPFreshConfig(enable_split=False, enable_reassign=True).validate()

    def test_unknown_centroid_kind(self):
        with pytest.raises(ConfigError):
            SPFreshConfig(centroid_index_kind="octree").validate()

    def test_nprobe_positive(self):
        with pytest.raises(ConfigError):
            SPFreshConfig(default_nprobe=0).validate()

    def test_background_workers_positive(self):
        with pytest.raises(ConfigError):
            SPFreshConfig(background_workers=0).validate()

    @pytest.mark.parametrize(
        "bad",
        [
            {"quant_kind": "opq"},
            {"quant_subspaces": 0},
            {"quant_codebook_size": 1},
            {"quant_codebook_size": 257},
            {"quant_rerank_k": 0},
            {"quant_enabled": True, "dim": 30, "quant_subspaces": 8},
            {"cluster_nprobe": 0},
            {"cluster_centroids_per_shard": 0},
            {"cluster_split_threshold": 1},
            {"cluster_replication_factor": 0},
            {"fresh_flush_threshold": 0},
        ],
    )
    def test_subsystem_knobs(self, bad):
        with pytest.raises(ConfigError):
            SPFreshConfig(**bad).validate()

    def test_tenant_weights_normalised_to_tuple(self):
        config = SPFreshConfig(serve_tenant_weights=[1.0, 2.0]).validate()
        assert config.serve_tenant_weights == (1.0, 2.0)


def test_every_knob_is_read():
    """A field no code outside config.py reads is a dead knob."""
    package = Path(repro.__file__).parent
    source = "\n".join(
        path.read_text()
        for path in package.rglob("*.py")
        if path != package / "core" / "config.py"
    )
    dead = [
        field.name
        for field in dataclasses.fields(SPFreshConfig)
        if not re.search(rf"\.{field.name}\b", source)
    ]
    assert dead == []


class TestOverridesAndPresets:
    def test_with_overrides_returns_new_object(self):
        base = SPFreshConfig()
        other = base.with_overrides(max_posting_size=200)
        assert other.max_posting_size == 200
        assert base.max_posting_size != 200

    def test_with_overrides_validates(self):
        with pytest.raises(ConfigError):
            SPFreshConfig().with_overrides(dim=-1)

    def test_spann_plus_preset_disables_lire(self):
        config = SPFreshConfig.spann_plus(dim=8)
        assert not config.enable_split
        assert not config.enable_merge
        assert not config.enable_reassign

    def test_spann_plus_accepts_overrides(self):
        config = SPFreshConfig.spann_plus(dim=8, max_posting_size=500)
        assert config.max_posting_size == 500

    def test_ablation_lattice_expressible(self):
        """The Figure-10 variants are all valid configurations."""
        SPFreshConfig.spann_plus()  # in-place only
        SPFreshConfig(enable_split=True, enable_merge=False, enable_reassign=False).validate()
        SPFreshConfig(enable_split=True, enable_merge=True, enable_reassign=True).validate()
