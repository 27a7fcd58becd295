"""Tests for scenario validation: every SystemConfig is checked when it is built."""

import dataclasses

import numpy as np
import pytest

from risce.config import ArrayGeometry, SystemConfig, is_noiseless


class TestSystemConfig:
    @pytest.mark.parametrize(
        "field", ["n_bs", "n_users", "bs_paths", "n_pilots", "trials"]
    )
    def test_non_positive_counts_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: 0})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_users": True},
            {"n_bs": True},
            {"trials": 2.0},
            {"base_seed": False},
            {"ue_paths": (True, 4)},
            {"snr_db": True},
        ],
    )
    def test_bools_and_floats_are_not_counts(self, overrides):
        with pytest.raises(ValueError):
            SystemConfig(**overrides)

    def test_numpy_integers_accepted(self):
        cfg = SystemConfig(n_bs=np.int64(32), trials=np.int32(3), snr_db=np.float64(5.0))
        assert cfg.n_bs == 32

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="base_seed"):
            SystemConfig(base_seed=-1)

    # 10**(snr_db/10) must be a normal float: +-4000 overflow and underflow, -3200 is subnormal
    @pytest.mark.parametrize(
        "snr_db", [float("nan"), float("-inf"), "0", 1j, 4000.0, -4000.0, -3200.0]
    )
    def test_bad_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            SystemConfig(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [None, float("inf")])
    def test_noiseless_spellings(self, snr_db):
        assert SystemConfig(snr_db=snr_db).noiseless
        assert is_noiseless(snr_db)

    @pytest.mark.parametrize("snr_db", [-30.0, 0, 40.0, -3076.0, 3082.0])
    def test_finite_snr_is_noisy(self, snr_db):
        assert not SystemConfig(snr_db=snr_db).noiseless

    def test_replace_is_validated(self):
        with pytest.raises(ValueError, match="n_pilots"):
            dataclasses.replace(SystemConfig(), n_pilots=0)

    def test_sparsity_bounded_by_array_sizes(self):
        with pytest.raises(ValueError, match="bs_paths"):
            SystemConfig(n_bs=4, bs_paths=5)
        with pytest.raises(ValueError, match="ue_paths"):
            SystemConfig(geometry=ArrayGeometry.ula(4), ue_paths=(2, 5))

    def test_estimator_list_checked(self):
        with pytest.raises(ValueError):
            SystemConfig(estimators=())
        with pytest.raises(ValueError):
            SystemConfig(estimators=("oracle_ls", "oracle_ls"))


class TestArrayGeometry:
    def test_bool_dimension_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry.ula(True)
        with pytest.raises(ValueError):
            ArrayGeometry.upa(4, 2.0)
