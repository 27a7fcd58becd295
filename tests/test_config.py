"""Tests for scenario validation: every SystemConfig is checked when it is built."""

import dataclasses
import math

import numpy as np
import pytest

from risce.config import ArrayGeometry, SystemConfig, snr_ratio


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

    # 4000 dB overflows 10**(snr_db/10), as 10**400 overflows a float; anything
    # below -1500 dB is out of range
    @pytest.mark.parametrize(
        "snr_db",
        [
            float("nan"), float("-inf"), "0", "5", 1j, True, 4000.0, -4000.0, -3200.0,
            -3076.0, -1600.0, -1501.0, pytest.param(10**400, id="10**400"),
        ],
    )
    def test_bad_snr_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            SystemConfig(snr_db=snr_db)

    # +inf is the one way to ask for no noise; None, once a second spelling,
    # is rejected like any other non-number
    @pytest.mark.parametrize("snr_db", [None, math.inf])
    def test_noiseless_spellings(self, snr_db):
        if snr_db is None:
            with pytest.raises(ValueError) as info:
                SystemConfig(snr_db=snr_db)
            assert str(info.value) == "snr_db must be a real number, got None"
        else:
            assert snr_ratio(SystemConfig(snr_db=snr_db).snr_db) == math.inf

    @pytest.mark.parametrize("snr_db", [-30.0, 0, 40.0, -1500.0, 3082.0])
    def test_finite_snr_is_noisy(self, snr_db):
        assert 0.0 < snr_ratio(SystemConfig(snr_db=snr_db).snr_db) < math.inf

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

    def test_estimator_string_rejected_as_such(self):
        # a string is a sequence of letters, and "oracle_ls" repeats some of them
        with pytest.raises(ValueError) as info:
            SystemConfig(estimators="oracle_ls")
        assert str(info.value) == "estimators must be a sequence of names, got 'oracle_ls'"

    @pytest.mark.parametrize("ue_paths", [(1, 2, 3), (4,), 4, None])
    def test_ue_paths_must_be_a_pair(self, ue_paths):
        with pytest.raises(ValueError) as info:
            SystemConfig(ue_paths=ue_paths)
        assert str(info.value) == f"ue_paths must be a (min, max) pair, got {ue_paths!r}"


class TestArrayGeometry:
    def test_bool_dimension_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry.ula(True)
        with pytest.raises(ValueError):
            ArrayGeometry.upa(4, 2.0)
