"""Tests for the on-grid channel generator and steering vectors."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from risce.channel import generate_channels
from risce.config import ArrayGeometry, SystemConfig
from reference import (
    cascade_spatial,
    dense_channels,
    dft_matrix,
    grid_sine,
    ris_steering,
    steering_ula,
    steering_upa,
)
from util import double_sum_cascade, hand_draw, phase_ramp, same_draw


class TestGridSine:
    def test_small_array_values(self):
        assert grid_sine(4, 0) == 0.0
        assert grid_sine(4, 1) == 0.5
        assert grid_sine(4, 2) == -1.0  # 1.0 wraps to the bottom of the range
        assert grid_sine(4, 3) == -0.5

    def test_covers_half_open_interval(self):
        sines = [grid_sine(128, m) for m in range(128)]
        assert all(-1.0 <= s < 1.0 for s in sines)
        assert len(set(sines)) == 128
        npt.assert_allclose(sorted(sines), -1.0 + 2.0 * np.arange(128) / 128, atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            grid_sine(8, 8)
        with pytest.raises(ValueError):
            grid_sine(8, -1)


class TestSteeringUla:
    def test_zero_angle(self):
        npt.assert_allclose(steering_ula(4, 0), 0.5 * np.ones(4), atol=1e-15)

    def test_two_element_edge_of_grid(self):
        # grid point with |sine| = 1 gives the alternating-sign vector
        npt.assert_allclose(steering_ula(2, 1), np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("m", range(16))
    def test_unit_norm(self, m):
        assert abs(np.linalg.norm(steering_ula(16, m)) - 1.0) < 1e-12

    @pytest.mark.parametrize("m", range(16))
    def test_beam_index_equals_grid_index(self, m):
        # projecting onto the DFT puts all energy in beam m exactly
        beams = dft_matrix(16) @ steering_ula(16, m)
        assert abs(beams[m] - 1.0) < 1e-12
        others = np.delete(beams, m)
        assert np.max(np.abs(others)) < 1e-10


class TestSteeringUpa:
    def test_degenerate_single_element(self):
        npt.assert_allclose(steering_upa(1, 1, 0, 0), [1.0], atol=1e-15)

    def test_all_zero_angles(self):
        npt.assert_allclose(steering_upa(2, 2, 0, 0), 0.5 * np.ones(4), atol=1e-15)

    def test_kronecker_structure(self):
        a = steering_upa(4, 8, 3, 5)
        npt.assert_allclose(a, np.kron(steering_ula(4, 3), steering_ula(8, 5)), atol=1e-15)

    def test_beamspace_projection_one_sparse(self):
        rng = np.random.default_rng(17)
        f = np.kron(dft_matrix(4), dft_matrix(8))
        for _ in range(5):
            az, el = int(rng.integers(4)), int(rng.integers(8))
            beams = f @ steering_upa(4, 8, az, el)
            flat = az * 8 + el
            assert abs(beams[flat] - 1.0) < 1e-12
            assert np.max(np.abs(np.delete(beams, flat))) < 1e-10

    def test_unit_norm(self):
        assert abs(np.linalg.norm(steering_upa(8, 16, 5, 11)) - 1.0) < 1e-12


class TestAssembleChannels:
    """Dense assembly of G and h from the draw's arrays (`dense_channels`)."""

    def test_single_path_rank_one(self):
        gain = 0.7 - 1.2j
        G, _ = dense_channels(hand_draw(ArrayGeometry.ula(16), 8, [(gain, 2, 5)], [[(1.0, 3)]]))
        assert np.linalg.matrix_rank(G) == 1
        assert abs(np.linalg.norm(G) - abs(gain)) < 1e-12
        expected = gain * np.outer(steering_ula(8, 2), np.conj(steering_ula(16, 5)))
        npt.assert_allclose(G, expected, atol=1e-14)

    def test_user_vector_superposition(self):
        _, h = dense_channels(hand_draw(ArrayGeometry.ula(8), 4, [], [[(2.0, 1), (-1.0j, 4)]]))
        expected = 2.0 * steering_ula(8, 1) - 1.0j * steering_ula(8, 4)
        npt.assert_allclose(h[0], expected, atol=1e-14)


class TestGenerateChannels:
    def test_seed_determinism(self):
        cfg = SystemConfig()
        a = generate_channels(cfg, np.random.default_rng(42))
        b = generate_channels(cfg, np.random.default_rng(42))
        (G_a, h_a), (G_b, h_b) = dense_channels(a), dense_channels(b)
        npt.assert_array_equal(G_a, G_b)
        for ha, hb in zip(h_a, h_b):
            npt.assert_array_equal(ha, hb)
        assert same_draw(a, b)

    def test_distinct_grid_indices_per_draw(self):
        cfg = SystemConfig()
        for seed in range(10):
            real = generate_channels(cfg, np.random.default_rng(seed))
            for indices in (real.g_beams, real.g_ris, *real.h_paths):
                assert np.unique(indices).size == indices.size

    def test_path_count_range_is_inclusive(self):
        cfg = SystemConfig()
        counts = set()
        for seed in range(40):
            real = generate_channels(cfg, np.random.default_rng(seed))
            counts.update(len(user) for user in real.h_paths)
        assert counts == {4, 5, 6, 7, 8}

    def test_reconstruction_from_path_metadata(self):
        # G must equal the plain steering-vector sum rebuilt from its paths
        cfg = dataclasses.replace(SystemConfig(), n_users=2)
        real = generate_channels(cfg, np.random.default_rng(3))
        G, _ = dense_channels(real)
        n_bs, n_i = G.shape
        rebuilt = np.zeros_like(G)
        for beam, index, gain in zip(real.g_beams, real.g_ris, real.g_gains):
            a_bs = phase_ramp(n_bs, 2.0 * beam / n_bs)
            a_ris = phase_ramp(n_i, 2.0 * index / n_i)
            rebuilt += gain * np.outer(a_bs, np.conj(a_ris))
        npt.assert_allclose(G, rebuilt, atol=1e-12)

    def test_planar_draw_uses_axis_pairs(self):
        cfg = dataclasses.replace(SystemConfig(), geometry=ArrayGeometry.upa(8, 16), n_users=4)
        real = generate_channels(cfg, np.random.default_rng(5))
        # reflector indices are flat on the (8, 16) grid: i1 * 16 + i2
        for indices in (real.g_ris, *real.h_paths):
            assert indices.dtype.kind == "i"
            assert np.all((indices >= 0) & (indices < 8 * 16))
        az, el = np.divmod(real.g_ris[0], 16)
        npt.assert_allclose(
            ris_steering(real.geometry, real.g_ris[0]), steering_upa(8, 16, az, el), atol=1e-15
        )
        # a linear array runs as the n2 == 1 grid: its flat index is its grid index
        ula = dataclasses.replace(cfg, geometry=ArrayGeometry.ula(128))
        linear = generate_channels(ula, np.random.default_rng(5))
        first = linear.g_ris[0]
        npt.assert_array_equal(ris_steering(ula.geometry, first), steering_ula(128, first))

    def test_invalid_sparsity_rejected(self):
        with pytest.raises(ValueError):
            cfg = dataclasses.replace(SystemConfig(), bs_paths=200)
            generate_channels(cfg, np.random.default_rng(0))


class TestCascadeSpatial:
    def test_all_ones_diagonal_is_identity(self):
        rng = np.random.default_rng(1)
        G = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        npt.assert_array_equal(cascade_spatial(G, np.ones(6)), G)

    def test_zero_vector_gives_zero_matrix(self):
        G = np.ones((3, 5), dtype=complex)
        npt.assert_array_equal(cascade_spatial(G, np.zeros(5)), np.zeros((3, 5)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cascade_spatial(np.ones((3, 5)), np.ones(4))

    def test_single_path_matches_analytic_outer_product(self):
        real = hand_draw(ArrayGeometry.ula(16), 8, [(1.3 + 0.2j, 3, 7)], [[(-0.4 + 0.9j, 2)]])
        G, h = dense_channels(real)
        got = cascade_spatial(G, h[0])
        npt.assert_allclose(got, double_sum_cascade(real)[0], atol=1e-10)

    def test_random_draws_match_double_sum(self):
        cfg = dataclasses.replace(SystemConfig(), n_users=3)
        for seed in range(5):
            real = generate_channels(cfg, np.random.default_rng(seed))
            expected = double_sum_cascade(real)
            G, h = dense_channels(real)
            for k in range(3):
                got = cascade_spatial(G, h[k])
                assert np.linalg.norm(got - expected[k]) < 1e-10

    def test_planar_draws_match_double_sum(self):
        cfg = dataclasses.replace(
            SystemConfig(), geometry=ArrayGeometry.upa(8, 16), n_users=2
        )
        for seed in range(3):
            real = generate_channels(cfg, np.random.default_rng(seed))
            expected = double_sum_cascade(real)
            G, h = dense_channels(real)
            for k in range(2):
                got = cascade_spatial(G, h[k])
                assert np.linalg.norm(got - expected[k]) < 1e-10
