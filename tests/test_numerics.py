"""Tests for the complex linear-algebra primitives."""

import numpy as np
import numpy.testing as npt
import pytest

from risce.numerics import (
    circ_xcorr_1d,
    circ_xcorr_2d,
    dft_matrix,
    ls_solve,
    peak_shift_2d,
    signed_shift,
    top_l_indices,
)


class TestDftMatrix:
    def test_size_one(self):
        npt.assert_allclose(dft_matrix(1), [[1.0]], atol=1e-15)

    def test_size_two(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        npt.assert_allclose(dft_matrix(2), expected, atol=1e-15)

    def test_unitary_size_eight(self):
        f = dft_matrix(8)
        npt.assert_allclose(f @ f.conj().T, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("n", [3, 16, 64, 128])
    def test_unitary_general(self, n):
        f = dft_matrix(n)
        assert np.linalg.norm(f @ f.conj().T - np.eye(n)) < 1e-10

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


def column(corr):
    """A 1-D correlation as the (n, 1) map of a linear array's element grid."""
    return np.asarray(corr)[:, None]


class TestCircXcorr1d:
    def test_single_impulse_shift(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0, 0.0])  # v[n] = u[(n - 1) mod 4]
        corr = circ_xcorr_1d(u, v)
        assert int(np.argmax(corr)) == 1
        assert peak_shift_2d(column(corr)) == (1, 0)

    def test_zero_shift(self):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        corr = circ_xcorr_1d(u, u)
        assert int(np.argmax(corr)) == 0

    def test_negative_shift_recovery(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        u /= np.linalg.norm(u)
        v = np.roll(u, -16)
        assert peak_shift_2d(column(circ_xcorr_1d(u, v))) == (-16, 0)

    def test_all_shifts_brute_force(self):
        # the peak lag must equal the shift that maps u's support onto v's
        rng = np.random.default_rng(11)
        u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        for delta in range(64):
            v = np.roll(u, delta)
            assert peak_shift_2d(column(circ_xcorr_1d(u, v))) == (signed_shift(delta, 64), 0)

    def test_definition_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        corr = circ_xcorr_1d(u, v)
        for d in range(9):
            direct = abs(sum(np.conj(u[m]) * v[(m + d) % 9] for m in range(9)))
            assert abs(corr[d] - direct) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            circ_xcorr_1d(np.ones(4), np.ones(5))

    def test_empty(self):
        with pytest.raises(ValueError):
            circ_xcorr_1d(np.ones(0), np.ones(0))


class TestCircXcorr2d:
    def test_single_impulse_shift(self):
        u = np.zeros((4, 8))
        v = np.zeros((4, 8))
        u[0, 0] = 1.0
        v[2, 3] = 1.0
        corr = circ_xcorr_2d(u, v)
        assert np.unravel_index(int(np.argmax(corr)), corr.shape) == (2, 3)
        # +2 on a period-4 axis leaves the signed range [-2, 2), so -2 is canonical
        assert peak_shift_2d(corr) == (-2, 3)

    def test_zero_shift(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert peak_shift_2d(circ_xcorr_2d(u, u)) == (0, 0)

    def test_wrapped_shift_recovery(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        v = np.roll(u, (-3, 5), axis=(0, 1))
        # +5 and -3 are the same period-8 circular shift; the signed form wins
        assert peak_shift_2d(circ_xcorr_2d(u, v)) == (-3, -3)

    def test_all_shifts_brute_force(self):
        rng = np.random.default_rng(13)
        u = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        for d1 in range(8):
            for d2 in range(8):
                v = np.roll(u, (d1, d2), axis=(0, 1))
                expected = (signed_shift(d1, 8), signed_shift(d2, 8))
                assert peak_shift_2d(circ_xcorr_2d(u, v)) == expected

    def test_definition_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        v = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        corr = circ_xcorr_2d(u, v)
        for d1 in range(3):
            for d2 in range(5):
                acc = 0.0 + 0.0j
                for m1 in range(3):
                    for m2 in range(5):
                        acc += np.conj(u[m1, m2]) * v[(m1 + d1) % 3, (m2 + d2) % 5]
                assert abs(corr[d1, d2] - abs(acc)) < 1e-12

    def test_reduces_to_1d_when_flat(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        flat = circ_xcorr_1d(u, v)
        planar = circ_xcorr_2d(u.reshape(16, 1), v.reshape(16, 1))
        npt.assert_allclose(planar[:, 0], flat, atol=1e-12)

    @pytest.mark.parametrize("shape", [(128, 1), (16, 16), (8, 16)])
    def test_batch_matches_each_pair(self, shape):
        # offset estimation correlates users x columns map pairs in one call
        rng = np.random.default_rng(sum(shape))
        maps = rng.standard_normal((3, 4, *shape)) + 1j * rng.standard_normal((3, 4, *shape))
        ref = np.broadcast_to(maps[:, :1], maps.shape)
        batch = circ_xcorr_2d(ref, maps)
        for k in range(3):
            for j in range(4):
                npt.assert_array_equal(batch[k, j], circ_xcorr_2d(maps[k, 0], maps[k, j]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            circ_xcorr_2d(np.ones((2, 3)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            circ_xcorr_2d(np.ones(4), np.ones(4))


def direct_xcorr_2d(u, v):
    """The defining double sum, c[d1, d2] = |sum conj(u[m1, m2]) v[m1 + d1, m2 + d2]|, wrapped."""
    n1, n2 = u.shape
    out = np.empty((n1, n2))
    for d1 in range(n1):
        for d2 in range(n2):
            acc = 0.0 + 0.0j
            for m1 in range(n1):
                for m2 in range(n2):
                    acc += np.conj(u[m1, m2]) * v[(m1 + d1) % n1, (m2 + d2) % n2]
            out[d1, d2] = abs(acc)
    return out


class TestCircXcorrDirectReference:
    """The FFT correlations against the defining double sums, within 1e-12 of scale."""

    @staticmethod
    def pair(shape, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return u, v, np.linalg.norm(u) * np.linalg.norm(v)

    @pytest.mark.parametrize("n", [1, 2, 7, 128])
    def test_1d(self, n):
        u, v, scale = self.pair(n, n)
        direct = direct_xcorr_2d(u[:, None], v[:, None])[:, 0]
        npt.assert_allclose(circ_xcorr_1d(u, v), direct, rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("shape", [(1, 7), (1, 128), (16, 16)])
    def test_2d(self, shape):
        u, v, scale = self.pair(shape, sum(shape))
        npt.assert_allclose(circ_xcorr_2d(u, v), direct_xcorr_2d(u, v), rtol=0, atol=1e-12 * scale)

    def test_zero_input_gives_exact_zeros(self):
        # offset estimation reads "no correlation mass" off exact zeros
        u, v, _ = self.pair(16, 0)
        assert not np.any(circ_xcorr_1d(np.zeros(16), v) > 0.0)
        assert not np.any(circ_xcorr_2d(u.reshape(4, 4), np.zeros((4, 4))) > 0.0)

    def test_2d_rejects_empty(self):
        with pytest.raises(ValueError):
            circ_xcorr_2d(np.ones((0, 3)), np.ones((0, 3)))


class TestLsSolve:
    def test_identity_system(self):
        y = np.array([1.0, 1.0j, -2.0])
        x, deficient = ls_solve(np.eye(3, dtype=complex), y)
        npt.assert_allclose(x, y, atol=1e-14)
        assert not deficient

    def test_tall_single_column(self):
        x, deficient = ls_solve(np.array([[2.0], [0.0]]), np.array([4.0, 0.0]))
        npt.assert_allclose(x, [2.0], atol=1e-14)
        assert not deficient

    def test_forward_construction(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x, deficient = ls_solve(a, a @ x0)
        npt.assert_allclose(x, x0, atol=1e-10)
        assert not deficient

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((20, 5)) + 1j * rng.standard_normal((20, 5))
        y = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        x, _ = ls_solve(a, y)
        resid = y - a @ x
        assert np.linalg.norm(a.conj().T @ resid) < 1e-8 * np.linalg.norm(y)

    def test_rank_deficient_falls_back_to_min_norm(self):
        col = np.array([1.0, 2.0, 3.0])
        a = np.column_stack([col, col])  # duplicated column
        y = 2.0 * col
        x, deficient = ls_solve(a, y)
        assert deficient
        npt.assert_allclose(x, np.linalg.pinv(a) @ y, atol=1e-10)
        npt.assert_allclose(a @ x, y, atol=1e-10)

    def test_empty_support(self):
        x, deficient = ls_solve(np.zeros((4, 0)), np.ones(4))
        assert x.size == 0
        assert not deficient

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ls_solve(np.ones((3, 2)), np.ones(4))


class TestTopLIndices:
    def test_basic_selection(self):
        npt.assert_array_equal(top_l_indices(np.array([0.1, 5.0, 3.0, 5.0]), 2), [1, 3])

    def test_tie_breaks_to_smallest_index(self):
        npt.assert_array_equal(top_l_indices(np.array([2.0, 2.0, 1.0]), 1), [0])

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(9)
        values = rng.standard_normal(128)
        expected = sorted(sorted(range(128), key=lambda i: (-values[i], i))[:4])
        npt.assert_array_equal(top_l_indices(values, 4), expected)

    def test_selection_size_out_of_range(self):
        with pytest.raises(ValueError):
            top_l_indices(np.ones(3), 4)
        with pytest.raises(ValueError):
            top_l_indices(np.ones(3), 0)


class TestSignedShift:
    @pytest.mark.parametrize(
        "index,period,expected",
        [
            (0, 64, 0),
            (48, 64, -16),
            (54, 64, -10),
            (31, 64, 31),
            (32, 64, -32),
            (2, 5, 2),
            (3, 5, -2),
            (-16, 64, -16),  # already-signed input wraps consistently
        ],
    )
    def test_values(self, index, period, expected):
        assert signed_shift(index, period) == expected

    def test_round_trip(self):
        for period in (5, 6, 64):
            for d in range(period):
                assert signed_shift(d, period) % period == d

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            signed_shift(1, 0)
