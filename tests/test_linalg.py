import numpy as np
import pytest

from eegcl import DegenerateInputError
from eegcl.errors import ShapeError
from eegcl.linalg import as_matrix, covariance, inv_sqrt, inv_sqrt_of_eig, sym_eig, symmetrize


def brute_force_covariance(x):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=1, keepdims=True)
    acc = np.zeros((x.shape[0], x.shape[0]))
    for t in range(x.shape[1]):
        d = (x[:, t : t + 1] - mu)
        acc += d @ d.T
    return acc / (x.shape[1] - 1)


class TestCovariance:
    def test_constant_trial_gives_zero_matrix(self):
        trial = np.full((3, 5), 2.5)
        assert np.array_equal(covariance(trial), np.zeros((3, 3)))

    def test_single_channel_1_2_3(self):
        # mean 2, squared deviations sum to 2, divided by T-1 = 2
        assert covariance([[1.0, 2.0, 3.0]])[0, 0] == pytest.approx(1.0)

    def test_uses_t_minus_1_divisor(self):
        # two samples 0, 2: mean 1, deviations +-1, sum 2, / (2-1) = 2
        assert covariance([[0.0, 2.0]])[0, 0] == pytest.approx(2.0)

    def test_proportional_channels_give_rank_1(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal(16)
        cov = covariance(np.stack([base, 2.0 * base]))
        assert cov[1, 1] == pytest.approx(4.0 * cov[0, 0], rel=1e-12)
        assert cov[0, 1] == pytest.approx(2.0 * cov[0, 0], rel=1e-12)
        w = np.linalg.eigvalsh(cov)
        assert w[0] == pytest.approx(0.0, abs=1e-12 * w[-1])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        trial = rng.standard_normal((4, 11))
        np.testing.assert_allclose(
            covariance(trial), brute_force_covariance(trial), rtol=0, atol=1e-13
        )

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        cov = covariance(rng.standard_normal((5, 9)))
        assert np.array_equal(cov, cov.T)

    def test_per_channel_offset_invariance(self):
        # Integer-valued data and a length that is a power of two make the
        # mean subtraction exact, so the invariance holds bitwise.
        rng = np.random.default_rng(13)
        x = rng.integers(-8, 8, size=(3, 4)).astype(np.float64)
        shifted = x + np.array([[16.0], [-32.0], [8.0]])
        assert np.array_equal(covariance(x), covariance(shifted))

    def test_too_few_timepoints(self):
        with pytest.raises(DegenerateInputError):
            covariance([[1.0]])

    def test_bad_inputs(self):
        with pytest.raises(ShapeError):
            covariance([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            covariance([[np.nan, 1.0]])


class TestSymEig:
    def test_identity_eigenvalues(self):
        w, _ = sym_eig(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3), atol=1e-14)

    def test_diagonal_matrix(self):
        w, v = sym_eig(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(w, [4.0, 9.0], atol=1e-14)
        # eigenvectors are the standard basis up to sign
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_eigenvalues_sorted_ascending(self):
        rng = np.random.default_rng(17)
        a = symmetrize(rng.standard_normal((6, 6)))
        w, _ = sym_eig(a)
        assert np.all(np.diff(w) >= 0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(19)
        for n in (2, 5, 17, 33, 64):
            a = symmetrize(rng.standard_normal((n, n)))
            w, v = sym_eig(a)
            recon = (v * w) @ v.T
            rel = np.linalg.norm(recon - a) / np.linalg.norm(a)
            assert rel < 1e-8
            assert np.linalg.norm(v.T @ v - np.eye(n)) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            sym_eig(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            sym_eig(a)

    def test_tiny_asymmetry_tolerated(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])
        w, _ = sym_eig(a)
        assert np.all(np.isfinite(w))


class TestInvSqrt:
    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt(np.eye(4)), np.eye(4), atol=1e-12)

    def test_scalar_diag(self):
        np.testing.assert_allclose(inv_sqrt(np.diag([4.0])), [[0.5]], atol=1e-14)

    def test_sandwich_identity(self):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((4, 4))
        a = symmetrize(g @ g.T + 0.5 * np.eye(4))
        r = inv_sqrt(a)
        np.testing.assert_allclose(r @ a @ r, np.eye(4), atol=1e-6)

    def test_commutes_with_input(self):
        rng = np.random.default_rng(29)
        g = rng.standard_normal((5, 5))
        a = symmetrize(g @ g.T + np.eye(5))
        r = inv_sqrt(a)
        np.testing.assert_allclose(r @ a, a @ r, atol=1e-6)

    def test_output_symmetric(self):
        rng = np.random.default_rng(31)
        g = rng.standard_normal((3, 3))
        r = inv_sqrt(symmetrize(g @ g.T + np.eye(3)))
        assert np.array_equal(r, r.T)

    def test_rank_deficient_stays_finite(self):
        a = np.diag([1.0, 0.0])
        r = inv_sqrt(a)
        assert np.all(np.isfinite(r))
        # the zero eigenvalue is floored at 1e-10 * max(lambda, 1)
        assert r[1, 1] == pytest.approx(1.0 / np.sqrt(1e-10), rel=1e-10)


class TestHelpers:
    def test_symmetrize_is_exactly_symmetric(self):
        rng = np.random.default_rng(37)
        s = symmetrize(rng.standard_normal((6, 6)))
        assert np.array_equal(s, s.T)

    def test_as_matrix_coerces_and_validates(self):
        out = as_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        with pytest.raises(ShapeError):
            as_matrix([1, 2, 3])
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_default_eig_floor(self):
        # the floor is 1e-10 x max(largest eigenvalue, 1)
        for w, floor in (([0.5, 2.0], 2e-10), ([0.1, 0.5], 1e-10)):
            assert inv_sqrt_of_eig(np.array(w), np.eye(2))[1] == pytest.approx(floor)
