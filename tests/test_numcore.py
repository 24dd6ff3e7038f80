import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from stealthimpact import numcore
from conftest import random_system
from oracles import exceed_quadrature, lyapunov_residual, lyapunov_series


def test_spd_check_basics():
    assert numcore.spd_check(np.eye(3)).is_positive_definite
    assert not numcore.spd_check(np.diag([1.0, -0.1])).is_positive_definite
    assert not numcore.spd_check(np.diag([1.0, 0.0])).is_positive_definite
    # empty matrices pass vacuously
    assert numcore.spd_check(np.zeros((0, 0))).is_positive_definite


def test_spd_check_relative_guard():
    # min eigenvalue below PD_RTOL * max eigenvalue counts as degenerate
    M = np.diag([1e12, 1.0])
    assert not numcore.spd_check(M).is_positive_definite
    assert numcore.spd_check(np.diag([1e12, 1e4])).is_positive_definite


def test_spd_factor_either_side_of_the_threshold():
    """Matrices that factor on both sides of PD_RTOL: spd_check's verdict stands."""
    Q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(40, 40)))
    for top in (1.0, 1e-3, 1e3):
        floor = numcore.PD_RTOL * max(1.0, top)
        for low, passes in ((2.0 * floor, True), (0.5 * floor, False)):
            M = (Q * np.geomspace(low, top, 40)) @ Q.T
            M = 0.5 * (M + M.T)
            np.linalg.cholesky(M)  # factors in either case
            factor = numcore.spd_factor(M)
            assert (factor is not None) == passes == numcore.spd_check(M).is_positive_definite
            if passes:
                assert np.allclose(factor @ factor.T, M, rtol=0.0, atol=1e-12 * top)


def test_spd_factor_failure_decides_without_eigenvalues(monkeypatch):
    assert numcore._failed_cholesky_decides(948) and not numcore._failed_cholesky_decides(950)
    singular = np.diag([1.0, 1.0, 0.0])
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # any eigenvalue solve would raise
    assert numcore.spd_factor(singular) is None
    assert numcore.spd_factor(-np.eye(2)) is None
    monkeypatch.undo()
    # above the size where a failure proves it, spd_check decides; a matrix
    # that passes it but does not factor is a numerical failure
    monkeypatch.setattr(numcore, "_failed_cholesky_decides", lambda n: False)
    assert numcore.spd_factor(singular) is None

    def unfactorable(m):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", unfactorable)
    with pytest.raises(np.linalg.LinAlgError):
        numcore.spd_factor(np.eye(2))


def test_dare_scalar_closed_form():
    # scalar steady state solves c^2 P^2 + (s_w (1 - a^2) - c^2 s_v) P - s_v s_w = 0
    a, c, s_v, s_w = 0.9, 1.3, 0.4, 0.2
    b = s_w * (1.0 - a * a) - c * c * s_v
    expected = (-b + np.sqrt(b * b + 4 * c * c * s_v * s_w)) / (2 * c * c)
    P = numcore.solve_dare(np.array([[a]]), np.array([[c]]), np.array([[s_v]]), np.array([[s_w]]))
    assert abs(P[0, 0] - expected) < 1e-10


def test_dare_zero_dynamics():
    # with A = 0 the prediction covariance is just the process noise
    P = numcore.solve_dare(np.zeros((2, 2)), np.eye(2), 0.3 * np.eye(2), 0.1 * np.eye(2))
    assert np.allclose(P, 0.3 * np.eye(2), atol=1e-12)


def test_dare_residual_fixture_and_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        sys = random_system(rng)
        p = sys.plant
        res = numcore.dare_residual(p.A, p.C, p.sigma_v, p.sigma_w, sys.estimator.sigma_e)
        assert res <= 1e-9


def test_kalman_gain_matches_definition():
    rng = np.random.default_rng(3)
    sys = random_system(rng)
    p, e = sys.plant, sys.estimator
    S = p.C @ e.sigma_e @ p.C.T + p.sigma_w
    K_expected = p.A @ e.sigma_e @ p.C.T @ np.linalg.inv(S)
    assert np.allclose(e.K, K_expected, atol=1e-12)
    assert np.allclose(e.sigma_r, S, atol=1e-12)
    assert numcore.spectral_radius(p.A - e.K @ p.C) < 1.0


def test_kalman_gain_unstable_loop_raises():
    # C = 0 gives K = 0, so the loop matrix is A itself; pick unstable A
    A = np.array([[1.5]])
    C = np.zeros((1, 1))
    sigma_e = np.array([[1.0]])
    with pytest.raises(numcore.UnstableClosedLoop):
        numcore.kalman_gain(A, C, sigma_e, np.array([[1.0]]))


def test_lyapunov_matches_series():
    rng = np.random.default_rng(11)
    for _ in range(5):
        A = rng.normal(size=(4, 4))
        A *= 0.7 / numcore.spectral_radius(A)
        G = rng.normal(size=(4, 4))
        Q = G @ G.T + 0.1 * np.eye(4)
        S = numcore.solve_lyapunov(A, Q)
        S_ref = lyapunov_series(A, Q)
        assert np.allclose(S, S_ref, rtol=1e-9, atol=1e-11)
        assert lyapunov_residual(A, Q, S) <= 1e-12


def test_lyapunov_doubling_branch():
    # a larger, denser system than the 4 x 4 series checks
    rng = np.random.default_rng(5)
    n = 25
    A = rng.normal(size=(n, n))
    A *= 0.6 / numcore.spectral_radius(A)
    G = rng.normal(size=(n, n))
    Q = G @ G.T + 0.1 * np.eye(n)
    S = numcore.solve_lyapunov(A, Q)
    assert lyapunov_residual(A, Q, S) <= 1e-10


def test_lyapunov_rejects_unstable():
    with pytest.raises(numcore.UnstableMatrix):
        numcore.solve_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


def test_sym_sqrt_roundtrip():
    rng = np.random.default_rng(2)
    G = rng.normal(size=(5, 5))
    M = G @ G.T + 0.5 * np.eye(5)
    R = numcore.sym_sqrt(M)
    assert np.allclose(R @ R, M, atol=1e-10)
    assert np.allclose(R, R.T, atol=1e-12)
    Rinv = numcore.sym_inv_sqrt(M)
    assert np.allclose(Rinv @ M @ Rinv, np.eye(5), atol=1e-10)


def test_sym_inv_sqrt_rejects_semidefinite():
    with pytest.raises(numcore.NotPositiveDefinite):
        numcore.sym_inv_sqrt(np.diag([1.0, 0.0]))


def test_gaussian_exceed_against_quadrature():
    for mu, sigma in [(0.0, 1.0), (0.5, 0.3), (2.0, 0.1), (-1.2, 2.5), (0.99, 1e-3)]:
        p = numcore.gaussian_exceed(mu, sigma)
        assert abs(p - exceed_quadrature(mu, sigma)) < 1e-10


def test_gaussian_exceed_known_values():
    # mu = 0, sigma = 1: P(|Z| > 1) = 2 Phi(-1)
    assert abs(numcore.gaussian_exceed(0.0, 1.0) - 0.31731050786291404) < 1e-14
    # mean on the boundary: exactly one half plus the far tail
    assert numcore.gaussian_exceed(1.0, 1e-9) == pytest.approx(0.5, abs=1e-12)
    # far inside / far outside saturate
    assert numcore.gaussian_exceed(0.0, 1e-6) < 1e-300
    assert numcore.gaussian_exceed(10.0, 1e-6) == pytest.approx(1.0, abs=1e-15)


def test_gaussian_exceed_vectorized():
    mus = np.array([0.0, 1.0, -1.0])
    p = numcore.gaussian_exceed(mus, 0.5)
    assert p.shape == (3,)
    assert p[1] == pytest.approx(p[2], abs=1e-15)


def test_gaussian_exceed_rejects_zero_sigma():
    with pytest.raises(numcore.DegenerateVariance):
        numcore.gaussian_exceed(0.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(
    mu=st.floats(min_value=-50, max_value=50),
    sigma=st.floats(min_value=1e-6, max_value=1e3),
)
def test_gaussian_exceed_properties(mu, sigma):
    p = numcore.gaussian_exceed(mu, sigma)
    assert 0.0 <= p <= 1.0
    # even in the mean
    assert p == pytest.approx(numcore.gaussian_exceed(-mu, sigma), abs=1e-13)
    # monotone in |mu| for fixed sigma
    assert numcore.gaussian_exceed(abs(mu) + 0.5, sigma) >= p - 1e-13


@settings(max_examples=30, deadline=None)
@given(sigma_lo=st.floats(min_value=1e-4, max_value=10.0), factor=st.floats(min_value=1.0, max_value=10.0))
def test_gaussian_exceed_monotone_in_sigma_at_zero_mean(sigma_lo, factor):
    assert numcore.gaussian_exceed(0.0, sigma_lo * factor) >= numcore.gaussian_exceed(0.0, sigma_lo) - 1e-13


def test_rank_and_null_basis():
    M = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    assert numcore.matrix_rank(M) == 1
    assert linalg.null_space(M).shape == (3, 2)


def test_null_basis_empty_rows():
    # a map with no rows, or only zero rows, has rank 0: its null space is everything
    assert numcore.matrix_rank(np.zeros((0, 4))) == 0
    assert numcore.matrix_rank(np.zeros((2, 4))) == 0
    assert np.allclose(linalg.null_space(np.zeros((0, 4))), np.eye(4))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_null_basis_orthonormal_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(rows, cols))
    Z = linalg.null_space(M, rcond=numcore.RANK_RTOL)
    assert Z.shape[1] == cols - numcore.matrix_rank(M)
    if Z.shape[1]:
        assert np.allclose(Z.T @ Z, np.eye(Z.shape[1]), atol=1e-10)
        assert np.max(np.abs(M @ Z)) < 1e-9 * max(1.0, np.max(np.abs(M)))
