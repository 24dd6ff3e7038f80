import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from stealthimpact import numcore
from conftest import random_system
from oracles import exceed_quadrature, lyapunov_residual, lyapunov_series


def test_spd_check_basics():
    assert numcore.spd_check(np.eye(3))[0]
    assert numcore.spd_check(np.diag([1.0, -0.1])) == (False, pytest.approx(-0.1))
    assert not numcore.spd_check(np.diag([1.0, 0.0]))[0]
    # empty matrices pass vacuously
    assert numcore.spd_check(np.zeros((0, 0)))[0]


def test_spd_check_relative_guard():
    # min eigenvalue below PD_RTOL * max eigenvalue counts as degenerate
    M = np.diag([1e12, 1.0])
    assert not numcore.spd_check(M)[0]
    assert numcore.spd_check(np.diag([1e12, 1e4]))[0]


def test_pd_rule_is_elementwise():
    """The one rule: smallest > PD_RTOL max(1, scale), for a batch of pivot sets at once."""
    floor = numcore.PD_RTOL
    smallest = np.array([2.0 * floor, 0.5 * floor, 2e3 * floor, 0.5e3 * floor, 0.0, -1.0])
    scale = np.array([0.5, 0.5, 1e3, 1e3, 0.0, 1.0])
    assert numcore.pd_rule(smallest, scale).tolist() == [True, False, True, False, False, False]


def test_cholesky_audit_either_side_of_the_threshold(monkeypatch):
    """Matrices that factor on both sides of the rule: the smallest squared pivot against PD_RTOL max(1, tr).

    L is lower triangular with its smallest pivot last, so the Cholesky
    pivots of L L' are L's diagonal; the trace is below 1 and above it. No
    eigenvalue is computed.
    """
    rng = np.random.default_rng(8)
    n = 40
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # any eigenvalue solve would raise
    for top in (1e-3, 1.0, 1e3):
        L = np.tril(rng.normal(size=(n, n)), -1) * 0.1 * np.sqrt(top / n)
        L[np.diag_indices(n)] = np.sqrt(np.geomspace(top, 0.1 * top, n))
        L[-1, :-1] *= 1e-3  # the last row's norm stays near its pivot
        trace = float(np.sum(L[:-1] ** 2) + np.sum(L[-1, :-1] ** 2))  # tr L L' without the last pivot
        for c, passes in ((2.0, True), (0.5, False)):
            # solve pivot^2 = c PD_RTOL max(1, trace + pivot^2) for the last pivot
            rtol = c * numcore.PD_RTOL
            square = rtol if trace + rtol <= 1.0 else rtol * trace / (1.0 - rtol)
            L[-1, -1] = np.sqrt(square)
            M = L @ L.T
            pd, got_trace, logdet = numcore.cholesky_audit(M)
            assert pd == passes, (top, c)
            if passes:
                assert got_trace == float(np.trace(M))
                want = float(np.sum(np.log(np.diag(L) ** 2)))
                assert logdet == pytest.approx(want, abs=1e-5)
            else:
                assert np.isnan(got_trace) and np.isnan(logdet)


def test_cholesky_audit_failure_is_singular(monkeypatch):
    """A failed factorization counts as singular at any size, with no eigenvalue solve."""
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # any eigenvalue solve would raise
    for M in (np.diag([1.0, 1.0, 0.0]), -np.eye(2), np.diag(np.r_[np.ones(999), 0.0])):
        pd, trace, logdet = numcore.cholesky_audit(M)
        assert not pd and np.isnan(trace) and np.isnan(logdet)

    def unfactorable(m):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", unfactorable)
    assert not numcore.cholesky_audit(np.eye(2))[0]


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


@pytest.mark.xfail(strict=True, raises=numcore.NonConvergence,
                   reason="the fixed-point iteration contracts at rho(A - KC) per step")
def test_dare_slow_filter(system):
    """A stable, observable, controllable plant whose Kalman filter forgets at 1e-5 per step.

    The bundled plant with A[1][1] = 0.99999, a tiny process noise and a large
    sensor noise: the filter barely trusts its measurements, so rho(A - KC) is
    about 0.99999, and the iteration in solve_dare needs more than its cap of
    100,000 steps to settle. A doubling solve would take about 20.
    """
    A = system.plant.A.copy()
    A[1, 1] = 0.99999
    C = system.plant.C
    sigma_v, sigma_w = 1e-8 * np.eye(3), 1e4 * np.eye(3)
    expected = linalg.solve_discrete_are(A.T, C.T, sigma_v, sigma_w)
    K = A @ expected @ C.T @ np.linalg.inv(C @ expected @ C.T + sigma_w)
    assert 0.9999 < numcore.spectral_radius(A - K @ C) < 1.0
    P = numcore.solve_dare(A, C, sigma_v, sigma_w)
    assert np.linalg.norm(P - expected) <= 1e-9 * np.linalg.norm(expected)


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
