"""Numerical primitives for closed-loop attack analysis.

Steady-state Riccati and Lyapunov solvers, matrix powers, definiteness and rank
tests, and the Gaussian exceedance probability used by the impact metrics.
Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerances shared across the package.
PD_RTOL = 1e-10
RANK_RTOL = 1e-9

_DARE_TOL = 1e-10
_DARE_MAX_ITER = 100_000


class InputError(ValueError):
    """An input the package cannot assess: a scenario, an argument or a value out of range (exit 2)."""


class NumericalError(ArithmeticError):
    """A computation on valid input that did not produce a certified number (exit 3)."""


class NonConvergence(NumericalError):
    """An iterative solver failed to reach its tolerance within the cap."""


class UnstableMatrix(NumericalError):
    """A matrix required to be Schur stable is not."""


class DegenerateVariance(NumericalError):
    """A standard deviation or variance that must be positive is not."""


class NotPositiveDefinite(NumericalError):
    """A matrix required to be positive definite is not."""


def require_addressable(shape: tuple[int, ...], what: str) -> None:
    """Raise MemoryError, as a failed allocation does, for a float64 shape numpy refuses as too big."""
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{what}: a float64 array of shape {shape} is beyond the address range")


def pd_rule(smallest, scale):
    """The package's one definiteness rule: smallest > PD_RTOL max(1, scale), elementwise.

    For a triangular factor of a covariance, smallest is its least squared
    pivot and scale the covariance's trace; for a spectrum, its least and
    largest eigenvalue.
    """
    return smallest > PD_RTOL * np.maximum(1.0, scale)


def spd_check(M: np.ndarray) -> tuple[bool, float]:
    """(is_pd, min_eigenvalue): symmetric positive-definiteness of a spectrum under pd_rule."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return True, np.inf
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    lo, hi = float(w[0]), float(w[-1])
    return bool(pd_rule(lo, hi)), lo


def cholesky_audit(M: np.ndarray) -> tuple[bool, float, float]:
    """Whether a symmetric M passes pd_rule on its Cholesky pivots, with its trace and ln det.

    A failed factorization counts as singular, and no eigenvalue is
    computed. Trace and ln det are nan when M is not positive definite; ln det
    is summed from the factor's diagonal, so that it cannot overflow.
    """
    M = np.asarray(M, dtype=float)
    try:
        pivots = np.diag(np.linalg.cholesky(M))
    except np.linalg.LinAlgError:
        return False, np.nan, np.nan
    trace = float(np.trace(M))
    if not pd_rule(np.square(pivots).min(initial=np.inf), trace):
        return False, np.nan, np.nan
    return True, trace, 2.0 * float(np.sum(np.log(pivots)))


def spectral_radius(M: np.ndarray) -> float:
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def solve_dare(
    A: np.ndarray,
    C: np.ndarray,
    sigma_v: np.ndarray,
    sigma_w: np.ndarray,
) -> np.ndarray:
    """Steady-state estimation-error covariance by fixed-point iteration.

    Iterates P <- A P A' + sigma_v - A P C' (C P C' + sigma_w)^-1 C P A'
    from P = sigma_v until the relative Frobenius update drops below _DARE_TOL.
    The result is verified against the defining equation before returning.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    P = np.asarray(sigma_v, dtype=float).copy()
    for _ in range(_DARE_MAX_ITER):
        S = C @ P @ C.T + sigma_w
        AP = A @ P
        APCt = AP @ C.T
        P_next = AP @ A.T + sigma_v - APCt @ np.linalg.solve(S, APCt.T)
        P_next = 0.5 * (P_next + P_next.T)
        if _fro(P_next - P) <= _DARE_TOL * max(1.0, _fro(P_next)):
            P = P_next
            break
        P = P_next
    else:
        raise NonConvergence(f"Riccati fixed point not converged in {_DARE_MAX_ITER} iterations")
    if dare_residual(A, C, sigma_v, sigma_w, P) > 1e-9:
        raise NonConvergence("Riccati residual above 1e-9 after convergence")
    return P


def dare_residual(A, C, sigma_v, sigma_w, sigma_e) -> float:
    """Relative Frobenius residual of the steady-state Riccati equation."""
    S = C @ sigma_e @ C.T + sigma_w
    APCt = A @ sigma_e @ C.T
    rhs = A @ sigma_e @ A.T + sigma_v - APCt @ np.linalg.solve(S, APCt.T)
    return _fro(sigma_e - rhs) / max(1.0, _fro(sigma_e))


def _fro(M: np.ndarray) -> float:
    """Frobenius norm of a real 2-D array, as np.linalg.norm(M, "fro") computes it, without its dispatch."""
    flat = M.ravel(order="K")
    return math.sqrt(flat @ flat)


def kalman_gain(
    A: np.ndarray, C: np.ndarray, sigma_e: np.ndarray, sigma_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state gain K and innovation covariance from the error covariance.

    Raises UnstableMatrix when rho(A - K C) >= 1.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    sigma_r = C @ sigma_e @ C.T + sigma_w
    sigma_r = 0.5 * (sigma_r + sigma_r.T)
    K = np.linalg.solve(sigma_r, (A @ sigma_e @ C.T).T).T
    rho = spectral_radius(A - K @ C)
    if rho >= 1.0:
        raise UnstableMatrix(f"estimator loop unstable: spectral radius {rho:.6g}")
    return K, sigma_r


def solve_lyapunov(A_e: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve S = A_e S A_e' + Q for Schur-stable A_e.

    Doubling iteration: S accumulates the series sum_k A_e^k Q A_e'^k in
    blocks of 2^j terms while A_e squares, until a block is below rounding.
    """
    A_e = np.asarray(A_e, dtype=float)
    Q = np.asarray(Q, dtype=float)
    rho = spectral_radius(A_e)
    if rho >= 1.0:
        raise UnstableMatrix(f"spectral radius {rho:.6g}")
    S = Q.copy()
    M = A_e.copy()
    for _ in range(200):
        inc = M @ S @ M.T
        S = S + inc
        if _fro(inc) <= 1e-16 * max(1.0, _fro(S)):
            return 0.5 * (S + S.T)
        M = M @ M
    raise NonConvergence("Lyapunov doubling iteration did not converge")


def matrix_powers(A: np.ndarray, N: int) -> np.ndarray:
    """A^0..A^N stacked along the axis before the matrix axes, by doubling.

    A may carry leading stack axes: A of shape (..., n, n) gives powers of
    shape (..., N+1, n, n), a 2-D A the (N+1, n, n) stack.
    """
    powers = np.broadcast_to(np.eye(A.shape[-1]), A.shape)[..., None, :, :]
    while powers.shape[-3] <= N:
        step = (powers[..., -1, :, :] @ A)[..., None, :, :]
        powers = np.concatenate([powers, step @ powers], axis=-3)
    return powers[..., : N + 1, :, :]


def sym_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition."""
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    w = np.clip(w, 0.0, None)
    return V @ np.diag(np.sqrt(w)) @ V.T


def sym_inv_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root; requires positive definiteness."""
    M = np.asarray(M, dtype=float)
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if not pd_rule(w[0], w[-1]):
        raise NotPositiveDefinite(f"minimum eigenvalue {w[0]:.3e}")
    return V @ np.diag(w**-0.5) @ V.T


def gaussian_exceed(mu, sigma):
    """P(|Z| > 1) for Z ~ N(mu, sigma^2).

    Evaluated as 0.5 erfc((1-mu)/(sigma sqrt(2))) + 0.5 erfc((1+mu)/(sigma sqrt(2))),
    accurate to ~1e-15 absolute. Accepts scalars or arrays (broadcast).
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0.0):
        raise DegenerateVariance("sigma must be positive")
    scale = sigma * np.sqrt(2.0)
    p = 0.5 * _erfc_each((1.0 - mu) / scale) + 0.5 * _erfc_each((1.0 + mu) / scale)
    if p.ndim == 0:
        return float(p)
    return p


def _erfc_each(z: np.ndarray) -> np.ndarray:
    """math.erfc of every entry of z, in z's shape; importing scipy.special costs ~0.2 s."""
    return np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


def matrix_rank(M: np.ndarray) -> int:
    """Rank with singular values >= RANK_RTOL * largest counting."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s >= RANK_RTOL * s[0])) if s[0] > 0.0 else 0
