"""Numerical primitives for closed-loop attack analysis.

Steady-state Riccati and Lyapunov solvers, matrix powers, definiteness and rank
tests, and the Gaussian exceedance probability used by the impact metrics.
Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Relative tolerances shared across the package.
PD_RTOL = 1e-10
RANK_RTOL = 1e-9

_DARE_TOL = 1e-10
_DARE_MAX_ITER = 100_000

_erfc = np.vectorize(math.erfc, otypes=[float])  # importing scipy.special costs ~0.2 s


class NonConvergence(RuntimeError):
    """An iterative solver failed to reach its tolerance within the cap."""


class UnstableClosedLoop(ValueError):
    """The estimator closed loop has spectral radius >= 1."""


class UnstableMatrix(ValueError):
    """A matrix required to be Schur stable is not."""


class DegenerateVariance(ValueError):
    """A standard deviation or variance that must be positive is not."""


class NotPositiveDefinite(ValueError):
    """A matrix required to be positive definite is not."""


def require_addressable(shape: tuple[int, ...], what: str) -> None:
    """Raise MemoryError, as a failed allocation does, for a float64 shape numpy refuses as too big."""
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{what}: a float64 array of shape {shape} is beyond the address range")


@dataclass(frozen=True)
class SpdCheck:
    is_positive_definite: bool
    min_eigenvalue: float


def spd_check(M: np.ndarray) -> SpdCheck:
    """Symmetric positive-definiteness test with a relative eigenvalue guard.

    A matrix passes when its minimum eigenvalue exceeds
    PD_RTOL * max(1, max eigenvalue).
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return SpdCheck(True, np.inf)
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    lo, hi = float(w[0]), float(w[-1])
    return SpdCheck(lo > PD_RTOL * max(1.0, hi), lo)


def _failed_cholesky_decides(n: int) -> bool:
    """Whether a failed Cholesky factorization of an n x n matrix proves it fails spd_check.

    By Demmel's theorem (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.7) the factorization of a symmetric positive
    definite M succeeds in floating point when lambda_min(H) > n g / (1 - n g),
    g = (n+1)u / (1 - (n+1)u), with H = D^-1 M D^-1 of unit diagonal, and
    lambda_min(H) >= lambda_min(M) / lambda_max(M). So a failure means
    lambda_min(M) <= n g / (1 - n g) lambda_max(M); this holds for n up to
    about 950, where that factor is below PD_RTOL.
    """
    u = np.finfo(float).eps / 2.0
    g = (n + 1) * u / (1.0 - (n + 1) * u)
    return n * g < 1.0 and n * g / (1.0 - n * g) <= PD_RTOL


def spd_factor(M: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor of a symmetric M that passes spd_check, else None.

    The factorization runs first, and where its failure proves that M fails
    spd_check (see _failed_cholesky_decides) no eigenvalue is computed.
    Otherwise spd_check decides as before; a matrix that passes it but cannot
    be factored raises LinAlgError.
    """
    M = np.asarray(M, dtype=float)
    try:
        factor = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        if _failed_cholesky_decides(M.shape[0]) or not spd_check(M).is_positive_definite:
            return None
        raise
    return factor if spd_check(M).is_positive_definite else None


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
        APCt = A @ P @ C.T
        P_next = A @ P @ A.T + sigma_v - APCt @ np.linalg.solve(S, APCt.T)
        P_next = 0.5 * (P_next + P_next.T)
        if np.linalg.norm(P_next - P, "fro") <= _DARE_TOL * max(1.0, np.linalg.norm(P_next, "fro")):
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
    return float(
        np.linalg.norm(sigma_e - rhs, "fro") / max(1.0, np.linalg.norm(sigma_e, "fro"))
    )


def kalman_gain(
    A: np.ndarray, C: np.ndarray, sigma_e: np.ndarray, sigma_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state gain K and innovation covariance from the error covariance.

    Raises UnstableClosedLoop when rho(A - K C) >= 1, which signals violated
    model assumptions rather than a numerical problem.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    sigma_r = C @ sigma_e @ C.T + sigma_w
    sigma_r = 0.5 * (sigma_r + sigma_r.T)
    K = np.linalg.solve(sigma_r, (A @ sigma_e @ C.T).T).T
    rho = spectral_radius(A - K @ C)
    if rho >= 1.0:
        raise UnstableClosedLoop(f"estimator loop unstable: spectral radius {rho:.6f}")
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
        raise UnstableMatrix(f"spectral radius {rho:.6f}")
    S = Q.copy()
    M = A_e.copy()
    for _ in range(200):
        inc = M @ S @ M.T
        S = S + inc
        if np.linalg.norm(inc, "fro") <= 1e-16 * max(1.0, np.linalg.norm(S, "fro")):
            return 0.5 * (S + S.T)
        M = M @ M
    raise NonConvergence("Lyapunov doubling iteration did not converge")


def matrix_powers(A: np.ndarray, N: int) -> np.ndarray:
    """A^0..A^N stacked along the first axis, by doubling."""
    powers = np.eye(A.shape[0])[None]
    while powers.shape[0] <= N:
        powers = np.concatenate([powers, (powers[-1] @ A) @ powers])
    return powers[: N + 1]


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
    if w[0] <= PD_RTOL * max(1.0, float(w[-1])):
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
    root2 = np.sqrt(2.0)
    p = 0.5 * _erfc((1.0 - mu) / (sigma * root2)) + 0.5 * _erfc((1.0 + mu) / (sigma * root2))
    if p.ndim == 0:
        return float(p)
    return p


def matrix_rank(M: np.ndarray) -> int:
    """Rank with singular values >= RANK_RTOL * largest counting."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s >= RANK_RTOL * s[0])) if s[0] > 0.0 else 0
