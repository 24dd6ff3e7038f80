"""Gaussian propagation engine.

Stacks the closed-loop recursion over the attack window into affine maps from
(initial state, noise window, reference, injected attack) to the critical
trajectory z_{1:N} and the whitened residual trajectory r_{0:N}, then summarizes
both as Gaussian laws (T_Z d, Sigma_Z) and (T_R d, Sigma_R) in the decision
vector d = [a_{0:N}; y_r]. The stealthiness budget on the residual KL rate
reduces to the quadratic constraint d' T_R' T_R d <= eps_prime.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numcore
from .attacks import AttackMatrices, DecisionLayout
from .sysmodel import DimensionMismatch, ExtendedSystem, NominalLoop, SystemModel


class SigmaZNotPd(RuntimeError):
    """Critical-trajectory covariance is not positive definite.

    This signals a modeling bug (or a critical map without full row rank on
    the plant states): with positive definite process noise the covariance is
    guaranteed definite.
    """


@dataclass
class StackedMaps:
    """Affine maps over one attack window.

    z_{1:N} = p_x x_e(start) + p_f f_window + p_r y_r + p_a a_{0:N}
    r_{0:N} = r_x x_e(start) + r_f f_window + r_r y_r + r_a a_{0:N}

    The recorded-signal substitution (replay) is already folded into the x, f,
    and reference maps. f_window stacks f(start..N); start <= 0.
    """

    p_x: np.ndarray
    p_f: np.ndarray
    p_r: np.ndarray
    p_a: np.ndarray
    r_x: np.ndarray
    r_f: np.ndarray
    r_r: np.ndarray
    r_a: np.ndarray
    start_step: int
    horizon: int
    n_z: int
    n_y: int


@dataclass
class GaussianSummary:
    """Gaussian laws of the critical and residual trajectories plus audits."""

    t_0: np.ndarray
    sigma_0: np.ndarray
    t_z: np.ndarray
    sigma_z: np.ndarray
    t_r: np.ndarray
    sigma_r: np.ndarray
    eps_prime: float
    residual_cov_pd: bool
    impact_bounded: bool
    epsilon: float
    horizon: int
    n_z: int
    n_y: int

    def at_epsilon(self, epsilon: float) -> "GaussianSummary":
        """The same laws and audits under another budget: only the radius moves."""
        if epsilon == self.epsilon:
            return self
        eps_p = self.eps_prime  # -inf when Sigma_R is not positive definite
        if self.residual_cov_pd:
            eps_p = epsilon_prime(self.sigma_r, self.horizon, self.n_y, epsilon)
        return replace(self, epsilon=epsilon, eps_prime=eps_p)


def stationary_law(nominal: NominalLoop) -> tuple[np.ndarray, np.ndarray]:
    """Stationary mean map and covariance of the nominal loop state.

    The mean is T_0 y_r with T_0 = (I - A_cl)^-1 E_r; the covariance solves the
    Lyapunov equation driven by the stacked noise.
    """
    n = nominal.A_cl.shape[0]
    rho = numcore.spectral_radius(nominal.A_cl)
    if rho >= 1.0:
        raise numcore.UnstableMatrix(f"nominal loop unstable: spectral radius {rho:.6f}")
    t_0 = np.linalg.solve(np.eye(n) - nominal.A_cl, nominal.E_r)
    sigma_0 = numcore.solve_lyapunov(
        nominal.A_cl, nominal.B_f @ nominal.sigma_f @ nominal.B_f.T
    )
    return t_0, sigma_0


def normalize_critical_map(q_z: np.ndarray, n_x: int) -> np.ndarray:
    """Accept a critical map on the plant state or the extended state.

    A map with n_x columns is padded with zeros over the estimator state; a map
    with 2 n_x columns is used as-is.
    """
    q_z = np.asarray(q_z, dtype=float)
    if q_z.ndim != 2:
        raise DimensionMismatch("critical map must be a matrix")
    if q_z.shape[1] == n_x:
        return np.hstack([q_z, np.zeros((q_z.shape[0], n_x))])
    if q_z.shape[1] == 2 * n_x:
        return q_z
    raise DimensionMismatch(
        f"critical map must have {n_x} or {2 * n_x} columns, got {q_z.shape[1]}"
    )


def stack_dynamics(
    ext: ExtendedSystem,
    attack: AttackMatrices,
    nominal: NominalLoop,
    q_z: np.ndarray,
    N: int,
) -> StackedMaps:
    """Unroll the closed loop over [start, N] into stacked affine maps.

    The loop runs nominally before step 0 (replay recording phase) and under
    the attack from step 0 on. Critical rows cover steps 1..N, residual rows
    steps 0..N. The recorded-signal maps from the attack are folded into the
    state, noise, and reference maps at the end.
    """
    if N < 1:
        raise ValueError("horizon must be at least 1")
    n_x, n_y, n_f = ext.n_x, ext.n_y, ext.n_f
    n_a, n_ay, n_yr = attack.n_a, attack.n_ay, ext.n_yr
    q_ze = normalize_critical_map(q_z, n_x)
    n_z = q_ze.shape[0]
    start = attack.start_step
    W = N - start + 1  # noise blocks f(start..N)
    two_nx = 2 * n_x

    p_x = np.zeros((n_z * N, two_nx))
    p_f = np.zeros((n_z * N, W * n_f))
    p_r = np.zeros((n_z * N, n_yr))
    p_a = np.zeros((n_z * N, (N + 1) * n_a))
    p_s = np.zeros((n_z * N, (N + 1) * n_ay))
    r_x = np.zeros(((N + 1) * n_y, two_nx))
    r_f = np.zeros(((N + 1) * n_y, W * n_f))
    r_r = np.zeros(((N + 1) * n_y, n_yr))
    r_a = np.zeros(((N + 1) * n_y, (N + 1) * n_a))
    r_s = np.zeros(((N + 1) * n_y, (N + 1) * n_ay))

    # running maps of x_e(k) as a function of (x_e(start), f_window, y_r, a, a_s)
    Xx = np.eye(two_nx)
    Xf = np.zeros((two_nx, W * n_f))
    Xr = np.zeros((two_nx, n_yr))
    Xa = np.zeros((two_nx, (N + 1) * n_a))
    Xs = np.zeros((two_nx, (N + 1) * n_ay))

    for k in range(start, N + 1):
        j = k - start
        if 1 <= k:
            r = (k - 1) * n_z
            p_x[r : r + n_z] = q_ze @ Xx
            p_f[r : r + n_z] = q_ze @ Xf
            p_r[r : r + n_z] = q_ze @ Xr
            p_a[r : r + n_z] = q_ze @ Xa
            p_s[r : r + n_z] = q_ze @ Xs
        if 0 <= k:
            r = k * n_y
            r_x[r : r + n_y] = ext.C_r @ Xx
            row = ext.C_r @ Xf
            row[:, j * n_f : (j + 1) * n_f] += ext.D_f
            r_f[r : r + n_y] = row
            r_r[r : r + n_y] = ext.C_r @ Xr + ext.F_r
            row = ext.C_r @ Xa
            if n_a:
                row[:, k * n_a : (k + 1) * n_a] += ext.H_a
            r_a[r : r + n_y] = row
            row = ext.C_r @ Xs
            if n_ay:
                row[:, k * n_ay : (k + 1) * n_ay] += ext.K_s
            r_s[r : r + n_y] = row
        if k == N:
            break
        if k < 0:
            Xx = nominal.A_cl @ Xx
            Xf = nominal.A_cl @ Xf
            Xf[:, j * n_f : (j + 1) * n_f] += nominal.B_f
            Xr = nominal.A_cl @ Xr + nominal.E_r
            Xa = nominal.A_cl @ Xa
            Xs = nominal.A_cl @ Xs
        else:
            Xx_next = ext.A_cl @ Xx
            Xf = ext.A_cl @ Xf
            Xf[:, j * n_f : (j + 1) * n_f] += ext.B_f
            Xr = ext.A_cl @ Xr + ext.E_r
            Xa = ext.A_cl @ Xa
            if n_a:
                Xa[:, k * n_a : (k + 1) * n_a] += ext.G_a
            Xs = ext.A_cl @ Xs
            if n_ay:
                Xs[:, k * n_ay : (k + 1) * n_ay] += ext.J_s
            Xx = Xx_next

    # fold the recorded stack a_s = t_sx x_e(start) + t_sr y_r + t_sf f_pre
    if n_ay:
        t_sf_full = np.zeros(((N + 1) * n_ay, W * n_f))
        pre_cols = attack.t_sf.shape[1]
        t_sf_full[:, :pre_cols] = attack.t_sf
        p_x = p_x + p_s @ attack.t_sx
        p_r = p_r + p_s @ attack.t_sr
        p_f = p_f + p_s @ t_sf_full
        r_x = r_x + r_s @ attack.t_sx
        r_r = r_r + r_s @ attack.t_sr
        r_f = r_f + r_s @ t_sf_full

    return StackedMaps(
        p_x=p_x,
        p_f=p_f,
        p_r=p_r,
        p_a=p_a,
        r_x=r_x,
        r_f=r_f,
        r_r=r_r,
        r_a=r_a,
        start_step=start,
        horizon=N,
        n_z=n_z,
        n_y=n_y,
    )


def epsilon_prime(sigma_r: np.ndarray, N: int, n_y: int, epsilon: float) -> float:
    """Quadratic stealthiness radius from the residual covariance.

    eps' = (N+1)(2 eps + n_y) - tr(Sigma_R) + ln det(Sigma_R); the log
    determinant is accumulated from a triangular factor to avoid overflow.
    """
    sigma_r = np.asarray(sigma_r, dtype=float)
    chk = numcore.spd_check(sigma_r)
    if not chk.is_positive_definite:
        raise numcore.NotPositiveDefinite(
            f"stacked residual covariance not PD (min eigenvalue {chk.min_eigenvalue:.3e})"
        )
    L = np.linalg.cholesky(0.5 * (sigma_r + sigma_r.T))
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float((N + 1) * (2.0 * epsilon + n_y) - np.trace(sigma_r) + logdet)


def kl_divergence_gaussian(mu1, sigma1, mu2, sigma2) -> float:
    """Closed-form KL divergence between two Gaussians (first relative to second)."""
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    mu2 = np.atleast_1d(np.asarray(mu2, dtype=float))
    sigma1 = np.atleast_2d(np.asarray(sigma1, dtype=float))
    sigma2 = np.atleast_2d(np.asarray(sigma2, dtype=float))
    n = mu1.shape[0]
    for name, S in (("first covariance", sigma1), ("second covariance", sigma2)):
        if not numcore.spd_check(S).is_positive_definite:
            raise numcore.NotPositiveDefinite(f"{name} not positive definite")
    L2 = np.linalg.cholesky(0.5 * (sigma2 + sigma2.T))
    L1 = np.linalg.cholesky(0.5 * (sigma1 + sigma1.T))
    trace_term = float(np.trace(np.linalg.solve(sigma2, sigma1)))
    diff = mu2 - mu1
    quad = float(diff @ np.linalg.solve(sigma2, diff))
    logdet2 = 2.0 * float(np.sum(np.log(np.diag(L2))))
    logdet1 = 2.0 * float(np.sum(np.log(np.diag(L1))))
    return 0.5 * (trace_term + quad - n + logdet2 - logdet1)


def _laws(
    maps: StackedMaps, t_0: np.ndarray, sigma_0: np.ndarray, sigma_f: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(T_Z, Sigma_Z, T_R, Sigma_R) as in summarize, without its audits."""
    W = maps.horizon - maps.start_step + 1
    big_f = np.kron(np.eye(W), np.asarray(sigma_f, dtype=float))

    def law(m_a, m_x, m_r, m_f):
        sigma = m_x @ sigma_0 @ m_x.T + m_f @ big_f @ m_f.T
        return np.hstack([m_a, m_x @ t_0 + m_r]), 0.5 * (sigma + sigma.T)

    return (
        *law(maps.p_a, maps.p_x, maps.p_r, maps.p_f),
        *law(maps.r_a, maps.r_x, maps.r_r, maps.r_f),
    )


def summarize(
    maps: StackedMaps,
    t_0: np.ndarray,
    sigma_0: np.ndarray,
    sigma_f: np.ndarray,
    layout: DecisionLayout,
    epsilon: float,
) -> GaussianSummary:
    """Gaussian laws in the decision vector, with feasibility/boundedness audits.

    The initial state is N(t_0 y_r, sigma_0) and the noise window is white with
    per-step covariance sigma_f, so the means are affine in d and the
    covariances are constants of the strategy.
    """
    N = maps.horizon
    t_z, sigma_z, t_r, sigma_r = _laws(maps, t_0, sigma_0, sigma_f)
    if t_z.shape[1] != layout.dim_d or t_r.shape[1] != layout.dim_d:
        raise DimensionMismatch("maps and decision layout disagree on dim_d")

    z_chk = numcore.spd_check(sigma_z)
    if not z_chk.is_positive_definite:
        raise SigmaZNotPd(
            f"critical covariance min eigenvalue {z_chk.min_eigenvalue:.3e}; "
            "check that the critical map has full row rank on the plant states"
        )
    residual_cov_pd = numcore.spd_check(sigma_r).is_positive_definite
    eps_p = epsilon_prime(sigma_r, N, maps.n_y, epsilon) if residual_cov_pd else -np.inf
    constraint_stack = np.vstack([layout.Q, t_r, layout.F])
    impact_bounded = numcore.null_space_contained(constraint_stack, t_z)

    return GaussianSummary(
        t_0=t_0,
        sigma_0=sigma_0,
        t_z=t_z,
        sigma_z=sigma_z,
        t_r=t_r,
        sigma_r=sigma_r,
        eps_prime=eps_p,
        residual_cov_pd=residual_cov_pd,
        impact_bounded=impact_bounded,
        epsilon=epsilon,
        horizon=N,
        n_z=maps.n_z,
        n_y=maps.n_y,
    )


def gaussian_summary(
    system: SystemModel,
    attack: AttackMatrices,
    layout: DecisionLayout,
    q_z: np.ndarray,
    N: int,
    epsilon: float,
) -> GaussianSummary:
    """End-to-end pipeline from a system and one attack configuration."""
    from .sysmodel import assemble_extended

    ext = assemble_extended(system.plant, system.controller, system.estimator, attack)
    maps = stack_dynamics(ext, attack, system.nominal, q_z, N)
    t_0, sigma_0 = stationary_law(system.nominal)
    return summarize(maps, t_0, sigma_0, system.nominal.sigma_f, layout, epsilon)
