"""Gaussian propagation engine.

Stacks the closed-loop recursion over the attack window into affine maps from
(initial state, noise window, reference, injected attack) to the critical
trajectory z_{1:N} and the whitened residual trajectory r_{0:N}, then summarizes
both as Gaussian laws (T_Z d, Sigma_Z) and (T_R d, Sigma_R) in the decision
vector d = [a_{0:N}; y_r]. The stealthiness budget on the residual KL rate
reduces to the quadratic constraint d' T_R' T_R d <= eps_prime.

The maps are built in lifted form. With A = A_cl of the attacked loop and
"out" the critical map or C_r, the row block of step k is

    out A^k x_e(0) + sum_{j<k} out A^(k-1-j) [B_f G_a E_r] (f, a, y_r)(j)
                   + [D_f H_a 0] (f, a, y_r)(k)     (residual rows only)

so the rows are the observability blocks out A^k and the input columns one
block-Toeplitz gather of the Markov blocks over the lag k-1-j; the y_r
columns sum over the lags. Replay first runs the nominal loop over its
recording window in one pass, which maps (x_e(start), f(start..-1), y_r) to
x_e(0) and to the recorded stack gamma_y' y(start..-1). The recording is a
sensor injection, so it is folded in through the sensor columns of the
attack maps.
The covariances are formed from whitened factors, Sigma = F F' with
F = [m_x sqrt(Sigma_0) | m_f (I kron sqrt(Sigma_f))], and Sigma_R is factored
once per configuration, so the radius eps' at another epsilon costs O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numcore
from .attacks import AttackMatrices, DecisionLayout
from .sysmodel import DimensionMismatch, ExtendedSystem, SystemModel

# eps' sums terms of size (N+1)(2 eps + n_y); a result within this fraction of
# their magnitudes is rounding noise around 0, as for Sigma_R = I at eps = 0.
_RADIUS_RTOL = 1e-12


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
    """Gaussian laws of the critical and residual trajectories plus the Sigma_R audit."""

    t_z: np.ndarray
    sigma_z: np.ndarray
    t_r: np.ndarray
    sigma_r: np.ndarray
    eps_prime: float
    residual_cov_pd: bool
    sigma_r_trace: float  # tr and ln det of Sigma_R; nan when it is not positive definite
    sigma_r_logdet: float
    layout: DecisionLayout
    epsilon: float
    horizon: int
    n_z: int
    n_y: int

    @property
    def impact_bounded(self) -> bool:
        """Whether every critical row is bounded on the feasible set: the solver's own verdict.

        Read off the solver's geometry at unit radius; its rank cut reads no
        radius, so compute_impact gives this verdict at every feasible epsilon.
        No report reads this property; each read builds that geometry.
        """
        from .solver import _Geometry  # the solver imports this module

        geom = _Geometry(self.layout.Q, self.t_r, self.layout.Z, 1.0)
        return bool(geom.objective(self.t_z)[1].all())

    def at_epsilon(self, epsilon: float) -> "GaussianSummary":
        """The same laws and audits under another budget: only the radius moves."""
        if epsilon == self.epsilon:
            return self
        eps_p = self.eps_prime  # -inf when Sigma_R is not positive definite
        if self.residual_cov_pd:
            eps_p = _radius(self.horizon, self.n_y, epsilon, self.sigma_r_trace, self.sigma_r_logdet)
        return replace(self, epsilon=epsilon, eps_prime=eps_p)


def stationary_law(nominal: ExtendedSystem, sigma_f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary mean map and covariance of the nominal loop state.

    The mean is T_0 y_r with T_0 = (I - A_cl)^-1 E_r; the covariance solves the
    Lyapunov equation driven by the per-step noise covariance sigma_f. The
    Lyapunov solve runs first and is the loop's one stability check: it raises
    UnstableMatrix, naming the nominal loop, unless A_cl is Schur stable, which
    also makes I - A_cl nonsingular.
    """
    try:
        sigma_0 = numcore.solve_lyapunov(nominal.A_cl, nominal.B_f @ sigma_f @ nominal.B_f.T)
    except numcore.UnstableMatrix as exc:
        raise numcore.UnstableMatrix(f"nominal loop unstable: {exc}") from None
    t_0 = np.linalg.solve(np.eye(nominal.A_cl.shape[0]) - nominal.A_cl, nominal.E_r)
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
    system: SystemModel,
    q_z: np.ndarray,
    N: int,
) -> StackedMaps:
    """Stacked affine maps of the window [start, N] in lifted form.

    The nominal recording phase before step 0 (replay) is unrolled once into
    the maps of x_e(0) and of the recorded stack in (x_e(start), f(start..-1),
    y_r). From step 0 on, each output row at step k is its observability block
    out A^k applied to x_e(0) plus the block-Toeplitz sum over inputs j < k of
    the Markov blocks out A^(k-1-j) [B_f G_a E_r], with the direct terms
    [D_f H_a 0] at j = k on the residual rows. Critical rows cover steps 1..N,
    residual rows steps 0..N. The recorded stack is the sensor injection, so
    it is folded in through the sensor columns of the attack maps.
    """
    if N < 1:
        raise ValueError("horizon must be at least 1")
    n_x, n_y, n_f = ext.n_x, ext.n_y, ext.n_f
    q_ze = normalize_critical_map(q_z, n_x)
    n_z = q_ze.shape[0]
    powers = _powers(ext.A_cl, N)
    inputs = np.hstack([ext.B_f, ext.G_a, ext.E_r])
    direct = np.hstack([ext.D_f, ext.H_a, np.zeros((n_y, ext.n_yr))])
    widths = (n_f, attack.n_a)
    obs_z, obs_r = q_ze @ powers, ext.C_r @ powers
    p_x, p_f, p_a, p_r = _lifted_rows(
        obs_z[1:], obs_z[:N] @ inputs, np.zeros((n_z, direct.shape[1])), 1, widths
    )
    r_x, r_f, r_a, r_r = _lifted_rows(obs_r, obs_r[:N] @ inputs, direct, 0, widths)
    if attack.has_recording:
        (x0_x, x0_f, x0_r), (rec_x, rec_f, rec_r) = _recording_window(system, attack)
        # the recording phase acts through x_e(0)
        p_f, r_f = np.hstack([p_x @ x0_f, p_f]), np.hstack([r_x @ x0_f, r_f])
        p_r, r_r = p_r + p_x @ x0_r, r_r + r_x @ x0_r
        p_x, r_x = p_x @ x0_x, r_x @ x0_x
        # and the recorded stack through the sensor columns of the attack maps
        pre = rec_f.shape[1]
        p_s, r_s = _sensor_columns(p_a, attack, N), _sensor_columns(r_a, attack, N)
        p_x = p_x + p_s @ rec_x
        p_r = p_r + p_s @ rec_r
        p_f[:, :pre] += p_s @ rec_f
        r_x = r_x + r_s @ rec_x
        r_r = r_r + r_s @ rec_r
        r_f[:, :pre] += r_s @ rec_f

    return StackedMaps(
        p_x=p_x,
        p_f=p_f,
        p_r=p_r,
        p_a=p_a,
        r_x=r_x,
        r_f=r_f,
        r_r=r_r,
        r_a=r_a,
        start_step=attack.start_step,
        horizon=N,
        n_z=n_z,
        n_y=n_y,
    )


def _recording_window(system: SystemModel, attack: AttackMatrices) -> tuple:
    """One nominal pass over the recording window [start, -1], start < 0.

    Returns the maps of x_e(0) and of the recorded stack gamma_y' y(start..-1),
    each as its (x_e(start), f(start..-1), y_r) column blocks.
    """
    nominal, plant = system.nominal, system.plant
    n_x, n_f, n_ay = plant.n_x, plant.n_x + plant.n_y, attack.n_ay
    steps = -attack.start_step
    tap = attack.gamma_y.T @ np.hstack([plant.C, np.zeros_like(plant.C)])
    x0_x = np.eye(2 * n_x)
    x0_f = np.zeros((2 * n_x, steps * n_f))
    x0_r = np.zeros((2 * n_x, nominal.E_r.shape[1]))
    rec_x = np.zeros((steps * n_ay, 2 * n_x))
    rec_f = np.zeros((steps * n_ay, steps * n_f))
    rec_r = np.zeros((steps * n_ay, nominal.E_r.shape[1]))
    for j in range(steps):
        # y(start + j) = C x + w(start + j), tapped on the recorded channels
        rows = slice(j * n_ay, (j + 1) * n_ay)
        rec_x[rows] = tap @ x0_x
        rec_r[rows] = tap @ x0_r
        rec_f[rows] = tap @ x0_f
        rec_f[rows, j * n_f + n_x : (j + 1) * n_f] += attack.gamma_y.T
        x0_x = nominal.A_cl @ x0_x
        x0_f = nominal.A_cl @ x0_f
        x0_f[:, j * n_f : (j + 1) * n_f] += nominal.B_f
        x0_r = nominal.A_cl @ x0_r + nominal.E_r
    return (x0_x, x0_f, x0_r), (rec_x, rec_f, rec_r)


def _sensor_columns(m: np.ndarray, attack: AttackMatrices, N: int) -> np.ndarray:
    """The a_y(0..N) columns of a map over the stacked a(0..N)."""
    blocks = m.reshape(m.shape[0], N + 1, attack.n_a)
    return blocks[:, :, attack.n_au :].reshape(m.shape[0], -1)


def _powers(A: np.ndarray, N: int) -> np.ndarray:
    """A^0..A^N stacked along the first axis, by doubling."""
    powers = np.eye(A.shape[0])[None]
    while powers.shape[0] <= N:
        powers = np.concatenate([powers, (powers[-1] @ A) @ powers])
    return powers[: N + 1]


def _lifted_rows(
    obs: np.ndarray, markov: np.ndarray, direct: np.ndarray, first: int, widths: tuple
) -> list[np.ndarray]:
    """Maps of the output rows at steps first..N over the attack window.

    obs[i] is the observability block of step first + i, markov[l] the Markov
    block at lag l = k-1-j over the stacked input columns, and direct the
    feedthrough at lag -1 (j = k). Returns the row map of x_e(0), one stacked
    map per input group of the given widths over steps 0..N, and the sum over
    lags of the remaining (reference) columns, a prefix sum of their Markov
    blocks.
    """
    N = markov.shape[0]
    n_in = sum(widths)
    lag = np.arange(first, N + 1)[:, None] - 1 - np.arange(N + 1)
    blocks = np.concatenate([markov, np.zeros_like(direct)[None], direct[None]])[..., :n_in]
    toeplitz = blocks[np.where(lag >= -1, lag, N)]  # (steps, N+1, rows, input columns)
    steps, _, rows, _ = toeplitz.shape
    out = [obs.reshape(steps * rows, -1)]
    col = 0
    for w in widths:
        group = toeplitz[..., col : col + w].transpose(0, 2, 1, 3)
        out.append(group.reshape(steps * rows, (N + 1) * w))
        col += w
    ref = markov[..., n_in:]
    lags_below = np.cumsum(np.concatenate([np.zeros_like(ref[:1]), ref]), axis=0)  # [k]: lags < k
    out.append((lags_below[first:] + direct[:, n_in:]).reshape(steps * rows, -1))
    return out


def _residual_audit(sigma_r: np.ndarray) -> tuple[bool, float, float]:
    """Whether Sigma_R is positive definite, with its trace and ln det (nan when not).

    numcore.spd_factor factors Sigma_R first: a failed factorization settles
    the verdict without an eigenvalue solve, and on success the same factor
    gives ln det, summed from its diagonal so that it cannot overflow.
    """
    factor = numcore.spd_factor(sigma_r)
    if factor is None:
        return False, np.nan, np.nan
    return True, float(np.trace(sigma_r)), 2.0 * float(np.sum(np.log(np.diag(factor))))


class BudgetOverflow(ValueError):
    """The KL budget of an epsilon overflows double precision."""


def kl_budget(N: int, n_y: int, epsilon: float) -> float:
    """The KL budget (N+1)(2 eps + n_y) of steps 0..N; BudgetOverflow when it is not finite."""
    budget = (N + 1) * (2.0 * epsilon + n_y)
    if not math.isfinite(budget):
        raise BudgetOverflow(
            f"epsilon {epsilon:g} overflows the KL budget (N+1)(2 eps + n_y) at horizon {N}"
        )
    return budget


def _radius(N: int, n_y: int, epsilon: float, trace: float, logdet: float) -> float:
    budget = kl_budget(N, n_y, epsilon)
    radius = float(budget - trace + logdet)
    if abs(radius) <= _RADIUS_RTOL * (budget + abs(trace) + abs(logdet)):
        return 0.0
    return radius


def _laws(
    maps: StackedMaps, system: SystemModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(T_Z, Sigma_Z, T_R, Sigma_R) of the maps from the system's stationary law.

    Each covariance is F F' with the whitened factor
    F = [m_x sqrt(Sigma_0) | m_f (I_W kron sqrt(Sigma_f))]; the Kronecker
    product acts block by block through a reshape and is never formed.
    """
    t_0, root_0, root_f = system.t_0, system.sqrt_sigma_0, system.sqrt_sigma_f

    def law(m_a, m_x, m_r, m_f):
        noise = (m_f.reshape(-1, root_f.shape[0]) @ root_f).reshape(m_f.shape)
        factor = np.hstack([m_x @ root_0, noise])
        sigma = factor @ factor.T
        return np.hstack([m_a, m_x @ t_0 + m_r]), 0.5 * (sigma + sigma.T)

    return (
        *law(maps.p_a, maps.p_x, maps.p_r, maps.p_f),
        *law(maps.r_a, maps.r_x, maps.r_r, maps.r_f),
    )


def summarize(
    maps: StackedMaps, system: SystemModel, layout: DecisionLayout, epsilon: float
) -> GaussianSummary:
    """Gaussian laws in the decision vector, with the one audit the solver reads.

    The initial state is the system's stationary law N(t_0 y_r, sigma_0) and
    the noise window is white with per-step covariance sigma_f, so the means
    are affine in d and the covariances are constants of the strategy. The
    audit is whether Sigma_R is positive definite (else no attack is stealthy
    and the radius is -inf), decided Cholesky first (see _residual_audit).
    Whether the critical rows are bounded on the feasible set is left to the
    solver, which tests it per row as it reduces each objective. Sigma_Z enters the metrics only through its diagonal, the
    marginal variances, so it is not audited as a whole.
    """
    N = maps.horizon
    t_z, sigma_z, t_r, sigma_r = _laws(maps, system)
    if t_z.shape[1] != layout.dim_d or t_r.shape[1] != layout.dim_d:
        raise DimensionMismatch("maps and decision layout disagree on dim_d")

    residual_cov_pd, trace, logdet = _residual_audit(sigma_r)
    eps_p = _radius(N, maps.n_y, epsilon, trace, logdet) if residual_cov_pd else -np.inf

    return GaussianSummary(
        t_z=t_z,
        sigma_z=sigma_z,
        t_r=t_r,
        sigma_r=sigma_r,
        eps_prime=eps_p,
        residual_cov_pd=residual_cov_pd,
        sigma_r_trace=trace,
        sigma_r_logdet=logdet,
        layout=layout,
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
    maps = stack_dynamics(ext, attack, system, q_z, N)
    return summarize(maps, system, layout, epsilon)
