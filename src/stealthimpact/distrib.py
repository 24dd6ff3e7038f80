"""Gaussian propagation engine.

Stacks the closed-loop recursion over the attack window into affine maps from
(initial state, noise window, reference, injected attack) to the critical
trajectory z_{1:N} and the whitened residual trajectory r_{0:N}, then summarizes
both as Gaussian laws (T_Z d, Sigma_Z) and (T_R d, Sigma_R) in the decision
vector d = [a_{0:N}; y_r]. The stealthiness budget on the residual KL rate
reduces to the quadratic constraint d' T_R' T_R d <= eps_prime.

The maps are built in lifted form. With A = A_cl of the attacked loop and
out = [critical map; C_r], the row block of step k is

    out A^k x_e(0) + sum_{j<k} out A^(k-1-j) [B_f G_a E_r] (f, a, y_r)(j)
                   + [D_f H_a 0] (f, a, y_r)(k)     (zero on the critical rows)

so the rows are the observability blocks out A^k and the input columns one
block-Toeplitz gather of the Markov blocks over the lag k-1-j; the y_r
columns sum over the lags. One such gather (_lifted_rows) serves both output
families, with powers of A from numcore.matrix_powers. Replay's recording
window [-N-1, -1] is the same gather on the nominal loop, with output
gamma_y' [C 0] and direct term gamma_y' on w, and x_e(0) follows in closed
form from the same powers. Both are affine in (x_e(start), f(start..-1),
y_r), and the recorded stack is the sensor injection a_y(0..N), so one product
[m_x | sensor columns of m_a] R substitutes the window into every row.
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

    One lifted gather over the stacked outputs [critical map; C_r] gives the
    rows of steps 0..N in (x_e(0), f(0..N), a(0..N), y_r): the observability
    block out A^k on x_e(0), the block-Toeplitz sum over inputs j < k of the
    Markov blocks out A^(k-1-j) [B_f G_a E_r], and the direct terms
    [D_f H_a 0] at j = k, zero on the critical rows. Replay then substitutes
    its recording window: x_e(0) and the recorded stack, which enters as the
    sensor injection a_y(0..N), are both affine in (x_e(start), f(start..-1),
    y_r), so one product with _recording_window's matrix folds the window into
    every row. Critical rows are kept for steps 1..N, residual rows for 0..N.
    """
    if N < 1:
        raise ValueError("horizon must be at least 1")
    n_y, n_f, n_a, n_e = ext.n_y, ext.n_f, attack.n_a, ext.A_cl.shape[0]
    q_ze = normalize_critical_map(q_z, ext.n_x)
    n_z = q_ze.shape[0]
    obs = np.vstack([q_ze, ext.C_r]) @ numcore.matrix_powers(ext.A_cl, N)
    inputs = np.hstack([ext.B_f, ext.G_a, ext.E_r])
    direct = np.zeros((n_z + n_y, inputs.shape[1]))
    direct[n_z:, : n_f + n_a] = np.hstack([ext.D_f, ext.H_a])
    m_x, m_f, m_a, m_r = _lifted_rows(obs, obs[:N] @ inputs, direct, (n_f, n_a))
    if attack.has_recording:
        rows = m_a.shape[0]
        m_s = m_a.reshape(rows, N + 1, n_a)[..., attack.n_au :].reshape(rows, -1)
        folded = np.hstack([m_x, m_s]) @ _recording_window(system, attack)
        n_pre = folded.shape[1] - ext.n_yr
        m_x, m_r = folded[:, :n_e], m_r + folded[:, n_pre:]
        m_f = np.hstack([folded[:, n_e:n_pre], m_f])

    def split(m):
        by_step = m.reshape(N + 1, n_z + n_y, m.shape[1])
        return (
            by_step[1:, :n_z].reshape(N * n_z, m.shape[1]),
            by_step[:, n_z:].reshape((N + 1) * n_y, m.shape[1]),
        )

    (p_x, r_x), (p_f, r_f), (p_a, r_a), (p_r, r_r) = map(split, (m_x, m_f, m_a, m_r))
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


def _recording_window(system: SystemModel, attack: AttackMatrices) -> np.ndarray:
    """Matrix R from (x_e(start), f(start..-1), y_r) to (x_e(0); gamma_y' y(start..-1)).

    The window [start, -1], start = -N-1, runs the nominal loop. Its recorded
    stack is the lifted gather of that loop with output gamma_y' [C 0] and
    direct term gamma_y' on w; x_e(0), one step past the window, is
    A^(N+1) x_e(start) + sum_j A^(N-j) [B_f E_r] (f(j), y_r) from the same
    powers.
    """
    nominal, plant = system.nominal, system.plant
    N, n_f, n_ay = -attack.start_step - 1, nominal.n_f, attack.n_ay
    powers = numcore.matrix_powers(nominal.A_cl, N + 1)
    inputs = np.hstack([nominal.B_f, nominal.E_r])
    obs = attack.gamma_y.T @ np.hstack([plant.C, np.zeros_like(plant.C)]) @ powers[: N + 1]
    direct = np.zeros((n_ay, inputs.shape[1]))
    direct[:, plant.n_x : n_f] = attack.gamma_y.T
    recorded = _lifted_rows(obs, obs[:N] @ inputs, direct, (n_f,))
    drive = powers[N::-1] @ inputs  # [j]: A^(N-j) [B_f E_r]
    x0_f = drive[..., :n_f].transpose(1, 0, 2).reshape(powers.shape[1], -1)
    x0 = [powers[N + 1], x0_f, drive[..., n_f:].sum(axis=0)]
    return np.vstack([np.hstack(x0), np.hstack(recorded)])


def _lifted_rows(
    obs: np.ndarray, markov: np.ndarray, direct: np.ndarray, widths: tuple
) -> list[np.ndarray]:
    """Maps of the output rows at steps 0..N over the window.

    obs[k] is the observability block of step k, markov[l] the Markov block at
    lag l = k-1-j over the stacked input columns, and direct the feedthrough at
    lag -1 (j = k). Returns the row map of the initial state, one stacked map
    per input group of the given widths over steps 0..N, and the sum over
    lags of the remaining (reference) columns, a prefix sum of their Markov
    blocks. Every reshape names its sizes, so an output with no rows works.
    """
    N = markov.shape[0]
    n_in, n_rows = sum(widths), (N + 1) * direct.shape[0]
    lag = np.arange(N + 1)[:, None] - 1 - np.arange(N + 1)
    blocks = np.concatenate([markov, np.zeros_like(direct)[None], direct[None]])[..., :n_in]
    toeplitz = blocks[np.where(lag >= -1, lag, N)]  # (steps, N+1, rows, input columns)
    out = [obs.reshape(n_rows, obs.shape[-1])]
    col = 0
    for w in widths:
        group = toeplitz[..., col : col + w].transpose(0, 2, 1, 3)
        out.append(group.reshape(n_rows, (N + 1) * w))
        col += w
    ref = np.concatenate([np.zeros_like(direct[None, :, n_in:]), markov[..., n_in:]])
    lags_below = np.cumsum(ref, axis=0)  # [k]: lags < k
    out.append((lags_below + direct[:, n_in:]).reshape(n_rows, ref.shape[-1]))
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
        n_y=maps.n_y,
    )


@np.errstate(over="raise")
def gaussian_summary(
    system: SystemModel,
    attack: AttackMatrices,
    layout: DecisionLayout,
    q_z: np.ndarray,
    N: int,
    epsilon: float,
) -> GaussianSummary:
    """End-to-end pipeline from a system and one attack configuration.

    A floating-point overflow in the maps or laws raises FloatingPointError.
    """
    from .sysmodel import assemble_extended

    ext = assemble_extended(system.plant, system.controller, system.estimator, attack)
    maps = stack_dynamics(ext, attack, system, q_z, N)
    return summarize(maps, system, layout, epsilon)
