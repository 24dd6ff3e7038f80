"""Gaussian propagation engine.

Under an affine attack the critical trajectory z_{1:N} and the whitened
residual trajectory r_{0:N} are jointly Gaussian, with a mean affine in the
decision vector d = [a_{0:N}; y_r] and a covariance that does not depend on
it. stack_dynamics builds that law directly, as

    z = T_Z d + F_Z e,    r = T_R d + F_R e,    e ~ N(0, I),

where e whitens the initial state x_e(start) ~ N(t_0 y_r, Sigma_0) and the
noise window f(start..N), white with per-step covariance Sigma_f. summarize
audits Sigma_R = F_R F_R', keeps the row norms of F_Z, the marginal standard
deviations of z, and reduces the stealthiness budget on the residual KL rate
to the quadratic constraint d' T_R' T_R d <= eps_prime.

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
Sigma_R is factored once per configuration, so the radius eps' at another
epsilon costs O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numcore
from .attacks import AttackMatrices, DecisionLayout
from .solver import ImpactCurve
from .sysmodel import DimensionMismatch, ExtendedSystem, SystemModel, assemble_extended

# eps' sums terms of size (N+1)(2 eps + n_y); a result within this fraction of
# their magnitudes is rounding noise around 0, as for Sigma_R = I at eps = 0.
_RADIUS_RTOL = 1e-12


@dataclass
class GaussianSummary:
    """Mean maps, critical standard deviations and Sigma_R audit of a window's law."""

    t_z: np.ndarray
    sigma: np.ndarray  # sqrt(diag Sigma_Z), the marginal standard deviations
    t_r: np.ndarray
    eps_prime: float
    residual_cov_pd: bool
    sigma_r_trace: float  # tr and ln det of Sigma_R; nan when it is not positive definite
    sigma_r_logdet: float
    layout: DecisionLayout
    epsilon: float
    curve: ImpactCurve  # of the critical rows; built by summarize, shared by every at_epsilon view

    @property
    def impact_bounded(self) -> bool:
        """Whether every critical row is bounded on the feasible set: the curve's verdict.

        It reads no radius, so it is compute_impact's at every feasible
        epsilon, zero included; the curve caches it, so a read after a solve
        costs nothing.
        """
        return self.curve.bounded

    def at_epsilon(self, epsilon: float) -> "GaussianSummary":
        """The same laws and audits under another budget: only the radius moves."""
        if epsilon == self.epsilon:
            return self
        eps_p = self.eps_prime  # -inf when Sigma_R is not positive definite
        if self.residual_cov_pd:
            N = self.layout.horizon
            n_y = len(self.t_r) // (N + 1)
            eps_p = _radius(N, n_y, epsilon, self.sigma_r_trace, self.sigma_r_logdet)
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


def stack_dynamics(
    ext: ExtendedSystem,
    attack: AttackMatrices,
    system: SystemModel,
    q_z: np.ndarray,
    N: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The window's law in (d, e): (T_Z, T_R, F_Z, F_R), z = T_Z d + F_Z e, r = T_R d + F_R e.

    q_z is the critical map on the extended state (x, x_hat), 2 n_x columns.
    One lifted gather over the stacked outputs [critical map; C_r] gives the
    maps of steps 0..N in (x_e(0), f(0..N), a(0..N), y_r), as the module
    docstring sets out. Replay then substitutes its recording window: x_e(0)
    and the recorded stack, which enters as the sensor injection a_y(0..N),
    are both affine in (x_e(start), f(start..-1), y_r), so one product with
    _recording_window's matrix folds the window into every row. The system's
    stationary law then whitens all rows at once, T = [m_a | m_x t_0 + m_r]
    and F = [m_x sqrt(Sigma_0) | m_f (I kron sqrt(Sigma_f))], the Kronecker
    product acting block by block through a reshape, and one copy per output
    joins the column blocks and splits the rows: critical rows of steps 1..N,
    residual rows of steps 0..N.
    """
    if N < 1:
        raise ValueError("horizon must be at least 1")
    n_y, n_f, n_a, n_e = ext.n_y, ext.n_f, attack.n_a, ext.A_cl.shape[0]
    n_z = q_z.shape[0]
    obs = np.vstack([q_z, ext.C_r]) @ numcore.matrix_powers(ext.A_cl, N)
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
    # Rebinding m_f frees the unwhitened map before the outputs are joined;
    # holding both lets the allocator trim and refault the heap on every call.
    m_f = (m_f.reshape(-1, n_f) @ system.sqrt_sigma_f).reshape(m_f.shape)
    mean = (m_a, m_x @ system.t_0 + m_r)
    factor = (m_x @ system.sqrt_sigma_0, m_f)

    def split(blocks):  # joined column blocks of critical rows 1..N and residual rows 0..N
        by_step = [b.reshape(N + 1, n_z + n_y, b.shape[1]) for b in blocks]
        z = np.concatenate([b[1:, :n_z] for b in by_step], axis=2)
        r = np.concatenate([b[:, n_z:] for b in by_step], axis=2)
        return z.reshape(N * n_z, z.shape[2]), r.reshape((N + 1) * n_y, r.shape[2])

    (t_z, t_r), (f_z, f_r) = split(mean), split(factor)
    return t_z, t_r, f_z, f_r


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
    # Gathered group by group: one gather of every input column adds 0.75 MB at
    # N = 50, which pushed a call's transient heap past glibc's trim threshold,
    # so that its pages were returned and refaulted on every call.
    toeplitz = np.where(lag >= -1, lag, N)  # [k, j]: the block of step k, input step j
    out = [obs.reshape(n_rows, obs.shape[-1])]
    col = 0
    for w in widths:
        group = blocks[..., col : col + w][toeplitz].transpose(0, 2, 1, 3)
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


def summarize(
    law: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    layout: DecisionLayout,
    epsilon: float,
) -> GaussianSummary:
    """Gaussian summary of stack_dynamics' law, with the one audit the solver reads.

    The audit is whether Sigma_R = F_R F_R', symmetrized, is positive definite
    (else no attack is stealthy and the radius is -inf), decided Cholesky
    first (see _residual_audit). Boundedness is left to the summary's
    ImpactCurve, which factors nothing until it is first read. Sigma_Z enters
    the metrics only through its diagonal, so it is never formed, and
    Sigma_R is not kept: sigma is F_Z's row norms.
    """
    t_z, t_r, f_z, f_r = law
    if t_z.shape[1] != layout.dim_d or t_r.shape[1] != layout.dim_d:
        raise DimensionMismatch("maps and decision layout disagree on dim_d")
    sigma_r = f_r @ f_r.T
    residual_cov_pd, trace, logdet = _residual_audit(0.5 * (sigma_r + sigma_r.T))
    N = layout.horizon
    n_y = len(t_r) // (N + 1)
    eps_p = _radius(N, n_y, epsilon, trace, logdet) if residual_cov_pd else -np.inf

    return GaussianSummary(
        t_z=t_z,
        sigma=np.sqrt(np.sum(f_z * f_z, axis=1)),
        t_r=t_r,
        eps_prime=eps_p,
        residual_cov_pd=residual_cov_pd,
        sigma_r_trace=trace,
        sigma_r_logdet=logdet,
        layout=layout,
        epsilon=epsilon,
        curve=ImpactCurve(layout.Q, t_r, layout.Z, t_z),
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

    A floating-point overflow in the law raises FloatingPointError.
    """
    ext = assemble_extended(system.plant, system.controller, system.estimator, attack)
    return summarize(stack_dynamics(ext, attack, system, q_z, N), layout, epsilon)
