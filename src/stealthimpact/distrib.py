"""Gaussian propagation engine.

Under an affine attack the critical trajectory z_{1:N} and the whitened
residual trajectory r_{0:N} are jointly Gaussian, with a mean affine in the
decision vector d = [a_{0:N}; y_r] and a covariance that does not depend on
it:

    z = T_Z d + F_Z e,    r = T_R d + F_R e,    e ~ N(0, I),

where e whitens the initial state x_e(start) ~ N(t_0 y_r, Sigma_0) and the
noise window f(start..N), white with per-step covariance Sigma_f. A summary
keeps sigma, the marginal standard deviations of z, and an audit of
Sigma_R = F_R F_R' (its definiteness, trace and ln det), which reduces the
stealthiness budget on the residual KL rate to the quadratic constraint
d' T_R' T_R d <= eps_prime; the radius eps' at another epsilon costs O(1).

The audit comes first, and gives one row (pd, trace, logdet, sigma) per
configuration, from which summarize builds every summary. Outside replay
the row comes from one square-root innovation recursion over a batch of
configurations (_innovation_audit). Replay's x_e(0) is correlated with its
recording, so _replay_audit forms its noise factor, the only one the package
builds, and factors Sigma_R. Both apply numcore.pd_rule, the package's one
definiteness rule, to their pivots: QR pivots in the recursion, Cholesky
pivots for replay, where a failed factorization counts as singular.
stack_dynamics builds the mean maps T_Z and T_R, replay's included, only
when a solve first reads them, so a configuration over budget at every
epsilon of a run is never stacked.

The maps are built in lifted form. With A = A_cl of the attacked loop and
out = [critical map; C_r], the row block of step k is

    out A^k x_e(0) + sum_{j<k} out A^(k-1-j) [B_f G_a E_r] (f, a, y_r)(j)
                   + [D_f H_a 0] (f, a, y_r)(k)     (zero on the critical rows)

so the rows are the observability blocks out A^k and the input columns one
block-Toeplitz gather of the Markov blocks over the lag k-1-j; the y_r
columns sum over the lags. One such gather (_lifted_rows) serves both output
families, with powers of A from numcore.matrix_powers: the mean maps gather
the (a, y_r) columns, replay's audit the noise columns. Replay's recording
window [-N-1, -1] is the same gather on the nominal loop, with output
gamma_y' [C 0] and direct term gamma_y' on w, and x_e(0) follows in closed
form from the same powers; their noise parts are linear in
(x_e(start), f(start..-1)), and the recorded stack is the sensor injection
a_y(0..N), so one product [m_x | sensor columns of m_a] R substitutes the
window into every noise row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from . import numcore
from .attacks import AttackMatrices, DecisionLayout
from .solver import ImpactCurve
from .sysmodel import DimensionMismatch, ExtendedSystem, SystemModel, assemble_extended

# eps' sums terms of size (N+1)(2 eps + n_y); a result within this fraction of
# their magnitudes is rounding noise around 0, as for Sigma_R = I at eps = 0.
_RADIUS_RTOL = 1e-12


class _Maps:
    """A configuration's mean maps (T_Z, T_R) and the ImpactCurve of its critical rows.

    Built on first read and shared by every at_epsilon view of its summary,
    so a configuration that no solve reads is never stacked. Radii announced
    with expect before the curve exists are handed to it when it is built.
    """

    def __init__(self, build: Callable[[], tuple], layout: DecisionLayout) -> None:
        self._build, self._layout = build, layout  # build() returns (T_Z, T_R)
        self._radii: list[float] = []

    def expect(self, radii: list[float]) -> None:
        """Announce one solve at each radius: ImpactCurve.expect, held until the curve is built."""
        if "curve" in vars(self):
            self.curve.expect(radii)
        else:
            self._radii += radii

    @cached_property
    def means(self) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="raise"):
            means = self._build()
        self._build = None
        return means

    @cached_property
    def curve(self) -> ImpactCurve:
        t_z, t_r = self.means
        curve = ImpactCurve(self._layout.Q, t_r, self._layout, t_z)
        curve.expect(self._radii)
        self._radii = []
        return curve


@dataclass
class GaussianSummary:
    """Critical standard deviations and Sigma_R audit of a window's law, with its maps on demand.

    The fields decide whether the configuration is within budget; t_z, t_r
    and curve read its _Maps, which compute_impact reads only to solve.
    """

    sigma: np.ndarray  # sqrt(diag Sigma_Z), the marginal standard deviations
    eps_prime: float
    residual_cov_pd: bool
    sigma_r_trace: float  # tr and ln det of Sigma_R; nan when it is not positive definite
    sigma_r_logdet: float
    n_y: int  # residual components per step
    layout: DecisionLayout
    epsilon: float
    maps: _Maps  # shared by every at_epsilon view

    @property
    def t_z(self) -> np.ndarray:
        return self.maps.means[0]

    @property
    def t_r(self) -> np.ndarray:
        return self.maps.means[1]

    @property
    def curve(self) -> ImpactCurve:
        """The ImpactCurve of the critical rows; building it stacks the maps, factoring nothing."""
        return self.maps.curve

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
            eps_p = _radius(N, self.n_y, epsilon, self.sigma_r_trace, self.sigma_r_logdet)
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
) -> tuple[np.ndarray, np.ndarray]:
    """The window's mean maps (T_Z, T_R): z and r have means T_Z d and T_R d.

    q_z is the critical map on the extended state (x, x_hat), 2 n_x columns.
    One lifted gather over the stacked outputs [critical map; C_r] gives the
    maps of steps 0..N in (x_e(0), a(0..N), y_r), as the module docstring sets
    out, and x_e(0) has mean t_0 y_r, so T = [m_a | m_x t_0 + m_r]. Replay's
    recording runs the nominal loop in its stationary law, so every recorded
    value has mean gamma_y' [C 0] t_0 y_r; the recorded stack enters as the
    sensor injection a_y(0..N), and adds its columns of m_a, summed over the
    steps, times that mean to the y_r columns.
    """
    if N < 1:
        raise ValueError("horizon must be at least 1")
    n_y, n_a, n_z = ext.n_y, attack.n_a, q_z.shape[0]
    obs = np.vstack([q_z, ext.C_r]) @ numcore.matrix_powers(ext.A_cl, N)
    inputs = np.hstack([ext.G_a, ext.E_r])
    direct = np.zeros((n_z + n_y, inputs.shape[1]))
    direct[n_z:, :n_a] = ext.H_a
    m_x, m_a, m_r = _lifted_rows(obs, obs[:N] @ inputs, direct, (n_a,))
    m_r += m_x @ system.t_0
    if attack.has_recording:
        recorded = attack.gamma_y.T @ system.plant.C @ system.t_0[: system.plant.n_x]
        m_s = m_a.reshape(len(m_a), N + 1, n_a)[..., attack.n_au :].sum(axis=1)
        m_r += m_s @ recorded
    return _split(np.hstack([m_a, m_r]), n_z, N)


def _split(rows: np.ndarray, n_z: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The critical rows of steps 1..N and the residual rows of steps 0..N of a lifted map."""
    cols = rows.shape[1]
    by_step = rows.reshape(N + 1, -1, cols)
    return by_step[1:, :n_z].reshape(N * n_z, cols), by_step[:, n_z:].reshape(-1, cols)


def _replay_audit(
    ext: ExtendedSystem, attack: AttackMatrices, system: SystemModel, q_z: np.ndarray, N: int
) -> tuple[bool, float, float, np.ndarray]:
    """Sigma_R's PD verdict, trace and ln det, and sigma, for a replay configuration.

    Replay's x_e(0) is correlated with its recording, so its audit forms the
    noise factor. One noise-only lifted gather gives the rows in (x_e(0),
    f(0..N), a_y(0..N)); x_e(0) and the recorded stack, which enters as the
    sensor injection a_y(0..N), are both linear in (x_e(start), f(start..-1)),
    so one product with _recording_window's matrix substitutes the window into
    every row. The stationary law then whitens the rows,
    F = [m_x sqrt(Sigma_0) | m_f (I kron sqrt(Sigma_f))], the Kronecker
    product acting block by block through a reshape. Sigma_R = F_R F_R' is
    audited by numcore.cholesky_audit, and sigma is F_Z's row norms. Returns
    the row _innovation_audit returns for a loop without a recording.
    """
    n_y, n_f, n_e, n_z = ext.n_y, ext.n_f, ext.A_cl.shape[0], q_z.shape[0]
    obs = np.vstack([q_z, ext.C_r]) @ numcore.matrix_powers(ext.A_cl, N)
    inputs = np.hstack([ext.B_f, ext.G_a[:, attack.n_au :]])
    direct = np.zeros((n_z + n_y, inputs.shape[1]))
    direct[n_z:] = np.hstack([ext.D_f, ext.H_a[:, attack.n_au :]])
    m_x, m_f, m_s, _ = _lifted_rows(obs, obs[:N] @ inputs, direct, (n_f, attack.n_ay))
    folded = np.hstack([m_x, m_s]) @ _recording_window(system, attack)
    # Rebinding m_f frees the unwhitened map before the factor is joined;
    # holding both lets the allocator trim and refault the heap on every call.
    m_f = np.hstack([folded[:, n_e:], m_f])
    m_f = (m_f.reshape(-1, n_f) @ system.sqrt_sigma_f).reshape(m_f.shape)
    f_z, f_r = _split(np.hstack([folded[:, :n_e] @ system.sqrt_sigma_0, m_f]), n_z, N)
    sigma_r = f_r @ f_r.T
    pd, trace, logdet = numcore.cholesky_audit(0.5 * (sigma_r + sigma_r.T))
    return pd, trace, logdet, np.sqrt(np.sum(f_z * f_z, axis=1))


def _recording_window(system: SystemModel, attack: AttackMatrices) -> np.ndarray:
    """Matrix R from (x_e(start), f(start..-1)) to the noise in (x_e(0); gamma_y' y(start..-1)).

    The window [start, -1], start = -N-1, runs the nominal loop. Its recorded
    stack is the lifted gather of that loop with output gamma_y' [C 0] and
    direct term gamma_y' on w; x_e(0), one step past the window, is
    A^(N+1) x_e(start) + sum_j A^(N-j) B_f f(j) from the same powers, plus a
    term in y_r that the mean maps carry.
    """
    nominal, plant = system.nominal, system.plant
    N, n_f, n_ay = -attack.start_step - 1, nominal.n_f, attack.n_ay
    powers = numcore.matrix_powers(nominal.A_cl, N + 1)
    obs = attack.gamma_y.T @ np.hstack([plant.C, np.zeros_like(plant.C)]) @ powers[: N + 1]
    direct = np.zeros((n_ay, n_f))
    direct[:, plant.n_x :] = attack.gamma_y.T
    recorded_x, recorded_f, _ = _lifted_rows(obs, obs[:N] @ nominal.B_f, direct, (n_f,))
    drive = powers[N::-1] @ nominal.B_f  # [j]: A^(N-j) B_f
    x0_f = drive.transpose(1, 0, 2).reshape(powers.shape[1], -1)
    return np.vstack([np.hstack([powers[N + 1], x0_f]), np.hstack([recorded_x, recorded_f])])


@lru_cache(maxsize=1)  # every gather of a pair reads one horizon's index
def _lags(N: int) -> np.ndarray:
    """Read-only [k, j]: the Markov block of output step k and input step j in _lifted_rows.

    That is the lag k-1-j where j <= k, and N, the zero block, where j > k.
    """
    numcore.require_addressable((N + 1, N + 1), f"lag index of horizon {N}")
    lag = np.arange(N + 1)[:, None] - 1 - np.arange(N + 1)
    toeplitz = np.where(lag >= -1, lag, N)
    toeplitz.flags.writeable = False
    return toeplitz


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
    blocks = np.concatenate([markov, np.zeros_like(direct)[None], direct[None]])[..., :n_in]
    # Gathered group by group: one gather of every input column adds 0.75 MB at
    # N = 50, which pushed a call's transient heap past glibc's trim threshold,
    # so that its pages were returned and refaulted on every call.
    toeplitz = _lags(N)
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
    audit: tuple, layout: DecisionLayout, n_y: int, epsilon: float, maps: _Maps
) -> GaussianSummary:
    """Gaussian summary at epsilon of a configuration's audit row and its maps.

    The row is (pd, trace, logdet, sigma) from _innovation_audit or
    _replay_audit. Unless Sigma_R is positive definite no attack is stealthy
    and the radius is -inf.
    """
    pd, trace, logdet, sigma = audit
    return GaussianSummary(
        sigma=sigma,
        eps_prime=_radius(layout.horizon, n_y, epsilon, trace, logdet) if pd else -np.inf,
        residual_cov_pd=bool(pd),
        sigma_r_trace=float(trace),
        sigma_r_logdet=float(logdet),
        n_y=n_y,
        layout=layout,
        epsilon=epsilon,
        maps=maps,
    )


def _innovation_audit(
    ext: ExtendedSystem, system: SystemModel, q_z: np.ndarray, N: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sigma_R's PD verdict, trace and ln det, and sigma, for a batch of loops without a recording.

    ext is the batch's stacked loops, as assemble_extended returns them: the
    recursion reads A_cl, [D_f; B_f] and C_r with their configuration axis.

    The residual r(0..N) is the output of the loop (A_cl, B_f, C_r, D_f) from
    x_e(0) ~ N(., Sigma_0), driven by white f ~ N(0, Sigma_f), so
    Sigma_R = L diag(S_k) L' with S_k the innovation covariances of a Kalman
    filter for that model (Schweppe's prediction-error decomposition), and
    ln det Sigma_R = sum_k ln det S_k. Each step factors the pre-array
    [D_f Sigma_f^1/2, C_r Pi^1/2; B_f Sigma_f^1/2, A_cl Pi^1/2] of every loop
    at once, by one QR of its transpose: the leading n_y pivots are the
    diagonal of a triangular S_k^1/2, the trailing block Pi^1/2 of the next
    step.
    Sigma_R counts as positive definite when its smallest pivot squared is
    above PD_RTOL max(1, tr Sigma_R); ln det is nan otherwise, and no zero
    pivot reaches a log. The marginal variances come from the row norms of
    [critical map; C_r] A_cl^k (Sigma_0^1/2 | B_f Sigma_f^1/2), the noise
    term summed over lags below k, so tr Sigma_R and sigma need no stacked
    matrix. Returns (pd, trace, logdet, sigma), one row per loop.
    """
    A, n_f = ext.A_cl, ext.n_f
    B, n_y, n_e, n_z = len(A), system.plant.n_y, 2 * system.plant.n_x, q_z.shape[0]
    noise = np.concatenate([ext.D_f, ext.B_f], axis=1) @ system.sqrt_sigma_f
    out = np.concatenate([np.broadcast_to(q_z, (B, n_z, n_e)), ext.C_r], axis=1)
    drive = np.concatenate([np.broadcast_to(system.sqrt_sigma_0, (B, n_e, n_e)), noise[:, n_y:]], axis=2)
    sq = np.square(out[:, None] @ numcore.matrix_powers(A, N) @ drive[:, None])  # [loop, k, row]
    var = sq[..., :n_e].sum(axis=-1)  # from x_e(0), then from f(j) at the lags k - 1 - j >= 0
    var[:, 1:] += np.cumsum(sq[:, :-1, :, n_e:].sum(axis=-1), axis=1)
    sigma = np.sqrt(var[:, 1:, :n_z]).reshape(B, N * n_z)
    direct = np.square(noise[:, :n_y]).reshape(B, -1).sum(axis=1)
    trace = var[:, :, n_z:].reshape(B, -1).sum(axis=1) + (N + 1) * direct

    # The transposed pre-array: fixed rows Sigma_f^1/2 [D_f' B_f'] over rows
    # Pi^1/2' [C_r' A_cl'] that each step rewrites; Pi_0^1/2 = Sigma_0^1/2.
    pre = np.empty((B, n_f + n_e, n_y + n_e))
    pre[:, :n_f] = noise.transpose(0, 2, 1)
    gain = np.ascontiguousarray(np.concatenate([out[:, n_z:], A], axis=1).transpose(0, 2, 1))
    root = np.array(np.broadcast_to(system.sqrt_sigma_0, (B, n_e, n_e)))
    upper = np.triu(np.ones((n_e, n_e)))
    heads = np.empty((B, N + 1, n_y, n_y))
    for k in range(N + 1):
        np.matmul(root, gain, out=pre[:, n_f:])
        r = np.linalg.qr(pre, mode="raw")[0].transpose(0, 2, 1)  # R on and above the diagonal
        heads[:, k] = r[:, :n_y, :n_y]
        np.multiply(r[:, n_y : n_y + n_e, n_y:], upper, out=root)  # Pi^1/2' of step k + 1
    pivots = np.diagonal(heads, axis1=2, axis2=3)
    squares = np.square(pivots).reshape(B, -1)
    pd = numcore.pd_rule(squares.min(axis=1), trace)
    logdet = np.full(B, np.nan)
    logdet[pd] = np.log(squares[pd]).sum(axis=1)
    trace = np.where(pd, trace, np.nan)
    return pd, trace, logdet, sigma


@np.errstate(over="raise")
def gaussian_summaries(
    system: SystemModel,
    attacks: list[AttackMatrices],
    layout: DecisionLayout,
    q_z: np.ndarray,
    N: int,
    epsilon: float,
) -> list[GaussianSummary]:
    """Gaussian summaries at epsilon of configurations of one system, audited together.

    The configurations must share their injection widths and modes, as a
    pair's do, so that one layout serves them all; differing widths raise
    DimensionMismatch. The horizon's lag index, the largest array every
    configuration's gathers share, is requested first, so a horizon too long
    to gather fails before any audit. One assemble_extended call builds every
    configuration's loop, stacked. All configurations without a recording
    are audited by one _innovation_audit on those stacked loops, replay's one
    by one by _replay_audit on its own slice, and each one's mean maps are
    stacked from its slice on first read. A floating-point overflow raises
    FloatingPointError: in the audit at once, in the mean maps when they are
    first read.
    """
    if N < 1:
        raise ValueError("horizon must be at least 1")
    _lags(N)  # the largest array the gathers share, so a horizon too long fails here, before the audit
    ext = assemble_extended(system.plant, system.controller, system.estimator, attacks)
    if layout.dim_d != (N + 1) * attacks[0].n_a + ext.n_yr:
        raise DimensionMismatch("maps and decision layout disagree on dim_d")
    audits: list = [None] * len(attacks)
    batch = [i for i, attack in enumerate(attacks) if not attack.has_recording]
    if batch:
        for i, *row in zip(batch, *_innovation_audit(ext[batch], system, q_z, N)):
            audits[i] = row
    for i, attack in enumerate(attacks):
        if attack.has_recording:
            audits[i] = _replay_audit(ext[i], attack, system, q_z, N)
    summaries = []
    for i, (audit, attack) in enumerate(zip(audits, attacks)):
        maps = _Maps(partial(stack_dynamics, ext[i], attack, system, q_z, N), layout)
        summaries.append(summarize(audit, layout, system.plant.n_y, epsilon, maps))
    return summaries


def gaussian_summary(
    system: SystemModel,
    attack: AttackMatrices,
    layout: DecisionLayout,
    q_z: np.ndarray,
    N: int,
    epsilon: float,
) -> GaussianSummary:
    """Gaussian summary of one attack configuration: gaussian_summaries on a batch of one.

    Its audit, sigma and radius equal, bit for bit, those the configuration
    gets in any batch. A floating-point overflow raises FloatingPointError:
    in the audit at once, in the mean maps when they are first read.
    """
    return gaussian_summaries(system, [attack], layout, q_z, N, epsilon)[0]
