"""Gaussian propagation engine.

Under an affine attack the critical trajectory z_{1:N} and the whitened
residual trajectory r_{0:N} are jointly Gaussian, with a mean affine in the
decision vector d = [a_{0:N}; y_r] and a covariance that does not depend on
it:

    z = T_Z d + F_Z e,    r = T_R d + F_R e,    e ~ N(0, I),

where e whitens the initial state x_e(start) ~ N(t_0 y_r, Sigma_0) and the
noise window f(start..N), white with per-step covariance Sigma_f. A
configuration's GaussianLaw keeps sigma, the marginal standard deviations of
z, and an audit of Sigma_R = F_R F_R' (its definiteness, trace and ln det),
which reduces the stealthiness budget on the residual KL rate to the
quadratic constraint d' T_R' T_R d <= eps_prime; epsilon enters only there,
through the law's radius(epsilon), which costs O(1).

The audit comes first, and gives one row (pd, trace, logdet, sigma) per
configuration, the row its law is built from. Outside replay
the row comes from one square-root innovation recursion over a batch of
configurations (_innovation_audit), _BLOCK_STEPS steps per batched QR; a
configuration whose pivots fail the rule leaves the batch, as it stays
singular at every longer horizon. Replay's x_e(0) is correlated with its
recording, so _replay_audit runs the recording and the attacked loop as one
Markov chain in aligned time, forms Sigma_R from that chain's state
covariances, and factors it; no noise factor is formed. Both apply
numcore.pd_rule, the package's one definiteness rule, to their pivots: QR
pivots in the recursion, Cholesky pivots for replay, where a failed
factorization counts as singular.
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
families, with powers of A from numcore.matrix_powers, over the (a, y_r)
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import numcore
from .attacks import AttackMatrices, DecisionLayout
from .solver import ImpactCurve
from .sysmodel import DimensionMismatch, ExtendedSystem, SystemModel, assemble_extended

# eps' sums terms of size (N+1)(2 eps + n_y); a result within this fraction of
# their magnitudes is rounding noise around 0, as for Sigma_R = I at eps = 0.
_RADIUS_RTOL = 1e-12

# Steps of the innovation audit per batched QR. Fewer leave its call overhead
# per step; more grow each QR's work with the block's square. On the bundled
# pairs, at N = 10 and 50 alike, 6 was fastest of 4 to 17.
_BLOCK_STEPS = 6


class GaussianLaw:
    """A configuration's window law at every epsilon: its Sigma_R audit, sigma, and its maps on demand.

    pd, trace and logdet audit Sigma_R (trace and logdet are nan unless it
    is positive definite), and sigma holds the marginal standard deviations
    of z. Epsilon enters only through radius. The mean maps (T_Z, T_R) and
    the ImpactCurve of the critical rows are built on first read, so a
    configuration that no solve reads is never stacked.
    """

    def __init__(self, audit: tuple, layout: DecisionLayout, n_y: int, build: Callable[[], tuple]) -> None:
        pd, trace, logdet, self.sigma = audit
        self.pd, self.trace, self.logdet = bool(pd), float(trace), float(logdet)
        self.layout, self._n_y, self._build = layout, n_y, build  # build() returns (T_Z, T_R)

    def radius(self, epsilon: float) -> float:
        """eps' = (N+1)(2 eps + n_y) - tr Sigma_R + ln det Sigma_R, or -inf unless Sigma_R is PD."""
        if not self.pd:
            return -math.inf
        return _radius(self.layout.horizon, self._n_y, epsilon, self.trace, self.logdet)

    @cached_property
    def means(self) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="raise"):
            means = self._build()
        self._build = None
        return means

    @cached_property
    def curve(self) -> ImpactCurve:
        """The ImpactCurve of the critical rows; building it stacks the maps, factoring nothing."""
        t_z, t_r = self.means
        return ImpactCurve(self.layout.Q, t_r, self.layout, t_z)

    def solve_each(self, radii: Sequence[float]) -> Iterator:
        """The curve's stream over the radii (ImpactCurve.solve_each); its first read builds the curve."""
        yield from self.curve.solve_each(radii)


@dataclass
class GaussianSummary:
    """A law at one epsilon, as compute_impact reads it: the radius, and the stream in which it comes next.

    compute_impact takes the stream's next outcome, so it reads a summary once.
    """

    law: GaussianLaw
    eps_prime: float
    outcomes: Iterator  # read only at a nonnegative radius

    @property
    def residual_cov_pd(self) -> bool:
        return self.law.pd

    @property
    def sigma(self) -> np.ndarray:
        return self.law.sigma

    @property
    def t_z(self) -> np.ndarray:
        return self.law.means[0]

    @property
    def t_r(self) -> np.ndarray:
        return self.law.means[1]

    @property
    def impact_bounded(self) -> bool:
        """Whether every critical row is bounded on the feasible set: the curve's cached verdict."""
        return self.law.curve.bounded


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
    m_x, m_a, m_r = _lifted_rows(obs, obs[:N] @ inputs, direct, n_a)
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

    Replay's x_e(0) is correlated with its recording, so the window's noise
    is not a loop started from its stationary law. The audit runs two chains
    in aligned time j = 0..N instead, over the joint state s_j = (rho_j,
    alpha_j):
      - rho_j = x_e(j-N-1) is the recording chain, the nominal loop (A_0, B_0)
        started from Sigma_0; its tap P rho_j + Q f_R(j), with P =
        gamma_y' [C 0] and Q gamma_y' on w, is the recorded stack a_y(j);
      - alpha is the attacked loop started from an independent stationary
        x~_0 and driven by that tap through the sensor columns G_s, H_s of
        G_a and H_a.
    s is Markov, s_(j+1) = Phi s_j + Gamma g_j with g_j = (f_R(j), f(j)) white,
    Phi = [[A_0, 0], [G_s P, A_cl]] and Gamma = [[B_0, 0], [G_s Q, B_f]], and
    its residual is r~_j = M s_j + D g_j, with M = [H_s P, C_r] and
    D = [H_s Q, D_f]. From one matrix_powers(Phi, N) call:
      - P_j = Cov(s_j) = Phi^j P_0 Phi^j' + sum_(l<j) Phi^l Gamma Sigma_g
        Gamma' Phi^l', a prefix sum, with P_0 = diag(Sigma_0, Sigma_0);
      - Sigma~ = Cov(r~) has the diagonal blocks M P_j M' + D Sigma_g D' and,
        below them, M Phi^(i-j-1) K_j with K_j = Phi P_j M' + Gamma Sigma_g D',
        one GEMM over the lags gathered by the lag index.
    The true x_e(0) is rho_(N+1), so r = r~ + T_1 (rho_(N+1) - x~_0) with
    T_1 = [C_r A_cl^j], and Cov(r~, x~_0) = T_1 Sigma_0; the Sigma_0 terms
    cancel, leaving Sigma_R = Sigma~ + T_1 C' + C T_1' with C = Cov(r~,
    rho_(N+1)), whose row block j is (E Phi^(N-j) K_j)', E = [I 0]. The
    critical rows q_z alpha_i, which have no direct term, follow the same way
    row by row for sigma. Sigma_R is formed as H + H', with H its blocks
    below the diagonal, half of those on it, and T_1 C', and audited by
    numcore.cholesky_audit. Returns the row _innovation_audit returns for a
    loop without a recording.
    """
    plant, nominal = system.plant, system.nominal
    n_x, n_y, n_f, n_z = plant.n_x, plant.n_y, ext.n_f, q_z.shape[0]
    n_e, n_s, n = 2 * n_x, 4 * n_x, (N + 1) * n_y
    tap = attack.gamma_y.T @ np.hstack([plant.C, np.zeros((n_y, n_e)), np.eye(n_y)])  # [P | Q]
    # [[Phi, Gamma], [M, D]] over the columns (rho, alpha, f_R, f), Gamma and D whitened
    model = np.zeros((n_s + n_y, n_s + 2 * n_f))
    model[:n_e, :n_e], model[:n_e, n_s : n_s + n_f] = nominal.A_cl, nominal.B_f
    sensed = np.vstack([ext.G_a, ext.H_a])[:, attack.n_au :] @ tap
    model[n_e:, :n_e], model[n_e:, n_s : n_s + n_f] = sensed[:, :n_e], sensed[:, n_e:]
    model[n_e:, n_e:n_s] = np.vstack([ext.A_cl, ext.C_r])
    model[n_e:, n_s + n_f :] = np.vstack([ext.B_f, ext.D_f])
    model[:, n_s:] = (model[:, n_s:].reshape(-1, n_f) @ system.sqrt_sigma_f).reshape(-1, 2 * n_f)
    phi, drive, direct = model[:n_s, :n_s], model[:n_s, n_s:], model[n_s:, n_s:]
    out = np.zeros((n_y + n_z, n_s))  # [M; the critical map on alpha]
    out[:n_y], out[n_y:, n_e:] = model[n_s:, :n_s], q_z
    root = np.zeros((n_s, n_s))  # P_0^1/2
    root[:n_e, :n_e] = root[n_e:, n_e:] = system.sqrt_sigma_0

    powers = numcore.matrix_powers(phi, N)
    start = powers @ root
    cov = start @ start.transpose(0, 2, 1)  # [j]: P_j
    reach = powers[:N] @ drive
    cov[1:] += np.cumsum(reach @ reach.transpose(0, 2, 1), axis=0)
    gain = phi @ cov @ out.T  # [j]: K_j, and Phi P_j on the critical rows
    gain[..., :n_y] += drive @ direct.T
    obs = out @ powers  # [j]: M Phi^j, whose alpha columns are T_1's C_r A_cl^j
    cross = powers[::-1, :n_e] @ gain  # [j]: E Phi^(N-j) K_j = Cov(rho_(N+1), output j)
    spread = out @ cov
    var = np.sum(spread[1:, n_y:] * out[n_y:], axis=-1)
    var += 2.0 * np.sum(obs[1:, n_y:, n_e:] * cross[1:, :, n_y:].transpose(0, 2, 1), axis=-1)

    # [l, :, j]: M Phi^l K_j at l < N, a zero block at l = N for j > i, and
    # half the diagonal block at l = -1, gathered by the lag index i - 1 - j.
    lagged = np.empty((N + 2, n_y, N + 1, n_y))
    gains = gain[..., :n_y].transpose(1, 0, 2).reshape(n_s, n)
    np.matmul(obs[:N, :n_y].reshape(N * n_y, n_s), gains, out=lagged[:N].reshape(N * n_y, n))
    lagged[N] = 0.0
    diagonal = spread[:, :n_y] @ out[:n_y].T + direct @ direct.T
    lagged[N + 1] = 0.5 * diagonal.transpose(1, 0, 2)
    half = lagged[_lags(N), :, np.arange(N + 1)].transpose(0, 2, 1, 3).reshape(n, n)
    del lagged  # each n x n array held into the factorization adds to its peak
    half += obs[:, :n_y, n_e:].reshape(n, n_e) @ cross[..., :n_y].transpose(1, 0, 2).reshape(n_e, n)
    sigma_r = half + half.T
    del half
    pd, trace, logdet = numcore.cholesky_audit(sigma_r)
    return pd, trace, logdet, np.sqrt(var).reshape(N * n_z)


@lru_cache(maxsize=1)  # every gather of a pair reads one horizon's index
def _lags(N: int) -> np.ndarray:
    """Read-only [k, j]: the lag of output step k and input step j in a block-Toeplitz gather.

    That is the lag k-1-j where j <= k, -1 for the direct term at j = k, and
    N, where the gathers keep a zero block, where j > k.
    """
    numcore.require_addressable((N + 1, N + 1), f"lag index of horizon {N}")
    lag = np.arange(N + 1)[:, None] - 1 - np.arange(N + 1)
    toeplitz = np.where(lag >= -1, lag, N)
    toeplitz.flags.writeable = False
    return toeplitz


def _lifted_rows(
    obs: np.ndarray, markov: np.ndarray, direct: np.ndarray, n_in: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maps of the output rows at steps 0..N over the window.

    obs[k] is the observability block of step k, markov[l] the Markov block at
    lag l = k-1-j over the stacked input columns, and direct the feedthrough at
    lag -1 (j = k). Returns the row map of the initial state, the stacked map
    of the first n_in input columns over steps 0..N, and the sum over lags of
    the remaining (reference) columns, a prefix sum of their Markov blocks.
    Every reshape names its sizes, so an output with no rows works.
    """
    N = markov.shape[0]
    n_rows = (N + 1) * direct.shape[0]
    blocks = np.concatenate([markov, np.zeros_like(direct)[None], direct[None]])[..., :n_in]
    gathered = blocks[_lags(N)].transpose(0, 2, 1, 3).reshape(n_rows, (N + 1) * n_in)
    ref = np.concatenate([np.zeros_like(direct[None, :, n_in:]), markov[..., n_in:]])
    summed = (np.cumsum(ref, axis=0) + direct[:, n_in:]).reshape(n_rows, ref.shape[-1])  # [k]: lags < k, and -1
    return obs.reshape(n_rows, obs.shape[-1]), gathered, summed


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


def summarize(law: GaussianLaw, epsilon: float, outcomes: Optional[Iterator] = None) -> GaussianSummary:
    """The law at epsilon. outcomes is a stream of the law's curve in which its radius comes next.

    By default the summary gets a stream of its own, over its one radius.
    """
    eps_prime = law.radius(epsilon)
    return GaussianSummary(law, eps_prime, law.solve_each([eps_prime]) if outcomes is None else outcomes)


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
    ln det Sigma_R = sum_k ln det S_k. The recursion advances b =
    min(_BLOCK_STEPS, N + 1) steps per batched QR, an array algorithm over a
    block of steps (Kailath, Sayed & Hassibi, Linear Estimation, 2000). From
    step k, the outputs r(k..k+b-1) and the state x_e(k+b) are the map
    [O | T] of (prediction error, f(k..k+b-1)), with O = [C_r; C_r A_cl; ..;
    C_r A_cl^(b-1); A_cl^b] and T block-Toeplitz: D_f on the diagonal,
    C_r A_cl^l B_f at lag l + 1 below it, and the reach A_cl^(b-1-j) B_f of
    f(k+j) into x_e(k+b). One QR of the transposed pre-array
    [Pi^1/2' O'; (I kron Sigma_f^1/2') T'] factors every loop's block at
    once: the diagonal of its leading b n_y columns holds the pivots of the
    triangular S^1/2 of the b steps, the trailing n_e x n_e block Pi^1/2 of
    step k + b. Only the Pi^1/2 rows change from block to block; the fixed
    rows are one lag gather of Markov blocks formed from A_cl^0..A_cl^b, the
    first powers of the one matrix_powers call the variances below take.
    The last block, which may be partial, is factored on its leading columns
    only.
    Sigma_R counts as positive definite when its smallest pivot squared is
    above PD_RTOL max(1, tr Sigma_R); ln det is nan otherwise, and no zero
    pivot reaches a log. A squared pivot at or below PD_RTOL max(1, tr of
    the steps up to its own) fails that rule at every longer horizon too, so
    after each block such a loop leaves the batch with its verdict settled;
    the others are factored as they would be alone. The marginal variances
    come from the row norms of [critical map; C_r] A_cl^k (Sigma_0^1/2 |
    B_f Sigma_f^1/2), the noise term summed over lags below k, so
    tr Sigma_R, its partial sums and sigma need no stacked matrix. Returns
    (pd, trace, logdet, sigma), one row per loop.
    """
    A, n_f = ext.A_cl, ext.n_f
    B, n_y, n_e, n_z = len(A), system.plant.n_y, 2 * system.plant.n_x, q_z.shape[0]
    noise = np.concatenate([ext.D_f, ext.B_f], axis=1) @ system.sqrt_sigma_f
    out = np.concatenate([np.broadcast_to(q_z, (B, n_z, n_e)), ext.C_r], axis=1)
    drive = np.concatenate([np.broadcast_to(system.sqrt_sigma_0, (B, n_e, n_e)), noise[:, n_y:]], axis=2)
    powers = numcore.matrix_powers(A, N)
    sq = np.square(out[:, None] @ powers @ drive[:, None])  # [loop, k, row]
    var = sq[..., :n_e].sum(axis=-1)  # from x_e(0), then from f(j) at the lags k - 1 - j >= 0
    var[:, 1:] += np.cumsum(sq[:, :-1, :, n_e:].sum(axis=-1), axis=1)
    sigma = np.sqrt(var[:, 1:, :n_z]).reshape(B, N * n_z)
    direct = np.square(noise[:, :n_y]).reshape(B, -1).sum(axis=1)
    trace = var[:, :, n_z:].reshape(B, -1).sum(axis=1) + (N + 1) * direct
    partial = np.cumsum(var[:, :, n_z:].sum(axis=-1) + direct[:, None], axis=1)  # tr of steps <= k
    trace_to = np.repeat(partial, n_y, axis=1)  # [loop, pivot]: the scale that decides a loop's exit

    # The transposed pre-array of a block: n_e rows Pi^1/2' O' that each block
    # rewrites, over the fixed rows of f(j), j < b, whose columns are the
    # outputs r(i), i < b, then x_e(b). All of it comes from A^0..A^b: the
    # Markov blocks C_r A^l B_f Sigma_f^1/2 are gathered by the lag index,
    # with the zero block at b - 1 and the direct term last.
    b, d_f = min(_BLOCK_STEPS, N + 1), noise[:, None, :n_y]
    reach = powers[:, :b] @ noise[:, None, n_y:]  # [loop, l]: A^l B_f Sigma_f^1/2
    head = ext.C_r[:, None] @ powers[:, :b]  # [loop, i]: C_r A^i
    blocks = np.concatenate([head[:, : b - 1] @ noise[:, None, n_y:], np.zeros_like(d_f), d_f], axis=1)
    pre = np.empty((B, n_e + b * n_f, b * n_y + n_e))
    fixed = pre[:, n_e:].reshape(B, b, n_f, b * n_y + n_e)  # [loop, j, f, column]
    lags = np.minimum(_lags(N)[:b, :b], b - 1)
    fixed[..., : b * n_y].reshape(B, b, n_f, b, n_y)[...] = blocks[:, lags].transpose(0, 2, 4, 1, 3)
    fixed[..., b * n_y :] = reach[:, ::-1].transpose(0, 1, 3, 2)
    gain = np.zeros((B, n_e, b * n_y + n_e))  # O', whose A^b column a single block never reads
    gain[..., : b * n_y].reshape(B, n_e, b, n_y)[...] = head.transpose(0, 3, 1, 2)
    if b <= N:
        gain[..., b * n_y :] = powers[:, b].transpose(0, 2, 1)
    # Freed before the loop allocates its pre-array copies: holding them too
    # lets the allocator trim and refault the heap on every call.
    del sq, powers
    root, upper = system.sqrt_sigma_0, np.triu(np.ones((n_e, n_e)))  # Pi_0^1/2 = Sigma_0^1/2
    live, squares = np.arange(B), np.empty((B, (N + 1) * n_y))  # the batch, and its pivots squared
    for k in range(0, N + 1, b):
        steps = min(b, N + 1 - k)
        cols = b * n_y + n_e if k + b <= N else steps * n_y  # the last block needs no next root
        np.matmul(root, gain[..., :cols], out=pre[:, :n_e, :cols])
        # R on and above the diagonal; rows past n_e + steps n_f are zero in the leading columns
        r = np.linalg.qr(pre[:, : n_e + steps * n_f, :cols], mode="raw")[0].transpose(0, 2, 1)
        fresh = np.square(r[:, : steps * n_y, : steps * n_y].diagonal(0, 1, 2))
        squares[:, k * n_y : (k + steps) * n_y] = fresh
        if k + b > N:
            break
        root = np.multiply(r[:, b * n_y : b * n_y + n_e, b * n_y :], upper)  # Pi^1/2' of step k + b
        ok = numcore.pd_rule(fresh, trace_to[:, k * n_y : (k + b) * n_y])
        if not ok.all():
            keep = ok.all(axis=1)
            batch = (live, pre, gain, root, trace_to, squares)
            live, pre, gain, root, trace_to, squares = (a[keep] for a in batch)
            if not live.size:
                break
    pd = np.zeros(B, dtype=bool)
    pd[live] = numcore.pd_rule(squares.min(axis=1), trace[live])
    logdet = np.full(B, np.nan)
    logdet[pd] = np.log(squares[pd[live]]).sum(axis=1)
    trace = np.where(pd, trace, np.nan)
    return pd, trace, logdet, sigma


@np.errstate(over="raise")
def gaussian_summaries(
    system: SystemModel,
    attacks: list[AttackMatrices],
    layout: DecisionLayout,
    q_z: np.ndarray,
    N: int,
) -> list[GaussianLaw]:
    """The Gaussian laws of configurations of one system, audited together, one per configuration.

    The configurations must share their injection widths and modes, as a
    pair's do, so that one layout serves them all; differing widths raise
    DimensionMismatch. The horizon's lag index, the largest array every
    configuration's gathers share, is requested first, so a horizon too long
    to gather fails before any audit. One assemble_extended call builds every
    configuration's loop, stacked. All configurations without a recording
    are audited by one _innovation_audit on those stacked loops, replay's one
    by one by _replay_audit on its own slice. A law's mean maps are stacked
    from its slice on first read. A floating-point overflow raises
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
    return [
        GaussianLaw(audit, layout, system.plant.n_y, partial(stack_dynamics, ext[i], attack, system, q_z, N))
        for i, (audit, attack) in enumerate(zip(audits, attacks))
    ]


def gaussian_summary(
    system: SystemModel,
    attack: AttackMatrices,
    layout: DecisionLayout,
    q_z: np.ndarray,
    N: int,
    epsilon: float,
) -> GaussianSummary:
    """Gaussian summary at epsilon of one configuration: its law from a batch of one, summarized.

    Its audit, sigma and radius equal, bit for bit, those the configuration
    gets in any batch, at any epsilon. A floating-point overflow raises
    FloatingPointError: in the audit at once, in the mean maps on first read.
    """
    return summarize(gaussian_summaries(system, [attack], layout, q_z, N)[0], epsilon)
