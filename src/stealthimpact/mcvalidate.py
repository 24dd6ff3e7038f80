"""Monte Carlo oracle for the analytic machinery.

Runs the literal closed loop (plant, estimator, feedback, attack channels,
and for replay the record-then-substitute protocol) on the basis of its
whitened noise, which gives the affine map of its rows, hence the exact
Gaussian law of its critical and residual rows. The residual law feeds the
KL budget check; the critical law's mean and covariance can be compared
against the stacked-map predictions exactly. Only what has no closed form
is sampled: the critical rows are drawn through the thin-QR square root of
their covariance for their exceedance frequencies and mean peak magnitude.
The samples are drawn in blocks, each from its own SFC64 stream: the calling
thread takes the even blocks and one helper the odd ones, each merges its
blocks' statistics in block order, and the two totals are merged last, so a
seed fixes every value, however the threads are timed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore
from .attacks import AttackMatrices, decision_layout
from .solver import CERT_TOL
from .sysmodel import SystemModel


@dataclass
class SimulationConfig:
    samples: int
    seed: int
    horizon: int
    stream: int = 0  # calls at one seed on different streams draw independently

    def __post_init__(self) -> None:
        if self.samples < 2:  # the sample statistics use ddof=1
            raise numcore.InputError("samples must be at least 2")


@dataclass
class EmpiricalSummary:
    """The literal loop's exact law of z and r, and the statistics of its sampled critical rows."""

    z_mean: np.ndarray  # exact: mu_z
    z_cov: np.ndarray  # exact: R'R = M_z'M_z
    r_mean: np.ndarray  # exact: mu_r
    r_cov: np.ndarray  # exact: M_r'M_r
    exceed_freq: np.ndarray  # sampled: the frequency of |z_i| > 1, per critical row
    exceed_se: np.ndarray  # sampled: its binomial standard error
    e_inf_norm: float  # sampled: the mean of ||z||_inf
    e_inf_norm_se: float  # sampled: its standard error
    samples: int


@dataclass
class KlCheckResult:
    """Agreement between the analytic budget test and the loop's exact KL rate."""

    quad_value: float
    radius: float
    analytic_ok: bool
    rate: float
    epsilon: float
    rate_ok: bool
    consistent: bool


def min_samples(system: SystemModel, horizon: int) -> int:
    """Fewest samples --mc-validate accepts, (N+1) n_y + 1.

    A sampled residual covariance once needed that many to be nonsingular.
    The residual law is exact now; the floor stays so that no exit code moves.
    """
    return (horizon + 1) * system.plant.n_y + 1


# Samples per block: part of the draw contract, so a constant, not a setting.
# Of 4,096, 8,192 and 16,384, 8,192 sampled the bundled --mc-validate run's six calls fastest.
_BLOCK = 8192


def _block_rng(seed: int, stream: int, j: int) -> np.random.Generator:
    """The generator of sample block j of a stream: SFC64 on SeedSequence(seed, spawn_key=(stream, j))."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(stream, j))))


@dataclass(frozen=True)
class _BlockStats:
    """Exceedance counts per critical row, and the count, mean and centred sum of squares of the per-sample ‖z‖∞."""

    exceed: np.ndarray
    n: int
    mean: float
    m2: float

    @classmethod
    def of(cls, z: np.ndarray) -> "_BlockStats":
        """One block's statistics, from its z, shape (n_z, m), made |z|."""
        np.abs(z, out=z)
        norm = z.max(axis=0, initial=0.0)  # zeros when z has no rows
        mean = norm.mean()
        norm -= mean
        return cls(np.count_nonzero(z > 1.0, axis=1), len(norm), mean, norm @ norm)

    def merge(self, other: "_BlockStats") -> "_BlockStats":
        """The statistics of both sample sets, by the pairwise update of Chan, Golub and LeVeque (1983)."""
        n = self.n + other.n
        delta = other.mean - self.mean
        return _BlockStats(self.exceed + other.exceed, n, self.mean + delta * (other.n / n),
                           self.m2 + other.m2 + delta * delta * (self.n * other.n / n))

    def summary(
        self, z_mean: np.ndarray, z_cov: np.ndarray, r_mean: np.ndarray, r_cov: np.ndarray
    ) -> EmpiricalSummary:
        """The frequencies, the mean ‖z‖∞ and their standard errors, next to the exact laws of z and r."""
        n = self.n
        exceed = self.exceed / n
        return EmpiricalSummary(
            z_mean=z_mean,
            z_cov=z_cov,
            r_mean=r_mean,
            r_cov=r_cov,
            exceed_freq=exceed,
            exceed_se=np.sqrt(np.clip(exceed * (1.0 - exceed), 0.0, None) / n),
            e_inf_norm=float(self.mean),
            e_inf_norm_se=math.sqrt(float(self.m2) / (n - 1)) / math.sqrt(n),
            samples=n,
        )


def _affine_map(
    system: SystemModel, attack: AttackMatrices, d: np.ndarray, q_z: np.ndarray, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """(M, mu): the literal closed loop's stacked rows [z r] are xi M + mu in its whitened inputs xi.

    xi stacks, in the order the loop reads them, the initial state's 2 n_x
    standard normals, then per step the sensor noise w's n_y and, except at
    step N, the process noise v's n_x. M is the loop run on the identity over
    xi with d's injected signals and reference off, and mu the loop run on
    xi = 0 with them on, so M is not a difference of runs.
    """
    plant, ctrl, est = system.plant, system.controller, system.estimator
    n_x, n_y, n_au = plant.n_x, plant.n_y, attack.n_au
    chol_v, chol_w = np.linalg.cholesky(plant.sigma_v), np.linalg.cholesky(plant.sigma_w)
    a_on, y_r_on = decision_layout(attack, N, ctrl.Q_yr).split(d)
    cuts = np.cumsum([2 * n_x] + [n_y, n_x] * (N - attack.start_step))

    def rows(xi: np.ndarray, on: float) -> np.ndarray:
        a_seq, y_r, cols = on * a_on, on * y_r_on, iter(np.split(xi, cuts, axis=1))
        x_e = next(cols) @ system.sqrt_sigma_0.T + system.t_0 @ y_r
        z, r, recorded = [], [], []
        for k in range(attack.start_step, N + 1):
            x, x_hat = x_e[:, :n_x], x_e[:, n_x:]
            y = x @ plant.C.T + next(cols) @ chol_w.T
            u = ctrl.L_yr @ y_r - x_hat @ ctrl.L_xhat.T
            if k < 0:  # recording window: the loop runs nominally
                recorded.append(y @ attack.gamma_y)
                y_att, u_att = y, u
            else:
                y_att = y @ attack.lambda_y.T + attack.gamma_y @ a_seq[k, n_au:]
                if attack.has_recording:  # the tap of recording step k - N - 1
                    y_att = y_att + recorded[k] @ attack.gamma_y.T
                u_att = u @ attack.lambda_u.T + attack.gamma_u @ a_seq[k, :n_au]
            innov = y_att - x_hat @ plant.C.T
            if k >= 0:
                r.append(innov @ est.sigma_r_invsqrt.T)
            if k == N:
                return np.hstack(z + r)
            x_e = np.hstack([x @ plant.A.T + u_att @ plant.B.T + next(cols) @ chol_v.T,
                             x_hat @ plant.A.T + u @ plant.B.T + innov @ est.K.T])
            if k >= 0:
                z.append(x_e @ q_z.T)

    n_xi = cuts[-1] + n_y
    return rows(np.eye(n_xi), 0.0), rows(np.zeros((1, n_xi)), 1.0)[0]


def simulate(
    system: SystemModel,
    attack: AttackMatrices,
    d: np.ndarray,
    cfg: SimulationConfig,
    q_z: np.ndarray,
) -> EmpiricalSummary:
    """Sample cfg.samples independent closed-loop trajectories under the attack.

    Trajectories start from the stationary law at the first simulated step.
    For recording strategies the loop runs nominally over the recording window
    first, stores the tapped sensor values, and substitutes them during the
    attack window. Critical rows cover steps 1..N, residual rows steps 0..N,
    matching the stacked-map row order. The critical map q_z acts on the
    extended state (x, x_hat), 2 n_x columns, as in stack_dynamics.

    The rows are affine in the loop's n_xi standard-normal inputs xi, [z r] =
    xi [M_z M_r] + [mu_z mu_r], and _affine_map runs the literal loop once
    per call for M and once for mu. Both rows' laws are returned exactly:
    z's mean mu_z and covariance R'R, and r's mean mu_r and covariance
    M_r' M_r, where R = np.linalg.qr(M_z, mode="r") has k_z = min(n_xi,
    len(mu_z)) rows. Only z is sampled, as eta R + mu_z with eta standard
    normal in k_z dimensions: xi Q is standard normal for M_z = QR, so this
    is the loop's law of z exactly.

    The draws are part of the contract: the samples are cut into blocks of
    _BLOCK (the last may be shorter), and block j of m samples draws one
    (k_z, m) array eta from SFC64 seeded by SeedSequence(cfg.seed,
    spawn_key=(cfg.stream, j)), so calls on different streams draw
    independently at one seed. The caller takes the even blocks and one
    helper thread the odd ones. Each thread samples a block's z into its own
    buffers, reduces it to the block's statistics (z's exceedance counts and
    the moments of its norms) and merges them in block order; the even total
    takes the odd one last. That order is fixed, so thread timing changes no
    value, and no array grows with cfg.samples. The helper is joined before
    simulate returns or raises. An exception in a block on either thread
    reaches the caller, and neither thread starts another block.
    """
    # imported here: concurrent.futures pulls in logging, which no other path needs
    from concurrent.futures import ThreadPoolExecutor

    N, n_s = int(cfg.horizon), cfg.samples
    n_blocks = -(-n_s // _BLOCK)
    numcore.require_addressable((n_blocks,), f"{n_s} samples")
    m_map, mu = _affine_map(system, attack, d, q_z, N)
    n_z = N * q_z.shape[0]
    m_z, m_r = m_map[:, :n_z], m_map[:, n_z:]
    root = np.linalg.qr(m_z, mode="r")
    k_z, root_z, mu_z = len(root), root.T.copy(), mu[:n_z, None]  # z = root_z eta + mu_z, feature-major
    failed = threading.Event()  # set when a block raises: neither thread starts another
    # each thread's eta and z buffers, made before either thread runs, so the peak is the same whatever the timing
    rows = min(n_s, _BLOCK)
    buffers = [(np.empty(k_z * rows), np.empty(n_z * rows)) for _ in range(2)]

    def run_blocks(first: int) -> Optional[_BlockStats]:
        """Blocks first, first + 2, ..., each sampled into this thread's buffers and merged in order."""
        (eta_buf, z_buf), total = buffers[first], None
        try:
            for j in range(first, n_blocks, 2):
                if failed.is_set():
                    break
                m = min(n_s, (j + 1) * _BLOCK) - j * _BLOCK
                eta, z = eta_buf[: k_z * m].reshape(k_z, m), z_buf[: n_z * m].reshape(n_z, m)
                _block_rng(cfg.seed, cfg.stream, j).standard_normal(out=eta)
                np.matmul(root_z, eta, out=z)
                z += mu_z
                stats = _BlockStats.of(z)
                total = stats if total is None else total.merge(stats)
        except BaseException:
            failed.set()
            raise
        return total

    with ThreadPoolExecutor(max_workers=1) as pool:
        helper = pool.submit(run_blocks, 1)
        even = run_blocks(0)
    odd = helper.result()
    total = even if odd is None else even.merge(odd)
    return total.summary(mu[:n_z], root.T @ root, mu[n_z:], m_r.T @ m_r)


def kl_verdict(
    sim: EmpiricalSummary, t_r: np.ndarray, d: np.ndarray, radius: float, epsilon: float, N: int
) -> KlCheckResult:
    """Compare the analytic budget verdict at d with the loop's exact KL rate.

    The analytic side evaluates the quadratic form |t_r d|^2 against the
    stealthiness radius of the configuration's Gaussian summary. The loop's
    side plugs sim's residual mean m and covariance S, the literal loop's
    exact law, into the closed-form divergence from the nominal N(0, I),
    (tr S + m'm - n - ln det S) / 2, per step of the window [0, N], with tr S
    and ln det S from numcore.cholesky_audit, which applies to S's Cholesky
    pivots the definiteness rule every audit uses; an S that fails it raises
    NotPositiveDefinite. Both sides pass at the analytic side's tolerance,
    the solver's CERT_TOL max(1, |radius|) on the quadratic form, which is
    that over 2(N+1) on the rate.
    """
    quad = float(np.square(t_r @ np.asarray(d, dtype=float)).sum())
    tol = CERT_TOL * max(1.0, abs(radius))
    analytic_ok = quad <= radius + tol
    pd, trace, logdet = numcore.cholesky_audit(sim.r_cov)
    if not pd:
        raise numcore.NotPositiveDefinite("the loop's residual covariance is not positive definite")
    rate = 0.5 * (trace + float(sim.r_mean @ sim.r_mean) - sim.r_mean.shape[0] - logdet) / (N + 1)
    rate_ok = rate <= epsilon + tol / (2 * (N + 1))
    return KlCheckResult(
        quad_value=quad,
        radius=radius,
        analytic_ok=analytic_ok,
        rate=float(rate),
        epsilon=epsilon,
        rate_ok=rate_ok,
        consistent=rate_ok == analytic_ok,
    )
