"""Monte Carlo oracle for the analytic machinery.

Simulates the literal closed loop (plant, estimator, feedback, attack
channels, and for replay the record-then-substitute protocol) with fresh
Gaussian noise, so empirical means, covariances, exceedance frequencies, and
KL budgets can be compared against the stacked-map predictions. The samples
run in blocks, each on its own SFC64 stream, on the calling thread and one
helper. Each block is reduced to its statistics on the thread that ran it,
and the blocks' statistics are merged in block order, so a seed fixes every
value, whichever thread ran a block.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore
from .attacks import AttackMatrices, decision_layout
from .sysmodel import SystemModel


@dataclass
class SimulationConfig:
    samples: int
    seed: int
    horizon: int

    def __post_init__(self) -> None:
        if self.samples < 2:  # the sample statistics use ddof=1
            raise ValueError("samples must be at least 2")


@dataclass
class EmpiricalSummary:
    """Sample statistics of the critical and residual trajectories."""

    z_mean: np.ndarray
    z_cov: np.ndarray
    z_mean_se: np.ndarray
    exceed_freq: np.ndarray
    exceed_se: np.ndarray
    r_mean: np.ndarray
    r_cov: np.ndarray
    r_mean_se: np.ndarray
    e_inf_norm: float
    e_inf_norm_se: float
    samples: int


@dataclass
class KlCheckResult:
    """Agreement between the analytic budget test and the empirical KL rate."""

    quad_value: float
    radius: float
    analytic_ok: bool
    empirical_rate: float
    epsilon: float
    slack: float
    empirical_ok: bool
    consistent: bool


def min_samples(system: SystemModel, horizon: int) -> int:
    """Fewest samples for which kl_verdict's residual covariance can be nonsingular.

    The residual rows stack (N+1) n_y dimensions, and a sample covariance of
    that dimension has full rank only from (N+1) n_y + 1 samples on.
    """
    return (horizon + 1) * system.plant.n_y + 1


# Samples per block: part of the draw contract, so a constant, not a setting.
# Of 4,096, 8,192 and 16,384, 8,192 ran the bundled --mc-validate grid fastest.
_BLOCK = 8192


def _block_rng(seed: int, j: int) -> np.random.Generator:
    """The generator of sample block j: SFC64 on child j of SeedSequence(seed)."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(j,))))


@dataclass(frozen=True)
class _Moments:
    """Count, row means and centred cross-product of feature-major samples."""

    n: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray) -> "_Moments":
        """The moments of s, shape (dim, n), which is centred in place."""
        mean = s.mean(axis=1)
        s -= mean[:, None]
        return cls(s.shape[1], mean, s @ s.T)

    def merge(self, other: "_Moments") -> "_Moments":
        """The moments of both sample sets, by the pairwise update of Chan, Golub and LeVeque (1983)."""
        n = self.n + other.n
        delta = other.mean - self.mean
        return _Moments(
            n,
            self.mean + delta * (other.n / n),
            self.m2 + other.m2 + np.outer(delta, delta) * (self.n * other.n / n),
        )


@dataclass(frozen=True)
class _BlockStats:
    """Exceedance counts per critical row, and the moments of z, r and the per-sample ‖z‖∞."""

    exceed: np.ndarray
    z: _Moments
    r: _Moments
    inf_norm: _Moments

    @classmethod
    def of(cls, z: np.ndarray, r: np.ndarray, abs_z: np.ndarray) -> "_BlockStats":
        """Statistics of one block's feature-major z and r, which are centred in place; abs_z is scratch."""
        np.abs(z, out=abs_z)
        inf_norm = abs_z.max(axis=0, initial=0.0)  # zeros when z has no rows
        return cls(np.count_nonzero(abs_z > 1.0, axis=1), _Moments.of(z), _Moments.of(r),
                   _Moments.of(inf_norm[None]))

    def merge(self, other: "_BlockStats") -> "_BlockStats":
        """The statistics of both sample sets."""
        return _BlockStats(self.exceed + other.exceed, self.z.merge(other.z), self.r.merge(other.r),
                           self.inf_norm.merge(other.inf_norm))

    def summary(self) -> EmpiricalSummary:
        """The sample means, covariances (ddof=1), frequencies and standard errors."""
        n = self.z.n
        exceed = self.exceed / n
        z_cov, r_cov = self.z.m2 / (n - 1), self.r.m2 / (n - 1)
        return EmpiricalSummary(
            z_mean=self.z.mean,
            z_cov=z_cov,
            z_mean_se=np.sqrt(np.diag(z_cov) / n),
            exceed_freq=exceed,
            exceed_se=np.sqrt(np.clip(exceed * (1.0 - exceed), 0.0, None) / n),
            r_mean=self.r.mean,
            r_cov=r_cov,
            r_mean_se=np.sqrt(np.diag(r_cov) / n),
            e_inf_norm=float(self.inf_norm.mean[0]),
            e_inf_norm_se=math.sqrt(float(self.inf_norm.m2[0, 0]) / (n - 1)) / math.sqrt(n),
            samples=n,
        )


def simulate(
    system: SystemModel,
    attack: AttackMatrices,
    d: np.ndarray,
    cfg: SimulationConfig,
    q_z: np.ndarray,
) -> EmpiricalSummary:
    """Run cfg.samples independent closed-loop trajectories under the attack.

    Trajectories start from the stationary law at the first simulated step.
    For recording strategies the loop runs nominally over the recording window
    first, stores the tapped sensor values, and substitutes them during the
    attack window. Critical rows cover steps 1..N, residual rows steps 0..N,
    matching the stacked-map row order. The critical map q_z acts on the
    extended state (x, x_hat), 2 n_x columns, as in stack_dynamics.

    The draws are part of the contract: the samples are cut into blocks of
    _BLOCK (the last may be shorter), and block j of m samples draws from
    SFC64 seeded by child j of SeedSequence(seed), that is
    SeedSequence(seed, spawn_key=(j,)), an (m, 2 n_x) initial state, then per
    step an (m, n_y) sensor noise w and, except at step N, an (m, n_x)
    process noise v. So a seed gives the same trajectories, up to
    rounding, whatever the storage layout. The caller and one helper thread
    take blocks from a shared range iterator. Each thread stores a block's
    signals feature-major, shape (dim, m), in its own buffers and reduces
    them to the block's statistics, which are merged in block order; so
    which thread ran a block changes no value, and no array grows with
    cfg.samples. The helper is joined before simulate returns or raises. An
    exception in a block on either thread reaches the caller, and the other
    thread then takes no new block.
    """
    # imported here: concurrent.futures pulls in logging, which no other path needs
    from concurrent.futures import ThreadPoolExecutor

    N = int(cfg.horizon)
    plant, ctrl, est = system.plant, system.controller, system.estimator
    n_x, n_y, n_u = plant.n_x, plant.n_y, plant.n_u
    a_seq, y_r = decision_layout(attack, N, ctrl.Q_yr).split(d)
    n_au = attack.n_au

    chol_v = np.linalg.cholesky(plant.sigma_v)
    chol_w = np.linalg.cholesky(plant.sigma_w)
    n_z = q_z.shape[0]
    n_s = cfg.samples
    lam_y, gam_y = attack.lambda_y, attack.gamma_y
    lam_u, gam_u = attack.lambda_u, attack.gamma_u
    u_ref = (ctrl.L_yr @ y_r)[:, None]

    n_blocks = -(-n_s // _BLOCK)
    numcore.require_addressable((n_blocks,), f"{n_s} samples")
    pending = iter(range(n_blocks))  # one int of state, whatever n_blocks
    lock = threading.Lock()
    done: dict[int, _BlockStats] = {}  # blocks finished ahead of one still running
    merged, total = 0, None  # blocks 0..merged-1 are merged into total

    def take() -> Optional[int]:
        with lock:
            return next(pending, None)

    def finish(j: int, stats: _BlockStats) -> None:
        nonlocal merged, total
        with lock:
            done[j] = stats
            while merged in done:
                stats = done.pop(merged)
                total = stats if total is None else total.merge(stats)
                merged += 1

    # a block's x_e, x_next, y (its rows double as the state update's scratch), innov
    # (scratch until the step's innovation is formed), u, u_tilde, recording (recorded[k]
    # holds the tap of recording step k < 0, read back at step k + N + 1), draws, z, |z| and r
    def shapes(m: int) -> tuple[tuple[int, ...], ...]:
        return ((2 * n_x, m), (2 * n_x, m), (max(n_x, n_y), m), (n_y, m), (n_u, m), (n_u, m),
                (-attack.start_step, attack.n_ay, m), (m, 2 * n_x), (m, n_y), (m, n_x),
                (N * n_z, m), (N * n_z, m), ((N + 1) * n_y, m))

    def run_blocks() -> None:
        nonlocal pending
        bufs = [np.empty(math.prod(s)) for s in shapes(min(n_s, _BLOCK))]
        try:
            for j in iter(take, None):
                m = min(n_s, (j + 1) * _BLOCK) - j * _BLOCK
                x_e, x_next, work, innov, u, u_tilde, recorded, x_0, w, v, z, abs_z, r = (
                    b[: math.prod(s)].reshape(s) for b, s in zip(bufs, shapes(m))
                )
                y, tmp_x = work[:n_y], work[:n_x]
                rng = _block_rng(cfg.seed, j)
                rng.standard_normal(out=x_0)
                np.matmul(system.sqrt_sigma_0, x_0.T, out=x_e)
                x_e += (system.t_0 @ y_r)[:, None]
                for k in range(attack.start_step, N + 1):
                    x, x_hat = x_e[:n_x], x_e[n_x:]
                    rng.standard_normal(out=w)
                    np.matmul(plant.C, x, out=y)
                    y += np.matmul(chol_w, w.T, out=innov)
                    np.matmul(ctrl.L_xhat, x_hat, out=u)
                    np.subtract(u_ref, u, out=u)
                    if k < 0:  # recording window: the loop runs nominally
                        np.matmul(gam_y.T, y, out=recorded[k])
                        np.copyto(innov, y)
                        u_att = u
                    else:  # innov holds the attacked measurement until C x_hat is subtracted
                        np.matmul(lam_y, y, out=innov)
                        innov += (gam_y @ a_seq[k, n_au:])[:, None]
                        if attack.has_recording:
                            innov += np.matmul(gam_y, recorded[k - (N + 1)], out=y)
                        u_att = u_tilde
                        np.matmul(lam_u, u, out=u_att)
                        u_att += (gam_u @ a_seq[k, :n_au])[:, None]
                    innov -= np.matmul(plant.C, x_hat, out=y)
                    if k >= 0:
                        np.matmul(est.sigma_r_invsqrt, innov, out=r[k * n_y : (k + 1) * n_y])
                    if k == N:
                        break
                    rng.standard_normal(out=v)
                    x_new, x_hat_new = x_next[:n_x], x_next[n_x:]
                    np.matmul(plant.A, x, out=x_new)
                    x_new += np.matmul(plant.B, u_att, out=tmp_x)
                    x_new += np.matmul(chol_v, v.T, out=tmp_x)
                    np.matmul(plant.A, x_hat, out=x_hat_new)
                    x_hat_new += np.matmul(plant.B, u, out=tmp_x)
                    x_hat_new += np.matmul(est.K, innov, out=tmp_x)
                    x_e, x_next = x_next, x_e
                    if k >= 0:
                        np.matmul(q_z, x_e, out=z[k * n_z : (k + 1) * n_z])
                finish(j, _BlockStats.of(z, r, abs_z))
        finally:  # after a failure the other thread takes no new block; after success none is left
            with lock:
                pending = iter(())

    with ThreadPoolExecutor(max_workers=1) as pool:
        helper = pool.submit(run_blocks)
        run_blocks()
    helper.result()
    return total.summary()


def kl_verdict(
    sim: EmpiricalSummary, t_r: np.ndarray, d: np.ndarray, radius: float, epsilon: float, N: int
) -> KlCheckResult:
    """Compare the analytic budget verdict at d with the empirical KL rate.

    The analytic side evaluates the quadratic form |t_r d|^2 against the
    stealthiness radius of the configuration's Gaussian summary. The empirical
    side plugs the sample residual mean m and covariance S of sim into the
    closed-form divergence from the nominal N(0, I),
    (tr S + m'm - n - ln det S) / 2, per step of the window [0, N], with tr S
    and ln det S from numcore.cholesky_audit, which applies to S's Cholesky
    pivots the definiteness rule every audit uses; an S that fails it raises
    NotPositiveDefinite. Within the Monte Carlo slack band around epsilon,
    the empirical verdict defers to the analytic one.
    """
    quad = float(np.square(t_r @ np.asarray(d, dtype=float)).sum())
    analytic_ok = quad <= radius + 1e-9 * max(1.0, abs(radius))
    dim_r = sim.r_mean.shape[0]
    pd, trace, logdet = numcore.cholesky_audit(sim.r_cov)
    if not pd:
        raise numcore.NotPositiveDefinite("sample residual covariance not positive definite")
    rate = 0.5 * (trace + float(sim.r_mean @ sim.r_mean) - dim_r - logdet) / (N + 1)
    slack = 4.0 * math.sqrt(2.0 * dim_r / sim.samples) * (1.0 + quad) / (N + 1)
    if rate > epsilon + slack:
        empirical_ok = False
    elif rate < epsilon - slack:
        empirical_ok = True
    else:
        empirical_ok = analytic_ok
    return KlCheckResult(
        quad_value=quad,
        radius=radius,
        analytic_ok=analytic_ok,
        empirical_rate=float(rate),
        epsilon=epsilon,
        slack=slack,
        empirical_ok=empirical_ok,
        consistent=empirical_ok == analytic_ok,
    )
