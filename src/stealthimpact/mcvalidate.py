"""Monte Carlo oracle for the analytic machinery.

Simulates the literal closed loop (plant, estimator, feedback, attack
channels, and for replay the record-then-substitute protocol) with fresh
Gaussian noise, so empirical means, covariances, exceedance frequencies, and
KL budgets can be compared against the stacked-map predictions.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import numcore
from .attacks import AttackMatrices, decision_layout
from .distrib import _residual_audit
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

    Every signal is stored feature-major, shape (dim, cfg.samples). The Philox
    draws are part of the contract: one (samples, 2 n_x) block for the initial
    state, then per step a (samples, n_y) block for the sensor noise w and,
    except at step N, a (samples, n_x) block for the process noise v, so a seed
    gives the same trajectories, up to rounding, whatever the storage layout.
    One helper thread draws the per-step blocks one step ahead of the loop
    (see _prefetched_noise) and is joined before simulate returns or raises;
    an exception on that thread reaches the caller. The stream, and so every
    value, is the same as with in-line draws, and the loop writes into arrays
    allocated once, with the same operands in the same order.
    """
    return _summarize_samples(*_trajectories(system, attack, d, cfg, q_z))


def _trajectories(
    system: SystemModel,
    attack: AttackMatrices,
    d: np.ndarray,
    cfg: SimulationConfig,
    q_z: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Critical rows z and residual rows r of simulate's trajectories.

    A function of its own so that the loop's work arrays, the recording
    among them, are freed before the statistics are taken.
    """
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

    numcore.require_addressable((n_s, 2 * n_x), f"{n_s} samples")
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x_e = (system.t_0 @ y_r)[:, None] + system.sqrt_sigma_0 @ rng.standard_normal((n_s, 2 * n_x)).T
    x_next = np.empty_like(x_e)
    z = np.empty((N * n_z, n_s))
    r = np.empty(((N + 1) * n_y, n_s))
    # recorded[k] holds the tap of recording step k < 0, read back at step k + N + 1
    recorded = np.empty((-attack.start_step, attack.n_ay, n_s))
    # innov is scratch until the step's innovation is formed; y is dead from
    # then on, so its rows double as the scratch of the state update
    work = np.empty((max(n_x, n_y), n_s))
    y, tmp_x = work[:n_y], work[:n_x]
    innov, u, u_tilde = np.empty((n_y, n_s)), np.empty((n_u, n_s)), np.empty((n_u, n_s))

    steps = range(attack.start_step, N + 1)
    with closing(_prefetched_noise(rng, n_s, n_y, n_x, len(steps))) as noise:
        for k, (w, v) in zip(steps, noise):
            x, x_hat = x_e[:n_x], x_e[n_x:]
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
    return z, r


def _prefetched_noise(
    rng: np.random.Generator, n_s: int, n_y: int, n_x: int, steps: int
) -> Iterator[tuple[np.ndarray, Optional[np.ndarray]]]:
    """Per-step noise blocks (w, v), drawn one step ahead on a helper thread.

    Yields `steps` pairs in the simulator's draw order: w of shape (n_s, n_y),
    then v of shape (n_s, n_x), which is None at the last step. The blocks
    live in a ring of two preallocated slots, so a pair is valid only until
    the next one is taken. numpy releases the interpreter lock while it fills
    an array, so the draws for step k + 1 overlap the loop's arithmetic at
    step k. The thread allocates no array. It is joined when the generator
    finishes or is closed, and an exception it raises reaches the consumer
    when that block is taken.
    """
    # imported here: concurrent.futures pulls in logging, which no other path needs
    from concurrent.futures import ThreadPoolExecutor

    ring = [(np.empty((n_s, n_y)), np.empty((n_s, n_x))) for _ in range(2)]

    def draw(i: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
        w, v = ring[i % 2]
        rng.standard_normal(out=w)
        if i == steps - 1:
            return w, None
        rng.standard_normal(out=v)
        return w, v

    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, 0)
        for i in range(1, steps + 1):
            block = pending.result()
            if i < steps:  # the slot it fills held block i - 2, which the loop is done with
                pending = pool.submit(draw, i)
            yield block


def _summarize_samples(z: np.ndarray, r: np.ndarray) -> EmpiricalSummary:
    """Statistics of feature-major samples; centres z and r in place."""
    n_s = r.shape[1]
    exceed = np.count_nonzero(np.abs(z) > 1.0, axis=1) / n_s
    inf_norms = np.abs(z).max(axis=0, initial=0.0)  # zeros when z has no rows
    z_mean, z_cov = _centred_moments(z)
    r_mean, r_cov = _centred_moments(r)
    return EmpiricalSummary(
        z_mean=z_mean,
        z_cov=z_cov,
        z_mean_se=np.sqrt(np.diag(z_cov) / n_s),
        exceed_freq=exceed,
        exceed_se=np.sqrt(np.clip(exceed * (1.0 - exceed), 0.0, None) / n_s),
        r_mean=r_mean,
        r_cov=r_cov,
        r_mean_se=np.sqrt(np.diag(r_cov) / n_s),
        e_inf_norm=float(inf_norms.mean()),
        e_inf_norm_se=float(inf_norms.std(ddof=1) / math.sqrt(n_s)),
        samples=n_s,
    )


def _centred_moments(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means and sample covariance (ddof=1) of s, which is centred in place."""
    mean = s.mean(axis=1)
    s -= mean[:, None]
    return mean, s @ s.T / (s.shape[1] - 1)


def kl_verdict(
    sim: EmpiricalSummary, t_r: np.ndarray, d: np.ndarray, radius: float, epsilon: float, N: int
) -> KlCheckResult:
    """Compare the analytic budget verdict at d with the empirical KL rate.

    The analytic side evaluates the quadratic form |t_r d|^2 against the
    stealthiness radius of the configuration's Gaussian summary. The empirical
    side plugs the sample residual mean m and covariance S of sim into the
    closed-form divergence from the nominal N(0, I),
    (tr S + m'm - n - ln det S) / 2, per step of the window [0, N], with tr S
    and ln det S from the same audit that gives the radius. Within the Monte
    Carlo slack band around epsilon, the empirical verdict defers to the
    analytic one.
    """
    quad = float(np.square(t_r @ np.asarray(d, dtype=float)).sum())
    analytic_ok = quad <= radius + 1e-9 * max(1.0, abs(radius))
    dim_r = sim.r_mean.shape[0]
    pd, trace, logdet = _residual_audit(sim.r_cov)
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
