"""Monte Carlo oracle for the analytic machinery.

Simulates the literal closed loop (plant, estimator, feedback, attack
channels, and for replay the record-then-substitute protocol) with fresh
Gaussian noise, so empirical means, covariances, exceedance frequencies, and
KL budgets can be compared against the stacked-map predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore
from .attacks import AttackMatrices
from .distrib import (
    epsilon_prime,
    kl_divergence_gaussian,
    normalize_critical_map,
    stack_dynamics,
    stationary_law,
)
from .sysmodel import DimensionMismatch, SystemModel, assemble_extended


@dataclass
class SimulationConfig:
    samples: int = 100_000
    seed: int = 0
    horizon: Optional[int] = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


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

    def __bool__(self) -> bool:
        return self.consistent


def _split_decision(d: np.ndarray, attack: AttackMatrices, N: int, n_yr: int):
    d = np.asarray(d, dtype=float).ravel()
    n_a = attack.n_a
    want = (N + 1) * n_a + n_yr
    if d.shape[0] != want:
        raise DimensionMismatch(f"decision vector has length {d.shape[0]}, expected {want}")
    a_seq = d[: (N + 1) * n_a].reshape(N + 1, n_a) if n_a else np.zeros((N + 1, 0))
    y_r = d[(N + 1) * n_a :]
    return a_seq, y_r


def simulate(
    system: SystemModel,
    attack: AttackMatrices,
    d: np.ndarray,
    cfg: SimulationConfig,
    q_z: Optional[np.ndarray] = None,
) -> EmpiricalSummary:
    """Run cfg.samples independent closed-loop trajectories under the attack.

    Trajectories start from the stationary law at the first simulated step.
    For recording strategies the loop runs nominally over the recording window
    first, stores the tapped sensor values, and substitutes them during the
    attack window. Critical rows cover steps 1..N, residual rows steps 0..N,
    matching the stacked-map row order. The critical map defaults to the
    identity on the plant states.
    """
    if cfg.horizon is None:
        raise ValueError("cfg.horizon must be set for simulation")
    N = int(cfg.horizon)
    plant, ctrl, est = system.plant, system.controller, system.estimator
    n_x, n_y = plant.n_x, plant.n_y
    n_yr = ctrl.L_yr.shape[1]
    a_seq, y_r = _split_decision(d, attack, N, n_yr)
    n_au = attack.n_au

    t_0, sigma_0 = stationary_law(system.nominal)
    sqrt_0 = numcore.sym_sqrt(sigma_0)
    chol_v = np.linalg.cholesky(plant.sigma_v)
    chol_w = np.linalg.cholesky(plant.sigma_w)
    if q_z is None:
        q_z = np.eye(n_x)
    q_ze = normalize_critical_map(q_z, n_x)
    n_s = cfg.samples
    start = attack.start_step

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x_e = t_0 @ y_r + rng.standard_normal((n_s, 2 * n_x)) @ sqrt_0.T

    z_rows: list[np.ndarray] = []
    r_rows: list[np.ndarray] = []
    recorded: dict[int, np.ndarray] = {}
    lam_y, gam_y = attack.lambda_y, attack.gamma_y
    lam_u, gam_u = attack.lambda_u, attack.gamma_u
    s_r_inv = est.sigma_r_invsqrt

    for k in range(start, N + 1):
        x = x_e[:, :n_x]
        x_hat = x_e[:, n_x:]
        w = rng.standard_normal((n_s, n_y)) @ chol_w.T
        y = x @ plant.C.T + w
        u = -x_hat @ ctrl.L_xhat.T + (ctrl.L_yr @ y_r)
        if k < 0:
            if attack.has_recording:
                recorded[k] = y @ attack.c_rec.T
            y_tilde = y
            u_tilde = u
        else:
            a_u = a_seq[k, :n_au]
            a_y = a_seq[k, n_au:]
            y_tilde = y @ lam_y.T + gam_y @ a_y
            if attack.has_recording:
                y_tilde = y_tilde + recorded[k - (N + 1)] @ gam_y.T
            u_tilde = u @ lam_u.T + gam_u @ a_u
        innov = y_tilde - x_hat @ plant.C.T
        if k >= 0:
            r_rows.append(innov @ s_r_inv.T)
        if k == N:
            break
        v = rng.standard_normal((n_s, n_x)) @ chol_v.T
        x_next = x @ plant.A.T + u_tilde @ plant.B.T + v
        x_hat_next = x_hat @ plant.A.T + u @ plant.B.T + innov @ est.K.T
        x_e = np.hstack([x_next, x_hat_next])
        if k >= 0:
            z_rows.append(x_e @ q_ze.T)

    z_full = np.hstack(z_rows) if z_rows else np.zeros((n_s, 0))
    r_full = np.hstack(r_rows)
    return _summarize_samples(z_full, r_full)


def _summarize_samples(z: np.ndarray, r: np.ndarray) -> EmpiricalSummary:
    n_s = z.shape[0]
    z_mean = z.mean(axis=0)
    r_mean = r.mean(axis=0)
    z_cov = np.atleast_2d(np.cov(z.T, ddof=1)) if z.shape[1] else np.zeros((0, 0))
    r_cov = np.atleast_2d(np.cov(r.T, ddof=1))
    z_mean_se = z.std(axis=0, ddof=1) / math.sqrt(n_s)
    r_mean_se = r.std(axis=0, ddof=1) / math.sqrt(n_s)
    exceed = (np.abs(z) > 1.0).mean(axis=0)
    exceed_se = np.sqrt(np.clip(exceed * (1.0 - exceed), 0.0, None) / n_s)
    if z.shape[1]:
        inf_norms = np.abs(z).max(axis=1)
        e_inf = float(inf_norms.mean())
        e_inf_se = float(inf_norms.std(ddof=1) / math.sqrt(n_s))
    else:
        e_inf, e_inf_se = 0.0, 0.0
    return EmpiricalSummary(
        z_mean=z_mean,
        z_cov=z_cov,
        z_mean_se=z_mean_se,
        exceed_freq=exceed,
        exceed_se=exceed_se,
        r_mean=r_mean,
        r_cov=r_cov,
        r_mean_se=r_mean_se,
        e_inf_norm=e_inf,
        e_inf_norm_se=e_inf_se,
        samples=n_s,
    )


def empirical_kl_check(
    system: SystemModel,
    attack: AttackMatrices,
    d: np.ndarray,
    epsilon: float,
    cfg: SimulationConfig,
) -> KlCheckResult:
    """Compare the analytic budget verdict with the empirical KL rate.

    The analytic side evaluates the quadratic form against the reduced radius.
    The empirical side plugs the sample residual mean and covariance into the
    closed-form Gaussian divergence. Within the Monte Carlo slack band around
    epsilon, the empirical verdict defers to the analytic one.
    """
    if cfg.horizon is None:
        raise ValueError("cfg.horizon must be set")
    N = int(cfg.horizon)
    ext = assemble_extended(system.plant, system.controller, system.estimator, attack)
    maps = stack_dynamics(ext, attack, system.nominal, np.eye(system.plant.n_x), N)
    t_0, sigma_0 = stationary_law(system.nominal)
    W = N - maps.start_step + 1
    big_f = np.kron(np.eye(W), system.nominal.sigma_f)
    t_r = np.hstack([maps.r_a, maps.r_x @ t_0 + maps.r_r])
    sigma_r = maps.r_x @ sigma_0 @ maps.r_x.T + maps.r_f @ big_f @ maps.r_f.T
    sigma_r = 0.5 * (sigma_r + sigma_r.T)

    radius = epsilon_prime(sigma_r, N, system.plant.n_y, epsilon)
    sim = simulate(system, attack, d, cfg)
    return kl_verdict(sim, t_r, d, radius, epsilon, N)


def kl_verdict(
    sim: EmpiricalSummary, t_r: np.ndarray, d: np.ndarray, radius: float, epsilon: float, N: int
) -> KlCheckResult:
    """Analytic and empirical budget verdicts at d; see empirical_kl_check."""
    quad = float(np.square(t_r @ np.asarray(d, dtype=float)).sum())
    analytic_ok = quad <= radius + 1e-9 * max(1.0, abs(radius))
    dim_r = sim.r_mean.shape[0]
    rate = kl_divergence_gaussian(
        sim.r_mean, sim.r_cov, np.zeros(dim_r), np.eye(dim_r)
    ) / (N + 1)
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


def nominal_long_run(
    system: SystemModel,
    y_r: np.ndarray,
    steps: int = 1_000_000,
    burn_in: int = 10_000,
    seed: int = 0,
    batches: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Long-run time average of the nominal loop state with batch-mean errors.

    Returns (mean, standard error) per extended-state coordinate. Batch means
    absorb the serial correlation of the single trajectory.
    """
    plant, ctrl, est = system.plant, system.controller, system.estimator
    n_x, n_y = plant.n_x, plant.n_y
    y_r = np.asarray(y_r, dtype=float).ravel()
    rng = np.random.Generator(np.random.Philox(seed))
    x_e = np.zeros(2 * n_x)
    kept = steps - burn_in
    if kept < batches:
        raise ValueError("steps must exceed burn_in by at least the batch count")
    batch_len = kept // batches
    kept = batch_len * batches
    sums = np.zeros((batches, 2 * n_x))
    feed = ctrl.L_yr @ y_r
    chol_v = np.linalg.cholesky(plant.sigma_v)
    chol_w = np.linalg.cholesky(plant.sigma_w)
    for i in range(burn_in + kept):
        x = x_e[:n_x]
        x_hat = x_e[n_x:]
        y = plant.C @ x + chol_w @ rng.standard_normal(n_y)
        u = -ctrl.L_xhat @ x_hat + feed
        innov = y - plant.C @ x_hat
        v = chol_v @ rng.standard_normal(n_x)
        x_new = plant.A @ x + plant.B @ u + v
        x_hat_new = plant.A @ x_hat + plant.B @ u + est.K @ innov
        x_e = np.concatenate([x_new, x_hat_new])
        j = i - burn_in
        if j >= 0:
            sums[j // batch_len] += x_e
    means = sums / batch_len
    overall = means.mean(axis=0)
    se = means.std(axis=0, ddof=1) / math.sqrt(batches)
    return overall, se
