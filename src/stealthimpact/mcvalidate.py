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

from .attacks import AttackMatrices, decision_layout
from .distrib import gaussian_summary, kl_divergence_gaussian, normalize_critical_map
from .sysmodel import SystemModel


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

    Every signal is stored feature-major, shape (dim, cfg.samples). The Philox
    draws are part of the contract: one (samples, 2 n_x) block for the initial
    state, then per step a (samples, n_y) block for the sensor noise w and,
    except at step N, a (samples, n_x) block for the process noise v, so a seed
    gives the same trajectories, up to rounding, whatever the storage layout.
    """
    if cfg.horizon is None:
        raise ValueError("cfg.horizon must be set for simulation")
    N = int(cfg.horizon)
    plant, ctrl, est = system.plant, system.controller, system.estimator
    n_x, n_y = plant.n_x, plant.n_y
    a_seq, y_r = decision_layout(attack, N, ctrl.Q_yr).split(d)
    n_au = attack.n_au

    chol_v = np.linalg.cholesky(plant.sigma_v)
    chol_w = np.linalg.cholesky(plant.sigma_w)
    q_ze = normalize_critical_map(np.eye(n_x) if q_z is None else q_z, n_x)
    n_z = q_ze.shape[0]
    n_s = cfg.samples
    lam_y, gam_y = attack.lambda_y, attack.gamma_y
    lam_u, gam_u = attack.lambda_u, attack.gamma_u

    rng = np.random.Generator(np.random.Philox(cfg.seed))
    x_e = (system.t_0 @ y_r)[:, None] + system.sqrt_sigma_0 @ rng.standard_normal((n_s, 2 * n_x)).T
    x_next = np.empty_like(x_e)
    z = np.empty((N * n_z, n_s))
    r = np.empty(((N + 1) * n_y, n_s))
    recorded: dict[int, np.ndarray] = {}

    for k in range(attack.start_step, N + 1):
        x, x_hat = x_e[:n_x], x_e[n_x:]
        y = plant.C @ x + chol_w @ rng.standard_normal((n_s, n_y)).T
        u = (ctrl.L_yr @ y_r)[:, None] - ctrl.L_xhat @ x_hat
        if k < 0:  # recording window: the loop runs nominally
            recorded[k] = gam_y.T @ y
            y_tilde, u_tilde = y, u
        else:
            y_tilde = lam_y @ y + (gam_y @ a_seq[k, n_au:])[:, None]
            if attack.has_recording:
                y_tilde += gam_y @ recorded.pop(k - (N + 1))
            u_tilde = lam_u @ u + (gam_u @ a_seq[k, :n_au])[:, None]
        innov = y_tilde - plant.C @ x_hat
        if k >= 0:
            np.matmul(est.sigma_r_invsqrt, innov, out=r[k * n_y : (k + 1) * n_y])
        if k == N:
            break
        x_new, x_hat_new = x_next[:n_x], x_next[n_x:]
        np.matmul(plant.A, x, out=x_new)
        x_new += plant.B @ u_tilde
        x_new += chol_v @ rng.standard_normal((n_s, n_x)).T
        np.matmul(plant.A, x_hat, out=x_hat_new)
        x_hat_new += plant.B @ u
        x_hat_new += est.K @ innov
        x_e, x_next = x_next, x_e
        if k >= 0:
            np.matmul(q_ze, x_e, out=z[k * n_z : (k + 1) * n_z])

    return _summarize_samples(z, r)


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


def empirical_kl_check(
    system: SystemModel,
    attack: AttackMatrices,
    d: np.ndarray,
    epsilon: float,
    cfg: SimulationConfig,
) -> KlCheckResult:
    """Compare the analytic budget verdict with the empirical KL rate.

    The analytic side evaluates the quadratic form against the reduced radius
    of the configuration's Gaussian summary. The empirical side plugs the
    sample residual mean and covariance into the closed-form Gaussian
    divergence. Within the Monte Carlo slack band around epsilon, the
    empirical verdict defers to the analytic one.
    """
    sim = simulate(system, attack, d, cfg)  # raises unless cfg.horizon is set
    N = int(cfg.horizon)
    layout = decision_layout(attack, N, system.controller.Q_yr)
    summary = gaussian_summary(system, attack, layout, np.eye(system.plant.n_x), N, epsilon)
    return kl_verdict(sim, summary.t_r, d, summary.eps_prime, epsilon, N)


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
