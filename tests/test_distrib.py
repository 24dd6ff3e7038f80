import dataclasses
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg

from stealthimpact import attacks, cli, distrib, mcvalidate, numcore, solver
from stealthimpact.scenario import load_scenario
from stealthimpact.sysmodel import ControllerModel, DimensionMismatch, PlantModel, SystemModel, assemble_extended
from conftest import random_system
from oracles import (
    factor_logdet,
    innovation_recursion,
    kl_quadrature_diag,
    lyapunov_series,
    reference_laws,
    reference_stack_dynamics,
    stacked_covariances,
    stacked_factors,
    whitened_rollout,
)
from scenario_family import scenario_doc


# the bundled critical row, on the extended state (x, x_hat)
Q_Z = np.array([[0.0, 0.0, 1.0 / 3.0, 0.0, 0.0, 0.0]])


def _build(system, kind, N, sensors=(), actuators=(), replay_mode="dos"):
    """Attack and extended system of a short kind name; replay takes replay_mode."""
    kind = {"sign": "sign_alternation", "bias": "bias_injection", "replay": f"replay_{replay_mode}"}.get(kind, kind)
    res = attacks.ResourceSet(sensors=sensors, actuators=actuators)
    atk = attacks.build_attack(kind, res, system.dims, N)
    ext = assemble_extended(system.plant, system.controller, system.estimator, [atk])[0]
    return atk, ext


def test_stationary_law_zero_dynamics():
    # with A_cl = 0 the loop settles in one step: T_0 = E_r, Sigma_0 = B Sf B'
    nom = SimpleNamespace(
        A_cl=np.zeros((2, 2)),
        B_f=np.eye(2),
        E_r=np.array([[1.0], [2.0]]),
    )
    t_0, sigma_0 = distrib.stationary_law(nom, 0.3 * np.eye(2))
    assert np.allclose(t_0, nom.E_r)
    assert np.allclose(sigma_0, 0.3 * np.eye(2))


def test_stationary_law_scalar_geometric():
    # x+ = 0.5 x + y_r accumulates to 2 y_r
    nom = SimpleNamespace(
        A_cl=np.array([[0.5]]),
        B_f=np.array([[1.0]]),
        E_r=np.array([[1.0]]),
    )
    t_0, sigma_0 = distrib.stationary_law(nom, np.array([[1.0]]))
    assert t_0[0, 0] == pytest.approx(2.0, abs=1e-12)
    # variance of sum 0.5^k w: 1 / (1 - 0.25)
    assert sigma_0[0, 0] == pytest.approx(1.0 / 0.75, abs=1e-12)


def test_stationary_law_rejects_unstable():
    nom = SimpleNamespace(
        A_cl=np.array([[1.0]]),
        B_f=np.array([[1.0]]),
        E_r=np.array([[1.0]]),
    )
    with pytest.raises(numcore.UnstableMatrix, match="nominal loop unstable: spectral radius"):
        distrib.stationary_law(nom, np.array([[1.0]]))


def test_stationary_law_matches_series(system):
    t_0, sigma_0 = distrib.stationary_law(system.nominal, system.sigma_f)
    # the system keeps the same law, computed once when it is built
    assert np.array_equal(system.t_0, t_0) and np.array_equal(system.sigma_0, sigma_0)
    assert np.allclose(system.sqrt_sigma_0 @ system.sqrt_sigma_0, sigma_0, rtol=1e-12, atol=1e-14)
    Q = system.nominal.B_f @ system.sigma_f @ system.nominal.B_f.T
    assert np.allclose(sigma_0, lyapunov_series(system.nominal.A_cl, Q), rtol=1e-9, atol=1e-11)
    # fixed point of the mean recursion
    assert np.allclose(
        t_0, system.nominal.A_cl @ t_0 + system.nominal.E_r, atol=1e-10
    )


@pytest.mark.parametrize(
    "kind,sensors,actuators,mode",
    [
        ("dos", (0, 2), (1,), "dos"),
        ("sign", (1,), (0, 3), "dos"),
        ("fdi", (0,), (1, 2), "dos"),
        ("bias", (2,), (0,), "dos"),
        ("replay", (0, 1), (2,), "dos"),
        ("replay", (1,), (0, 3), "bias"),
        ("replay", (), (0, 3), "bias"),
    ],
)
def test_stacked_maps_match_explicit_rollout(system, kind, sensors, actuators, mode):
    """z = T_Z d + F_Z e and r = T_R d + F_R e for whitened draws e, run through the loop.

    T comes from stack_dynamics, F from the reference unrolling.
    """
    N = 4
    atk, ext = _build(system, kind, N, sensors, actuators, mode)
    q_z = Q_Z
    t_z, t_r = distrib.stack_dynamics(ext, atk, system, q_z, N)
    f_z, f_r = stacked_factors(system, atk, q_z, N)
    n_f = system.plant.n_x + system.plant.n_y
    W = N - atk.start_step + 1
    rng = np.random.default_rng(hash((kind, sensors, actuators, mode)) % 2**32)
    for _ in range(20):
        e = rng.normal(size=2 * system.plant.n_x + W * n_f)
        y_r = rng.normal(size=system.dims.n_yr)
        a_stack = rng.normal(size=(N + 1) * atk.n_a)
        d = np.concatenate([a_stack, y_r])
        z_map, r_map = t_z @ d + f_z @ e, t_r @ d + f_r @ e
        z_ref, r_ref = whitened_rollout(system, ext, atk, q_z, N, e, y_r, a_stack)
        scale = max(1.0, np.max(np.abs(z_ref)), np.max(np.abs(r_ref)))
        assert np.max(np.abs(z_map - z_ref)) <= 1e-10 * scale
        assert np.max(np.abs(r_map - r_ref)) <= 1e-10 * scale


def _eps_prime(sigma_r, N, n_y, epsilon):
    """The radius of a residual covariance audited on its Cholesky pivots: -inf unless positive definite."""
    pd, trace, logdet = numcore.cholesky_audit(np.asarray(sigma_r, dtype=float))
    return distrib._radius(N, n_y, epsilon, trace, logdet) if pd else -np.inf


def test_epsilon_prime_values():
    # scalar window: (0+1)(2*0.3 + 1) - 0.5 + ln 0.5
    val = _eps_prime(np.array([[0.5]]), N=0, n_y=1, epsilon=0.3)
    assert val == pytest.approx(1.6 - 0.5 + np.log(0.5), abs=1e-12)
    # identity covariance leaves only the budget term 2 eps (N+1)
    N, n_y = 10, 3
    val = _eps_prime(np.eye((N + 1) * n_y), N=N, n_y=n_y, epsilon=0.3)
    assert val == pytest.approx(2.0 * 0.3 * 11, abs=1e-9)
    # at eps = 0 an identity formed with rounding (Q Q', Q orthogonal) gives 0
    # exactly, while a genuinely negative radius far smaller than the terms stays
    Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=((N + 1) * n_y,) * 2))
    assert _eps_prime(Q @ Q.T, N=N, n_y=n_y, epsilon=0.0) == 0.0
    shrunk = _eps_prime((1.0 - 1e-5) * np.eye((N + 1) * n_y), N=N, n_y=n_y, epsilon=0.0)
    assert shrunk == pytest.approx(33 * (1e-5 + np.log1p(-1e-5)), rel=1e-6) and shrunk < 0


def test_epsilon_prime_rejects_indefinite():
    # a singular or indefinite covariance admits no stealthy attack at any budget
    assert _eps_prime(np.diag([1.0, 0.0]), N=0, n_y=2, epsilon=0.3) == -np.inf
    assert _eps_prime(np.diag([1.0, -0.1]), N=0, n_y=2, epsilon=10.0) == -np.inf


@settings(max_examples=25, deadline=None)
@given(
    eps1=st.floats(min_value=0.0, max_value=2.0),
    eps2=st.floats(min_value=0.0, max_value=2.0),
    N=st.integers(min_value=1, max_value=12),
)
def test_epsilon_prime_linear_in_budget(eps1, eps2, N):
    S = np.eye((N + 1) * 2) * 0.7
    v1 = _eps_prime(S, N, 2, eps1)
    v2 = _eps_prime(S, N, 2, eps2)
    assert v2 - v1 == pytest.approx(2.0 * (N + 1) * (eps2 - eps1), abs=1e-9)


def _kl_from_standard(mean, cov):
    """mcvalidate.kl_verdict's empirical divergence of N(mean, cov) from N(0, I), one-step window."""
    sim = SimpleNamespace(r_mean=np.asarray(mean, dtype=float), r_cov=np.asarray(cov, dtype=float), samples=10**6)
    return mcvalidate.kl_verdict(sim, np.zeros((1, 1)), np.zeros(1), 1.0, 0.0, 0).empirical_rate


def test_kl_gaussian_basics():
    assert _kl_from_standard([0.0], np.eye(1)) == pytest.approx(0.0, abs=1e-14)
    # unit mean shift against a standard normal costs exactly one half
    assert _kl_from_standard([1.0], np.eye(1)) == pytest.approx(0.5, abs=1e-14)


def test_kl_gaussian_matches_quadrature():
    mu1 = np.array([0.4, -1.0])
    var1 = np.array([0.8, 1.7])
    closed = _kl_from_standard(mu1, np.diag(var1))
    assert closed == pytest.approx(kl_quadrature_diag(mu1, var1, np.zeros(2), np.ones(2)), abs=1e-8)


def test_kl_gaussian_rejects_singular():
    with pytest.raises(numcore.NotPositiveDefinite):
        _kl_from_standard([0.0], np.zeros((1, 1)))


def test_fdi_residual_stays_white(system):
    """Injection shifts the residual mean but leaves its covariance identity."""
    N = 6
    atk, ext = _build(system, "fdi", N, sensors=(0,), actuators=(0, 1))
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    summary = distrib.gaussian_summary(
        system, atk, layout, Q_Z, N, 0.3
    )
    assert summary.residual_cov_pd
    _, sigma_r = stacked_covariances(system, atk, Q_Z, N)
    assert np.allclose(sigma_r, np.eye((N + 1) * system.plant.n_y), atol=1e-8)
    assert summary.eps_prime == pytest.approx(2.0 * 0.3 * (N + 1), abs=1e-7)


def test_dos_residual_not_white(system):
    N = 6
    atk, ext = _build(system, "dos", N, sensors=(0,))
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    summary = distrib.gaussian_summary(
        system, atk, layout, Q_Z, N, 0.3
    )
    _, sigma_r = stacked_covariances(system, atk, Q_Z, N)
    dev = np.max(np.abs(sigma_r - np.eye((N + 1) * system.plant.n_y)))
    assert dev > 1e-3


def test_nominal_mean_is_stationary(system):
    """With no attack the reference column of t_z repeats the stationary mean."""
    N = 5
    atk, ext = _build(system, "dos", N)  # empty resources: identity routing
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    q_z = Q_Z
    summary = distrib.gaussian_summary(system, atk, layout, q_z, N, 0.3)
    t_0, sigma_0 = distrib.stationary_law(system.nominal, system.sigma_f)
    sigma_z, _ = stacked_covariances(system, atk, q_z, N)
    expected_row = (q_z @ t_0).ravel()
    for k in range(N):
        assert np.allclose(summary.t_z[k], expected_row, atol=1e-9)
        # stationary covariance on the diagonal blocks as well
        assert sigma_z[k, k] == pytest.approx(float(q_z[0] @ sigma_0 @ q_z[0]), abs=1e-9)
        assert summary.sigma[k] == pytest.approx(np.sqrt(sigma_z[k, k]), rel=1e-12)
    # residual mean map vanishes: nominal residuals are zero-mean for any y_r
    assert np.max(np.abs(summary.t_r)) < 1e-9


def test_summary_audit_flags(system):
    N = 4
    q_z = Q_Z
    # injection on everything overwhelms the residual constraint: unbounded
    atk, _ = _build(system, "fdi", N, sensors=(1, 2), actuators=(2, 3))
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    summary = distrib.gaussian_summary(system, atk, layout, q_z, N, 0.3)
    assert not summary.impact_bounded
    # constant injection through a single actuator stays bounded
    atk, _ = _build(system, "bias", N, sensors=(0,), actuators=(0, 1))
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    summary = distrib.gaussian_summary(system, atk, layout, q_z, N, 0.3)
    assert summary.impact_bounded
    assert summary.residual_cov_pd


def test_summary_takes_no_svd(system, monkeypatch):
    """Building a law factors no stacked map: boundedness is left to the solver."""
    N = 4
    q_z = Q_Z
    built = []
    for kind, sensors, actuators in (("fdi", (1, 2), (2, 3)), ("bias", (0,), (0, 1))):
        atk, _ = _build(system, kind, N, sensors=sensors, actuators=actuators)
        built.append((atk, attacks.decision_layout(atk, N, system.controller.Q_yr)))

    def no_svd(*args, **kwargs):
        raise AssertionError("gaussian_summary took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    summaries = [distrib.gaussian_summary(system, atk, layout, q_z, N, 0.3) for atk, layout in built]
    monkeypatch.undo()
    # the unbounded fdi configuration and the bounded bias one, as the audit reads them
    assert [s.impact_bounded for s in summaries] == [False, True]


def test_zero_critical_map_rejected(system):
    """A zero critical row has zero variance: its exceedance probability is undefined."""
    N = 3
    atk, ext = _build(system, "fdi", N, sensors=(0,))
    q_z = np.zeros((1, 6))
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    summary = distrib.gaussian_summary(system, atk, layout, q_z, N, 0.3)
    assert summary.residual_cov_pd and summary.eps_prime >= 0
    with pytest.raises(numcore.DegenerateVariance):
        solver.compute_impact(summary)


def test_summary_at_another_epsilon(system):
    """Only the radius depends on epsilon; it matches a fresh summary exactly."""
    N = 5
    q_z = Q_Z
    atk, _ = _build(system, "dos", N, sensors=(0,), actuators=(1,))
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    epsilons = [0.3, 0.0, 1e-4, 0.7, 10.0]
    (law,) = distrib.gaussian_summaries(system, [atk], layout, q_z, N)
    for eps in epsilons:
        moved = distrib.summarize(law, eps)
        fresh = distrib.gaussian_summary(system, atk, layout, q_z, N, eps)
        assert moved.eps_prime == fresh.eps_prime == law.radius(eps)
        assert moved.law is law and moved.sigma is law.sigma
        assert moved.t_z is law.means[0] and moved.t_r is law.means[1]
        assert moved.impact_bounded == fresh.impact_bounded
    assert distrib.kl_budget(N, 3, 1e306) == (N + 1) * (2e306 + 3)
    with pytest.raises(distrib.BudgetOverflow):  # (N+1)(2 eps + n_y) is inf
        distrib.kl_budget(N, 3, 1e308)


@pytest.mark.parametrize("N", [1, 2, 10, 50])
@pytest.mark.parametrize("kind", attacks.KINDS)
def test_lifted_maps_match_reference_loop(scenario, kind, N):
    """The lifted mean maps and the audits' sigma equal the per-step loop's under the kron-form laws.

    Every configuration of every strategy on vulnerability_1 (which includes
    replay's recording window and the unstable rerouting loops), with the
    bundled critical map, which reads the plant state only, and with one that
    reads the estimate too. The absolute
    tolerance scales with each array's largest entry: on the unstable loops
    at N = 50 entries reach 1e3 to 1e4, and an entry left small by
    cancellation carries rounding of that size in either summation order.
    """

    def close(got, want, name):
        assert got.shape == want.shape, name
        atol = 1e-14 * max(1.0, np.max(np.abs(want), initial=0.0))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol, err_msg=name)

    system = scenario.system
    res = scenario.vulnerabilities["vulnerability_1"]
    cands = attacks.candidates(attacks.StrategySpec(kind, res), system.dims, N)
    layout = attacks.decision_layout(cands[0].attack, N, system.controller.Q_yr)
    plant_rows = scenario.q_z[:, : system.plant.n_x]
    for q_z in (scenario.q_z, np.hstack([plant_rows, -plant_rows])):
        laws = distrib.gaussian_summaries(system, [c.attack for c in cands], layout, q_z, N)
        for cand, law in zip(cands, laws):
            ext = assemble_extended(system.plant, system.controller, system.estimator, [cand.attack])[0]
            ref = reference_stack_dynamics(ext, cand.attack, system, q_z, N)
            t_z, sigma_z, t_r, _ = reference_laws(ref, system.t_0, system.sigma_0, system.sigma_f)
            close(law.means[0], t_z, "T_Z")
            close(law.means[1], t_r, "T_R")
            close(law.sigma, np.sqrt(np.diag(sigma_z)), "sigma")


def test_epsilon_prime_reused_across_epsilon(system):
    """One audit at every epsilon gives a fresh one-epsilon audit's radius bit for bit.

    bias_injection is audited by the innovation recursion, replay on its
    stacked Sigma_R; test_innovation_audit_matches_stacked_oracle compares
    the two routes.
    """
    N = 10
    q_z = Q_Z
    for kind, sensors, actuators in (("bias", (0,), (0, 1)), ("replay", (0, 1), (2,))):
        atk, _ = _build(system, kind, N, sensors, actuators)
        layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
        epsilons = [0.3, *np.linspace(0.05, 0.95, 10)]  # criterion 6's values after 0.3
        (law,) = distrib.gaussian_summaries(system, [atk], layout, q_z, N)
        assert law.pd
        for eps in epsilons:
            direct = distrib.gaussian_summary(system, atk, layout, q_z, N, eps).eps_prime
            assert law.radius(eps) == distrib.summarize(law, eps).eps_prime == direct


def test_non_pd_residual_keeps_minus_inf(system):
    """Denying sensor 0 leaves Sigma_R singular: no budget makes any attack stealthy."""
    N = 5
    q_z = Q_Z
    atk, _ = _build(system, "dos", N, sensors=(0,), actuators=(1,))
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    (law,) = distrib.gaussian_summaries(system, [atk], layout, q_z, N)
    assert not law.pd and np.isnan(law.trace) and np.isnan(law.logdet)
    for eps in (0.3, 0.0, 0.5, 10.0):
        summary = distrib.summarize(law, eps)
        assert not summary.residual_cov_pd
        assert law.radius(eps) == summary.eps_prime == -np.inf


def _factors(m):
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def test_summary_skips_eigenvalues_when_factorization_fails(system, monkeypatch):
    """Denying sensor 0 makes Sigma_R singular: the innovation audit decides with no eigenvalue solve."""
    N = 50
    q_z = Q_Z
    atk, _ = _build(system, "dos", N, sensors=(0,), actuators=(1,))
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    summary = distrib.gaussian_summary(system, atk, layout, q_z, N, 0.3)
    monkeypatch.undo()
    assert not summary.residual_cov_pd and summary.eps_prime == -np.inf
    assert calls == []


# With N + 1 just below, on and just past one and two blocks of the audit's QRs.
_M = distrib._BLOCK_STEPS
AUDIT_HORIZONS = tuple(sorted({1, 2, 3, 5, 10, 30, 50, _M - 2, _M - 1, _M, 2 * _M - 1, 2 * _M}))

# Configurations whose Sigma_R the audit calls positive definite and
# spd_check's eigenvalues of the reference Sigma_R do not, as (scenario, N,
# vulnerability, strategy, candidate index): bundled loops that diverge, with
# rho(A_cl) between 1.20 and 1.39 and a radius near -1e9 at epsilon = 0.3. No
# verdict moves the other way, none moves on the family, and no replay
# verdict moves.
MOVED_TO_PD = {
    ("bundled", 30, "vulnerability_1", "rerouting", 2),
    ("bundled", 50, "vulnerability_1", "rerouting", 0),
    ("bundled", 50, "vulnerability_1", "sign_alternation", 0),
    ("bundled", 50, "vulnerability_1", "sign_alternation", 2),
    ("bundled", 50, "vulnerability_1", "sign_alternation", 5),
    ("bundled", 50, "vulnerability_1", "sign_alternation", 8),
    ("bundled", 50, "vulnerability_1", "sign_alternation", 11),
}


def _audit_scenario(scenario, tmp_path, source):
    if source == "bundled":
        return scenario
    path = tmp_path / f"family_{source}.json"
    path.write_text(json.dumps(scenario_doc(source)))
    return load_scenario(path)


def _pair_summaries(sc, resources, kind, N, epsilon=0.3):
    """The configurations of a pair, their one layout, and their summaries from one batch."""
    cands = attacks.candidates(attacks.StrategySpec(kind, resources), sc.system.dims, N)
    layout = attacks.decision_layout(cands[0].attack, N, sc.system.controller.Q_yr)
    laws = distrib.gaussian_summaries(sc.system, [c.attack for c in cands], layout, sc.q_z, N)
    return cands, layout, [distrib.summarize(law, epsilon) for law in laws]


@pytest.mark.parametrize("source", ["bundled", 0, 1, 2])
def test_innovation_audit_matches_stacked_oracle(scenario, tmp_path, source):
    """Both audits agree with the reference law on every configuration.

    Every strategy on every vulnerability of the bundled scenario or of a
    family seed, at each horizon of AUDIT_HORIZONS: the innovation recursion
    outside replay, and replay's Cholesky factorization of its Sigma_R. Their
    sigma matches the reference F_Z's row norms to 1e-12 relative, and their
    PD verdict matches spd_check's on the reference Sigma_R except on
    MOVED_TO_PD. Where both call Sigma_R positive definite, the radius at
    epsilon = 0.3 matches the one from the reference Sigma_R's trace and the
    ln det of the reference F_R's QR factor to 1e-12 of its terms. The ln
    det comes from F_R, not from a Cholesky factor of Sigma_R: on
    sensor-denying dos loops at small N, F_R's singular values span 1e-5 and
    that factor is off by up to 1.2e-7, against 3e-13 here.
    """
    sc = _audit_scenario(scenario, tmp_path, source)
    system, moved = sc.system, set()
    n_y = system.plant.n_y
    for N in AUDIT_HORIZONS:
        for vulnerability, resources in sc.vulnerabilities.items():
            for kind in attacks.KINDS:
                cands, _, summaries = _pair_summaries(sc, resources, kind, N)
                for i, (cand, summary) in enumerate(zip(cands, summaries)):
                    f_z, f_r = stacked_factors(system, cand.attack, sc.q_z, N)
                    sigma = np.sqrt(np.sum(f_z * f_z, axis=1))
                    np.testing.assert_allclose(summary.sigma, sigma, rtol=1e-12, atol=0)
                    sigma_r = f_r @ f_r.T
                    pd = numcore.spd_check(sigma_r)[0]
                    if pd != summary.residual_cov_pd:
                        assert summary.residual_cov_pd, (source, N, vulnerability, kind, i)
                        moved.add((source, N, vulnerability, kind, i))
                    elif pd:
                        trace, logdet = float(np.trace(sigma_r)), factor_logdet(f_r)
                        want = distrib._radius(N, n_y, 0.3, trace, logdet)
                        scale = distrib.kl_budget(N, n_y, 0.3) + abs(trace) + abs(logdet)
                        assert abs(summary.eps_prime - want) <= 1e-12 * scale, (N, vulnerability, kind, i)
    assert moved == {m for m in MOVED_TO_PD if m[0] == source}


@pytest.mark.parametrize("source", ["bundled", 0, 1, 2])
def test_blocked_audit_matches_per_step_recursion(scenario, tmp_path, source, monkeypatch):
    """The audit, m steps per QR, agrees with the one-step-per-QR recursion of oracles.innovation_recursion.

    Every configuration without a recording, of every strategy on every
    vulnerability of the bundled scenario or of a family seed, at each
    horizon of AUDIT_HORIZONS: the PD verdicts are identical, and where
    Sigma_R is positive definite its trace agrees to 1e-12 relative and its
    ln det to 1e-12 of |ln det| + tr Sigma_R. A configuration leaves the
    batch after a block, not the last, in which a squared pivot fails
    numcore.pd_rule against the trace up to its step; so each block's QR
    runs over exactly the configurations the recursion keeps, and every
    configuration that left reads singular.
    """
    sc = _audit_scenario(scenario, tmp_path, source)
    system, m = sc.system, distrib._BLOCK_STEPS
    plant, ctrl, est = system.plant, system.controller, system.estimator
    sizes = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return qr(a, *args, **kwargs)

    for N in AUDIT_HORIZONS:
        for vulnerability, resources in sc.vulnerabilities.items():
            for kind in attacks.KINDS:
                cands = attacks.candidates(attacks.StrategySpec(kind, resources), system.dims, N)
                loops = [c.attack for c in cands if not c.attack.has_recording]
                if not loops:
                    continue
                ext = assemble_extended(plant, ctrl, est, loops)
                squares, traces = innovation_recursion(ext, system, N)
                sizes.clear()
                monkeypatch.setattr(np.linalg, "qr", counted)
                with np.errstate(over="raise"):
                    pd, trace, logdet, _ = distrib._innovation_audit(ext, system, sc.q_z, N)
                monkeypatch.undo()
                where = (source, N, vulnerability, kind)
                want = numcore.pd_rule(squares.reshape(len(loops), -1).min(axis=1), traces[:, -1])
                assert np.array_equal(pd, want), where
                np.testing.assert_allclose(trace[pd], traces[pd, -1], rtol=1e-12, atol=0, err_msg=str(where))
                # ln det is relative to the KL terms it enters with: a white Sigma_R's is 0 up to rounding
                logdets = np.log(squares[pd]).sum(axis=(1, 2))
                assert np.all(abs(logdet[pd] - logdets) <= 1e-12 * (abs(logdets) + trace[pd])), where
                failed = ~numcore.pd_rule(squares.min(axis=2), traces)  # [loop, k]
                live, batches = np.ones(len(loops), dtype=bool), []
                for k in range(0, N + 1, m):
                    if not live.any():
                        break
                    batches.append(int(live.sum()))
                    if k + m <= N:
                        live &= ~failed[:, k : k + m].any(axis=1)
                assert sizes == batches, where
                assert not pd[~live].any(), where


@pytest.mark.parametrize("N", [10, 29, 30, 50])
def test_cholesky_first_verdict_matches_eigenvalues(scenario, N):
    """The one rule on Sigma_R's Cholesky pivots gives the audit's verdict, and spd_check's but on MOVED_TO_PD.

    All eight strategies on both vulnerabilities, on the reference Sigma_R:
    numcore.cholesky_audit applies to Cholesky pivots the rule that the
    innovation recursion applies to its QR pivots, and the two agree. At
    N = 50 the set includes Sigma_R that factor but fail the rule.
    """
    system = scenario.system
    verdicts, factored_but_not_pd = set(), 0
    for vulnerability, resources in scenario.vulnerabilities.items():
        for kind in attacks.KINDS:
            cands, _, summaries = _pair_summaries(scenario, resources, kind, N)
            for i, (cand, summary) in enumerate(zip(cands, summaries)):
                _, sigma_r = stacked_covariances(system, cand.attack, scenario.q_z, N)
                pd = numcore.cholesky_audit(sigma_r)[0]
                assert pd == summary.residual_cov_pd, (kind, i)
                moved = ("bundled", N, vulnerability, kind, i) in MOVED_TO_PD
                assert (pd != numcore.spd_check(sigma_r)[0]) == moved, (kind, i)
                verdicts.add(pd)
                if not pd and _factors(sigma_r):
                    factored_but_not_pd += 1
    assert verdicts == {False, True}
    if N == 50:
        assert factored_but_not_pd >= 10


def _replay_audit_matches(system, q_z, attack, N, qr_logdet=True):
    """Replay's audit against stacked_factors: sigma to 1e-12 relative, the verdict, tr and ln det to 1e-12.

    The reference verdict and trace are numcore.cholesky_audit's on
    F_R F_R', and tr and ln det, where both call Sigma_R positive definite,
    are compared to 1e-12 of |tr| + |ln det|. The reference ln det is that
    of F_R's QR factor, or with qr_logdet False the Cholesky factor's.
    """
    ext = assemble_extended(system.plant, system.controller, system.estimator, [attack])[0]
    with np.errstate(over="raise"):
        pd, trace, logdet, sigma = distrib._replay_audit(ext, attack, system, q_z, N)
    f_z, f_r = stacked_factors(system, attack, q_z, N)
    np.testing.assert_allclose(sigma, np.sqrt(np.sum(f_z * f_z, axis=1)), rtol=1e-12, atol=0)
    sigma_r = f_r @ f_r.T
    want_pd, want_trace, want_logdet = numcore.cholesky_audit(sigma_r)
    assert pd == want_pd
    if pd:
        want_logdet = factor_logdet(f_r) if qr_logdet else want_logdet
        assert abs(trace - want_trace) + abs(logdet - want_logdet) <= 1e-12 * (abs(want_trace) + abs(want_logdet))
    return ext


@pytest.mark.parametrize("vulnerability", ["vulnerability_1", "vulnerability_2"])
def test_replay_audit_matches_stacked_oracle_at_n200(scenario, vulnerability):
    """Replay's covariance recursion matches the stacked oracle on both bundled replay pairs at N = 200."""
    N = 200
    spec = attacks.StrategySpec("replay_dos", scenario.vulnerabilities[vulnerability])
    (cand,) = attacks.candidates(spec, scenario.system.dims, N)
    _replay_audit_matches(scenario.system, scenario.q_z, cand.attack, N)


def test_replay_audit_matches_stacked_oracle_at_n500(scenario):
    """vulnerability_2/replay_dos at N = 500, whose stacked oracle and its F_R F_R' take about 1.5 s.

    The reference ln det is the Cholesky factor's of F_R F_R': the QR of
    F_R, 6,018 x 1,503, takes about 2 s more, and on this loop the two
    agree to 1e-16 of the terms.
    """
    N = 500
    (cand,) = attacks.candidates(
        attacks.StrategySpec("replay_dos", scenario.vulnerabilities["vulnerability_2"]), scenario.system.dims, N
    )
    _replay_audit_matches(scenario.system, scenario.q_z, cand.attack, N, qr_logdet=False)


@pytest.mark.parametrize("scale", [1.1, 1.3])
def test_replay_audit_matches_stacked_oracle_on_diverging_loops(scenario, scale):
    """Replay loops that diverge: the bundled plant with A scaled, its state feedback from the DARE.

    L_xhat is the LQR gain of the scaled plant (Q = I, R = I), so the
    nominal loop is stable while every replay loop, which cuts the replayed
    sensors from the live path, has rho(A_cl) above 1 (1.06-1.07 at 1.1,
    1.25-1.26 at 1.3). Every replay configuration of both vulnerabilities
    matches the stacked oracle at N = 1, 5, 10, 30 and 50.
    """
    plant, ctrl = scenario.system.plant, scenario.system.controller
    A = scale * plant.A
    riccati = linalg.solve_discrete_are(A, plant.B, np.eye(plant.n_x), np.eye(plant.n_u))
    gain = np.linalg.solve(np.eye(plant.n_u) + plant.B.T @ riccati @ plant.B, plant.B.T @ riccati @ A)
    system = SystemModel(
        PlantModel(A, plant.B, plant.C, plant.sigma_v, plant.sigma_w), ControllerModel(gain, ctrl.L_yr, ctrl.Q_yr)
    )
    for N in (1, 5, 10, 30, 50):
        for resources in scenario.vulnerabilities.values():
            for kind in ("replay_dos", "replay_bias"):
                for cand in attacks.candidates(attacks.StrategySpec(kind, resources), system.dims, N):
                    ext = _replay_audit_matches(system, scenario.q_z, cand.attack, N)
                    assert numcore.spectral_radius(ext.A_cl) > 1.05


def test_replay_audit_memory_is_a_fraction_of_the_stacked_oracle(scenario):
    """At N = 200 replay's audit peaks below a third of what stacked_factors allocates.

    The audit forms (N + 1) n_y square matrices and arrays linear in N, and
    no noise factor, whose (N + 1) n_y x 2 (N + 1) n_f rows the oracle
    builds. Traced by tracemalloc, after a warm-up call of each.
    """
    N = 200
    system, q_z = scenario.system, scenario.q_z
    (cand,) = attacks.candidates(
        attacks.StrategySpec("replay_dos", scenario.vulnerabilities["vulnerability_1"]), system.dims, N
    )
    ext = assemble_extended(system.plant, system.controller, system.estimator, [cand.attack])[0]

    def peak(run):
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    audit = peak(lambda: distrib._replay_audit(ext, cand.attack, system, q_z, N))
    oracle = peak(lambda: stacked_factors(system, cand.attack, q_z, N))
    assert audit < oracle / 3, (audit, oracle)


@pytest.mark.parametrize("N", [10, 50])
def test_pair_batch_equals_batch_of_one(scenario, N):
    """A configuration's summary from its pair's batch is its gaussian_summary, bit for bit.

    So the CLI, which audits a pair at once, and the library agree.
    """
    system = scenario.system
    for resources in scenario.vulnerabilities.values():
        for kind in attacks.KINDS:
            cands, layout, summaries = _pair_summaries(scenario, resources, kind, N)
            for cand, summary in zip(cands, summaries):
                one = distrib.gaussian_summary(system, cand.attack, layout, scenario.q_z, N, 0.3)
                assert one.residual_cov_pd == summary.residual_cov_pd
                assert one.eps_prime == summary.eps_prime
                assert np.array_equal(one.sigma, summary.sigma)


_LOOP_FIELDS = ("A_cl", "B_f", "C_r", "D_f", "E_r", "G_a", "H_a")


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


def _block_loop(system, attack):
    """One configuration's loop by np.block, as the sysmodel docstring writes its blocks."""
    plant, ctrl, est = system.plant, system.controller, system.estimator
    A, B, C, K, W = plant.A, plant.B, plant.C, est.K, est.sigma_r_invsqrt
    n_x, n_y = plant.n_x, plant.n_y
    lam_y, lam_u, gam_y, gam_u = attack.lambda_y, attack.lambda_u, attack.gamma_y, attack.gamma_u
    L_x, L_r = ctrl.L_xhat, ctrl.L_yr
    return {
        "A_cl": np.block([[A, -B @ lam_u @ L_x], [K @ lam_y @ C, A - K @ C - B @ L_x]]),
        "B_f": np.block([[np.eye(n_x), np.zeros((n_x, n_y))], [np.zeros((n_x, n_x)), K @ lam_y]]),
        "C_r": W @ np.hstack([lam_y @ C, -C]),
        "D_f": np.hstack([np.zeros((n_y, n_x)), W @ lam_y]),
        "E_r": np.vstack([B @ lam_u @ L_r, B @ L_r]),
        "G_a": np.block(
            [[B @ gam_u, np.zeros((n_x, attack.n_ay))], [np.zeros((n_x, attack.n_au)), K @ gam_y]]
        ),
        "H_a": np.hstack([np.zeros((n_y, attack.n_au)), W @ gam_y]),
    }


def _means(summary):
    """A summary's mean maps, or the overflow that stacking them raises."""
    try:
        return tuple(_bits(m) for m in summary.law.means)
    except FloatingPointError as exc:
        return str(exc)


@pytest.mark.parametrize("N", [1, 10, 50])
@pytest.mark.parametrize("source", ["bundled", 0, 1, 2])
def test_pair_assembly_slices_equal_assembly_of_one(scenario, tmp_path, source, N):
    """Each slice of a pair's stacked loops is its configuration's loop alone, bit for bit.

    Every configuration of every kind on every vulnerability: the slice of
    the pair's one assemble_extended call equals the batch of one and the
    np.block formula of the sysmodel docstring, and the pair's audit rows
    and mean maps equal those of the configuration's own gaussian_summary.
    """
    sc = _audit_scenario(scenario, tmp_path, source)
    system = sc.system
    plant, ctrl, est = system.plant, system.controller, system.estimator
    for resources in sc.vulnerabilities.values():
        for kind in attacks.KINDS:
            cands, layout, summaries = _pair_summaries(sc, resources, kind, N)
            pair = assemble_extended(plant, ctrl, est, [c.attack for c in cands])
            assert pair.A_cl.shape[0] == len(cands)
            for i, (cand, summary) in enumerate(zip(cands, summaries)):
                one, block = assemble_extended(plant, ctrl, est, [cand.attack])[0], _block_loop(system, cand.attack)
                for name in _LOOP_FIELDS:
                    got = _bits(getattr(pair[i], name))
                    assert got == _bits(getattr(one, name)) == _bits(block[name]), (kind, i, name)
                alone = distrib.gaussian_summary(system, cand.attack, layout, sc.q_z, N, 0.3)
                for field in ("residual_cov_pd", "eps_prime", "sigma"):
                    assert _bits(getattr(summary, field)) == _bits(getattr(alone, field)), (kind, i, field)
                for field in ("trace", "logdet"):
                    assert _bits(getattr(summary.law, field)) == _bits(getattr(alone.law, field)), (kind, i, field)
                assert _means(summary) == _means(alone), (kind, i)


def test_mixed_injection_widths_rejected(system):
    """A batch whose configurations inject on different widths is no pair, and is refused."""
    N = 4
    dims, Q_yr = system.dims, system.controller.Q_yr
    fdi = attacks.build_attack("fdi", attacks.ResourceSet((0,), (0,)), dims, N)
    dos = attacks.build_attack("dos", attacks.ResourceSet((0,), (0,)), dims, N)
    plant, ctrl, est = system.plant, system.controller, system.estimator
    with pytest.raises(DimensionMismatch, match="injection widths"):
        assemble_extended(plant, ctrl, est, [fdi, dos])
    with pytest.raises(DimensionMismatch, match="injection widths"):
        distrib.gaussian_summaries(system, [dos, fdi], attacks.decision_layout(dos, N, Q_yr), Q_Z, N)


@pytest.mark.parametrize("N", [10, 50])
def test_pair_audit_takes_one_qr_per_block(scenario, monkeypatch, N):
    """vulnerability_1/dos has 15 configurations; its audit runs ceil((N + 1) / m) batched QRs.

    m is distrib._BLOCK_STEPS. The first QR is over all 15 configurations;
    12 of them fail the rule within that block, so every later QR is over
    the 3 that pass it.
    """
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    entry = cli.assess(dataclasses.replace(scenario, horizon=N), "vulnerability_1", "dos")
    monkeypatch.undo()
    assert entry.candidates_evaluated == 15
    blocks = -(-(N + 1) // distrib._BLOCK_STEPS)
    assert [shape[0] for shape in calls] == [15] + [3] * (blocks - 1)


def test_sweep_stacks_a_configuration_once(scenario, monkeypatch):
    """A configuration is stacked at the first epsilon where its radius is nonnegative, and only then.

    At N = 10 no vulnerability_1/dos configuration is within budget at 0.3;
    three are by 1.0, two of them already at 0.5, and the twelve with a
    singular Sigma_R never are.
    """
    scenario = dataclasses.replace(scenario, horizon=10)
    stacked = []
    stack = distrib.stack_dynamics

    def counted(ext, attack, *args):
        stacked.append(id(attack))
        return stack(ext, attack, *args)

    monkeypatch.setattr(distrib, "stack_dynamics", counted)
    cli._assess_pair(scenario, "vulnerability_1", "dos", [0.3])
    assert stacked == []
    entries = cli._assess_pair(scenario, "vulnerability_1", "dos", [0.3, 0.5, 1.0])
    assert [e.report.feasible for e in entries] == [False, True, True]
    assert len(stacked) == len(set(stacked)) == 3
