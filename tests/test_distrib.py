import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stealthimpact import attacks, distrib, mcvalidate, numcore, solver
from stealthimpact.sysmodel import assemble_extended
from conftest import random_system
from oracles import (
    kl_quadrature_diag,
    lyapunov_series,
    reference_laws,
    reference_stack_dynamics,
    stacked_covariances,
    whitened_rollout,
)


# the bundled critical row, on the extended state (x, x_hat)
Q_Z = np.array([[0.0, 0.0, 1.0 / 3.0, 0.0, 0.0, 0.0]])


def _build(system, kind, N, sensors=(), actuators=(), replay_mode="dos"):
    """Attack and extended system of a short kind name; replay takes replay_mode."""
    kind = {"sign": "sign_alternation", "bias": "bias_injection", "replay": f"replay_{replay_mode}"}.get(kind, kind)
    res = attacks.ResourceSet(sensors=sensors, actuators=actuators)
    atk = attacks.build_attack(kind, res, system.dims, N)
    ext = assemble_extended(system.plant, system.controller, system.estimator, atk)
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
    """z = T_Z d + F_Z e and r = T_R d + F_R e for whitened draws e, run through the loop."""
    N = 4
    atk, ext = _build(system, kind, N, sensors, actuators, mode)
    q_z = Q_Z
    t_z, t_r, f_z, f_r = distrib.stack_dynamics(ext, atk, system, q_z, N)
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
    """The radius summarize sets for a residual covariance: -inf unless it is positive definite."""
    pd, trace, logdet = distrib._residual_audit(np.asarray(sigma_r, dtype=float))
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
    summary = distrib.gaussian_summary(system, atk, layout, q_z, N, 0.3)
    assert summary.at_epsilon(0.3) is summary
    for eps in (0.0, 1e-4, 0.7, 10.0):
        moved = summary.at_epsilon(eps)
        fresh = distrib.gaussian_summary(system, atk, layout, q_z, N, eps)
        assert moved.epsilon == eps
        assert moved.eps_prime == fresh.eps_prime
        assert moved.t_z is summary.t_z and moved.sigma is summary.sigma
        assert moved.curve is summary.curve
        assert moved.impact_bounded == fresh.impact_bounded
    singular = dataclasses.replace(summary, residual_cov_pd=False, eps_prime=-np.inf)
    assert singular.at_epsilon(5.0).eps_prime == -np.inf
    assert distrib.kl_budget(N, 3, 1e306) == (N + 1) * (2e306 + 3)
    with pytest.raises(distrib.BudgetOverflow):  # (N+1)(2 eps + n_y) is inf
        distrib.kl_budget(N, 3, 1e308)


@pytest.mark.parametrize("N", [1, 2, 10, 50])
@pytest.mark.parametrize("kind", attacks.KINDS)
def test_lifted_maps_match_reference_loop(scenario, kind, N):
    """The lifted, whitened law equals the per-step loop's maps under the kron-form laws.

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
    sigma_f = system.sigma_f
    plant_rows = scenario.q_z[:, : system.plant.n_x]
    for q_z in (scenario.q_z, np.hstack([plant_rows, -plant_rows])):
        for cand in cands:
            ext = assemble_extended(system.plant, system.controller, system.estimator, cand.attack)
            layout = attacks.decision_layout(cand.attack, N, system.controller.Q_yr)
            law = distrib.stack_dynamics(ext, cand.attack, system, q_z, N)
            summary = distrib.summarize(law, layout, 0.3)
            sigma_z, sigma_r = stacked_covariances(system, cand.attack, q_z, N)
            laws = (summary.t_z, sigma_z, summary.t_r, sigma_r)
            ref = reference_stack_dynamics(ext, cand.attack, system, q_z, N)
            ref_laws = reference_laws(ref, system.t_0, system.sigma_0, sigma_f)
            for name, got, want in zip(("T_Z", "Sigma_Z", "T_R", "Sigma_R"), laws, ref_laws):
                close(got, want, name)
            close(summary.sigma, np.sqrt(np.diag(ref_laws[1])), "sigma")


def test_epsilon_prime_reused_across_epsilon(system):
    """at_epsilon reuses one factorization and gives a fresh audit's radius bit for bit."""
    N = 10
    q_z = Q_Z
    for kind, sensors, actuators in (("bias", (0,), (0, 1)), ("replay", (0, 1), (2,))):
        atk, _ = _build(system, kind, N, sensors, actuators)
        layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
        summary = distrib.gaussian_summary(system, atk, layout, q_z, N, 0.3)
        assert summary.residual_cov_pd
        _, sigma_r = stacked_covariances(system, atk, q_z, N)
        for eps in np.linspace(0.05, 0.95, 10):  # criterion 6's values
            direct = _eps_prime(sigma_r, N, system.plant.n_y, eps)
            assert summary.at_epsilon(eps).eps_prime == direct


def test_non_pd_residual_keeps_minus_inf(system):
    """Denying sensor 0 leaves Sigma_R singular: no budget makes any attack stealthy."""
    N = 5
    q_z = Q_Z
    atk, _ = _build(system, "dos", N, sensors=(0,), actuators=(1,))
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    summary = distrib.gaussian_summary(system, atk, layout, q_z, N, 0.3)
    assert not summary.residual_cov_pd
    assert summary.eps_prime == -np.inf
    for eps in (0.0, 0.5, 10.0):
        assert summary.at_epsilon(eps).eps_prime == -np.inf


def _factors(m):
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("N", [10, 29, 30, 50])
def test_cholesky_first_verdict_matches_eigenvalues(scenario, N):
    """spd_factor's verdict on Sigma_R equals spd_check's on every bundled configuration.

    All eight strategies on both vulnerabilities. At N = 50 the set includes
    Sigma_R with lambda_min / lambda_max between 1e-17 and 1e-10, which
    factor but fail spd_check, and rerouting's at 9.8e-9, which passes.
    """
    system = scenario.system
    verdicts, factored_but_not_pd = set(), 0
    for resources in scenario.vulnerabilities.values():
        for kind in attacks.KINDS:
            for cand in attacks.candidates(attacks.StrategySpec(kind, resources), system.dims, N):
                _, sigma_r = stacked_covariances(system, cand.attack, scenario.q_z, N)
                pd = numcore.spd_check(sigma_r).is_positive_definite
                factor = numcore.spd_factor(sigma_r)
                assert (factor is not None) == pd, (kind, cand.attack.start_step)
                verdicts.add(pd)
                if not pd and _factors(sigma_r):
                    factored_but_not_pd += 1
    assert verdicts == {False, True}
    if N == 50:
        assert factored_but_not_pd >= 10


def test_summary_skips_eigenvalues_when_factorization_fails(system, monkeypatch):
    """Denying sensor 0 makes Sigma_R singular: the failed Cholesky factor decides alone."""
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
