"""End-to-end acceptance suite.

One test per criterion. Each test pushes a single `criterion N (...): PASS`
or `FAIL` line that conftest echoes after the run summary, then asserts, so
a red run still reports every verdict that was reached. Tolerances are
stated inline next to the checks they guard.
"""

import dataclasses
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

import conftest
from conftest import random_system
from oracles import (
    grid_search_exceed,
    lyapunov_residual,
    stacked_covariances,
    stacked_factors,
    whitened_rollout,
)
from stealthimpact import attacks, cli, distrib, mcvalidate, numcore, solver
from stealthimpact.attacks import ResourceSet, decision_layout
from stealthimpact.distrib import gaussian_summary
from stealthimpact.mcvalidate import SimulationConfig, kl_verdict, simulate
from stealthimpact.scenario import bundled_scenario_path
from stealthimpact.sysmodel import ControllerModel, SystemModel, assemble_extended

VULNS = ("vulnerability_1", "vulnerability_2")
GRID_STEP = 0.01


def _verdict(num: int, desc: str, ok: bool) -> None:
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def grid(scenario):
    """Full benchmark sweep: every vulnerability crossed with every strategy."""
    t0 = time.perf_counter()
    entries = {}
    for vuln in VULNS:
        for strat in scenario.strategies:
            entries[vuln, strat] = cli.assess(scenario, vuln, strat)
    return entries, time.perf_counter() - t0


# criterion 1: the benchmark grid reproduces the documented ordering of
# attack strategies across both vulnerabilities, within the time budget


def test_criterion_1_benchmark_ordering(grid):
    entries, elapsed = grid
    p = {k: e.report.exceed_prob for k, e in entries.items()}
    v1, v2 = VULNS

    checks = {
        "budget": elapsed < 300.0,
        "rerouting harmless on both": p[v1, "rerouting"] <= 1e-6
        and p[v2, "rerouting"] <= 1e-6,
        "dos worse on vulnerability_2": p[v2, "dos"] > p[v1, "dos"] + 0.05,
        "replay worse on vulnerability_1": p[v1, "replay_dos"]
        > p[v2, "replay_dos"] + 0.5,
        "fdi worse on vulnerability_1": p[v1, "fdi"] > p[v2, "fdi"],
        "fdi unbounded only on vulnerability_1": entries[v1, "fdi"].report.unbounded
        and not entries[v2, "fdi"].report.unbounded,
        "bias worse on vulnerability_1": p[v1, "bias_injection"]
        > p[v2, "bias_injection"] + 0.3,
        "replay and fdi saturate together": abs(p[v1, "replay_dos"] - p[v1, "fdi"])
        <= 1e-3,
    }
    ok = all(checks.values())
    _verdict(1, "benchmark grid reproduces the documented ordering in under 300 s", ok)
    failing = [name for name, good in checks.items() if not good]
    assert ok, f"failed: {failing}; probabilities {p}; elapsed {elapsed:.1f}s"


# criterion 2: on small random systems the convex solve agrees with a dense
# grid enumeration of the feasible set at 0.01 resolution


def _study_system(rng):
    """Two-state single-input loop with a tight reference box (|y_r| <= 0.2)."""
    base = random_system(rng, n_x=2, n_u=1, n_yr=1)
    ctrl = ControllerModel(
        L_xhat=base.controller.L_xhat,
        L_yr=base.controller.L_yr,
        Q_yr=np.array([[5.0]]),
    )
    return SystemModel(plant=base.plant, controller=ctrl)


def _unit_row(rng, n):
    """A unit critical row on the plant state of an n-state loop, over the extended state."""
    q = rng.normal(size=(1, n))
    return np.hstack([q / np.linalg.norm(q), np.zeros((1, n))])


def _fdi_instance(rng):
    # free injection on one sensor, horizon 2: decision is 3 injections + y_r.
    # The residual map ignores y_r here, so the quadratic cap confines the
    # injection block to a ball whose radius we pick through epsilon.
    for _ in range(50):
        system = _study_system(rng)
        N = 2
        atk = attacks.build_attack("fdi", ResourceSet(sensors=(int(rng.integers(0, 2)),)), system.dims, N)
        layout = decision_layout(atk, N, system.controller.Q_yr)
        q_z = _unit_row(rng, 2)
        summ0 = gaussian_summary(system, atk, layout, q_z, N, 0.1)
        n_blk = (N + 1) * atk.n_a
        g_a = summ0.t_r[:, :n_blk].T @ summ0.t_r[:, :n_blk]
        lam = float(np.linalg.eigvalsh(g_a)[0])
        if lam < 1e-3 or not summ0.impact_bounded:
            continue
        eps = lam * 0.17**2 / (2.0 * (N + 1))
        summary = gaussian_summary(system, atk, layout, q_z, N, eps)
        r = np.sqrt(summary.eps_prime / lam)
        ranges = [(-r, r)] * n_blk + [(-0.2, 0.2)]
        return summary, layout, ranges, None
    raise RuntimeError("no usable fdi instance")


def _bias_instance(rng):
    # constant actuator offset, horizon 2: equalities collapse the decision
    # to (offset, y_r), enumerated through a lift onto the 4-d vector
    for _ in range(50):
        system = _study_system(rng)
        N = 2
        atk = attacks.build_attack("bias_injection", ResourceSet(actuators=(0,)), system.dims, N)
        layout = decision_layout(atk, N, system.controller.Q_yr)
        q_z = _unit_row(rng, 2)
        summ0 = gaussian_summary(system, atk, layout, q_z, N, 0.1)
        lift = np.zeros((layout.dim_d, 2))
        lift[: N + 1, 0] = 1.0
        lift[N + 1, 1] = 1.0
        g_a = float(np.square(summ0.t_r @ lift[:, 0]).sum())
        if g_a < 1e-3 or not summ0.impact_bounded:
            continue
        eps = g_a * 0.3**2 / (2.0 * (N + 1))
        summary = gaussian_summary(system, atk, layout, q_z, N, eps)
        r = np.sqrt(summary.eps_prime / g_a)
        ranges = [(-r, r), (-0.2, 0.2)]
        return summary, layout, ranges, lift
    raise RuntimeError("no usable bias instance")


def _denial_instance(rng, kind):
    # dos or sign flip, horizon 3: only y_r is free, so the residual is not
    # white and the budget at epsilon = 0 can already be positive
    for _ in range(50):
        system = _study_system(rng)
        N = 3
        if rng.integers(0, 2):
            res = ResourceSet(sensors=(int(rng.integers(0, 2)),))
        else:
            res = ResourceSet(actuators=(0,))
        atk = attacks.build_attack("dos" if kind == "dos" else "sign_alternation", res, system.dims, N)
        layout = decision_layout(atk, N, system.controller.Q_yr)
        q_z = _unit_row(rng, 2)
        summ0 = gaussian_summary(system, atk, layout, q_z, N, 0.0)
        g = float(np.square(summ0.t_r).sum())
        if g < 1e-3 or not summ0.impact_bounded:
            continue
        base = summ0.eps_prime
        target = g * 0.15**2
        eps = max(0.0, (target - base) / (2.0 * (N + 1)))
        summary = gaussian_summary(system, atk, layout, q_z, N, eps)
        if summary.eps_prime < 0:
            continue
        r = min(0.2, np.sqrt(summary.eps_prime / g))
        return summary, layout, [(-r, r)], None
    raise RuntimeError("no usable denial instance")


def _grid_agreement(summary, layout, ranges, lift):
    """Bracket the solver's probability between grid values.

    The strict grid maximum lower-bounds the true optimum up to solver
    tolerance. For the upper side the feasibility masks are inflated by the
    covering radius of the grid and the probability is allowed one Lipschitz
    step plus the stated 1e-3 slack.
    """
    report = solver.compute_impact(summary)
    assert report.feasible and not report.unbounded
    sig = summary.sigma
    delta = GRID_STEP / 2.0 * np.sqrt(len(ranges))
    L = np.eye(layout.dim_d) if lift is None else lift
    t_l = summary.t_z @ L
    q_l = layout.Q @ L
    m_l = summary.t_r @ L
    s_max = float(np.linalg.svd(m_l, compute_uv=False)[0]) if m_l.size else 0.0
    radius = summary.eps_prime
    quad_slop = 2.0 * np.sqrt(max(radius, 0.0)) * s_max * delta + (s_max * delta) ** 2
    box_slop = float(np.linalg.norm(q_l, axis=1).max()) * delta if q_l.size else 0.0
    p_strict, p_infl = grid_search_exceed(
        summary.t_z, sig, layout.Q, summary.t_r, radius, ranges,
        step=GRID_STEP, lift=L, box_slop=box_slop, quad_slop=quad_slop,
    )
    lip = max(0.4 * np.linalg.norm(t_l[i]) / sig[i] for i in range(t_l.shape[0]))
    upper = p_infl + lip * delta + 1e-3
    return report.exceed_prob, p_strict, upper


def test_criterion_2_grid_enumeration():
    rng = np.random.default_rng(20260815)
    instances = []
    for _ in range(8):
        instances.append(_fdi_instance(rng))
    for _ in range(6):
        instances.append(_bias_instance(rng))
    for i in range(6):
        instances.append(_denial_instance(rng, "dos" if i % 2 == 0 else "sign"))

    bad = []
    for idx, (summary, layout, ranges, lift) in enumerate(instances):
        p, lower, upper = _grid_agreement(summary, layout, ranges, lift)
        if not (lower - 1e-6 <= p <= upper):
            bad.append((idx, p, lower, upper))
    ok = not bad and len(instances) == 20
    _verdict(2, "solver matches 0.01-step grid enumeration on 20 random systems", ok)
    assert ok, f"instances outside grid bracket: {bad}"


# criterion 3: simulating the worst decision vector reproduces the analytic
# trajectory law at 1e5 samples


def _rebuild_summary(scenario, entry):
    layout = decision_layout(
        entry.candidate.attack, scenario.horizon, scenario.system.controller.Q_yr
    )
    summary = gaussian_summary(
        scenario.system, entry.candidate.attack, layout, scenario.q_z,
        scenario.horizon, scenario.epsilon,
    )
    return layout, summary


def test_criterion_3_simulation_moments(scenario, grid):
    entries, _ = grid
    bad = []
    for strat in ("fdi", "bias_injection"):
        entry = entries["vulnerability_2", strat]
        report = entry.report
        _, summary = _rebuild_summary(scenario, entry)
        d = report.d_star[report.argmax_exceed]
        cfg = SimulationConfig(samples=100_000, seed=scenario.mc_seed,
                               horizon=scenario.horizon)
        sim = simulate(scenario.system, entry.candidate.attack, d, cfg,
                       q_z=scenario.q_z)
        n = sim.samples

        mean_dev = np.abs(summary.t_z @ d - sim.z_mean) / sim.z_mean_se
        if mean_dev.max() > 4.0:
            bad.append((strat, "mean", float(mean_dev.max())))

        cov, _ = stacked_covariances(scenario.system, entry.candidate.attack, scenario.q_z, scenario.horizon)
        dia = np.diag(cov)
        cov_se = np.sqrt((np.outer(dia, dia) + cov**2) / n)
        cov_dev = np.abs(cov - sim.z_cov) / cov_se
        if cov_dev.max() > 4.0:
            bad.append((strat, "cov", float(cov_dev.max())))

        mu = summary.t_z @ d
        sig = np.sqrt(dia)
        p_true = np.array([numcore.gaussian_exceed(mu[i], sig[i])
                           for i in range(mu.shape[0])])
        # 3 binomial standard errors plus a 5/n continuity floor
        band = 3.0 * np.sqrt(p_true * (1.0 - p_true) / n) + 5.0 / n
        gap = np.abs(p_true - sim.exceed_freq) - band
        if gap.max() > 0:
            bad.append((strat, "exceed", float(gap.max())))
    ok = not bad
    _verdict(3, "1e5-sample simulation matches the analytic law (4 se / 3 se)", ok)
    assert ok, f"simulation deviations: {bad}"


# criterion 4: the quadratic budget test and the divergence-rate test accept
# exactly the same decision vectors


def test_criterion_4_divergence_equivalence(scenario, grid):
    entries, _ = grid
    entry = entries["vulnerability_2", "fdi"]
    _, summary = _rebuild_summary(scenario, entry)
    t_r, radius = summary.t_r, summary.eps_prime
    N, eps = scenario.horizon, scenario.epsilon
    _, sigma_r = stacked_covariances(scenario.system, entry.candidate.attack, scenario.q_z, N)
    atol = 1e-9 * max(1.0, abs(radius))

    rng = np.random.default_rng(4)
    scales = list(rng.uniform(0.5, 1.5, size=100))
    # pin four cases straddling the boundary itself
    scales += [1.0 - 1e-6, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-6]
    disagree = []
    for u in scales:
        v = rng.normal(size=summary.t_z.shape[1])
        quad_v = float(np.square(t_r @ v).sum())
        d = v * np.sqrt(radius * u / quad_v)
        quad = float(np.square(t_r @ d).sum())
        budget_ok = quad <= radius + atol
        # divergence of N(t_r d, Sigma_R) from N(0, I), through the Monte Carlo check's routine
        law = SimpleNamespace(r_mean=t_r @ d, r_cov=sigma_r, samples=10**6)
        kl = kl_verdict(law, t_r, d, radius, eps, N).empirical_rate * (N + 1)
        kl_ok = kl <= (N + 1) * eps + atol / 2.0
        if budget_ok != kl_ok:
            disagree.append((u, quad - radius, kl - (N + 1) * eps))
    ok = not disagree
    _verdict(4, "budget test equals divergence test on 104 decision vectors", ok)
    assert ok, f"verdicts disagree: {disagree}"


# criterion 5: the reported mean-impact lower bound is respected by simulation


def test_criterion_5_mean_lower_bound(scenario, grid):
    entries, _ = grid
    bad = []
    for strat in ("fdi", "dos"):
        entry = entries["vulnerability_2", strat]
        report = entry.report
        d = report.d_star[report.argmax_mean]
        cfg = SimulationConfig(samples=100_000, seed=scenario.mc_seed + 1,
                               horizon=scenario.horizon)
        sim = simulate(scenario.system, entry.candidate.attack, d, cfg,
                       q_z=scenario.q_z)
        floor = report.mean_lower - 3.0 * sim.e_inf_norm_se
        if sim.e_inf_norm < floor:
            bad.append((strat, sim.e_inf_norm, report.mean_lower))
    ok = not bad
    _verdict(5, "simulated peak magnitude respects the mean lower bound", ok)
    assert ok, f"bound violated: {bad}"


# criterion 6: monotone response to the stealthiness budget, and the
# documented non-monotone horizon behavior


def test_criterion_6_parameter_sweeps(scenario):
    checks = {}
    eps_grid = np.linspace(0.05, 0.95, 10)
    for vuln in VULNS:
        for strat in scenario.strategies:
            ps = []
            for e in eps_grid:
                variant = dataclasses.replace(scenario, epsilon=float(e))
                ps.append(cli.assess(variant, vuln, strat).report.exceed_prob)
            ps = np.array(ps)
            checks[f"eps nondecreasing {vuln}/{strat}"] = bool(
                np.all(np.diff(ps) >= -1e-9)
            )

    horizons = [2, 5, 10, 20, 35, 50]
    replay, bias = [], []
    for n in horizons:
        variant = dataclasses.replace(scenario, horizon=n)
        replay.append(
            cli.assess(variant, "vulnerability_2", "replay_dos").report.exceed_prob
        )
        bias.append(
            cli.assess(variant, "vulnerability_2", "bias_injection").report.exceed_prob
        )
    replay = np.array(replay)
    bias = np.array(bias)
    # replay strengthens with longer horizons once recordings are long enough
    checks["replay grows over upper half"] = bool(np.all(np.diff(replay[2:]) > 0))
    checks["replay net increase"] = replay[-1] > replay[0]
    checks["replay max at longest horizon"] = replay.argmax() == len(horizons) - 1
    # a constant offset averages out over longer windows
    checks["bias has decreasing segment"] = bool(np.any(np.diff(bias) < -1e-9))
    checks["bias net decrease"] = bias[-1] < bias[0]

    ok = all(checks.values())
    _verdict(6, "epsilon sweeps nondecreasing; horizon sweeps show known trends", ok)
    failing = [name for name, good in checks.items() if not good]
    assert ok, f"failed: {failing}; replay={replay.tolist()} bias={bias.tolist()}"


# criterion 7: algebraic backbone residuals and stacked-map fidelity


def test_criterion_7_numerical_residuals(scenario, system):
    bad = []
    rng = np.random.default_rng(7)
    models = [system] + [random_system(rng) for _ in range(50)]
    for i, model in enumerate(models):
        plant, est, nom = model.plant, model.estimator, model.nominal
        r_dare = numcore.dare_residual(
            plant.A, plant.C, plant.sigma_v, plant.sigma_w, est.sigma_e
        )
        _, sigma_0 = distrib.stationary_law(nom, model.sigma_f)
        r_lyap = lyapunov_residual(
            nom.A_cl, nom.B_f @ model.sigma_f @ nom.B_f.T, sigma_0
        )
        if r_dare > 1e-9 or r_lyap > 1e-9:
            bad.append((i, r_dare, r_lyap))

    configs = [
        ("dos", (0, 2), (1,), "dos"),
        ("sign", (1,), (0, 3), "dos"),
        ("fdi", (0,), (1, 2), "dos"),
        ("bias", (2,), (0,), "dos"),
        ("replay", (0, 1), (2,), "dos"),
    ]
    N = 4
    n_f = system.plant.n_x + system.plant.n_y
    worst = 0.0
    for kind, sensors, actuators, mode in configs:
        res = ResourceSet(sensors=sensors, actuators=actuators)
        kind = {"sign": "sign_alternation", "bias": "bias_injection", "replay": f"replay_{mode}"}.get(kind, kind)
        atk = attacks.build_attack(kind, res, system.dims, N)
        ext = assemble_extended(system.plant, system.controller, system.estimator, [atk])[0]
        t_z, t_r = distrib.stack_dynamics(ext, atk, system, scenario.q_z, N)
        f_z, f_r = stacked_factors(system, atk, scenario.q_z, N)
        W = N - atk.start_step + 1
        for _ in range(20):
            e = rng.normal(size=2 * system.plant.n_x + W * n_f)
            y_r = rng.normal(size=system.dims.n_yr)
            a_stack = rng.normal(size=(N + 1) * atk.n_a)
            d = np.concatenate([a_stack, y_r])
            z_map, r_map = t_z @ d + f_z @ e, t_r @ d + f_r @ e
            z_ref, r_ref = whitened_rollout(system, ext, atk, scenario.q_z, N, e, y_r, a_stack)
            scale = max(1.0, np.max(np.abs(z_ref)), np.max(np.abs(r_ref)))
            dev = max(np.max(np.abs(z_map - z_ref)), np.max(np.abs(r_map - r_ref)))
            worst = max(worst, dev / scale)
    ok = not bad and worst <= 1e-10
    _verdict(7, "riccati/lyapunov residuals below 1e-9; maps match rollouts", ok)
    assert ok, f"residual failures: {bad}; worst map deviation {worst:.2e}"


# criterion 8: repeated runs emit byte-identical reports


def test_criterion_8_report_determinism(tmp_path):
    base = [
        "assess",
        "--scenario", str(bundled_scenario_path()),
        "--vulnerability", "vulnerability_2",
        "--strategy", "fdi",
        "--strategy", "bias_injection",
    ]
    # the simulator too: its sample blocks run on two threads, so take three, the last one short
    doc = json.loads(bundled_scenario_path().read_text())
    doc["mc"]["samples"] = 2 * mcvalidate._BLOCK + 1_000
    mc_scenario = tmp_path / "mc_scenario.json"
    mc_scenario.write_text(json.dumps(doc))
    mc = [
        "assess",
        "--scenario", str(mc_scenario),
        "--strategy", "fdi",
        "--strategy", "replay_dos",
        "--mc-validate",
    ]
    outputs = {}
    for name, args in (("json", base), ("csv", base), ("mc", mc)):
        fmt = "csv" if name == "csv" else "json"
        pair = []
        for run in range(2):
            out = tmp_path / f"report_{name}_{run}.{fmt}"
            rc = cli.main(args + ["--format", fmt, "--out", str(out)])
            assert rc == 0
            pair.append(out.read_bytes())
        outputs[name] = pair
    simulated = [e["strategy"] for e in json.loads(outputs["mc"][0])["entries"] if "mc" in e]
    assert simulated == ["replay_dos", "fdi", "replay_dos"]  # vulnerability_1/fdi is unbounded
    ok = all(a == b for a, b in outputs.values())
    _verdict(8, "repeated runs emit byte-identical reports", ok)
    assert ok, "report bytes differ between identical runs"
