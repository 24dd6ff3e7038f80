import concurrent.futures
import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from stealthimpact import attacks, distrib, mcvalidate, numcore
from stealthimpact.sysmodel import DimensionMismatch
from oracles import nominal_long_run, reference_simulate, stacked_covariances


def _plant_state(system):
    """The identity on the plant state, as a critical map on the extended state."""
    return np.eye(system.plant.n_x, 2 * system.plant.n_x)


def _fdi_setup(system, N=4, sensors=(0,), actuators=(0, 1)):
    res = attacks.ResourceSet(sensors=sensors, actuators=actuators)
    atk = attacks.build_attack("fdi", res, system.dims, N)
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    return atk, layout


def test_config_validation():
    for samples in (0, 1):  # the statistics use ddof=1
        with pytest.raises(ValueError, match="at least 2"):
            mcvalidate.SimulationConfig(samples=samples, seed=0, horizon=4)


def test_split_decision_length_check(system):
    atk, layout = _fdi_setup(system)
    cfg = mcvalidate.SimulationConfig(samples=10, seed=0, horizon=4)
    with pytest.raises(DimensionMismatch):
        mcvalidate.simulate(system, atk, np.zeros(layout.dim_d + 1), cfg, _plant_state(system))


def test_simulate_reproducible(system, scenario):
    atk, layout = _fdi_setup(system)
    rng = np.random.default_rng(0)
    d = 0.05 * rng.normal(size=layout.dim_d)
    cfg = mcvalidate.SimulationConfig(samples=500, seed=42, horizon=4)
    one = mcvalidate.simulate(system, atk, d, cfg, q_z=scenario.q_z)
    two = mcvalidate.simulate(system, atk, d, cfg, q_z=scenario.q_z)
    assert np.array_equal(one.z_mean, two.z_mean)
    assert np.array_equal(one.r_cov, two.r_cov)
    assert one.e_inf_norm == two.e_inf_norm
    three = mcvalidate.simulate(
        system, atk, d, mcvalidate.SimulationConfig(samples=500, seed=43, horizon=4), q_z=scenario.q_z
    )
    assert not np.array_equal(one.z_mean, three.z_mean)


def _attack(system, kind, N):
    res = attacks.ResourceSet(sensors=(0, 1), actuators=(2,))
    return attacks.build_attack("replay_dos" if kind == "replay" else kind, res, system.dims, N)


def _check_against_reference(system, scenario, kind, critical, samples=2_000):
    N = 4
    atk = _attack(system, kind, N)
    if kind == "replay":
        assert atk.start_step < 0 and atk.has_recording
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    d = 0.2 * np.random.default_rng(1).normal(size=layout.dim_d)
    # "none" is the identity on the plant state; "plant" reads the plant state only
    plant_rows = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0], [1.0, -0.5, 0.0, 0.0, 0.0, 0.0]])
    q_z = {"none": _plant_state(system), "plant": plant_rows, "extended": scenario.q_z}[critical]
    cfg = mcvalidate.SimulationConfig(samples=samples, seed=17, horizon=N)
    got = mcvalidate.simulate(system, atk, d, cfg, q_z=q_z)
    want = reference_simulate(system, atk, d, cfg, q_z=q_z)
    assert np.array_equal(got.exceed_freq, want.exceed_freq)
    for field in dataclasses.fields(mcvalidate.EmpiricalSummary):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.shape(a) == np.shape(b), field.name
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12, err_msg=field.name)


@pytest.mark.parametrize("critical", ["none", "plant", "extended"])
@pytest.mark.parametrize("kind", ["fdi", "dos", "bias_injection", "replay"])
def test_simulate_matches_sample_major_reference(system, scenario, kind, critical):
    """The feature-major loop keeps the block streams and the statistics."""
    _check_against_reference(system, scenario, kind, critical)


@pytest.mark.parametrize("kind", ["fdi", "dos", "bias_injection", "replay"])
def test_simulate_matches_sample_major_reference_across_blocks(system, scenario, monkeypatch, kind):
    """Blocks of 700 samples, the last of 600, each on its own stream, keep the statistics."""
    monkeypatch.setattr(mcvalidate, "_BLOCK", 700)
    _check_against_reference(system, scenario, kind, "extended")


@pytest.mark.parametrize("samples", [14, 15])
@pytest.mark.parametrize("kind", ["fdi", "replay"])
def test_simulate_merges_blocks_like_one_pass(system, scenario, monkeypatch, kind, samples):
    """Blocks of 7: two full blocks, or a last block of one sample, whose cross-product is zero."""
    monkeypatch.setattr(mcvalidate, "_BLOCK", 7)
    _check_against_reference(system, scenario, kind, "extended", samples)


def test_simulate_memory_does_not_grow_with_samples(system, scenario, monkeypatch):
    """Each block is reduced to its statistics on its thread, so 16 blocks peak where 4 do.

    The peaks differ by less than one block's z, |z| and r buffers; a
    simulator that kept z and r for every sample would differ by 12 blocks'
    z and r.
    """
    N = 4
    atk, layout = _fdi_setup(system, N)
    d = 0.1 * np.random.default_rng(4).normal(size=layout.dim_d)
    monkeypatch.setattr(mcvalidate, "_BLOCK", 1_024)
    mcvalidate.simulate(system, atk, d, mcvalidate.SimulationConfig(2, 0, N), scenario.q_z)  # first-call imports
    peaks = []
    for blocks in (4, 16):
        cfg = mcvalidate.SimulationConfig(blocks * mcvalidate._BLOCK, 0, N)
        tracemalloc.start()
        try:
            mcvalidate.simulate(system, atk, d, cfg, scenario.q_z)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    rows = 2 * N * scenario.q_z.shape[0] + (N + 1) * system.plant.n_y
    assert abs(peaks[1] - peaks[0]) < 8 * rows * mcvalidate._BLOCK


def test_simulate_matches_analytic_fdi(system, scenario):
    N = 4
    atk, layout = _fdi_setup(system, N)
    summary = distrib.gaussian_summary(system, atk, layout, scenario.q_z, N, scenario.epsilon)
    rng = np.random.default_rng(5)
    d = 0.1 * rng.normal(size=layout.dim_d)
    cfg = mcvalidate.SimulationConfig(samples=30_000, seed=3, horizon=N)
    sim = mcvalidate.simulate(system, atk, d, cfg, q_z=scenario.q_z)
    mu_z = summary.t_z @ d
    mu_r = summary.t_r @ d
    assert np.all(np.abs(sim.z_mean - mu_z) <= 4.0 * sim.z_mean_se)
    assert np.all(np.abs(sim.r_mean - mu_r) <= 4.0 * sim.r_mean_se)
    sigma_z, _ = stacked_covariances(system, atk, scenario.q_z, N)
    assert np.max(np.abs(sim.z_cov - sigma_z)) < 0.02
    # exceedance frequencies against the Gaussian law, binomial error bars
    p = numcore.gaussian_exceed(mu_z, summary.sigma)
    band = 3.0 * np.maximum(sim.exceed_se, 1e-4)
    assert np.all(np.abs(sim.exceed_freq - p) <= band)


def test_simulate_matches_analytic_replay(system, scenario):
    N = 3
    res = attacks.ResourceSet(sensors=(0, 1), actuators=(2,))
    atk = attacks.build_attack("replay_dos", res, system.dims, N)
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    summary = distrib.gaussian_summary(system, atk, layout, scenario.q_z, N, scenario.epsilon)
    d = np.zeros(layout.dim_d)
    d[-3:] = [0.6, -0.3, 0.2]
    cfg = mcvalidate.SimulationConfig(samples=30_000, seed=7, horizon=N)
    sim = mcvalidate.simulate(system, atk, d, cfg, q_z=scenario.q_z)
    assert sim.z_mean.shape[0] == summary.t_z.shape[0]
    assert np.all(np.abs(sim.z_mean - summary.t_z @ d) <= 4.0 * sim.z_mean_se)
    assert np.all(np.abs(sim.r_mean - summary.t_r @ d) <= 4.0 * sim.r_mean_se)
    sigma_z, _ = stacked_covariances(system, atk, scenario.q_z, N)
    assert np.max(np.abs(sim.z_cov - sigma_z)) < 0.02


def test_nominal_residuals_white(system, scenario):
    """Identity routing leaves the whitened residuals standard normal."""
    N = 3
    atk = attacks.build_attack("dos", attacks.ResourceSet(), system.dims, N)
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    d = np.array([0.5, 0.5, 0.5])  # reference only
    cfg = mcvalidate.SimulationConfig(samples=30_000, seed=11, horizon=N)
    sim = mcvalidate.simulate(system, atk, d, cfg, q_z=scenario.q_z)
    assert np.all(np.abs(sim.r_mean) <= 4.0 * sim.r_mean_se)
    assert np.max(np.abs(sim.r_cov - np.eye(sim.r_mean.shape[0]))) < 0.05


def _kl_check(system, atk, d, summary, cfg):
    """Simulate at d and take kl_verdict against the summary's residual map and radius."""
    sim = mcvalidate.simulate(system, atk, d, cfg, _plant_state(system))
    return mcvalidate.kl_verdict(sim, summary.t_r, d, summary.eps_prime, summary.epsilon, cfg.horizon)


def test_kl_check_feasible_point(system):
    N = 4
    atk, layout = _fdi_setup(system, N)
    cfg = mcvalidate.SimulationConfig(samples=20_000, seed=2, horizon=N)
    summary = distrib.gaussian_summary(system, atk, layout, _plant_state(system), N, 0.3)
    check = _kl_check(system, atk, np.zeros(layout.dim_d), summary, cfg)
    assert check.analytic_ok
    assert check.empirical_ok
    assert check.consistent
    assert bool(check)
    assert check.quad_value == pytest.approx(0.0, abs=1e-12)


def _scaled_injection(system, atk, layout, N, target_quad):
    """Injection-only decision vector with a prescribed quadratic value, and the summary at 0.3."""
    ext_summary = distrib.gaussian_summary(
        system, atk, layout, _plant_state(system), N, 0.3
    )
    rng = np.random.default_rng(9)
    d = np.zeros(layout.dim_d)
    d[: layout.dim_d - layout.n_yr] = rng.normal(size=layout.dim_d - layout.n_yr)
    quad0 = float(np.square(ext_summary.t_r @ d).sum())
    return d * np.sqrt(target_quad / quad0), ext_summary


def test_kl_check_boundary_defers_to_analytic(system):
    N = 4
    atk, layout = _fdi_setup(system, N)
    cfg = mcvalidate.SimulationConfig(samples=20_000, seed=4, horizon=N)
    # place the point exactly on the budget boundary
    d, summary = _scaled_injection(system, atk, layout, N, target_quad=1.0)
    d = d * np.sqrt(summary.eps_prime)
    check = _kl_check(system, atk, d, summary, cfg)
    assert check.quad_value == pytest.approx(check.radius, rel=1e-9)
    assert check.analytic_ok
    assert check.consistent


def test_kl_check_rejects_oversized_injection(system):
    N = 4
    atk, layout = _fdi_setup(system, N)
    cfg = mcvalidate.SimulationConfig(samples=20_000, seed=6, horizon=N)
    d, summary = _scaled_injection(system, atk, layout, N, target_quad=1.0)
    d = d * np.sqrt(3.0 * summary.eps_prime)
    check = _kl_check(system, atk, d, summary, cfg)
    assert not check.analytic_ok
    assert not check.empirical_ok
    assert check.consistent
    assert check.empirical_rate > check.epsilon


def test_nominal_long_run_matches_stationary_law(system):
    y_r = np.array([0.5, 0.2, -0.3])
    t_0, sigma_0 = distrib.stationary_law(system.nominal, system.sigma_f)
    mean, se = nominal_long_run(system, y_r, steps=200_000, burn_in=5_000, seed=1)
    expected = t_0 @ y_r
    assert np.all(np.abs(mean - expected) <= 5.0 * np.maximum(se, 1e-6))


def test_nominal_long_run_guards(system):
    with pytest.raises(ValueError, match="batch"):
        nominal_long_run(system, np.zeros(3), steps=150, burn_in=100, batches=100)


_CALLER = "simulate-caller"  # the thread _run_bounded runs simulate on


class _WatchedRng:
    """Generator stand-in that keeps a copy of each draw and can fail at one call."""

    def __init__(self, rng, watch, fail_at=None, wait=False):
        self.rng, self.watch, self.fail_at, self.wait, self.draws = rng, watch, fail_at, wait, []

    def standard_normal(self, *, out):
        if self.wait:  # hold this block until the other thread's block has failed
            assert self.watch.failed.wait(30), "the other thread's block did not fail"
            self.wait = False
        if len(self.draws) + 1 == self.fail_at:
            self.watch.failed.set()
            raise RuntimeError("draw failed")
        self.rng.standard_normal(out=out)
        self.draws.append(out.copy())


class _BlockWatch:
    """Stand-in for mcvalidate._block_rng that notes which thread takes which block.

    The caller and the helper meet at their first block, so each runs at least
    one. With fail_on set to "caller" or "helper", that thread's first block
    raises at its fail_at-th draw, and the other thread's first block waits
    for the failure before it draws.
    """

    def __init__(self, fail_on=None, fail_at=None):
        self.real, self.fail_on, self.fail_at = mcvalidate._block_rng, fail_on, fail_at
        self.taken, self.rngs = [], {}  # (thread, block, active threads) per block taken
        self.met, self.failed = threading.Barrier(2, timeout=30), threading.Event()

    def __call__(self, seed, j):
        who = "caller" if threading.current_thread().name == _CALLER else "helper"
        first = who not in {t for t, _, _ in self.taken}
        self.taken.append((who, j, threading.active_count()))
        if first:
            self.met.wait()
        fail_at = self.fail_at if first and who == self.fail_on else None
        wait = first and self.fail_on not in (None, who)
        self.rngs[j] = _WatchedRng(self.real(seed, j), self, fail_at, wait)
        return self.rngs[j]

    def threads(self):
        return sorted(t for t, _, _ in self.taken)


def _watch_blocks(monkeypatch, block, **fail):
    """Cut the samples into blocks of `block` and route each block's generator through a _BlockWatch."""
    monkeypatch.setattr(mcvalidate, "_BLOCK", block)
    watch = _BlockWatch(**fail)
    monkeypatch.setattr(mcvalidate, "_block_rng", watch)
    return watch


def _run_bounded(fn, timeout=60.0):
    """fn() on a watched thread: fails the test instead of hanging on a lost wake-up."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed to the test thread below
            outcome["error"] = exc

    t = threading.Thread(target=target, name=_CALLER)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "simulate did not return"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.mark.parametrize("kind", ["fdi", "replay"])
def test_simulate_consumes_the_documented_draw_order(system, scenario, monkeypatch, kind):
    """Block j's draws are the sequential draws of SFC64 on child j of SeedSequence(seed), in the documented shapes."""
    N, n_s, seed = 3, 257, 5
    atk = _attack(system, kind, N)
    assert (atk.start_step < 0) == (kind == "replay")
    layout = attacks.decision_layout(atk, N, system.controller.Q_yr)
    d = 0.2 * np.random.default_rng(2).normal(size=layout.dim_d)
    cfg = mcvalidate.SimulationConfig(n_s, seed, N)
    watch = _watch_blocks(monkeypatch, 100)  # blocks of 100, 100 and 57 samples
    got = _run_bounded(lambda: mcvalidate.simulate(system, atk, d, cfg, q_z=scenario.q_z))

    n_x, n_y = system.plant.n_x, system.plant.n_y
    steps = N + 1 - atk.start_step
    assert sorted(watch.rngs) == [0, 1, 2]
    children = np.random.SeedSequence(seed).spawn(3)
    for j, m in enumerate([100, 100, 57]):
        rng = np.random.Generator(np.random.SFC64(children[j]))
        shapes = [(m, 2 * n_x)] + [(m, n_y), (m, n_x)] * (steps - 1) + [(m, n_y)]
        draws = watch.rngs[j].draws
        assert [a.shape for a in draws] == shapes, j
        for i, (a, shape) in enumerate(zip(draws, shapes)):
            assert np.array_equal(a, rng.standard_normal(shape)), (j, i)
    want = reference_simulate(system, atk, d, cfg, q_z=scenario.q_z)
    np.testing.assert_allclose(got.r_cov, want.r_cov, rtol=1e-9, atol=1e-12)


def test_simulate_joins_its_one_helper_thread(system, monkeypatch):
    atk = _attack(system, "replay", 4)
    layout = attacks.decision_layout(atk, 4, system.controller.Q_yr)
    before = threading.active_count()
    watch = _watch_blocks(monkeypatch, 16)  # 7 blocks, the last of 4 samples
    _run_bounded(lambda: mcvalidate.simulate(
        system, atk, np.zeros(layout.dim_d), mcvalidate.SimulationConfig(100, 0, 4), _plant_state(system)
    ))
    assert threading.active_count() == before
    assert {n for _, _, n in watch.taken} == {before + 2}  # the bounded runner and the helper
    assert set(watch.threads()) == {"caller", "helper"}
    assert sorted(j for _, j, _ in watch.taken) == list(range(7))


def test_simulate_joins_the_helper_when_the_loop_raises(system, monkeypatch):
    """A block that fails on the caller: the helper finishes its block, takes no other, and is joined."""
    atk, layout = _fdi_setup(system, N=6)
    before = threading.active_count()
    watch = _watch_blocks(monkeypatch, 16, fail_on="caller", fail_at=4)
    with pytest.raises(RuntimeError, match="draw failed"):
        _run_bounded(lambda: mcvalidate.simulate(
            system, atk, np.zeros(layout.dim_d), mcvalidate.SimulationConfig(100, 0, 6), _plant_state(system)
        ))
    assert threading.active_count() == before
    assert watch.threads() == ["caller", "helper"]  # one block each of 7


@pytest.mark.parametrize("fail_at", [1, 2, 13])
def test_simulate_raises_the_helpers_exception(system, monkeypatch, fail_at):
    """A block that fails on the helper, at its initial, first and last process-noise draw, reaches the caller."""
    atk, layout = _fdi_setup(system, N=6)  # a block draws its initial state, 7 w and 6 v blocks
    before = threading.active_count()
    watch = _watch_blocks(monkeypatch, 16, fail_on="helper", fail_at=fail_at)
    with pytest.raises(RuntimeError, match="draw failed"):
        _run_bounded(lambda: mcvalidate.simulate(
            system, atk, np.zeros(layout.dim_d), mcvalidate.SimulationConfig(100, 0, 6), _plant_state(system)
        ))
    assert threading.active_count() == before
    assert watch.threads() == ["caller", "helper"]  # the caller took no block after the failure
    (helper_block,) = [j for t, j, _ in watch.taken if t == "helper"]
    assert len(watch.rngs[helper_block].draws) == fail_at - 1


class _IdleExecutor:
    """ThreadPoolExecutor stand-in whose worker never runs: every block falls to the caller."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn):
        done = concurrent.futures.Future()
        done.set_result(None)
        return done


def test_simulate_is_bit_identical_with_every_block_on_the_caller(system, scenario, monkeypatch):
    """Which thread ran a block changes no bit, with the threads switching as often as they can."""
    atk = _attack(system, "replay", 4)
    layout = attacks.decision_layout(atk, 4, system.controller.Q_yr)
    d = 0.2 * np.random.default_rng(3).normal(size=layout.dim_d)
    cfg = mcvalidate.SimulationConfig(1_003, 8, 4)
    watch = _watch_blocks(monkeypatch, 8)  # 126 blocks, the last of 3 samples
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = _run_bounded(lambda: mcvalidate.simulate(system, atk, d, cfg, q_z=scenario.q_z))
    finally:
        sys.setswitchinterval(interval)
    assert set(watch.threads()) == {"caller", "helper"}
    assert sorted(j for _, j, _ in watch.taken) == list(range(126))  # each block once
    monkeypatch.setattr(mcvalidate, "_block_rng", watch.real)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _IdleExecutor)
    alone = mcvalidate.simulate(system, atk, d, cfg, q_z=scenario.q_z)
    for field in dataclasses.fields(mcvalidate.EmpiricalSummary):
        assert np.array_equal(getattr(shared, field.name), getattr(alone, field.name)), field.name
