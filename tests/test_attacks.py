import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from stealthimpact import attacks
from stealthimpact.attacks import FREE, HELD, PINNED
from stealthimpact.sysmodel import SystemDims
from conftest import random_system
from oracles import dense_admissible_basis

DIMS = SystemDims(n_x=3, n_y=3, n_u=4, n_yr=3)


def _basis(layout):
    """The layout's admissible basis Z, column by column: the lift of each unit coordinate."""
    return layout.lift(np.eye(layout.held.size + layout.free.size)).T


def _equality_map(atk, N, n_yr=3):
    """Equality rows on d = [a(0..N); y_r] built from the admissible basis:
    F d = 0 iff d lies in span(Z)."""
    return linalg.null_space(_basis(attacks.decision_layout(atk, N, np.eye(n_yr))).T).T


def test_resource_set_sorts_and_validates():
    res = attacks.ResourceSet(sensors=(2, 0), actuators=(3,))
    assert res.sensors == (0, 2)
    with pytest.raises(ValueError, match="duplicate"):
        attacks.ResourceSet(sensors=(1, 1))
    with pytest.raises(ValueError, match="negative"):
        attacks.ResourceSet(actuators=(-1,))
    with pytest.raises(ValueError, match="out of range"):
        attacks.ResourceSet(sensors=(5,)).validate(DIMS)


def test_dos_zeroes_diagonal():
    res = attacks.ResourceSet(sensors=(1,), actuators=(0, 2))
    atk = attacks.build_attack("dos", res, DIMS, 4)
    assert np.allclose(atk.lambda_y, np.diag([1.0, 0.0, 1.0]))
    assert np.allclose(atk.lambda_u, np.diag([0.0, 1.0, 0.0, 1.0]))
    assert atk.n_a == 0
    layout = attacks.decision_layout(atk, 4, np.eye(3))
    assert np.array_equal(layout.free, np.arange(3)) and layout.held.size == 0
    assert not atk.has_recording


def test_sign_alternation_flips():
    res = attacks.ResourceSet(sensors=(0,), actuators=(1,))
    atk = attacks.build_attack("sign_alternation", res, DIMS, 2)
    assert atk.lambda_y[0, 0] == -1.0
    assert atk.lambda_u[1, 1] == -1.0
    assert np.allclose(np.abs(atk.lambda_y), np.eye(3))


def test_rerouting_permutation():
    res = attacks.ResourceSet(sensors=(0, 1))
    atk = attacks.build_attack("rerouting", res, DIMS, 2, pi_y={0: 1, 1: 0}, pi_u=None)
    expected = np.eye(3)[[1, 0, 2]]
    assert np.allclose(atk.lambda_y, expected)
    assert np.allclose(atk.lambda_u, np.eye(4))


def test_rerouting_rejects_escaping_permutation():
    res = attacks.ResourceSet(sensors=(0, 1))
    with pytest.raises(attacks.InvalidPermutation):
        attacks.build_attack("rerouting", res, DIMS, 2, pi_y={0: 2, 2: 0})


def test_rerouting_rejects_non_bijection():
    res = attacks.ResourceSet(sensors=(0, 1))
    with pytest.raises(attacks.InvalidPermutation):
        attacks.build_attack("rerouting", res, DIMS, 2, pi_y={0: 1, 1: 1})


def test_fdi_channels():
    res = attacks.ResourceSet(sensors=(0, 2), actuators=(1,))
    N = 3
    atk = attacks.build_attack("fdi", res, DIMS, N)
    assert (atk.n_au, atk.n_ay, atk.n_a) == (1, 2, 3)
    assert np.allclose(atk.lambda_y, np.eye(3))
    assert atk.gamma_y.shape == (3, 2)
    assert atk.gamma_y[0, 0] == 1.0 and atk.gamma_y[2, 1] == 1.0
    assert atk.gamma_u[1, 0] == 1.0
    # every channel is free: the admissible basis is the identity
    layout = attacks.decision_layout(atk, N, np.eye(3))
    assert np.array_equal(layout.free, np.arange((N + 1) * 3 + 3)) and layout.held.size == 0


def test_fdi_requires_resources():
    for kind in ("fdi", "bias_injection"):
        with pytest.raises(attacks.EmptyResources, match="injection requires at least one compromised channel"):
            attacks.build_attack(kind, attacks.ResourceSet(), DIMS, 2)


def test_bias_constancy_rows():
    res = attacks.ResourceSet(sensors=(0,), actuators=(1,))
    N = 3
    atk = attacks.build_attack("bias_injection", res, DIMS, N)
    n_a = atk.n_a
    F = _equality_map(atk, N)
    assert F.shape == (N * n_a, (N + 1) * n_a + 3)
    # a constant stacked signal is in the null space, a varying one is not
    a0 = np.array([0.7, -0.3])
    const = np.concatenate([np.tile(a0, N + 1), [0.2, -1.0, 0.5]])
    assert np.allclose(F @ const, 0.0)
    varying = const.copy()
    varying[(N + 1) * n_a - 1] += 1.0
    assert np.linalg.norm(F @ varying) > 0.5


def test_fdi_plus_dos_combines():
    """Injection on the compromised sensors, denial of the compromised actuators."""
    res = attacks.ResourceSet(sensors=(0,), actuators=(1,))
    atk = attacks.build_attack("fdi_plus_dos", res, DIMS, 2)
    assert np.array_equal(atk.lambda_y, np.eye(3))
    assert atk.gamma_y[0, 0] == 1.0
    assert atk.n_ay == 1 and atk.n_au == 0
    assert atk.lambda_u[1, 1] == 0.0
    assert np.count_nonzero(np.diag(atk.lambda_u)) == 3


def test_fdi_plus_dos_without_sensors_is_denial():
    res = attacks.ResourceSet(actuators=(0, 2))
    atk = attacks.build_attack("fdi_plus_dos", res, DIMS, 2)
    dos = attacks.build_attack("dos", res, DIMS, 2)
    for field, value in vars(dos).items():
        assert np.array_equal(getattr(atk, field), value), field


def test_replay_recording_maps(system):
    """Replay records over the N + 1 steps before the window, so its law starts there."""
    N = 4
    for kind, res in (
        ("replay_dos", attacks.ResourceSet(sensors=(0, 1), actuators=())),
        ("replay_bias", attacks.ResourceSet(sensors=(), actuators=(2,))),
    ):
        atk = attacks.build_attack(kind, res, system.dims, N)
        assert atk.start_step == -N - 1
        assert atk.has_recording


def test_replay_dos_pins_injection():
    sys_model = random_system(np.random.default_rng(9))
    N = 3
    res = attacks.ResourceSet(sensors=(0,), actuators=(1,))
    atk = attacks.build_attack("replay_dos", res, sys_model.dims, N)
    # replayed sensors are cut from the live path but carried by gamma_y
    assert atk.lambda_y[0, 0] == 0.0
    assert atk.gamma_y[0, 0] == 1.0
    # denied actuator, no actuator injection channel
    assert atk.lambda_u[1, 1] == 0.0
    assert atk.n_au == 0
    # every injected coordinate is pinned to the recording (deterministic part 0):
    # the equality rows span exactly the injected block
    F = _equality_map(atk, N)
    n_blk = (N + 1) * atk.n_ay
    assert F.shape[0] == n_blk
    assert np.allclose(F.T @ F, np.diag([1.0] * n_blk + [0.0] * 3))


def test_replay_bias_constraints():
    sys_model = random_system(np.random.default_rng(10))
    N = 2
    res = attacks.ResourceSet(sensors=(0,), actuators=(0, 1))
    atk = attacks.build_attack("replay_bias", res, sys_model.dims, N)
    assert (atk.n_au, atk.n_ay) == (2, 1)
    n_a = atk.n_a
    F = _equality_map(atk, N)
    # constant actuator part with pinned sensor part satisfies the equalities
    d = np.zeros((N + 1) * n_a + 3)
    for k in range(N + 1):
        d[k * n_a : k * n_a + 2] = [0.4, -0.2]
    d[-3:] = [1.0, -0.5, 0.3]
    assert np.allclose(F @ d, 0.0)
    # nonzero sensor part violates the pinning rows
    d[2] = 1.0
    assert np.linalg.norm(F @ d) > 0.5


def test_decision_layout_shapes():
    res = attacks.ResourceSet(sensors=(0,), actuators=(1,))
    N = 3
    atk = attacks.build_attack("bias_injection", res, DIMS, N)
    layout = attacks.decision_layout(atk, N, 0.4 * np.eye(3))
    assert layout.dim_d == (N + 1) * 2 + 3
    assert layout.Q.shape == (3, layout.dim_d)
    # box rows touch only the reference block
    assert np.allclose(layout.Q[:, : (N + 1) * 2], 0.0)
    assert np.allclose(layout.Q[:, (N + 1) * 2 :], 0.4 * np.eye(3))
    d = np.arange(layout.dim_d, dtype=float)
    a_seq, y_r = layout.split(d)
    assert a_seq.shape == (N + 1, 2)
    assert y_r.shape == (3,)
    assert np.allclose(a_seq[0], [0.0, 1.0])
    assert np.allclose(y_r, [8.0, 9.0, 10.0])


# (actuator mode, sensor mode) per kind; None where the kind has no such injection block
_MODES = {
    "dos": (None, None),
    "rerouting": (None, None),
    "sign_alternation": (None, None),
    "fdi": (FREE, FREE),
    "bias_injection": (HELD, HELD),
    "fdi_plus_dos": (None, FREE),
    "replay_bias": (HELD, PINNED),
    "replay_dos": (None, PINNED),
}


@pytest.mark.parametrize("N", [1, 10, 50])
@pytest.mark.parametrize("kind", attacks.KINDS)
def test_admissible_basis(kind, N):
    """Z is orthonormal, each column holds held channels constant and pinned ones
    at 0, and the column count is the dimension of the admissible set."""
    res = attacks.ResourceSet(sensors=(0, 2), actuators=(1, 3))
    for cand in attacks.candidates(attacks.StrategySpec(kind, res), DIMS, N):
        atk = cand.attack
        modes = _MODES[kind]
        assert (atk.n_au == 0) == (modes[0] is None) and (atk.n_ay == 0) == (modes[1] is None)
        Z = _basis(attacks.decision_layout(atk, N, np.eye(3)))
        assert np.max(np.abs(Z.T @ Z - np.eye(Z.shape[1]))) <= 1e-15
        a_cols = Z[: (N + 1) * atk.n_a].T.reshape(Z.shape[1], N + 1, atk.n_a)  # column, step, channel
        channel_modes = [modes[0]] * atk.n_au + [modes[1]] * atk.n_ay
        for j, mode in enumerate(channel_modes):
            if mode == HELD:
                assert np.array_equal(a_cols[:, :, j], np.repeat(a_cols[:, :1, j], N + 1, axis=1))
            elif mode == PINNED:
                assert not a_cols[:, :, j].any()
        free_dim = 3 + sum({FREE: N + 1, HELD: 1, PINNED: 0}[m] for m in channel_modes)
        assert Z.shape == ((N + 1) * atk.n_a + 3, free_dim)


@pytest.mark.parametrize("N", [1, 2, 10, 50])
@pytest.mark.parametrize("kind", attacks.KINDS)
def test_layout_applies_the_dense_basis(kind, N):
    """lift is Z xi and reduce is m Z, with Z the dense oracle formed column by column.

    lift and the free columns of reduce move single entries, so they agree
    bit for bit. A held column sums N+1 entries in another order than the
    matrix product, so it agrees to 4 ulp of the sum of the magnitudes it
    adds, the scale of either order's rounding. reduce returns C order, as
    the product does: the SVDs and products that read it round by its
    layout.
    """
    res = attacks.ResourceSet(sensors=(0, 2), actuators=(1, 3))
    rng = np.random.default_rng(N)
    eps = np.finfo(float).eps
    for cand in attacks.candidates(attacks.StrategySpec(kind, res), DIMS, N):
        layout = attacks.decision_layout(cand.attack, N, np.eye(3))
        Z = dense_admissible_basis(cand.attack, N, 3)
        n_held = layout.held.size
        assert Z.shape == (layout.dim_d, n_held + layout.free.size)
        xi = rng.normal(size=(2, 3, Z.shape[1]))
        assert np.array_equal(layout.lift(xi), xi @ Z.T)
        assert np.array_equal(layout.lift(xi[0, 0]), Z @ xi[0, 0])
        m = rng.normal(size=(2, 5, layout.dim_d))
        got, want = layout.reduce(m), m @ Z
        assert got.shape == want.shape and got.flags.c_contiguous
        assert layout.reduce(m[0]).flags.c_contiguous
        assert np.array_equal(got[..., n_held:], want[..., n_held:])
        scale = (np.abs(m) @ np.abs(Z))[..., :n_held]
        assert np.all(np.abs(got[..., :n_held] - want[..., :n_held]) <= 4 * eps * scale)


@pytest.mark.parametrize("kind", ["fdi", "bias_injection"])
def test_layout_memory_is_linear_in_the_horizon(kind):
    """At N = 10^6 a layout holds n_yr + 1 numbers per decision entry, where Z would take 116 TiB.

    Its box map takes n_yr float64 per entry, and its indices at most one
    int64 more; building it takes no more than that either.
    """
    N = 10**6
    atk = attacks.build_attack(kind, attacks.ResourceSet(sensors=(0, 2), actuators=(1, 3)), DIMS, N)
    tracemalloc.start()
    try:
        layout = attacks.decision_layout(atk, N, np.eye(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_entry = 8 * (layout.n_yr + 1)
    assert layout.dim_d == (N + 1) * 4 + 3
    assert layout.Q.nbytes + layout.free.nbytes + layout.held.nbytes <= per_entry * layout.dim_d
    assert peak <= per_entry * layout.dim_d + 2**20


def test_candidate_enumeration_dos():
    spec = attacks.StrategySpec(kind="dos", resources=attacks.ResourceSet(sensors=(0, 1), actuators=(2,)))
    cands = attacks.candidates(spec, DIMS, N=2)
    # (2^2 sensor subsets) x (2^1 actuator subsets) minus the empty/empty pair
    assert len(cands) == 7
    variants = [c.variant for c in cands]
    assert variants == sorted(variants, key=lambda v: (v["sensors"], v["actuators"]))
    assert variants[0] == {"sensors": (), "actuators": (2,)}


def test_candidate_enumeration_rerouting_excludes_identity():
    spec = attacks.StrategySpec(kind="rerouting", resources=attacks.ResourceSet(sensors=(0, 1), actuators=(0, 1)))
    cands = attacks.candidates(spec, DIMS, N=2)
    # 2 sensor perms x 2 actuator perms minus identity/identity
    assert len(cands) == 3
    for c in cands:
        py, pu = c.variant["pi_y"], c.variant["pi_u"]
        assert not (all(k == v for k, v in py.items()) and all(k == v for k, v in pu.items()))


def test_rerouting_needs_two_channels_of_one_type():
    spec = attacks.StrategySpec(kind="rerouting", resources=attacks.ResourceSet(sensors=(0,), actuators=(1,)))
    with pytest.raises(attacks.EmptyResources):
        attacks.candidates(spec, DIMS, N=2)


def test_candidate_enumeration_single_config_strategies():
    res = attacks.ResourceSet(sensors=(0,), actuators=(1,))
    for kind in ("fdi", "bias_injection"):
        spec = attacks.StrategySpec(kind=kind, resources=res)
        cands = attacks.candidates(spec, DIMS, N=2)
        assert len(cands) == 1
        assert cands[0].variant is None


def test_candidate_cap():
    spec = attacks.StrategySpec(
        kind="dos",
        resources=attacks.ResourceSet(sensors=tuple(range(7)), actuators=tuple(range(6))),
    )
    big = SystemDims(n_x=3, n_y=7, n_u=6, n_yr=3)
    with pytest.raises(attacks.EnumerationCapExceeded):
        attacks.candidates(spec, big, N=2)


def test_replay_candidates_from_dims():
    """Replay needs no loop to enumerate: its recording is derived downstream."""
    res = attacks.ResourceSet(sensors=(0,), actuators=(1,))
    for kind, n_au in (("replay_dos", 0), ("replay_bias", 1)):
        cands = attacks.candidates(attacks.StrategySpec(kind=kind, resources=res), DIMS, N=2)
        assert len(cands) == 1 and cands[0].variant is None
        atk = cands[0].attack
        assert atk.start_step == -3 and (atk.n_au, atk.n_ay) == (n_au, 1)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown strategy kind"):
        attacks.StrategySpec(kind="quantum", resources=attacks.ResourceSet())


def test_unknown_kind_rejected_by_builder():
    with pytest.raises(ValueError, match="unknown strategy kind"):
        attacks.build_attack("quantum", attacks.ResourceSet(sensors=(0,)), DIMS, 2)


class _CountingItertools:
    """Stands in for itertools inside attacks and counts every item enumerated."""

    def __init__(self):
        self.items = 0

    def _count(self, it):
        for item in it:
            self.items += 1
            yield item

    def permutations(self, idx):
        return self._count(itertools.permutations(idx))

    def combinations(self, idx, r):
        return self._count(itertools.combinations(idx, r))


@pytest.mark.parametrize(
    "kind,n_y,n_u,message",
    [
        ("rerouting", 6, 5, "86399 permutation pairs exceed the cap 4096"),
        ("rerouting", 7, 6, "3628799 permutation pairs exceed the cap 4096"),
        ("dos", 7, 6, "8191 subset combinations exceed the cap 4096"),
        ("sign_alternation", 0, 13, "8191 subset combinations exceed the cap 4096"),
    ],
    ids=["rerouting-6x5", "rerouting-7x6", "dos-7x6", "sign_alternation-0x13"],
)
def test_candidate_cap_checked_before_enumerating(monkeypatch, kind, n_y, n_u, message):
    """The cap compares a computed count, a!b! - 1 or 2^a 2^b - 1, before any pair is built."""
    counting = _CountingItertools()
    monkeypatch.setattr(attacks, "itertools", counting)
    res = attacks.ResourceSet(sensors=tuple(range(n_y)), actuators=tuple(range(n_u)))
    big = SystemDims(n_x=3, n_y=max(n_y, 1), n_u=max(n_u, 1), n_yr=3)
    with pytest.raises(attacks.EnumerationCapExceeded, match=message):
        attacks.candidates(attacks.StrategySpec(kind, res), big, N=2)
    assert counting.items <= attacks.SUBSET_CAP
