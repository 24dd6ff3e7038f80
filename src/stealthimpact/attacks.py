"""Attack strategies as one table of channel actions.

Every strategy is reduced to one tuple of matrices:

    lambda_y, lambda_u   multiplicative routing applied to sensors / actuators
    gamma_y, gamma_u     selectors channeling the injected signal a = [a_u; a_y]
    au_mode, ay_mode     what each injection block may do over the window:
                         FREE at every step, HELD at its step-0 value, or
                         PINNED to 0

plus the start step of the simulation window (negative when a recording phase
precedes the attack). ACTIONS says per kind what happens to the compromised
sensors and to the compromised actuators, and build_attack turns that row into
the tuple. Replay fits the same tuple: its recorded signal is one more sensor
injection through gamma_y, which the distribution engine derives from the
recording window. Strategies without injection channels carry zero-width
blocks so that downstream code has a single path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import numcore
from .sysmodel import DimensionMismatch, SystemDims

SUBSET_CAP = 2**12

# What an injection block may do over the attack window
FREE = "free"  # any value at every step
HELD = "held"  # its step-0 value at every step
PINNED = "pinned"  # 0 at every step

# What an attack does to the compromised channels of one type; FREE and HELD
# inject through gamma with that mode and leave the routing alone
DENY = "deny"  # routing 0
FLIP = "flip"  # routing -1
PERMUTE = "permute"  # routing permutes the compromised channels
REPLAY = "replay"  # routing 0, and the recording of [-N-1, -1] is injected, PINNED

# kind -> (sensor action, actuator action)
ACTIONS = {
    "dos": (DENY, DENY),
    "rerouting": (PERMUTE, PERMUTE),
    "sign_alternation": (FLIP, FLIP),
    "fdi": (FREE, FREE),
    "bias_injection": (HELD, HELD),
    "fdi_plus_dos": (FREE, DENY),
    "replay_bias": (REPLAY, HELD),
    "replay_dos": (REPLAY, DENY),
}
KINDS = tuple(ACTIONS)

# action -> (routing on the compromised channels, injection mode or None)
_EFFECTS = {
    DENY: (0.0, None),
    FLIP: (-1.0, None),
    REPLAY: (0.0, PINNED),
    FREE: (1.0, FREE),
    HELD: (1.0, HELD),
}


def _check_kind(kind: str) -> None:
    if kind not in ACTIONS:
        raise ValueError(f"unknown strategy kind {kind!r}; expected one of {KINDS}")


class InvalidPermutation(ValueError):
    """Permutation moves a channel outside the compromised set."""


class EmptyResources(ValueError):
    """Strategy requires at least one compromised channel."""


class EnumerationCapExceeded(ValueError):
    """Worst-case search would exceed the combination cap."""


@dataclass(frozen=True)
class ResourceSet:
    """Compromised sensor and actuator channels, 0-based and sorted."""

    sensors: tuple[int, ...] = ()
    actuators: tuple[int, ...] = ()

    def __post_init__(self):
        for name, idx in (("sensors", self.sensors), ("actuators", self.actuators)):
            if len(set(idx)) != len(idx):
                raise ValueError(f"duplicate {name} indices: {idx}")
            if any(i < 0 for i in idx):
                raise ValueError(f"negative {name} index")
        object.__setattr__(self, "sensors", tuple(sorted(self.sensors)))
        object.__setattr__(self, "actuators", tuple(sorted(self.actuators)))

    def validate(self, dims: SystemDims) -> None:
        if any(i >= dims.n_y for i in self.sensors):
            raise ValueError(f"sensor index out of range (n_y={dims.n_y}): {self.sensors}")
        if any(i >= dims.n_u for i in self.actuators):
            raise ValueError(f"actuator index out of range (n_u={dims.n_u}): {self.actuators}")


@dataclass(frozen=True)
class StrategySpec:
    """One strategy template: the kind and the channels it may compromise."""

    kind: str
    resources: ResourceSet

    def __post_init__(self):
        _check_kind(self.kind)


@dataclass
class AttackMatrices:
    lambda_y: np.ndarray
    lambda_u: np.ndarray
    gamma_y: np.ndarray
    gamma_u: np.ndarray
    start_step: int
    au_mode: str = FREE
    ay_mode: str = FREE

    @property
    def n_ay(self) -> int:
        return self.gamma_y.shape[1]

    @property
    def n_au(self) -> int:
        return self.gamma_u.shape[1]

    @property
    def n_a(self) -> int:
        return self.n_au + self.n_ay

    @property
    def has_recording(self) -> bool:
        return self.start_step < 0


@dataclass(frozen=True)
class DecisionLayout:
    """Shape of the decision vector d = [a(0); ...; a(N); y_r].

    Q is the reference box map; the columns of Z are an orthonormal basis of
    the decision vectors the injection modes admit.
    """

    dim_d: int
    n_a: int
    n_yr: int
    horizon: int
    Q: np.ndarray
    Z: np.ndarray

    def split(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (a_seq of shape (N+1, n_a), y_r)."""
        d = np.asarray(d, dtype=float)
        if d.shape != (self.dim_d,):
            raise DimensionMismatch(f"decision vector must have length {self.dim_d}")
        n_blk = (self.horizon + 1) * self.n_a
        return d[:n_blk].reshape(self.horizon + 1, self.n_a), d[n_blk:]


def _selector(n: int, idx: Iterable[int]) -> np.ndarray:
    idx = tuple(idx)
    G = np.zeros((n, len(idx)))
    for col, j in enumerate(idx):
        G[j, col] = 1.0
    return G


def identity_routing(n_y: int, n_u: int) -> AttackMatrices:
    """No-attack configuration: identity routing, no channels, no constraints."""
    return AttackMatrices(
        lambda_y=np.eye(n_y),
        lambda_u=np.eye(n_u),
        gamma_y=_selector(n_y, ()),
        gamma_u=_selector(n_u, ()),
        start_step=0,
    )


def _permutation_matrix(n: int, compromised: tuple[int, ...], pi: Optional[dict[int, int]]):
    pi = dict(pi or {})
    for dst, src in pi.items():
        if dst not in compromised or src not in compromised:
            raise InvalidPermutation(
                f"permutation entry {dst}<-{src} moves a channel outside {compromised}"
            )
    full = {i: pi.get(i, i) for i in range(n)}
    if sorted(full.values()) != list(range(n)):
        raise InvalidPermutation(f"mapping {pi} is not a bijection on {compromised}")
    M = np.zeros((n, n))
    for dst, src in full.items():
        M[dst, src] = 1.0
    return M


def _channel(action: str, n: int, idx: tuple[int, ...], pi: Optional[dict[int, int]]):
    """(routing, injection selector, injection mode) of one channel type under action."""
    if action == PERMUTE:
        return _permutation_matrix(n, idx, pi), _selector(n, ()), FREE
    routing, mode = _EFFECTS[action]
    lam = np.eye(n)
    lam[list(idx), list(idx)] = routing
    return lam, _selector(n, idx if mode else ()), mode or FREE


def build_attack(
    kind: str,
    resources: ResourceSet,
    dims: SystemDims,
    N: int,
    pi_y: Optional[dict[int, int]] = None,
    pi_u: Optional[dict[int, int]] = None,
) -> AttackMatrices:
    """The attack matrices of ACTIONS[kind] on the compromised channels.

    pi_y / pi_u map destination channel -> source channel over the compromised
    set of a permute action; omitted, they leave the channels in place. A
    replay window starts N + 1 steps before the attack, while the recording is
    taken.
    """
    _check_kind(kind)
    resources.validate(dims)
    actions = ACTIONS[kind]
    if not resources.sensors and not resources.actuators and set(actions) <= {FREE, HELD}:
        raise EmptyResources("injection requires at least one compromised channel")
    lam_y, gam_y, ay_mode = _channel(actions[0], dims.n_y, resources.sensors, pi_y)
    lam_u, gam_u, au_mode = _channel(actions[1], dims.n_u, resources.actuators, pi_u)
    return AttackMatrices(
        lambda_y=lam_y,
        lambda_u=lam_u,
        gamma_y=gam_y,
        gamma_u=gam_u,
        start_step=-N - 1 if REPLAY in actions else 0,
        au_mode=au_mode,
        ay_mode=ay_mode,
    )


def decision_layout(attack: AttackMatrices, N: int, Q_yr: np.ndarray) -> DecisionLayout:
    """Box map and admissible basis over d = [a(0); ...; a(N); y_r].

    Z has one column of 1/sqrt(N+1) over all steps per held channel, one
    unit column per free channel and step, none for a pinned channel, and the
    identity on y_r. The columns have disjoint supports, so Z is orthonormal,
    and it is the identity when every channel is free.
    """
    Q_yr = np.asarray(Q_yr, dtype=float)
    n_yr = Q_yr.shape[0]
    n_a = attack.n_a
    n_blk = (N + 1) * n_a
    modes = [attack.au_mode] * attack.n_au + [attack.ay_mode] * attack.n_ay
    if not set(modes) <= {FREE, HELD, PINNED}:
        raise ValueError(f"unknown injection mode in {sorted(set(modes))}")
    dim_d = n_blk + n_yr
    numcore.require_addressable((dim_d, dim_d), f"decision dimension {dim_d}")
    # channel j of a(k) is entry k * n_a + j; free columns keep that order
    eye = np.eye(dim_d)
    held = [
        eye[:, j:n_blk:n_a].sum(axis=1, keepdims=True) / np.sqrt(N + 1)
        for j, mode in enumerate(modes)
        if mode == HELD
    ]
    free = eye[:, :n_blk][:, [mode == FREE for mode in modes] * (N + 1)]
    Z = np.hstack(held + [free, eye[:, n_blk:]])
    Q = np.hstack([np.zeros((n_yr, n_blk)), Q_yr])
    Q.flags.writeable = Z.flags.writeable = False  # one layout serves every configuration of a pair
    return DecisionLayout(dim_d=dim_d, n_a=n_a, n_yr=n_yr, horizon=N, Q=Q, Z=Z)


# ---------------------------------------------------------------------------
# Worst-case candidate enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """One concrete attack configuration inside a strategy's search space."""

    variant: Optional[dict]
    attack: AttackMatrices


def _subsets(idx: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(c for r in range(len(idx) + 1) for c in itertools.combinations(idx, r))


def _permutations(idx: tuple[int, ...]) -> list[dict[int, int]]:
    return [dict(zip(idx, p)) for p in itertools.permutations(idx)]


def candidates(spec: StrategySpec, dims: SystemDims, N: int) -> list[Candidate]:
    """Concrete attack configurations to evaluate for one strategy.

    A kind that only denies or flips searches all non-empty sub-subsets of
    the granted resources (the attacker may leave channels untouched), sorted;
    one that permutes searches all permutation pairs other than
    identity/identity. Every other kind has a single configuration. Each
    count is checked against SUBSET_CAP before anything is enumerated.
    """
    res = spec.resources
    res.validate(dims)
    kind = spec.kind
    actions = set(ACTIONS[kind])
    if actions <= {DENY, FLIP}:
        count = 2 ** len(res.sensors) * 2 ** len(res.actuators) - 1
        if count > SUBSET_CAP:
            raise EnumerationCapExceeded(f"{count} subset combinations exceed the cap {SUBSET_CAP}")
        return [
            Candidate({"sensors": sy, "actuators": su}, build_attack(kind, ResourceSet(sy, su), dims, N))
            for sy in _subsets(res.sensors)
            for su in _subsets(res.actuators)
            if sy or su
        ]
    if PERMUTE in actions:
        count = math.factorial(len(res.sensors)) * math.factorial(len(res.actuators)) - 1
        if not count:
            raise EmptyResources("rerouting needs two or more sensors or two or more actuators")
        if count > SUBSET_CAP:
            raise EnumerationCapExceeded(f"{count} permutation pairs exceed the cap {SUBSET_CAP}")
        # itertools.permutations yields the identity first, so identity/identity leads
        pairs = [(py, pu) for py in _permutations(res.sensors) for pu in _permutations(res.actuators)][1:]
        return [
            Candidate({"pi_y": py, "pi_u": pu}, build_attack(kind, res, dims, N, pi_y=py, pi_u=pu))
            for py, pu in pairs
        ]
    return [Candidate(None, build_attack(kind, res, dims, N))]
