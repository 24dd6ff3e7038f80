"""Attack-strategy constructors.

Every strategy is reduced to one tuple of matrices:

    lambda_y, lambda_u   multiplicative routing applied to sensors / actuators
    gamma_y, gamma_u     selectors channeling the injected signal a = [a_u; a_y]
    au_mode, ay_mode     what each injection block may do over the window:
                         FREE at every step, HELD at its step-0 value, or
                         PINNED to 0

plus the start step of the simulation window (negative when a recording phase
precedes the attack). Replay fits the same tuple: its recorded signal is one
more sensor injection through gamma_y, which the distribution engine derives
from the recording window. Strategies without injection channels carry
zero-width blocks so that downstream code has a single path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .sysmodel import DimensionMismatch, SystemDims

SUBSET_CAP = 2**12

# What an injection block may do over the attack window
FREE = "free"  # any value at every step
HELD = "held"  # its step-0 value at every step
PINNED = "pinned"  # 0 at every step

KINDS = (
    "dos",
    "rerouting",
    "sign_alternation",
    "fdi",
    "bias_injection",
    "fdi_plus_dos",
    "replay_bias",
    "replay_dos",
)


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
    """One strategy template: the kind plus any kind-specific parameters.

    pi_y / pi_u map destination channel -> source channel over the compromised
    set (rerouting). When pi maps are omitted for rerouting, the worst case
    over all admissible permutation pairs is searched.
    """

    kind: str
    resources: ResourceSet
    pi_y: Optional[dict[int, int]] = None
    pi_u: Optional[dict[int, int]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; expected one of {KINDS}")


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


def _no_injection(n: int) -> np.ndarray:
    return np.zeros((n, 0))


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
        gamma_y=_no_injection(n_y),
        gamma_u=_no_injection(n_u),
        start_step=0,
    )


def build_dos(res: ResourceSet, dims: SystemDims) -> AttackMatrices:
    """Denial of service: zero the compromised diagonal entries of the routing."""
    res.validate(dims)
    lam_y = np.eye(dims.n_y)
    lam_u = np.eye(dims.n_u)
    for i in res.sensors:
        lam_y[i, i] = 0.0
    for i in res.actuators:
        lam_u[i, i] = 0.0
    return AttackMatrices(
        lambda_y=lam_y,
        lambda_u=lam_u,
        gamma_y=_no_injection(dims.n_y),
        gamma_u=_no_injection(dims.n_u),
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


def build_rerouting(spec: StrategySpec, dims: SystemDims) -> AttackMatrices:
    """Permute compromised channels; non-compromised channels must stay fixed."""
    spec.resources.validate(dims)
    lam_y = _permutation_matrix(dims.n_y, spec.resources.sensors, spec.pi_y)
    lam_u = _permutation_matrix(dims.n_u, spec.resources.actuators, spec.pi_u)
    out = build_dos(ResourceSet(), dims)
    out.lambda_y, out.lambda_u = lam_y, lam_u
    return out


def build_sign_alternation(res: ResourceSet, dims: SystemDims) -> AttackMatrices:
    """Flip the sign of compromised channels."""
    res.validate(dims)
    out = build_dos(ResourceSet(), dims)
    for i in res.sensors:
        out.lambda_y[i, i] = -1.0
    for i in res.actuators:
        out.lambda_u[i, i] = -1.0
    return out


def build_fdi(res: ResourceSet, dims: SystemDims) -> AttackMatrices:
    """Unconstrained injection on the compromised channels."""
    res.validate(dims)
    if not res.sensors and not res.actuators:
        raise EmptyResources("injection requires at least one compromised channel")
    gam_y = _selector(dims.n_y, res.sensors)
    gam_u = _selector(dims.n_u, res.actuators)
    return AttackMatrices(
        lambda_y=np.eye(dims.n_y),
        lambda_u=np.eye(dims.n_u),
        gamma_y=gam_y,
        gamma_u=gam_u,
        start_step=0,
    )


def build_bias(res: ResourceSet, dims: SystemDims) -> AttackMatrices:
    """Constant injection: like FDI but with a(k) = a(0) over the window."""
    out = build_fdi(res, dims)
    out.au_mode = out.ay_mode = HELD
    return out


def build_fdi_plus_dos(res: ResourceSet, dims: SystemDims) -> AttackMatrices:
    """Injection on the compromised sensors, denial of the compromised actuators.

    Without compromised sensors the attack is denial only.
    """
    res.validate(dims)
    if res.sensors:
        out = build_fdi(ResourceSet(sensors=res.sensors), dims)
    else:
        out = build_dos(ResourceSet(), dims)
    for i in res.actuators:
        out.lambda_u[i, i] = 0.0
    return out


def build_replay(
    res: ResourceSet, dims: SystemDims, N: int, actuator_mode: str = "dos"
) -> AttackMatrices:
    """Record-then-replay on the compromised sensors.

    The attacker records the compromised channels of y over the window
    [-N-1, -1] while the loop runs nominally, then substitutes the recording
    for the live channels on [0, N]. Compromised actuators are either denied
    (actuator_mode="dos") or driven by one held injected value
    (actuator_mode="bias").

    lambda_y cuts the live compromised channels, and the recording, y(k-N-1)
    on those channels at attack step k, enters through gamma_y as a sensor
    injection whose deterministic part is pinned to zero. The distribution
    engine and the simulator derive it from the nominal loop.
    """
    if actuator_mode not in ("dos", "bias"):
        raise ValueError(f"actuator_mode must be 'dos' or 'bias', got {actuator_mode!r}")
    res.validate(dims)
    lam_y = np.eye(dims.n_y)
    for i in res.sensors:
        lam_y[i, i] = 0.0
    lam_u = np.eye(dims.n_u)
    if actuator_mode == "dos":
        for i in res.actuators:
            lam_u[i, i] = 0.0
        gam_u = _no_injection(dims.n_u)
    else:
        gam_u = _selector(dims.n_u, res.actuators)
    return AttackMatrices(
        lambda_y=lam_y,
        lambda_u=lam_u,
        gamma_y=_selector(dims.n_y, res.sensors),
        gamma_u=gam_u,
        start_step=-N - 1,
        au_mode=HELD,
        ay_mode=PINNED,
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
    # channel j of a(k) is entry k * n_a + j; free columns keep that order
    eye = np.eye(n_blk + n_yr)
    held = [
        eye[:, j:n_blk:n_a].sum(axis=1, keepdims=True) / np.sqrt(N + 1)
        for j, mode in enumerate(modes)
        if mode == HELD
    ]
    free = eye[:, :n_blk][:, [mode == FREE for mode in modes] * (N + 1)]
    Z = np.hstack(held + [free, eye[:, n_blk:]])
    Q = np.hstack([np.zeros((n_yr, n_blk)), Q_yr])
    return DecisionLayout(dim_d=n_blk + n_yr, n_a=n_a, n_yr=n_yr, horizon=N, Q=Q, Z=Z)


# ---------------------------------------------------------------------------
# Worst-case candidate enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """One concrete attack configuration inside a strategy's search space."""

    variant: Optional[dict]
    attack: AttackMatrices


def _subset_pairs(res: ResourceSet) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (sensor subset, actuator subset) pairs, non-empty union, sorted."""
    sy = [
        tuple(c)
        for r in range(len(res.sensors) + 1)
        for c in itertools.combinations(res.sensors, r)
    ]
    su = [
        tuple(c)
        for r in range(len(res.actuators) + 1)
        for c in itertools.combinations(res.actuators, r)
    ]
    pairs = [(a, b) for a in sy for b in su if a or b]
    pairs.sort()
    return pairs


def _permutation_pairs(res: ResourceSet):
    """All permutation pairs over the compromised sets except identity/identity."""
    def perms(idx: tuple[int, ...]):
        return [dict(zip(idx, p)) for p in itertools.permutations(idx)]

    out = []
    for py in perms(res.sensors):
        for pu in perms(res.actuators):
            if all(k == v for k, v in py.items()) and all(k == v for k, v in pu.items()):
                continue
            out.append((py, pu))
    return out


def candidates(spec: StrategySpec, dims: SystemDims, N: int) -> list[Candidate]:
    """Concrete attack configurations to evaluate for one strategy.

    Denial and sign flips search all non-empty sub-subsets of the granted
    resources (the attacker may leave channels untouched); rerouting searches
    all permutation pairs other than identity/identity unless the spec pins
    them. Injection-style strategies have a single configuration.
    """
    res = spec.resources
    res.validate(dims)
    kind = spec.kind
    if kind in ("dos", "sign_alternation"):
        pairs = _subset_pairs(res)
        if len(pairs) > SUBSET_CAP:
            raise EnumerationCapExceeded(
                f"{len(pairs)} subset combinations exceed the cap {SUBSET_CAP}"
            )
        build = build_dos if kind == "dos" else build_sign_alternation
        return [
            Candidate({"sensors": sy, "actuators": su}, build(ResourceSet(sy, su), dims))
            for sy, su in pairs
        ]
    if kind == "rerouting":
        if spec.pi_y is not None or spec.pi_u is not None:
            pairs = [(dict(spec.pi_y or {}), dict(spec.pi_u or {}))]
        else:
            pairs = _permutation_pairs(res)
            if not pairs:
                raise EmptyResources("rerouting needs two or more sensors or two or more actuators")
        if len(pairs) > SUBSET_CAP:
            raise EnumerationCapExceeded(
                f"{len(pairs)} permutation pairs exceed the cap {SUBSET_CAP}"
            )
        out = []
        for py, pu in pairs:
            sub = StrategySpec(kind="rerouting", resources=res, pi_y=py, pi_u=pu)
            out.append(Candidate({"pi_y": py, "pi_u": pu}, build_rerouting(sub, dims)))
        return out
    if kind == "fdi":
        return [Candidate(None, build_fdi(res, dims))]
    if kind == "bias_injection":
        return [Candidate(None, build_bias(res, dims))]
    if kind == "fdi_plus_dos":
        return [Candidate(None, build_fdi_plus_dos(res, dims))]
    if kind in ("replay_dos", "replay_bias"):
        mode = "dos" if kind == "replay_dos" else "bias"
        return [Candidate(None, build_replay(res, dims, N, actuator_mode=mode))]
    raise ValueError(f"unhandled strategy kind {kind!r}")
