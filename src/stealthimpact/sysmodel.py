"""Plant, controller, and estimator models, and assembly of the closed loop.

The attacked loop couples the plant state x with the estimator state xhat into
an extended state x_e = [x; xhat] driven by noise f = [v; w], the constant
reference y_r, and the injected attack a = [a_u; a_y]:

    x_e(k+1) = A_cl x_e(k) + B_f f(k) + E_r y_r + G_a a(k)
    r(k)     = C_r x_e(k) + D_f f(k) + H_a a(k)

where r is the whitened residual. A replayed recording a_s is a sensor
injection too: it enters through the sensor columns of G_a and H_a. With
identity routing and no injection channels this reduces to the nominal loop,
which SystemModel keeps as its `nominal` ExtendedSystem.

assemble_extended builds the loops of a batch of configurations at once,
every block stacked along a leading configuration axis: the configurations
of a (vulnerability, strategy) pair are one batch, and the nominal loop is
the batch of one, through the same function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import numcore

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .attacks import AttackMatrices


class DimensionMismatch(ValueError):
    """Matrix shapes are mutually inconsistent."""


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


@dataclass
class PlantModel:
    """Discrete-time plant x(k+1) = A x + B u + v, y = C x + w."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    sigma_v: np.ndarray
    sigma_w: np.ndarray

    def __post_init__(self):
        self.A = _as_matrix(self.A, "A")
        self.B = _as_matrix(self.B, "B")
        self.C = _as_matrix(self.C, "C")
        self.sigma_v = _as_matrix(self.sigma_v, "sigma_v")
        self.sigma_w = _as_matrix(self.sigma_w, "sigma_w")
        n_x, n_u, n_y = self.n_x, self.n_u, self.n_y
        if self.A.shape != (n_x, n_x):
            raise DimensionMismatch("A must be square")
        if self.B.shape[0] != n_x:
            raise DimensionMismatch("B row count must match A")
        if self.C.shape[1] != n_x:
            raise DimensionMismatch("C column count must match A")
        if self.sigma_v.shape != (n_x, n_x):
            raise DimensionMismatch("sigma_v must be n_x x n_x")
        if self.sigma_w.shape != (n_y, n_y):
            raise DimensionMismatch("sigma_w must be n_y x n_y")
        for name, M in (("sigma_v", self.sigma_v), ("sigma_w", self.sigma_w)):
            is_pd, lowest = numcore.spd_check(M)
            if not is_pd:
                raise numcore.NotPositiveDefinite(f"{name} not positive definite (min eigenvalue {lowest:.3e})")
        with np.errstate(over="ignore", invalid="ignore"):
            powers = numcore.matrix_powers(self.A, n_x - 1)
            obs, ctrb = np.vstack(self.C @ powers), np.hstack(powers @ self.B)
        if not (np.all(np.isfinite(obs)) and np.all(np.isfinite(ctrb))):
            raise ValueError("observability or controllability matrix overflows")
        if numcore.matrix_rank(obs) < n_x:
            raise ValueError("(C, A) is not observable")
        if numcore.matrix_rank(ctrb) < n_x:
            raise ValueError("(B, A) is not controllable")

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


@dataclass
class ControllerModel:
    """Output-feedback tracking controller u = -L_xhat xhat + L_yr y_r.

    The admissible references satisfy the box bound on Q_yr y_r; Q_yr must be
    invertible for the bound to constrain every direction.
    """

    L_xhat: np.ndarray
    L_yr: np.ndarray
    Q_yr: np.ndarray

    def __post_init__(self):
        self.L_xhat = _as_matrix(self.L_xhat, "L_xhat")
        self.L_yr = _as_matrix(self.L_yr, "L_yr")
        self.Q_yr = _as_matrix(self.Q_yr, "Q_yr")
        if self.L_xhat.shape[0] != self.L_yr.shape[0]:
            raise DimensionMismatch("L_xhat and L_yr must agree on row count (n_u)")
        n_yr = self.L_yr.shape[1]
        if self.Q_yr.shape != (n_yr, n_yr):
            raise DimensionMismatch("Q_yr must be square with n_yr rows")
        if numcore.matrix_rank(self.Q_yr) < n_yr:
            raise ValueError("Q_yr must be invertible")

    @property
    def n_u(self) -> int:
        return self.L_xhat.shape[0]

    @property
    def n_yr(self) -> int:
        return self.L_yr.shape[1]


@dataclass
class EstimatorModel:
    """Steady-state Kalman filter: gain, covariances, and whitening factor."""

    K: np.ndarray
    sigma_e: np.ndarray
    sigma_r: np.ndarray
    sigma_r_invsqrt: np.ndarray


@dataclass
class ExtendedSystem:
    """Block matrices of the attacked closed loop (see module docstring).

    assemble_extended gives every block a leading configuration axis;
    indexing by a configuration gives that loop's 2-D blocks, as views.
    """

    A_cl: np.ndarray
    B_f: np.ndarray
    C_r: np.ndarray
    D_f: np.ndarray
    E_r: np.ndarray
    G_a: np.ndarray
    H_a: np.ndarray

    def __getitem__(self, i) -> "ExtendedSystem":
        return ExtendedSystem(
            self.A_cl[i], self.B_f[i], self.C_r[i], self.D_f[i], self.E_r[i], self.G_a[i], self.H_a[i]
        )

    @property
    def n_x(self) -> int:
        return self.A_cl.shape[-1] // 2

    @property
    def n_y(self) -> int:
        return self.C_r.shape[-2]

    @property
    def n_f(self) -> int:
        return self.B_f.shape[-1]

    @property
    def n_yr(self) -> int:
        return self.E_r.shape[-1]


@dataclass
class SystemDims:
    n_x: int
    n_y: int
    n_u: int
    n_yr: int


def build_estimator(plant: PlantModel) -> EstimatorModel:
    """Solve the steady-state filtering problem for the plant."""
    sigma_e = numcore.solve_dare(plant.A, plant.C, plant.sigma_v, plant.sigma_w)
    K, sigma_r = numcore.kalman_gain(plant.A, plant.C, sigma_e, plant.sigma_w)
    return EstimatorModel(
        K=K,
        sigma_e=sigma_e,
        sigma_r=sigma_r,
        sigma_r_invsqrt=numcore.sym_inv_sqrt(sigma_r),
    )


def assemble_extended(
    plant: PlantModel,
    controller: ControllerModel,
    estimator: EstimatorModel,
    attacks: "Sequence[AttackMatrices]",
) -> ExtendedSystem:
    """Assemble the attacked closed loops of a batch of configurations in one pass.

    The configurations' routing and selector matrices are stacked along a
    leading configuration axis, and every block of the module docstring is
    written into a preallocated array with that axis, each product batched
    over it (as numcore.matrix_powers takes a stacked A). Indexing the result
    gives one configuration's loop; a single configuration is a batch of one.
    The selectors of a batch must share their widths, which a
    (vulnerability, strategy) pair's configurations do: it is one kind on
    one resource set. Otherwise DimensionMismatch.
    """
    A, B, C = plant.A, plant.B, plant.C
    K, W = estimator.K, estimator.sigma_r_invsqrt
    n_x, n_y, n_u = plant.n_x, plant.n_y, plant.n_u
    if controller.n_u != n_u:
        raise DimensionMismatch("controller row count must match plant inputs")
    n_ay, n_au = attacks[0].gamma_y.shape[1], attacks[0].gamma_u.shape[1]
    for attack in attacks:
        if attack.lambda_y.shape != (n_y, n_y) or attack.lambda_u.shape != (n_u, n_u):
            raise DimensionMismatch("routing matrices must be n_y x n_y and n_u x n_u")
        if attack.gamma_y.shape[0] != n_y or attack.gamma_u.shape[0] != n_u:
            raise DimensionMismatch("selector matrices must have n_y / n_u rows")
        if attack.gamma_y.shape[1] != n_ay or attack.gamma_u.shape[1] != n_au:
            raise DimensionMismatch("configurations of one batch must share their injection widths")
    lam_y = np.stack([a.lambda_y for a in attacks])
    lam_u = np.stack([a.lambda_u for a in attacks])
    gam_y = np.stack([a.gamma_y for a in attacks])
    gam_u = np.stack([a.gamma_u for a in attacks])
    L_x, L_r = controller.L_xhat, controller.L_yr
    shape = (len(attacks),)

    A_cl = np.empty(shape + (2 * n_x, 2 * n_x))
    A_cl[:, :n_x, :n_x] = A
    A_cl[:, :n_x, n_x:] = -B @ lam_u @ L_x
    K_y = K @ lam_y
    A_cl[:, n_x:, :n_x] = K_y @ C
    A_cl[:, n_x:, n_x:] = A - K @ C - B @ L_x
    B_f = np.zeros(shape + (2 * n_x, n_x + n_y))
    B_f[:, :n_x, :n_x] = np.eye(n_x)
    B_f[:, n_x:, n_x:] = K_y
    outputs = np.empty(shape + (n_y, 2 * n_x))
    outputs[:, :, :n_x] = lam_y @ C
    outputs[:, :, n_x:] = -C
    D_f = np.zeros(shape + (n_y, n_x + n_y))
    D_f[:, :, n_x:] = W @ lam_y
    E_r = np.empty(shape + (2 * n_x, L_r.shape[1]))
    E_r[:, :n_x] = B @ lam_u @ L_r
    E_r[:, n_x:] = B @ L_r
    G_a = np.zeros(shape + (2 * n_x, n_au + n_ay))
    G_a[:, :n_x, :n_au] = B @ gam_u
    G_a[:, n_x:, n_au:] = K @ gam_y
    H_a = np.zeros(shape + (n_y, n_au + n_ay))
    H_a[:, :, n_au:] = W @ gam_y
    return ExtendedSystem(A_cl=A_cl, B_f=B_f, C_r=W @ outputs, D_f=D_f, E_r=E_r, G_a=G_a, H_a=H_a)


@dataclass
class SystemModel:
    """Plant + controller + derived estimator, nominal loop and its stationary law.

    The nominal loop is the attacked loop under identity routing with no
    injection channels; sigma_f = diag(sigma_v, sigma_w) is its per-step noise
    covariance. The loop state starts from N(t_0 y_r, sigma_0); sqrt_sigma_0
    and sqrt_sigma_f are the symmetric square roots of sigma_0 and sigma_f.
    Building the stationary law checks the nominal loop's stability
    (UnstableMatrix).
    """

    plant: PlantModel
    controller: ControllerModel
    estimator: EstimatorModel = field(init=False)
    nominal: ExtendedSystem = field(init=False)
    sigma_f: np.ndarray = field(init=False)
    t_0: np.ndarray = field(init=False)
    sigma_0: np.ndarray = field(init=False)
    sqrt_sigma_0: np.ndarray = field(init=False)
    sqrt_sigma_f: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.controller.n_u != self.plant.n_u:
            raise DimensionMismatch("controller and plant disagree on input count")
        if self.controller.L_xhat.shape[1] != self.plant.n_x:
            raise DimensionMismatch("L_xhat column count must match plant state")
        # both modules import this one
        from .attacks import identity_routing
        from .distrib import stationary_law

        plant = self.plant
        self.estimator = build_estimator(plant)
        self.nominal = assemble_extended(
            plant, self.controller, self.estimator, [identity_routing(plant.n_y, plant.n_u)]
        )[0]
        self.sigma_f = np.zeros((plant.n_x + plant.n_y,) * 2)
        self.sigma_f[: plant.n_x, : plant.n_x] = plant.sigma_v
        self.sigma_f[plant.n_x :, plant.n_x :] = plant.sigma_w
        self.t_0, self.sigma_0 = stationary_law(self.nominal, self.sigma_f)
        self.sqrt_sigma_0 = numcore.sym_sqrt(self.sigma_0)
        self.sqrt_sigma_f = numcore.sym_sqrt(self.sigma_f)

    @property
    def dims(self) -> SystemDims:
        return SystemDims(
            n_x=self.plant.n_x,
            n_y=self.plant.n_y,
            n_u=self.plant.n_u,
            n_yr=self.controller.n_yr,
        )
