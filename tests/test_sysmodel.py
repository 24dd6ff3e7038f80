import numpy as np
import pytest

from stealthimpact import attacks, numcore, sysmodel
from conftest import random_system


def _fixture_plant():
    A = np.array([[0.96, 0.0, 0.0], [0.04, 0.97, 0.0], [-0.04, 0.0, 0.9]])
    B = np.array(
        [
            [8.8, -2.3, 0.0, 0.0],
            [0.2, 2.2, 4.9, 0.0],
            [-0.21, -2.2, 1.9, 21.0],
        ]
    )
    return sysmodel.PlantModel(
        A=A, B=B, C=np.eye(3), sigma_v=0.05 * np.eye(3), sigma_w=0.01 * np.eye(3)
    )


def test_plant_dims():
    plant = _fixture_plant()
    assert (plant.n_x, plant.n_u, plant.n_y) == (3, 4, 3)


def test_plant_rejects_bad_shapes():
    with pytest.raises(sysmodel.DimensionMismatch):
        sysmodel.PlantModel(
            A=np.eye(2),
            B=np.ones((3, 1)),
            C=np.eye(2),
            sigma_v=np.eye(2),
            sigma_w=np.eye(2),
        )
    with pytest.raises(sysmodel.DimensionMismatch):
        sysmodel.PlantModel(
            A=np.eye(2),
            B=np.ones((2, 1)),
            C=np.eye(2),
            sigma_v=np.eye(3),
            sigma_w=np.eye(2),
        )


def test_plant_rejects_indefinite_noise():
    with pytest.raises(numcore.NotPositiveDefinite):
        sysmodel.PlantModel(
            A=0.5 * np.eye(2),
            B=np.ones((2, 1)),
            C=np.eye(2),
            sigma_v=np.diag([1.0, -1.0]),
            sigma_w=np.eye(2),
        )


def test_plant_rejects_unobservable():
    # second state never reaches the output and is untouched by the first
    A = np.diag([0.5, 0.6])
    C = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match="observable"):
        sysmodel.PlantModel(A=A, B=np.eye(2), C=C, sigma_v=np.eye(2), sigma_w=np.eye(1))


def test_plant_rejects_uncontrollable():
    A = np.diag([0.5, 0.6])
    B = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError, match="controllable"):
        sysmodel.PlantModel(A=A, B=B, C=np.eye(2), sigma_v=np.eye(2), sigma_w=np.eye(2))


def test_estimator_innovations():
    plant = _fixture_plant()
    est = sysmodel.build_estimator(plant)
    # whitening factor inverts the innovation covariance
    W = est.sigma_r_invsqrt
    assert np.allclose(W @ est.sigma_r @ W, np.eye(3), atol=1e-10)
    assert numcore.dare_residual(plant.A, plant.C, plant.sigma_v, plant.sigma_w, est.sigma_e) <= 1e-9


def test_extended_blocks_identity_routing():
    sys = random_system(np.random.default_rng(0))
    plant, ctrl, est = sys.plant, sys.controller, sys.estimator
    ext = sysmodel.assemble_extended(
        plant, ctrl, est, attacks.identity_routing(plant.n_y, plant.n_u)
    )
    n_x = plant.n_x
    # top-left block is the open-loop A, estimator block uses A - KC - B L_xhat
    assert np.allclose(ext.A_cl[:n_x, :n_x], plant.A)
    assert np.allclose(
        ext.A_cl[n_x:, n_x:], plant.A - est.K @ plant.C - plant.B @ ctrl.L_xhat
    )
    assert np.allclose(ext.A_cl[:n_x, n_x:], -plant.B @ ctrl.L_xhat)
    assert np.allclose(ext.A_cl[n_x:, :n_x], est.K @ plant.C)
    # residual reads the whitened estimation error
    assert np.allclose(ext.C_r, est.sigma_r_invsqrt @ np.hstack([plant.C, -plant.C]))
    # identity routing carries no injection channels
    assert ext.G_a.shape == (2 * n_x, 0)


def test_extended_nominal_residual_is_white():
    """Closing the nominal loop leaves the residual with identity covariance.

    The stationary covariance of the extended state yields the residual
    covariance C_r S C_r' + C_r X D_f' + D_f X' C_r' + D_f Sigma_f D_f' where
    X is the stationary cross term E[x_e f']; for the Kalman loop this must be
    the identity after whitening.
    """
    sys = random_system(np.random.default_rng(1))
    nom = sys.nominal
    n = nom.A_cl.shape[0]
    S = numcore.solve_lyapunov(nom.A_cl, nom.B_f @ sys.sigma_f @ nom.B_f.T)
    ext = sysmodel.assemble_extended(
        sys.plant, sys.controller, sys.estimator, attacks.identity_routing(sys.plant.n_y, sys.plant.n_u)
    )
    # residual at step k uses noise f(k), which is independent of x_e(k)
    cov_r = ext.C_r @ S @ ext.C_r.T + ext.D_f @ sys.sigma_f @ ext.D_f.T
    assert np.allclose(cov_r, np.eye(sys.plant.n_y), atol=1e-8)


def test_nominal_loop_stable_fixture():
    sys = random_system(np.random.default_rng(4))
    assert numcore.spectral_radius(sys.nominal.A_cl) < 1.0
    n_x, n_y = sys.plant.n_x, sys.plant.n_y
    assert sys.sigma_f.shape == (n_x + n_y, n_x + n_y)
    assert np.allclose(sys.sigma_f[:n_x, :n_x], sys.plant.sigma_v)
    assert np.allclose(sys.sigma_f[n_x:, n_x:], sys.plant.sigma_w)


def test_system_model_dims(system):
    dims = system.dims
    assert (dims.n_x, dims.n_y, dims.n_u, dims.n_yr) == (3, 3, 4, 3)


def test_system_model_rejects_mismatched_controller():
    plant = _fixture_plant()
    ctrl = sysmodel.ControllerModel(
        L_xhat=np.zeros((2, 3)), L_yr=np.zeros((2, 3)), Q_yr=np.eye(3)
    )
    with pytest.raises(sysmodel.DimensionMismatch):
        sysmodel.SystemModel(plant=plant, controller=ctrl)


def test_controller_rejects_singular_box():
    with pytest.raises(ValueError, match="invertible"):
        sysmodel.ControllerModel(
            L_xhat=np.zeros((2, 3)),
            L_yr=np.zeros((2, 2)),
            Q_yr=np.zeros((2, 2)),
        )
