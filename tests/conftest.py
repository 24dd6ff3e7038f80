import importlib
import pkgutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import stealthimpact
from stealthimpact import attacks, bundled_scenario_path, distrib, load_scenario
from stealthimpact.sysmodel import ControllerModel, PlantModel, SystemModel


# Property tests draw the same examples on every run and keep no example database.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

ACCEPTANCE_LINES: list = []


def pytest_configure(config):
    """Hypothesis stores what it still keeps (a cache of the tested modules'
    literals) in a directory removed after the run, not in .hypothesis/."""
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)
    config.add_cleanup(home.cleanup)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the normal test summary."""
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def package_exception_classes() -> list[type]:
    """Every exception class defined in a stealthimpact module, in module then source order."""
    found = []
    for info in sorted(pkgutil.iter_modules(stealthimpact.__path__), key=lambda i: i.name):
        module = importlib.import_module(f"stealthimpact.{info.name}")
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        ]
    return found


@pytest.fixture(scope="session")
def scenario():
    return load_scenario(bundled_scenario_path())


@pytest.fixture(scope="session")
def system(scenario):
    return scenario.system


def random_system(rng: np.random.Generator, n_x: int = 3, n_u: int = 2, n_yr: int = 1,
                  rho: float = 0.8) -> SystemModel:
    """Random stable closed loop for property tests; resamples degenerate draws."""
    for _ in range(50):
        A = rng.normal(size=(n_x, n_x))
        A *= rho / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
        B = rng.normal(size=(n_x, n_u))
        C = np.eye(n_x)
        sv = rng.normal(size=(n_x, n_x))
        sigma_v = sv @ sv.T + 0.05 * np.eye(n_x)
        sw = rng.normal(size=(n_x, n_x))
        sigma_w = 0.1 * (sw @ sw.T) + 0.02 * np.eye(n_x)
        L_xhat = 0.05 * rng.normal(size=(n_u, n_x))
        L_yr = rng.normal(size=(n_u, n_yr))
        Q_yr = np.diag(rng.uniform(0.5, 2.0, size=n_yr))
        try:
            plant = PlantModel(A=A, B=B, C=C, sigma_v=sigma_v, sigma_w=sigma_w)
            controller = ControllerModel(L_xhat=L_xhat, L_yr=L_yr, Q_yr=Q_yr)
            return SystemModel(plant=plant, controller=controller)
        except Exception:
            continue
    raise RuntimeError("failed to draw a stable random system")


def candidate_summary(scenario, cand, epsilon: float):
    """Gaussian summary at epsilon of one configuration of the scenario, at its horizon."""
    N = scenario.horizon
    layout = attacks.decision_layout(cand.attack, N, scenario.system.controller.Q_yr)
    return distrib.gaussian_summary(scenario.system, cand.attack, layout, scenario.q_z, N, epsilon)
