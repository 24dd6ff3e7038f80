"""Seeded random scenarios beyond the bundled plant.

Each seed gives a 6-state plant with 4 inputs, 5 sensors and a 4-dimensional
reference (81 sign patterns of the reference box), two critical rows, two
vulnerabilities and all eight strategies, at epsilon 0.3:

* A is standard normal, scaled to spectral radius 0.85; B = 0.5 randn and
  C = randn;
* sigma_v = 0.02 (M M'/n + I) and sigma_w = 0.01 (M M'/n + I);
* L_xhat = 0.05 randn, L_yr = 0.3 randn and Q_yr = 0.5 I + 0.05 randn;
* each critical row puts 0.4 on one of two distinct random states;
* v1 holds sensors 1-3 and actuators 1-2, v2 sensor 4 and actuators 3-4.

Run as a script to print one scenario file:

    python tests/scenario_family.py SEED [HORIZON] > scenario.json
"""

import json
import sys

import numpy as np

from stealthimpact.attacks import KINDS

N_X, N_U, N_Y, N_YR = 6, 4, 5, 4


def _noise_cov(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T / n + np.eye(n))


def scenario_doc(seed: int, horizon: int = 10) -> dict:
    """The scenario document of one seed, at the given horizon."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(N_X, N_X))
    A *= 0.85 / np.max(np.abs(np.linalg.eigvals(A)))
    B = 0.5 * rng.normal(size=(N_X, N_U))
    C = rng.normal(size=(N_Y, N_X))
    sigma_v = _noise_cov(rng, N_X, 0.02)
    sigma_w = _noise_cov(rng, N_Y, 0.01)
    L_xhat = 0.05 * rng.normal(size=(N_U, N_X))
    L_yr = 0.3 * rng.normal(size=(N_U, N_YR))
    Q_yr = 0.5 * np.eye(N_YR) + 0.05 * rng.normal(size=(N_YR, N_YR))
    critical = np.zeros((2, N_X))
    critical[[0, 1], rng.choice(N_X, size=2, replace=False)] = 0.4
    return {
        "name": f"family_{seed}",
        "plant": {"A": A.tolist(), "B": B.tolist(), "C": C.tolist(),
                  "sigma_v": sigma_v.tolist(), "sigma_w": sigma_w.tolist()},
        "controller": {"L_xhat": L_xhat.tolist(), "L_yr": L_yr.tolist(), "Q_yr": Q_yr.tolist()},
        "critical_map": critical.tolist(),
        "horizon": horizon,
        "epsilon": 0.3,
        "vulnerabilities": {
            "v1": {"sensors": [1, 2, 3], "actuators": [1, 2]},
            "v2": {"sensors": [4], "actuators": [3, 4]},
        },
        "strategies": list(KINDS),
        "mc": {"samples": 2000, "seed": seed},
    }


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]]
    json.dump(scenario_doc(*args), sys.stdout, indent=1)
    sys.stdout.write("\n")
