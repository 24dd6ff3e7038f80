"""Workload definitions: the ops of one pass and the scenario files they read.

One op is one in-process call of ``stealthimpact.cli.main(["assess", ...])``
on a scenario file the benchmark writes: the bundled ``benchmark.json`` with
``horizon`` replaced. The program never reads the bundled file directly, so
every input it sees comes from here.

This module imports nothing from the program, so the parent process can
generate inputs and check outputs without paying for the numpy/scipy import.
"""

from __future__ import annotations

import json
from pathlib import Path

BUNDLED_SCENARIO = Path("src") / "stealthimpact" / "data" / "benchmark.json"

DEFAULT_SEED = 0

# Criterion 6 of the acceptance suite sweeps epsilon over linspace(0.05, 0.95, 10).
EPS_LO, EPS_HI, EPS_COUNT = 0.05, 0.95, 10
LONG_HORIZON = 50

# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
NAMES = ("grid", "eps_sweep", "long_horizon", "mc_validate")


def eps_values() -> list[float]:
    """The epsilon values of ``eps_sweep``: criterion 6's ``linspace(0.05, 0.95, 10)``.

    They do not depend on the seed. The barrier solver's Newton step count
    jumps erratically with epsilon (one op takes 419 or 2019 steps at values
    5e-4 apart), so seed-drawn values would change a pass's work by more than
    the bounds the end-to-end metrics are held to.
    """
    width = (EPS_HI - EPS_LO) / (EPS_COUNT - 1)
    return [round(EPS_LO + i * width, 12) for i in range(EPS_COUNT)]


def build_pass(workload: str, seed: int, root: Path, run_dir: Path) -> dict:
    """Write the generated scenario file into ``run_dir`` and return the pass.

    The pass lists every op in the order they run: vulnerability, then
    strategy. An ``eps_sweep`` op is one ``assess --sweep eps`` call over all
    the epsilon values, which loads the scenario once and reports one entry
    per value.
    """
    base = json.loads((root / BUNDLED_SCENARIO).read_text())
    horizon = LONG_HORIZON if workload == "long_horizon" else base["horizon"]
    scenario = run_dir / "scenario.json"
    scenario.write_text(json.dumps(dict(base, horizon=horizon), indent=2))
    if workload == "eps_sweep":
        epsilons = eps_values()
        extra = ["--sweep", "eps", "--values", ",".join(repr(e) for e in epsilons)]
    else:
        epsilons = [base["epsilon"]]
        extra = []
    # The workload seed is the simulation seed; the default 0 is the scenario's own.
    mc_seed = seed if workload == "mc_validate" else None
    if mc_seed is not None:
        extra += ["--mc-validate", "--seed", str(mc_seed)]
    out = run_dir / "report.json"

    ops = []
    for vuln in base["vulnerabilities"]:
        for strategy in base["strategies"]:
            ops.append(
                {
                    "id": len(ops),
                    "vulnerability": vuln,
                    "strategy": strategy,
                    "epsilons": epsilons,
                    "horizon": horizon,
                    "argv": [
                        "assess",
                        "--scenario", str(scenario),
                        "--vulnerability", vuln,
                        "--strategy", strategy,
                        "--out", str(out),
                        *extra,
                    ],
                }
            )
    return {
        "workload": workload,
        "seed": seed,
        "src": str(root / "src"),
        "scenario": str(scenario),
        "out": str(out),
        "epsilons": epsilons,
        "horizon": horizon,
        "mc_seed": mc_seed,
        "ops": ops,
    }
