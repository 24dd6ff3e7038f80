"""Worst-case impact assessment of stealthy attacks on stochastic control loops.

The pipeline: model the closed loop (plant, steady-state estimator, feedback),
rewrite an attack strategy as routing and injection matrices, stack the
attacked dynamics into Gaussian laws for the critical states and detection
residuals, and maximize each critical mean under the stealthiness budget to
bound the exceedance probability and the expected worst excursion.

The package root holds the API that README documents; every other name is
imported from its own module (``stealthimpact.numcore.solve_dare``, say).
"""

from .attacks import ResourceSet, StrategySpec, build_attack, candidates
from .cli import assess
from .scenario import bundled_scenario_path, load_scenario
from .solver import ImpactReport

__version__ = "0.1.0"

__all__ = [
    "ImpactReport",
    "ResourceSet",
    "StrategySpec",
    "assess",
    "build_attack",
    "bundled_scenario_path",
    "candidates",
    "load_scenario",
]
