"""Scenario files: schema validation and model construction.

A scenario is a single JSON document holding the plant and controller
matrices, the critical map, the horizon and stealthiness budget, named
vulnerability resource sets (1-based indices in the file), strategy names,
and Monte Carlo settings. A ready-to-run benchmark scenario ships with the
package.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Union

import numpy as np

from . import numcore
from .attacks import KINDS, ResourceSet
from .sysmodel import (
    ControllerModel,
    DimensionMismatch,
    PlantModel,
    SystemModel,
)


class ParseError(ValueError):
    """The file could not be read or is not valid JSON."""


class SchemaError(ValueError):
    """A field is missing, has the wrong type, or violates a value constraint."""


class DimensionError(ValueError):
    """Matrix dimensions are mutually inconsistent."""


@dataclass
class Scenario:
    name: str
    system: SystemModel
    q_z: np.ndarray
    horizon: int
    epsilon: float
    vulnerabilities: dict[str, ResourceSet]
    strategies: tuple[str, ...]
    mc_samples: int
    mc_seed: int


def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where} must be an object")
    if key not in mapping:
        raise SchemaError(f"missing field '{where}.{key}'" if where else f"missing field '{key}'")
    return mapping[key]


def _matrix(obj, where: str) -> np.ndarray:
    for row in obj if isinstance(obj, list) else ():
        for x in row if isinstance(row, list) else ():
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise SchemaError(f"{where} is not a numeric matrix: entry {x!r} is not a number")
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where} is not a numeric matrix: {exc}") from None
    if arr.ndim != 2:
        raise SchemaError(f"{where} must be a 2-d nested array, got {arr.ndim} dimensions")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{where} contains non-finite entries")
    return arr


def _index_list(obj, where: str, upper: int) -> tuple[int, ...]:
    if not isinstance(obj, list):
        raise SchemaError(f"{where} must be a list of 1-based indices")
    out = []
    for item in obj:
        if not isinstance(item, int) or isinstance(item, bool):
            raise SchemaError(f"{where} entries must be integers, got {item!r}")
        if not 1 <= item <= upper:
            raise SchemaError(f"{where} index {item} out of range 1..{upper}")
        out.append(item - 1)
    if len(set(out)) != len(out):
        raise SchemaError(f"{where} contains duplicate indices")
    return tuple(sorted(out))


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load, validate, and assemble a scenario file.

    Raises ParseError for unreadable or malformed JSON, SchemaError for
    value-level violations (missing fields, indefinite noise, bad indices),
    and DimensionError when matrix shapes disagree.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path} at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")

    name = doc.get("name", path.stem)
    if not isinstance(name, str) or not name:
        raise SchemaError("name must be a non-empty string")

    plant_doc = _require(doc, "plant", "")
    ctrl_doc = _require(doc, "controller", "")
    try:
        plant = PlantModel(
            A=_matrix(_require(plant_doc, "A", "plant"), "plant.A"),
            B=_matrix(_require(plant_doc, "B", "plant"), "plant.B"),
            C=_matrix(_require(plant_doc, "C", "plant"), "plant.C"),
            sigma_v=_matrix(_require(plant_doc, "sigma_v", "plant"), "plant.sigma_v"),
            sigma_w=_matrix(_require(plant_doc, "sigma_w", "plant"), "plant.sigma_w"),
        )
        controller = ControllerModel(
            L_xhat=_matrix(_require(ctrl_doc, "L_xhat", "controller"), "controller.L_xhat"),
            L_yr=_matrix(_require(ctrl_doc, "L_yr", "controller"), "controller.L_yr"),
            Q_yr=_matrix(_require(ctrl_doc, "Q_yr", "controller"), "controller.Q_yr"),
        )
        system = SystemModel(plant=plant, controller=controller)
    except DimensionMismatch as exc:
        raise DimensionError(str(exc)) from None
    except numcore.NotPositiveDefinite as exc:
        raise SchemaError(str(exc)) from None
    except (numcore.NonConvergence, numcore.UnstableClosedLoop, numcore.UnstableMatrix):
        raise
    except ValueError as exc:
        raise SchemaError(str(exc)) from None

    q_z = _matrix(_require(doc, "critical_map", ""), "critical_map")
    if q_z.shape[1] not in (plant.n_x, 2 * plant.n_x):
        raise DimensionError(
            f"critical_map must have {plant.n_x} or {2 * plant.n_x} columns, got {q_z.shape[1]}"
        )
    zero_rows = np.flatnonzero(~q_z.any(axis=1))
    if zero_rows.size:
        raise SchemaError(f"critical_map row {zero_rows[0] + 1} is all zeros")
    if q_z.shape[1] == plant.n_x:  # a map on the plant state reads none of the estimate
        q_z = np.hstack([q_z, np.zeros_like(q_z)])

    horizon = _require(doc, "horizon", "")
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise SchemaError("horizon must be an integer >= 1")
    epsilon = _require(doc, "epsilon", "")
    # json reads Infinity and NaN, and 1e400 as inf; the last test rejects them all
    if (
        not isinstance(epsilon, (int, float))
        or isinstance(epsilon, bool)
        or not 0 <= epsilon <= sys.float_info.max
    ):
        raise SchemaError("epsilon must be a finite number >= 0")

    vuln_doc = _require(doc, "vulnerabilities", "")
    if not isinstance(vuln_doc, dict) or not vuln_doc:
        raise SchemaError("vulnerabilities must be a non-empty object")
    vulnerabilities: dict[str, ResourceSet] = {}
    for vname, spec in vuln_doc.items():
        where = f"vulnerabilities.{vname}"
        if not isinstance(spec, dict):
            raise SchemaError(f"{where} must be an object with sensors and actuators")
        sensors = _index_list(spec.get("sensors", []), f"{where}.sensors", plant.n_y)
        actuators = _index_list(spec.get("actuators", []), f"{where}.actuators", plant.n_u)
        if not sensors and not actuators:
            raise SchemaError(f"{where} names no sensors and no actuators")
        vulnerabilities[vname] = ResourceSet(sensors=sensors, actuators=actuators)

    strat_doc = _require(doc, "strategies", "")
    if not isinstance(strat_doc, list) or not strat_doc:
        raise SchemaError("strategies must be a non-empty list of names")
    for entry in strat_doc:
        if entry not in KINDS:
            raise SchemaError(f"unknown strategy '{entry}'; expected one of {sorted(KINDS)}")
    strategies = tuple(strat_doc)

    mc_doc = doc.get("mc", {})
    if not isinstance(mc_doc, dict):
        raise SchemaError("mc must be an object")
    mc_samples = mc_doc.get("samples", 100_000)
    mc_seed = mc_doc.get("seed", 0)
    for key, val in (("samples", mc_samples), ("seed", mc_seed)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 0:
            raise SchemaError(f"mc.{key} must be a nonnegative integer")
    if mc_samples < 1:
        raise SchemaError("mc.samples must be at least 1")

    return Scenario(
        name=name,
        system=system,
        q_z=q_z,
        horizon=horizon,
        epsilon=abs(float(epsilon)),  # -0.0 passes the test above and is read as 0
        vulnerabilities=vulnerabilities,
        strategies=strategies,
        mc_samples=mc_samples,
        mc_seed=mc_seed,
    )


def bundled_scenario_path() -> Path:
    """Filesystem path of the packaged benchmark scenario."""
    return Path(str(resources.files("stealthimpact").joinpath("data/benchmark.json")))
