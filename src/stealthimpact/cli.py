"""Batch assessment tool.

Loads a scenario, enumerates the concrete attack configurations of each
requested (vulnerability, strategy) pair, solves the per-index programs for
every configuration, keeps the worst one by exceedance probability, and emits
a JSON or CSV report. Reports are byte-deterministic for a fixed scenario and
seed unless wall-clock timings are requested.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numcore
from .attacks import (
    Candidate,
    EmptyResources,
    EnumerationCapExceeded,
    InvalidPermutation,
    ResourceSet,
    StrategySpec,
    candidates,
    decision_layout,
)
from .distrib import SigmaZNotPd, gaussian_summary, kl_divergence_gaussian
from .mcvalidate import SimulationConfig, simulate
from .scenario import (
    DimensionError,
    ParseError,
    Scenario,
    SchemaError,
    bundled_scenario_path,
    load_scenario,
)
from .solver import ImpactReport, NumericalFailure, PatternCapExceeded, compute_impact

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_ALL_ZERO = 4

_VALIDATION_ERRORS = (
    ParseError,
    SchemaError,
    DimensionError,
    EmptyResources,
    EnumerationCapExceeded,
    InvalidPermutation,
    PatternCapExceeded,
)
_NUMERICAL_ERRORS = (
    NumericalFailure,
    SigmaZNotPd,
    numcore.NonConvergence,
    numcore.UnstableClosedLoop,
    numcore.UnstableMatrix,
    numcore.NotPositiveDefinite,
    numcore.DegenerateVariance,
    np.linalg.LinAlgError,
)


@dataclass
class AssessmentEntry:
    """Worst-case outcome for one (vulnerability, strategy) pair."""

    vulnerability: str
    strategy: str
    variant: str
    horizon: int
    epsilon: float
    report: ImpactReport
    candidate: Candidate
    candidates_evaluated: int
    mc_block: Optional[dict] = None
    timing_s: Optional[float] = None


def _fmt_idx(indices) -> str:
    return "(" + ",".join(str(i + 1) for i in indices) + ")"


def _variant_label(cand: Candidate, resources) -> str:
    v = cand.variant
    if v is None:
        return f"sensors={_fmt_idx(resources.sensors)};actuators={_fmt_idx(resources.actuators)}"
    if "pi_y" in v:
        parts = []
        for name, pi in (("sensors", v["pi_y"]), ("actuators", v["pi_u"])):
            keys = sorted(pi)
            vals = [pi[k] for k in keys]
            parts.append(f"{name}{_fmt_idx(keys)}->{_fmt_idx(vals)}")
        return ";".join(parts)
    return f"sensors={_fmt_idx(v['sensors'])};actuators={_fmt_idx(v['actuators'])}"


def _evaluate_candidate(scenario: Scenario, cand: Candidate) -> ImpactReport:
    layout = decision_layout(cand.attack, scenario.horizon, scenario.system.controller.Q_yr)
    summary = gaussian_summary(
        scenario.system,
        cand.attack,
        layout,
        scenario.q_z,
        scenario.horizon,
        scenario.epsilon,
    )
    return compute_impact(summary, layout)


def assess(
    scenario: Scenario,
    vulnerability: str,
    strategy: str,
) -> AssessmentEntry:
    """Worst case over the strategy's configuration space for one vulnerability.

    Configurations are enumerated in a fixed lexicographic order and ranked by
    exceedance probability; the first maximizer wins. fdi_plus_dos injects on
    the vulnerability's sensors and denies its actuators.
    """
    resources = scenario.vulnerabilities[vulnerability]
    spec = StrategySpec(
        kind=strategy,
        resources=resources,
        inject=ResourceSet(sensors=resources.sensors),
        deny=ResourceSet(actuators=resources.actuators),
    )
    cands = candidates(
        spec,
        scenario.system.dims,
        scenario.horizon,
        plant=scenario.system.plant,
        nominal=scenario.system.nominal,
    )
    reports = [_evaluate_candidate(scenario, c) for c in cands]

    best = 0
    for i in range(1, len(reports)):
        if reports[i].exceed_prob > reports[best].exceed_prob:
            best = i
    return AssessmentEntry(
        vulnerability=vulnerability,
        strategy=strategy,
        variant=_variant_label(cands[best], resources),
        horizon=scenario.horizon,
        epsilon=scenario.epsilon,
        report=reports[best],
        candidate=cands[best],
        candidates_evaluated=len(cands),
    )


def _mc_block(scenario: Scenario, entry: AssessmentEntry, seed: int) -> Optional[dict]:
    """Simulation cross-check at the entry's worst decision vector."""
    report = entry.report
    if not report.feasible or report.unbounded:
        return None
    d = report.d_star[report.argmax_exceed]
    cfg = SimulationConfig(
        samples=scenario.mc_samples, seed=seed, horizon=entry.horizon
    )
    attack = entry.candidate.attack
    layout = decision_layout(attack, entry.horizon, scenario.system.controller.Q_yr)
    summary = gaussian_summary(
        scenario.system, attack, layout, scenario.q_z, entry.horizon, scenario.epsilon
    )
    sim = simulate(scenario.system, attack, d, cfg, q_z=scenario.q_z)

    analytic_mean = summary.t_z @ d
    dev_se = np.max(
        np.abs(analytic_mean - sim.z_mean) / np.maximum(sim.z_mean_se, 1e-300)
    )
    i = report.argmax_exceed
    p_analytic = report.p_exceed[i]
    p_emp = sim.exceed_freq[i]
    band = max(3.0 * sim.exceed_se[i], 5.0 / sim.samples)
    dim_r = sim.r_mean.shape[0]
    rate = kl_divergence_gaussian(
        sim.r_mean, sim.r_cov, np.zeros(dim_r), np.eye(dim_r)
    ) / (entry.horizon + 1)
    quad = float(np.square(summary.t_r @ d).sum())
    analytic_ok = quad <= summary.eps_prime + 1e-9 * max(1.0, abs(summary.eps_prime))
    slack = 4.0 * np.sqrt(2.0 * dim_r / sim.samples) * (1.0 + quad) / (entry.horizon + 1)
    if rate > scenario.epsilon + slack:
        empirical_ok = False
    elif rate < scenario.epsilon - slack:
        empirical_ok = True
    else:
        empirical_ok = analytic_ok
    return {
        "samples": sim.samples,
        "z_mean_max_dev_se": _round12(float(dev_se)),
        "exceed_analytic": _round12(float(p_analytic)),
        "exceed_empirical": _round12(float(p_emp)),
        "exceed_within_band": bool(abs(p_analytic - p_emp) <= band),
        "e_inf_norm": _round12(sim.e_inf_norm),
        "e_inf_norm_se": _round12(sim.e_inf_norm_se),
        "mean_bound_respected": bool(
            sim.e_inf_norm >= report.mean_lower - 3.0 * sim.e_inf_norm_se
        ),
        "kl_rate_empirical": _round12(float(rate)),
        "kl_consistent": bool(empirical_ok == analytic_ok),
    }


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _entry_dict(entry: AssessmentEntry, timings: bool) -> dict:
    report = entry.report
    unbounded = report.unbounded
    feasible = report.feasible
    out: dict = {
        "vulnerability": entry.vulnerability,
        "strategy": entry.strategy,
        "variant": entry.variant,
        "horizon": entry.horizon,
        "epsilon": _round12(entry.epsilon),
        "feasible": feasible,
        "unbounded": unbounded,
        "exceedance_probability": _round12(report.exceed_prob),
        "mean_impact_lower_bound": None if unbounded else _round12(report.mean_lower),
        "stealthiness_radius": _round12(report.eps_prime),
    }
    n_z = report.mu.shape[0] // entry.horizon if entry.horizon else 1
    if feasible and not unbounded and report.argmax_exceed is not None:
        i = report.argmax_exceed
        j = report.argmax_mean
        out["argmax_step"] = i // n_z + 1
        out["argmax_component"] = i % n_z + 1
        out["mean_argmax_step"] = j // n_z + 1
        out["mean_argmax_component"] = j % n_z + 1
        out["decision_vector"] = [_round12(v) for v in report.d_star[i]]
    else:
        out["argmax_step"] = None
        out["argmax_component"] = None
        out["mean_argmax_step"] = None
        out["mean_argmax_component"] = None
        out["decision_vector"] = None
    out["candidates_evaluated"] = entry.candidates_evaluated
    out["solver"] = {
        "duality_gap": _round12(report.duality_gap),
        "feasibility_residual": _round12(report.feasibility_residual),
    }
    if entry.mc_block is not None:
        out["mc"] = entry.mc_block
    if timings and entry.timing_s is not None:
        out["timing_s"] = _round12(entry.timing_s)
    return out


def _emit_json(
    scenario_name: str,
    seed: int,
    entries: list[AssessmentEntry],
    sweep: Optional[dict],
    timings: bool,
) -> str:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_name,
        "seed": seed,
    }
    if sweep is not None:
        doc["sweep"] = sweep
    doc["entries"] = [_entry_dict(e, timings) for e in entries]
    return json.dumps(doc, indent=2) + "\n"


_CSV_COLUMNS = [
    "scenario",
    "vulnerability",
    "strategy",
    "variant",
    "horizon",
    "epsilon",
    "feasible",
    "unbounded",
    "exceedance_probability",
    "mean_impact_lower_bound",
    "stealthiness_radius",
    "argmax_step",
    "argmax_component",
    "candidates_evaluated",
    "duality_gap",
    "feasibility_residual",
]


def _emit_csv(scenario_name: str, entries: list[AssessmentEntry], timings: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for entry in entries:
        d = _entry_dict(entry, timings)
        row: list[str] = [scenario_name]
        for col in _CSV_COLUMNS[1:]:
            if col in d["solver"]:
                val = d["solver"][col]
            else:
                val = d.get(col)
            if val is None:
                row.append("")
            elif isinstance(val, bool):
                row.append("true" if val else "false")
            elif isinstance(val, float):
                row.append(f"{val:.12g}")
            else:
                row.append(str(val))
        writer.writerow(row)
    return buf.getvalue()


def _run_assessments(
    scenario: Scenario,
    vulns: list[str],
    strategies: list[str],
    mc_validate: bool,
    seed: int,
    timings: bool,
) -> list[AssessmentEntry]:
    entries = []
    for vname in vulns:
        for sname in strategies:
            t0 = time.perf_counter()
            entry = assess(scenario, vname, sname)
            if mc_validate:
                entry.mc_block = _mc_block(scenario, entry, seed)
            entry.timing_s = time.perf_counter() - t0
            entries.append(entry)
    return entries


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stealthimpact",
        description="Worst-case impact assessment of stealthy attacks on a "
        "stochastic control loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("assess", help="assess a scenario file")
    p.add_argument(
        "--scenario",
        default=None,
        help="path to a scenario JSON file (defaults to the bundled benchmark)",
    )
    p.add_argument(
        "--strategy",
        action="append",
        default=None,
        help="strategy name filter; repeatable (default: all in the scenario)",
    )
    p.add_argument(
        "--vulnerability",
        action="append",
        default=None,
        help="vulnerability name filter; repeatable (default: all in the scenario)",
    )
    p.add_argument(
        "--mc-validate",
        action="store_true",
        help="cross-check each worst case with a Monte Carlo simulation",
    )
    p.add_argument(
        "--sweep",
        choices=["eps", "N"],
        default=None,
        help="re-run the assessment over a range of epsilon or horizon values",
    )
    p.add_argument(
        "--values",
        default=None,
        help="comma-separated sweep values, e.g. 0.1,0.3,0.5",
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--seed", type=int, default=None, help="simulation seed override")
    p.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings (breaks byte determinism)",
    )
    return parser


def _parse_sweep_values(raw: str, parameter: str) -> list:
    values = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if parameter == "N":
            val = int(tok)
            if val < 1:
                raise SchemaError("horizon sweep values must be >= 1")
        else:
            val = float(tok)
            if val < 0 or not np.isfinite(val):
                raise SchemaError("epsilon sweep values must be finite and >= 0")
        values.append(val)
    if not values:
        raise SchemaError("--values must name at least one value")
    return values


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scenario_path = args.scenario or bundled_scenario_path()
        scenario = load_scenario(scenario_path)

        vulns = args.vulnerability or list(scenario.vulnerabilities)
        for v in vulns:
            if v not in scenario.vulnerabilities:
                raise SchemaError(
                    f"unknown vulnerability '{v}'; scenario defines {list(scenario.vulnerabilities)}"
                )
        strategies = args.strategy or list(scenario.strategies)
        for s in strategies:
            if s not in scenario.strategies:
                raise SchemaError(
                    f"unknown strategy '{s}'; scenario defines {list(scenario.strategies)}"
                )
        if (args.sweep is None) != (args.values is None):
            raise SchemaError("--sweep and --values must be given together")
        seed = args.seed if args.seed is not None else scenario.mc_seed

        sweep_doc = None
        if args.sweep is not None:
            parameter = "epsilon" if args.sweep == "eps" else "horizon"
            values = _parse_sweep_values(args.values, args.sweep)
            entries = []
            for val in values:
                variant = dataclasses.replace(scenario, **{parameter: val})
                entries.extend(
                    _run_assessments(
                        variant, vulns, strategies, args.mc_validate, seed, args.timings
                    )
                )
            sweep_doc = {
                "parameter": parameter,
                "values": [
                    val if isinstance(val, int) else _round12(val) for val in values
                ],
            }
        else:
            entries = _run_assessments(
                scenario, vulns, strategies, args.mc_validate, seed, args.timings
            )

        if args.format == "csv":
            text = _emit_csv(scenario.name, entries, args.timings)
        else:
            text = _emit_json(scenario.name, seed, entries, sweep_doc, args.timings)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)

        if all(e.report.exceed_prob == 0.0 for e in entries):
            return EXIT_ALL_ZERO
        return EXIT_OK
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
