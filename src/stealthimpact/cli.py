"""Batch assessment tool.

Loads a scenario, enumerates the concrete attack configurations of each
requested (vulnerability, strategy) pair, solves the per-index programs for
every configuration, keeps the worst one by exceedance probability, and emits
a JSON or CSV report. Reports are byte-deterministic for a fixed scenario,
seed and BLAS thread count unless wall-clock timings are requested.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import numcore
from .attacks import Candidate, StrategySpec, candidates, decision_layout
from .distrib import GaussianLaw, GaussianSummary, gaussian_summaries, kl_budget, summarize
from .mcvalidate import SimulationConfig, kl_verdict, min_samples, simulate
from .scenario import Scenario, SchemaError, bundled_scenario_path, load_scenario
from .solver import CERT_TOL, ImpactReport, check_pattern_cap, compute_impact, first_near_max

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_ALL_ZERO = 4


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


def _assess_pair(
    scenario: Scenario,
    vulnerability: str,
    strategy: str,
    epsilons: list[float],
    mc_seed: Optional[int] = None,
) -> list[AssessmentEntry]:
    """Worst case over the strategy's configuration space, one entry per epsilon.

    Configurations are enumerated in a fixed lexicographic order and ranked by
    exceedance probability; the first one within the solver's certified
    accuracy of the maximum wins. fdi_plus_dos injects on the vulnerability's
    sensors and denies its actuators. The pair's configurations are one kind
    on one resource set, so they share one read-only DecisionLayout, and
    gaussian_summaries audits them in one batch, once for the whole run,
    into one GaussianLaw each. Each law's reports come from one stream
    (_reports), and the streams are read epsilon-major, so the first failure
    read is the one raised, as in separate runs. An entry's timing covers
    the work first done for it: the first entry carries the audit, and the
    entry at a configuration's first feasible epsilon its maps, enumeration
    and the first chunk of its radii. With mc_seed every entry is
    cross-checked by simulation.
    """
    t0 = time.perf_counter()
    N, system, resources = scenario.horizon, scenario.system, scenario.vulnerabilities[vulnerability]
    cands = candidates(StrategySpec(strategy, resources), system.dims, N)
    layout = decision_layout(cands[0].attack, N, system.controller.Q_yr)
    laws = gaussian_summaries(system, [c.attack for c in cands], layout, scenario.q_z, N)
    streams = [_reports(law, epsilons) for law in laws]
    entries = []
    for eps in epsilons:
        summaries, reports = zip(*[next(stream) for stream in streams])
        best = first_near_max([r.exceed_prob for r in reports])
        entry = AssessmentEntry(
            vulnerability=vulnerability,
            strategy=strategy,
            variant=_variant_label(cands[best], resources),
            horizon=scenario.horizon,
            epsilon=eps,
            report=reports[best],
            candidate=cands[best],
            candidates_evaluated=len(cands),
        )
        if mc_seed is not None:
            entry.mc_block = _mc_block(scenario, entry, summaries[best], mc_seed)
        t1 = time.perf_counter()
        entry.timing_s, t0 = t1 - t0, t1
        entries.append(entry)
    return entries


def _reports(law: GaussianLaw, epsilons: list[float]) -> Iterator[tuple[GaussianSummary, ImpactReport]]:
    """A law's summary and report at each epsilon, in order, one per read.

    The summaries read one stream of the law's curve over the nonnegative
    radii, so the curve is built, and a chunk of radii evaluated, when the
    first of them is read, and a failure is raised when its own epsilon is.
    A law whose Sigma_R is singular has one zero report, for every epsilon.
    """
    outcomes = law.solve_each([r for r in map(law.radius, epsilons) if r >= 0])
    report = None
    for eps in epsilons:
        summary = summarize(law, eps, outcomes)
        if report is None or law.pd:
            report = compute_impact(summary)
        yield summary, report


def assess(scenario: Scenario, vulnerability: str, strategy: str) -> AssessmentEntry:
    """Worst case of one (vulnerability, strategy) pair at the scenario's epsilon."""
    return _assess_pair(scenario, vulnerability, strategy, [scenario.epsilon])[0]


def _mc_block(
    scenario: Scenario, entry: AssessmentEntry, summary: GaussianSummary, seed: int
) -> Optional[dict]:
    """Simulation cross-check at the entry's worst decision vector and law.

    The literal loop's exact law of z is consistent with the analytic one
    when its mean is T_Z d within CERT_TOL max(1, ||T_Z d||_inf) and its
    standard deviations are sigma within CERT_TOL sigma, row by row. The mean
    bound is checked on the simulated row i: at d = d_star[i], E||z||_inf >=
    |mu_i(d)| = report.mu[i]. mean_lower may be another row's optimum,
    reached at another decision vector. The Monte Carlo stream is
    the pair's position among the scenario's pairs, vulnerability-major, so
    the pairs of a run draw apart, and an entry's block does not depend on
    which other pairs or sweep values the run has.
    """
    report = entry.report
    if not report.feasible or report.unbounded:
        return None
    i = report.argmax_exceed
    d = report.d_star[i]
    pairs = [(v, s) for v in scenario.vulnerabilities for s in scenario.strategies]
    stream = pairs.index((entry.vulnerability, entry.strategy))
    cfg = SimulationConfig(samples=scenario.mc_samples, seed=seed, horizon=entry.horizon, stream=stream)
    sim = simulate(scenario.system, entry.candidate.attack, d, cfg, q_z=scenario.q_z)

    analytic_mean = summary.t_z @ d
    mean_tol = CERT_TOL * max(1.0, np.max(np.abs(analytic_mean), initial=0.0))
    sigma_loop = np.sqrt(np.diag(sim.z_cov))  # the column norms of the loop's square root R
    z_law_ok = np.all(np.abs(sim.z_mean - analytic_mean) <= mean_tol) and np.all(
        np.abs(sigma_loop - summary.sigma) <= CERT_TOL * summary.sigma
    )
    p_analytic = report.p_exceed[i]
    p_emp = sim.exceed_freq[i]
    band = max(3.0 * sim.exceed_se[i], 5.0 / sim.samples)
    kl = kl_verdict(sim, summary.t_r, d, summary.eps_prime, entry.epsilon, entry.horizon)
    return {
        "samples": sim.samples,
        "z_law_consistent": bool(z_law_ok),
        "exceed_analytic": _round12(float(p_analytic)),
        "exceed_empirical": _round12(float(p_emp)),
        "exceed_within_band": bool(abs(p_analytic - p_emp) <= band),
        "e_inf_norm": _round12(sim.e_inf_norm),
        "e_inf_norm_se": _round12(sim.e_inf_norm_se),
        "mean_bound_respected": bool(
            sim.e_inf_norm >= report.mu[i] - 3.0 * sim.e_inf_norm_se
        ),
        "kl_rate": _round12(kl.rate),
        "kl_consistent": kl.consistent,
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
        # -inf when Sigma_R is singular; JSON has no infinity
        "stealthiness_radius": _round12(report.eps_prime) if np.isfinite(report.eps_prime) else None,
    }
    n_z = report.mu.shape[0] // entry.horizon
    if feasible and not unbounded and report.argmax_exceed is not None:
        i = report.argmax_exceed
        j = report.argmax_mean
        out["argmax_step"] = i // n_z + 1
        out["argmax_component"] = i % n_z + 1
        out["mean_argmax_step"] = j // n_z + 1
        out["mean_argmax_component"] = j % n_z + 1
        d = report.d_star[i]
        noise = float(CERT_TOL * np.max(np.abs(d), initial=0.0))  # below the certified accuracy
        out["decision_vector"] = [_round12(v) if abs(v) > noise else 0.0 for v in d.tolist()]
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
    columns = _CSV_COLUMNS + (["timing_s"] if timings else [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for entry in entries:
        d = _entry_dict(entry, timings)
        row: list[str] = [scenario_name]
        for col in columns[1:]:
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
    scenario: Scenario, vulns: list, strategies: list, epsilons: list, mc_seed: Optional[int]
) -> list[AssessmentEntry]:
    """Every (vulnerability, strategy) pair at every epsilon, epsilon-major."""
    per_pair = [_assess_pair(scenario, v, s, epsilons, mc_seed) for v in vulns for s in strategies]
    return [pair[i] for i in range(len(epsilons)) for pair in per_pair]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it unchanged."""
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
        try:
            val = int(tok) if parameter == "N" else float(tok)
        except ValueError:
            kind = "an integer" if parameter == "N" else "a number"
            raise SchemaError(f"sweep value '{tok}' is not {kind}") from None
        if parameter == "N" and val < 1:
            raise SchemaError("horizon sweep values must be >= 1")
        if parameter == "eps":
            if val < 0 or not np.isfinite(val):
                raise SchemaError("epsilon sweep values must be finite and >= 0")
            val = abs(val)  # -0 passes the test above and is reported as 0
        values.append(val)
    if not values:
        raise SchemaError("--values must name at least one value")
    return values


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
        if args.seed is not None and args.seed < 0:
            raise SchemaError("--seed must be a nonnegative integer")
        seed = args.seed if args.seed is not None else scenario.mc_seed

        epsilons, horizons, sweep_doc = [scenario.epsilon], [scenario.horizon], None
        if args.sweep is not None:
            values = _parse_sweep_values(args.values, args.sweep)
            if args.sweep == "eps":
                epsilons = values
            else:
                horizons = values
            sweep_doc = {
                "parameter": "epsilon" if args.sweep == "eps" else "horizon",
                "values": [
                    val if isinstance(val, int) else _round12(val) for val in values
                ],
            }
        for eps in epsilons:  # at the largest horizon, before any solve
            kl_budget(max(horizons), scenario.system.plant.n_y, eps)
        check_pattern_cap(scenario.system.controller.Q_yr.shape[0])  # before any law
        if args.mc_validate:
            needed = min_samples(scenario.system, max(horizons))
            if scenario.mc_samples < needed:
                raise SchemaError(
                    f"--mc-validate at horizon {max(horizons)} needs mc.samples >= {needed}"
                    f" ((N+1)*n_y + 1), got {scenario.mc_samples}"
                )
        mc_seed = seed if args.mc_validate else None
        entries = []
        for horizon in horizons:  # a horizon changes every law: no reuse across them
            variant = dataclasses.replace(scenario, horizon=horizon)
            entries += _run_assessments(variant, vulns, strategies, epsilons, mc_seed)

        if args.format == "csv":
            text = _emit_csv(scenario.name, entries, args.timings)
        else:
            text = _emit_json(scenario.name, seed, entries, sweep_doc, args.timings)
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise SchemaError(f"cannot write --out: {exc}") from None
        else:
            sys.stdout.write(text)

        if all(e.report.exceed_prob == 0.0 for e in entries):
            return EXIT_ALL_ZERO
        return EXIT_OK
    except numcore.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, np.linalg.LinAlgError) as exc:  # numcore.NumericalError, FloatingPointError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
