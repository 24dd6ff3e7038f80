import copy
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stealthimpact
from stealthimpact import attacks, cli, distrib, solver, sysmodel
from stealthimpact.scenario import bundled_scenario_path, load_scenario
from conftest import candidate_summary


def _run(tmp_path, *extra, name="out.json"):
    out = tmp_path / name
    code = cli.main(["assess", "--out", str(out), *extra])
    return code, out


def test_successive_runs_keep_their_own_filters(tmp_path):
    """The parser is built once per process: a second run's filters do not pile onto the first's."""
    runs = [
        (("vulnerability_2",), ("bias_injection", "fdi")),
        (("vulnerability_1",), ("dos",)),
        (("vulnerability_1", "vulnerability_2"), ("rerouting",)),
    ]
    for i, (vulns, strategies) in enumerate(runs):
        flags = [f for v in vulns for f in ("--vulnerability", v)]
        flags += [f for s in strategies for f in ("--strategy", s)]
        code, out = _run(tmp_path, *flags, name=f"run{i}.json")
        assert code in (cli.EXIT_OK, cli.EXIT_ALL_ZERO)
        pairs = [(e["vulnerability"], e["strategy"]) for e in json.loads(out.read_text())["entries"]]
        assert pairs == [(v, s) for v in vulns for s in strategies]
    assert cli.build_parser() is cli.build_parser()


def test_single_entry_json_shape(tmp_path):
    code, out = _run(
        tmp_path, "--vulnerability", "vulnerability_2", "--strategy", "bias_injection"
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == cli.SCHEMA_VERSION
    assert doc["scenario"]
    assert doc["seed"] == 0
    assert len(doc["entries"]) == 1
    entry = doc["entries"][0]
    assert entry["vulnerability"] == "vulnerability_2"
    assert entry["strategy"] == "bias_injection"
    assert entry["feasible"] is True
    assert entry["unbounded"] is False
    assert 0.0 < entry["exceedance_probability"] < 1.0
    assert entry["mean_impact_lower_bound"] > 0.0
    assert set(entry["solver"]) == {"duality_gap", "feasibility_residual"}
    assert entry["solver"]["duality_gap"] <= 1e-9
    assert entry["solver"]["feasibility_residual"] <= 1e-9
    assert entry["argmax_step"] >= 1
    assert isinstance(entry["decision_vector"], list)
    assert "timing_s" not in entry


def test_decision_vector_noise_written_as_zero(tmp_path):
    """Entries below CERT_TOL times the largest one are rounding noise and print as 0.0."""
    code, out = _run(tmp_path, "--vulnerability", "vulnerability_2", "--strategy", "fdi")
    assert code == cli.EXIT_OK
    (entry,) = json.loads(out.read_text())["entries"]
    scenario = stealthimpact.load_scenario(bundled_scenario_path())
    report = cli.assess(scenario, "vulnerability_2", "fdi").report
    d = report.d_star[report.argmax_exceed]
    top = np.max(np.abs(d))
    noise = np.abs(d) <= solver.CERT_TOL * top
    assert noise.any() and not noise.all()
    printed = np.array(entry["decision_vector"])
    assert np.all(printed[noise] == 0.0) and not np.any(np.signbit(printed[noise]))
    np.testing.assert_allclose(printed[~noise], d[~noise], rtol=1e-11)


def test_output_byte_deterministic(tmp_path):
    args = ("--vulnerability", "vulnerability_2", "--strategy", "dos", "--strategy", "bias_injection")
    _, first = _run(tmp_path, *args, name="a.json")
    _, second = _run(tmp_path, *args, name="b.json")
    assert first.read_bytes() == second.read_bytes()


def test_all_zero_exit_code(tmp_path):
    code, out = _run(
        tmp_path, "--vulnerability", "vulnerability_1", "--strategy", "rerouting"
    )
    assert code == cli.EXIT_ALL_ZERO
    doc = json.loads(out.read_text())
    assert all(e["exceedance_probability"] == 0.0 for e in doc["entries"])


def test_unknown_strategy_exit_code(tmp_path, capsys):
    code, _ = _run(tmp_path, "--strategy", "nonsense")
    assert code == cli.EXIT_VALIDATION
    assert "unknown strategy" in capsys.readouterr().err


def test_unknown_vulnerability_exit_code(tmp_path, capsys):
    code, _ = _run(tmp_path, "--vulnerability", "vulnerability_9")
    assert code == cli.EXIT_VALIDATION
    assert "unknown vulnerability" in capsys.readouterr().err


def test_bad_scenario_path_exit_code(tmp_path, capsys):
    code, _ = _run(tmp_path, "--scenario", str(tmp_path / "missing.json"))
    assert code == cli.EXIT_VALIDATION
    assert "cannot read" in capsys.readouterr().err


def test_sweep_requires_values(tmp_path, capsys):
    code, _ = _run(tmp_path, "--sweep", "eps")
    assert code == cli.EXIT_VALIDATION
    assert "--values" in capsys.readouterr().err


def test_sweep_value_parsing(tmp_path, capsys):
    code, _ = _run(tmp_path, "--sweep", "N", "--values", "0")
    assert code == cli.EXIT_VALIDATION
    code, _ = _run(tmp_path, "--sweep", "eps", "--values", "-1.0")
    assert code == cli.EXIT_VALIDATION
    capsys.readouterr()
    code, _ = _run(tmp_path, "--sweep", "N", "--values", "10,1.5")
    assert code == cli.EXIT_VALIDATION
    assert "'1.5' is not an integer" in capsys.readouterr().err
    code, _ = _run(tmp_path, "--sweep", "eps", "--values", "abc")
    assert code == cli.EXIT_VALIDATION
    assert "'abc' is not a number" in capsys.readouterr().err


def test_negative_seed_rejected_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting the seed")

    monkeypatch.setattr(cli, "compute_impact", no_solve)
    code, out = _run(tmp_path, "--seed", "-1", "--mc-validate")
    assert code == cli.EXIT_VALIDATION
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_out_into_missing_directory_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    args = ["assess", "--vulnerability", "vulnerability_2", "--strategy", "dos", "--out", str(out)]
    assert cli.main(args) == cli.EXIT_VALIDATION
    assert "cannot write --out" in capsys.readouterr().err
    assert not out.parent.exists()


def test_eps_sweep_entries(tmp_path):
    code, out = _run(
        tmp_path,
        "--vulnerability",
        "vulnerability_2",
        "--strategy",
        "bias_injection",
        "--sweep",
        "eps",
        "--values",
        "0.1,0.3",
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["sweep"] == {"parameter": "epsilon", "values": [0.1, 0.3]}
    assert len(doc["entries"]) == 2
    assert doc["entries"][0]["epsilon"] == 0.1
    assert doc["entries"][1]["epsilon"] == 0.3
    # larger budget cannot hurt the attacker
    assert (
        doc["entries"][1]["exceedance_probability"]
        >= doc["entries"][0]["exceedance_probability"]
    )
    # at eps = 0 injection leaves Sigma_R = I, so eps' is 0, not rounding noise
    # below it: an attack invisible to the residual exists and is reported,
    # while denial of service stays detectable at any budget this small
    code, out = _run(
        tmp_path,
        "--vulnerability", "vulnerability_1",
        "--strategy", "fdi",
        "--strategy", "dos",
        "--sweep", "eps",
        "--values", "0",
    )
    assert code == cli.EXIT_OK
    fdi, dos = json.loads(out.read_text())["entries"]
    assert (fdi["strategy"], fdi["stealthiness_radius"], fdi["feasible"]) == ("fdi", 0.0, True)
    assert fdi["exceedance_probability"] == 1.0
    assert dos["strategy"] == "dos" and not dos["feasible"]
    assert dos["exceedance_probability"] == 0.0


CRITERION_6_EPSILONS = [float(e) for e in np.linspace(0.05, 0.95, 10)]


def test_eps_sweep_enumerates_each_configuration_once(tmp_path, monkeypatch):
    """Criterion 6's ten epsilons take as many SVDs as a run at the largest of them.

    Each configuration's law and curve are built once, the curve at the first
    epsilon where its radius is nonnegative, and every other value only
    evaluates it; a configuration feasible at some value of the sweep is
    feasible at the largest, where the radius is largest.
    """
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def svd_count(*extra):
        calls.clear()
        monkeypatch.setattr(np.linalg, "svd", counted)
        try:
            assert _run(tmp_path, *extra)[0] == cli.EXIT_OK
        finally:
            monkeypatch.undo()
        return len(calls)

    values = ",".join(repr(e) for e in CRITERION_6_EPSILONS)
    single = svd_count("--sweep", "eps", "--values", repr(CRITERION_6_EPSILONS[-1]))
    assert single > 0
    assert svd_count("--sweep", "eps", "--values", values) == single


def test_eps_sweep_evaluates_each_configuration_once(tmp_path, scenario, monkeypatch):
    """Criterion 6's ten epsilons take one _evaluate call per configuration that some value solves.

    Each configuration's stream covers every value's radius, so its first
    read evaluates all of them in one batch, as many calls as a run at the
    largest value alone; a configuration feasible at some value is feasible
    at the largest, and is solved there unless a row is unbounded.
    """
    calls = []
    evaluate = solver._evaluate

    def counted(pieces, radii):
        calls.append(len(radii))
        return evaluate(pieces, radii)

    def evaluations(*extra):
        calls.clear()
        monkeypatch.setattr(solver, "_evaluate", counted)
        try:
            assert _run(tmp_path, *extra)[0] == cli.EXIT_OK
        finally:
            monkeypatch.undo()
        return list(calls)

    solved = 0
    for resources in scenario.vulnerabilities.values():
        for kind in scenario.strategies:
            spec = attacks.StrategySpec(kind, resources)
            for cand in attacks.candidates(spec, scenario.system.dims, scenario.horizon):
                summary = candidate_summary(scenario, cand, CRITERION_6_EPSILONS[-1])
                solved += summary.residual_cov_pd and summary.eps_prime >= 0 and summary.impact_bounded
    values = ",".join(repr(e) for e in CRITERION_6_EPSILONS)
    sweep = evaluations("--sweep", "eps", "--values", values)
    single = evaluations("--sweep", "eps", "--values", repr(CRITERION_6_EPSILONS[-1]))
    assert len(sweep) == len(single) == solved > 0
    assert max(sweep) == len(CRITERION_6_EPSILONS)


def test_an_op_assembles_the_nominal_loop_and_its_pair_once(tmp_path, scenario, monkeypatch):
    """One op makes two assemble_extended calls: the nominal loop, then the pair's configurations.

    Run pair by pair, one op each as the grid benchmark does, the 10 bundled
    pairs make 20 calls and still assemble each of their 32 configurations
    and each op's nominal loop once.
    """
    batches = []
    assemble = sysmodel.assemble_extended

    def counted(plant, controller, estimator, configurations):
        batches.append(len(configurations))
        return assemble(plant, controller, estimator, configurations)

    monkeypatch.setattr(sysmodel, "assemble_extended", counted)
    monkeypatch.setattr(distrib, "assemble_extended", counted)
    for vulnerability in scenario.vulnerabilities:
        for strategy in scenario.strategies:
            before = len(batches)
            code, _ = _run(tmp_path, "--vulnerability", vulnerability, "--strategy", strategy)
            assert code in (cli.EXIT_OK, cli.EXIT_ALL_ZERO)
            assert len(batches) - before == 2 and batches[before] == 1, (vulnerability, strategy)
    assert len(batches) == 20
    assert sum(batches) == 10 + 32


def test_pair_shares_one_read_only_layout(scenario, monkeypatch):
    """vulnerability_1/dos's 15 configurations get one DecisionLayout, equal to each one's own, frozen."""
    passed = []
    summaries = cli.gaussian_summaries

    def recorded(system, configurations, layout, q_z, N):
        passed.append((len(configurations), layout))
        return summaries(system, configurations, layout, q_z, N)

    monkeypatch.setattr(cli, "gaussian_summaries", recorded)
    cli._assess_pair(scenario, "vulnerability_1", "dos", [scenario.epsilon, 0.5])
    ((count, layout),) = passed
    N, Q_yr = scenario.horizon, scenario.system.controller.Q_yr
    cands = attacks.candidates(attacks.StrategySpec("dos", scenario.vulnerabilities["vulnerability_1"]), scenario.system.dims, N)
    assert count == len(cands) == 15
    for cand in cands:
        own = attacks.decision_layout(cand.attack, N, Q_yr)
        assert (own.dim_d, own.n_a, own.n_yr, own.horizon) == (layout.dim_d, layout.n_a, layout.n_yr, layout.horizon)
        for name in ("Q", "free", "held"):
            assert np.array_equal(getattr(own, name), getattr(layout, name)), name
    for name in ("Q", "free", "held"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(layout, name)[...] = 0


def _reindented(text):
    """The report as json.dumps(..., indent=2) lays it out; floats round-trip through their repr."""
    return json.dumps(json.loads(text), indent=2) + "\n"


def test_json_report_is_json_dumps_with_indent_2(tmp_path):
    """Reports keep json.dumps(doc, indent=2)'s bytes though every scalar goes through the C encoder.

    The runs cover a sweep block, an mc block, timings, null fields, a
    207-entry decision vector and floats written with an exponent; an empty
    decision vector is laid out on a report's own document.
    """
    n50 = _write_scenario(tmp_path, dict(json.loads(bundled_scenario_path().read_text()), horizon=50))
    runs = [
        ("--sweep", "eps", "--values", "0,0.3,10"),
        ("--vulnerability", "vulnerability_2", "--strategy", "fdi", "--mc-validate"),
        ("--timings",),
        ("--scenario", str(n50), "--vulnerability", "vulnerability_1", "--strategy", "bias_injection"),
    ]
    texts = []
    for i, extra in enumerate(runs):
        code, out = _run(tmp_path, *extra, name=f"run{i}.json")
        assert code == cli.EXIT_OK
        texts.append(out.read_text())
        assert texts[-1] == _reindented(texts[-1])
    docs = [json.loads(text) for text in texts]
    entries = [e for doc in docs for e in doc["entries"]]
    assert "sweep" in docs[0] and "mc" in docs[1]["entries"][0]
    assert all("timing_s" in e for e in docs[2]["entries"])
    assert any(e["decision_vector"] is None for e in entries)
    assert len(docs[3]["entries"][0]["decision_vector"]) == 207
    assert re.search(r"[0-9]e-[0-9]", "".join(texts))
    docs[1]["entries"][0]["decision_vector"] = []
    assert cli._indented(docs[1]) == json.dumps(docs[1], indent=2)


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6)
)
_JSON_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.none(), st.booleans(), st.floats(-1, 1))


@settings(max_examples=100, deadline=None)
@given(
    st.recursive(
        _JSON_LEAVES,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.tuples(inner, inner),
            st.dictionaries(_JSON_KEYS, inner, max_size=4),
        ),
        max_leaves=15,
    )
)
def test_indented_layout_is_json_dumps_indent_2(doc):
    assert cli._indented(doc) == json.dumps(doc, indent=2)


def test_sweep_failure_is_the_first_in_epsilon_major_order(tmp_path, capsys):
    """Two configurations that fail at different epsilons: the sweep reports the first failure it reads.

    Of vulnerability_1/dos, configuration 1 misses its certificate from
    epsilon = 1e14 on and configuration 0 from 1e17 (ROADMAP item 6). The
    sweep 1e14,1e17 reads configuration 0 at 1e14 first, which evaluates its
    batch, failure at 1e17 included; that failure waits for its own read, so
    the run exits 3 with configuration 1's message at 1e14, as a run at 1e14
    alone does, and not with the one a run at 1e17 alone prints.
    """

    def stderr(values):
        code = cli.main(["assess", "--vulnerability", "vulnerability_1", "--strategy", "dos",
                         "--sweep", "eps", "--values", values, "--out", str(tmp_path / "out.json")])
        assert code == cli.EXIT_NUMERICAL
        return capsys.readouterr().err

    first = stderr("1e14")
    assert first.startswith("numerical failure: optimality certificate not met")
    assert stderr("1e14,1e17") == first != stderr("1e17")


def test_sweep_build_failure_is_raised_at_its_first_feasible_epsilon(tmp_path, capsys, monkeypatch, scenario):
    """A configuration whose mean maps overflow stops the sweep where the sweep first solves it.

    Of vulnerability_1/dos at the bundled horizon, configurations 0 and 2 are
    first within budget at epsilon = 0.5, configuration 1 at 1.0, and the
    twelve whose Sigma_R is singular never. With configuration 2's stacking
    made to overflow, the sweep 0.3,0.5,1.0 reports all fifteen at 0.3 and
    configurations 0 and 1 at 0.5, in that order, then exits 3 with the
    overflow when it reaches configuration 2 at 0.5, and writes no report.
    """
    spec = attacks.StrategySpec("dos", scenario.vulnerabilities["vulnerability_1"])
    cands = attacks.candidates(spec, scenario.system.dims, scenario.horizon)
    broken, stack, solve = cands[2].attack, distrib.stack_dynamics, cli.compute_impact
    radii = []

    def overflowing(ext, attack, *args):
        if all(np.array_equal(getattr(attack, f), getattr(broken, f)) for f in ("lambda_y", "lambda_u")):
            raise FloatingPointError("overflow encountered in the maps of configuration 2")
        return stack(ext, attack, *args)

    def recorded(summary):
        radii.append(summary.eps_prime)
        return solve(summary)

    monkeypatch.setattr(distrib, "stack_dynamics", overflowing)
    monkeypatch.setattr(cli, "compute_impact", recorded)
    code, out = _run(tmp_path, "--vulnerability", "vulnerability_1", "--strategy", "dos",
                     "--sweep", "eps", "--values", "0.3,0.5,1.0")
    monkeypatch.undo()
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: overflow encountered in the maps of configuration 2\n"
    assert not out.exists()
    read = [(0.3, cand) for cand in cands] + [(0.5, cand) for cand in cands[:3]]
    assert radii == [candidate_summary(scenario, cand, eps).eps_prime for eps, cand in read]
    assert radii[15] > 0 > radii[16] and radii[17] > 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_negative_zero_epsilon_reads_as_zero(tmp_path, capsys, fmt):
    """-0 as a sweep value or as the scenario's epsilon gives the bytes of epsilon = 0."""

    def report(*extra):
        assert cli.main(["assess", "--format", fmt, *extra]) == cli.EXIT_OK
        return capsys.readouterr().out

    assert report("--sweep", "eps", "--values=-0,0.3") == report("--sweep", "eps", "--values=0,0.3")
    doc = json.loads(bundled_scenario_path().read_text())
    assert report("--scenario", str(_write_scenario(tmp_path, dict(doc, epsilon=-0.0)))) == report(
        "--scenario", str(_write_scenario(tmp_path, dict(doc, epsilon=0.0)))
    )


def test_over_budget_configurations_take_no_svd(scenario, monkeypatch):
    """A configuration whose radius is negative builds its curve without factoring anything.

    Every rerouting configuration of vulnerability_1 is over budget at N = 50.
    """
    long = dataclasses.replace(scenario, horizon=50)

    def no_svd(*args, **kwargs):
        raise AssertionError("an over-budget configuration took an SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    entry = cli.assess(long, "vulnerability_1", "rerouting")
    assert not entry.report.feasible and entry.candidates_evaluated == 3


def test_over_budget_configurations_are_never_stacked(tmp_path, capsys, monkeypatch):
    """The audit alone settles every vulnerability_1/dos configuration at N = 50.

    All 15 have a negative radius or a singular Sigma_R, so none of their mean
    maps is ever stacked, and the run reports zero.
    """

    def no_stack(ext, attack, *args):
        if not attack.has_recording:
            raise AssertionError("stacked a configuration outside replay")
        return stack(ext, attack, *args)

    stack = distrib.stack_dynamics
    monkeypatch.setattr(distrib, "stack_dynamics", no_stack)
    code, out = _run(tmp_path, "--vulnerability", "vulnerability_1", "--strategy", "dos",
                     "--sweep", "N", "--values", "50")
    assert code == cli.EXIT_ALL_ZERO, capsys.readouterr().err
    (entry,) = json.loads(out.read_text(), parse_constant=_reject_constant)["entries"]
    assert entry["candidates_evaluated"] == 15 and entry["feasible"] is False


def test_large_budgets_certified(tmp_path):
    """Every bundled pair certifies its optimum up to epsilon = 1e11."""
    code, out = _run(tmp_path, "--sweep", "eps", "--values", "1e9,1e10,1e11")
    assert code == cli.EXIT_OK
    assert len(json.loads(out.read_text())["entries"]) == 30


# ROADMAP item 6: the DoS-type pairs cannot certify a box-limited optimum at
# epsilon = 1e20, where the rounding of the multipliers is weighed by
# sqrt(radius) ~ 1e10 in the duality gap
LARGE_BUDGET_FAILURES = {
    ("vulnerability_1", "dos"),
    ("vulnerability_1", "rerouting"),
    ("vulnerability_2", "dos"),
    ("vulnerability_2", "rerouting"),
    ("vulnerability_2", "replay_dos"),
}


def _bundled_pairs():
    doc = json.loads(bundled_scenario_path().read_text())
    for vulnerability in doc["vulnerabilities"]:
        for strategy in doc["strategies"]:
            failing = (vulnerability, strategy) in LARGE_BUDGET_FAILURES
            reason = "ROADMAP item 6: duality gap above 1e-9 at epsilon = 1e20"
            marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)] if failing else []
            yield pytest.param(vulnerability, strategy, marks=marks, id=f"{vulnerability}-{strategy}")


@pytest.mark.parametrize("vulnerability, strategy", _bundled_pairs())
def test_budget_1e20(tmp_path, capsys, vulnerability, strategy):
    code, _ = _run(tmp_path, "--vulnerability", vulnerability, "--strategy", strategy,
                   "--sweep", "eps", "--values", "1e20")
    assert code == cli.EXIT_OK, capsys.readouterr().err


def test_horizon_sweep_entries(tmp_path):
    code, out = _run(
        tmp_path,
        "--vulnerability",
        "vulnerability_2",
        "--strategy",
        "bias_injection",
        "--sweep",
        "N",
        "--values",
        "2,4",
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["sweep"]["parameter"] == "horizon"
    assert [e["horizon"] for e in doc["entries"]] == [2, 4]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_horizon_sweep_past_unstable_attacked_loops(capsys):
    """Rerouting loops that diverge over a long window report over budget, not exit 3.

    From N = 30 every rerouting configuration of the bundled scenario has a
    negative radius, so its worst case is p = 0 and infeasible; the radius is
    finite and far below zero, since the innovation audit finds Sigma_R
    positive definite on those loops.
    """
    values = ",".join(str(n) for n in range(1, 51))
    code = cli.main(["assess", "--sweep", "N", "--values", values])
    assert code == cli.EXIT_OK
    entries = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["entries"]
    late = [e for e in entries if e["strategy"] == "rerouting" and e["horizon"] >= 30]
    assert len(late) == 2 * 21
    for e in late:
        assert e["feasible"] is False and e["exceedance_probability"] == 0.0
        assert e["stealthiness_radius"] < 0


def _sensor_denial_scenario(tmp_path):
    """The bundled scenario with one more vulnerability: sensor 1 alone, no actuator."""
    doc = json.loads(bundled_scenario_path().read_text())
    doc["vulnerabilities"]["sensor_1"] = {"sensors": [1], "actuators": []}
    return _write_scenario(tmp_path, doc)


def test_singular_residual_radius_is_empty(tmp_path, capsys):
    """A -inf radius is a null in the strict-JSON report and an empty CSV cell.

    Denying sensor 1 alone leaves Sigma_R singular from N = 3 on, under the
    innovation audit and the stacked one alike. The diverging rerouting loop
    of vulnerability_1 at N = 50 prints its finite negative radius.
    """
    path = _sensor_denial_scenario(tmp_path)
    argv = ["assess", "--scenario", str(path), "--vulnerability", "sensor_1", "--strategy", "dos",
            "--sweep", "N", "--values", "3,50"]
    assert cli.main(argv) == cli.EXIT_ALL_ZERO
    entries = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["entries"]
    assert [(e["stealthiness_radius"], e["feasible"]) for e in entries] == [(None, False)] * 2
    out = tmp_path / "singular.csv"
    assert cli.main(argv + ["--format", "csv", "--out", str(out)]) == cli.EXIT_ALL_ZERO
    with open(out, newline="") as fh:
        head, *rows = list(csv.reader(fh))
    for row in rows:
        assert row[head.index("stealthiness_radius")] == ""
        assert row[head.index("feasible")] == "false"

    out = tmp_path / "rerouting.csv"
    argv = ["assess", "--vulnerability", "vulnerability_1", "--strategy", "rerouting",
            "--sweep", "N", "--values", "50", "--format", "csv", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_ALL_ZERO
    with open(out, newline="") as fh:
        head, row = list(csv.reader(fh))
    assert float(row[head.index("stealthiness_radius")]) < -1e9
    assert row[head.index("feasible")] == "false"


def test_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    code = cli.main(
        [
            "assess",
            "--vulnerability",
            "vulnerability_2",
            "--strategy",
            "dos",
            "--strategy",
            "fdi",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli._CSV_COLUMNS
    assert len(rows) == 3
    for row in rows[1:]:
        assert len(row) == len(cli._CSV_COLUMNS)
    dos_row = rows[1]
    # the worst denial variant names channels with commas; parsing must survive
    assert dos_row[rows[0].index("strategy")] == "dos"
    assert float(dos_row[rows[0].index("exceedance_probability")]) > 0.0
    fdi_row = rows[2]
    assert fdi_row[rows[0].index("unbounded")] == "false"
    assert float(fdi_row[rows[0].index("mean_impact_lower_bound")]) > 0.0


def test_csv_unbounded_row_empties(tmp_path):
    out = tmp_path / "unbounded.csv"
    code = cli.main(
        [
            "assess",
            "--vulnerability",
            "vulnerability_1",
            "--strategy",
            "fdi",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    row = rows[1]
    head = rows[0]
    assert row[head.index("unbounded")] == "true"
    assert row[head.index("mean_impact_lower_bound")] == ""
    assert row[head.index("argmax_step")] == ""
    assert float(row[head.index("exceedance_probability")]) == 1.0


def test_mc_validate_block(tmp_path):
    code, out = _run(
        tmp_path,
        "--vulnerability",
        "vulnerability_2",
        "--strategy",
        "bias_injection",
        "--mc-validate",
        "--seed",
        "1",
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["seed"] == 1
    mc = doc["entries"][0]["mc"]
    assert mc["samples"] == 100_000
    assert mc["exceed_within_band"] is True
    assert mc["mean_bound_respected"] is True
    assert mc["kl_consistent"] is True
    assert mc["z_mean_max_dev_se"] < 4.0


def test_mc_mean_bound_reads_the_simulated_row(tmp_path):
    """The mean bound is checked on the row whose maximizer is simulated.

    With the critical map [[0, 0, 1]] the probability picks one row and the
    mean another. At the simulated decision vector E||z||_inf lies below
    mean_lower, the other row's optimum at another vector, but not below the
    simulated row's own optimum.
    """
    path = _scaled_critical_map(tmp_path, 1.0)
    code, out = _run(
        tmp_path, "--scenario", path, "--vulnerability", "vulnerability_2", "--strategy", "fdi", "--mc-validate"
    )
    assert code == cli.EXIT_OK
    (entry,) = json.loads(out.read_text())["entries"]
    assert entry["argmax_step"] != entry["mean_argmax_step"]
    mc = entry["mc"]
    assert mc["e_inf_norm"] + 3.0 * mc["e_inf_norm_se"] < entry["mean_impact_lower_bound"]
    assert mc["mean_bound_respected"] is True


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before rejecting the input")


@pytest.mark.parametrize(
    "samples, extra, needed",
    [(1, [], 34), (2, [], 34), (33, [], 34), (34, ["--sweep", "N", "--values", "2,11,10"], 37)],
)
def test_mc_validate_sample_minimum(tmp_path, capsys, monkeypatch, samples, extra, needed):
    """Fewer samples than (N_max+1)*n_y + 1 make the residual covariance singular: exit 2 up front."""
    doc = json.loads(bundled_scenario_path().read_text())
    doc["mc"]["samples"] = samples
    path = _write_scenario(tmp_path, doc)
    monkeypatch.setattr(cli, "compute_impact", _no_solve)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["assess", "--scenario", str(path), "--mc-validate", *extra])
    assert code == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"needs mc.samples >= {needed}" in captured.err
    assert f"got {samples}" in captured.err
    assert caught == []


def test_mc_validate_sample_minimum_met(tmp_path, capsys):
    doc = json.loads(bundled_scenario_path().read_text())
    doc["mc"]["samples"] = 34
    path = _write_scenario(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["assess", "--scenario", str(path), "--mc-validate"]) == cli.EXIT_OK
    assert caught == []
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [e["mc"]["samples"] for e in entries if "mc" in e] == [34] * 6
    doc["mc"]["samples"] = 1  # without --mc-validate the sample count is never read
    path = _write_scenario(tmp_path, doc)
    assert cli.main(["assess", "--scenario", str(path), "--format", "csv"]) == cli.EXIT_OK


def test_timings_flag(tmp_path):
    code, out = _run(
        tmp_path,
        "--vulnerability",
        "vulnerability_2",
        "--strategy",
        "bias_injection",
        "--timings",
    )
    assert code == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["entries"][0]["timing_s"] >= 0.0
    flags = ("--vulnerability", "vulnerability_2", "--strategy", "bias_injection", "--format", "csv")
    code, out = _run(tmp_path, *flags, "--timings", name="out.csv")
    assert code == cli.EXIT_OK
    header, row = list(csv.reader(out.read_text().splitlines()))
    assert header == cli._CSV_COLUMNS + ["timing_s"]
    assert float(row[-1]) >= 0.0
    code, out = _run(tmp_path, *flags, name="plain.csv")
    assert code == cli.EXIT_OK
    assert out.read_text().splitlines()[0] == ",".join(cli._CSV_COLUMNS)


def test_stdout_default(capsys):
    code = cli.main(
        ["assess", "--vulnerability", "vulnerability_2", "--strategy", "bias_injection"]
    )
    assert code == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["entries"][0]["strategy"] == "bias_injection"


def test_fdi_plus_dos_injects_on_sensors_and_denies_actuators(scenario):
    dims, N = scenario.system.dims, scenario.horizon
    for name, res in scenario.vulnerabilities.items():
        entry = cli.assess(scenario, name, "fdi_plus_dos")
        expected = attacks.build_attack("fdi", attacks.ResourceSet(sensors=res.sensors), dims, N)
        expected.lambda_u = attacks.build_attack("dos", attacks.ResourceSet(actuators=res.actuators), dims, N).lambda_u
        for field, value in vars(expected).items():
            assert np.array_equal(getattr(entry.candidate.attack, field), value), field
        free = attacks.Candidate(None, attacks.build_attack("dos", attacks.ResourceSet(), dims, N))
        free_report = solver.compute_impact(candidate_summary(scenario, free, scenario.epsilon))
        assert free_report.exceed_prob > 0.05
        assert entry.report.eps_prime != free_report.eps_prime
        assert entry.report.exceed_prob != free_report.exceed_prob


def _write_scenario(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def _no_law(*args, **kwargs):
    raise AssertionError("built a law before rejecting the input")


def test_pattern_cap_exit_code(tmp_path, capsys, monkeypatch):
    """A reference box over the solver's cap exits 2 before any law is built, for every pair.

    The cap is a property of the scenario: the pairs whose configurations are
    all over budget never reach the solver, and are refused all the same.
    """
    doc = json.loads(bundled_scenario_path().read_text())
    n_yr = 9
    doc["controller"]["L_yr"] = [row + [0.0] * (n_yr - len(row)) for row in doc["controller"]["L_yr"]]
    doc["controller"]["Q_yr"] = (0.4 * np.eye(n_yr)).tolist()
    path = _write_scenario(tmp_path, doc)
    monkeypatch.setattr(cli, "gaussian_summaries", _no_law)
    for vulnerability in doc["vulnerabilities"]:
        for strategy in doc["strategies"]:
            code = cli.main(["assess", "--scenario", str(path), "--vulnerability", vulnerability, "--strategy", strategy])
            out, err = capsys.readouterr()
            assert code == cli.EXIT_VALIDATION, (vulnerability, strategy)
            assert out == ""
            assert err == "error: 9 reference-box rows exceed the cap 8\n"


def test_loader_rejections_exit_code(tmp_path, capsys):
    base = json.loads(bundled_scenario_path().read_text())
    doc = copy.deepcopy(base)
    doc["vulnerabilities"] = {"v": [1, 2]}
    code, _ = _run(tmp_path, "--scenario", str(_write_scenario(tmp_path, doc)))
    assert code == cli.EXIT_VALIDATION
    assert "vulnerabilities.v" in capsys.readouterr().err
    doc = copy.deepcopy(base)
    doc["critical_map"].append([0.0] * len(doc["critical_map"][0]))
    code, _ = _run(tmp_path, "--scenario", str(_write_scenario(tmp_path, doc)))
    assert code == cli.EXIT_VALIDATION
    assert "all zeros" in capsys.readouterr().err
    doc = copy.deepcopy(base)
    doc["critical_map"] = [[False, False, True, False, False, False]]
    code, _ = _run(tmp_path, "--scenario", str(_write_scenario(tmp_path, doc)))
    assert code == cli.EXIT_VALIDATION
    assert "False is not a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "literal", ["Infinity", "NaN", "1e400", "1" + "0" * 400], ids=["Infinity", "NaN", "1e400", "int401"]
)
def test_non_finite_epsilon_rejected(tmp_path, capsys, literal):
    """json reads Infinity and NaN, 1e400 overflows to inf, and a 401-digit integer
    overflows float(); each is a validation error, not a run at a rounded budget."""
    text = bundled_scenario_path().read_text().replace('"epsilon": 0.3', f'"epsilon": {literal}')
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code = cli.main(["assess", "--scenario", str(path)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert "epsilon must be a finite number >= 0" in err


@pytest.mark.parametrize(
    "epsilon, extra, horizon",
    [
        (0.3, ["--sweep", "eps", "--values", "1e300,1e307"], 10),
        (1e308, [], 10),
        (8e306, ["--sweep", "N", "--values", "10,20"], 20),
    ],
    ids=["sweep", "scenario", "largest-horizon"],
)
def test_overflowing_budget_rejected_before_solving(tmp_path, capsys, monkeypatch, epsilon, extra, horizon):
    """An epsilon whose KL budget (N+1)(2 eps + n_y) overflows has no radius: exit 2 up front.

    The budget is checked at the largest horizon of the run; 8e306 fits at
    N = 10 and overflows at N = 20.
    """
    doc = json.loads(bundled_scenario_path().read_text())
    doc["epsilon"] = epsilon
    path = _write_scenario(tmp_path, doc)
    monkeypatch.setattr(cli, "compute_impact", _no_solve)
    code = cli.main(["assess", "--scenario", str(path), *extra])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_VALIDATION
    assert out == ""
    assert f"overflows the KL budget (N+1)(2 eps + n_y) at horizon {horizon}" in err


def test_overflowing_plant_rejected_without_hanging(tmp_path):
    """A plant whose observability matrix overflows to inf and nan is a validation error.

    Runs in a subprocess with a timeout: a full SVD of such a matrix may not return.
    """
    doc = json.loads(bundled_scenario_path().read_text())
    doc["plant"]["A"] = [[1e200, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]
    path = _write_scenario(tmp_path, doc)
    args = ["-m", "stealthimpact", "assess", "--scenario", str(path)]
    done = subprocess.run([sys.executable, *args], env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == cli.EXIT_VALIDATION
    assert done.stdout == ""
    assert done.stderr == "error: observability or controllability matrix overflows\n"


def _scaled_critical_map(tmp_path, scale):
    doc = json.loads(bundled_scenario_path().read_text())
    doc["critical_map"] = [[0.0, 0.0, scale]]
    return str(_write_scenario(tmp_path, doc))


@pytest.mark.parametrize("strategy, bound", [("fdi", 3.33151618107e150), ("dos", 2.70170621928e150)])
def test_large_critical_map_scales_the_bound(tmp_path, capsys, strategy, bound):
    """A critical map of 1e150 is still in range: the bound scales linearly with it."""
    path = _scaled_critical_map(tmp_path, 1e150)
    code, out = _run(tmp_path, "--scenario", path, "--vulnerability", "vulnerability_2", "--strategy", strategy)
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    (entry,) = json.loads(out.read_text())["entries"]
    assert entry["exceedance_probability"] == 1.0
    assert entry["mean_impact_lower_bound"] == bound


@pytest.mark.parametrize(
    "scale, strategy", [(1e154, "fdi"), (1e154, "dos"), (1e155, "fdi")], ids=["solve-fdi", "solve-dos", "sigma-z"]
)
def test_overflow_is_a_numerical_failure(tmp_path, capsys, scale, strategy):
    """An overflow exits 3 with one line, not 0 with a wrong bound and RuntimeWarnings.

    At 1e154 the solver's row norms overflow; at 1e155 the squares of F_Z,
    which the marginal standard deviations sum, already do (the sigma-z case).
    """
    path = _scaled_critical_map(tmp_path, scale)
    code = cli.main(["assess", "--scenario", path, "--vulnerability", "vulnerability_2", "--strategy", strategy])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("numerical failure: overflow encountered in ") and err.count("\n") == 1


_OVERSIZED_STRATEGIES = ("dos", "fdi", "bias_injection", "replay_dos")


@pytest.mark.parametrize(
    "changes, extra",
    [
        *(
            pytest.param({"horizon": 1_000_000}, ["--strategy", s], id=f"horizon-1e6-{s}")
            for s in ("fdi", "dos")
        ),
        *(
            pytest.param({"horizon": n}, ["--strategy", s], id=f"horizon-{label}-{s}")
            for n, label in ((10**12, "1e12"), (2**62, "2^62"))
            for s in _OVERSIZED_STRATEGIES
        ),
        *(
            pytest.param({}, ["--strategy", "fdi", "--sweep", "N", "--values", v], id=f"sweep-N-{label}")
            for v, label in (("1000000000000", "1e12"), ("99999999999999999999999", "1e23"))
        ),
        pytest.param(
            {"mc": {"samples": 10**30, "seed": 0}},
            ["--mc-validate", "--vulnerability", "vulnerability_2", "--strategy", "fdi"],
            id="mc-samples-1e30",
        ),
    ],
)
def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch, changes, extra):
    """An array too large to allocate ends with exit 3 and one line.

    At N = 10^6 fdi's decision layout holds O(N) indices, and the first
    large request is the horizon's lag index of (N+1)^2 entries, about
    7.3 TiB, which gaussian_summaries asks for before any audit, for every
    strategy: numpy's MemoryError ends the run before the audit's first QR.
    Longer horizons ask for shapes beyond the address range, which numpy
    refuses with a ValueError: the decision layout and the lag index check
    those sizes first. 10^30 Monte Carlo samples need a queue of more blocks
    than the address range holds, which the sampler checks before it builds
    the queue. Only the Monte Carlo case gets as far as an audit, since its
    samples are drawn after the solve.
    """
    doc = json.loads(bundled_scenario_path().read_text())
    doc.update(changes)
    qr_calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        qr_calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    code = cli.main(["assess", "--scenario", str(_write_scenario(tmp_path, doc)), *extra])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert bool(qr_calls) == ("mc" in changes)


def test_unstable_nominal_loop_exit_code(tmp_path, capsys, monkeypatch):
    """A nominal loop that is not Schur stable stops the load with exit 3.

    Its stability is decided once per load, by the Lyapunov solve of the
    stationary law: one eigenvalue solve of the 6x6 nominal A_cl next to the
    3x3 one of the Kalman filter check, on a stable and an unstable loop alike.
    """
    doc = json.loads(bundled_scenario_path().read_text())
    doc["controller"]["L_xhat"] = (50.0 * np.array(doc["controller"]["L_xhat"])).tolist()
    path = _write_scenario(tmp_path, doc)
    shapes = []
    eigvals = np.linalg.eigvals

    def counted(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    code = cli.main(["assess", "--scenario", str(path)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("numerical failure: nominal loop unstable: spectral radius ")
    assert shapes == [(3, 3), (6, 6)]
    shapes.clear()
    load_scenario(bundled_scenario_path())
    assert shapes == [(3, 3), (6, 6)]


def test_public_names_resolve():
    names = stealthimpact.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(stealthimpact, name) is not None, name
    namespace = {}
    exec("from stealthimpact import *", namespace)
    assert set(names) <= set(namespace)


def test_proportional_critical_rows_assessed(tmp_path):
    """A critical map of rank 1 (z2 = 2 z1) is valid: only the marginals enter the metrics."""
    doc = json.loads(bundled_scenario_path().read_text())
    row = doc["critical_map"][0]
    doc["critical_map"] = [row, [2.0 * v for v in row]]
    code, out = _run(tmp_path, "--scenario", str(_write_scenario(tmp_path, doc)),
                     "--vulnerability", "vulnerability_2", "--strategy", "fdi")
    assert code == cli.EXIT_OK
    entry = json.loads(out.read_text())["entries"][0]
    assert entry["argmax_component"] == 2
    assert entry["exceedance_probability"] > 0.99


@pytest.mark.parametrize("mc_validate", [False, True])
def test_eps_sweep_matches_single_epsilon_runs(tmp_path, mc_validate):
    # The sweep builds each configuration's law once and re-solves it per
    # epsilon; every entry must equal a fresh run at that epsilon alone.
    base = json.loads(bundled_scenario_path().read_text())
    base["mc"]["samples"] = 500
    extra = ["--mc-validate"] if mc_validate else []

    def run(doc, fmt, *args):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"out.{fmt}"
        code = cli.main(["assess", "--scenario", str(path), "--format", fmt, "--out", str(out), *extra, *args])
        assert code == cli.EXIT_OK
        return out.read_text()

    # sorted; then unsorted with a repeat, which reads a radius again both
    # inside its chunk and after its chunk's results are gone
    for eps_grid in ([float(e) for e in np.linspace(0.05, 0.95, 10)], [0.95, 0.05, 0.5, 0.05]):
        values = ",".join(repr(e) for e in eps_grid)
        sweep_json = json.loads(run(base, "json", "--sweep", "eps", "--values", values))["entries"]
        sweep_csv = run(base, "csv", "--sweep", "eps", "--values", values).splitlines()[1:]
        per_value = len(sweep_json) // len(eps_grid)
        assert per_value == len(base["vulnerabilities"]) * len(base["strategies"])
        for i, eps in enumerate(eps_grid):
            doc = dict(base, epsilon=eps)
            rows = slice(i * per_value, (i + 1) * per_value)
            assert sweep_json[rows] == json.loads(run(doc, "json"))["entries"]
            assert sweep_csv[rows] == run(doc, "csv").splitlines()[1:]
        assert any("mc" in e for e in sweep_json) == mc_validate


@pytest.mark.parametrize("vulnerability, calls", [("vulnerability_1", 42), ("vulnerability_2", 34)])
def test_eps_sweep_solves_a_singular_configuration_once(capsys, monkeypatch, vulnerability, calls):
    # Sigma_R is singular for 12 of dos's 15 configurations on vulnerability_1
    # and 4 of 7 on vulnerability_2; each of those has one zero report for
    # the whole sweep, and the others one report per epsilon.
    solved = []
    solve = cli.compute_impact

    def counted(summary):
        solved.append(summary)
        return solve(summary)

    monkeypatch.setattr(cli, "compute_impact", counted)
    values = ",".join(repr(float(e)) for e in np.linspace(0.05, 0.95, 10))
    args = ["assess", "--vulnerability", vulnerability, "--strategy", "dos", "--sweep", "eps", "--values", values]
    assert cli.main(args) in (cli.EXIT_OK, cli.EXIT_ALL_ZERO)
    assert len(json.loads(capsys.readouterr().out)["entries"]) == 10
    assert len(solved) == calls


def _src_env():
    src = str(Path(stealthimpact.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_m_runs_the_cli():
    args = ["-m", "stealthimpact", "assess", "--vulnerability", "vulnerability_1", "--strategy", "fdi"]
    done = subprocess.run([sys.executable, *args], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert json.loads(done.stdout)["entries"][0]["strategy"] == "fdi"


def test_assess_does_not_import_scipy():
    # scipy costs more to import than a whole small assessment; concurrent.futures
    # (and the logging it imports) serves only the simulator's helper thread
    code = (
        "import io, sys, contextlib\n"
        "from stealthimpact import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['assess']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent', 'logging')))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


_WRONG_TYPE = {
    "number": st.one_of(st.none(), st.text(max_size=3), st.lists(st.integers(-2, 5), max_size=3), st.just({})),
    "string": st.one_of(st.none(), st.integers(-2, 5), st.lists(st.text(max_size=3), max_size=2), st.just({})),
    "list": st.one_of(
        st.none(), st.integers(-2, 5), st.text(max_size=3), st.dictionaries(st.text(max_size=3), st.integers(1, 3), max_size=2)
    ),
    "object": st.one_of(st.none(), st.integers(-2, 5), st.text(max_size=3), st.lists(st.integers(1, 3), max_size=3)),
}


def _kind(value):
    if isinstance(value, dict):
        return "object"
    if isinstance(value, list):
        return "list"
    return "string" if isinstance(value, str) else "number"


def test_mutated_scenarios_exit_with_documented_codes(tmp_path):
    base = json.loads(bundled_scenario_path().read_text())
    scenario_path = tmp_path / "mutated.json"
    out = tmp_path / "out.json"

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        doc = copy.deepcopy(base)
        for _ in range(data.draw(st.integers(1, 3))):
            # walk down from the root, stopping at each level with probability 1/2
            parent, key = None, None
            node = doc
            while isinstance(node, (dict, list)) and node and (key is None or data.draw(st.booleans())):
                parent = node
                key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
                node = node[key]
            if parent is None:
                break
            if data.draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = data.draw(_WRONG_TYPE[_kind(node)])
        scenario_path.write_text(json.dumps(doc))
        code = cli.main(["assess", "--scenario", str(scenario_path), "--out", str(out)])
        assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL, cli.EXIT_ALL_ZERO)

    check()
