"""The benchmark's tracer still resolves every name it wraps and reads.

perfbench/tracer.py wraps the functions in its TRACED list and its hooks read
fields of the program's types (the attack's start step, the summary's radius
and audits, the report's Newton count). A renamed function or field fails the
benchmark itself, so this runs the tracer, loaded from its file and left
unchanged, over a Monte Carlo replay op, the long-horizon rerouting op,
whose configurations are all over budget, so it reports zero and exits 4,
and an fdi op that is unbounded and exits 0, whose solve and shortcut counts
are pinned.
"""

import importlib.util
import json
import sys
from pathlib import Path

from stealthimpact import cli
from stealthimpact.scenario import bundled_scenario_path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files next to it
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _op(op_id, scenario, strategy, out, *extra):
    argv = ["assess", "--scenario", str(scenario), "--vulnerability", "vulnerability_1",
            "--strategy", strategy, "--out", str(out), *extra]
    return {"id": op_id, "vulnerability": "vulnerability_1", "strategy": strategy, "argv": argv}


def test_tracer_counts_replay_and_failing_op(tmp_path, monkeypatch, capsys):
    doc = json.loads(bundled_scenario_path().read_text())
    doc["mc"]["samples"] = 200
    short, long = tmp_path / "short.json", tmp_path / "long.json"
    short.write_text(json.dumps(doc))
    long.write_text(json.dumps(dict(doc, horizon=50)))
    ops = [
        _op(0, short, "replay_dos", tmp_path / "replay.json", "--mc-validate"),
        _op(1, long, "rerouting", tmp_path / "rerouting.json"),
        _op(2, short, "fdi", tmp_path / "fdi.json"),
    ]

    tracer = _load_tracer(monkeypatch).Tracer()
    original = cli.main
    tracer.install()
    try:
        assert cli.main is not original
        tracer.start_pass(0)
        codes = []
        for op in ops:
            tracer.start_op(op)
            codes.append(cli.main(op["argv"]))
    finally:
        tracer.uninstall()
    assert cli.main is original

    assert codes[0] in (cli.EXIT_OK, cli.EXIT_ALL_ZERO)
    # every rerouting loop at N = 50 is over budget: a zero report, not a failure
    assert codes[1] == cli.EXIT_ALL_ZERO
    assert codes[2] == cli.EXIT_OK
    assert json.loads((tmp_path / "fdi.json").read_text())["entries"][0]["unbounded"] is True
    assert capsys.readouterr().err == ""
    counters = tracer.counters
    assert sum(counters[f"cli.exit_code.{code}"] for code in (0, 2, 3, 4)) == len(ops)
    # replay's one configuration is solved row by row (10 rows); the three
    # over-budget rerouting configurations and the unbounded fdi one return early
    assert counters["solver.rows"] == 10
    assert counters["solver.shortcuts"] == 4
    metrics = tracer.metrics(passes=1, untraced_s=1.0, traced_s=1.0)
    assert metrics["solver.rows"] > 0
    assert metrics["mcvalidate.samples"] > 0
    assert metrics["distrib.stack_dynamics.calls"] > 0
