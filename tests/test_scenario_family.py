"""Generated scenarios through the CLI: every strategy on both vulnerabilities.

The bundled scenario is one 3-state plant with a single critical row and a
3-row reference box. The seeded family of scenario_family.py has 6 states,
two critical rows and a 4-row box, and lists all eight strategies. Every run
must end with exit 0 or 4 and a strict-JSON report.
"""

import json

import pytest

from stealthimpact import cli
from stealthimpact.attacks import KINDS
from scenario_family import scenario_doc

SEEDS = (0, 1, 2)
HORIZONS = (2, 10, 30)
VULNERABILITIES = ("v1", "v2")

# Runs that exit 3 today, with the message they print; they join the grid.
# A scan of seeds 0-11 at N = 2, 6, ..., 50 found these four, all fdi on v1,
# all on the budget's residual: |d*| is 1e7 to 3e8 there, and |T_R d*|^2
# cannot be evaluated to 1e-9 of the radius in double at that size.
KNOWN_FAILURES = {
    (2, 34, "v1", "fdi"): "duality gap 6.498e-16, feasibility residual 2.820e-09",
    (2, 38, "v1", "fdi"): "duality gap 8.208e-16, feasibility residual 4.157e-09",
    (5, 30, "v1", "fdi"): "duality gap 1.192e-15, feasibility residual 6.361e-09",
    (11, 30, "v1", "fdi"): "duality gap 8.905e-16, feasibility residual 3.915e-09",
}
# Runs of that scan that failed the certificate before the solver made one
# rank decision, and pass now
FORMER_FAILURES = {(5, 34, "v1", "fdi"), (11, 26, "v1", "fdi")}
CASES = sorted(
    {(s, n, v, k) for s in SEEDS for n in HORIZONS for v in VULNERABILITIES for k in KINDS}
    | set(KNOWN_FAILURES)
    | FORMER_FAILURES
)


def _params():
    for case in CASES:
        known = KNOWN_FAILURES.get(case)
        reason = f"numerical failure: optimality certificate not met: {known} (tolerance 1e-09)"
        marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)] if known else []
        yield pytest.param(*case, marks=marks, id="seed{}-N{}-{}-{}".format(*case))


@pytest.fixture(scope="module")
def scenario_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("family")
    files = {}
    for seed, N in {case[:2] for case in CASES}:
        files[seed, N] = root / f"family_{seed}_{N}.json"
        files[seed, N].write_text(json.dumps(scenario_doc(seed, N)))
    return files


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("seed, N, vulnerability, kind", _params())
def test_generated_scenario_assesses(scenario_files, capsys, seed, N, vulnerability, kind):
    code = cli.main(["assess", "--scenario", str(scenario_files[seed, N]),
                     "--vulnerability", vulnerability, "--strategy", kind])
    out, err = capsys.readouterr()
    assert code in (cli.EXIT_OK, cli.EXIT_ALL_ZERO), err
    assert err == ""
    (entry,) = json.loads(out, parse_constant=_reject_constant)["entries"]
    assert (entry["vulnerability"], entry["strategy"], entry["horizon"]) == (vulnerability, kind, N)
