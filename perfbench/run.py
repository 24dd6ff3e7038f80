"""stealthimpact benchmark: one workload, end-to-end or traced per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0

Workloads are ``grid``, ``eps_sweep``, ``long_horizon`` and ``mc_validate``
(see ``perfbench/README.md``). The program is imported from the checkout's
``src/``; without it the benchmark exits 2 and prints no result.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones.
End-to-end times are scaled to a reference host speed (``hostspeed.py``); the
unscaled values are printed beside them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything the run
leaves behind goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads
from hostspeed import SETUP_REFERENCE_S, scale
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175.0
SETUP_REPEATS = 11
THREADS = "1"

END_TO_END = {
    "setup_s": "s",
    "assess_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Set-up as a user pays it: `import stealthimpact` plus loading the generated
# scenario (which solves the DARE and validates the model), timed inside a
# fresh interpreter. The host speed is measured before, during and after it
# with the pure-Python loop, which does not load numpy ahead of the import.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[2])
from hostspeed import Sampler, calibrate_loop
before = calibrate_loop()
with Sampler(calibrate_loop) as sampler:
    t0 = time.perf_counter()
    import stealthimpact
    stealthimpact.load_scenario(sys.argv[1])
    t1 = time.perf_counter()
after = calibrate_loop()
print(repr(t1 - t0 - sampler.busy_s))
calibrations = [before, *sampler.samples, after]
print(repr(sum(calibrations) / len(calibrations)))
print(stealthimpact.__file__)
"""


def child_env() -> dict:
    """The environment of every child: the checkout's src/ and pinned BLAS/OpenMP threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = THREADS
    return env


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    # subprocess.run kills the child on timeout and waits for it before raising.
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)


def measure_setup(scenario: Path) -> list[tuple[float, float]]:
    """(set-up seconds, host calibration seconds) of fresh interpreters.

    The first, which may compile bytecode, is dropped.
    """
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = run_child([sys.executable, "-c", SETUP_CODE, str(scenario), str(HERE)], 60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        seconds, calibration, location = proc.stdout.split("\n")[:3]
        if not Path(location).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"set-up child imported stealthimpact from {location}, not from the checkout")
        samples.append((float(seconds), float(calibration)))
    return samples[1:]


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / workloads.BUNDLED_SCENARIO).is_file():
        print(f"error: no stealthimpact source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    doc = workloads.build_pass(args.workload, args.seed, ROOT, run_dir)
    (run_dir / "pass.json").write_text(json.dumps(doc, indent=1))
    reference = json.loads((HERE / "reference.json").read_text())

    setup = [] if args.trace else measure_setup(Path(doc["scenario"]))

    remaining = DEADLINE_S - (time.perf_counter() - started)
    proc = run_child([sys.executable, str(HERE / "worker.py"), str(run_dir), str(args.seconds), str(args.trace)], remaining)
    if proc.returncode != 0:
        print(f"error: workload child exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return 1
    result = json.loads((run_dir / "worker.json").read_text())
    records = result["records"]
    failures, mismatches, compared = gate.evaluate(doc, records, reference)

    failed = {f["record"] for f in failures}
    timed = [i for i, r in enumerate(records) if r["phase"] == "timed"]
    failed_timed = sum(1 for i in timed if i in failed)
    # An op's latency is its mean over the timed passes; the percentiles are
    # over the ops of a pass. Pooling the repeats instead puts grid's median in
    # the gap between two ops, where it follows one repeat's noise; the mean
    # averages the host's slowdowns over the run as the throughput does.
    raw: dict = {}
    scaled: dict = {}
    for i in timed:
        r = records[i]
        raw.setdefault(r["op"], []).append(r["latency_s"])
        scaled.setdefault(r["op"], []).append(scale(r["latency_s"], r["calibration_s"]))
    ok_timed = len(timed) - failed_timed

    env = result["env"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"inputs: ops_per_pass={len(doc['ops'])} epsilons={[round(e, 6) for e in doc['epsilons']]} "
          f"horizon={doc['horizon']} mc_seed={doc['mc_seed']} timed_passes={result['passes']}")
    print(f"env: python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']['name']} {env['blas']['version']} nproc={env['nproc']} "
          f"affinity={env['affinity']} threads={env['threads']}")

    metrics = {}
    if args.trace == 0:
        def end_to_end(setup_s: list, latencies: dict) -> dict:
            op_ms = [1000.0 * statistics.fmean(v) for v in latencies.values()]
            return {
                "setup_s": statistics.median(setup_s),
                "assess_per_s": ok_timed / sum(sum(v) for v in latencies.values()),
                "op_p50_ms": percentile(op_ms, 0.5),
                "op_p90_ms": percentile(op_ms, 0.9),
                "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            }

        values = end_to_end([scale(s, c, SETUP_REFERENCE_S) for s, c in setup], scaled)
        unscaled = end_to_end([s for s, _ in setup], raw)
        samples = f"n={len(raw)} ops x {result['passes']} passes"
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "assess_per_s": f"{ok_timed} successful ops / summed op time",
            "op_p50_ms": samples,
            "op_p90_ms": samples,
            "peak_rss_mb": "ru_maxrss of the workload process",
        }
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} = {values[name]!r} {unit} ({notes[name]}; unscaled {unscaled[name]!r})")
    else:
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": result["per_layer"][name], "unit": unit}
            print(f"{name} = {result['per_layer'][name]!r} {unit}")
        print("self-time split: " + " ".join(f"{m}={share:.4f}" for m, share in result["module_split"].items()))
    print(f"failed_frac = {failed_timed / len(timed)!r} ratio ({failed_timed}/{len(timed)} timed ops)")

    print(f"correctness gate: {len(records) - len(failures)}/{len(records)} op runs passed, "
          f"{compared} report entries compared with reference values")
    by_op: dict = {}
    for f in failures:
        by_op.setdefault((f["vulnerability"], f["strategy"]), []).append(f)
    for runs in by_op.values():
        f = runs[0]
        print(f"failed op: workload={f['workload']} vulnerability={f['vulnerability']} strategy={f['strategy']} "
              f"epsilon={','.join(f'{e:.6g}' for e in f['epsilons'])} N={f['horizon']} exit_code={f['exit_code']} "
              f"exception={f['exception']} runs={len(runs)} reason={f['reason']}")

    summary = {"correct": mismatches == 0, "attempted": len(records), "failed": len(failures), "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "epsilons": doc["epsilons"], "mc_seed": doc["mc_seed"],
         "env": env, "setup_samples": setup, "failures": failures, **summary}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
