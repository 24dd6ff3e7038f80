"""Runs one workload's ops in this process and writes what it saw as JSON.

Usage: python3 perfbench/worker.py RUN_DIR SECONDS TRACE

RUN_DIR holds ``pass.json`` from ``workloads.build_pass``. The worker runs
as many whole passes as fit in SECONDS (at least one), one client in a closed
loop. With TRACE=1 each untraced pass is followed by a traced one. Ops that
failed are replayed once under a separate tracer to name the exception, after
the measured passes. The result goes to ``RUN_DIR/worker.json``
and the spans to ``RUN_DIR/spans.jsonl``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

import stealthimpact
from stealthimpact import cli

from hostspeed import Sampler, calibrate
from tracer import Tracer


def call_main(argv: list[str]) -> tuple:
    """One op: returns (exit code or None, exception name or None, stderr text)."""
    err = io.StringIO()
    saved, sys.stderr = sys.stderr, err
    try:
        rc, exc = cli.main(argv), None
    except SystemExit as e:
        rc, exc = (e.code if isinstance(e.code, int) else 2), "SystemExit"
    except Exception as e:  # an escaped exception is a failed op, not a crash of the benchmark
        rc, exc = None, type(e).__name__
    finally:
        sys.stderr = saved
    return rc, exc, err.getvalue()


def run_pass(ops: list, out: Path, index: int, phase: str, tracer=None) -> list:
    """One pass over the ops; returns its records.

    Untraced, the host's speed is measured before each op, after the last one
    and, by a ``Sampler``, during each op. A record's ``calibration_s`` is the
    mean of the measurements during and on either side of its op, and its
    ``latency_s`` leaves out the time the sampler took. Traced passes are not
    scaled and run without the sampler, so that it adds nothing to the spans.
    """
    records = []
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
        tracer.start_pass(index)
    try:
        before = calibrate() if tracer is None else None
        for op in ops:
            out.unlink(missing_ok=True)
            if tracer is not None:
                tracer.start_op(op)
            with Sampler() if tracer is None else contextlib.nullcontext() as sampler:
                t0 = clock()
                rc, exc, err = call_main(op["argv"])
                t1 = clock()
            record = {
                "op": op["id"],
                "pass": index,
                "phase": phase,
                "exit_code": rc,
                "exception": exc,
                "latency_s": t1 - t0,
            }
            if sampler is not None:
                after = calibrate()
                record["latency_s"] -= sampler.busy_s
                record["calibration_s"] = statistics.fmean([before, *sampler.samples, after])
                before = after
            ok = rc in (0, 4) and exc is None
            record["report"] = out.read_text() if ok else None
            record["stderr"] = None if ok else err.strip()[:300]
            records.append(record)
        return records
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_rounds(ops: list, out: Path, seconds: float, tracer=None) -> tuple:
    """Run as many rounds as fit in ``seconds``, and at least one.

    A round is one untraced pass and, with a tracer, one traced pass right
    after it, so that both see the same host speed and their difference
    is the tracer's cost. Another round starts only if, at the mean round time
    so far, it would end within ``seconds``. Whole passes keep the set of
    latency samples the same from run to run, and the run time bounded.
    """
    records = []
    start = time.perf_counter()
    rounds = 0
    phases = [("timed", None)] + ([("traced", tracer)] if tracer is not None else [])
    while True:
        for phase, tr in phases:
            records += run_pass(ops, out, rounds, phase, tr)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return records, rounds


def blas_info() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def main() -> int:
    run_dir, seconds, trace = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1"
    src = Path(stealthimpact.__file__).resolve().parent.parent
    doc = json.loads((run_dir / "pass.json").read_text())
    if src != Path(doc["src"]).resolve():
        print(f"imported stealthimpact from {src}, not from the checkout's {doc['src']}", file=sys.stderr)
        return 2
    ops = doc["ops"]
    out = Path(doc["out"])

    # Warm-up: lazy imports and first-call set-up happen here, untimed.
    call_main(ops[0]["argv"])

    tracer = Tracer() if trace else None
    records, passes = run_rounds(ops, out, seconds, tracer)
    result = {
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    if trace:
        untraced, traced = (sum(r["latency_s"] for r in records if r["phase"] == p) for p in ("timed", "traced"))
        result["per_layer"] = tracer.metrics(passes, untraced, traced)
        result["module_split"] = tracer.module_split()
        tracer.dump(run_dir / "spans.jsonl")

    # Name the exception behind each failed op; cli.main reports only a message.
    failed = sorted({r["op"] for r in records if r["exit_code"] not in (0, 4) and r["exception"] is None})
    names = {}
    for op_id in failed:
        probe = Tracer()
        run_pass([ops[op_id]], out, 0, "probe", probe)
        names[op_id] = probe.innermost_exception(op_id)
    for r in records:
        if r["op"] in names:
            r["exception"] = names[r["op"]]

    result["records"] = records
    (run_dir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
