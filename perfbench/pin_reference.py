"""Pin the correctness gate's reference values from the program as it is now.

Usage, from the root of a source checkout:

    PYTHONPATH=src python3 perfbench/pin_reference.py

Runs one pass of ``grid``, ``eps_sweep`` and ``long_horizon`` at the default
seed and writes the fields the gate compares to ``perfbench/reference.json``,
and the entries whose op failed, which have no value.
``mc_validate`` runs the ``grid`` ops, so the ``grid`` values cover it. Pin
only from a commit whose numbers are trusted: a change that claims a gain
must be checked against the values its parent produced.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gate
import workloads
from worker import call_main

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = HERE.parent
    ops, failed = {}, {}
    for name in ("grid", "eps_sweep", "long_horizon"):
        run_dir = HERE / "out" / f"pin-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        doc = workloads.build_pass(name, workloads.DEFAULT_SEED, root, run_dir)
        for op in doc["ops"]:
            rc, exc, err = call_main(op["argv"])
            if rc in (0, 4) and exc is None:
                for entry in json.loads(Path(doc["out"]).read_text())["entries"]:
                    ops[gate.entry_key(entry)] = gate.pinned_fields(entry)
            else:
                for eps in op["epsilons"]:
                    key = gate.ref_key(op["vulnerability"], op["strategy"], eps, op["horizon"])
                    failed[key] = " ".join(filter(None, (f"exit_code={rc}", exc, err.strip())))
                    print(f"not pinned, failed: {key} {failed[key]}", file=sys.stderr)
    doc = {"tolerance": gate.TOL, "ops": ops, "failed": failed}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(ops)} entries; {len(failed)} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
