"""Spans and counters around calls into the program's modules.

Nothing in the program is instrumented. ``Tracer.install`` replaces each
traced public function, in every ``stealthimpact`` module that binds it, with
a wrapper that records a span and updates the counters; ``uninstall`` puts the
originals back. Spans are kept in memory and written as JSONL by ``dump``.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans add up to the duration of the root spans, which
are the ``cli.main`` calls the benchmark makes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = ("scenario", "numcore", "sysmodel", "attacks", "distrib", "solver", "mcvalidate", "cli")

TRACED = (
    ("scenario", "load_scenario"),
    ("numcore", "solve_dare"),
    ("numcore", "solve_lyapunov"),
    ("sysmodel", "assemble_extended"),
    ("attacks", "candidates"),
    ("attacks", "decision_layout"),
    ("distrib", "gaussian_summary"),
    ("distrib", "stack_dynamics"),
    ("distrib", "stationary_law"),
    ("distrib", "summarize"),
    ("solver", "compute_impact"),
    ("mcvalidate", "simulate"),
    ("cli", "assess"),
    ("cli", "main"),
)

# Per-layer metrics and their units, in the order they are printed.
PER_LAYER = {
    "solver.compute_impact.self_s": "s",
    "solver.compute_impact.calls": "count",
    "solver.rows": "count",
    "solver.newton_iters": "count",
    "solver.shortcut_frac": "ratio",
    "solver.failures": "count",
    "distrib.gaussian_summary.self_s": "s",
    "distrib.gaussian_summary.calls": "count",
    "distrib.gaussian_summary.repeat_frac": "ratio",
    "distrib.stack_dynamics.self_s": "s",
    "distrib.stack_dynamics.calls": "count",
    "distrib.summarize.self_s": "s",
    "distrib.summarize.calls": "count",
    "distrib.stationary_law.self_s": "s",
    "distrib.stationary_law.calls": "count",
    "distrib.stationary_law.calls_per_system": "calls/system",
    "numcore.solve_lyapunov.self_s": "s",
    "numcore.solve_lyapunov.calls": "count",
    "attacks.candidates.self_s": "s",
    "attacks.candidates.count": "count",
    "attacks.decision_layout.self_s": "s",
    "sysmodel.assemble_extended.self_s": "s",
    "sysmodel.assemble_extended.calls": "count",
    "mcvalidate.simulate.self_s": "s",
    "mcvalidate.simulate.calls": "count",
    "mcvalidate.samples": "count",
    "mcvalidate.bytes_computed": "B",
    "scenario.load_scenario.self_s": "s",
    "numcore.solve_dare.self_s": "s",
    "numcore.solve_dare.calls": "count",
    "cli.main.self_s": "s",
    "cli.assess.self_s": "s",
    "cli.exit_code.0": "count",
    "cli.exit_code.2": "count",
    "cli.exit_code.3": "count",
    "cli.exit_code.4": "count",
    "trace.op_wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans and counters for the ops run between install and uninstall."""

    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list = []
        self._op = None
        self._pass = 0
        self._summary_eps: dict = {}
        self._systems: set = set()

    # -- op and pass context ------------------------------------------------

    def start_pass(self, index: int) -> None:
        """Repeats and distinct systems are counted within one pass."""
        self._pass = index
        self._summary_eps = {}
        self._systems = set()

    def start_op(self, op: dict) -> None:
        self._op = op

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "stealthimpact"]
        for module, fname in TRACED:
            original = getattr(importlib.import_module(f"stealthimpact.{module}"), fname)
            wrapper = self._wrap(f"{module}.{fname}", original, _HOOKS.get(fname))
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            exc = None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op["id"] if self._op else None,
                              self._pass, type(exc).__name__ if exc is not None else None)
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        return traced

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, pass_, exc) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "pass": pass_, "exc": exc}) + "\n")

    def innermost_exception(self, op_id):
        """Name of the exception raised deepest inside the given op, if any span saw one."""
        raised = [s for s in self.spans if s[4] == op_id and s[6] is not None]
        return min(raised, key=lambda s: s[2])[6] if raised else None

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: defaultdict = defaultdict(float)
        for i, (name, start, end, *_) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def metrics(self, passes: int, untraced_s: float, traced_s: float) -> dict:
        """Per-layer metrics per pass, from ``passes`` identical traced passes.

        ``untraced_s`` and ``traced_s`` are the summed op times of the untraced
        and the traced passes.
        """
        self_s = self.self_times()
        calls: defaultdict = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        c = self.counters
        self_sum = sum(self_s.values())

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for key in PER_LAYER:
            layer, _, metric = key.rpartition(".")
            if metric == "self_s":
                out[key] = self_s.get(layer, 0.0) / passes
            elif metric == "calls":
                out[key] = calls.get(layer, 0) / passes
            else:
                out[key] = c.get(key, 0.0) / passes
        out.update({
            "solver.shortcut_frac": ratio(c["solver.shortcuts"], calls["solver.compute_impact"]),
            "distrib.gaussian_summary.repeat_frac": ratio(c["distrib.summary_repeats"], calls["distrib.gaussian_summary"]),
            "distrib.stationary_law.calls_per_system": ratio(calls["distrib.stationary_law"], c["distrib.systems"]),
            "trace.op_wall_s": traced_s / passes,
            "trace.self_sum_s": self_sum / passes,
            "trace.overhead_frac": ratio(traced_s - untraced_s, untraced_s),
        })
        return out

    def module_split(self) -> dict:
        """Each module's share of the summed self time."""
        self_s = self.self_times()
        total = sum(self_s.values()) or 1.0
        return {m: sum(v for k, v in self_s.items() if k.split(".")[0] == m) / total for m in MODULES}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _on_compute_impact(tr, args, kwargs, result, exc):
    if exc is not None:
        tr.counters["solver.failures"] += 1
        return
    s = _arg(args, kwargs, 0, "summary")
    # The same tests, in the same order, as the shortcut returns at the top of
    # solver.compute_impact: those calls solve no row.
    if not s.residual_cov_pd or s.eps_prime < 0 or not s.impact_bounded:
        tr.counters["solver.shortcuts"] += 1
    else:
        tr.counters["solver.rows"] += s.t_z.shape[0]
    tr.counters["solver.newton_iters"] += result.newton_iters


def _on_candidates(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counters["attacks.candidates.count"] += len(result)


def _on_gaussian_summary(tr, args, kwargs, result, exc):
    # A candidate is identified by its attack matrices: the same matrices at
    # the same N give the same law, whatever epsilon the summary is taken at.
    attack = _arg(args, kwargs, 1, "attack")
    fields = tuple(v.tobytes() if hasattr(v, "tobytes") else v for v in vars(attack).values())
    op = tr._op
    key = (op["vulnerability"], op["strategy"], _arg(args, kwargs, 4, "N"), hash(fields))
    eps = _arg(args, kwargs, 5, "epsilon")
    seen = tr._summary_eps.setdefault(key, set())
    if seen - {eps}:
        tr.counters["distrib.summary_repeats"] += 1
    seen.add(eps)


def _on_stationary_law(tr, args, kwargs, result, exc):
    nominal = _arg(args, kwargs, 0, "nominal")
    system = (nominal.A_cl.tobytes(), nominal.E_r.tobytes())
    if system not in tr._systems:
        tr._systems.add(system)
        tr.counters["distrib.systems"] += 1


def _on_simulate(tr, args, kwargs, result, exc):
    system = _arg(args, kwargs, 0, "system")
    attack = _arg(args, kwargs, 1, "attack")
    cfg = _arg(args, kwargs, 3, "cfg")
    q_z = _arg(args, kwargs, 4, "q_z")
    steps = int(cfg.horizon) - attack.start_step + 1
    n_x, n_y = system.plant.n_x, system.plant.n_y
    n_z = n_x if q_z is None else len(q_z)
    # Computed, not measured: float64 sample trajectories of the loop state,
    # the residuals and the critical outputs, one row per sample and step.
    tr.counters["mcvalidate.samples"] += cfg.samples * steps
    tr.counters["mcvalidate.bytes_computed"] += 8 * cfg.samples * steps * (2 * n_x + n_y + n_z)


def _on_main(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counters[f"cli.exit_code.{result}"] += 1


_HOOKS = {
    "compute_impact": _on_compute_impact,
    "candidates": _on_candidates,
    "gaussian_summary": _on_gaussian_summary,
    "stationary_law": _on_stationary_law,
    "simulate": _on_simulate,
    "main": _on_main,
}
