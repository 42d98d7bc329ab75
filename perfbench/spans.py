"""In-memory spans around calls into the package's modules.

``install`` rebinds module attributes that callers resolve at call time,
so nothing under ``src/`` changes.  A function imported by name into other
modules (``ergodic.evolve``, ``cli.export_csv``, ...) is rebound there too:
every module-level name bound to the original function object gets the
wrapper.

A span is (name, start, end, parent), the process's CPU clock at start and
end (and the calibration loop's, if one runs), the seconds its children
cover and a few attributes read off the result.  The two kernels run hundreds of thousands of times per workload,
so their calls are counted and timed into the enclosing span instead of
being stored one by one.  All spans stay in memory and are exported when
the run ends.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from array import array

#: module -> functions recorded as spans in a traced run
SPANS = {
    "cli": ("cmd_validate", "cmd_ergodic", "cmd_longtime", "cmd_oracle", "cmd_all",
            "load_artifacts"),
    "ergodic": ("solve_state_constraint", "solve_periodic"),
    "parabolic": ("evolve",),
    "asymptotics": ("run_large_time", "barrier_check_upper", "barrier_check_lower"),
    "reference": ("hopf_cole_eigenvalue", "hopf_cole_parabolic"),
    "scheme": ("residual_ergodic",),
    "grid": ("export_csv", "sample"),
}
#: module -> hot functions that are counted, not stored per call
LEAVES = {"kernels": ("vhj_step", "heat_step")}
#: the only spans an untraced run records: one per CLI command
COMMANDS = SPANS["cli"][:5]


def _solve_attrs(attrs, args, kwargs, result):
    attrs["converged"] = bool(result.converged)
    attrs["sim_time"] = float(result.stop_info.get("final_time", 0.0))


def _barrier_attrs(attrs, args, kwargs, result):
    attrs["passed"] = bool(result.passed)


def _eigen_attrs(attrs, args, kwargs, result):
    attrs["iterations"] = int(result[1]["iterations"])


def _export_attrs(attrs, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    attrs["bytes"] = os.path.getsize(path)


ON_RESULT = {
    "ergodic.solve_state_constraint": _solve_attrs,
    "ergodic.solve_periodic": _solve_attrs,
    "asymptotics.barrier_check_upper": _barrier_attrs,
    "asymptotics.barrier_check_lower": _barrier_attrs,
    "reference.hopf_cole_eigenvalue": _eigen_attrs,
    "grid.export_csv": _export_attrs,
}


class Tracer:
    def __init__(self, clock=None):
        #: a ``calibrate.Clock`` read at the start and end of every span
        self.clock = clock
        self.spans = []
        self.stack = []
        self.leaf_calls = {}
        self.leaf_s = {}
        self.dts = array("d")

    def span(self, name, fn):
        on_result = ON_RESULT.get(name)

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            rec = {"name": name, "parent": parent, "start": time.monotonic(),
                   "end": None, "cpu_start": time.process_time(), "cpu_end": None,
                   "child_s": 0.0, "leaf_calls": {}, "attrs": {}}
            if self.clock is not None:
                rec["cal_start"] = self.clock.read()
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec["attrs"], args, kwargs, result)
                return result
            except Exception as exc:
                rec["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                self.stack.pop()
                rec["end"] = time.monotonic()
                rec["cpu_end"] = time.process_time()
                if self.clock is not None:
                    rec["cal_end"] = self.clock.read()
                if parent >= 0:
                    self.spans[parent]["child_s"] += rec["end"] - rec["start"]

        return wrapper

    def leaf(self, name, fn):
        calls, busy, dts = self.leaf_calls, self.leaf_s, self.dts
        calls[name] = 0
        busy[name] = 0.0
        record_dt = name == "kernels.vhj_step"

        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            out = fn(*args, **kwargs)
            d = time.monotonic() - t0
            calls[name] += 1
            busy[name] += d
            if record_dt:
                dts.append(args[2])
            if self.stack:
                rec = self.spans[self.stack[-1]]
                rec["child_s"] += d
                rec["leaf_calls"][name] = rec["leaf_calls"].get(name, 0) + 1
            return out

        return wrapper

    def export(self) -> dict:
        dts = sorted(self.dts)
        return {
            "spans": self.spans,
            "leaf_calls": self.leaf_calls,
            "leaf_s": self.leaf_s,
            "dt": {"min": dts[0], "median": statistics.median(dts), "max": dts[-1]}
            if dts else None,
        }


def _rebind(package, original, wrapper):
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer, full: bool, package: str = "ergodic_hj"):
    """Wrap the CLI commands, and with ``full`` every traced layer."""
    for mod_name, names in SPANS.items():
        mod = importlib.import_module(f"{package}.{mod_name}")
        for fn_name in names:
            if not full and not (mod_name == "cli" and fn_name in COMMANDS):
                continue
            original = getattr(mod, fn_name)
            _rebind(package, original, tracer.span(f"{mod_name}.{fn_name}", original))
    if full:
        for mod_name, names in LEAVES.items():
            mod = importlib.import_module(f"{package}.{mod_name}")
            for fn_name in names:
                original = getattr(mod, fn_name)
                _rebind(package, original, tracer.leaf(f"{mod_name}.{fn_name}", original))


# ---------------------------------------------------------------------------
# per-layer metrics from one exported trace
# ---------------------------------------------------------------------------


def _inclusive_leaf_calls(spans):
    """Kernel calls under each span, its descendants included."""
    inc = [dict(s["leaf_calls"]) for s in spans]
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i]["parent"]
        if p >= 0:
            for k, v in inc[i].items():
                inc[p][k] = inc[p].get(k, 0) + v
    return inc


def _has_ancestor(spans, i, names):
    p = spans[i]["parent"]
    while p >= 0:
        if spans[p]["name"] in names:
            return True
        p = spans[p]["parent"]
    return False


def layer_metrics(trace: dict) -> dict:
    """Per-layer numbers (name -> value) from ``Tracer.export`` output."""
    spans = trace["spans"]
    inc = _inclusive_leaf_calls(spans)

    def of(*names):
        return [s for s in spans if s["name"] in names]

    def busy(*names):
        return sum(s["end"] - s["start"] for s in of(*names))

    def self_s(*names):
        return sum(s["end"] - s["start"] - s["child_s"] for s in of(*names))

    def ratio(a, b):
        return a / b if b else 0.0

    vhj = "kernels.vhj_step"
    heat = "kernels.heat_step"
    calls = trace["leaf_calls"]
    leaf_s = trace["leaf_s"]
    solves = ("ergodic.solve_state_constraint", "ergodic.solve_periodic")
    solve_idx = [i for i, s in enumerate(spans) if s["name"] in solves]
    evolve_in_solve = [
        i for i, s in enumerate(spans)
        if s["name"] == "parabolic.evolve" and _has_ancestor(spans, i, solves)
    ]
    barriers = of("asymptotics.barrier_check_upper", "asymptotics.barrier_check_lower")
    evolve_busy = busy("parabolic.evolve")
    evolve_self = self_s("parabolic.evolve")
    dt = trace["dt"] or {"min": 0.0, "median": 0.0, "max": 0.0}
    return {
        "kernels.vhj_step.calls": calls.get(vhj, 0),
        "kernels.vhj_step.busy_s": leaf_s.get(vhj, 0.0),
        "kernels.vhj_step.us_per_call": 1e6 * ratio(leaf_s.get(vhj, 0.0), calls.get(vhj, 0)),
        "kernels.heat_step.calls": calls.get(heat, 0),
        "kernels.heat_step.busy_s": leaf_s.get(heat, 0.0),
        "parabolic.evolve.calls": len(of("parabolic.evolve")),
        "parabolic.evolve.busy_s": evolve_busy,
        "parabolic.evolve.self_s": evolve_self,
        "parabolic.evolve.overhead_share": ratio(evolve_self, evolve_busy),
        "parabolic.steps": sum(
            inc[i].get(vhj, 0) for i, s in enumerate(spans) if s["name"] == "parabolic.evolve"
        ),
        "parabolic.dt_min": dt["min"],
        "parabolic.dt_median": dt["median"],
        "parabolic.dt_max": dt["max"],
        "ergodic.solve_state_constraint.busy_s": busy("ergodic.solve_state_constraint"),
        "ergodic.solve_periodic.busy_s": busy("ergodic.solve_periodic"),
        "ergodic.steps_to_stop": sum(inc[i].get(vhj, 0) for i in solve_idx),
        "ergodic.sim_time": sum(spans[i]["attrs"].get("sim_time", 0.0) for i in solve_idx),
        "ergodic.evolve_calls_per_solve": ratio(len(evolve_in_solve), len(solve_idx)),
        "ergodic.converged_frac": ratio(
            sum(bool(spans[i]["attrs"].get("converged")) for i in solve_idx), len(solve_idx)
        ),
        "asymptotics.run_large_time.busy_s": busy("asymptotics.run_large_time"),
        "asymptotics.run_large_time.self_s": self_s("asymptotics.run_large_time"),
        "asymptotics.barrier_check.calls": len(barriers),
        "asymptotics.barrier_check.busy_s": sum(s["end"] - s["start"] for s in barriers),
        "asymptotics.barrier_check.fail_frac": ratio(
            sum(not s["attrs"].get("passed", False) for s in barriers), len(barriers)
        ),
        "reference.hopf_cole_eigenvalue.busy_s": busy("reference.hopf_cole_eigenvalue"),
        "reference.hopf_cole_eigenvalue.iterations": sum(
            s["attrs"].get("iterations", 0) for s in of("reference.hopf_cole_eigenvalue")
        ),
        "reference.hopf_cole_parabolic.busy_s": busy("reference.hopf_cole_parabolic"),
        "reference.hopf_cole_parabolic.self_s": self_s("reference.hopf_cole_parabolic"),
        "scheme.residual_ergodic.busy_s": busy("scheme.residual_ergodic"),
        "grid.export_csv.busy_s": busy("grid.export_csv"),
        "grid.export_csv.bytes": sum(s["attrs"].get("bytes", 0) for s in of("grid.export_csv")),
        "grid.sample.calls": len(of("grid.sample")),
        "grid.sample.busy_s": busy("grid.sample"),
        "cli.load_artifacts.busy_s": busy("cli.load_artifacts"),
        "cli.cmd_validate.busy_s": busy("cli.cmd_validate"),
        "cli.cmd_ergodic.busy_s": busy("cli.cmd_ergodic"),
        "cli.cmd_longtime.busy_s": busy("cli.cmd_longtime"),
        "cli.cmd_oracle.busy_s": busy("cli.cmd_oracle"),
    }
