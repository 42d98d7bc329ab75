#!/usr/bin/env python3
"""The repository benchmark: ergodic-hj CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload all_1d_m2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Each measured invocation is a fresh ``ergodic-hj`` process (``--jobs 1``,
one at a time) built from ``src/`` of the checkout this file sits in.
``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics as medians over the repeats; its times are CPU seconds
scaled to a reference core by a calibration loop that shares the CPU with
every invocation (see calibrate.py).  ``--trace 1`` alternates
untraced and traced invocations, times the step kernels in isolation, and
reports the per-layer metrics; tracing overhead is the traced minus the
untraced wall time.  Every invocation goes through the correctness gate
(see README.md).  The last line of standard output is one JSON object;
the full record goes to ``.perfbench_out/BENCH_<workload>[_trace].json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import kernel_bench
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

#: a run repeats its workload at least this often so the report hashes
#: have a repeat to be compared with
MIN_ITERATIONS = 2
#: set-up-only processes per run, on top of one per measured invocation
SETUP_PROBES = 10
#: no process is started, and a running one is killed, this long after the
#: run began, so a run always ends well inside three minutes
HARD_LIMIT_S = 150.0

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "ergodic_cpu_s": "s",
    "peak_rss_mb": "MB",
    "lambda_abs_err": "1",
    "verdict_pass_frac": "1",
}


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "steps", "steps_to_stop", "iterations", "evolve_calls_per_solve"):
        return "count"
    if last == "us_per_call":
        return "us"
    if last == "ns_per_node":
        return "ns"
    if last in ("bytes", "report_bytes"):
        return "B"
    if last.startswith("dt_") or last == "sim_time":
        return "t_sim"
    if last in ("overhead_share", "fail_frac", "converged_frac"):
        return "1"
    if last.endswith("_s"):
        return "s"
    raise KeyError(f"no unit for per-layer metric {name}")


class SetupError(RuntimeError):
    """The program cannot be started from this checkout."""


# ---------------------------------------------------------------------------
# one CLI process
# ---------------------------------------------------------------------------


def _spawn(wl, seed, it_dir, deadline, trace=False, setup_only=False, cal=None) -> dict:
    """Start child.py for one invocation, wait for it, return its record.

    With a running ``calibrate.Calibrator``, ``scaled`` holds the child's
    CPU seconds at the reference core's speed: up to its first command
    (set-up, scaled by the ``load`` rate over that interval), from there
    to its end, and in each command (scaled by the ``compute`` rate over
    each interval).  ``scale`` is the ``compute`` speed over the whole
    invocation."""
    shutil.rmtree(it_dir, ignore_errors=True)
    os.makedirs(it_dir)
    result_path = os.path.join(it_dir, "child.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC,
           "--result", result_path]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if cal is not None:
        cmd += ["--calibration", cal.path]
    cmd += ["--", wl.command, "--config", wl.config_path,
            "--out", os.path.join(it_dir, "cli"), "--jobs", "1", "--seed", str(seed)]
    with open(os.path.join(it_dir, "child.log"), "w") as log:
        before = cal.clock.read() if cal is not None else None
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            proc.wait(timeout=max(deadline - t0, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        t1 = time.monotonic()
    rec = {"wall_s": t1 - t0, "returncode": proc.returncode, "exit": None,
           "error": None, "cpu_s": None, "cal_end": None, "spans": []}
    try:
        with open(result_path) as fh:
            rec.update(json.load(fh))
    except (OSError, ValueError):
        with open(os.path.join(it_dir, "child.log")) as fh:
            rec["error"] = "no result from the child process:\n" + fh.read()[-2000:]
    commands = [s for s in rec["spans"] if s["name"].startswith("cli.cmd_")]
    rec["setup_wall_s"] = commands[0]["start"] - t0 if commands else None
    rec["setup_cpu_s"] = commands[0]["cpu_start"] if commands else None
    rec["commands"] = {}
    for s in commands:
        key = s["name"][len("cli.cmd_"):]
        rec["commands"][key] = rec["commands"].get(key, 0.0) + s["end"] - s["start"]
    rec["scale"] = calibrate.scale(before, rec["cal_end"], "compute")
    rec["scaled"] = {"cpu_s": None, "setup_s": None, "commands": {}}
    if cal is not None and commands and rec["cpu_s"] is not None:
        first = commands[0]
        setup = _times(first["cpu_start"], before, first["cal_start"], "load")
        rest = _times(rec["cpu_s"] - first["cpu_start"], first["cal_start"],
                      rec["cal_end"], "compute")
        rec["scaled"]["setup_s"] = setup
        rec["scaled"]["cpu_s"] = None if None in (setup, rest) else setup + rest
        for s in commands:
            key = s["name"][len("cli.cmd_"):]
            v = _times(s["cpu_end"] - s["cpu_start"], s["cal_start"], s["cal_end"],
                       "compute")
            if v is not None:
                rec["scaled"]["commands"][key] = rec["scaled"]["commands"].get(key, 0.0) + v
    return rec


def _times(cpu_s, before, after, kind):
    """``cpu_s`` at the reference speed of ``kind`` work between two reads."""
    speed = calibrate.scale(before, after, kind)
    return None if speed is None else cpu_s * speed


def run_invocation(wl, cfg, seed, it_dir, deadline, trace=False, cal=None) -> dict:
    """One measured invocation, its outputs read back and judged."""
    rec = _spawn(wl, seed, it_dir, deadline, trace=trace, cal=cal)
    out_dir = os.path.join(it_dir, "cli")
    expected = workloads.expected_checks(cfg, wl.command)
    rec["operation_ok"] = rec["error"] is None and rec["exit"] in (0, 1)
    parsed = checks.parse_checks(out_dir, wl.command) if rec["operation_ok"] else {}
    rec["checks"] = {name: parsed.get(name, False) for name in expected}
    rec["unexpected_checks"] = sorted(set(parsed) - set(expected))
    rec["lambda"] = checks.lambda_estimate(out_dir, wl.command)
    rec["digest"] = checks.report_digest(out_dir) if os.path.isdir(out_dir) else None
    rec["report_bytes"] = checks.report_bytes(out_dir) if os.path.isdir(out_dir) else 0
    if trace and rec["operation_ok"]:
        rec["layers"] = spans.layer_metrics(rec)
        rec["layers"]["cli.report_bytes"] = rec["report_bytes"]
    # the raw spans are summarised above; keep the saved record small
    rec.pop("spans", None)
    return rec


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    import ergodic_hj.config
    from ergodic_hj import kernels

    cfg = ergodic_hj.config.load_config(wl.config_path)
    work = os.path.join(OUT, wl.name + ("_trace" if trace else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run_start = time.monotonic()
    deadline = run_start + HARD_LIMIT_S
    affinity = os.sched_getaffinity(0)
    with contextlib.ExitStack() as stack:
        cal = None
        if not trace:
            # every process of an untraced run shares one CPU with the
            # calibration loop, which tracks that CPU's speed
            os.sched_setaffinity(0, {min(affinity)})
            stack.callback(os.sched_setaffinity, 0, affinity)
            cal = stack.enter_context(
                calibrate.Calibrator(os.path.join(work, "calibration.bin")))
        result = _measure(wl, cfg, seed, seconds, trace, work, deadline, cal)
    result["environment"] = environment(kernels)
    result["array_shapes"] = array_shapes(cfg, wl.command)
    return result


def _measure(wl, cfg, seed, seconds, trace, work, deadline, cal) -> dict:
    # untimed: fills the bytecode and file caches, and proves the CLI starts
    warm = _spawn(wl, seed, os.path.join(work, "warmup"), deadline, setup_only=True)
    if warm["error"] is not None or warm["exit"] != 0 or warm["setup_wall_s"] is None:
        raise SetupError(f"the CLI does not start from {SRC}:\n{warm['error']}")

    from ergodic_hj import kernels

    begin = time.monotonic()
    probes, iters, kernel = [], [], None
    if trace:
        kernel = kernel_bench.run(kernels)
    else:
        for k in range(SETUP_PROBES):
            probes.append(_spawn(wl, seed, os.path.join(work, f"setup{k}"), deadline,
                                 setup_only=True, cal=cal))
    # untraced: one invocation per round; traced: an untraced/traced pair
    modes = (False, True) if trace else (False,)
    rounds = 0
    while time.monotonic() < deadline:
        t_round = time.monotonic()
        for mode in modes:
            it_dir = os.path.join(work, f"iter{len(iters)}")
            iters.append(run_invocation(wl, cfg, seed, it_dir, deadline, trace=mode,
                                        cal=cal))
            if len(iters) > 2:  # keep the last two output trees for inspection
                shutil.rmtree(os.path.join(work, f"iter{len(iters) - 3}"),
                              ignore_errors=True)
        rounds += 1
        round_s = time.monotonic() - t_round
        if rounds * len(modes) >= MIN_ITERATIONS and (
            time.monotonic() - begin + round_s > seconds
        ):
            break
    setups = [r["scaled"]["setup_s"] for r in probes + iters
              if r["scaled"]["setup_s"] is not None]

    gate = judge(wl, cfg, iters, kernel)
    if cal is not None and any(r["operation_ok"] and r["scaled"]["cpu_s"] is None
                               for r in iters):
        gate["problems"].append("the calibration loop gave no speed reading")
    result = {
        "workload": wl.name,
        "command": wl.command,
        "config": os.path.relpath(wl.config_path, ROOT),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "measured_s": time.monotonic() - begin,
        "reference_units_per_s": calibrate.REF_UNITS_PER_S,
        "correct": not gate["problems"],
        "attempted": len(iters),
        "failed": sum(not r["operation_ok"] for r in iters),
        "gate": gate,
        "invocations": iters,
        "setup_samples_s": setups,
    }
    if trace:
        result["metrics"] = traced_metrics(iters, kernel)
        result["kernels"] = kernel["details"]
    else:
        result["metrics"] = end_to_end_metrics(cfg, iters, setups)
    return result


def judge(wl, cfg, iters, kernel) -> dict:
    """The correctness gate over every invocation of one run."""
    problems = []
    tol = workloads.lambda_tolerance(cfg)
    exact = workloads.exact_lambda(cfg)
    failing = set()
    for i, r in enumerate(iters):
        failed_here = {n for n, ok in r["checks"].items() if not ok}
        failing |= failed_here
        if not r["operation_ok"]:
            problems.append(f"invocation {i}: exit {r['exit']} "
                            f"(return code {r['returncode']}): {r['error']}")
            continue
        if r["unexpected_checks"]:
            problems.append(f"invocation {i}: unexpected checks {r['unexpected_checks']}")
        if r["exit"] != (1 if failed_here else 0):
            problems.append(f"invocation {i}: exit {r['exit']} does not match "
                            f"{len(failed_here)} failed verdict checks")
        if r["lambda"] is None or abs(r["lambda"] - exact) > tol:
            problems.append(f"invocation {i}: lambda {r['lambda']} is not within "
                            f"{tol:g} of {exact:g}")
    new = sorted(failing - wl.known_failures)
    if new:
        problems.append(f"verdict checks failing beyond the recorded baseline: {new}")
    digests = {r["digest"] for r in iters if r["operation_ok"]}
    if len(digests) > 1:
        problems.append(f"report files differ between repeats: {sorted(digests)}")
    if kernel is not None:
        problems += kernel["problems"]
    return {
        "problems": problems,
        "lambda_tolerance": tol,
        "failing_checks": sorted(failing),
        "known_failures": sorted(wl.known_failures),
        "fixed_checks": sorted(wl.known_failures - failing),
        "report_digest": sorted(digests),
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end_metrics(cfg, iters, setups) -> dict:
    exact = workloads.exact_lambda(cfg)
    passed = sum(sum(r["checks"].values()) for r in iters)
    total = sum(len(r["checks"]) for r in iters)
    values = {
        "cpu_s": _median([r["scaled"]["cpu_s"] for r in iters]),
        "setup_s": _median(setups),
        "ergodic_cpu_s": _median(
            [r["scaled"]["commands"].get("ergodic") for r in iters]
        ),
        "peak_rss_mb": _median(
            [r["maxrss_kb"] / 1024.0 if r.get("maxrss_kb") else None for r in iters]
        ),
        "lambda_abs_err": _median(
            [abs(r["lambda"] - exact) for r in iters if r["lambda"] is not None]
        ),
        "verdict_pass_frac": passed / total if total else None,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_metrics(iters, kernel) -> dict:
    traced = [r["layers"] for r in iters if "layers" in r]
    untraced_wall = _median([r["wall_s"] for r in iters if "layers" not in r])
    traced_wall = _median([r["wall_s"] for r in iters if "layers" in r])
    values = {}
    if traced:
        for name in traced[0]:
            values[name] = _median([t[name] for t in traced])
    values.update(kernel["metrics"])
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = (
        traced_wall - untraced_wall if None not in (traced_wall, untraced_wall) else None
    )
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10, check=True).stdout.strip()
        return int(out)
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def environment(kernels) -> dict:
    import numpy
    import scipy

    return {
        "backend": kernels.backend_name(),
        "numba_available": bool(kernels.NUMBA_AVAILABLE),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def array_shapes(cfg, command) -> dict:
    """Shape of the state array of every grid the workload steps on."""
    from ergodic_hj import cli, grid, problem

    prob = cli.build_problem(cfg)
    h = float(cfg["ergodic"]["spacing"])
    shapes = {}
    for r in cfg["ergodic"]["ladder"]:
        shapes[f"ergodic.box_R{float(r):g}"] = grid.make_grid("box", float(r), h, prob.dim).shape
    for c in cfg["ergodic"].get("cutoffs", []):
        s = problem.torus_half_width(prob.source, float(c))
        shapes[f"ergodic.torus_cut{float(c):g}"] = grid.make_grid("torus", s, h, prob.dim).shape
    if command == "all":
        lt = cfg["longtime"]
        shapes["longtime.box"] = grid.make_grid(
            "box", float(lt["box_half_width"]), float(lt["spacing"]), prob.dim).shape
        if prob.m == 2.0:
            oc = cfg["oracle"]
            shapes["oracle.box"] = grid.make_grid(
                "box", float(oc["box_half_width"]), float(oc["spacing"]), prob.dim).shape
    return {k: list(v) for k, v in shapes.items()}


def import_package():
    """Import ergodic_hj from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import ergodic_hj
    except ImportError as exc:
        raise SetupError(f"cannot import ergodic_hj from {SRC}: {exc}") from exc
    if not os.path.abspath(ergodic_hj.__file__).startswith(SRC + os.sep):
        raise SetupError(f"ergodic_hj resolves to {ergodic_hj.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def save(result) -> str:
    os.makedirs(OUT, exist_ok=True)
    suffix = "_trace" if result["trace"] else ""
    path = os.path.join(OUT, f"BENCH_{result['workload']}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True, default=str)
    return path


def print_report(result, path):
    env = result["environment"]
    print(f"workload {result['workload']} (ergodic-hj {result['command']} "
          f"--config {result['config']}), seed {result['seed']}, "
          f"{'traced' if result['trace'] else 'untraced'}")
    print(f"environment: backend {env['backend']}, {env['nproc']} cpu, python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"L2 {env['l2_cache_bytes']} B, L3 {env['l3_cache_bytes']} B")
    print(f"array shapes: {result['array_shapes']}")
    iters = result["invocations"]
    walls = [r["wall_s"] for r in iters]
    print(f"{len(iters)} invocations in {result['measured_s']:.1f} s, wall "
          f"{min(walls):.3f}..{max(walls):.3f} s, "
          f"{len(result['setup_samples_s'])} set-up samples")
    if not result["trace"]:
        scales = [r["scale"] for r in iters if r["scale"] is not None]
        if scales:
            print(f"  core speed / reference: {min(scales):.3f}..{max(scales):.3f}; "
                  f"the times below are CPU seconds at the reference speed")
        # commands a workload may run besides `ergodic`, reported here only
        for cmd in ("validate", "longtime", "oracle"):
            vals = [r["scaled"]["commands"][cmd] for r in iters
                    if cmd in r["scaled"]["commands"]]
            if vals:
                print(f"  {cmd + '_cpu_s':38s} {statistics.median(vals):14.6g} s  "
                      f"(median of {len(vals)})")
    for name, m in result["metrics"].items():
        v = m["value"]
        shown = f"{v:14.6g}" if isinstance(v, (int, float)) else f"{v!s:>14}"
        print(f"  {name:38s} {shown} {m['unit']}")
    gate = result["gate"]
    print(f"failing verdict checks: {gate['failing_checks'] or 'none'} "
          f"(recorded baseline: {gate['known_failures'] or 'none'})")
    if gate["fixed_checks"]:
        print(f"baseline failures that now pass: {gate['fixed_checks']}")
    print(f"report digest: {', '.join(gate['report_digest']) or 'none'}")
    for p in gate["problems"]:
        print(f"GATE: {p}")
    print(f"correct: {result['correct']}; full record in {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------


def self_check() -> int:
    """Run the smoke workload both ways; every named metric must appear with
    the unit BENCHMARK.json gives it and a finite value."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    errors = []
    if {w["name"] for w in contract["workloads"]} != set(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run_workload(workloads.SMOKE, 0, 1.0, trace)
        want = {m["name"]: m["unit"] for m in contract[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                errors.append(f"{key} {name}: BENCHMARK.json unit {want.get(name)!r}, "
                              f"emitted {got.get(name)!r}")
        for name, m in result["metrics"].items():
            v = m["value"]
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                errors.append(f"{key} {name}: value {v!r} is not a finite number")
        if result["failed"]:
            errors.append(f"{key}: {result['failed']} smoke invocations failed")
    for e in errors:
        print(f"self-check: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"self-check passed: {len(contract['end_to_end'])} end-to-end and "
          f"{len(contract['per_layer'])} per-layer metrics, each emitted with its unit")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded in every report")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check that every metric is emitted with its unit")
    args = parser.parse_args(argv)
    try:
        import_package()
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(result, save(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
