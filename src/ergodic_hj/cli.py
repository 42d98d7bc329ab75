"""Command-line entry points and bit-stable report emission.

Commands: validate, ergodic, longtime, oracle, all.  Numeric CSV cells are
written with repr so re-running a config sequentially reproduces the files
byte for byte; wall-clock timings go to a separate timings.txt precisely so
the scientific outputs stay deterministic.

Exit codes: 0 pass, 1 scientific verdict failure, 2 usage or config error,
3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import asymptotics, ergodic, reference
from .config import get_path, load_config, resolved_lines
from .errors import AlignmentError, BlowUpError, BracketInconsistencyError, ConfigError
from .grid import (
    Grid,
    GridFunction,
    export_csv,
    import_table,
    make_grid,
    restrict,
    sample,
    sup_norm_diff,
)
from .parabolic import evolve
from .problem import (
    InitialSpec,
    ProblemSpec,
    SourceSpec,
    h1_certificate,
    h2_certificate,
)
from .scheme import SchemeConfig

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------


def build_source(cfg: dict) -> SourceSpec:
    block = get_path(cfg, "problem.source", required=True)
    family = block.get("family")
    if family is None:
        raise ConfigError("problem.source.family is required")
    if family == "custom_table":
        path = block.get("table_path")
        if not path:
            raise ConfigError("custom_table source needs table_path")
        return SourceSpec(family="custom_table", table=import_table(path))
    return SourceSpec(
        family=family,
        alpha=float(block.get("alpha", 2.0)),
        osc_amp=float(block.get("osc_amp", 0.0)),
        shift=float(block.get("shift", 0.0)),
    )


def build_initial(cfg: dict) -> InitialSpec:
    block = get_path(cfg, "problem.initial", default={"family": "zero"})
    family = block.get("family", "zero")
    if family == "custom_table":
        path = block.get("table_path")
        if not path:
            raise ConfigError("custom_table initial data needs table_path")
        return InitialSpec(family="custom_table", table=import_table(path))
    return InitialSpec(
        family=family,
        amplitude=float(block.get("amplitude", 1.0)),
        width=float(block.get("width", 1.0)),
    )


def build_problem(cfg: dict) -> ProblemSpec:
    m = get_path(cfg, "problem.m")
    if m is None:
        raise ConfigError("missing required config field 'problem.m'")
    dim = int(get_path(cfg, "problem.dim", default=1))
    return ProblemSpec(
        m=float(m), source=build_source(cfg), initial=build_initial(cfg), dim=dim
    )


def build_scheme(cfg: dict) -> SchemeConfig:
    block = get_path(cfg, "scheme", default={})
    return SchemeConfig(
        cfl_safety=float(block.get("cfl_safety", 0.9)),
        grad_cap=float(block.get("grad_cap", 1.0)),
    )


def _blow_up_cap(cfg: dict) -> float:
    return float(get_path(cfg, "scheme.blow_up_cap", default=1e3))


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def _write_text(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _summary_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _run_tag(kind, half_width, cutoff):
    if kind == "state_constraint":
        return f"state_R{half_width:g}"
    return f"periodic_S{half_width:g}_cut{cutoff:g}"


def write_runs_csv(path, runs, header_lines):
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(
            "kind,half_width,cutoff,constant,residual_norm,converged,"
            "iterations,stop_reason\n"
        )
        for r in runs:
            cut = "" if r.cutoff is None else repr(float(r.cutoff))
            fh.write(
                f"{r.kind},{float(r.half_width)!r},{cut},{float(r.constant)!r},"
                f"{float(r.residual_norm)!r},{int(r.converged)},"
                f"{int(r.stop_info.get('iterations', 0))},"
                f"{r.stop_info.get('reason')}\n"
            )


def load_artifacts(art_dir, problem: ProblemSpec):
    """Rebuild ergodic runs from a prior `ergodic` output directory."""
    runs_path = os.path.join(art_dir, "runs.csv")
    if not os.path.exists(runs_path):
        raise ConfigError(f"missing ergodic artifact: expected file {runs_path}")
    runs = []
    with open(runs_path) as fh:
        header = None
        for raw in fh:
            if raw.startswith("#") or not raw.strip():
                continue
            if header is None:
                header = raw.strip().split(",")
                continue
            cells = raw.strip().split(",")
            row = dict(zip(header, cells))
            kind = row["kind"]
            half_width = float(row["half_width"])
            cutoff = float(row["cutoff"]) if row["cutoff"] else None
            tag = _run_tag(kind, half_width, cutoff)
            prof_path = os.path.join(art_dir, f"profile_{tag}.csv")
            if not os.path.exists(prof_path):
                raise ConfigError(f"missing profile artifact: expected {prof_path}")
            profile = _load_profile(prof_path, kind, half_width, problem.dim)
            runs.append(
                ergodic.ErgodicApprox(
                    kind=kind,
                    half_width=half_width,
                    constant=float(row["constant"]),
                    profile=profile,
                    residual_norm=float(row["residual_norm"]),
                    converged=bool(int(row["converged"])),
                    stop_info={"reason": row["stop_reason"]},
                    cutoff=cutoff,
                )
            )
    if not runs:
        raise ConfigError(f"no runs found in {runs_path}")
    return runs


def _load_profile(path, kind, half_width, dim):
    table = import_table(path)
    if dim == 1:
        xs, vals = table
        n_store = len(xs)
    else:
        xs, ys, vals = table
        n_store = len(xs)
    nodes = n_store + 1 if kind == "periodic" else n_store
    grid = Grid(
        kind="torus" if kind == "periodic" else "box",
        half_width=half_width,
        nodes_per_axis=nodes,
        dim=dim,
    )
    return GridFunction(grid, np.asarray(vals, float).reshape(grid.shape))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(cfg, out_dir, json_flag=False):
    problem = build_problem(cfg)
    radii = get_path(cfg, "validate.radii")
    radii = np.asarray(radii, float) if radii else np.linspace(0.5, 12.0, 24)
    h1 = h1_certificate(problem.source, radii)
    h2 = h2_certificate(problem.source, problem.m)
    header = resolved_lines(cfg)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "validate.csv"), "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write("radius,envelope,h2_radius,h2_ratio\n")
        n = max(len(h1["radii"]), len(h2["radii"]))
        for i in range(n):
            c1 = (
                f"{float(h1['radii'][i])!r},{float(h1['envelope'][i])!r}"
                if i < len(h1["radii"])
                else ","
            )
            if i < len(h2["radii"]):
                ratio = float(h2["ratios"][i])
                ratio_cell = "" if math.isnan(ratio) else repr(ratio)
                c2 = f"{float(h2['radii'][i])!r},{ratio_cell}"
            else:
                c2 = ","
            fh.write(f"{c1},{c2}\n")
    lines = ["== config =="] + header + [
        "== hypothesis report ==",
        f"coercivity_plausible: {h1['plausible']}",
        f"envelope_monotone: {h1['monotone']}",
        f"gradient_ratio_plausible: {h2['plausible']}",
        f"ratio_points_skipped: {h2['skipped']}",
    ]
    _write_text(os.path.join(out_dir, "summary.txt"), lines)
    if json_flag:
        _summary_json(
            os.path.join(out_dir, "summary.json"),
            {
                "config": cfg,
                "coercivity_plausible": h1["plausible"],
                "gradient_ratio_plausible": h2["plausible"],
            },
        )
    return EXIT_PASS if (h1["plausible"] and h2["plausible"]) else EXIT_VERDICT


def _state_job(args):
    problem, R, spacing = args
    t0 = time.perf_counter()
    run = ergodic.solve_state_constraint(problem, R, spacing)
    return run, time.perf_counter() - t0


def _periodic_job(args):
    problem, cutoff, spacing = args
    t0 = time.perf_counter()
    run = ergodic.solve_periodic(problem, cutoff, spacing)
    return run, time.perf_counter() - t0


def run_ergodic_ladder(cfg, jobs=1):
    problem = build_problem(cfg)
    ladder = get_path(cfg, "ergodic.ladder")
    if not ladder:
        raise ConfigError("missing required config field 'ergodic.ladder'")
    cutoffs = get_path(cfg, "ergodic.cutoffs", default=[]) or []
    spacing = get_path(cfg, "ergodic.spacing")
    if spacing is None:
        raise ConfigError("missing required config field 'ergodic.spacing'")
    state_args = [(problem, float(R), float(spacing)) for R in ladder]
    per_args = [(problem, float(c), float(spacing)) for c in cutoffs]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            state_out = list(pool.map(_state_job, state_args))
            per_out = list(pool.map(_periodic_job, per_args))
    else:
        state_out = [_state_job(a) for a in state_args]
        per_out = [_periodic_job(a) for a in per_args]
    state_runs = [r for r, _ in state_out]
    periodic_runs = [r for r, _ in per_out]
    timings = [
        (_run_tag(r.kind, r.half_width, r.cutoff), dt) for r, dt in state_out + per_out
    ]
    return problem, state_runs, periodic_runs, timings


def cmd_ergodic(cfg, out_dir, jobs=1, json_flag=False, allow_partial=False):
    problem, state_runs, periodic_runs, timings = run_ergodic_ladder(cfg, jobs)
    est = ergodic.estimate_lambda_star(state_runs, periodic_runs)
    header = resolved_lines(cfg)
    os.makedirs(out_dir, exist_ok=True)
    all_runs = state_runs + periodic_runs
    write_runs_csv(os.path.join(out_dir, "runs.csv"), all_runs, header)
    for run in all_runs:
        tag = _run_tag(run.kind, run.half_width, run.cutoff)
        export_csv(
            run.profile,
            os.path.join(out_dir, f"profile_{tag}.csv"),
            header_lines=header,
        )
    with open(os.path.join(out_dir, "timings.txt"), "w") as fh:
        fh.write("# wall-clock seconds per run; excluded from determinism checks\n")
        for tag, dt in timings:
            fh.write(f"{tag} {dt:.3f}\n")
    gap_str = "inf" if math.isinf(est.gap) else repr(est.gap)
    lines = ["== config =="] + header + [
        "== ergodic constant estimate ==",
        f"value: {est.value!r}",
        f"upper_bracket: {est.upper_bracket!r}",
        f"lower_bracket: {est.lower_bracket!r}",
        f"gap: {gap_str}",
        f"lower_is_heuristic: {est.lower_is_heuristic}",
    ]
    for note in est.notes:
        lines.append(f"note: {note}")
    for r in all_runs:
        lines.append(
            f"run {_run_tag(r.kind, r.half_width, r.cutoff)}: constant={r.constant!r} "
            f"residual_norm={r.residual_norm!r} converged={r.converged}"
        )
    _write_text(os.path.join(out_dir, "summary.txt"), lines)
    payload = {
        "config": cfg,
        "value": est.value,
        "upper_bracket": est.upper_bracket,
        "lower_bracket": None if math.isinf(est.lower_bracket) else est.lower_bracket,
        "gap": None if math.isinf(est.gap) else est.gap,
        "runs": [
            {
                "kind": r.kind,
                "half_width": r.half_width,
                "cutoff": r.cutoff,
                "constant": r.constant,
                "residual_norm": r.residual_norm,
                "converged": r.converged,
            }
            for r in all_runs
        ],
    }
    _summary_json(os.path.join(out_dir, "summary.json"), payload)
    ok = all(r.converged for r in all_runs)
    if not ok and not allow_partial:
        return EXIT_VERDICT
    return EXIT_PASS


def cmd_longtime(cfg, out_dir, jobs=1, json_flag=False, artifacts=None,
                 allow_partial=False):
    problem = build_problem(cfg)
    scheme = build_scheme(cfg)
    horizon = get_path(cfg, "longtime.horizon")
    if horizon is None:
        raise ConfigError("missing required config field 'longtime.horizon'")
    horizon = float(horizon)
    if horizon <= 0:
        raise ConfigError("longtime.horizon must be positive (history would be empty)")
    box = float(get_path(cfg, "longtime.box_half_width", required=True))
    spacing = float(get_path(cfg, "longtime.spacing", required=True))
    window = float(get_path(cfg, "longtime.window_half_width", default=2.0))
    epsilon = float(get_path(cfg, "longtime.epsilon", default=0.1))
    tol = float(get_path(cfg, "longtime.tolerance", default=0.05))

    if artifacts:
        runs = load_artifacts(artifacts, problem)
        state_runs = [r for r in runs if r.kind == "state_constraint"]
        periodic_runs = [r for r in runs if r.kind == "periodic"]
        if not state_runs:
            raise ConfigError(f"artifacts in {artifacts} hold no state-constraint runs")
    else:
        _, state_runs, periodic_runs, _ = run_ergodic_ladder(cfg, jobs)
    R_max = max(r.half_width for r in state_runs)
    if box < R_max:
        # the upper barrier compares each state profile on its whole box
        raise ConfigError(
            f"longtime.box_half_width {box:g} is smaller than the largest "
            f"ladder half-width {R_max:g}"
        )
    est = ergodic.estimate_lambda_star(state_runs, periodic_runs)
    phi_ref = max(state_runs, key=lambda r: r.half_width).profile

    report = asymptotics.run_large_time(
        problem,
        est.value,
        phi_ref,
        horizon,
        box,
        spacing,
        scheme,
        window_half_width=window,
        tol=tol,
        blow_up_cap=_blow_up_cap(cfg),
    )
    header = resolved_lines(cfg)
    os.makedirs(out_dir, exist_ok=True)
    report.export_csv(os.path.join(out_dir, "history.csv"), header_lines=header)
    report.trace.export_csv(os.path.join(out_dir, "trace.csv"), header_lines=header)

    barrier_rows = []
    for eps in (epsilon, 2.0 * epsilon):
        for run in state_runs:
            try:
                v = asymptotics.barrier_check_upper(
                    run, phi_ref, est.value, report.c_hat, eps, report, problem
                )
                barrier_rows.append(v)
            except ConfigError as exc:
                barrier_rows.append(("upper", run.half_width, eps, str(exc)))
        for run in periodic_runs:
            try:
                v = asymptotics.barrier_check_lower(
                    run, phi_ref, est.value, report.c_hat, eps, report, problem
                )
                barrier_rows.append(v)
            except ConfigError as exc:
                barrier_rows.append(("lower", run.half_width, eps, str(exc)))
    with open(os.path.join(out_dir, "barriers.csv"), "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write(
            "side,epsilon,t_ref,scale,offset_min,residual,residual_bound,"
            "init_margin,later_margin,passed\n"
        )
        for v in barrier_rows:
            if isinstance(v, tuple):
                fh.write(f"{v[0]},{v[2]!r},,,,,,,,error: {v[3]}\n")
                continue
            fh.write(
                f"{v.side},{v.epsilon!r},{v.t_ref!r},{v.mu_or_gamma!r},"
                f"{v.offset_min!r},{v.residual_extreme!r},{v.residual_bound!r},"
                f"{v.initial_domination_margin!r},{v.later_domination_margin!r},"
                f"{int(v.passed)}\n"
            )
    verdicts_ok = all(
        (v.passed if not isinstance(v, tuple) else False) for v in barrier_rows
    )
    lines = ["== config =="] + header + [
        "== large-time report ==",
        f"lambda_star_used: {report.lambda_star_used!r}",
        f"c_hat: {report.c_hat!r}",
        f"final_sup_error: {report.final_sup_error!r}",
        f"final_flatness: {report.final_flatness!r}",
        f"converged: {report.converged}",
        f"barriers_all_passed: {verdicts_ok}",
    ]
    _write_text(os.path.join(out_dir, "summary.txt"), lines)
    if json_flag:
        _summary_json(
            os.path.join(out_dir, "summary.json"),
            {
                "config": cfg,
                "lambda_star_used": report.lambda_star_used,
                "c_hat": report.c_hat,
                "final_sup_error": report.final_sup_error,
                "final_flatness": report.final_flatness,
                "converged": report.converged,
                "barriers_all_passed": verdicts_ok,
            },
        )
    ok = report.converged and verdicts_ok
    if not ok and not allow_partial:
        return EXIT_VERDICT
    return EXIT_PASS


def cmd_oracle(cfg, out_dir, json_flag=False):
    problem = build_problem(cfg)
    if abs(problem.m - 2.0) > 1e-12:
        raise ConfigError(
            "the logarithmic-transform oracle is only valid for m = 2; "
            f"config has m = {problem.m}"
        )
    scheme = build_scheme(cfg)
    box = float(get_path(cfg, "oracle.box_half_width", default=8.0))
    spacing = float(get_path(cfg, "oracle.spacing", default=0.025))
    horizon = float(get_path(cfg, "oracle.horizon", default=5.0))
    window = float(get_path(cfg, "oracle.window_half_width", default=2.0))
    eig_tol = float(get_path(cfg, "oracle.eigen_tolerance", default=0.05))
    field_tol = float(get_path(cfg, "oracle.field_tolerance", default=0.05))
    slope_tol = float(get_path(cfg, "oracle.slope_tolerance", default=0.02))

    grid = make_grid("box", box, spacing, problem.dim)
    f = sample(problem.source, grid)
    eig, info = reference.hopf_cole_eigenvalue(f)
    sc = ergodic.solve_state_constraint(problem, box, spacing)
    rows = [
        (
            "ergodic_constant_vs_eigenvalue",
            sc.constant,
            eig,
            abs(sc.constant - eig),
            eig_tol,
        )
    ]
    u0 = sample(problem.initial, grid)
    u_prev, u_lin = reference.hopf_cole_parabolic(f, u0, (horizon - 1.0, horizon))
    state = evolve(
        problem, grid, horizon, scheme,
        initial=u0, blow_up_cap=_blow_up_cap(cfg),
    )
    lin_k = restrict(u_lin, window)
    non_k = restrict(state.u, window)
    rows.append(
        (
            "field_at_horizon_sup_window",
            float(np.max(non_k.values)),
            float(np.max(lin_k.values)),
            sup_norm_diff(lin_k, non_k),
            field_tol,
        )
    )
    slope = float(
        np.mean(restrict(u_lin, window).values) - np.mean(restrict(u_prev, window).values)
    )
    rows.append(("transform_slope_vs_eigenvalue", slope, eig, abs(slope - eig), slope_tol))

    header = resolved_lines(cfg)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "oracle.csv"), "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write("check,solver_value,oracle_value,difference,tolerance,passed\n")
        for name, sv, ov, diff, tl in rows:
            fh.write(f"{name},{sv!r},{ov!r},{diff!r},{tl!r},{int(diff <= tl)}\n")
    ok = all(diff <= tl for _, _, _, diff, tl in rows)
    lines = ["== config =="] + header + [
        "== oracle comparison ==",
        f"eigenvalue: {eig!r} (residual {info['residual']!r})",
        f"all_within_tolerance: {ok}",
    ]
    _write_text(os.path.join(out_dir, "summary.txt"), lines)
    if json_flag:
        _summary_json(
            os.path.join(out_dir, "summary.json"),
            {"config": cfg, "eigenvalue": eig, "all_within_tolerance": ok},
        )
    return EXIT_PASS if ok else EXIT_VERDICT


def cmd_all(cfg, out_dir, jobs=1, json_flag=False, allow_partial=False):
    codes = [cmd_validate(cfg, os.path.join(out_dir, "validate"), json_flag)]
    codes.append(
        cmd_ergodic(
            cfg, os.path.join(out_dir, "ergodic"), jobs, json_flag, allow_partial
        )
    )
    codes.append(
        cmd_longtime(
            cfg,
            os.path.join(out_dir, "longtime"),
            jobs,
            json_flag,
            artifacts=os.path.join(out_dir, "ergodic"),
            allow_partial=allow_partial,
        )
    )
    problem = build_problem(cfg)
    if abs(problem.m - 2.0) <= 1e-12:
        codes.append(cmd_oracle(cfg, os.path.join(out_dir, "oracle"), json_flag))
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ergodic-hj",
        description=(
            "Ergodic constants and large-time behavior for "
            "u_t - lap(u) + |Du|^m = f(x) with coercive unbounded data"
        ),
    )
    parser.add_argument(
        "command", choices=["validate", "ergodic", "longtime", "oracle", "all"]
    )
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel ladder jobs")
    parser.add_argument("--json", action="store_true", help="also emit summary.json")
    parser.add_argument(
        "--allow-partial",
        action="store_true",
        help="exit 0 even when some runs fail to converge",
    )
    parser.add_argument(
        "--artifacts", default=None, help="prior ergodic output dir (longtime)"
    )
    parser.add_argument("--seed", type=int, default=None, help="recorded in config")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.command == "validate":
            return cmd_validate(cfg, args.out, args.json)
        if args.command == "ergodic":
            return cmd_ergodic(cfg, args.out, args.jobs, args.json, args.allow_partial)
        if args.command == "longtime":
            return cmd_longtime(
                cfg,
                args.out,
                args.jobs,
                args.json,
                artifacts=args.artifacts,
                allow_partial=args.allow_partial,
            )
        if args.command == "oracle":
            return cmd_oracle(cfg, args.out, args.json)
        return cmd_all(cfg, args.out, args.jobs, args.json, args.allow_partial)
    except (ConfigError, AlignmentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except BracketInconsistencyError as exc:
        print(f"bracket inconsistency: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
