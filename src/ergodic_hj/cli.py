"""Command-line entry points and bit-stable report emission.

Commands: validate, ergodic, longtime, oracle, all.  Every report table is
written by ``grid.write_table``, numeric cells with repr, so re-running a
config sequentially reproduces the files byte for byte; wall-clock timings
go to a separate timings.txt precisely so the scientific outputs stay
deterministic.  Each command's summary is one record of (key, value) pairs,
which ``_write_summary`` renders as summary.txt and as summary.json.

Exit codes: 0 pass, 1 scientific verdict failure, 2 usage or config error
(an unknown, repeated or mistyped key, ergodic artifacts made with another
problem or ladder, and a tabulated source that cannot serve the run
included), 3 numerical failure: a blow-up or a stalled oracle.

The config is resolved against ``config.SCHEMA`` and checked, together with
the problem and scheme it builds, before the first command starts, so a
config error costs no solve and writes no output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import zip_longest

import numpy as np

from . import asymptotics, ergodic, reference
from .config import (
    first_difference,
    load_config,
    parse_config,
    require,
    resolve,
    resolved_lines,
)
from .errors import (
    AlignmentError,
    BlowUpError,
    BracketInconsistencyError,
    CoercivityError,
    ConfigError,
    StagnationError,
    TableRangeError,
)
from .grid import (
    Grid,
    GridFunction,
    export_csv,
    grids_equal,
    import_table,
    make_grid,
    read_table,
    restrict,
    sample,
    sup_norm_diff,
    write_table,
)
from .parabolic import TraceSample, evolve
from .problem import (
    InitialSpec,
    ProblemSpec,
    SourceSpec,
    h1_certificate,
    h2_certificate,
    torus_half_width,
)
from .scheme import SchemeConfig

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

#: the config blocks each command reads, whose required keys it needs
COMMAND_BLOCKS = {
    "validate": ("problem", "validate"),
    "ergodic": ("problem", "ergodic"),
    "longtime": ("problem", "scheme", "ergodic", "longtime"),
    "oracle": ("problem", "scheme", "oracle"),
    "all": ("problem", "scheme", "validate", "ergodic", "longtime", "oracle"),
}


def build_problem(cfg: dict) -> ProblemSpec:
    block = cfg["problem"]
    return ProblemSpec(
        m=block["m"],
        source=_spec(SourceSpec, block["source"], "source"),
        initial=_spec(InitialSpec, block["initial"], "initial data"),
        dim=block["dim"],
    )


def _spec(cls, block, what):
    """A SourceSpec or InitialSpec from its block: the block's keys are its fields."""
    fields = dict(block)
    path = fields.pop("table_path", None)
    if fields["family"] != "custom_table":
        return cls(**fields)
    if path is None:
        raise ConfigError(f"custom_table {what} needs table_path")
    return cls(family="custom_table", table=import_table(path))


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def _write_summary(out_dir, cfg, header, title, record, json_flag):
    """summary.txt and, with json_flag, summary.json, from one record.

    The record is the command's ordered (key, value) pairs of Python scalars,
    lists and dicts.  summary.txt is the resolved config, then one
    ``key: value`` line per pair (a list gives one line per item);
    summary.json is the config and the same pairs in the same order.
    """
    lines = [
        f"{key}: {_text_value(item)}"
        for key, value in record
        for item in (value if isinstance(value, list) else [value])
    ]
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(["== config =="] + header + [f"== {title} =="] + lines))
        fh.write("\n")
    if json_flag:
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(_json_value({"config": cfg, **dict(record)}), fh, indent=2)
            fh.write("\n")


def _text_value(value):
    """A float by repr, a dict as space-separated k=v, anything else by str."""
    if isinstance(value, dict):
        return " ".join(f"{k}={_text_value(v)}" for k, v in value.items())
    return repr(value) if isinstance(value, float) else str(value)


def _json_value(value):
    """The value with every non-finite float replaced by null (JSON has none)."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _run_tag(kind, half_width, cutoff):
    if kind == "state_constraint":
        return f"state_R{half_width:g}"
    return f"periodic_S{half_width:g}_cut{cutoff:g}"


def load_artifacts(art_dir, cfg):
    """Rebuild ergodic runs from a prior `ergodic` output directory.

    The runs must come from the config's own problem and ladder: the config
    in ``runs.csv``'s header is resolved and compared block by block.
    """
    runs_path = os.path.join(art_dir, "runs.csv")
    if not os.path.exists(runs_path):
        raise ConfigError(f"missing ergodic artifact: expected file {runs_path}")
    with open(runs_path) as fh:
        header = "".join(line[2:] for line in fh if line.startswith("# "))
    made_with = resolve(parse_config(header))
    differs = first_difference(made_with, cfg, ("problem", "ergodic"))
    if differs is not None:
        raise ConfigError(
            "artifacts in {} were made with {} = {!r}; the config has {!r}".format(
                art_dir, *differs)
        )
    runs = []
    for row in read_table(runs_path):
        kind = row["kind"]
        half_width = float(row["half_width"])
        cutoff = float(row["cutoff"]) if row["cutoff"] else None
        tag = _run_tag(kind, half_width, cutoff)
        prof_path = os.path.join(art_dir, f"profile_{tag}.csv")
        if not os.path.exists(prof_path):
            raise ConfigError(f"missing profile artifact: expected {prof_path}")
        profile = _load_profile(prof_path, kind, half_width, cfg["problem"]["dim"])
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
    n_store = len(table[0])
    grid = Grid(
        kind="torus" if kind == "periodic" else "box",
        half_width=half_width,
        nodes_per_axis=n_store + 1 if kind == "periodic" else n_store,
        dim=dim,
    )
    return GridFunction(grid, np.asarray(table[-1], float).reshape(grid.shape))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(cfg, problem, out_dir, json_flag=False):
    radii = cfg["validate"].get("radii")
    # unset: h1_certificate's default, which depends on the source family
    h1 = h1_certificate(problem.source, np.asarray(radii, float) if radii else None)
    h2 = h2_certificate(problem.source, problem.m)
    header = resolved_lines(cfg)
    os.makedirs(out_dir, exist_ok=True)
    # the two sequences differ in length; the shorter one's cells run out empty
    write_table(
        os.path.join(out_dir, "validate.csv"),
        header,
        ("radius", "envelope", "h2_radius", "h2_ratio"),
        zip_longest(h1["radii"], h1["envelope"], h2["radii"], h2["ratios"]),
    )
    _write_summary(out_dir, cfg, header, "hypothesis report", [
        ("coercivity_plausible", h1["plausible"]),
        ("envelope_monotone", h1["monotone"]),
        ("gradient_ratio_plausible", h2["plausible"]),
        ("ratio_points_skipped", h2["skipped"]),
    ], json_flag)
    return EXIT_PASS if (h1["plausible"] and h2["plausible"]) else EXIT_VERDICT


def _ladder_job(args):
    solve, problem, size, spacing = args
    t0 = time.perf_counter()
    run = solve(problem, size, spacing)
    return run, time.perf_counter() - t0


def run_ergodic_ladder(cfg, problem, jobs=1):
    block = cfg["ergodic"]
    ladder, spacing = block["ladder"], block["spacing"]
    tasks = [(ergodic.solve_state_constraint, problem, R, spacing) for R in ladder]
    tasks += [(ergodic.solve_periodic, problem, c, spacing) for c in block["cutoffs"]]
    if jobs > 1:
        # a pool forks all its workers at once: no more than there are runs
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            out = list(pool.map(_ladder_job, tasks))
    else:
        out = [_ladder_job(t) for t in tasks]
    runs = [r for r, _ in out]
    timings = [(_run_tag(r.kind, r.half_width, r.cutoff), dt) for r, dt in out]
    return runs[:len(ladder)], runs[len(ladder):], timings


def cmd_ergodic(cfg, problem, out_dir, jobs=1, allow_partial=False):
    state_runs, periodic_runs, timings = run_ergodic_ladder(cfg, problem, jobs)
    est = ergodic.estimate_lambda_star(state_runs, periodic_runs)
    header = resolved_lines(cfg)
    os.makedirs(out_dir, exist_ok=True)
    all_runs = state_runs + periodic_runs
    write_table(
        os.path.join(out_dir, "runs.csv"),
        header,
        ("kind", "half_width", "cutoff", "constant", "residual_norm", "converged",
         "iterations", "stop_reason"),
        [
            (r.kind, float(r.half_width), r.cutoff, float(r.constant),
             float(r.residual_norm), bool(r.converged),
             int(r.stop_info.get("iterations", 0)), str(r.stop_info.get("reason")))
            for r in all_runs
        ],
    )
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
    record = [
        ("value", est.value),
        ("upper_bracket", est.upper_bracket),
        ("lower_bracket", est.lower_bracket),
        ("gap", est.gap),
        ("lower_is_heuristic", est.lower_is_heuristic),
        ("note", list(est.notes)),
    ] + [
        (f"run {_run_tag(r.kind, r.half_width, r.cutoff)}",
         {"constant": r.constant, "residual_norm": r.residual_norm,
          "converged": r.converged})
        for r in all_runs
    ]
    # always JSON: perfbench's lambda_estimate reads it from runs without --json
    _write_summary(out_dir, cfg, header, "ergodic constant estimate", record, True)
    ok = all(r.converged for r in all_runs)
    if not ok and not allow_partial:
        return EXIT_VERDICT
    return EXIT_PASS


def cmd_longtime(cfg, problem, scheme, out_dir, jobs=1, json_flag=False,
                 artifacts=None, allow_partial=False):
    block = cfg["longtime"]
    if artifacts:
        runs = load_artifacts(artifacts, cfg)
        state_runs = [r for r in runs if r.kind == "state_constraint"]
        periodic_runs = [r for r in runs if r.kind == "periodic"]
        if not state_runs:
            raise ConfigError(f"artifacts in {artifacts} hold no state-constraint runs")
    else:
        state_runs, periodic_runs, _ = run_ergodic_ladder(cfg, problem, jobs)
    est = ergodic.estimate_lambda_star(state_runs, periodic_runs)
    # the certificate subtracts the pair of the grid it evolves: the ladder
    # rung on that grid, else one solve on the box
    box, spacing = block["box_half_width"], block["spacing"]
    grid = make_grid("box", box, spacing, problem.dim)
    evolved = next((r for r in state_runs if grids_equal(r.profile.grid, grid)), None)
    if evolved is None:
        evolved = ergodic.solve_state_constraint(problem, box, spacing)

    report = asymptotics.run_large_time(
        problem,
        evolved,
        block["horizon"],
        scheme,
        window_half_width=block["window_half_width"],
        tol=block["tolerance"],
        blow_up_cap=cfg["scheme"]["blow_up_cap"],
    )
    header = resolved_lines(cfg)
    os.makedirs(out_dir, exist_ok=True)
    # the row dataclasses' fields are the tables' columns, in order
    for name, cls, rows in (
        ("history.csv", asymptotics.LargeTimeHistoryRow, report.history),
        ("trace.csv", TraceSample, report.trace.samples),
    ):
        columns = [f.name for f in dataclasses.fields(cls)]
        write_table(os.path.join(out_dir, name), header, columns,
                    map(dataclasses.astuple, rows))

    barrier_rows = []
    verdicts_ok = True
    for eps in (block["epsilon"], 2.0 * block["epsilon"]):
        for side, check, runs in (
            ("upper", asymptotics.barrier_check_upper, state_runs),
            ("lower", asymptotics.barrier_check_lower, periodic_runs),
        ):
            for run in runs:
                try:
                    v = check(run, eps, report, problem)
                except ConfigError as exc:
                    barrier_rows.append((side, eps) + (None,) * 7 + (f"error: {exc}",))
                    verdicts_ok = False
                    continue
                barrier_rows.append((
                    v.side, v.epsilon, v.t_ref, v.mu_or_gamma, v.offset_min,
                    v.residual_extreme, v.residual_bound, v.initial_domination_margin,
                    v.later_domination_margin, v.passed,
                ))
                verdicts_ok = verdicts_ok and v.passed
    write_table(
        os.path.join(out_dir, "barriers.csv"),
        header,
        ("side", "epsilon", "t_ref", "scale", "offset_min", "residual",
         "residual_bound", "init_margin", "later_margin", "passed"),
        barrier_rows,
    )
    _write_summary(out_dir, cfg, header, "large-time report", [
        ("lambda_star_used", report.lambda_star_used),
        ("ladder_estimate", est.value),
        ("truncation_gap", report.lambda_star_used - est.value),
        ("c_hat", report.c_hat),
        ("final_sup_error", report.final_sup_error),
        ("final_flatness", report.final_flatness),
        ("converged", report.converged),
        ("fast_forward_from", report.fast_forward_from),
        ("fast_forward_residual", report.fast_forward_residual),
        ("fast_forward_bound", report.fast_forward_bound),
        ("barriers_all_passed", verdicts_ok),
    ], json_flag)
    ok = report.converged and verdicts_ok
    if not ok and not allow_partial:
        return EXIT_VERDICT
    return EXIT_PASS


def cmd_oracle(cfg, problem, scheme, out_dir, json_flag=False):
    if abs(problem.m - 2.0) > 1e-12:
        raise ConfigError(
            "the logarithmic-transform oracle is only valid for m = 2; "
            f"config has m = {problem.m}"
        )
    block = cfg["oracle"]
    box, spacing, horizon = block["box_half_width"], block["spacing"], block["horizon"]
    window = block["window_half_width"]
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
            block["eigen_tolerance"],
        )
    ]
    u0 = sample(problem.initial, grid)
    (prev_k, lin_k), route = reference.hopf_cole_parabolic(
        f, u0, (horizon - 1.0, horizon), window
    )
    state = evolve(
        problem, grid, horizon, scheme,
        initial=u0, blow_up_cap=cfg["scheme"]["blow_up_cap"],
    )
    non_k = restrict(state.u, window)
    rows.append(
        (
            "field_at_horizon_sup_window",
            float(np.max(non_k.values)),
            float(np.max(lin_k.values)),
            sup_norm_diff(lin_k, non_k),
            block["field_tolerance"],
        )
    )
    slope = float(np.mean(lin_k.values) - np.mean(prev_k.values))
    rows.append(("transform_slope_vs_eigenvalue", slope, eig, abs(slope - eig),
                 block["slope_tolerance"]))

    header = resolved_lines(cfg)
    os.makedirs(out_dir, exist_ok=True)
    write_table(
        os.path.join(out_dir, "oracle.csv"),
        header,
        ("check", "solver_value", "oracle_value", "difference", "tolerance", "passed"),
        [row + (row[3] <= row[4],) for row in rows],
    )
    ok = all(diff <= tl for _, _, _, diff, tl in rows)
    _write_summary(out_dir, cfg, header, "oracle comparison", [
        ("eigenvalue", eig),
        ("eigenvalue_residual", info["residual"]),
        ("transform field", _transform_route(route)),
        ("all_within_tolerance", ok),
    ], json_flag)
    return EXIT_PASS if ok else EXIT_VERDICT


def _transform_route(route):
    """How the transform field was computed, so its error can be told apart."""
    if "modes" in route:
        return (
            f"{route['modes']} eigenmodes of -lap + f, exact in time, largest "
            f"kept eigenvalue {route['largest_eigenvalue']!r}"
        )
    return f"forward-Euler march, {route['steps']} steps of dt {route['dt']!r}"


def cmd_all(cfg, problem, scheme, out_dir, jobs=1, json_flag=False,
            allow_partial=False):
    def sub(name):
        return os.path.join(out_dir, name)

    codes = [
        cmd_validate(cfg, problem, sub("validate"), json_flag),
        cmd_ergodic(cfg, problem, sub("ergodic"), jobs, allow_partial),
        cmd_longtime(cfg, problem, scheme, sub("longtime"), jobs, json_flag,
                     sub("ergodic"), allow_partial),
    ]
    if abs(problem.m - 2.0) <= 1e-12:
        codes.append(cmd_oracle(cfg, problem, scheme, sub("oracle"), json_flag))
    return max(codes)


def _check_torus_cells(cfg, problem):
    """Each cutoff's torus cell must fit the spacing: checked before any solve."""
    block = cfg["ergodic"]
    for cutoff in block["cutoffs"]:
        S = torus_half_width(problem.source, cutoff)
        try:
            make_grid("torus", S, block["spacing"], problem.dim)
        except ConfigError as exc:
            raise ConfigError(
                f"ergodic.cutoffs {cutoff:g} gives a torus cell of half-width {S:g}: {exc}"
            ) from exc


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
    parser.add_argument(
        "--json", action="store_true",
        help="also write summary.json (ergodic always writes it)",
    )
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
        # the library's own input checks fire here too, before the first solve
        require(cfg, COMMAND_BLOCKS[args.command])
        if "longtime" in COMMAND_BLOCKS[args.command]:
            box = cfg["longtime"]["box_half_width"]
            R_max = max(cfg["ergodic"]["ladder"])
            if box < R_max:
                # the upper barrier compares each state profile on its whole box
                raise ConfigError(
                    f"longtime.box_half_width {box:g} is smaller than the largest "
                    f"ladder half-width {R_max:g}"
                )
        problem = build_problem(cfg)
        if "ergodic" in COMMAND_BLOCKS[args.command]:
            _check_torus_cells(cfg, problem)
        scheme = SchemeConfig(cfl_safety=cfg["scheme"]["cfl_safety"])
        if args.command == "validate":
            return cmd_validate(cfg, problem, args.out, args.json)
        if args.command == "ergodic":
            return cmd_ergodic(cfg, problem, args.out, args.jobs, args.allow_partial)
        if args.command == "longtime":
            return cmd_longtime(cfg, problem, scheme, args.out, args.jobs, args.json,
                                args.artifacts, args.allow_partial)
        if args.command == "oracle":
            return cmd_oracle(cfg, problem, scheme, args.out, args.json)
        return cmd_all(cfg, problem, scheme, args.out, args.jobs, args.json,
                       args.allow_partial)
    except (ConfigError, AlignmentError, TableRangeError, CoercivityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except StagnationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except BracketInconsistencyError as exc:
        print(f"bracket inconsistency: {exc}", file=sys.stderr)
        return EXIT_VERDICT


if __name__ == "__main__":
    sys.exit(main())
