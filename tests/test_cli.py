"""CLI: config parsing, commands, exit codes, deterministic outputs."""

import filecmp
import glob
import json
import os
import runpy

import numpy as np
import pytest

from ergodic_hj import ergodic, solve_state_constraint
from ergodic_hj.cli import build_problem, main
from ergodic_hj.config import emit_config, load_config, parse_config
from ergodic_hj.grid import grids_equal, make_grid, read_table

QUICK = """\
problem:
  m: 2.0
  dim: 1
  source:
    family: power
    alpha: 2.0
  initial:
    family: zero
scheme:
  cfl_safety: 0.9
ergodic:
  ladder: [3.0, 5.0]
  cutoffs: [9.0]
  spacing: 0.1
  max_time: 20.0
longtime:
  horizon: 8.0
  box_half_width: 5.0
  spacing: 0.1
  window_half_width: 1.0
  epsilon: 0.1
  tolerance: 0.05
oracle:
  box_half_width: 5.0
  spacing: 0.025
  horizon: 3.0
  eigen_tolerance: 0.05
  field_tolerance: 0.05
  slope_tolerance: 0.02
seed: 0
"""


@pytest.fixture()
def quick_cfg(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(QUICK)
    return str(path)


def test_config_roundtrip():
    cfg = parse_config(QUICK)
    assert cfg["problem"]["m"] == 2.0
    assert cfg["problem"]["source"]["family"] == "power"
    assert cfg["ergodic"]["ladder"] == [3.0, 5.0]
    again = parse_config(emit_config(cfg))
    assert again == cfg


def test_config_rejects_bad_lines():
    from ergodic_hj.errors import ConfigError

    with pytest.raises(ConfigError):
        parse_config("just words without a colon")


def test_missing_m_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("problem:\n  dim: 1\n  source:\n    family: power\n")
    code = main(["validate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "problem.m" in capsys.readouterr().err


def test_validate_passes_for_power(quick_cfg, tmp_path):
    out = tmp_path / "val"
    code = main(["validate", "--config", quick_cfg, "--out", str(out), "--json"])
    assert code == 0
    assert (out / "validate.csv").exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["coercivity_plausible"] is True


def test_validate_fails_for_bounded_table(tmp_path):
    xs = np.linspace(-10, 10, 101)
    vals = np.minimum(xs**2, 4.0)
    table = tmp_path / "flat.csv"
    with open(table, "w") as fh:
        fh.write("x,value\n")
        for x, v in zip(xs, vals):
            fh.write(f"{float(x)!r},{float(v)!r}\n")
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(
        "problem:\n  m: 2.0\n  dim: 1\n  source:\n    family: custom_table\n"
        f"    table_path: {table}\n"
    )
    code = main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1


def test_ergodic_command_outputs(quick_cfg, tmp_path):
    out = tmp_path / "erg"
    code = main(["ergodic", "--config", quick_cfg, "--out", str(out)])
    assert code == 0
    runs = (out / "runs.csv").read_text().splitlines()
    data_rows = [r for r in runs if r and not r.startswith("#")]
    assert data_rows[0].startswith("kind,half_width,cutoff,constant")
    assert len(data_rows) == 4  # header + 2 state + 1 periodic
    payload = json.loads((out / "summary.json").read_text())
    assert payload["value"] == pytest.approx(1.056, abs=0.06)
    assert (out / "profile_state_R3.csv").exists()
    assert (out / "timings.txt").exists()


def test_ergodic_reruns_byte_identical(quick_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["ergodic", "--config", quick_cfg, "--out", str(out1)]) == 0
    assert main(["ergodic", "--config", quick_cfg, "--out", str(out2)]) == 0
    for name in os.listdir(out1):
        if name == "timings.txt":
            continue  # wall clock: excluded from the determinism guarantee
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_all_reruns_byte_identical(quick_cfg, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["all", "--config", quick_cfg, "--out", str(out)]) == 0
    compared = set()
    for cmd in ("validate", "ergodic", "longtime", "oracle"):
        names = sorted(os.listdir(outs[0] / cmd))
        assert names == sorted(os.listdir(outs[1] / cmd))
        for name in names:
            if name == "timings.txt":
                continue  # wall clock: excluded from the determinism guarantee
            a, b = outs[0] / cmd / name, outs[1] / cmd / name
            assert filecmp.cmp(a, b, shallow=False), f"{cmd}/{name}"
            compared.add(f"{cmd}/{name}")
    expected = {
        "validate/validate.csv",
        "validate/summary.txt",
        "ergodic/runs.csv",
        "ergodic/profile_state_R3.csv",
        "ergodic/profile_state_R5.csv",
        "ergodic/profile_periodic_S3_cut9.csv",
        "ergodic/summary.json",
        "ergodic/summary.txt",
        "longtime/barriers.csv",
        "longtime/history.csv",
        "longtime/trace.csv",
        "longtime/summary.txt",
        "oracle/oracle.csv",
        "oracle/summary.txt",
    }
    assert expected <= compared
    # without --json only ergodic writes summary.json (the benchmark reads it)
    assert {n for n in compared if n.endswith("summary.json")} == {"ergodic/summary.json"}


def _report_lines(path):
    """The summary.txt lines after the command's title, below the config block."""
    lines = path.read_text().splitlines()
    title = [i for i, line in enumerate(lines) if line.startswith("== ")][1]
    return lines[title + 1:]


def _text_rule(value):
    if isinstance(value, dict):
        return " ".join(f"{k}={_text_rule(v)}" for k, v in value.items())
    return repr(value) if isinstance(value, float) else str(value)


def _reject_constant(name):
    raise ValueError(f"summary.json holds the non-JSON constant {name}")


def test_summary_json_mirrors_summary_txt(quick_cfg, tmp_path):
    out = tmp_path / "all"
    assert main(["all", "--config", quick_cfg, "--out", str(out), "--json"]) == 0
    for cmd in ("validate", "ergodic", "longtime", "oracle"):
        text = (out / cmd / "summary.json").read_text()
        payload = json.loads(text, parse_constant=_reject_constant)
        assert payload.pop("config") == load_config(quick_cfg)  # resolved
        # one line per pair, one per item of a list, in the JSON's key order
        expected = [
            f"{key}: {_text_rule(item)}"
            for key, value in payload.items()
            for item in (value if isinstance(value, list) else [value])
        ]
        assert expected == _report_lines(out / cmd / "summary.txt"), cmd


PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _perfbench(name):
    """Globals of a perfbench script, loaded by path (it is not a package)."""
    return runpy.run_path(os.path.join(PERFBENCH, f"{name}.py"))


def test_benchmark_reader_finds_every_check(quick_cfg, tmp_path):
    # the benchmark's correctness gate parses the report files from outside
    checks, workloads = _perfbench("checks"), _perfbench("workloads")
    out = tmp_path / "all"
    assert main(["all", "--config", quick_cfg, "--out", str(out)]) == 0
    found = checks["parse_checks"](str(out), "all")
    expected = workloads["expected_checks"](parse_config(QUICK), "all")
    assert len(expected) == len(set(expected)) == 15
    assert set(found) == set(expected)
    assert checks["lambda_estimate"](str(out), "all") is not None


def test_parallel_jobs_match_sequential(quick_cfg, tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["ergodic", "--config", quick_cfg, "--out", str(seq)]) == 0
    assert main(["ergodic", "--config", quick_cfg, "--out", str(par), "--jobs", "2"]) == 0
    for name in os.listdir(seq):
        if name == "timings.txt":
            continue
        assert filecmp.cmp(seq / name, par / name, shallow=False), name


def test_parallel_pool_is_no_larger_than_the_ladder(quick_cfg, tmp_path, monkeypatch):
    from ergodic_hj import cli

    workers = []

    class SerialPool:
        """Records max_workers and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    out = tmp_path / "erg"
    assert main(["ergodic", "--config", quick_cfg, "--out", str(out), "--jobs", "8"]) == 0
    # QUICK has two box runs and one periodic run, all in one pool
    assert workers == [3]


def test_longtime_uses_artifacts_and_reports(quick_cfg, tmp_path):
    erg = tmp_path / "erg"
    assert main(["ergodic", "--config", quick_cfg, "--out", str(erg)]) == 0
    out = tmp_path / "lt"
    code = main(
        [
            "longtime",
            "--config",
            quick_cfg,
            "--out",
            str(out),
            "--artifacts",
            str(erg),
            "--json",
        ]
    )
    assert code == 0
    hist = [
        r
        for r in (out / "history.csv").read_text().splitlines()
        if r and not r.startswith("#")
    ]
    assert hist[0] == "t,sup_error,slope_error,c_of_t,flatness"
    payload = json.loads((out / "summary.json").read_text())
    assert payload["converged"] is True
    assert payload["barriers_all_passed"] is True


def test_longtime_writes_the_evolution_trace(quick_cfg, tmp_path):
    erg = tmp_path / "erg"
    assert main(["ergodic", "--config", quick_cfg, "--out", str(erg)]) == 0
    outs = [tmp_path / "lt1", tmp_path / "lt2"]
    for out in outs:
        args = ["--config", quick_cfg, "--out", str(out), "--artifacts", str(erg)]
        assert main(["longtime"] + args) == 0
    lines = (outs[0] / "trace.csv").read_text().splitlines()
    header = [r for r in lines if r.startswith("#")]
    history = (outs[0] / "history.csv").read_text().splitlines()
    assert header == [r for r in history if r.startswith("#")]  # resolved config
    rows = [r for r in lines if r and not r.startswith("#")]
    assert rows[0] == "t,slope,max_grad,holder_q,dt"
    # one row per sample: every 0.25 up to the horizon of 8
    times = [float(r.split(",")[0]) for r in rows[1:]]
    assert times == pytest.approx([0.25 * k for k in range(1, 33)], abs=1e-9)
    assert all(len(r.split(",")) == 5 for r in rows[1:])
    # early samples have no slope yet; the cell stays empty, not NaN-ish
    assert rows[1].split(",")[1] == ""
    assert filecmp.cmp(outs[0] / "trace.csv", outs[1] / "trace.csv", shallow=False)


def test_longtime_missing_artifacts_names_file(quick_cfg, tmp_path, capsys):
    code = main(
        [
            "longtime",
            "--config",
            quick_cfg,
            "--out",
            str(tmp_path / "x"),
            "--artifacts",
            str(tmp_path / "nowhere"),
        ]
    )
    assert code == 2
    assert "runs.csv" in capsys.readouterr().err


def test_oracle_command(quick_cfg, tmp_path):
    out = tmp_path / "orc"
    code = main(["oracle", "--config", quick_cfg, "--out", str(out)])
    assert code == 0
    rows = [
        r
        for r in (out / "oracle.csv").read_text().splitlines()
        if r and not r.startswith("#")
    ]
    assert rows[0].startswith("check,")
    assert all(r.endswith(",1") for r in rows[1:])
    # the summary says how the transform field was computed, with no verdict
    summary = (out / "summary.txt").read_text().splitlines()
    (route,) = [line for line in summary if line.startswith("transform field:")]
    assert "eigenmodes" in route and "largest kept eigenvalue" in route
    assert "True" not in route and "False" not in route


def test_oracle_rejects_subquadratic(tmp_path, capsys):
    cfg = tmp_path / "m15.cfg"
    cfg.write_text(
        "problem:\n  m: 1.5\n  dim: 1\n  source:\n    family: power\n    alpha: 1.5\n"
    )
    code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "m = 2" in capsys.readouterr().err


def test_oracle_stagnation_exits_three_with_one_line(tmp_path, capsys):
    # a steep initial bowl drives exp(-u0) to zero on the interior; the 2D
    # field is marched, and the march stalls (the 1D field does not: see
    # test_reference's steep-bowl test)
    cfg = tmp_path / "bowl.cfg"
    cfg.write_text(
        "problem:\n  m: 2.0\n  dim: 2\n  source:\n    family: power\n    alpha: 2.0\n"
        "  initial:\n    family: quadratic_bowl\n    amplitude: 50\n"
        "oracle:\n  box_half_width: 4\n  spacing: 0.25\n  horizon: 1.0\n"
    )
    code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "hit zero" in err
    assert err.count("\n") == 1


def test_reports_embed_resolved_config(quick_cfg, tmp_path):
    out = tmp_path / "erg2"
    main(["ergodic", "--config", quick_cfg, "--out", str(out)])
    text = (out / "runs.csv").read_text()
    assert "# problem:" in text
    assert "#   m: 2.0" in text
    summary = (out / "summary.txt").read_text()
    assert "== config ==" in summary


def _quick_variant(tmp_path, *replacements):
    text = QUICK
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "variant.cfg"
    path.write_text(text)
    return str(path)


def test_longtime_box_narrower_than_ladder_is_config_error(tmp_path, capsys):
    cfg = _quick_variant(
        tmp_path,
        ("ladder: [3.0, 5.0]", "ladder: [4.0, 8.0]"),
        ("cutoffs: [9.0]", "cutoffs: [8.0]"),
        ("box_half_width: 5.0\n  spacing: 0.1", "box_half_width: 6.0\n  spacing: 0.1"),
    )
    # checked before any solve: `all` writes no validate/ or ergodic/ first
    for command in ("longtime", "all"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: longtime.box_half_width 6 is smaller than the largest "
            "ladder half-width 8\n"
        )
        assert not out.exists()


def test_longtime_subtracts_the_pair_of_the_evolved_box(tmp_path, monkeypatch):
    # m = 1.5 on the R = 8 rung's box: the ladder estimate is the R = 4
    # constant, 2.2e-4 below the box's own, and subtracting it made c(t)
    # drift by that much per time unit; with the box's own pair c(t) settles
    cfg = _quick_variant(
        tmp_path,
        ("m: 2.0", "m: 1.5"),
        ("alpha: 2.0", "alpha: 1.5"),
        ("ladder: [3.0, 5.0]", "ladder: [4.0, 8.0]"),
        ("cutoffs: [9.0]", "cutoffs: [16.0]"),
        ("spacing: 0.1\n  max_time", "spacing: 0.05\n  max_time"),
        ("horizon: 8.0\n  box_half_width: 5.0\n  spacing: 0.1",
         "horizon: 12.0\n  box_half_width: 8.0\n  spacing: 0.05"),
        ("window_half_width: 1.0", "window_half_width: 2.0"),
    )
    erg, out = tmp_path / "erg", tmp_path / "lt"
    assert main(["ergodic", "--config", cfg, "--out", str(erg)]) == 0
    # the box is a rung, so longtime reuses its pair and solves nothing
    monkeypatch.setattr(ergodic, "solve_state_constraint", None)
    args = ["--config", cfg, "--out", str(out), "--artifacts", str(erg), "--json"]
    assert main(["longtime"] + args) == 0
    rung = {float(r["half_width"]): float(r["constant"])
            for r in read_table(erg / "runs.csv") if r["kind"] == "state_constraint"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["lambda_star_used"] == rung[8.0]
    assert summary["ladder_estimate"] == rung[4.0] != rung[8.0]
    assert summary["truncation_gap"] == rung[8.0] - rung[4.0]
    keys = list(summary)
    assert keys[keys.index("ladder_estimate") + 1] == "truncation_gap"
    c = {float(r["t"]): float(r["c_of_t"]) for r in read_table(out / "history.csv")}
    assert abs(c[12.0] - c[11.0]) < 1e-8


def test_longtime_box_off_the_ladder_solves_its_own_pair(tmp_path):
    # box 6 is no rung of QUICK's ladder (3, 5): one solve on that box
    cfg = _quick_variant(tmp_path, ("box_half_width: 5.0\n  spacing: 0.1",
                                    "box_half_width: 6.0\n  spacing: 0.1"))
    out = tmp_path / "lt"
    assert main(["longtime", "--config", cfg, "--out", str(out), "--json"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    problem = build_problem(load_config(cfg))
    assert summary["lambda_star_used"] == solve_state_constraint(problem, 6.0, 0.1).constant


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("longtime", "window_half_width: 1.0", "window_half_width: 1.03"),
        ("oracle", "slope_tolerance: 0.02", "slope_tolerance: 0.02\n  window_half_width: 1.01"),
    ],
    ids=["longtime", "oracle"],
)
def test_misaligned_window_is_config_error(tmp_path, capsys, command, old, new):
    cfg = _quick_variant(tmp_path, (old, new))
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not node-aligned" in err
    assert err.count("\n") == 1


def test_bracket_inconsistency_exits_one_with_one_line(tmp_path, capsys):
    cfg = _quick_variant(
        tmp_path,
        ("ladder: [3.0, 5.0]", "ladder: [1.0, 2.0]"),
        ("cutoffs: [9.0]", "cutoffs: [4.0]"),
    )
    code = main(["ergodic", "--config", cfg, "--out", str(tmp_path / "erg")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("bracket inconsistency:")
    assert err.count("\n") == 1


def _table_config(tmp_path, ergodic_block):
    # f = x^2 tabulated on [-3, 3] only
    table = tmp_path / "square.csv"
    table.write_text("".join(f"{x!r},{x * x!r}\n" for x in np.linspace(-3, 3, 61).tolist()))
    path = tmp_path / "table.cfg"
    path.write_text(
        "problem:\n  m: 2.0\n  dim: 1\n  source:\n    family: custom_table\n"
        f"    table_path: {table}\nergodic:\n{ergodic_block}"
    )
    return str(path)


@pytest.mark.parametrize(
    "ergodic_block, message",
    [
        ("  ladder: [4.0]\n  spacing: 0.1\n", "point outside table range [-3.0, 3.0]"),
        (
            "  ladder: [2.0]\n  cutoffs: [16.0]\n  spacing: 0.1\n",
            "source never exceeds cutoff 16.0 within the search range (table truncated)",
        ),
    ],
    ids=["table_range", "table_below_cutoff"],
)
def test_table_source_that_cannot_serve_the_run_exits_two(
    tmp_path, capsys, ergodic_block, message
):
    cfg = _table_config(tmp_path, ergodic_block)
    code = main(["ergodic", "--config", cfg, "--out", str(tmp_path / "erg")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_validate_table_source_uses_the_table_aware_radii(tmp_path):
    # without validate.radii the coercivity scan must stay inside the table
    cfg = _table_config(tmp_path, "  ladder: [2.0]\n  spacing: 0.1\n")
    out = tmp_path / "val"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    assert "coercivity_plausible: True" in (out / "summary.txt").read_text()


def test_malformed_table_row_is_config_error(tmp_path, capsys):
    # the x = 0 row of the 61-row table, written with numpy reprs, is line 31
    cfg = _table_config(tmp_path, "  ladder: [2.0]\n  spacing: 0.1\n")
    table = tmp_path / "square.csv"
    lines = table.read_text().splitlines(keepends=True)
    assert lines[30] == "0.0,0.0\n"
    lines[30] = "np.float64(0.0),np.float64(0.0)\n"
    table.write_text("".join(lines))
    code = main(["ergodic", "--config", cfg, "--out", str(tmp_path / "erg")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "line 31" in err
    assert err.count("\n") == 1


def test_oracle_horizon_below_one_is_config_error(tmp_path, capsys):
    # the transform slope compares the fields at horizon - 1 and horizon
    cfg = _quick_variant(tmp_path, ("horizon: 3.0", "horizon: 0.5"))
    code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "oracle.horizon" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("longtime.epsilon", "0.1"),
        ("longtime.tolerance", "0.05"),
        ("oracle.eigen_tolerance", "0.05"),
        ("oracle.field_tolerance", "0.05"),
        ("oracle.slope_tolerance", "0.02"),
    ],
)
def test_nonpositive_margin_or_tolerance_is_config_error(tmp_path, capsys, key, value):
    # a margin or tolerance <= 0 would otherwise surface as a failed verdict
    command, name = key.split(".")
    cfg = _quick_variant(tmp_path, (f"\n  {name}: {value}", f"\n  {name}: -{value}"))
    code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("alpha: 2.0", "alpah: 1.5", "unknown config key 'problem.source.alpah'; "
         "did you mean 'problem.source.alpha'?"),
        ("\n  tolerance: 0.05", "\n  tolerence: 1e-9", "unknown config key "
         "'longtime.tolerence'; did you mean 'longtime.tolerance'?"),
        ("seed: 0\n", "seed: 0\nlongtime:\n  tolerance: 1e-9\n",
         "line 31: config key 'longtime' repeated"),
        ("epsilon: 0.1", "epsilon: 0.1\n  epsilon: 0.2",
         "line 22: config key 'longtime.epsilon' repeated"),
        ("dim: 1\n", "dim: 1.5\n", "problem.dim must be an integer, got 1.5"),
        ("ladder: [3.0, 5.0]", "ladder: 4.0",
         "ergodic.ladder must be a list of numbers, got 4.0"),
        ("m: 2.0", "m: two", "problem.m must be a number, got 'two'"),
        ("eigen_tolerance: 0.05", "eigen_tolerance: -1.0",
         "oracle.eigen_tolerance must be positive, got -1.0"),
        ("slope_tolerance: 0.02", "slope_tolerance: 0.0",
         "oracle.slope_tolerance must be positive, got 0.0"),
        ("horizon: 3.0", "horizon: 0.5", "oracle.horizon must be at least 1, got 0.5"),
        ("m: 2.0", "m: 3.0", "problem.m must be in (1, 2], got 3.0"),
        ("dim: 1\n", "dim: 3\n", "problem.dim must be 1 or 2, got 3"),
        ("cfl_safety: 0.9", "cfl_safety: 1.5", "scheme.cfl_safety must be in (0, 1], got 1.5"),
    ],
    ids=["typo", "typo_tolerance", "repeated_block", "repeated_key", "dim_fraction",
         "ladder_scalar", "m_word", "eigen_tolerance", "slope_tolerance",
         "oracle_horizon", "m_range", "dim_range", "cfl_safety_range"],
)
def test_config_fault_exits_two_before_any_command(tmp_path, capsys, old, new, message):
    # the whole config is checked before the first command: one line, no output
    cfg = _quick_variant(tmp_path, (old, new))
    out = tmp_path / "all"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_torus_cell_off_the_grid_exits_two_before_any_solve(tmp_path, capsys, monkeypatch):
    # cutoff 32 needs the cell S = 5.75: 115 steps of 0.1, no node at the
    # origin.  Every command that reads the ergodic block says so before the
    # first box rung is solved
    cfg = _quick_variant(tmp_path, ("cutoffs: [9.0]", "cutoffs: [9.0, 32.0]"))
    monkeypatch.setattr(ergodic, "solve_state_constraint", None)
    for command in ("ergodic", "longtime", "all"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: ergodic.cutoffs 32 gives a torus cell of half-width 5.75: "
            "spacing must place a node at the origin (even step count per width)\n"
        )
        assert not out.exists()


def test_longtime_rejects_another_problems_artifacts(quick_cfg, tmp_path, capsys):
    # ergodic runs of f = |x|^1.5 at m = 1.5 must not certify the m = 2 flow
    other = _quick_variant(tmp_path, ("m: 2.0", "m: 1.5"), ("alpha: 2.0", "alpha: 1.5"))
    erg = tmp_path / "erg"
    assert main(["ergodic", "--config", other, "--out", str(erg)]) == 0
    out = tmp_path / "lt"
    args = ["--config", quick_cfg, "--out", str(out), "--artifacts", str(erg)]
    assert main(["longtime"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "problem.m = 1.5" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_every_shipped_config_loads(tmp_path):
    # the benchmark's configs (read in place) and the tests' own: retired
    # keys such as min_time and max_time load and drop out
    from test_acceptance import DETERMINISM_CFG

    configs = sorted(glob.glob(os.path.join(PERFBENCH, "configs", "*.cfg")))
    assert configs
    for name, text in (("quick", QUICK), ("determinism", DETERMINISM_CFG)):
        (tmp_path / f"{name}.cfg").write_text(text)
        configs.append(str(tmp_path / f"{name}.cfg"))
    for path in configs:
        cfg = load_config(path)
        assert "min_time" not in cfg["ergodic"] and "max_time" not in cfg["ergodic"]
        # load_artifacts reads a report header back the same way
        assert parse_config(emit_config(cfg)) == cfg, path


@pytest.mark.parametrize("name", ["all_1d_m2", "all_1d_m15", "smoke"])
def test_benchmark_longtime_box_is_a_ladder_rung(name):
    # then longtime reuses that rung's pair: no workload pays an extra solve
    cfg = load_config(os.path.join(PERFBENCH, "configs", f"{name}.cfg"))
    dim, lt, erg = cfg["problem"]["dim"], cfg["longtime"], cfg["ergodic"]
    box = make_grid("box", lt["box_half_width"], lt["spacing"], dim)
    rungs = [make_grid("box", R, erg["spacing"], dim) for R in erg["ladder"]]
    assert any(grids_equal(box, g) for g in rungs)


def test_readme_lists_every_config_key_with_its_default():
    from ergodic_hj.config import REQUIRED, RETIRED, SCHEMA, TYPES

    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        text = fh.read()
    for key, (kind, default, _) in SCHEMA.items():
        shown = "required" if default is REQUIRED else "unset" if default is None else default
        what = TYPES[kind][0].split(" ", 1)[1]
        assert f"| `{key}` | {what} | {shown} |" in text, key
    for key in RETIRED:
        assert f"`{key}`" in text, key


def test_validate_csv_cells_are_plain_floats(quick_cfg, tmp_path):
    out = tmp_path / "val"
    assert main(["validate", "--config", quick_cfg, "--out", str(out)]) == 0
    lines = (out / "validate.csv").read_text().splitlines()
    rows = [r for r in lines if r and not r.startswith("#")][1:]
    cells = [c for r in rows for c in r.split(",") if c]
    assert cells
    for cell in cells:
        float(cell)


def test_runs_csv_reports_newton_iterations(quick_cfg, tmp_path):
    out = tmp_path / "erg"
    assert main(["ergodic", "--config", quick_cfg, "--out", str(out)]) == 0
    rows = [
        r.split(",")
        for r in (out / "runs.csv").read_text().splitlines()
        if r and not r.startswith("#")
    ]
    assert rows[0][-2:] == ["iterations", "stop_reason"]
    for row in rows[1:]:
        assert int(row[-2]) >= 1
        assert row[-1] == "residual below tolerance"
