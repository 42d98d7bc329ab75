"""CLI: config parsing, commands, exit codes, deterministic outputs."""

import filecmp
import json
import os

import numpy as np
import pytest

from ergodic_hj.cli import main
from ergodic_hj.config import emit_config, parse_config

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
        "ergodic/runs.csv",
        "longtime/barriers.csv",
        "longtime/history.csv",
        "oracle/oracle.csv",
    }
    assert expected <= compared


def test_parallel_jobs_match_sequential(quick_cfg, tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["ergodic", "--config", quick_cfg, "--out", str(seq)]) == 0
    assert main(["ergodic", "--config", quick_cfg, "--out", str(par), "--jobs", "2"]) == 0
    for name in os.listdir(seq):
        if name == "timings.txt":
            continue
        assert filecmp.cmp(seq / name, par / name, shallow=False), name


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


def test_oracle_rejects_subquadratic(tmp_path, capsys):
    cfg = tmp_path / "m15.cfg"
    cfg.write_text(
        "problem:\n  m: 1.5\n  dim: 1\n  source:\n    family: power\n    alpha: 1.5\n"
    )
    code = main(["oracle", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "m = 2" in capsys.readouterr().err


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
    code = main(["longtime", "--config", cfg, "--out", str(tmp_path / "lt")])
    assert code == 2
    err = capsys.readouterr().err
    assert "box_half_width 6" in err and "half-width 8" in err


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
