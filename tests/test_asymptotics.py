"""Large-time reports, the offset estimate, and the barrier checks."""

import dataclasses
import os

import numpy as np
import pytest

from ergodic_hj import (
    ConfigError,
    ErgodicApprox,
    GridFunction,
    LargeTimeReport,
    ProblemSpec,
    SourceSpec,
    barrier_check_lower,
    barrier_check_upper,
    estimate_c_hat,
    evolve,
    make_grid,
    restrict,
    run_large_time,
    sample,
    solve_periodic,
    solve_state_constraint,
)
from ergodic_hj import parabolic
from ergodic_hj.asymptotics import LargeTimeHistoryRow
from ergodic_hj.cli import build_problem
from ergodic_hj.config import load_config
from ergodic_hj.grid import write_table
from ergodic_hj.parabolic import TraceSample


@pytest.fixture(scope="module")
def oscillator():
    return ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)


@pytest.fixture(scope="module")
def osc_runs(oscillator):
    runs = [solve_state_constraint(oscillator, R, 0.05) for R in (4.0, 8.0)]
    per = solve_periodic(oscillator, 16.0, 0.05)
    return runs, per


@pytest.fixture(scope="module")
def osc_report(oscillator, osc_runs):
    runs, _ = osc_runs
    return run_large_time(oscillator, runs[-1], 14.0, window_half_width=2.0)


def test_estimate_c_hat_examples():
    g = make_grid("box", 2.0, 0.25, 1)
    phi = sample(lambda x: x**2 / 2.0, g)
    same = GridFunction(g, phi.values.copy())
    c, flat = estimate_c_hat(same, phi)
    assert c == 0.0 and flat == 0.0
    shifted = GridFunction(g, phi.values + 3.0)
    c, flat = estimate_c_hat(shifted, phi)
    assert c == pytest.approx(3.0) and flat == pytest.approx(0.0)


def test_estimate_c_hat_with_noise():
    rng = np.random.default_rng(1)
    g = make_grid("box", 2.0, 0.25, 1)
    phi = sample(lambda x: x**2 / 2.0, g)
    eps = 0.01
    noise = rng.uniform(-eps, eps, size=g.shape)
    noisy = GridFunction(g, phi.values + 3.0 + noise)
    c, flat = estimate_c_hat(noisy, phi)
    assert c == pytest.approx(3.0, abs=eps)
    assert flat <= 2 * eps


def test_history_rows_are_estimate_c_hat_of_the_stored_windows(osc_report):
    # c(t) and the flatness of each row are estimate_c_hat of that sample's
    # window, shifted by lambda* t, against the renormalized profile
    report = osc_report
    phi_k = restrict(report.profile, report.window_half_width)
    phi_k = GridFunction(phi_k.grid, phi_k.values - float(np.min(phi_k.values)))
    windows = [(t, uk) for t, uk in report.trace.window_snapshots if t > 0]
    assert len(windows) == len(report.history)
    for row, (t, uk) in zip(report.history, windows):
        v_k = GridFunction(phi_k.grid, uk - report.lambda_star_used * t)
        assert row.t == t
        assert (row.c_of_t, row.flatness) == estimate_c_hat(v_k, phi_k)


def test_large_time_converges_from_zero(osc_report):
    report = osc_report
    assert report.converged
    assert report.final_sup_error <= 0.05
    assert report.final_flatness <= 0.1


def test_large_time_history_eventually_decreasing(osc_report):
    report = osc_report
    errs = [r.sup_error for r in report.history]
    tail = errs[-max(len(errs) // 4, 2) :]
    assert errs[-1] <= min(tail) + 1e-3


def test_large_time_slope_error_small_at_horizon(osc_report):
    report = osc_report
    assert report.history[-1].slope_error < 0.05


def test_stationary_start_flat_from_the_first_sample(oscillator, osc_runs):
    runs, _ = osc_runs
    phi8 = runs[-1].profile
    report = run_large_time(
        oscillator,
        runs[-1],
        2.0,
        window_half_width=2.0,
        initial=GridFunction(phi8.grid, phi8.values.copy()),
        tol=0.05,
    )
    assert abs(report.c_hat) < 1e-6
    assert all(r.sup_error < 1e-6 for r in report.history)


def test_shifted_start_shifts_offset_exactly(oscillator, osc_runs):
    runs, _ = osc_runs
    phi8 = runs[-1].profile
    rep0 = run_large_time(
        oscillator, runs[-1], 2.0,
        initial=GridFunction(phi8.grid, phi8.values.copy()),
    )
    rep5 = run_large_time(
        oscillator, runs[-1], 2.0,
        initial=GridFunction(phi8.grid, phi8.values + 5.0),
    )
    assert rep5.c_hat - rep0.c_hat == pytest.approx(5.0, abs=1e-9)


def test_doubling_the_box_leaves_the_window_report_unchanged(oscillator, osc_runs):
    # validates the 4x box-to-window policy: truncation effects must not
    # reach the report region over the horizon
    runs, _ = osc_runs
    run16 = solve_state_constraint(oscillator, 16.0, 0.05)
    rep8 = run_large_time(oscillator, runs[-1], 8.0, window_half_width=2.0)
    rep16 = run_large_time(oscillator, run16, 8.0, window_half_width=2.0)
    # each box subtracts its own pair, whose window profiles differ by far
    # less than the 0.05 report tolerance
    assert abs(rep8.c_hat - rep16.c_hat) < 1e-3
    assert abs(rep8.final_sup_error - rep16.final_sup_error) < 1e-3


def test_box_must_dominate_window(oscillator, osc_runs):
    runs, per = osc_runs
    with pytest.raises(ConfigError):
        run_large_time(oscillator, runs[0], 5.0, window_half_width=2.0)
    # a torus has no box to evolve on
    with pytest.raises(ConfigError, match="state-constraint run"):
        run_large_time(oscillator, per, 5.0, window_half_width=0.5)


def test_zero_horizon_rejected(oscillator, osc_runs):
    runs, _ = osc_runs
    with pytest.raises(ConfigError):
        run_large_time(oscillator, runs[-1], 0.0)


def test_barrier_epsilon_must_be_positive(oscillator, osc_runs, osc_report):
    runs, per = osc_runs
    with pytest.raises(ConfigError):
        barrier_check_upper(runs[0], 0.0, osc_report, oscillator)


def test_upper_barrier_oscillator(oscillator, osc_runs, osc_report):
    runs, _ = osc_runs
    for run in runs:
        v = barrier_check_upper(run, 0.1, osc_report, oscillator)
        assert v.passed, vars(v)
        assert v.mu_or_gamma >= 1.0
        # domination margins carry most of the epsilon cushion
        assert v.initial_domination_margin > 0.05
        assert v.later_domination_margin > 0.05


def test_lower_barrier_oscillator(oscillator, osc_runs, osc_report):
    _, per = osc_runs
    v = barrier_check_lower(per, 0.1, osc_report, oscillator)
    assert v.passed, vars(v)
    assert v.mu_or_gamma <= 1.0


def test_barrier_kind_mismatch_rejected(oscillator, osc_runs, osc_report):
    runs, per = osc_runs
    with pytest.raises(ConfigError):
        barrier_check_upper(per, 0.1, osc_report, oscillator)
    with pytest.raises(ConfigError):
        barrier_check_lower(runs[0], 0.1, osc_report, oscillator)


def test_reference_time_is_picked_on_the_initial_window(oscillator, osc_runs, osc_report):
    # at t = 1 the report window |x| <= 2 is already flat to eps/2, but the
    # windows check (b) compares on (the R = 4 box, the torus cell) are not:
    # each barrier waits for its own window, and passes from t_ref = 2
    runs, per = osc_runs
    report = osc_report
    eps = 0.2
    row_1 = next(r for r in report.history if r.t == 1.0)
    assert row_1.flatness < 0.5 * eps
    up = barrier_check_upper(runs[0], eps, report, oscillator)
    lo = barrier_check_lower(per, eps, report, oscillator)
    assert up.t_ref == lo.t_ref == 2.0
    assert up.passed and lo.passed
    # with the snapshot at t = 1 alone, no snapshot is flat on the cell
    early = dataclasses.replace(report, snapshots=report.snapshots[:1])
    with pytest.raises(ConfigError, match="no snapshot reached flatness"):
        barrier_check_lower(per, eps, early, oscillator)


def test_sandwich_between_barriers(oscillator, osc_runs, osc_report):
    # once both barriers pass at (t_ref, eps), later snapshots sit inside
    # [phi + c - eps - tol, phi + c + eps + tol] on the window
    runs, per = osc_runs
    report = osc_report
    eps, tol = 0.1, 1e-2
    up = barrier_check_upper(runs[-1], eps, report, oscillator)
    lo = barrier_check_lower(per, eps, report, oscillator)
    assert up.passed and lo.passed
    phi_k = restrict(report.profile, report.window_half_width)
    phi_k_vals = phi_k.values - float(np.min(phi_k.values))
    t_ref = up.t_ref
    for t, v_snap in report.snapshots:
        if t <= t_ref:
            continue
        v_k = restrict(v_snap, report.window_half_width).values
        assert np.all(v_k <= phi_k_vals + report.c_hat + eps + tol)
        assert np.all(v_k >= phi_k_vals + report.c_hat - eps - tol)


@pytest.mark.parametrize("shift", [0.0, -2.0])
def test_barrier_margins_carry_their_sign(shift):
    # zero profiles and dyadic data make every margin exact.  lambda* = 1 and
    # c_hat = 1/2 (read from the report), eps = 1/4, phi = 1/8 everywhere:
    #   upper: mu = 5/4, drift = mu^2 - 1 = 9/16, offset max(-m_R, 0) = 1/8,
    #          barrier(t) = 7/8 + 9/16 (t - 1)
    #   lower: gamma = 3/4, drift = gamma^2 - 1 = -7/16, offset tilde_m = 1/8,
    #          barrier(t) = 3/8 - 7/16 (t - 1)
    # v - phi is flat to 3/32 < eps/2 at t = 1, so t_ref = 1 on both sides;
    # v sits between the barriers there, above the upper one at t = 2 by
    # 1/16, and every snapshot moves by `shift`: a shift down by 2 passes the
    # upper check and fails the lower one
    problem = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    box = make_grid("box", 1.0, 0.25, 1)
    torus = make_grid("torus", 2.0, 0.25, 1)
    common = dict(residual_norm=0.0, converged=True)
    upper_run = ErgodicApprox(
        "state_constraint", 1.0, 1.25, GridFunction(box, np.zeros(box.shape)), **common
    )
    lower_run = ErgodicApprox(
        "periodic", 2.0, 0.75, GridFunction(torus, np.zeros(torus.shape)),
        cutoff=2.25, **common,
    )
    run_grid = make_grid("box", 4.0, 0.25, 1)
    x = run_grid.axis_coords()
    v1 = np.full(run_grid.shape, 0.625)
    v1[x == 0.0] = 0.5625  # the lowest node, nearest the lower barrier
    v1[x == 0.5] = 0.65625  # the highest node, nearest the upper barrier
    fields = {1.0: v1, 2.0: np.full(run_grid.shape, 1.5), 3.0: np.ones(run_grid.shape)}
    report = LargeTimeReport(
        lambda_star_used=1.0,
        profile=GridFunction(run_grid, np.full(run_grid.shape, 0.125)),
        c_hat=0.5,
        window_half_width=1.0,
        history=[LargeTimeHistoryRow(t, 0.0, 0.0, 0.5, 0.0) for t in fields],
        converged=True,
        final_sup_error=0.0,
        final_flatness=0.0,
        snapshots=[(t, GridFunction(run_grid, v + shift)) for t, v in fields.items()],
    )
    args = (0.25, report, problem)
    up = barrier_check_upper(upper_run, *args)
    lo = barrier_check_lower(lower_run, *args)
    bound = 10.0 * 0.25 * 0.25 + 2e-3

    assert (up.side, up.t_ref) == ("upper", 1.0)
    assert (up.mu_or_gamma, up.offset_min) == (1.25, -0.125)
    # the residual 9/16 - (x^2 - 1) on the interior of [-1, 1]: its minimum
    assert (up.residual_extreme, up.residual_ok) == (1.0, True)
    assert up.residual_bound == pytest.approx(-bound)
    assert up.initial_domination_margin == 0.21875 - shift
    assert up.later_domination_margin == -0.0625 - shift
    assert up.initial_ok
    assert up.later_ok == up.passed == (shift < 0)

    assert (lo.side, lo.t_ref) == ("lower", 1.0)
    assert (lo.mu_or_gamma, lo.offset_min) == (0.75, 0.125)
    # the residual -7/16 - (min(x^2, 9/4) - 1) on the torus: its maximum
    assert (lo.residual_extreme, lo.residual_ok) == (0.5625, True)
    assert lo.residual_bound == pytest.approx(bound)
    assert lo.initial_domination_margin == 0.1875 + shift
    assert lo.later_domination_margin == 1.5 + shift
    assert lo.initial_ok == lo.later_ok == lo.passed == (shift == 0)


@pytest.mark.parametrize("m, T", [(2.0, 12.0), (1.5, 20.0)])
def test_fast_forwarded_report_agrees_with_the_stepped_one(monkeypatch, m, T):
    # the report names t1 < T and the bound delta (T - t1); every history
    # row and snapshot of the stepped run (budget 0: the rule never fires)
    # agrees within it.  A window mean moves by at most the bound, a spread
    # (sup error, flatness) by at most twice it
    problem = ProblemSpec(m=m, source=SourceSpec("power", alpha=m), dim=1)
    run = solve_state_constraint(problem, 4.0, 0.1)
    fast = run_large_time(problem, run, T, window_half_width=1.0)
    monkeypatch.setattr(parabolic, "FAST_FORWARD_BUDGET", 0.0)
    full = run_large_time(problem, run, T, window_half_width=1.0)
    assert fast.fast_forward_from < T
    assert fast.fast_forward_bound == fast.fast_forward_residual * (T - fast.fast_forward_from)
    assert fast.fast_forward_bound < 1e-9
    assert full.fast_forward_from is full.fast_forward_residual is full.fast_forward_bound is None
    tol = fast.fast_forward_bound + 1e-12
    assert len(fast.history) == len(full.history)
    for a, b in zip(fast.history, full.history):
        assert a.t == b.t
        assert abs(a.c_of_t - b.c_of_t) <= tol
        assert abs(a.slope_error - b.slope_error) <= tol / a.t
        assert abs(a.sup_error - b.sup_error) <= 2.0 * tol
        assert abs(a.flatness - b.flatness) <= 2.0 * tol
    for (t, a), (s, b) in zip(fast.snapshots, full.snapshots):
        assert t == s
        assert np.max(np.abs(a.values - b.values)) <= tol
    assert abs(fast.c_hat - full.c_hat) <= tol


def test_horizon_short_of_the_budget_writes_the_same_trace(tmp_path):
    # T = 4 on the R = 8 box: delta (T - t1) stays above the budget at
    # every snapshot, so the run steps to T and its trace.csv is the one a
    # run without the constant writes, byte for byte
    problem = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    run = solve_state_constraint(problem, 8.0, 0.05)
    report = run_large_time(problem, run, 4.0, window_half_width=2.0)
    assert report.fast_forward_from is None and report.fast_forward_bound is None
    plain = evolve(problem, run.profile.grid, 4.0, window_half_width=2.0)
    columns = [f.name for f in dataclasses.fields(TraceSample)]
    for name, samples in (("report", report.trace.samples), ("plain", plain.trace.samples)):
        write_table(tmp_path / name, [], columns, map(dataclasses.astuple, samples))
    assert (tmp_path / "report").read_bytes() == (tmp_path / "plain").read_bytes()


def test_benchmark_longtime_run_fast_forwards_from_t8():
    # all_1d_m2.cfg's longtime grid (R = 16, h = 0.05, T = 20): the flow sits
    # on the fixed point from t = 8 (delta 5.0e-11, bound 6.0e-10)
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "configs",
                        "all_1d_m2.cfg")
    cfg = load_config(path)
    problem, lt = build_problem(cfg), cfg["longtime"]
    run = solve_state_constraint(problem, lt["box_half_width"], lt["spacing"])
    report = run_large_time(problem, run, lt["horizon"],
                            window_half_width=lt["window_half_width"])
    assert report.fast_forward_from == 8.0
    assert report.fast_forward_bound < 1e-9
