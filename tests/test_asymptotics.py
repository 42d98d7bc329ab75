"""Large-time reports, the offset estimate, and the barrier checks."""

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
    estimate_lambda_star,
    make_grid,
    restrict,
    run_large_time,
    sample,
    solve_periodic,
    solve_state_constraint,
)
from ergodic_hj.asymptotics import LargeTimeHistoryRow, pick_reference_time


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
    runs, per = osc_runs
    est = estimate_lambda_star(runs, [per])
    phi_ref = runs[-1].profile
    report = run_large_time(
        oscillator, est.value, phi_ref, 14.0, 8.0, 0.05, window_half_width=2.0
    )
    return est, phi_ref, report


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


def test_large_time_converges_from_zero(osc_report):
    _, _, report = osc_report
    assert report.converged
    assert report.final_sup_error <= 0.05
    assert report.final_flatness <= 0.1


def test_large_time_history_eventually_decreasing(osc_report):
    _, _, report = osc_report
    errs = [r.sup_error for r in report.history]
    tail = errs[-max(len(errs) // 4, 2) :]
    assert errs[-1] <= min(tail) + 1e-3


def test_large_time_slope_error_small_at_horizon(osc_report):
    _, _, report = osc_report
    assert report.history[-1].slope_error < 0.05


def test_stationary_start_flat_from_the_first_sample(oscillator, osc_runs):
    runs, _ = osc_runs
    phi_ref = runs[-1].profile
    phi8 = restrict(phi_ref, 8.0)
    lam = runs[-1].constant
    report = run_large_time(
        oscillator,
        lam,
        phi_ref,
        2.0,
        8.0,
        0.05,
        window_half_width=2.0,
        initial=GridFunction(phi8.grid, phi8.values.copy()),
        tol=0.05,
    )
    assert abs(report.c_hat) < 1e-6
    assert all(r.sup_error < 1e-6 for r in report.history)


def test_shifted_start_shifts_offset_exactly(oscillator, osc_runs):
    runs, _ = osc_runs
    phi_ref = runs[-1].profile
    phi8 = restrict(phi_ref, 8.0)
    lam = runs[-1].constant
    rep0 = run_large_time(
        oscillator, lam, phi_ref, 2.0, 8.0, 0.05,
        initial=GridFunction(phi8.grid, phi8.values.copy()),
    )
    rep5 = run_large_time(
        oscillator, lam, phi_ref, 2.0, 8.0, 0.05,
        initial=GridFunction(phi8.grid, phi8.values + 5.0),
    )
    assert rep5.c_hat - rep0.c_hat == pytest.approx(5.0, abs=1e-9)


def test_doubling_the_box_leaves_the_window_report_unchanged(oscillator, osc_runs):
    # validates the 4x box-to-window policy: truncation effects must not
    # reach the report region over the horizon
    runs, _ = osc_runs
    phi_ref = runs[-1].profile
    lam = runs[-1].constant
    rep8 = run_large_time(oscillator, lam, phi_ref, 8.0, 8.0, 0.05, window_half_width=2.0)
    rep16 = run_large_time(oscillator, lam, phi_ref, 8.0, 16.0, 0.05, window_half_width=2.0)
    # the residual truncation effect is (lambda_8 - lambda_16) * T, orders of
    # magnitude below the 0.05 report tolerance
    assert abs(rep8.c_hat - rep16.c_hat) < 1e-3
    assert abs(rep8.final_sup_error - rep16.final_sup_error) < 1e-3


def test_box_must_dominate_window(oscillator, osc_runs):
    runs, _ = osc_runs
    with pytest.raises(ConfigError):
        run_large_time(
            oscillator, 1.0, runs[-1].profile, 5.0, 4.0, 0.05, window_half_width=2.0
        )


def test_zero_horizon_rejected(oscillator, osc_runs):
    runs, _ = osc_runs
    with pytest.raises(ConfigError):
        run_large_time(oscillator, 1.0, runs[-1].profile, 0.0, 8.0, 0.05)


def test_barrier_epsilon_must_be_positive(oscillator, osc_runs, osc_report):
    runs, per = osc_runs
    est, phi_ref, report = osc_report
    with pytest.raises(ConfigError):
        barrier_check_upper(
            runs[0], phi_ref, est.value, report.c_hat, 0.0, report, oscillator
        )


def test_upper_barrier_oscillator(oscillator, osc_runs, osc_report):
    runs, _ = osc_runs
    est, phi_ref, report = osc_report
    for run in runs:
        v = barrier_check_upper(
            run, phi_ref, est.value, report.c_hat, 0.1, report, oscillator
        )
        assert v.passed, vars(v)
        assert v.mu_or_gamma >= 1.0
        # domination margins carry most of the epsilon cushion
        assert v.initial_domination_margin > 0.05
        assert v.later_domination_margin > 0.05


def test_lower_barrier_oscillator(oscillator, osc_runs, osc_report):
    _, per = osc_runs
    est, phi_ref, report = osc_report
    v = barrier_check_lower(
        per, phi_ref, est.value, report.c_hat, 0.1, report, oscillator
    )
    assert v.passed, vars(v)
    assert v.mu_or_gamma <= 1.0


def test_barrier_kind_mismatch_rejected(oscillator, osc_runs, osc_report):
    runs, per = osc_runs
    est, phi_ref, report = osc_report
    with pytest.raises(ConfigError):
        barrier_check_upper(
            per, phi_ref, est.value, report.c_hat, 0.1, report, oscillator
        )
    with pytest.raises(ConfigError):
        barrier_check_lower(
            runs[0], phi_ref, est.value, report.c_hat, 0.1, report, oscillator
        )


def test_reference_time_needs_flatness(oscillator, osc_report):
    _, _, report = osc_report
    t_ref = pick_reference_time(report, 0.1)
    assert t_ref <= report.history[-1].t
    with pytest.raises(ConfigError):
        pick_reference_time(report, -1.0)


def test_sandwich_between_barriers(oscillator, osc_runs, osc_report):
    # once both barriers pass at (t_ref, eps), later snapshots sit inside
    # [phi + c - eps - tol, phi + c + eps + tol] on the window
    runs, per = osc_runs
    est, phi_ref, report = osc_report
    eps, tol = 0.1, 1e-2
    up = barrier_check_upper(
        runs[-1], phi_ref, est.value, report.c_hat, eps, report, oscillator
    )
    lo = barrier_check_lower(
        per, phi_ref, est.value, report.c_hat, eps, report, oscillator
    )
    assert up.passed and lo.passed
    phi_k = restrict(phi_ref, report.window_half_width)
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
    # zero profiles and dyadic data make every margin exact.  lambda* = 1,
    # c_hat = 1/2, eps = 1/4, phi = 1/8 everywhere:
    #   upper: mu = 5/4, drift = mu^2 - 1 = 9/16, offset max(-m_R, 0) = 1/8,
    #          barrier(t) = 7/8 + 9/16 (t - 1)
    #   lower: gamma = 3/4, drift = gamma^2 - 1 = -7/16, offset tilde_m = 1/8,
    #          barrier(t) = 3/8 - 7/16 (t - 1)
    # v sits between them at t_ref = 1, above the upper one at t = 2 by 1/16,
    # and every snapshot moves by `shift`: a shift down by 2 passes the upper
    # check and fails the lower one
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
    phi_grid = make_grid("box", 2.0, 0.25, 1)
    phi = GridFunction(phi_grid, np.full(phi_grid.shape, 0.125))

    run_grid = make_grid("box", 4.0, 0.25, 1)
    x = run_grid.axis_coords()
    v1 = np.full(run_grid.shape, 0.625)
    v1[x == 0.0] = 0.5  # the lowest node, nearest the lower barrier
    v1[x == 0.5] = 0.6875  # the highest node, nearest the upper barrier
    fields = {1.0: v1, 2.0: np.full(run_grid.shape, 1.5), 3.0: np.ones(run_grid.shape)}
    report = LargeTimeReport(
        lambda_star_used=1.0,
        c_hat=0.5,
        window_half_width=1.0,
        history=[LargeTimeHistoryRow(t, 0.0, 0.0, 0.5, 0.0) for t in fields],
        converged=True,
        final_sup_error=0.0,
        final_flatness=0.0,
        snapshots=[(t, GridFunction(run_grid, v + shift)) for t, v in fields.items()],
    )
    args = (phi, 1.0, 0.5, 0.25, report, problem)
    up = barrier_check_upper(upper_run, *args)
    lo = barrier_check_lower(lower_run, *args)
    bound = 10.0 * 0.25 * 0.25 + 2e-3

    assert (up.side, up.t_ref) == ("upper", 1.0)
    assert (up.mu_or_gamma, up.offset_min) == (1.25, -0.125)
    # the residual 9/16 - (x^2 - 1) on the interior of [-1, 1]: its minimum
    assert (up.residual_extreme, up.residual_ok) == (1.0, True)
    assert up.residual_bound == pytest.approx(-bound)
    assert up.initial_domination_margin == 0.1875 - shift
    assert up.later_domination_margin == -0.0625 - shift
    assert up.initial_ok
    assert up.later_ok == up.passed == (shift < 0)

    assert (lo.side, lo.t_ref) == ("lower", 1.0)
    assert (lo.mu_or_gamma, lo.offset_min) == (0.75, 0.125)
    # the residual -7/16 - (min(x^2, 9/4) - 1) on the torus: its maximum
    assert (lo.residual_extreme, lo.residual_ok) == (0.5625, True)
    assert lo.residual_bound == pytest.approx(bound)
    assert lo.initial_domination_margin == 0.125 + shift
    assert lo.later_domination_margin == 1.5 + shift
    assert lo.initial_ok == lo.later_ok == lo.passed == (shift == 0)
