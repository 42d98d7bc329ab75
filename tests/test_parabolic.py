"""Time stepping: stationarity, monotone comparison, diagnostics."""

import math

import numpy as np
import pytest

from ergodic_hj import (
    BlowUpError,
    ConfigError,
    GridFunction,
    InitialSpec,
    ProblemSpec,
    SchemeConfig,
    SourceSpec,
    cfl_timestep,
    evolve,
    gradient_monitor,
    holder_quotient,
    make_grid,
    restrict,
    sample,
    solve_state_constraint,
)
from ergodic_hj import parabolic
from ergodic_hj.kernels import vhj_step
from ergodic_hj.parabolic import DiagnosticsTrace
from ergodic_hj.reference import manufactured


def test_constants_are_stationary_without_source():
    g = make_grid("box", 2.0, 0.25, 1)
    out = vhj_step(np.full(g.shape, 4.2), np.zeros(g.shape), 1e-3, g.spacing, 2.0, False)
    assert np.allclose(out, 4.2, rtol=0, atol=1e-14)


def test_unit_source_integrates_linearly():
    g = make_grid("box", 2.0, 0.25, 1)
    dt = 2.5e-3
    out = vhj_step(np.zeros(g.shape), np.ones(g.shape), dt, g.spacing, 2.0, False)
    assert np.allclose(out, dt, rtol=0, atol=1e-15)


@pytest.mark.parametrize("m", [1.5, 2.0])
def test_stationary_profile_increments_by_lambda_dt(m):
    # u = phi + lambda*t: one step adds about lambda*dt on the interior
    oracle = manufactured(m, 1)
    g = make_grid("box", 4.0, 0.05, 1)
    phi = sample(oracle.phi, g)
    f = sample(oracle.source, g)
    dt = 1e-4
    out = vhj_step(phi.values, f.values, dt, g.spacing, m, False)
    inc = (out - phi.values)[40:-40] / dt
    # upwind consistency error is O(h) here, well under the increment itself
    assert np.max(np.abs(inc - oracle.lambda_exact)) < 0.1


def test_blow_up_raises_without_numpy_warnings():
    # evolve silences the overflow itself, so a blow-up surfaces as one
    # BlowUpError even when every warning is an error
    import warnings

    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 2.0, 0.25, 1)
    f = np.zeros(g.shape)
    f[8] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError):
            evolve(p, g, 0.1, source=GridFunction(g, f))


def test_step_detects_nonfinite(monkeypatch):
    # a huge source overflows the squared gradient on the second step; the
    # check at the next sample names a node, as plain ints
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 2.0, 0.25, 1)
    f = np.zeros(g.shape)
    f[8] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            evolve(p, g, 0.1, source=GridFunction(g, f))
    node = err.value.node
    assert isinstance(node, tuple) and node and all(type(i) is int for i in node)
    assert "np.int64" not in str(err.value)
    # a gradient refresh that reads the non-finite state names the node too,
    # here the one that overflowed first, instead of reporting a measurement
    monkeypatch.setattr(parabolic, "REFRESH_STEPS", 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            src = GridFunction(g, f)
            evolve(p, g, 0.1, source=src, blow_up_cap=math.inf)
    assert err.value.node == (8,)
    assert str(err.value).startswith("non-finite value at node (8,), t=")


def test_step_bc_grid_consistency():
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 2.0, 0.25, 1)
    torus = make_grid("torus", 2.0, 0.25, 1)
    with pytest.raises(ConfigError):
        evolve(p, g, 1.0, initial=GridFunction(torus, np.zeros(torus.shape)))


def test_evolve_zero_horizon_is_identity():
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 4.0, 0.25, 1)
    st = evolve(p, g, 0.0)
    assert st.t == 0.0
    assert np.all(st.u.values == 0.0)


def test_comparison_on_the_box():
    # ordered initial data stay ordered: exact consequence of monotonicity
    rng = np.random.default_rng(0)
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 2.0, 0.125, 1)
    x = g.axis_coords()
    for trial in range(5):
        coeffs = rng.uniform(-0.5, 0.5, size=3)
        base = coeffs[0] + coeffs[1] * np.sin(x) + coeffs[2] * x**2
        base = base - base.min()  # keep it bounded below by zero
        gap = rng.uniform(0.0, 1.0, size=g.shape)
        u0 = GridFunction(g, base)
        w0 = GridFunction(g, base + gap)
        su = evolve(p, g, 0.5, initial=u0)
        sw = evolve(p, g, 0.5, initial=w0)
        assert np.all(su.u.values <= sw.u.values + 1e-10)


def test_nonnegativity_preserved():
    p = ProblemSpec(
        m=1.5,
        source=SourceSpec("power", alpha=1.5),
        initial=InitialSpec("bump"),
        dim=1,
    )
    g = make_grid("box", 4.0, 0.1, 1)
    st = evolve(p, g, 1.0)
    assert float(np.min(st.u.values)) >= -1e-12


def test_domain_monotonicity_on_nested_boxes():
    # the larger-box solution sits below the smaller-box one on the overlap
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    h = 0.05
    small = evolve(p, make_grid("box", 4.0, h, 1), 3.0)
    large = evolve(p, make_grid("box", 6.0, h, 1), 3.0)
    inner_small = restrict(small.u, 3.0)
    inner_large = restrict(large.u, 3.0)
    assert np.all(inner_large.values <= inner_small.values + 5e-3)


def test_superlinear_growth_snapshot():
    # u(x, t0)/|x| grows with the window radius once past the scale where the
    # accumulated constant-in-x growth stops dominating the quotient
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 8.0, 0.05, 1)
    st = evolve(p, g, 4.0)
    quotients = []
    for w in (3.0, 5.0, 7.0):
        edge = restrict(st.u, w).values[-1]
        quotients.append(edge / w)
    assert quotients[0] < quotients[1] < quotients[2]


def test_trace_samples_strictly_increasing():
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 4.0, 0.1, 1)
    st = evolve(p, g, 2.0)
    times = [s.t for s in st.trace.samples]
    assert np.all(np.diff(times) > 0)


def test_trace_dt_is_the_cfl_step_in_force():
    # zero data and zero source keep L at its floor 1, so the CFL step never
    # changes; it does not divide the sample interval, so the steps that land
    # on sample times are shorter than it and must not be recorded
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 2.0, 0.1, 1)
    dt_cfl = cfl_timestep(g, SchemeConfig(), p.m, 0.0)
    assert 0.25 / dt_cfl != round(0.25 / dt_cfl)
    st = evolve(p, g, 2.0, source=GridFunction(g, np.zeros(g.shape)))
    assert len(st.trace.samples) == 8
    assert [s.dt for s in st.trace.samples] == [dt_cfl] * 8


def test_trace_window_gradient_does_not_wrap_on_a_torus():
    # the window is a sub-box of the torus: its two ends are not neighbours
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("torus", 4.0, 0.1, 1)
    u0 = sample(lambda x: 0.2 * np.sin(2.0 * np.pi * x / 8.0), g)
    st = evolve(p, g, 0.25, initial=u0, window_half_width=1.0)
    window = restrict(st.u, 1.0).values
    expected = float(np.max(np.abs(np.diff(window)))) / g.spacing
    assert st.trace.samples[-1].max_grad == pytest.approx(expected, rel=1e-12)


def test_blow_up_guard_fires():
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 4.0, 0.1, 1)
    steep = sample(lambda x: 500.0 * np.abs(x), g)
    with pytest.raises(BlowUpError):
        evolve(p, g, 1.0, initial=steep, blow_up_cap=100.0)


@pytest.mark.parametrize("m, T", [(2.0, 12.0), (1.5, 20.0)])
def test_fast_forward_agrees_with_the_stepped_flow_within_its_bound(m, T):
    # the rule fires at t1 = 7 (m = 2, delta 8.9e-11) and 15 (m = 1.5,
    # delta 4.1e-11); every later state is u(t1) + lambda_h (t - t1), which
    # the stepped flow stays within delta (t - t1) of (measured: at most
    # 2.4e-11 on the whole box and 1.7e-12 on the window).  f = |x|^m, box
    # R = 4, h = 0.1
    p = ProblemSpec(m=m, source=SourceSpec("power", alpha=m), dim=1)
    run = solve_state_constraint(p, 4.0, 0.1)
    g = run.profile.grid
    snaps = [float(k) for k in range(1, int(T) + 1)]
    args = dict(snapshot_times=snaps, window_half_width=1.0)
    fast = evolve(p, g, T, stationary_constant=run.constant, **args)
    full = evolve(p, g, T, **args)
    t1, delta = fast.fast_forward_from, fast.fast_forward_residual
    assert t1 is not None and t1 < T
    assert (full.fast_forward_from, full.fast_forward_residual) == (None, None)
    bound = delta * (T - t1)
    assert bound < parabolic.FAST_FORWARD_BUDGET
    assert [t for t, _ in fast.snapshots] == [t for t, _ in full.snapshots] == snaps
    for (t, a), (_, b) in zip(fast.snapshots, full.snapshots):
        if t <= t1:
            assert np.array_equal(a.values, b.values)
        else:
            assert np.array_equal(a.values, fast.snapshots[int(t1) - 1][1].values
                                  + run.constant * (t - t1))
        assert np.max(np.abs(a.values - b.values)) <= bound + 1e-12
    for (t, a), (s, b) in zip(fast.trace.window_snapshots, full.trace.window_snapshots):
        assert t == s
        assert np.max(np.abs(a - b)) <= bound + 1e-12
    assert np.max(np.abs(fast.u.values - full.u.values)) <= bound + 1e-12
    # a fast-forwarded sample has no step in force
    for a, b in zip(fast.trace.samples, full.trace.samples):
        assert a.dt == (b.dt if a.t <= t1 else None)


def test_monotone_ratio_is_the_sufficient_bound():
    # dt (2N/h^2 + m sqrt(2N) q2^((m-1)/2) / h)
    assert parabolic.monotone_ratio(1e-3, 4.0, 2.0, 0.1, 1) == pytest.approx(
        1e-3 * (200.0 + 2.0 * np.sqrt(2.0) * 2.0 / 0.1), rel=1e-15
    )
    assert parabolic.monotone_ratio(1e-3, 16.0, 1.5, 0.1, 2) == pytest.approx(
        1e-3 * (400.0 + 1.5 * 2.0 * 2.0 / 0.1), rel=1e-15
    )


@pytest.mark.parametrize("steep", [False, True])
def test_fast_forward_guard_refuses_a_step_that_is_not_monotone(monkeypatch, steep):
    # with the budget out of the way only the guard decides.  A peak of slope
    # 200 on h = 0.25 has max q2 = 6.7e4 (about 2 x 183^2) after the first
    # step, and the CFL step sized from 1.5 x 200 gives the bound a ratio of
    # 1.098: the run steps to T, with every sample as without the constant.
    # Zero data keep the ratio below 1, so the same run fast-forwards from
    # the first snapshot
    monkeypatch.setattr(parabolic, "FAST_FORWARD_BUDGET", math.inf)
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 2.0, 0.25, 1)
    peak = 200.0 * np.maximum(1.0 - np.abs(g.axis_coords()), 0.0) if steep else 0.0
    u0 = GridFunction(g, np.zeros(g.shape) + peak)
    args = dict(initial=u0, snapshot_times=[1e-4], sample_interval=0.05)
    fast = evolve(p, g, 0.2, stationary_constant=1.0, **args)
    if steep:
        full = evolve(p, g, 0.2, **args)
        assert fast.fast_forward_from is None
        assert np.array_equal(fast.u.values, full.u.values)
        assert [s.dt for s in fast.trace.samples] == [s.dt for s in full.trace.samples]
    else:
        assert fast.fast_forward_from == 1e-4
        assert all(s.dt is None for s in fast.trace.samples)


def test_holder_quotient_stationary_drift():
    # for u = phi + c*t the quotient is c*sqrt(gap), maximized at gap 1
    g = make_grid("box", 4.0, 0.25, 1)
    trace = DiagnosticsTrace(window_half_width=2.0)
    c = 1.7
    base = np.zeros(17)
    for k in range(9):
        t = 0.25 * k
        trace.window_snapshots.append((t, base + c * t))
    q = holder_quotient(trace, tau=0.0, max_gap=1.0)
    assert q == pytest.approx(c * math.sqrt(1.0), rel=1e-12)


def test_holder_quotient_constant_is_zero():
    trace = DiagnosticsTrace(window_half_width=2.0)
    for k in range(5):
        trace.window_snapshots.append((0.5 * k, np.full(9, 2.0)))
    assert holder_quotient(trace, tau=0.0) == 0.0


def test_holder_quotient_needs_two_samples():
    trace = DiagnosticsTrace(window_half_width=2.0)
    trace.window_snapshots.append((0.5, np.zeros(5)))
    with pytest.raises(ConfigError):
        holder_quotient(trace, tau=0.0)


def test_gradient_monitor_bowl():
    g = make_grid("box", 4.0, 0.125, 1)
    u = sample(lambda x: x**2 / 2.0, g)
    out = gradient_monitor(u, 2.0)
    # steepest one-sided difference on [-2, 2] is at the window edge
    assert out["max_grad"] == pytest.approx(2.0, abs=0.07)


def test_gradient_monitor_constant_zero():
    g = make_grid("box", 4.0, 0.125, 1)
    u = GridFunction(g, np.full(g.shape, 1.0))
    assert gradient_monitor(u, 2.0)["max_grad"] == 0.0


def test_gradient_monitor_rejects_full_window():
    g = make_grid("box", 2.0, 0.125, 1)
    u = GridFunction(g, np.zeros(g.shape))
    with pytest.raises(ConfigError):
        gradient_monitor(u, 2.0)


def test_gradient_monitor_regularity_ratio():
    # manufactured family: |D phi| = |x| = f^(1/m) so the ratio stays <= 1
    m = 1.5
    oracle = manufactured(m, 1)
    g = make_grid("box", 4.0, 0.05, 1)
    phi = sample(oracle.phi, g)
    f = sample(oracle.source, g)
    out = gradient_monitor(phi, 2.0, source=f, m=m)
    assert out["ratio"] <= 1.0


def test_gradient_monitor_source_slope_does_not_wrap_on_a_torus():
    # f = 2 + x has slope 1; across the ends of the enclosing window [-2, 2]
    # it jumps by 4, which a wrapped difference would read as slope 40
    g = make_grid("torus", 4.0, 0.1, 1)
    u = GridFunction(g, np.zeros(g.shape))
    f = sample(lambda x: 2.0 + x, g)
    out = gradient_monitor(u, 1.0, source=f, m=2.0)
    assert out["bound_rhs"] == pytest.approx(1.0 + 4.0 ** 0.5 + 1.0, rel=1e-9)


def test_gradient_monitor_measures_the_inner_window_on_a_torus():
    # u = 5(|x| - 3)+ is flat on the inner window [-1, 1]; only the rest
    # of the torus is steep
    for kind in ("box", "torus"):
        g = make_grid(kind, 4.0, 0.1, 1)
        u = sample(lambda x: 5.0 * np.maximum(np.abs(x) - 3.0, 0.0), g)
        assert gradient_monitor(u, 1.0)["max_grad"] == 0.0


def test_gradient_monitor_enclosing_window_may_wrap_past_the_cell():
    # inner 3.0 on the S = 4 torus: the enclosing window [-4, 4] reaches the
    # cell's edge and takes the periodic extension, which matches a box
    # wide enough to hold it
    def f(x):
        return 2.0 + np.cos(0.25 * math.pi * x)

    def u(x):
        return np.sin(0.25 * math.pi * x)

    torus = make_grid("torus", 4.0, 0.1, 1)
    box = make_grid("box", 5.0, 0.1, 1)
    got = gradient_monitor(sample(u, torus), 3.0, source=sample(f, torus), m=2.0)
    want = gradient_monitor(sample(u, box), 3.0, source=sample(f, box), m=2.0)
    for key in ("max_grad", "bound_rhs", "ratio"):
        assert got[key] == pytest.approx(want[key], rel=1e-9)
