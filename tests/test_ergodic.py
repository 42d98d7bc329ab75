"""Ergodic solvers, the bracketing estimate, and the scaling machinery."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ergodic_hj import (
    BracketInconsistencyError,
    ConfigError,
    GridFunction,
    ProblemSpec,
    SourceSpec,
    argmax_confinement,
    estimate_lambda_star,
    evolve,
    make_grid,
    manufactured,
    restrict,
    sample,
    scaling_check_super,
    solve_periodic,
    solve_state_constraint,
)
from ergodic_hj import ergodic
from ergodic_hj.ergodic import ErgodicApprox


@pytest.fixture(scope="module")
def oscillator():
    return ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)


@pytest.fixture(scope="module")
def osc_run_r4(oscillator):
    return solve_state_constraint(oscillator, 4.0, 0.05)


@pytest.fixture(scope="module")
def osc_run_r8(oscillator):
    return solve_state_constraint(oscillator, 8.0, 0.05)


def test_state_constraint_constant_in_expected_band(osc_run_r4):
    # the discrete constant sits just above the continuum value 1
    assert osc_run_r4.converged
    assert 1.0 <= osc_run_r4.constant <= 1.1


def test_profile_vanishes_at_origin(osc_run_r4):
    assert osc_run_r4.profile.value_at_origin() == 0.0


def test_profile_close_to_ground_truth(osc_run_r8):
    phi_k = restrict(osc_run_r8.profile, 2.0)
    exact = sample(manufactured(2.0, 1).phi, phi_k.grid)
    assert float(np.max(np.abs(phi_k.values - exact.values))) < 0.05


def test_ladder_monotone_within_tolerance(oscillator, osc_run_r4, osc_run_r8):
    assert osc_run_r4.constant >= osc_run_r8.constant - 1e-2


def test_constant_floor(oscillator, osc_run_r4):
    # constants never drop below the source minimum
    assert osc_run_r4.constant >= 0.0 - 1e-2


def test_source_shift_moves_constant_affinely(oscillator):
    shifted = ProblemSpec(
        m=2.0, source=SourceSpec("shifted_power", alpha=2.0, shift=3.0), dim=1
    )
    base = solve_state_constraint(oscillator, 4.0, 0.1)
    moved = solve_state_constraint(shifted, 4.0, 0.1)
    assert moved.constant - base.constant == pytest.approx(3.0, abs=1e-6)
    # profiles agree: the shift is absorbed entirely by the constant
    assert float(
        np.max(np.abs(moved.profile.values - base.profile.values))
    ) < 1e-6


def test_periodic_constant_near_state_constant(oscillator, osc_run_r8):
    per = solve_periodic(oscillator, 16.0, 0.05)
    assert per.converged
    assert per.half_width == pytest.approx(4.0)
    assert abs(per.constant - osc_run_r8.constant) < 5e-3


def test_periodic_flat_source_gives_flat_profile():
    # f constant on the torus: u grows as c*t with a flat profile, so the
    # constant is c and the profile is zero (plumbing sanity for the slope
    # readout; a genuinely flat cell source cannot come out of the cutoff
    # construction, which always spans into the region where f < cutoff)
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("torus", 2.0, 0.25, 1)
    c = 5.0
    flat = GridFunction(g, np.full(g.shape, c))
    st = evolve(p, g, 3.0, source=flat, slope_window=1.0)
    slopes = [s.slope for s in st.trace.samples if not math.isnan(s.slope)]
    assert slopes[-1] == pytest.approx(c, abs=1e-12)
    profile = st.u.values - c * st.t
    assert float(np.ptp(profile)) < 1e-12


def test_estimate_brackets_and_value(oscillator, osc_run_r4, osc_run_r8):
    per = solve_periodic(oscillator, 16.0, 0.05)
    r16 = solve_state_constraint(oscillator, 16.0, 0.05)
    est = estimate_lambda_star([osc_run_r4, osc_run_r8, r16], [per])
    assert est.lower_bracket <= est.value <= est.upper_bracket
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert len(est.sources) == 4


def test_estimate_single_run_flags_unbounded_gap(osc_run_r4):
    est = estimate_lambda_star([osc_run_r4])
    assert est.value == osc_run_r4.constant
    assert math.isinf(est.gap)


def test_estimate_needs_a_state_run():
    with pytest.raises(ConfigError):
        estimate_lambda_star([])


def test_estimate_rejects_crossed_brackets(osc_run_r4):
    fake = ErgodicApprox(
        kind="periodic",
        half_width=4.0,
        constant=osc_run_r4.constant + 0.5,
        profile=osc_run_r4.profile,
        residual_norm=0.0,
        converged=True,
        cutoff=16.0,
    )
    with pytest.raises(BracketInconsistencyError):
        estimate_lambda_star([osc_run_r4], [fake])


def test_scaling_check_measured_mu(oscillator, osc_run_r4):
    f = sample(oscillator.source, osc_run_r4.profile.grid)
    rep = scaling_check_super(osc_run_r4, 1.0, f, 2.0)
    # lambda_R above the continuum constant: mu slightly above one
    assert rep.mu >= 1.0
    assert rep.passed, (rep.residual, rep.threshold)


def test_scaling_check_artificial_mu_two(oscillator, osc_run_r4):
    f = sample(oscillator.source, osc_run_r4.profile.grid)
    inflated = ErgodicApprox(
        kind="state_constraint",
        half_width=osc_run_r4.half_width,
        constant=1.0 + 1.0,  # makes mu = 2 against lambda* = 1
        profile=osc_run_r4.profile,
        residual_norm=osc_run_r4.residual_norm,
        converged=True,
    )
    from ergodic_hj import residual_scaled_super

    res = residual_scaled_super(2.0, osc_run_r4.constant, osc_run_r4.profile, f, 2.0)
    # the surplus (mu^m - mu)|D phi|^m only helps: still bounded below
    assert res >= -(10.0 * osc_run_r4.profile.grid.spacing**2 + 2e-3)


def test_scaling_check_rejects_inconsistent_bracket(oscillator, osc_run_r4):
    f = sample(oscillator.source, osc_run_r4.profile.grid)
    with pytest.raises(BracketInconsistencyError):
        scaling_check_super(osc_run_r4, osc_run_r4.constant + 0.5, f, 2.0)


def test_argmax_degenerate_tie_prefers_origin(oscillator, osc_run_r4):
    f = sample(oscillator.source, osc_run_r4.profile.grid)
    # candidate = profile itself with mu forced to 1: all nodes tie at zero
    rep = argmax_confinement(
        osc_run_r4.profile, osc_run_r4, osc_run_r4.constant, 2.8, f
    )
    assert rep.node == osc_run_r4.profile.grid.origin_index
    assert rep.f_at_argmax == pytest.approx(0.0)
    assert rep.passed


def test_argmax_shifted_exact_profile_confined(oscillator, osc_run_r4):
    f = sample(oscillator.source, osc_run_r4.profile.grid)
    exact = sample(manufactured(2.0, 1).phi, osc_run_r4.profile.grid)
    candidate = GridFunction(exact.grid, exact.values + 5.0)
    rep = argmax_confinement(candidate, osc_run_r4, 1.0, 2.8, f)
    assert not rep.on_boundary
    assert max(abs(c) for c in rep.point) <= 2.0
    assert rep.f_at_argmax <= 1.0 + 2.8 + 0.05


def test_argmax_outward_ramp_flagged(oscillator, osc_run_r4):
    # candidates violating subsolution growth fail the certificate: a mild
    # ramp crests inside but past the f-bound, a steep one walks to the wall
    g = osc_run_r4.profile.grid
    f = sample(oscillator.source, g)
    mild = GridFunction(g, sample(lambda x: 3.0 * np.abs(x), g).values)
    rep = argmax_confinement(mild, osc_run_r4, 1.0, 2.8, f)
    assert not rep.passed
    assert rep.f_at_argmax > rep.bound
    steep = GridFunction(g, sample(lambda x: 6.0 * np.abs(x), g).values)
    rep2 = argmax_confinement(steep, osc_run_r4, 1.0, 2.8, f)
    assert rep2.on_boundary
    assert not rep2.passed


def test_nonconverged_run_reports_history(oscillator, monkeypatch):
    monkeypatch.setattr(ergodic, "NEWTON_MAX_ITER", 1)
    run = solve_state_constraint(oscillator, 4.0, 0.1)
    assert not run.converged
    assert run.stop_info["reason"] == "iteration cap reached"
    assert run.stop_info["iterations"] == 1
    history = run.stop_info["residual_history"]
    assert len(history) == 2
    assert history[1] < history[0]
    assert history[1] > run.stop_info["tolerance"]


def test_singular_jacobian_reports_reason(oscillator, monkeypatch):
    # rank one: singular, as the pinned Jacobian is when a row of J is zero
    def rank_one(q2, *args):
        return sp.csc_matrix(np.ones((q2.size, q2.size)))

    monkeypatch.setattr(ergodic, "_jacobian", rank_one)
    run = solve_state_constraint(oscillator, 4.0, 0.1)
    assert not run.converged
    assert run.stop_info["reason"] == "singular Jacobian"
    assert run.stop_info["iterations"] == 0
    assert len(run.stop_info["residual_history"]) == 1


def _assert_explicit_run_stationary(problem, run, source, T=1.0):
    # the pair is the explicit scheme's fixed point: stepping from phi only
    # adds lambda * t
    st = evolve(problem, run.profile.grid, T, initial=run.profile, source=source)
    drift = st.u.values - run.profile.values - run.constant * st.t
    assert st.t == pytest.approx(T)
    assert float(np.max(np.abs(drift))) <= 1e-8


@pytest.mark.parametrize("m", [2.0, 1.5])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["box", "torus"])
def test_newton_pair_is_explicit_fixed_point(kind, dim, m):
    p = ProblemSpec(m=m, source=SourceSpec("power", alpha=m), dim=dim)
    h = 0.1 if dim == 1 else 0.25
    if kind == "box":
        run = solve_state_constraint(p, 3.0, h)
        source = sample(p.source, run.profile.grid)
    else:
        run = solve_periodic(p, 9.0, h)
        full = sample(p.source, run.profile.grid)
        source = GridFunction(full.grid, np.minimum(full.values, 9.0))
    assert run.converged, run.stop_info
    _assert_explicit_run_stationary(p, run, source)


def test_fast_growing_source_converges():
    # f = |x|^4 drives the wall slope to 16: time-marching from zero data
    # overruns its first CFL step (BlowUpError near t = 0.107), while the
    # direct solve takes no time steps
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=4.0), dim=1)
    run = solve_state_constraint(p, 4.0, 0.05)
    assert run.converged, run.stop_info
    assert run.constant == pytest.approx(1.117316366, abs=1e-8)
    _assert_explicit_run_stationary(p, run, sample(p.source, run.profile.grid))


def _newton_state(kind, dim, m):
    # a state with both members of the upwind pairs active somewhere and a
    # nonzero value at the origin, so the pin moves the step
    g = make_grid(kind, 2.0, 0.25 if dim == 1 else 0.5, dim)
    x = g.meshed_coords()
    phi = np.sqrt(sum(c * c for c in x)) + 0.3 * np.cos(2.0 * x[0]) + 0.2
    f = sample(SourceSpec("power", alpha=m), g).values
    terms = ergodic._stationary_terms(phi, 0.4, f, m, g.spacing, g.periodic)
    origin = int(np.ravel_multi_index(g.origin_index, g.shape))
    return g, phi, terms, origin


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["box", "torus"])
def test_jacobian_is_n_by_n_with_the_stencil_sparsity(kind, dim):
    g, phi, (res, q2, axes), origin = _newton_state(kind, dim, 2.0)
    k = ergodic._jacobian(q2, axes, 2.0, g.spacing, origin)
    n = phi.size
    assert k.shape == (n, n)
    assert k.nnz <= (2 * dim + 1) * n
    # J 1 = 0 off the pin
    row_sums = np.asarray(k.sum(axis=1)).ravel()
    row_sums[origin] -= 1.0
    assert np.max(np.abs(row_sums)) <= 1e-12 * abs(k).max()


@pytest.mark.parametrize("m", [2.0, 1.5])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["box", "torus"])
def test_pinned_newton_step_matches_bordered_solve(kind, dim, m):
    # the bordered system [[J, 1], [e_o^T, 0]] (dphi, dlam) = (-res, -phi_o)
    g, phi, (res, q2, axes), origin = _newton_state(kind, dim, m)
    n = phi.size
    k = ergodic._jacobian(q2, axes, m, g.spacing, origin)
    j = k - sp.csc_matrix(([1.0], ([origin], [origin])), shape=(n, n))
    pin = sp.csc_matrix(([1.0], ([0], [origin])), shape=(1, n))
    bordered = sp.bmat([[j, np.ones((n, 1))], [pin, None]], format="csc")
    rhs = -np.append(res.ravel(), phi.flat[origin])
    ref = spla.spsolve(bordered, rhs)
    dphi, dlam = ergodic._newton_step(phi, res, q2, axes, m, g.spacing, origin)
    assert dphi.shape == phi.shape
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(dphi.ravel() - ref[:-1])) <= 1e-12 * scale
    assert abs(dlam - ref[-1]) <= 1e-12 * scale


def test_2d_benchmark_constants_unchanged():
    # the one box rung and one torus rung of the 2D benchmark config
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=2)
    box = solve_state_constraint(p, 4.0, 0.16)
    torus = solve_periodic(p, 16.0, 0.16)
    assert box.converged and torus.converged
    assert box.constant == pytest.approx(2.18022637396381, rel=1e-12)
    assert torus.constant == pytest.approx(2.1801070590401044, rel=1e-12)
