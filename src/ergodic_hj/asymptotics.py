"""Large-time behavior: u(.,t) - lambda*t converges to the profile plus a
constant, and explicit parabolic barriers certify the convergence.

The additive constant is estimated as the window mean of the discrepancy
between the shifted evolution and the profile; a flatness certificate
(max - min over the window) guards against the mean masking divergence.
``_window_stats`` is the one place these window statistics are computed.

The evolution runs on the grid of one state-constraint pair (lambda*, phi)
and subtracts that pair, so u - lambda* t - phi tends to a single constant;
the ``LargeTimeReport`` carries the pair.  The barrier checks rebuild, on
the grid, the super- and subsolution bounds used to squeeze the shifted
evolution: a scaled state-constraint profile drifting upward, and a scaled
periodic profile drifting downward.  A verdict is a function of the report
it certifies, which supplies lambda*, phi and c_hat.  Both sides run one
body with a sign s = +1 (upper) or -1 (lower), which verifies the defining
inequality of the barrier (the scheme's upwind residual,
``kernels.Plan.residual``), its initial-time domination from a reference
time the body picks on that check's window, and domination at every later
snapshot; each margin is min s*(barrier - v).  The public checks keep only
what differs between the sides: the run kind and scale clamp, the source,
the initial window and the offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ergodic import ErgodicApprox
from .errors import ConfigError
from .grid import (
    GridFunction,
    grids_aligned,
    grids_equal,
    interior_values,
    restrict,
    sample,
)
from .kernels import Plan
from .parabolic import DiagnosticsTrace, evolve
from .problem import ProblemSpec
from .scheme import RESIDUAL_SLACK, SchemeConfig

#: time between snapshots, a multiple of ``parabolic.SAMPLE_INTERVAL`` so
#: every snapshot is also a sample with a history row
SNAPSHOT_INTERVAL = 1.0
#: barrier domination margins pass at >= -DOMINATION_TOL
DOMINATION_TOL = 1e-2
#: the lower barrier's gamma = 1 + nu_R - lambda* may exceed 1 by this much
GAMMA_TOL = 1e-2


@dataclass
class LargeTimeHistoryRow:
    t: float
    sup_error: float  # sup_K |v(.,t) - phi - c(t)|
    slope_error: float  # |mean_K u(.,t)/t - lambda*|
    c_of_t: float
    flatness: float


@dataclass
class LargeTimeReport:
    lambda_star_used: float
    profile: GridFunction  # phi of the pair subtracted, on the evolved grid
    c_hat: float
    window_half_width: float
    history: list
    converged: bool
    final_sup_error: float
    final_flatness: float
    snapshots: list = field(default_factory=list)  # (t, GridFunction of v)
    trace: DiagnosticsTrace | None = None  # the evolution's per-sample records
    # once the flow sat on the grid's fixed point: t1, delta and delta (T - t1)
    # (``parabolic.evolve``); None when it stepped all the way to T
    fast_forward_from: float | None = None
    fast_forward_residual: float | None = None
    fast_forward_bound: float | None = None


def estimate_c_hat(v_t: GridFunction, phi: GridFunction):
    """Window mean of v - phi, with the max-min flatness certificate.

    Both fields must already live on the comparison window.
    """
    if not grids_equal(v_t.grid, phi.grid):
        raise ConfigError("fields must share the comparison window")
    c, _, flat = _window_stats(v_t.values, phi.values)
    return c, flat


def _window_stats(v, phi):
    """Mean c of v - phi, sup |v - phi - c| and the flatness max - min."""
    diff = v - phi
    c = float(np.mean(diff))
    return c, float(np.max(np.abs(diff - c))), float(np.max(diff) - np.min(diff))


def run_large_time(
    problem: ProblemSpec,
    run: ErgodicApprox,
    T: float,
    scheme: SchemeConfig | None = None,
    *,
    window_half_width: float = 2.0,
    tol: float = 0.05,
    initial: GridFunction | None = None,
    blow_up_cap: float = 1e3,
) -> LargeTimeReport:
    """Evolve on the run's box and track sup_K |u - lambda*t - phi - c(t)|.

    (lambda*, phi) is the state-constraint pair ``run``, whose grid is the
    one evolved.  The box must dominate the window (half-width >= 4x) so
    truncation effects stay clear of the report region over the horizon.
    The profile is renormalized to have zero minimum on the window.
    Convergence requires the final error below tol and no growth across the
    last quarter of samples.  The evolution gets lambda* as its stationary
    constant, so it fast-forwards once it sits on the grid's fixed point;
    the report carries t1, delta and the bound delta (T - t1) on how far
    any later state lies from the stepped one (``parabolic.evolve``).
    """
    if T <= 0:
        raise ConfigError("horizon T must be positive (empty history otherwise)")
    if run.kind != "state_constraint":
        raise ConfigError("the large-time evolution needs a state-constraint run")
    lambda_star, phi = run.constant, run.profile
    grid = phi.grid
    if grid.half_width < 4.0 * window_half_width:
        raise ConfigError(
            "evolution box must be at least 4x the report window "
            f"({grid.half_width} < 4*{window_half_width})"
        )
    scheme = scheme or SchemeConfig()
    phi_k = restrict(phi, window_half_width)
    phi_k = GridFunction(phi_k.grid, phi_k.values - float(np.min(phi_k.values)))

    snap_times = [
        round(k * SNAPSHOT_INTERVAL, 12)
        for k in range(1, int(math.floor(T / SNAPSHOT_INTERVAL + 1e-9)) + 1)
    ]
    state = evolve(
        problem,
        grid,
        T,
        scheme,
        initial=initial,
        window_half_width=window_half_width,
        snapshot_times=snap_times,
        blow_up_cap=blow_up_cap,
        stationary_constant=lambda_star,
    )
    rows = []
    for t, uk in state.trace.window_snapshots:
        if t <= 0:
            continue
        slope_err = abs(float(np.mean(uk)) / t - lambda_star)
        c_t, sup_err, flat = _window_stats(uk - lambda_star * t, phi_k.values)
        rows.append(LargeTimeHistoryRow(t, sup_err, slope_err, c_t, flat))
    if not rows:
        raise ConfigError("no samples recorded; horizon shorter than the interval")
    final = rows[-1]
    tail = rows[-max(len(rows) // 4, 2) :]
    non_increasing = final.sup_error <= min(r.sup_error for r in tail) + 1e-3
    converged = final.sup_error <= tol and non_increasing
    t1, delta = state.fast_forward_from, state.fast_forward_residual
    v_snapshots = [
        (t, GridFunction(g.grid, g.values - lambda_star * t))
        for t, g in state.snapshots
    ]
    return LargeTimeReport(
        lambda_star_used=lambda_star,
        profile=phi,
        c_hat=final.c_of_t,
        window_half_width=window_half_width,
        history=rows,
        converged=converged,
        final_sup_error=final.sup_error,
        final_flatness=final.flatness,
        snapshots=v_snapshots,
        trace=state.trace,
        fast_forward_from=t1,
        fast_forward_residual=delta,
        fast_forward_bound=None if t1 is None else delta * (T - t1),
    )


@dataclass
class BarrierVerdict:
    side: str  # "upper" or "lower"
    epsilon: float
    t_ref: float
    mu_or_gamma: float
    offset_min: float  # m_R (upper) or the min of phi - scaled psi (lower)
    residual_extreme: float  # min (upper) / max (lower) of the barrier residual
    residual_bound: float
    residual_ok: bool
    initial_domination_margin: float
    initial_ok: bool
    later_domination_margin: float
    later_ok: bool
    passed: bool


def barrier_check_upper(
    phi_r_run: ErgodicApprox,
    epsilon: float,
    report: LargeTimeReport,
    problem: ProblemSpec,
    *,
    resolution_constant: float = 10.0,
) -> BarrierVerdict:
    """Supersolution barrier: scaled profile + drift dominates the shifted flow.

    Checks (a) the discrete supersolution residual of the barrier against
    f - lambda* on the box interior, (b) domination of v(., t_ref) at barrier
    time zero on the whole box, (c) domination on the window at every later
    snapshot.  The offset min(mu*phi_R - phi) is reported; it must tend to
    zero along the box ladder.
    """
    _check_inputs("upper", phi_r_run, "state_constraint", epsilon, report)
    prof = phi_r_run.profile
    return _barrier_verdict(
        "upper", phi_r_run, epsilon, report, problem.m, resolution_constant,
        scale=max(1.0 + phi_r_run.constant - report.lambda_star_used, 1.0),
        source=sample(problem.source, prof.grid).values,
        init_w=min(prof.grid.half_width, report.profile.grid.half_width),
        offset=lambda m_r: max(-m_r, 0.0),
    )


def barrier_check_lower(
    psi_run: ErgodicApprox,
    epsilon: float,
    report: LargeTimeReport,
    problem: ProblemSpec,
    *,
    resolution_constant: float = 10.0,
) -> BarrierVerdict:
    """Subsolution barrier from the periodic profile, mirroring the upper one.

    The residual is taken on the torus against the capped source min(f, cutoff),
    whose cap slack keeps it a subsolution against the true source as well;
    domination at t_ref on the largest node-aligned window inside the cell.
    gamma = 1 + nu_R - lambda* must not exceed 1 beyond tolerance (the
    periodic constant sitting above the ergodic constant signals inconsistent
    brackets); small overshoots clamp to 1.
    """
    _check_inputs("lower", psi_run, "periodic", epsilon, report)
    lambda_star = report.lambda_star_used
    gamma = 1.0 + psi_run.constant - lambda_star
    if gamma > 1.0 + GAMMA_TOL:
        raise ConfigError(
            f"periodic constant {psi_run.constant:.6g} exceeds the ergodic "
            f"constant {lambda_star:.6g} beyond tolerance; brackets inconsistent"
        )
    psi = psi_run.profile
    h = psi.grid.spacing
    cell_w = min(psi.grid.half_width - h, report.profile.grid.half_width)
    return _barrier_verdict(
        "lower", psi_run, epsilon, report, problem.m, resolution_constant,
        scale=min(gamma, 1.0),
        source=np.minimum(sample(problem.source, psi.grid).values, psi_run.cutoff),
        init_w=int(round(cell_w / h)) * h,
        offset=lambda tilde_m: tilde_m,
    )


def _check_inputs(side, run, kind, epsilon, report):
    """Validate the inputs both barrier checks share."""
    if epsilon <= 0:
        raise ConfigError("barrier margin epsilon must be positive")
    if run.kind != kind:
        raise ConfigError(f"{side} barrier needs a {kind.replace('_', '-')} run")
    if not grids_aligned(run.profile.grid, report.profile.grid):
        raise ConfigError("profile grids must share a spacing")


def _barrier_verdict(
    side, run, epsilon, report, m, resolution_constant,
    *, scale, source, init_w, offset,
) -> BarrierVerdict:
    """Checks (a)-(c) for either side, with s = +1 (upper) or -1 (lower).

    The barrier is scale*profile + c_hat + s*eps + offset + drift*(t - t_ref),
    drift = scale*constant - lambda*, with lambda*, phi and c_hat read from
    the report.  ``restrict`` puts the profile on a box window (wrapping on a
    torus), and (b) uses the window of half-width ``init_w``; t_ref is the
    first snapshot at which v - phi is flat to below eps/2 on that window.
    ``offset`` maps the gap min s*(scale*profile - phi) on that window to
    the lift.
    Every margin is min s*(barrier - v), so it is nonnegative when the
    barrier lies on its side of v.  Products are taken before the difference
    (s*a - s*b) so that an exact tie yields +0.0 on both sides.
    """
    s = 1.0 if side == "upper" else -1.0
    lambda_star, phi, c_hat = report.lambda_star_used, report.profile, report.c_hat
    phi_0 = restrict(phi, init_w).values
    for k, (t_ref, v_ref) in enumerate(report.snapshots):
        if _window_stats(restrict(v_ref, init_w).values, phi_0)[2] < 0.5 * epsilon:
            break
    else:
        raise ConfigError(
            f"no snapshot reached flatness below {0.5 * epsilon}; extend the horizon"
        )
    prof = run.profile
    drift = scale * run.constant - lambda_star
    scaled = GridFunction(prof.grid, scale * prof.values)

    # (a) the barrier residual against source - lambda* on the run's grid
    # (box interior).  Upwind stencil: the profile is the fixed point of the
    # monotone scheme, so this is the inequality the discrete comparison
    # argument actually uses (and where a capped source has a kink, central
    # differences would lose an order)
    g = prof.grid
    h = g.spacing
    inv_h = 1.0 / h
    res, _ = Plan(g.shape, g.periodic).residual(
        scaled.values, drift, source - lambda_star, m, inv_h, inv_h * inv_h
    )
    res_extreme = s * float(np.min(s * interior_values(g, res)))
    threshold = resolution_constant * h * h + RESIDUAL_SLACK
    residual_ok = s * res_extreme >= -threshold

    def margin(barrier, v, w):
        return float(np.min(s * barrier - s * restrict(v, w).values))

    # (b) at barrier time zero the barrier lies on its side of v(., t_ref)
    scaled_0 = restrict(scaled, init_w).values
    gap = margin(scaled_0, phi, init_w)
    lift = offset(gap)
    barrier_0 = scaled_0 + c_hat + s * epsilon + lift
    init_margin = margin(barrier_0, v_ref, init_w)
    initial_ok = init_margin >= -DOMINATION_TOL

    # (c) the drifting barrier stays there on the window at every later snapshot
    w = report.window_half_width
    barrier_w = restrict(scaled, w).values + c_hat + s * epsilon + lift
    later_margin = math.inf
    for t, v_snap in report.snapshots[k + 1 :]:
        barrier_t = barrier_w + drift * (t - t_ref)
        later_margin = min(later_margin, margin(barrier_t, v_snap, w))
    later_ok = later_margin >= -DOMINATION_TOL
    return BarrierVerdict(
        side=side,
        epsilon=epsilon,
        t_ref=t_ref,
        mu_or_gamma=scale,
        offset_min=gap,
        residual_extreme=res_extreme,
        residual_bound=-s * threshold,
        residual_ok=residual_ok,
        initial_domination_margin=init_margin,
        initial_ok=initial_ok,
        later_domination_margin=later_margin,
        later_ok=later_ok,
        passed=residual_ok and initial_ok and later_ok,
    )

