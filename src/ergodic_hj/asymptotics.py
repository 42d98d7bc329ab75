"""Large-time behavior: u(.,t) - lambda*t converges to the profile plus a
constant, and explicit parabolic barriers certify the convergence.

The additive constant is estimated as the window mean of the discrepancy
between the shifted evolution and the profile; a flatness certificate
(max - min over the window) guards against the mean masking divergence.

The barrier checks rebuild, on the grid, the super- and subsolution bounds
used to squeeze the shifted evolution: a scaled state-constraint profile
drifting upward, and a scaled periodic profile drifting downward.  Both sides
run one body with a sign s = +1 (upper) or -1 (lower), which verifies the
defining inequality of the barrier (the upwind residual from
``scheme.residual_field``), its initial-time domination, and domination at
every later snapshot; each margin is min s*(barrier - v).  The public checks
keep only what differs between the sides: the run kind and scale clamp, the
window extraction, the source, and the offset.
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
    make_grid,
    restrict,
    sample,
    torus_values_on_window,
)
from .parabolic import DiagnosticsTrace, evolve
from .problem import ProblemSpec
from .scheme import SchemeConfig, residual_field


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
    c_hat: float
    window_half_width: float
    history: list
    converged: bool
    final_sup_error: float
    final_flatness: float
    snapshots: list = field(default_factory=list)  # (t, GridFunction of v)
    verdicts: dict = field(default_factory=dict)
    trace: DiagnosticsTrace | None = None  # the evolution's per-sample records

    def export_csv(self, path, header_lines=()):
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("t,sup_error,slope_error,c_of_t,flatness\n")
            for r in self.history:
                fh.write(
                    f"{r.t!r},{r.sup_error!r},{r.slope_error!r},"
                    f"{r.c_of_t!r},{r.flatness!r}\n"
                )


def estimate_c_hat(v_t: GridFunction, phi: GridFunction, window_half_width=None):
    """Window mean of v - phi, with the max-min flatness certificate.

    Both fields must already live on the comparison window (or share a grid,
    in which case the window restriction is applied here).
    """
    if window_half_width is not None:
        v_t = restrict(v_t, window_half_width)
        phi = restrict(phi, window_half_width)
    if not grids_equal(v_t.grid, phi.grid):
        raise ConfigError("fields must share the comparison window")
    diff = v_t.values - phi.values
    return float(np.mean(diff)), float(np.max(diff) - np.min(diff))


def run_large_time(
    problem: ProblemSpec,
    lambda_star: float,
    phi: GridFunction,
    T: float,
    box_half_width: float,
    spacing: float,
    scheme: SchemeConfig | None = None,
    *,
    window_half_width: float = 2.0,
    tol: float = 0.05,
    sample_interval: float = 0.25,
    snapshot_interval: float = 1.0,
    initial: GridFunction | None = None,
    blow_up_cap: float = 1e3,
) -> LargeTimeReport:
    """Evolve on a large box and track sup_K |u - lambda*t - phi - c(t)|.

    The box must dominate the window (half-width >= 4x) so truncation effects
    stay clear of the report region over the horizon.  The profile is
    renormalized to have zero minimum on the window.  Convergence requires the
    final error below tol and no growth across the last quarter of samples.
    """
    if T <= 0:
        raise ConfigError("horizon T must be positive (empty history otherwise)")
    if box_half_width < 4.0 * window_half_width:
        raise ConfigError(
            "evolution box must be at least 4x the report window "
            f"({box_half_width} < 4*{window_half_width})"
        )
    scheme = scheme or SchemeConfig()
    grid = make_grid("box", box_half_width, spacing, problem.dim)
    if not grids_aligned(grid, phi.grid):
        raise ConfigError("profile grid spacing must match the run grid")
    phi_k = restrict(phi, window_half_width)
    phi_k = GridFunction(phi_k.grid, phi_k.values - float(np.min(phi_k.values)))

    snap_times = [
        round(k * snapshot_interval, 12)
        for k in range(1, int(math.floor(T / snapshot_interval + 1e-9)) + 1)
    ]
    state = evolve(
        problem,
        grid,
        T,
        scheme,
        initial=initial,
        sample_interval=sample_interval,
        window_half_width=window_half_width,
        snapshot_times=snap_times,
        blow_up_cap=blow_up_cap,
    )
    history = []
    for t, mean_k in state.trace.window_means:
        if t <= 0:
            continue
        slope_err = abs(mean_k / t - lambda_star)
        history.append((t, slope_err))
    rows = []
    for (t, uk), (_, slope_err) in zip(
        [(t, v) for t, v in state.trace.window_snapshots if t > 0], history
    ):
        v_k = uk - lambda_star * t
        diff = v_k - phi_k.values
        c_t = float(np.mean(diff))
        sup_err = float(np.max(np.abs(diff - c_t)))
        flat = float(np.max(diff) - np.min(diff))
        rows.append(LargeTimeHistoryRow(t, sup_err, slope_err, c_t, flat))
    if not rows:
        raise ConfigError("no samples recorded; horizon shorter than the interval")
    final = rows[-1]
    tail = rows[-max(len(rows) // 4, 2) :]
    non_increasing = final.sup_error <= min(r.sup_error for r in tail) + 1e-3
    converged = final.sup_error <= tol and non_increasing
    v_snapshots = [
        (t, GridFunction(g.grid, g.values - lambda_star * t))
        for t, g in state.snapshots
    ]
    return LargeTimeReport(
        lambda_star_used=lambda_star,
        c_hat=final.c_of_t,
        window_half_width=window_half_width,
        history=rows,
        converged=converged,
        final_sup_error=final.sup_error,
        final_flatness=final.flatness,
        snapshots=v_snapshots,
        trace=state.trace,
    )


def pick_reference_time(report: LargeTimeReport, epsilon: float):
    """First snapshot time whose flatness certificate is below epsilon/2."""
    flat_by_time = {round(r.t, 9): r.flatness for r in report.history}
    for t, _ in report.snapshots:
        f = flat_by_time.get(round(t, 9))
        if f is not None and f < 0.5 * epsilon:
            return t
    raise ConfigError(
        f"no snapshot reached flatness below {0.5 * epsilon}; extend the horizon"
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
    phi: GridFunction,
    lambda_star: float,
    c_hat: float,
    epsilon: float,
    report: LargeTimeReport,
    problem: ProblemSpec,
    *,
    resolution_constant: float = 10.0,
    slack: float = 2e-3,
    domination_tol: float = 1e-2,
) -> BarrierVerdict:
    """Supersolution barrier: scaled profile + drift dominates the shifted flow.

    Checks (a) the discrete supersolution residual of the barrier against
    f - lambda* on the box interior, (b) domination of v(., t_ref) at barrier
    time zero on the whole box, (c) domination on the window at every later
    snapshot.  The offset min(mu*phi_R - phi) is reported; it must tend to
    zero along the box ladder.
    """
    t_ref = _reference_time(
        "upper", phi_r_run, "state_constraint", phi, epsilon, report
    )
    prof = phi_r_run.profile
    return _barrier_verdict(
        "upper", phi_r_run, phi, lambda_star, c_hat, epsilon, t_ref, report,
        problem.m, resolution_constant, slack, domination_tol,
        scale=max(1.0 + phi_r_run.constant - lambda_star, 1.0),
        source=sample(problem.source, prof.grid).values,
        window=restrict,
        init_w=min(prof.grid.half_width, phi.grid.half_width),
        offset=lambda m_r: max(-m_r, 0.0),
    )


def barrier_check_lower(
    psi_run: ErgodicApprox,
    phi: GridFunction,
    lambda_star: float,
    c_hat: float,
    epsilon: float,
    report: LargeTimeReport,
    problem: ProblemSpec,
    *,
    resolution_constant: float = 10.0,
    slack: float = 2e-3,
    domination_tol: float = 1e-2,
    gamma_tol: float = 1e-2,
) -> BarrierVerdict:
    """Subsolution barrier from the periodic profile, mirroring the upper one.

    The residual is taken on the torus against the capped source min(f, cutoff),
    whose cap slack keeps it a subsolution against the true source as well;
    domination at t_ref on the largest node-aligned window inside the cell.
    gamma = 1 + nu_R - lambda* must not exceed 1 beyond tolerance (the
    periodic constant sitting above the ergodic constant signals inconsistent
    brackets); small overshoots clamp to 1.
    """
    t_ref = _reference_time("lower", psi_run, "periodic", phi, epsilon, report)
    gamma = 1.0 + psi_run.constant - lambda_star
    if gamma > 1.0 + gamma_tol:
        raise ConfigError(
            f"periodic constant {psi_run.constant:.6g} exceeds the ergodic "
            f"constant {lambda_star:.6g} beyond tolerance; brackets inconsistent"
        )
    psi = psi_run.profile
    h = psi.grid.spacing
    cell_w = min(psi.grid.half_width - h, phi.grid.half_width)
    return _barrier_verdict(
        "lower", psi_run, phi, lambda_star, c_hat, epsilon, t_ref, report,
        problem.m, resolution_constant, slack, domination_tol,
        scale=min(gamma, 1.0),
        source=np.minimum(sample(problem.source, psi.grid).values, psi_run.cutoff),
        window=torus_values_on_window,
        init_w=int(round(cell_w / h)) * h,
        offset=lambda tilde_m: tilde_m,
    )


def _reference_time(side, run, kind, phi, epsilon, report):
    """Validate the inputs both barrier checks share, then pick t_ref."""
    if epsilon <= 0:
        raise ConfigError("barrier margin epsilon must be positive")
    if run.kind != kind:
        raise ConfigError(f"{side} barrier needs a {kind.replace('_', '-')} run")
    t_ref = pick_reference_time(report, epsilon)
    if not grids_aligned(run.profile.grid, phi.grid):
        raise ConfigError("profile grids must share a spacing")
    return t_ref


def _barrier_verdict(
    side, run, phi, lambda_star, c_hat, epsilon, t_ref, report,
    m, resolution_constant, slack, domination_tol,
    *, scale, source, window, init_w, offset,
) -> BarrierVerdict:
    """Checks (a)-(c) for either side, with s = +1 (upper) or -1 (lower).

    The barrier is scale*profile + c_hat + s*eps + offset + drift*(t - t_ref),
    drift = scale*constant - lambda*.  ``window(gf, w)`` puts the profile on a
    box window, and (b) uses the window of half-width ``init_w``.  ``offset``
    maps the gap min s*(scale*profile - phi) on that window to the lift.
    Every margin is min s*(barrier - v), so it is nonnegative when the
    barrier lies on its side of v.  Products are taken before the difference
    (s*a - s*b) so that an exact tie yields +0.0 on both sides.
    """
    s = 1.0 if side == "upper" else -1.0
    prof = run.profile
    drift = scale * run.constant - lambda_star
    scaled = GridFunction(prof.grid, scale * prof.values)

    # (a) the barrier residual against source - lambda* on the run's grid.
    # Upwind stencil: the profile is the fixed point of the monotone scheme,
    # so this is the inequality the discrete comparison argument actually
    # uses (and where a capped source has a kink, central differences would
    # lose an order)
    res = residual_field(drift, scaled, source - lambda_star, m, "upwind")
    res_extreme = s * float(np.min(s * res))
    h = prof.grid.spacing
    threshold = resolution_constant * h * h + slack
    residual_ok = s * res_extreme >= -threshold

    def margin(barrier, v, w):
        return float(np.min(s * barrier - s * restrict(v, w).values))

    # (b) at barrier time zero the barrier lies on its side of v(., t_ref)
    scaled_0 = window(scaled, init_w).values
    gap = margin(scaled_0, phi, init_w)
    lift = offset(gap)
    barrier_0 = scaled_0 + c_hat + s * epsilon + lift
    init_margin = margin(barrier_0, _snapshot_at(report, t_ref), init_w)
    initial_ok = init_margin >= -domination_tol

    # (c) the drifting barrier stays there on the window at every later snapshot
    w = report.window_half_width
    barrier_w = window(scaled, w).values + c_hat + s * epsilon + lift
    later_margin = math.inf
    for t, v_snap in report.snapshots:
        if t <= t_ref + 1e-9:
            continue
        barrier_t = barrier_w + drift * (t - t_ref)
        later_margin = min(later_margin, margin(barrier_t, v_snap, w))
    later_ok = later_margin >= -domination_tol
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


def _snapshot_at(report: LargeTimeReport, t):
    for ts, v in report.snapshots:
        if abs(ts - t) < 1e-9:
            return v
    raise ConfigError(f"no snapshot at t={t}")
