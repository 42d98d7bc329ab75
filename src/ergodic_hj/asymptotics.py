"""Large-time behavior: u(.,t) - lambda*t converges to the profile plus a
constant, and explicit parabolic barriers certify the convergence.

The additive constant is estimated as the window mean of the discrepancy
between the shifted evolution and the profile; a flatness certificate
(max - min over the window) guards against the mean masking divergence.

The barrier checks rebuild, on the grid, the super- and subsolution bounds
used to squeeze the shifted evolution: a scaled state-constraint profile
drifting upward, and a scaled periodic profile drifting downward.  Each check
verifies the defining inequality of the barrier (discrete residual), its
initial-time domination, and domination at every later snapshot.
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
from .scheme import SchemeConfig, laplacian_field, hamiltonian_field


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


def _residual_threshold(spacing, resolution_constant, slack):
    return resolution_constant * spacing * spacing + slack


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
    if epsilon <= 0:
        raise ConfigError("barrier margin epsilon must be positive")
    if phi_r_run.kind != "state_constraint":
        raise ConfigError("upper barrier needs a state-constraint run")
    t_ref = pick_reference_time(report, epsilon)
    prof = phi_r_run.profile
    R = prof.grid.half_width
    if not grids_aligned(prof.grid, phi.grid):
        raise ConfigError("profile grids must share a spacing")
    mu = max(1.0 + phi_r_run.constant - lambda_star, 1.0)

    phi_on_R = restrict(phi, min(R, phi.grid.half_width))
    prof_on_R = restrict(prof, phi_on_R.grid.half_width)
    m_r = float(np.min(mu * prof_on_R.values - phi_on_R.values))
    cap_m_r = max(-m_r, 0.0)

    # (a) supersolution residual of the barrier on the run's own box:
    # drift + [-lap(mu phi_R) + |D(mu phi_R)|^m - (f - lambda*)] >= -O(h^2).
    # Upwind stencil: the profile is the fixed point of the monotone scheme,
    # so this is the inequality the discrete comparison argument actually uses
    drift = mu * phi_r_run.constant - lambda_star
    scaled = GridFunction(prof.grid, mu * prof.values)
    lap = laplacian_field(scaled)
    ham = hamiltonian_field(scaled, problem.m, "upwind")
    f_run = sample(problem.source, prof.grid)
    f_interior = f_run.values[(slice(1, -1),) * prof.grid.dim]
    res_field = drift - lap + ham - (f_interior - lambda_star)
    res_min = float(np.min(res_field))
    res_bound = -_residual_threshold(prof.grid.spacing, resolution_constant, slack)
    residual_ok = res_min >= res_bound

    # (b) barrier at time zero dominates v(., t_ref) on the box
    v_ref = _snapshot_at(report, t_ref)
    v_on_R = restrict(v_ref, prof_on_R.grid.half_width)
    barrier0 = mu * prof_on_R.values + c_hat + epsilon + cap_m_r
    init_margin = float(np.min(barrier0 - v_on_R.values))
    initial_ok = init_margin >= -domination_tol

    # (c) the drifting barrier dominates every later snapshot on the window
    w = report.window_half_width
    prof_k = restrict(prof, w)
    later_margin = math.inf
    for t, v_snap in report.snapshots:
        if t <= t_ref + 1e-9:
            continue
        dt = t - t_ref
        v_k = restrict(v_snap, w)
        barrier_t = mu * prof_k.values + c_hat + epsilon + cap_m_r + drift * dt
        later_margin = min(later_margin, float(np.min(barrier_t - v_k.values)))
    later_ok = later_margin >= -domination_tol
    return BarrierVerdict(
        side="upper",
        epsilon=epsilon,
        t_ref=t_ref,
        mu_or_gamma=mu,
        offset_min=m_r,
        residual_extreme=res_min,
        residual_bound=res_bound,
        residual_ok=residual_ok,
        initial_domination_margin=init_margin,
        initial_ok=initial_ok,
        later_domination_margin=later_margin,
        later_ok=later_ok,
        passed=residual_ok and initial_ok and later_ok,
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

    gamma = 1 + nu_R - lambda* must not exceed 1 beyond tolerance (the
    periodic constant sitting above the ergodic constant signals inconsistent
    brackets); small overshoots clamp to 1.
    """
    if epsilon <= 0:
        raise ConfigError("barrier margin epsilon must be positive")
    if psi_run.kind != "periodic":
        raise ConfigError("lower barrier needs a periodic run")
    t_ref = pick_reference_time(report, epsilon)
    gamma = 1.0 + psi_run.constant - lambda_star
    if gamma > 1.0 + gamma_tol:
        raise ConfigError(
            f"periodic constant {psi_run.constant:.6g} exceeds the ergodic "
            f"constant {lambda_star:.6g} beyond tolerance; brackets inconsistent"
        )
    gamma = min(gamma, 1.0)
    psi = psi_run.profile
    S = psi.grid.half_width
    if not grids_aligned(psi.grid, phi.grid):
        raise ConfigError("profile grids must share a spacing")
    cell_w = min(S - psi.grid.spacing, phi.grid.half_width)
    h = psi.grid.spacing
    cell_w = int(round(cell_w / h)) * h
    psi_cell = torus_values_on_window(psi, cell_w)
    phi_cell = restrict(phi, cell_w)
    tilde_m = float(np.min(phi_cell.values - gamma * psi_cell.values))

    # (a) subsolution residual on the torus against the capped source, with
    # the cap slack keeping it a subsolution against the true source as well.
    # Upwind stencil: the capped source has a kink, so the periodic profile
    # is only C^{2,1} there and central differencing loses an order; the
    # monotone stencil is what the discrete comparison argument uses anyway
    drift = gamma * psi_run.constant - lambda_star
    scaled = GridFunction(psi.grid, gamma * psi.values)
    lap = laplacian_field(scaled)
    ham = hamiltonian_field(scaled, problem.m, "upwind")
    f_cell = sample(problem.source, psi.grid)
    f_capped = np.minimum(f_cell.values, psi_run.cutoff)
    res_field = drift - lap + ham - (f_capped - lambda_star)
    res_max = float(np.max(res_field))
    res_bound = _residual_threshold(psi.grid.spacing, resolution_constant, slack)
    residual_ok = res_max <= res_bound

    # (b) barrier at time zero sits below v(., t_ref) on the cell window
    v_ref = _snapshot_at(report, t_ref)
    v_cell = restrict(v_ref, cell_w)
    barrier0 = gamma * psi_cell.values + c_hat - epsilon + tilde_m
    init_margin = float(np.min(v_cell.values - barrier0))
    initial_ok = init_margin >= -domination_tol

    # (c) stays below on the window at every later snapshot
    w = report.window_half_width
    psi_k = torus_values_on_window(psi, w)
    later_margin = math.inf
    for t, v_snap in report.snapshots:
        if t <= t_ref + 1e-9:
            continue
        dt = t - t_ref
        v_k = restrict(v_snap, w)
        barrier_t = gamma * psi_k.values + c_hat - epsilon + tilde_m + drift * dt
        later_margin = min(later_margin, float(np.min(v_k.values - barrier_t)))
    later_ok = later_margin >= -domination_tol
    return BarrierVerdict(
        side="lower",
        epsilon=epsilon,
        t_ref=t_ref,
        mu_or_gamma=gamma,
        offset_min=tilde_m,
        residual_extreme=res_max,
        residual_bound=res_bound,
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
