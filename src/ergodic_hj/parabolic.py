"""Explicit monotone time stepping for u_t - lap(u) + |Du|^m = f.

Boundary handling is either state-constraint (box: one-sided differences
only, which enforces the supersolution inequality at the wall without ghost
values) or periodic (torus).  The time loop is sequential; each step is a
parallel map over nodes done inside the kernels.

Given the stationary constant of the evolved grid, the run stops stepping
once it sits on the scheme's fixed point and writes the rest of the flow as
u(t1) + lambda_h (t - t1), within a comparison bound (``evolve``).

Diagnostics follow the run: the time slope of the window mean (whose limit is
the ergodic constant), the largest one-sided gradient, and a 1/2-Hoelder
quotient in time.  The gradient bound and the Hoelder quotient are the two
regularity quantities that are supposed to stay bounded, so they are recorded
rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import BlowUpError, ConfigError
from .grid import Grid, GridFunction, grids_equal, restrict, sample, window_slices
from .problem import ProblemSpec
from .scheme import SchemeConfig, cfl_timestep

#: steps between two measurements of the gradient that sizes the CFL step
REFRESH_STEPS = 100
#: Hoelder quotients in the trace compare samples at most this far apart
HOLDER_MAX_GAP = 1.0
#: the run fast-forwards once delta (T - t1) is below this (see ``evolve``)
FAST_FORWARD_BUDGET = 1e-9
#: default time between two trace samples
SAMPLE_INTERVAL = 0.25
#: the trace's slope compares window means this far apart in time
SLOPE_WINDOW = 1.0


@dataclass
class TraceSample:
    t: float
    slope: float  # nan until one slope window has elapsed
    max_grad: float
    holder_q: float  # nan until two samples exist
    dt: float | None  # the CFL step in force at the sample; None once fast-forwarded


@dataclass
class DiagnosticsTrace:
    """Per-sample records plus the retained window values at every sample
    (and t = 0), from which slopes, Hoelder quotients and large-time
    history rows are computed."""

    window_half_width: float
    samples: list = field(default_factory=list)
    window_snapshots: list = field(default_factory=list)  # (t, values on K)

    def append(self, sample: TraceSample):
        if self.samples and sample.t <= self.samples[-1].t:
            raise ConfigError("sample times must be strictly increasing")
        self.samples.append(sample)


@dataclass
class EvolutionState:
    t: float
    u: GridFunction
    trace: DiagnosticsTrace
    snapshots: list = field(default_factory=list)  # (t, GridFunction of u)
    fast_forward_from: float | None = None  # t1, when the run fast-forwarded
    fast_forward_residual: float | None = None  # delta = sup |residual| at t1


def monotone_ratio(dt, q2_max, m, h, dim):
    """dt (2N/h^2 + m sqrt(2N) q2^((m-1)/2) / h) for a state of max q2 ``q2_max``.

    The step's coefficient on a node's own value is 1 - dt (2N/h^2 + dH/du),
    and dH/du = m q2^(m/2-1) sum(a + b)/h is at most m sqrt(2N) q2^((m-1)/2)/h;
    its neighbour coefficients are nonnegative.  So a ratio of at most 1 is
    sufficient for the step of size dt to be monotone at that state.
    """
    grad = math.sqrt(2.0 * dim) * q2_max ** (0.5 * (m - 1.0))
    return dt * (2.0 * dim / (h * h) + m * grad / h)


def default_window_half_width(grid: Grid) -> float:
    """Compact reporting window: min(2, half_width/4), node-aligned."""
    w = min(2.0, grid.half_width / 4.0)
    h = grid.spacing
    k = max(int(round(w / h)), 1)
    return k * h


def _holder_against_recent(values_k, t, snapshots, max_gap):
    best = float("nan")
    for ts, vs in snapshots:
        gap = t - ts
        if gap <= 0 or gap > max_gap + 1e-12:
            continue
        q = float(np.max(np.abs(values_k - vs))) / math.sqrt(gap)
        if math.isnan(best) or q > best:
            best = q
    return best


def evolve(
    problem: ProblemSpec,
    grid: Grid,
    T: float,
    config: SchemeConfig | None = None,
    *,
    initial: GridFunction | None = None,
    source: GridFunction | None = None,
    sample_interval: float = SAMPLE_INTERVAL,
    window_half_width: float | None = None,
    blow_up_cap: float = 1e3,
    snapshot_times=(),
    stationary_constant: float | None = None,
) -> EvolutionState:
    """March from t = 0 to time T with adaptive CFL steps, populating the trace.

    Each trace sample records the CFL step in force; the steps shortened to
    land on sample and snapshot times are not recorded.  At each of
    ``snapshot_times`` a full-domain copy of u goes to ``snapshots``.

    With ``stationary_constant`` (lambda_h of this grid), each snapshot
    t1 < T takes delta = sup |lambda_h - lap_h u + H_h(u) - f| over the
    grid.  Once delta (T - t1) < ``FAST_FORWARD_BUDGET`` and the CFL step
    in force is monotone at u(t1) (``monotone_ratio`` <= 1), no further step
    is taken: every later sample and snapshot, and the result, are
    v(t) = u(t1) + lambda_h (t - t1), and their trace ``dt`` is None.  The
    step commutes with constants and is monotone, and it maps v to
    v + dt (lambda_h - R) with |R| <= delta, so |u(t) - v(t)| <= delta
    (t - t1) (Crandall & Lions, Math. Comp. 43, 1984).  t1 and delta go to
    the state's ``fast_forward_from`` and ``fast_forward_residual``.
    """
    if T < 0:
        raise ConfigError("T must be nonnegative")
    config = config or SchemeConfig()
    if source is None:
        source = sample(problem.source, grid)
    u0 = initial if initial is not None else sample(problem.initial, grid)
    if not grids_equal(u0.grid, grid):
        raise ConfigError("initial data grid does not match the run grid")
    w = window_half_width or default_window_half_width(grid)
    trace = DiagnosticsTrace(window_half_width=w)
    ks = window_slices(grid, w)
    m = problem.m
    u = u0.values.copy()
    fvals = source.values
    t = 0.0
    out = np.empty_like(u)
    trace.window_snapshots.append((t, u[ks].copy()))

    h, periodic = grid.spacing, grid.periodic
    inv_h = 1.0 / h
    grad = kernels.max_onesided_gradient(u, inv_h, periodic)
    dt_cfl = cfl_timestep(grid, config, m, grad)

    snapshots = []
    snap_iter = iter(sorted(snapshot_times))
    next_snap = next(snap_iter, None)
    while next_snap is not None and next_snap <= t + 1e-12:
        snapshots.append((t, GridFunction(grid, u.copy())))
        next_snap = next(snap_iter, None)

    eps = 1e-12
    next_sample = sample_interval
    target = _next_target(next_sample, next_snap, T)
    countdown = REFRESH_STEPS  # steps left until the CFL step is refreshed
    t1 = delta = u1 = None  # the fast-forward's start, residual and u(t1)
    # a blow-up overflows to inf and nan; the finiteness checks report it in
    # one BlowUpError, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        while t < T - eps:
            if u1 is not None:
                t = target
                np.add(u1, stationary_constant * (t - t1), out=u)
            else:
                dt = min(dt_cfl, target - t)
                kernels.vhj_step(u, fvals, dt, h, m, periodic, out)
                u, out = out, u
                t += dt
                countdown -= 1
                if not countdown:
                    countdown = REFRESH_STEPS
                    grad = kernels.max_onesided_gradient(u, inv_h, periodic)
                    if not math.isfinite(grad) and not np.all(np.isfinite(u)):
                        _raise_nonfinite(u, t, grid)
                    if not math.isfinite(grad) or grad > blow_up_cap:
                        raise BlowUpError(
                            f"gradient guard fired at t={t:.6g}: measured {grad:.4g} "
                            f"exceeds the cap {blow_up_cap:.4g}",
                            t=t,
                            max_gradient=grad,
                        )
                    dt_cfl = cfl_timestep(grid, config, m, grad)
            if t < target - eps:
                continue
            snapped = next_snap is not None and t >= next_snap - eps
            if snapped:
                if not np.all(np.isfinite(u)):
                    _raise_nonfinite(u, t, grid)
                snapshots.append((t, GridFunction(grid, u.copy())))
                next_snap = next(snap_iter, None)
            if t >= next_sample - eps:
                if not np.all(np.isfinite(u)):
                    _raise_nonfinite(u, t, grid)
                uk = u[ks].copy()
                mean_k = float(np.mean(uk))
                slope = float("nan")
                for ts, vs in reversed(trace.window_snapshots):
                    if abs((t - ts) - SLOPE_WINDOW) < 1e-9:
                        slope = (mean_k - float(np.mean(vs))) / SLOPE_WINDOW
                        break
                hq = _holder_against_recent(
                    uk, t, trace.window_snapshots, HOLDER_MAX_GAP
                )
                # the window is a sub-box even on a torus: its ends are not
                # neighbours
                gwin = kernels.max_onesided_gradient(uk, inv_h, False)
                trace.append(TraceSample(t, slope, gwin, hq, dt_cfl if u1 is None else None))
                trace.window_snapshots.append((t, uk))
                next_sample += sample_interval
            if snapped and stationary_constant is not None and u1 is None and t < T - eps:
                delta = _fast_forward_residual(
                    u, stationary_constant, fvals, m, h, periodic, dt_cfl, T - t
                )
                if delta is not None:
                    t1, u1 = t, u.copy()
            target = _next_target(next_sample, next_snap, T)

    if not np.all(np.isfinite(u)):
        _raise_nonfinite(u, t, grid)
    return EvolutionState(t, GridFunction(grid, u), trace, snapshots, t1, delta)


def _fast_forward_residual(u, c, f, m, h, periodic, dt, remaining):
    """delta = sup |c - lap_h u + H_h(u) - f| when ``evolve`` may fast-forward
    from u over ``remaining`` time: delta * remaining is below the budget
    and the step dt is monotone at u.  None otherwise.

    The residual runs on the step's shared plan, whose buffers the next step
    reloads anyway.
    """
    inv_h = 1.0 / h
    res, q2 = kernels.plan(u.shape, periodic).residual(u, c, f, m, inv_h, inv_h * inv_h)
    delta = float(np.max(np.abs(res)))
    ratio = monotone_ratio(dt, float(np.max(q2)), m, h, u.ndim)
    if delta * remaining < FAST_FORWARD_BUDGET and ratio <= 1.0:
        return delta
    return None


def _next_target(next_sample, next_snap, T):
    """The time the next step may not pass: a sample, a snapshot or T."""
    target = min(next_sample, T)
    return target if next_snap is None else min(target, next_snap)


def _raise_nonfinite(u, t, grid):
    bad = tuple(int(i) for i in np.argwhere(~np.isfinite(u))[0])
    raise BlowUpError(
        f"non-finite value at node {bad}, t={t:.6g}; CFL violation or blow-up",
        t=t,
        node=bad,
    )


def holder_quotient(
    trace: DiagnosticsTrace, tau: float = 0.1, max_gap: float = 1.0
) -> float:
    """max over retained sample pairs (t, s), both >= tau, of
    sup_K |u(t) - u(s)| / sqrt(|t - s|), with pair gaps capped at max_gap.

    The cap keeps the statistic scale-free: for a profile translating at
    constant speed the quotient grows like sqrt(gap), so uncapped pairs would
    just measure the time horizon.
    """
    snaps = [(t, v) for t, v in trace.window_snapshots if t >= tau - 1e-12]
    if len(snaps) < 2:
        raise ConfigError("need at least two samples past tau for a Hoelder quotient")
    # nan (no earlier partner within max_gap) never beats the leading 0.0
    return max([0.0] + [_holder_against_recent(v, t, snaps, max_gap) for t, v in snaps])


def gradient_monitor(u: GridFunction, inner_half_width: float, source=None, m=None):
    """Largest one-sided difference on the inner window, plus the regularity
    ratio against 1 + sup|f|^(1/m) + sup|Df|^(1/(2m-1)) on the window grown
    by one length unit.

    The enclosing window is fixed relative to the inner one, so across a
    ladder of domains the ratio should show no growth trend.
    """
    g = u.grid
    if inner_half_width >= g.half_width - g.spacing / 2:
        raise ConfigError("inner window must sit strictly inside the grid")
    # both windows are sub-boxes, even on a torus, where the enclosing one
    # may wrap past the cell
    h = g.spacing
    inv_h = 1.0 / h
    vals = restrict(u, inner_half_width).values
    max_grad = kernels.max_onesided_gradient(vals, inv_h, False)
    result = {"max_grad": max_grad}
    if source is not None and m is not None:
        enclosing = int(round((inner_half_width + 1.0) / h)) * h
        if not g.periodic:
            enclosing = min(enclosing, g.half_width)
        fw = restrict(source, enclosing)
        sup_f = float(np.max(np.abs(fw.values)))
        # |Df| via one-sided differences of the sampled source on the window
        sup_df = kernels.max_onesided_gradient(fw.values, inv_h, False)
        bound = 1.0 + sup_f ** (1.0 / m) + sup_df ** (1.0 / (2.0 * m - 1.0))
        result["bound_rhs"] = bound
        result["ratio"] = max_grad / bound
    return result
