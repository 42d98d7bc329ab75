"""Explicit monotone time stepping for u_t - lap(u) + |Du|^m = f.

Boundary handling is either state-constraint (box: one-sided differences
only, which enforces the supersolution inequality at the wall without ghost
values) or periodic (torus).  The time loop is sequential; each step is a
parallel map over nodes done inside the kernels.

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
from .grid import (
    Grid,
    GridFunction,
    grids_equal,
    restrict,
    torus_values_on_window,
    window_slices,
)
from .problem import ProblemSpec
from .scheme import SchemeConfig, cfl_timestep

#: the CFL bound uses L = max(GRAD_HEADROOM * measured gradient, grad_cap)
GRAD_HEADROOM = 1.5
#: Hoelder quotients in the trace compare samples at most this far apart
HOLDER_MAX_GAP = 1.0


@dataclass
class TraceSample:
    t: float
    slope: float  # nan until one slope window has elapsed
    max_grad: float
    holder_q: float  # nan until two samples exist
    dt: float  # the CFL step in force at the sample


@dataclass
class DiagnosticsTrace:
    """Per-sample records plus retained window snapshots for Hoelder quotients."""

    window_half_width: float
    slope_window: float  # time lag used by the slope estimate
    samples: list = field(default_factory=list)
    window_means: list = field(default_factory=list)  # (t, mean over K)
    window_snapshots: list = field(default_factory=list)  # (t, values on K)

    def times(self):
        return np.array([s.t for s in self.samples])

    def slopes(self):
        return np.array([s.slope for s in self.samples])

    def append(self, sample: TraceSample):
        if self.samples and sample.t <= self.samples[-1].t:
            raise ConfigError("sample times must be strictly increasing")
        self.samples.append(sample)

    def export_csv(self, path, header_lines=()):
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("t,slope,max_grad,holder_q,dt\n")
            for s in self.samples:
                slope = "" if math.isnan(s.slope) else repr(s.slope)
                hq = "" if math.isnan(s.holder_q) else repr(s.holder_q)
                fh.write(f"{s.t!r},{slope},{s.max_grad!r},{hq},{s.dt!r}\n")


@dataclass
class EvolutionState:
    t: float
    u: GridFunction
    trace: DiagnosticsTrace


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
    sample_interval: float = 0.25,
    slope_window: float = 1.0,
    window_half_width: float | None = None,
    refresh_every: int = 100,
    blow_up_cap: float = 1e3,
    snapshot_times=(),
) -> EvolutionState:
    """March from t = 0 to time T with adaptive CFL steps, populating the trace.

    Each trace sample records the CFL step in force; the steps shortened to
    land on sample and snapshot times are not recorded.  ``snapshot_times``
    collects full-domain copies of u.
    """
    from .grid import sample as sample_fn

    if T < 0:
        raise ConfigError("T must be nonnegative")
    config = config or SchemeConfig()
    if source is None:
        source = sample_fn(problem.source, grid)
    u0 = initial if initial is not None else sample_fn(problem.initial, grid)
    if not grids_equal(u0.grid, grid):
        raise ConfigError("initial data grid does not match the run grid")
    w = window_half_width or default_window_half_width(grid)
    trace = DiagnosticsTrace(window_half_width=w, slope_window=slope_window)
    ks = window_slices(grid, w)
    m = problem.m
    u = u0.values.copy()
    fvals = source.values
    t = 0.0
    out = np.empty_like(u)
    trace.window_means.append((t, float(np.mean(u[ks]))))
    trace.window_snapshots.append((t, u[ks].copy()))

    h, periodic = grid.spacing, grid.periodic
    inv_h = 1.0 / h
    grad = kernels.max_onesided_gradient(u, inv_h, periodic)
    L = max(GRAD_HEADROOM * grad, config.grad_cap)
    live_cfg = SchemeConfig(config.cfl_safety, L)
    dt_cfl = cfl_timestep(grid, live_cfg, m)

    snapshots = []
    snap_iter = iter(sorted(snapshot_times))
    next_snap = next(snap_iter, None)
    while next_snap is not None and next_snap <= t + 1e-12:
        snapshots.append((t, GridFunction(grid, u.copy())))
        next_snap = next(snap_iter, None)

    steps = 0
    eps = 1e-12
    next_sample = sample_interval
    while t < T - eps:
        target = min(next_sample, T)
        if next_snap is not None:
            target = min(target, next_snap)
        dt = min(dt_cfl, target - t)
        kernels.vhj_step(u, fvals, dt, h, m, periodic, out)
        u, out = out, u
        t += dt
        steps += 1
        if steps % refresh_every == 0:
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
            L = max(GRAD_HEADROOM * grad, config.grad_cap)
            live_cfg = SchemeConfig(config.cfl_safety, L)
            dt_cfl = cfl_timestep(grid, live_cfg, m)
        if next_snap is not None and t >= next_snap - eps:
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
            for ts, ms in reversed(trace.window_means):
                if abs((t - ts) - trace.slope_window) < 1e-9:
                    slope = (mean_k - ms) / trace.slope_window
                    break
            hq = _holder_against_recent(uk, t, trace.window_snapshots, HOLDER_MAX_GAP)
            # the window is a sub-box even on a torus: its ends are not neighbours
            gwin = kernels.max_onesided_gradient(uk, inv_h, False)
            trace.append(TraceSample(t, slope, gwin, hq, dt_cfl))
            trace.window_means.append((t, mean_k))
            trace.window_snapshots.append((t, uk))
            next_sample += sample_interval

    if not np.all(np.isfinite(u)):
        _raise_nonfinite(u, t, grid)
    final = EvolutionState(t, GridFunction(grid, u), trace)
    if snapshot_times:
        final.snapshots = snapshots
    return final


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
    best = 0.0
    for i in range(len(snaps)):
        ti, vi = snaps[i]
        for j in range(i + 1, len(snaps)):
            tj, vj = snaps[j]
            gap = tj - ti
            if gap > max_gap + 1e-12:
                break
            q = float(np.max(np.abs(vj - vi))) / math.sqrt(gap)
            best = max(best, q)
    return best


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
    window = torus_values_on_window if g.periodic else restrict
    h = g.spacing
    inv_h = 1.0 / h
    vals = window(u, inner_half_width).values
    max_grad = kernels.max_onesided_gradient(vals, inv_h, False)
    result = {"max_grad": max_grad}
    if source is not None and m is not None:
        enclosing = int(round((inner_half_width + 1.0) / h)) * h
        if not g.periodic:
            enclosing = min(enclosing, g.half_width)
        fw = window(source, enclosing)
        sup_f = float(np.max(np.abs(fw.values)))
        # |Df| via one-sided differences of the sampled source on the window
        sup_df = kernels.max_onesided_gradient(fw.values, inv_h, False)
        bound = 1.0 + sup_f ** (1.0 / m) + sup_df ** (1.0 / (2.0 * m - 1.0))
        result["bound_rhs"] = bound
        result["ratio"] = max_grad / bound
    return result
