"""Ergodic constant and profile solvers.

Two approximation routes converge to the same limit and bracket it in
practice:

* state-constraint runs on boxes of increasing half-width R give constants
  that decrease toward the limit (upper route);
* periodic runs on tori large enough that the capped source min(f, cutoff)
  is only modified where f already exceeds the cutoff give constants that
  approach the limit from the other side (lower route; the monotonicity of
  this family is not guaranteed, so the bracket is labeled heuristic).

Each pair (lambda, phi) is the fixed point of the explicit monotone scheme:
the stationary discrete equations lambda - lap_h phi + H_h(phi) = f with
phi(origin) = 0, solved directly by semismooth Newton (policy iteration; see
Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47 (2009), and Achdou &
Capuzzo-Dolcetta, SIAM J. Numer. Anal. 48 (2010)) with one sparse LU solve
per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import BracketInconsistencyError, ConfigError
from .grid import (
    GridFunction,
    grids_equal,
    make_grid,
    restrict,
    sample,
)
from .kernels import Plan
from .parabolic import default_window_half_width
from .problem import ProblemSpec, torus_half_width
from .scheme import RESIDUAL_SLACK, residual_ergodic, residual_scaled_super

#: semismooth Newton on (phi, lambda): iteration cap, step halvings per line search
NEWTON_MAX_ITER = 50
NEWTON_HALVINGS = 30
#: converged once sup |residual| <= NEWTON_RTOL * max(1, sup |f|)
NEWTON_RTOL = 1e-10
#: a periodic constant may exceed the smallest box constant by this much
BRACKET_TOL = 1e-2
#: mu = 1 + lambda_R - lambda* may fall below 1 by this much before clamping
MU_TOL = 1e-2
#: argmax confinement accepts f(x_R) <= 1 + lambda_1 + ARGMAX_TOL
ARGMAX_TOL = 0.05


@dataclass
class ErgodicApprox:
    kind: str  # "state_constraint" or "periodic"
    half_width: float  # box half-width, or the torus cell half-width
    constant: float
    profile: GridFunction  # normalized: zero at the origin
    residual_norm: float
    converged: bool
    stop_info: dict = field(default_factory=dict)
    cutoff: float | None = None  # periodic runs: the source cap

    def __post_init__(self):
        if abs(self.profile.value_at_origin()) > 1e-12:
            raise ConfigError("profile must vanish at the origin")


@dataclass
class ErgodicConstantEstimate:
    value: float
    upper_bracket: float  # smallest state-constraint constant
    lower_bracket: float  # largest periodic constant (heuristic side)
    gap: float
    sources: list  # (kind, half_width, constant) per contributing run
    lower_is_heuristic: bool = True
    notes: list = field(default_factory=list)


def _stationary_terms(phi, lam, f, m, h, stencil):
    """Residual lam - lap_h phi + H_h(phi) - f of the explicit scheme.

    ``stencil`` is a ``kernels.Plan`` for phi's shape and boundary, and
    ``Plan.residual`` evaluates the explicit step's own stencil arithmetic.
    Also returns q2 and, per axis, the upwind pair (a, b) and the diffusion
    weight, which the Jacobian needs, in fresh arrays.  Tori wrap around; on
    a box a wall node (the plan's ``rings``) keeps, along the wall-normal
    axis, no diffusion and only the inward upwind pair.
    """
    inv_h = 1.0 / h
    pairs = []
    res, q2 = stencil.residual(phi, lam, f, m, inv_h, inv_h * inv_h, pairs)
    axes = []
    for axis, (a, b) in enumerate(pairs):
        w = np.ones_like(phi)
        if not stencil.periodic:
            w[stencil.rings[axis]] = 0.0
        axes.append((a, b, w))
    return res, q2, axes


def _jacobian(q2, axes, m, h, origin):
    """Pinned spatial Jacobian K = J + e_o e_o^T of the residual in phi.

    J is the generalized Jacobian of lam - lap_h phi + H_h(phi) in phi:
    d max(x, 0) = [x > 0] and dH = (m/2) q2^(m/2 - 1) d(q2), taken as 0
    where q2 = 0.  Its rows sum to zero (J 1 = 0); the 1 added to the
    origin's diagonal removes that null direction.  K keeps the stencil's
    structurally symmetric 3-/5-point pattern.
    """
    n = q2.size
    inv_h = 1.0 / h
    if m == 2.0:
        c = np.ones_like(q2)
    else:
        c = np.zeros_like(q2)
        on = q2 > 0.0
        c[on] = 0.5 * m * q2[on] ** (0.5 * m - 1.0)
    idx = np.arange(n).reshape(q2.shape)
    diag = np.zeros_like(q2)
    rows, cols, vals = [], [], []
    for axis, (a, b, w) in enumerate(axes):
        wd = w * (inv_h * inv_h)
        ca = (2.0 * inv_h) * c * a
        cb = (2.0 * inv_h) * c * b
        diag += 2.0 * wd + ca + cb
        for shift, coef in ((1, -(wd + ca)), (-1, -(wd + cb))):
            rows.append(idx.ravel())
            cols.append(np.roll(idx, shift, axis).ravel())
            vals.append(coef.ravel())
    diag.flat[origin] += 1.0
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())
    r, k, v = (np.concatenate(x) for x in (rows, cols, vals))
    keep = v != 0.0  # drops box wraparound entries and inactive upwind terms
    return sp.csc_matrix((v[keep], (r[keep], k[keep])), shape=(n, n))


def _newton_step(phi, res, q2, axes, m, h, origin):
    """Newton step (dphi, dlam) for J dphi + dlam 1 = -res, phi_o + dphi_o = 0.

    Factors the pinned Jacobian K = J + e_o e_o^T once, ordered on A^T A + A.
    Since J 1 = 0, dphi = y - phi_o 1 with y_o = 0 solves K y = -res - dlam 1,
    so one two-column solve Z = K^-1 [-res, 1] gives dlam = Z_o0 / Z_o1 and
    y = Z_0 - dlam Z_1.  The factor is freed after its solve.  A zero row of
    J makes K singular (a 1D wall or a 2D corner whose inward upwind pair is
    inactive): the factorization then raises RuntimeError.
    """
    rhs = np.column_stack((-res.ravel(), np.ones(res.size)))
    z = spla.splu(
        _jacobian(q2, axes, m, h, origin), permc_spec="MMD_AT_PLUS_A"
    ).solve(rhs)
    dlam = float(z[origin, 0] / z[origin, 1])
    return (z[:, 0] - dlam * z[:, 1] - phi.flat[origin]).reshape(phi.shape), dlam


def _solve_stationary(f: GridFunction, m: float):
    """Semismooth Newton (policy iteration) for the scheme's fixed point.

    Solves lambda - lap_h phi + H_h(phi) = f at every node with phi(origin)
    = 0, starting from phi = |x|, which is neither source dependent nor
    degenerate at the walls.  A full step that does not lower the sup
    residual is halved.  Returns phi, lambda, converged and the stop record;
    a singular Jacobian (see ``_newton_step``) stops the solve with reason
    "singular Jacobian".
    """
    grid = f.grid
    h = grid.spacing
    origin = int(np.ravel_multi_index(grid.origin_index, grid.shape))
    phi = np.sqrt(sum(x * x for x in grid.meshed_coords()))
    lam = 0.0
    tol = NEWTON_RTOL * max(1.0, float(np.max(np.abs(f.values))))
    # one plan per solve: it is freed with the solve, unlike the steps' cache
    stencil = Plan(grid.shape, grid.periodic)
    terms = _stationary_terms(phi, lam, f.values, m, h, stencil)
    history = [float(np.max(np.abs(terms[0])))]
    converged = False
    while True:
        if history[-1] <= tol:
            converged, reason = True, "residual below tolerance"
            break
        if len(history) > NEWTON_MAX_ITER:
            reason = "iteration cap reached"
            break
        try:
            dphi, dlam = _newton_step(phi, *terms, m, h, origin)
        except RuntimeError:
            reason = "singular Jacobian"
            break
        alpha = 1.0
        for _ in range(NEWTON_HALVINGS + 1):
            phi_t, lam_t = phi + alpha * dphi, lam + alpha * dlam
            trial = _stationary_terms(phi_t, lam_t, f.values, m, h, stencil)
            r = float(np.max(np.abs(trial[0])))
            if r < history[-1]:
                break
            alpha *= 0.5
        else:
            reason = "line search found no descent"
            break
        phi, lam, terms = phi_t, lam_t, trial
        history.append(r)
    stop_info = {
        "reason": reason,
        "iterations": len(history) - 1,
        "residual_history": history,
        "tolerance": tol,
    }
    return phi, lam, converged, stop_info


def _finish_run(m, f, phi, constant, converged, stop_info, kind, cutoff=None):
    grid = f.grid
    vals = phi - phi[grid.origin_index]
    profile = GridFunction(grid, vals)
    res = residual_ergodic(constant, profile, f, m)
    res_k = restrict(res, default_window_half_width(res.grid))
    return ErgodicApprox(
        kind=kind,
        half_width=grid.half_width,
        constant=constant,
        profile=profile,
        residual_norm=float(np.max(np.abs(res_k.values))),
        converged=converged,
        stop_info=stop_info,
        cutoff=cutoff,
    )


def solve_state_constraint(
    problem: ProblemSpec, half_width: float, spacing: float
) -> ErgodicApprox:
    """State-constraint pair on the box of the given half-width.

    Solves the stationary equations of the explicit scheme directly.  A
    solve that does not reach the tolerance returns converged=False with
    the reason and the residual history in ``stop_info`` rather than
    raising.
    """
    if half_width <= 0:
        raise ConfigError("half_width must be positive")
    grid = make_grid("box", half_width, spacing, problem.dim)
    f = sample(problem.source, grid)
    return _finish_run(
        problem.m, f, *_solve_stationary(f, problem.m), "state_constraint"
    )


def solve_periodic(
    problem: ProblemSpec, cutoff: float, spacing: float
) -> ErgodicApprox:
    """Periodic pair on the torus sized so the cap only acts where f >= cutoff.

    The cell half-width S satisfies f >= cutoff outside radius S, and the
    source on the cell is min(f, cutoff).
    """
    src_min = float(
        np.min(sample(problem.source, make_grid("box", 1.0, 0.25, problem.dim)).values)
    )
    if cutoff <= src_min:
        raise ConfigError("cutoff must exceed the source minimum")
    S = torus_half_width(problem.source, cutoff)
    grid = make_grid("torus", S, spacing, problem.dim)
    f_full = sample(problem.source, grid)
    f_cell = GridFunction(grid, np.minimum(f_full.values, cutoff))
    return _finish_run(
        problem.m, f_cell, *_solve_stationary(f_cell, problem.m), "periodic", cutoff
    )


def estimate_lambda_star(state_runs, periodic_runs=()) -> ErgodicConstantEstimate:
    """Combine both routes into one bracketed estimate.

    Upper bracket: smallest state-constraint constant.  Lower bracket: the
    largest periodic constant (heuristic; the theory only gives convergence,
    not one-sidedness, for finite cutoffs).  With three or more state runs
    the value is the 1/R-extrapolated intercept clipped into the bracket;
    otherwise the bracket midpoint, or the single available constant.
    """
    state_runs = sorted(state_runs, key=lambda r: r.half_width)
    if not state_runs:
        raise ConfigError("need at least one state-constraint run")
    notes = []
    upper = min(r.constant for r in state_runs)
    sources = [(r.kind, r.half_width, r.constant) for r in state_runs]
    sources += [(r.kind, r.half_width, r.constant) for r in periodic_runs]
    if periodic_runs:
        lower_raw = max(r.constant for r in periodic_runs)
        if lower_raw > upper + BRACKET_TOL:
            raise BracketInconsistencyError(
                f"lower bracket {lower_raw:.6g} exceeds upper bracket "
                f"{upper:.6g} beyond tolerance {BRACKET_TOL}; refine the runs"
            )
        lower = min(lower_raw, upper)
        if lower_raw > upper:
            notes.append(
                "lower bracket clamped to the upper one (crossing within tolerance)"
            )
        gap = upper - lower_raw
    else:
        lower = -math.inf
        gap = math.inf
        notes.append("no periodic runs: lower bracket unavailable")

    if len(state_runs) >= 3:
        inv_r = np.array([1.0 / r.half_width for r in state_runs])
        lams = np.array([r.constant for r in state_runs])
        slope, intercept = np.polyfit(inv_r, lams, 1)
        value = float(intercept)
        notes.append("value from linear extrapolation in 1/R")
        if math.isfinite(lower):
            value = min(max(value, lower), upper)
        else:
            value = min(value, upper)
    elif periodic_runs:
        value = 0.5 * (lower + upper)
        notes.append("value from bracket midpoint")
    else:
        value = upper
        notes.append("single-route estimate; gap unbounded")
    return ErgodicConstantEstimate(
        value=value,
        upper_bracket=upper,
        lower_bracket=lower,
        gap=gap,
        sources=sources,
        notes=notes,
    )


@dataclass
class ScalingCheckReport:
    mu: float
    residual: float
    threshold: float
    passed: bool


def scaling_check_super(
    approx: ErgodicApprox,
    ergodic_constant: float,
    source: GridFunction,
    m: float,
    *,
    resolution_constant: float = 10.0,
) -> ScalingCheckReport:
    """Supersolution scaling check with mu = 1 + lambda_R - lambda*.

    The scaled profile mu*phi_R must satisfy the supersolution inequality up
    to the scheme's consistency error plus a fixed slack:
    residual >= -(C h^2 + RESIDUAL_SLACK).
    """
    if approx.kind != "state_constraint":
        raise ConfigError("supersolution scaling applies to state-constraint runs")
    mu = 1.0 + approx.constant - ergodic_constant
    if mu < 1.0 - MU_TOL:
        raise BracketInconsistencyError(
            f"lambda_R {approx.constant:.6g} fell below the ergodic constant "
            f"{ergodic_constant:.6g} beyond tolerance; brackets are inconsistent"
        )
    mu = max(mu, 1.0)
    res = residual_scaled_super(mu, approx.constant, approx.profile, source, m)
    h = approx.profile.grid.spacing
    thr = -(resolution_constant * h * h + RESIDUAL_SLACK)
    return ScalingCheckReport(mu=mu, residual=res, threshold=thr, passed=res >= thr)


@dataclass
class ArgmaxReport:
    node: tuple
    point: tuple
    f_at_argmax: float
    bound: float
    passed: bool
    on_boundary: bool


def argmax_confinement(
    candidate: GridFunction,
    approx: ErgodicApprox,
    ergodic_constant: float,
    lambda_1: float,
    source: GridFunction,
) -> ArgmaxReport:
    """Locate argmax(candidate - mu*phi_R) and test f there against 1 + lambda_1.

    Coercivity forces the maximizer into a fixed ball; the certificate is
    f(x_R) <= 1 + lambda_1 + ARGMAX_TOL.  Ties within 1e-12 prefer the
    origin, then the smallest lexicographic index.  A maximizer on the
    boundary ring is flagged: the scaled profile should dominate near the
    wall.
    """
    prof = approx.profile
    if not grids_equal(candidate.grid, prof.grid):
        raise ConfigError("candidate must live on the run's grid")
    mu = max(1.0 + approx.constant - ergodic_constant, 1.0)
    diff = candidate.values - mu * prof.values
    best = float(np.max(diff))
    tied = np.argwhere(diff >= best - 1e-12)
    origin = np.array(prof.grid.origin_index)
    node = None
    for cand in tied:
        if np.array_equal(cand, origin):
            node = tuple(origin)
            break
    if node is None:
        node = tuple(tied[np.lexsort(tied.T[::-1])][0])
    coords = prof.grid.axis_coords()
    point = tuple(float(coords[i]) for i in node)
    n = prof.grid.n_store
    on_boundary = (not prof.grid.periodic) and any(
        i == 0 or i == n - 1 for i in node
    )
    f_at = float(source.values[node])
    bound = 1.0 + lambda_1 + ARGMAX_TOL
    return ArgmaxReport(
        node=node,
        point=point,
        f_at_argmax=f_at,
        bound=bound,
        passed=(f_at <= bound) and not on_boundary,
        on_boundary=on_boundary,
    )
