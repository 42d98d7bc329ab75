"""Discrete spatial operators, residual evaluators and the CFL rule.

The evolution uses the monotone upwind gradient stencil, whose stationary
residual (``kernels.Plan.residual``) both Newton and the barrier checks
evaluate; verification residuals on smooth candidates (``residual_field``)
use central differences, which are second-order there.  ``cfl_timestep``
is the one home of the explicit step's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridMismatchError
from .grid import Grid, GridFunction, grids_equal, interior_grid, interior_values
from .kernels import Plan


#: the CFL bound's Lipschitz estimate: L = max(GRAD_HEADROOM * grad, 1)
GRAD_HEADROOM = 1.5
#: residual checks accept residual >= -(C h^2 + RESIDUAL_SLACK), C calibrated
RESIDUAL_SLACK = 2e-3


@dataclass
class SchemeConfig:
    cfl_safety: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigError("cfl_safety must lie in (0, 1]")


def cfl_timestep(grid: Grid, config: SchemeConfig, m: float, grad: float) -> float:
    """dt = safety / (2N/h^2 + m L^(m-1)/h): keeps the explicit update monotone.

    L = max(GRAD_HEADROOM * grad, 1), with ``grad`` the largest one-sided
    difference of the state the step starts from.
    """
    h = grid.spacing
    L = max(GRAD_HEADROOM * grad, 1.0)
    denom = 2.0 * grid.dim / (h * h) + m * L ** (m - 1.0) / h
    return config.cfl_safety / denom


# ---------------------------------------------------------------------------
# stencil fields (array-valued helpers; the per-node ops wrap these)
# ---------------------------------------------------------------------------


def _neighbor_views(values, axis, periodic):
    if periodic:
        up = np.roll(values, -1, axis=axis)
        um = np.roll(values, 1, axis=axis)
        return um, up
    # box: views shifted by one along `axis`, valid on the interior
    sl_m = [slice(1, -1)] * values.ndim
    sl_p = [slice(1, -1)] * values.ndim
    sl_m[axis] = slice(0, -2)
    sl_p[axis] = slice(2, None)
    return values[tuple(sl_m)], values[tuple(sl_p)]


def central_gradsq_field(gf: GridFunction) -> np.ndarray:
    """|D0 u|^2 with centered differences (interior for boxes)."""
    g = gf.grid
    h = g.spacing
    v = gf.values
    acc = np.zeros_like(interior_values(g, v))
    for ax in range(g.dim):
        um, up = _neighbor_views(v, ax, g.periodic)
        d0 = (up - um) / (2.0 * h)
        acc += d0 * d0
    return acc


# ---------------------------------------------------------------------------
# per-node ops
# ---------------------------------------------------------------------------


def numerical_hamiltonian(u: GridFunction, node, m: float) -> float:
    """Upwind H at one node: monotone and consistent with |Du|^m.

    Boxes require an interior node; tori accept any node.
    """
    g = u.grid
    node = tuple(np.atleast_1d(node).astype(int))
    if len(node) != g.dim:
        raise ConfigError(f"node index must have {g.dim} components")
    n = g.n_store
    h = g.spacing
    v = u.values
    q2 = 0.0
    for ax in range(g.dim):
        i = node[ax]
        if g.periodic:
            im = (i - 1) % n
            ip = (i + 1) % n
        else:
            if i <= 0 or i >= n - 1:
                raise ConfigError(
                    f"node {node} touches the box boundary; use the boundary handler"
                )
            im, ip = i - 1, i + 1
        idx_m = list(node)
        idx_p = list(node)
        idx_m[ax] = im
        idx_p[ax] = ip
        uc = v[node]
        a = max((uc - v[tuple(idx_m)]) / h, 0.0)
        b = max(-((v[tuple(idx_p)] - uc) / h), 0.0)
        q2 += a * a + b * b
    return float(q2 if m == 2.0 else q2 ** (0.5 * m))


def discrete_laplacian(u: GridFunction, node) -> float:
    """Standard second-difference Laplacian at one node."""
    g = u.grid
    node = tuple(np.atleast_1d(node).astype(int))
    n = g.n_store
    h2 = g.spacing**2
    v = u.values
    acc = 0.0
    for ax in range(g.dim):
        i = node[ax]
        if g.periodic:
            im = (i - 1) % n
            ip = (i + 1) % n
        else:
            if i <= 0 or i >= n - 1:
                raise ConfigError(
                    f"node {node} touches the box boundary; use the boundary handler"
                )
            im, ip = i - 1, i + 1
        idx_m = list(node)
        idx_p = list(node)
        idx_m[ax] = im
        idx_p[ax] = ip
        acc += (v[tuple(idx_p)] - 2.0 * v[node] + v[tuple(idx_m)]) / h2
    return float(acc)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def _check_same_grid(a: GridFunction, b: GridFunction):
    if not grids_equal(a.grid, b.grid):
        raise GridMismatchError("fields must share a grid")


def residual_field(
    constant: float,
    profile: GridFunction,
    rhs: np.ndarray,
    m: float,
) -> np.ndarray:
    """constant - lap(phi) + |D0 phi|^m - rhs, with ``rhs`` given on every node.

    Returned on the box interior (all nodes for tori).  The gradient takes
    centered differences; the scheme's own upwind residual is
    ``kernels.Plan.residual``.
    """
    g = profile.grid
    inv_h = 1.0 / g.spacing
    plan = Plan(g.shape, g.periodic)
    plan.load(profile.values)
    lap = interior_values(g, plan.laplacian(inv_h * inv_h))
    q2 = central_gradsq_field(profile)
    ham = q2 if m == 2.0 else q2 ** (0.5 * m)
    return constant - lap + ham - interior_values(g, rhs)


def residual_ergodic(
    constant: float,
    profile: GridFunction,
    source: GridFunction,
    m: float,
) -> GridFunction:
    """Nodal residual of  constant - lap(phi) + |D phi|^m - f.

    Returned on the interior sub-grid for boxes (all nodes for tori); with
    central differences and a C^2 profile this is O(h^2), which is what
    makes manufactured-solution verification possible.
    """
    _check_same_grid(profile, source)
    g = profile.grid
    res = residual_field(constant, profile, source.values, m)
    return GridFunction(g if g.periodic else interior_grid(g), res)


def _scaled_residual(scale, constant_r, profile, source, m):
    _check_same_grid(profile, source)
    scaled = GridFunction(profile.grid, scale * profile.values)
    rhs = scale * (source.values - constant_r)
    return residual_field(0.0, scaled, rhs, m)


def residual_scaled_super(
    scale: float,
    constant_r: float,
    profile: GridFunction,
    source: GridFunction,
    m: float,
) -> float:
    """min over interior of  -lap(mu*phi) + |D(mu*phi)|^m - mu*(f - lambda_R).

    Nonnegative up to O(h^2) when scale >= 1: multiplying a solution by
    mu >= 1 turns it into a supersolution because mu^(1-m) <= 1.
    """
    if scale < 1.0:
        raise ConfigError(
            f"supersolution scaling needs scale >= 1, got {scale}; "
            "use residual_scaled_sub for scales below 1"
        )
    return float(np.min(_scaled_residual(scale, constant_r, profile, source, m)))


def residual_scaled_sub(
    scale: float,
    constant_r: float,
    profile: GridFunction,
    source: GridFunction,
    m: float,
) -> float:
    """max over nodes of  -lap(gamma*psi) + |D(gamma*psi)|^m - gamma*(f_R - nu_R).

    Requires a torus profile and scale <= 1 (the inequality flips otherwise).
    """
    if scale > 1.0:
        raise ConfigError(
            f"subsolution scaling needs scale <= 1, got {scale}; "
            "use residual_scaled_super for scales above 1"
        )
    if not profile.grid.periodic:
        raise ConfigError("residual_scaled_sub expects a torus profile")
    return float(np.max(_scaled_residual(scale, constant_r, profile, source, m)))
