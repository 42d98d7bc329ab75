"""Independent oracles used to validate the nonlinear solvers.

Two routes exist:

* manufactured radial solutions, valid for every admissible exponent: the
  pair phi = |x|^2/2, lambda = N solves the stationary problem with source
  f = |x|^m by direct substitution (lap(phi) = N and |D phi|^m = |x|^m);
* the m = 2 logarithmic transform u = -log w, which maps the equation to the
  linear problem w_t - lap(w) = -f w, and the stationary problem to the
  principal eigenvalue problem of -lap + f.  In 1D the grid operator
  -lap_h + f is tridiagonal, and the field at any time comes from one
  truncated eigendecomposition, exact in time; in 2D it is marched with the
  explicit heat step ``kernels.heat_step``.

The transform gives a fully independent linear-algebra path to the ergodic
constant, so any agreement with the nonlinear evolution is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from . import kernels
from .errors import ConfigError, StagnationError
from .grid import Grid, GridFunction, grids_equal, interior_grid, window_slices

#: inverse power iteration: stop at residual <= EIGEN_TOL max(1, |lambda|)
EIGEN_TOL = 1e-8
EIGEN_MAX_ITER = 500
#: the 1D field keeps the modes with lambda_k - lambda_0 <= MODE_SPAN / T_min:
#: the rest decay by exp(-MODE_SPAN) < 2^-53 by the smallest positive time
MODE_SPAN = 40.0
#: the 2D march's dt as a share of its stability bound
HEAT_SAFETY = 0.9
#: the 2D march rescales w by a power of two once max w drops below this
RESCALE_THRESHOLD = 2.0**-40


@dataclass(frozen=True)
class OracleSolution:
    lambda_exact: float
    phi: object  # callable on coordinate arrays
    source: object  # callable on coordinate arrays
    provenance: str
    m: float
    dim: int


def manufactured(m: float, dim: int) -> OracleSolution:
    """phi = |x|^2/2, lambda = N, f = |x|^m; exact for 1 < m <= 2, N in {1,2}."""
    if not 1.0 < m <= 2.0:
        raise ConfigError(f"exponent out of range: {m}")
    if dim not in (1, 2):
        raise ConfigError(f"dimension out of range: {dim}")

    def phi(x, y=None):
        rsq = np.asarray(x, float) ** 2
        if y is not None:
            rsq = rsq + np.asarray(y, float) ** 2
        return 0.5 * rsq

    def source(x, y=None):
        rsq = np.asarray(x, float) ** 2
        if y is not None:
            rsq = rsq + np.asarray(y, float) ** 2
        return rsq ** (0.5 * m)

    return OracleSolution(float(dim), phi, source, "manufactured", m, dim)


def manufactured_oscillatory(m: float, dim: int) -> OracleSolution:
    """Transcendental manufactured pair for truncation-order studies.

    The quadratic family differentiates exactly under central stencils, so
    its residual carries no h signal; this bowl-plus-cosine profile does.
    The source is defined as whatever makes the pair exact:
    f := N - lap(phi) + |D phi|^m, with phi = |x|^2/2 + a sum_i cos(k x_i).
    """
    a, k = 0.1, 2.0
    lam = float(dim)

    if dim == 1:

        def phi(x):
            x = np.asarray(x, float)
            return 0.5 * x * x + a * np.cos(k * x)

        def source(x):
            x = np.asarray(x, float)
            dphi = x - a * k * np.sin(k * x)
            lap = 1.0 - a * k * k * np.cos(k * x)
            return lam - lap + np.abs(dphi) ** m

    else:

        def phi(x, y):
            x = np.asarray(x, float)
            y = np.asarray(y, float)
            return 0.5 * (x * x + y * y) + a * (np.cos(k * x) + np.cos(k * y))

        def source(x, y):
            x = np.asarray(x, float)
            y = np.asarray(y, float)
            px = x - a * k * np.sin(k * x)
            py = y - a * k * np.sin(k * y)
            lap = 2.0 - a * k * k * (np.cos(k * x) + np.cos(k * y))
            return lam - lap + (px * px + py * py) ** (0.5 * m)

    return OracleSolution(lam, phi, source, "manufactured", m, dim)


# ---------------------------------------------------------------------------
# eigenvalue oracle (m = 2)
# ---------------------------------------------------------------------------


def _dirichlet_operator(f: GridFunction):
    """Sparse -lap + diag(f) on the interior nodes with zero-Dirichlet closure."""
    g = f.grid
    if g.periodic:
        raise ConfigError("eigenvalue oracle expects a box grid")
    h2 = g.spacing**2
    if g.dim == 1:
        n = g.n_store - 2
        main = 2.0 / h2 + f.values[1:-1]
        off = -np.ones(n - 1) / h2
        return sp.diags([off, main, off], [-1, 0, 1], format="csc")
    n = g.n_store - 2
    lap1 = sp.diags(
        [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ) / h2
    eye = sp.identity(n)
    A = sp.kron(lap1, eye) + sp.kron(eye, lap1)
    A = A + sp.diags(f.values[1:-1, 1:-1].ravel())
    return A.tocsc()


def hopf_cole_eigenvalue(f: GridFunction):
    """Principal eigenvalue of -lap + f by shifted inverse power iteration.

    Valid as an ergodic-constant oracle only for m = 2.  The zero-Dirichlet
    closure is adequate because the ground state of a coercive potential
    decays fast; verify by doubling the box, not by assumption.

    Returns (eigenvalue, info) where info holds the residual certificate.
    """
    A = _dirichlet_operator(f)
    n = A.shape[0]
    sigma = float(np.min(f.values))  # diagonal shift; keeps the solve well scaled
    solve = spla.splu((A - sigma * sp.identity(n, format="csc")).tocsc()).solve
    x = np.full(n, 1.0 / math.sqrt(n))
    lam = float(x @ (A @ x))
    for it in range(1, EIGEN_MAX_ITER + 1):
        x = solve(x)
        x = x / np.linalg.norm(x)
        Ax = A @ x
        lam = float(x @ Ax)
        res = float(np.max(np.abs(Ax - lam * x)))
        if res <= EIGEN_TOL * max(1.0, abs(lam)):
            return lam, {"residual": res, "iterations": it}
    raise StagnationError(
        f"inverse power iteration stalled after {EIGEN_MAX_ITER} iterations "
        f"(residual {res:.3e}, target {EIGEN_TOL:.1e})"
    )


def hopf_cole_parabolic(
    f: GridFunction, u0: GridFunction, times, window_half_width: float
):
    """u = -log w for w_t = lap(w) - f w, w0 = exp(-u0), at each of the sorted
    nonnegative ``times``, on the window [-w, w]^N; returns (fields, info).

    Valid for m = 2 only.  The zero-Dirichlet closure makes -log w infinite
    on the boundary ring, so the window must lie inside the box interior.

    In 1D -lap_h + f is a symmetric tridiagonal matrix, and every field comes
    from one truncated eigendecomposition, exact in time
    (``_spectral_fields``); in 2D from one forward-Euler march
    (``_march_fields``).  ``info`` says how: the number of modes kept and the
    largest kept eigenvalue, or the march's step and step count.
    """
    g = f.grid
    if g.periodic:
        raise ConfigError("parabolic transform oracle expects a box grid")
    if not grids_equal(u0.grid, g):
        raise ConfigError("initial data grid mismatch")
    times = [float(T) for T in times]
    if times != sorted(times):
        raise ConfigError(f"output times must be sorted, got {times}")
    if times and times[0] < 0.0:
        raise ConfigError(f"output times must be nonnegative, got {times}")
    win = window_slices(interior_grid(g), window_half_width)
    win_grid = Grid("box", window_half_width, win[0].stop - win[0].start, g.dim)
    route = _spectral_fields if g.dim == 1 else _march_fields
    values, info = route(f, u0, times, win)
    return [GridFunction(win_grid, v) for v in values], info


def _spectral_fields(f, u0, times, win):
    """w(T) = V exp(-(Lambda - lambda_0) T) V^T w0 from the modes with
    lambda_k - lambda_0 <= MODE_SPAN / T_min, T_min the smallest positive
    time; u = -log w + lambda_0 T, evaluated on the window only.

    In the far tail w sits at round-off, where the truncated sum loses
    relative accuracy, so no field leaves the window.
    """
    u0_win = u0.values[1:-1][win]
    positive = [T for T in times if T > 0.0]
    if not positive:
        info = {"modes": 0, "largest_eigenvalue": math.nan}
        return [u0_win.copy() for _ in times], info
    h2 = f.grid.spacing ** 2
    d = 2.0 / h2 + f.values[1:-1]
    e = np.full(d.size - 1, -1.0 / h2)
    lam0 = float(
        eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 0))[0]
    )
    lam, V = eigh_tridiagonal(
        d, e, select="v", select_range=(-np.inf, lam0 + MODE_SPAN / positive[0])
    )
    V_win = V[win]
    decay = lam - lam0
    fields = []
    # an overflow of exp(-u0) is reported by the check below, in one line
    with np.errstate(over="ignore", invalid="ignore"):
        c = V.T @ np.exp(-u0.values[1:-1])
        for T in times:
            if T == 0.0:
                fields.append(u0_win.copy())
                continue
            w = V_win @ (np.exp(-decay * T) * c)
            if not np.all(w > 0.0) or not np.all(np.isfinite(w)):
                raise StagnationError(
                    f"transformed field hit zero or overflowed on the window "
                    f"at t={T:g}"
                )
            fields.append(lam0 * T - np.log(w))
    return fields, {"modes": int(lam.size), "largest_eigenvalue": float(lam[-1])}


def _march_fields(f, u0, times, win):
    """Forward-Euler march of w_t = lap(w) - f w through the sorted times.

    When max w drifts below the threshold, w is rescaled by a power of two
    and the exact log shift is carried along; power-of-two scaling commutes
    bit-exactly with the linear update, so the rescaled trajectory reproduces
    the unrescaled one.  The last step before each requested time is
    shortened to land on it.
    """
    g = f.grid
    h = g.spacing
    interior = (slice(1, -1),) * g.dim
    w = np.zeros(g.shape)  # the Dirichlet ring stays zero
    w[interior] = np.exp(-u0.values[interior])
    out = np.empty_like(w)
    fmax = float(np.max(f.values))
    dt_stable = HEAT_SAFETY / (2.0 * g.dim / (h * h) + fmax)
    t = 0.0
    steps = 0
    shift_exp = 0  # integer power-of-two exponent, exact bookkeeping
    fields = []
    for T in times:
        while t < T - 1e-12:
            dt = min(dt_stable, T - t)
            kernels.heat_step(w, f.values, dt, h, out)
            w, out = out, w
            t += dt
            steps += 1
            wmax = np.maximum.reduce(w, axis=None)  # np.max's wrapper costs more
            if wmax <= 0.0:
                raise StagnationError(
                    "transformed field collapsed to zero; horizon too long for "
                    "the chosen box"
                )
            if wmax < RESCALE_THRESHOLD:
                k = int(math.floor(math.log2(wmax)))
                w *= 2.0 ** (-k)  # exact: power-of-two scaling
                shift_exp += k
        wi = w[interior]
        if np.any(wi <= 0.0):
            raise StagnationError("transformed field hit zero on the interior")
        log_shift = shift_exp * math.log(2.0)  # -log of the applied rescalings
        fields.append(-np.log(wi[win]) - log_shift)
    return fields, {"dt": dt_stable, "steps": steps}
