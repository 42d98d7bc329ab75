"""Independent oracles used to validate the nonlinear solvers.

Two routes exist:

* manufactured radial solutions, valid for every admissible exponent: the
  pair phi = |x|^2/2, lambda = N solves the stationary problem with source
  f = |x|^m by direct substitution (lap(phi) = N and |D phi|^m = |x|^m);
* the m = 2 logarithmic transform u = -log w, which maps the equation to the
  linear problem w_t - lap(w) = -f w, and the stationary problem to the
  principal eigenvalue problem of -lap + f.

The transform gives a fully independent linear-algebra path to the ergodic
constant, so any agreement with the nonlinear evolution is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kernels
from .errors import ConfigError, StagnationError
from .grid import GridFunction, grids_equal, interior_grid


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


def manufactured_oscillatory(
    m: float, dim: int, amplitude: float = 0.1, wavenumber: float = 2.0
) -> OracleSolution:
    """Transcendental manufactured pair for truncation-order studies.

    The quadratic family differentiates exactly under central stencils, so
    its residual carries no h signal; this bowl-plus-cosine profile does.
    The source is defined as whatever makes the pair exact:
    f := N - lap(phi) + |D phi|^m.
    """
    a, k = amplitude, wavenumber
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


def hopf_cole_eigenvalue(
    f: GridFunction, tol: float = 1e-8, max_iter: int = 500
):
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
    for it in range(1, max_iter + 1):
        x = solve(x)
        x = x / np.linalg.norm(x)
        Ax = A @ x
        lam = float(x @ Ax)
        res = float(np.max(np.abs(Ax - lam * x)))
        if res <= tol * max(1.0, abs(lam)):
            return lam, {"residual": res, "iterations": it}
    raise StagnationError(
        f"inverse power iteration stalled after {max_iter} iterations "
        f"(residual {res:.3e}, target {tol:.1e})"
    )


def hopf_cole_parabolic(
    f: GridFunction,
    u0: GridFunction,
    times,
    safety: float = 0.9,
    rescale_threshold: float = 2.0**-40,
):
    """Integrate w_t = lap(w) - f w with w0 = exp(-u0); return u = -log w at
    each of the sorted ``times``, all from one integration.

    Valid for m = 2 only.  When max w drifts below the threshold, w is
    rescaled by a power of two and the exact log shift is carried along;
    power-of-two scaling commutes bit-exactly with the linear update, so the
    rescaled trajectory reproduces the unrescaled one.  The last step before
    each requested time is shortened to land on it.

    The zero-Dirichlet closure makes -log w infinite on the boundary ring, so
    each field is returned on the grid shrunk by one node per side.
    """
    g = f.grid
    if g.periodic:
        raise ConfigError("parabolic transform oracle expects a box grid")
    if not grids_equal(u0.grid, g):
        raise ConfigError("initial data grid mismatch")
    times = [float(T) for T in times]
    if times != sorted(times):
        raise ConfigError(f"output times must be sorted, got {times}")
    h = g.spacing
    w = np.exp(-u0.values)
    if g.dim == 1:  # Dirichlet ring
        w[0] = w[-1] = 0.0
    else:
        w[0, :] = w[-1, :] = 0.0
        w[:, 0] = w[:, -1] = 0.0
    out = np.empty_like(w)
    fmax = float(np.max(f.values))
    dt_stable = safety / (2.0 * g.dim / (h * h) + fmax)
    interior = (slice(1, -1),) * g.dim
    sub = interior_grid(g)
    t = 0.0
    shift_exp = 0  # integer power-of-two exponent, exact bookkeeping
    fields = []
    for T in times:
        while t < T - 1e-12:
            dt = min(dt_stable, T - t)
            kernels.heat_step(w, f.values, dt, h, out)
            w, out = out, w
            t += dt
            wmax = np.maximum.reduce(w, axis=None)  # np.max's wrapper costs more
            if wmax <= 0.0:
                raise StagnationError(
                    "transformed field collapsed to zero; horizon too long for "
                    "the chosen box"
                )
            if wmax < rescale_threshold:
                k = int(math.floor(math.log2(wmax)))
                w *= 2.0 ** (-k)  # exact: power-of-two scaling
                shift_exp += k
        wi = w[interior]
        if np.any(wi <= 0.0):
            raise StagnationError("transformed field hit zero on the interior")
        log_shift = shift_exp * math.log(2.0)  # -log of the applied rescalings
        fields.append(GridFunction(sub, -np.log(wi) - log_shift))
    return fields
