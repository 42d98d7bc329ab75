"""Hot inner-loop kernels: explicit updates for u_t - lap(u) + |Du|^m = f.

Two interchangeable backends are provided:

* numpy: one dimension-generic helper, ``axis_terms``, writes (axis 0) or
  adds (later axes) one axis's second difference and upwind pair into
  caller buffers.  The explicit step (boxes and tori, 1D and 2D), the
  zero-Dirichlet heat step, the Newton residual in ``ergodic`` and the
  stencil fields in ``scheme`` all go through it.  On the grids this
  package steps, a step costs per numpy call, not per node, so the helper
  computes each axis's one-sided differences once and reuses scratch
  buffers kept per array shape from call to call instead of allocating
  them.  Nothing it returns is scratch.  The scratch is shared by every
  caller in the process, so the numpy kernels are not thread-safe (the
  parallel ladder uses processes);
* numba: one ``@njit`` scalar loop per case (default when numba imports).

Set the environment variable ``ERGODIC_HJ_DISABLE_NUMBA=1`` before import to
force the numpy path.  Both backends evaluate the same expression tree node
by node: ((u+ - 2 u) + u-) * inv_h2 per axis, a = max((u - u-) * inv_h, 0),
b = max(-((u+ - u) * inv_h), 0), and q2 = ((ax^2 + bx^2) + ay^2) + by^2.
Results therefore agree to the last bit for m = 2 and to a few ulp for
fractional exponents (pow implementations may differ).

Stencils:

* gradient term: Rouy-Tourin upwind, H = (sum_i max(D-,0)^2 + max(-D+,0)^2)^(m/2)
* diffusion: standard second differences
* box boundary (state-constraint handling): along the wall-normal axis the
  update keeps only the inward upwind gradient pair and drops the diffusion
  contribution, so the wall node equilibrates at the maximal inward slope
  f^(1/m).  This is the monotone closure: a one-sided second difference
  would carry a -2/h^2 coefficient on the inward neighbor and break the
  comparison principle at the wall
* torus: periodic index wraparound
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np


def _numba_disabled_by_env() -> bool:
    return os.environ.get("ERGODIC_HJ_DISABLE_NUMBA", "0").strip().lower() in (
        "1",
        "true",
        "yes",
    )


try:
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    _HAVE_NUMBA = False

    def _njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


NUMBA_AVAILABLE = _HAVE_NUMBA
NUMBA_ENABLED = _HAVE_NUMBA and not _numba_disabled_by_env()


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------


#: scratch buffers, reused from call to call: ``(shape, axis, periodic)``
#: -> ``_AxisScratch``, and ``shape`` -> one node-shaped array.  Cleared
#: when it grows past ``_SCRATCH_MAX`` entries, so a process that steps many
#: grid sizes keeps only recent ones.
_SCRATCH = {}
_SCRATCH_MAX = 32


def _keep(key, value):
    if len(_SCRATCH) >= _SCRATCH_MAX:
        _SCRATCH.clear()
    _SCRATCH[key] = value
    return value


def _node_scratch(shape):
    buf = _SCRATCH.get(shape)
    return _keep(shape, np.empty(shape)) if buf is None else buf


class _AxisScratch:
    """Index tuples and buffers for one axis of one array shape.

    ``diff[0]`` holds the one-sided differences d along the axis, one per
    cell between neighbours plus one at each end: entry i is D- of node i
    and entry i + 1 its D+.  ``diff[1]`` holds -d.  On a box the end entries
    stay zero, which closes the walls (a = 0 on the low wall, b = 0 on the
    high one); on a torus they hold the wrapped difference.  After a call
    ``diff`` holds the squares of the upwind pairs.
    """

    def __init__(self, shape, axis, periodic):
        def at(s):  # index tuple: ``s`` along this axis, all of the others
            return (slice(None),) * axis + (s,)

        def resized(k):  # ``shape`` with k nodes along this axis
            return shape[:axis] + (k,) + shape[axis + 1 :]

        n = shape[axis]
        self.mid, self.plus = at(slice(1, -1)), at(slice(2, None))
        self.minus = at(slice(None, -2))
        self.up, self.down = at(slice(1, None)), at(slice(None, -1))
        self.a, self.b = (0,) + self.down, (1,) + self.up
        self.diff = np.zeros((2,) + resized(n + 1))
        self.a2, self.b2 = self.diff[self.a], self.diff[self.b]
        if periodic:  # one wrapped ghost layer per side: every node is interior
            self.padded = np.empty(resized(n + 2))
            self.first, self.last = at(slice(None, 1)), at(slice(-1, None))
            self.inner = at(slice(None))
            cells = self.inner
        else:
            self.inner = cells = self.mid
            self.walls = at(slice(None, None, max(n - 1, 1)))  # first and last node
        self.d, self.neg_d = self.diff[(0,) + cells], self.diff[(1,) + cells]
        # the second difference of a later axis, before it is added
        self.lap = np.empty(resized(n if periodic else max(n - 2, 0))) if axis else None


def axis_terms(u, axis, periodic, inv_h, inv_h2, lap=None, q2=None):
    """One axis of the stencil into buffers shaped like ``u``.

    ``lap`` gets the second difference and ``q2`` gets a^2 + b^2 of the
    upwind pair a = max(D-, 0), b = max(-D+, 0).  Axis 0 writes both
    buffers; every later axis adds to them.  Calling the axes in order on
    the same buffers gives the numba kernels' sums bit for bit.  Tori wrap
    around.  On a box this axis's walls are closed: the wall nodes get no
    diffusion and only the inward member of the pair (a = 0 on the low
    wall, b = 0 on the high one).

    Returns the pair (a, b) as arrays shaped like ``u`` when ``q2`` is
    given, else None; the pair is freshly allocated and may be kept.
    ``inv_h2`` is read only with ``lap``, ``inv_h`` only with ``q2``.
    """
    key = (u.shape, axis, periodic)
    s = _SCRATCH.get(key) or _keep(key, _AxisScratch(*key))
    v = u
    if periodic:
        v = np.concatenate((u[s.last], u, u[s.first]), axis, out=s.padded)
    # in-place operators below: they cost less per call than ufunc(out=)
    if lap is not None:
        acc = s.lap if axis else lap[s.inner]
        np.multiply(v[s.mid], -2.0, out=acc)
        acc += v[s.plus]  # (u+ - 2u) to the bit: -2u is exact, + commutes
        acc += v[s.minus]
        acc *= inv_h2
        if axis:
            inner = lap[s.inner]
            inner += acc
        elif not periodic:
            lap[s.walls] = 0.0
    if q2 is None:
        return None
    d = s.d
    np.subtract(v[s.up], v[s.down], out=d)
    d *= inv_h
    np.negative(d, out=s.neg_d)
    pair = np.maximum(s.diff, 0.0)
    np.multiply(pair, pair, out=s.diff)
    if axis:
        q2 += s.a2
        q2 += s.b2
    else:
        np.add(s.a2, s.b2, out=q2)
    return pair[s.a], pair[s.b]


def step_numpy(u, f, dt, inv_h, inv_h2, m, out, periodic):
    """out = u + dt * ((lap - H) + f) on a box or a torus of any dimension."""
    q2 = _node_scratch(u.shape)
    for axis in range(u.ndim):
        axis_terms(u, axis, periodic, inv_h, inv_h2, out, q2)
    if m != 2.0:  # at m = 2, H = q2 exactly, without pow
        np.power(q2, 0.5 * m, out=q2)
    out -= q2
    out += f
    out *= dt
    out += u
    return out


step_box_1d_numpy = step_box_2d_numpy = partial(step_numpy, periodic=False)
step_torus_1d_numpy = step_torus_2d_numpy = partial(step_numpy, periodic=True)


def heat_step_dirichlet_numpy(w, pot, dt, inv_h2, out):
    """w_t = lap(w) - pot*w with w pinned to zero on the boundary ring."""
    for axis in range(w.ndim):
        axis_terms(w, axis, False, None, inv_h2, lap=out)
    pot_w = _node_scratch(w.shape)
    np.multiply(pot, w, out=pot_w)
    out -= pot_w
    out *= dt
    out += w
    for axis, n in enumerate(w.shape):
        out[(slice(None),) * axis + (slice(None, None, max(n - 1, 1)),)] = 0.0
    return out


heat_step_dirichlet_1d_numpy = heat_step_dirichlet_2d_numpy = heat_step_dirichlet_numpy


def max_onesided_gradient_numpy(u, inv_h):
    g = 0.0
    if u.ndim == 1:
        d = np.abs(np.diff(u)) * inv_h
        if d.size:
            g = float(d.max())
    else:
        d0 = np.abs(np.diff(u, axis=0)) * inv_h
        d1 = np.abs(np.diff(u, axis=1)) * inv_h
        g = max(float(d0.max()) if d0.size else 0.0, float(d1.max()) if d1.size else 0.0)
    return g


def max_onesided_gradient_torus_numpy(u, inv_h):
    if u.ndim == 1:
        d = np.abs(u - np.roll(u, 1)) * inv_h
        return float(d.max())
    d0 = np.abs(u - np.roll(u, 1, axis=0)) * inv_h
    d1 = np.abs(u - np.roll(u, 1, axis=1)) * inv_h
    return max(float(d0.max()), float(d1.max()))


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------


@_njit(cache=True)
def step_box_1d_numba(u, f, dt, inv_h, inv_h2, m, out):  # pragma: no cover - jitted
    n = u.shape[0]
    for i in range(1, n - 1):
        lap = (u[i + 1] - 2.0 * u[i] + u[i - 1]) * inv_h2
        a = max((u[i] - u[i - 1]) * inv_h, 0.0)
        b = max(-((u[i + 1] - u[i]) * inv_h), 0.0)
        q2 = a * a + b * b
        ham = q2 if m == 2.0 else q2 ** (0.5 * m)
        out[i] = u[i] + dt * (lap - ham + f[i])
    b0 = max(-((u[1] - u[0]) * inv_h), 0.0)
    q20 = b0 * b0
    ham0 = q20 if m == 2.0 else q20 ** (0.5 * m)
    out[0] = u[0] + dt * (0.0 - ham0 + f[0])
    an = max((u[n - 1] - u[n - 2]) * inv_h, 0.0)
    q2n = an * an
    hamn = q2n if m == 2.0 else q2n ** (0.5 * m)
    out[n - 1] = u[n - 1] + dt * (0.0 - hamn + f[n - 1])
    return out


@_njit(cache=True)
def step_torus_1d_numba(u, f, dt, inv_h, inv_h2, m, out):  # pragma: no cover
    n = u.shape[0]
    for i in range(n):
        ip = i + 1 if i + 1 < n else 0
        im = i - 1 if i - 1 >= 0 else n - 1
        lap = (u[ip] - 2.0 * u[i] + u[im]) * inv_h2
        a = max((u[i] - u[im]) * inv_h, 0.0)
        b = max(-((u[ip] - u[i]) * inv_h), 0.0)
        q2 = a * a + b * b
        ham = q2 if m == 2.0 else q2 ** (0.5 * m)
        out[i] = u[i] + dt * (lap - ham + f[i])
    return out


@_njit(cache=True)
def step_box_2d_numba(u, f, dt, inv_h, inv_h2, m, out):  # pragma: no cover
    n0, n1 = u.shape
    for i in range(n0):
        for j in range(n1):
            if i == 0:
                lx = 0.0
                ax = 0.0
                bx = max(-((u[1, j] - u[0, j]) * inv_h), 0.0)
            elif i == n0 - 1:
                lx = 0.0
                ax = max((u[n0 - 1, j] - u[n0 - 2, j]) * inv_h, 0.0)
                bx = 0.0
            else:
                lx = (u[i + 1, j] - 2.0 * u[i, j] + u[i - 1, j]) * inv_h2
                ax = max((u[i, j] - u[i - 1, j]) * inv_h, 0.0)
                bx = max(-((u[i + 1, j] - u[i, j]) * inv_h), 0.0)
            if j == 0:
                ly = 0.0
                ay = 0.0
                by = max(-((u[i, 1] - u[i, 0]) * inv_h), 0.0)
            elif j == n1 - 1:
                ly = 0.0
                ay = max((u[i, n1 - 1] - u[i, n1 - 2]) * inv_h, 0.0)
                by = 0.0
            else:
                ly = (u[i, j + 1] - 2.0 * u[i, j] + u[i, j - 1]) * inv_h2
                ay = max((u[i, j] - u[i, j - 1]) * inv_h, 0.0)
                by = max(-((u[i, j + 1] - u[i, j]) * inv_h), 0.0)
            q2 = ax * ax + bx * bx + ay * ay + by * by
            ham = q2 if m == 2.0 else q2 ** (0.5 * m)
            out[i, j] = u[i, j] + dt * ((lx + ly) - ham + f[i, j])
    return out


@_njit(cache=True)
def step_torus_2d_numba(u, f, dt, inv_h, inv_h2, m, out):  # pragma: no cover
    n0, n1 = u.shape
    for i in range(n0):
        ip = i + 1 if i + 1 < n0 else 0
        im = i - 1 if i - 1 >= 0 else n0 - 1
        for j in range(n1):
            jp = j + 1 if j + 1 < n1 else 0
            jm = j - 1 if j - 1 >= 0 else n1 - 1
            lap = (u[ip, j] - 2.0 * u[i, j] + u[im, j]) * inv_h2 + (
                u[i, jp] - 2.0 * u[i, j] + u[i, jm]
            ) * inv_h2
            ax = max((u[i, j] - u[im, j]) * inv_h, 0.0)
            bx = max(-((u[ip, j] - u[i, j]) * inv_h), 0.0)
            ay = max((u[i, j] - u[i, jm]) * inv_h, 0.0)
            by = max(-((u[i, jp] - u[i, j]) * inv_h), 0.0)
            q2 = ax * ax + bx * bx + ay * ay + by * by
            ham = q2 if m == 2.0 else q2 ** (0.5 * m)
            out[i, j] = u[i, j] + dt * (lap - ham + f[i, j])
    return out


@_njit(cache=True)
def heat_step_dirichlet_1d_numba(w, pot, dt, inv_h2, out):  # pragma: no cover
    n = w.shape[0]
    for i in range(1, n - 1):
        lap = (w[i + 1] - 2.0 * w[i] + w[i - 1]) * inv_h2
        out[i] = w[i] + dt * (lap - pot[i] * w[i])
    out[0] = 0.0
    out[n - 1] = 0.0
    return out


@_njit(cache=True)
def heat_step_dirichlet_2d_numba(w, pot, dt, inv_h2, out):  # pragma: no cover
    n0, n1 = w.shape
    for i in range(1, n0 - 1):
        for j in range(1, n1 - 1):
            lap = (w[i + 1, j] - 2.0 * w[i, j] + w[i - 1, j]) * inv_h2 + (
                w[i, j + 1] - 2.0 * w[i, j] + w[i, j - 1]
            ) * inv_h2
            out[i, j] = w[i, j] + dt * (lap - pot[i, j] * w[i, j])
    for i in range(n0):
        out[i, 0] = 0.0
        out[i, n1 - 1] = 0.0
    for j in range(n1):
        out[0, j] = 0.0
        out[n0 - 1, j] = 0.0
    return out


# ---------------------------------------------------------------------------
# dispatch table
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:
    step_box_1d = step_box_1d_numba
    step_box_2d = step_box_2d_numba
    step_torus_1d = step_torus_1d_numba
    step_torus_2d = step_torus_2d_numba
    heat_step_dirichlet_1d = heat_step_dirichlet_1d_numba
    heat_step_dirichlet_2d = heat_step_dirichlet_2d_numba
else:
    step_box_1d = step_box_1d_numpy
    step_box_2d = step_box_2d_numpy
    step_torus_1d = step_torus_1d_numpy
    step_torus_2d = step_torus_2d_numpy
    heat_step_dirichlet_1d = heat_step_dirichlet_1d_numpy
    heat_step_dirichlet_2d = heat_step_dirichlet_2d_numpy


def backend_name() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"


def vhj_step(u, f, dt, h, m, periodic, out=None):
    """One explicit update of u_t - lap(u) + |Du|^m = f on raw arrays.

    Dispatches on dimension and boundary handling; ``out`` is allocated when
    not supplied.  Callers are responsible for the CFL restriction.
    """
    if out is None:
        out = np.empty_like(u)
    inv_h = 1.0 / h
    inv_h2 = inv_h * inv_h
    if u.ndim == 1:
        fn = step_torus_1d if periodic else step_box_1d
    elif u.ndim == 2:
        fn = step_torus_2d if periodic else step_box_2d
    else:
        raise ValueError(f"unsupported dimension: {u.ndim}")
    fn(u, f, dt, inv_h, inv_h2, m, out)
    return out


def heat_step(w, pot, dt, h, out=None):
    """One explicit update of w_t = lap(w) - pot*w with zero-Dirichlet closure."""
    if out is None:
        out = np.empty_like(w)
    inv_h2 = 1.0 / (h * h)
    if w.ndim == 1:
        heat_step_dirichlet_1d(w, pot, dt, inv_h2, out)
    elif w.ndim == 2:
        heat_step_dirichlet_2d(w, pot, dt, inv_h2, out)
    else:
        raise ValueError(f"unsupported dimension: {w.ndim}")
    return out
