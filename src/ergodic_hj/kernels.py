"""Hot inner-loop kernels: explicit updates for u_t - lap(u) + |Du|^m = f.

One dimension-generic helper, ``axis_terms``, writes (axis 0) or adds
(later axes) one axis's second difference and upwind pair into caller
buffers.  The explicit step (boxes and tori, 1D and 2D), the
zero-Dirichlet heat step, the Newton residual in ``ergodic`` and the
stencil fields in ``scheme`` all go through it.  On the grids this
package steps, a step costs per numpy call, not per node, so the helper
computes each axis's one-sided differences once and reuses scratch
buffers kept per array shape from call to call instead of allocating
them.  Nothing it returns is scratch.  The scratch is shared by every
caller in the process, so the kernels are not thread-safe (the parallel
ladder uses processes).

Every node evaluates the same expression tree: ((u+ - 2 u) + u-) * inv_h2
per axis, a = max((u - u-) * inv_h, 0), b = max(-((u+ - u) * inv_h), 0),
and q2 = ((ax^2 + bx^2) + ay^2) + by^2.

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

from functools import partial

import numpy as np


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
    the same buffers sums them in the order of the module docstring's
    expression tree.  Tori wrap around.  On a box this axis's walls are
    closed: the wall nodes get no diffusion and only the inward member of
    the pair (a = 0 on the low wall, b = 0 on the high one).

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


def step(u, f, dt, inv_h, inv_h2, m, out, periodic):
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


def heat_step_dirichlet(w, pot, dt, inv_h2, out):
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


def max_onesided_gradient(u, inv_h, periodic):
    """Largest |u(x + h e_i) - u(x)| / h over the nodes and axes of ``u``.

    On a torus the pair across the wrap counts too; pass ``periodic=False``
    for a sub-box of a torus.  0.0 when ``u`` has no neighbouring pair; a
    nan in any pair gives nan.
    """
    g = 0.0
    for axis in range(u.ndim):
        v = np.concatenate((u, u.take([0], axis)), axis) if periodic else u
        d = np.abs(np.diff(v, axis=axis)) * inv_h
        if d.size:
            g = np.maximum(g, d.max())
    return float(g)


# kept for the benchmark (perfbench/) alone, until its next refresh
step_box_1d = step_box_2d = partial(step, periodic=False)
step_torus_1d = step_torus_2d = partial(step, periodic=True)
heat_step_dirichlet_1d = heat_step_dirichlet
NUMBA_AVAILABLE = False


def backend_name() -> str:
    return "numpy"


def vhj_step(u, f, dt, h, m, periodic, out=None):
    """One explicit update of u_t - lap(u) + |Du|^m = f on raw arrays.

    ``out`` is allocated when not supplied.  Callers are responsible for the
    CFL restriction.
    """
    if u.ndim not in (1, 2):
        raise ValueError(f"unsupported dimension: {u.ndim}")
    if out is None:
        out = np.empty_like(u)
    inv_h = 1.0 / h
    return step(u, f, dt, inv_h, inv_h * inv_h, m, out, periodic)


def heat_step(w, pot, dt, h, out=None):
    """One explicit update of w_t = lap(w) - pot*w with zero-Dirichlet closure."""
    if w.ndim not in (1, 2):
        raise ValueError(f"unsupported dimension: {w.ndim}")
    if out is None:
        out = np.empty_like(w)
    return heat_step_dirichlet(w, pot, dt, 1.0 / (h * h), out)
