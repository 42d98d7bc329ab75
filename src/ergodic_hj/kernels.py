"""Hot inner-loop kernels: explicit updates for u_t - lap(u) + |Du|^m = f.

A stencil plan (``Plan``) for one array shape, box or torus, holds the
arithmetic.  The explicit step (boxes and tori, 1D and 2D), the
zero-Dirichlet heat step (which marches the 2D Hopf-Cole oracle field; the
1D field needs no steps) and the stationary residual c - lap + H - rhs
(``Plan.residual``, which Newton in ``ergodic`` and the barrier checks in
``asymptotics`` both evaluate) all run through it.  On the grids this
package steps, a step costs per numpy call, not per node, so a plan does
its Python-side set-up once: at construction it allocates its buffers (a
copy of the input, or on a torus one ghost-padded copy per axis; lap, and
in 2D a buffer for the second axis's second difference; and per axis the
one-sided differences) and binds every view of them.  A call
copies its input in, writes its scalars (1/h, 1/h^2, dt, m/2) into 0-d
cells, which numpy takes as operands at less cost than Python floats, and
evaluates.  q2 and the step and heat results go to the caller's arrays;
the residual, its q2 and upwind pairs, when asked for, to fresh ones.  The
lap a plan hands out is its own buffer, overwritten by the next call on
it, so a caller that keeps it copies it and none writes into it.

The step and heat kernels run thousands of times per shape and share one
cached plan per ``(shape, periodic)`` (``plan``), so the kernels are not
thread-safe (the parallel ladder uses processes).  A Newton solve builds
one plan for its iterations, and a barrier check or ``scheme.residual_field``
one per call, so their buffers are freed with them.

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

#: ``(shape, periodic)`` -> ``Plan``.  Cleared when it grows past
#: ``_PLANS_MAX`` entries, so a process that steps many grid sizes keeps
#: only recent ones.
_PLANS = {}
_PLANS_MAX = 32


def plan(shape, periodic):
    """The shared ``Plan`` for arrays of ``shape`` on a box or a torus."""
    key = (shape, periodic)
    p = _PLANS.get(key)
    if p is None:
        if len(_PLANS) >= _PLANS_MAX:
            _PLANS.clear()
        p = _PLANS[key] = Plan(shape, periodic)
    return p


class Plan:
    """Buffers, views and scalar cells of the stencil for one array shape.

    Per axis, ``diff[0]`` holds the one-sided differences d along the axis,
    one per cell between neighbours plus one at each end: entry i is D- of
    node i and entry i + 1 its D+.  ``diff[1]`` holds -d.  On a box the end
    entries stay zero, which closes the walls (a = 0 on the low wall, b = 0
    on the high one); on a torus they hold the wrapped difference.
    ``diff`` then gets the upwind pairs max(diff, 0), and then their squares.

    The lap of a 1D box keeps its zero walls from allocation; on a 2D box
    a later axis adds onto the axis-0 walls, so those are zeroed on every
    call.  q2 and every result go to the caller's arrays or to fresh ones,
    so a plan keeps no node-sized buffer beyond the input copy, lap,
    ``diff`` and, in 2D, the second axis's second difference.
    """

    def __init__(self, shape, periodic):
        self.periodic = periodic
        self.lap = np.zeros(shape)
        # 0-d operand cells: the per-call scalars, then two constants
        self.inv_h, self.inv_h2, self.dt, self.half_m = (np.zeros(()) for _ in range(4))
        self.neg2, self.zero = np.array(-2.0), np.array(0.0)
        #: index tuples of a box's walls, one per axis
        self.rings = []
        loads, ghosts, lap_views, grad_views = [], [], [], []
        if not periodic:
            x = np.empty(shape)
            loads.append(x)
        for axis, n in enumerate(shape):

            def at(s, axis=axis):  # index tuple: ``s`` along this axis, all of the others
                return (slice(None),) * axis + (s,)

            def resized(k, axis=axis):  # ``shape`` with k nodes along this axis
                return shape[:axis] + (k,) + shape[axis + 1 :]

            walls = None
            if periodic:  # one wrapped ghost layer per side: every node is interior
                x = np.empty(resized(n + 2))
                loads.append(x[at(slice(1, -1))])
                ghosts.append((x[at(slice(None, 1))], x[at(slice(-2, -1))]))
                ghosts.append((x[at(slice(-1, None))], x[at(slice(1, 2))]))
                inner = at(slice(None))
            else:
                inner = at(slice(1, -1))
                self.rings.append(at(slice(None, None, max(n - 1, 1))))
                if axis == 0 and len(shape) > 1:
                    walls = self.lap[self.rings[0]]
            if axis:  # a later axis's second difference, before it is added
                acc = np.empty(resized(n if periodic else max(n - 2, 0)))
                into = self.lap[inner]
            else:
                acc, into = self.lap[inner], None
            lap_views.append((
                x[at(slice(1, -1))], x[at(slice(2, None))], x[at(slice(None, -2))],
                acc, into, walls,
            ))
            up, down = at(slice(1, None)), at(slice(None, -1))
            a, b = (0,) + down, (1,) + up
            diff = np.zeros((2,) + resized(n + 1))
            grad_views.append((
                x[up], x[down], diff[(0,) + inner], diff[(1,) + inner],
                diff, a, b, diff[a], diff[b], axis == 0,
            ))
        self.loads, self.ghosts = tuple(loads), tuple(ghosts)
        self.lap_views, self.grad_views = tuple(lap_views), tuple(grad_views)

    def load(self, u):
        """Copy ``u`` into the input buffers; the next evaluations read it."""
        for x in self.loads:
            x[...] = u
        for ghost, real in self.ghosts:
            ghost[...] = real

    def laplacian(self, inv_h2):
        """lap of the loaded input: zero walls on a box, wrapped on a torus."""
        cell, neg2 = self.inv_h2, self.neg2
        cell[()] = inv_h2
        for mid, plus, minus, acc, into, walls in self.lap_views:
            # in-place operators: they cost less per call than ufunc(out=)
            np.multiply(mid, neg2, out=acc)
            acc += plus  # (u+ - 2u) to the bit: -2u is exact, + commutes
            acc += minus
            acc *= cell
            if into is not None:
                into += acc
            elif walls is not None:
                walls.fill(0.0)
        return self.lap

    def gradsq(self, inv_h, q2, pairs=None):
        """q2 of the loaded input, written into ``q2`` (shaped like it).

        With a list ``pairs``, each axis's upwind pair (a, b) is appended to
        it in fresh arrays, which the caller may keep."""
        cell, zero = self.inv_h, self.zero
        cell[()] = inv_h
        for up, down, d, neg_d, diff, a, b, a2, b2, first in self.grad_views:
            np.subtract(up, down, out=d)
            d *= cell
            np.negative(d, out=neg_d)
            if pairs is None:
                np.maximum(diff, zero, out=diff)
                np.multiply(diff, diff, out=diff)
            else:
                pair = np.maximum(diff, zero)
                pairs.append((pair[a], pair[b]))
                np.multiply(pair, pair, out=diff)
            if first:
                np.add(a2, b2, out=q2)
            else:
                q2 += a2
                q2 += b2
        return q2

    def residual(self, u, c, rhs, m, inv_h, inv_h2, pairs=None):
        """(c - lap + H - rhs, q2) of ``u`` on every node, in fresh arrays.

        The stationary residual of the step: Newton's and the barrier
        check's.  ``pairs`` is passed on to ``gradsq``."""
        self.load(u)
        lap = self.laplacian(inv_h2)
        q2 = self.gradsq(inv_h, np.empty_like(u), pairs)
        ham = q2 if m == 2.0 else q2 ** (0.5 * m)
        return c - lap + ham - rhs, q2

    def step(self, u, f, dt, inv_h, inv_h2, m, out):
        """out = u + dt * ((lap - H) + f) on a box or a torus of any dimension."""
        self.load(u)
        lap = self.laplacian(inv_h2)
        ham = self.gradsq(inv_h, out)
        if m != 2.0:  # at m = 2, H = q2 exactly, without pow
            self.half_m[()] = 0.5 * m
            np.power(ham, self.half_m, out=ham)
        np.subtract(lap, ham, out=out)
        out += f
        self.dt[()] = dt
        out *= self.dt
        out += self.loads[0]  # the loaded u: ``out`` may be ``u`` itself
        return out

    def heat(self, w, pot, dt, inv_h2, out):
        """w_t = lap(w) - pot*w with w pinned to zero on the boundary ring."""
        self.load(w)
        lap = self.laplacian(inv_h2)
        w = self.loads[0]  # ``out`` may be ``w`` itself
        np.multiply(pot, w, out=out)
        np.subtract(lap, out, out=out)
        self.dt[()] = dt
        out *= self.dt
        out += w
        for ring in self.rings:
            out[ring] = 0.0
        return out


def step(u, f, dt, inv_h, inv_h2, m, out, periodic):
    """out = u + dt * ((lap - H) + f) on a box or a torus of any dimension."""
    return plan(u.shape, periodic).step(u, f, dt, inv_h, inv_h2, m, out)


def heat_step_dirichlet(w, pot, dt, inv_h2, out):
    """w_t = lap(w) - pot*w with w pinned to zero on the boundary ring."""
    return plan(w.shape, False).heat(w, pot, dt, inv_h2, out)


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

    ``out`` is allocated when not supplied and may be ``u`` itself.  Callers
    are responsible for the CFL restriction.
    """
    if u.ndim not in (1, 2):
        raise ValueError(f"unsupported dimension: {u.ndim}")
    if out is None:
        out = np.empty_like(u)
    inv_h = 1.0 / h
    return plan(u.shape, periodic).step(u, f, dt, inv_h, inv_h * inv_h, m, out)


def heat_step(w, pot, dt, h, out=None):
    """One explicit update of w_t = lap(w) - pot*w with zero-Dirichlet closure.

    The 2D Hopf-Cole oracle's march takes these steps.  ``out`` is allocated
    when not supplied and may be ``w`` itself."""
    if w.ndim not in (1, 2):
        raise ValueError(f"unsupported dimension: {w.ndim}")
    if out is None:
        out = np.empty_like(w)
    return plan(w.shape, False).heat(w, pot, dt, 1.0 / (h * h), out)
