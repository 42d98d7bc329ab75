"""Step kernels: the stencil matches a scalar reference, the 2D box flow at
m = 2 separates into 1D flows, the gradient measure matches its box and
torus definitions, and the names and calls the benchmark reads stay as they
are."""

import math

import numpy as np
import pytest

from ergodic_hj import (
    Grid,
    GridFunction,
    SchemeConfig,
    cfl_timestep,
    discrete_laplacian,
    kernels,
    make_grid,
    numerical_hamiltonian,
)


def test_numpy_step_hand_checked_interior_node():
    # h = 0.5, u = [0, 1, 3], f = 1, dt = 0.01, m = 2 at the middle node:
    # lap = (3 - 2 + 0) * 4 = 4; D- = 2, D+ = 4 so ham = max(2,0)^2 = 4
    # update = 1 + 0.01 * (4 - 4 + 1) = 1.01
    u = np.array([0.0, 1.0, 3.0])
    f = np.ones(3)
    out = np.empty(3)
    kernels.step(u, f, 0.01, 2.0, 4.0, 2.0, out, periodic=False)
    assert out[1] == pytest.approx(1.01, rel=1e-15)


def test_state_constraint_boundary_uses_inward_stencil():
    # left wall: no wall-normal diffusion, gradient pair only inward
    u = np.array([5.0, 1.0, 0.0, 0.0, 0.0])
    f = np.zeros(5)
    out = np.empty(5)
    kernels.step(u, f, 0.01, 2.0, 4.0, 2.0, out, periodic=False)
    ham0 = max(-((1.0 - 5.0) * 2.0), 0.0) ** 2  # inward slope 8, squared
    assert out[0] == pytest.approx(5.0 + 0.01 * (0.0 - ham0), rel=1e-14)
    # monotone in the inward neighbor: raising u[1] cannot lower the update
    u2 = u.copy()
    u2[1] = 2.0
    out2 = np.empty(5)
    kernels.step(u2, f, 0.01, 2.0, 4.0, 2.0, out2, periodic=False)
    assert out2[0] >= out[0]


U_2D = np.array(
    [
        [4.0, 1.0, 2.0, 1.0, 0.0],
        [3.0, 1.0, 0.0, 2.0, 1.0],
        [0.0, 2.0, 1.0, 3.0, 2.0],
        [1.0, 0.0, 2.0, 1.0, 3.0],
        [2.0, 1.0, 3.0, 0.0, 1.0],
    ]
)


@pytest.mark.parametrize("kind", ["box", "torus"])
def test_vhj_step_2d_walls_corners_and_wraparound(kind):
    # h = 0.5 (1/h = 2, 1/h^2 = 4), f = 1, dt = 0.01, m = 2
    g = Grid(kind, 1.0, 5, 2)
    u = GridFunction(g, U_2D[: g.n_store, : g.n_store])
    out = kernels.vhj_step(u.values, np.ones(g.shape), 0.01, g.spacing, 2.0, g.periodic)
    if kind == "box":
        # low wall (0, 2): no x diffusion and only the inward x pair,
        # b_x = max(-(0 - 2) * 2, 0) = 4; along y a = b = 2, lap = (1 - 4 + 1) * 4
        assert out[0, 2] == pytest.approx(2.0 + 0.01 * (-8.0 - (16 + 4 + 4) + 1.0), rel=1e-15)
        # high wall (4, 2): inward a_x = (3 - 2) * 2 = 2 only; along y a = 4,
        # b = 6, lap = (0 - 6 + 1) * 4
        assert out[4, 2] == pytest.approx(3.0 + 0.01 * (-20.0 - (4 + 16 + 36) + 1.0), rel=1e-15)
        # corner (0, 0): both axes closed, inward b_x = 2 and b_y = 6, no diffusion
        assert out[0, 0] == pytest.approx(4.0 + 0.01 * (0.0 - (4 + 36) + 1.0), rel=1e-15)
        nodes = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    else:  # every node, the edge ones through the wraparound
        nodes = list(np.ndindex(g.shape))
    for node in nodes:
        lap = discrete_laplacian(u, node)
        ham = numerical_hamiltonian(u, node, 2.0)
        expected = u.values[node] + 0.01 * (lap - ham + 1.0)
        assert out[node] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("h", [0.16, 0.1])
def test_2d_box_flow_at_m2_is_the_sum_of_two_1d_flows(h):
    # at m = 2 the box stencil's Hamiltonian and Laplacian are sums over the
    # axes, so with f = x^2 + y^2 the 2D state from zero data stays
    # u1(x) + u1(y) to rounding; stepped at one shared dt to t = 2
    g1, g2 = make_grid("box", 4.0, h, 1), make_grid("box", 4.0, h, 2)
    x = g1.axis_coords()
    f1, f2 = x**2, x[:, None] ** 2 + x[None, :] ** 2
    dt = cfl_timestep(g2, SchemeConfig(), 2.0, 4.0)
    u1, u2 = np.zeros(g1.shape), np.zeros(g2.shape)
    for _ in range(math.ceil(2.0 / dt)):
        u1 = kernels.vhj_step(u1, f1, dt, h, 2.0, False)
        u2 = kernels.vhj_step(u2, f2, dt, h, 2.0, False)
    assert np.max(u1) > 9.0
    assert np.max(np.abs(u2 - (u1[:, None] + u1[None, :]))) < 1e-12


def test_torus_wraparound():
    # constant field stays constant; a single spike diffuses symmetrically
    u = np.zeros(8)
    u[0] = 1.0
    f = np.zeros(8)
    out = np.empty(8)
    kernels.step(u, f, 0.001, 1.0, 1.0, 2.0, out, periodic=True)
    assert out[1] == pytest.approx(out[-1])  # wrap makes both neighbors equal


def test_vhj_step_rejects_3d():
    with pytest.raises(ValueError):
        kernels.vhj_step(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), 0.1, 0.5, 2.0, False)
    with pytest.raises(ValueError):
        kernels.heat_step(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), 0.1, 0.5)


# ---------------------------------------------------------------------------
# the kernels against a node-by-node scalar reference
# ---------------------------------------------------------------------------


def _neighbours(u, node, axis, periodic):
    """(u-, u+) along ``axis``; None past a box wall."""
    n = u.shape[axis]

    def at(j):
        if not periodic and not 0 <= j < n:
            return None
        idx = list(node)
        idx[axis] = j % n
        return float(u[tuple(idx)])

    return at(node[axis] - 1), at(node[axis] + 1)


def _reference_step(u, f, dt, h, m, periodic):
    """The documented expression tree, one node at a time in Python floats:
    ((u+ - 2u) + u-) * inv_h2 per axis, a = max((u - u-) * inv_h, 0),
    b = max(-((u+ - u) * inv_h), 0), q2 = ((ax^2 + bx^2) + ay^2) + by^2.
    Along a box wall's normal axis the node gets no diffusion and only the
    inward member of the pair."""
    inv_h = 1.0 / h
    inv_h2 = inv_h * inv_h
    out = np.empty_like(u)
    for node in np.ndindex(u.shape):
        c = float(u[node])
        lap = q2 = None
        for axis in range(u.ndim):
            um, up = _neighbours(u, node, axis, periodic)
            wall = um is None or up is None
            lx = 0.0 if wall else ((up - 2.0 * c) + um) * inv_h2
            a = 0.0 if um is None else max((c - um) * inv_h, 0.0)
            b = 0.0 if up is None else max(-((up - c) * inv_h), 0.0)
            lap = lx if lap is None else lap + lx
            q2 = a * a + b * b if q2 is None else (q2 + a * a) + b * b
        ham = q2 if m == 2.0 else q2 ** (0.5 * m)
        out[node] = c + dt * ((lap - ham) + float(f[node]))
    return out


def _reference_heat(w, pot, dt, h):
    """w + dt * (lap - pot*w) node by node, zero on the boundary ring."""
    inv_h2 = 1.0 / (h * h)
    out = np.zeros_like(w)
    for node in np.ndindex(w.shape):
        c = float(w[node])
        lap = None
        for axis in range(w.ndim):
            wm, wp = _neighbours(w, node, axis, False)
            if wm is None or wp is None:
                break
            lx = ((wp - 2.0 * c) + wm) * inv_h2
            lap = lx if lap is None else lap + lx
        else:
            out[node] = c + dt * (lap - float(pot[node]) * c)
    return out


# odd, unequal sizes so that a swapped axis or a shifted wall shows
REFERENCE_SHAPES = [(9,), (7, 6)]


@pytest.mark.parametrize("m", [2.0, 1.5])
@pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=["1d", "2d"])
@pytest.mark.parametrize("kind", ["box", "torus"])
def test_numpy_step_matches_scalar_reference(kind, shape, m):
    rng = np.random.default_rng(17)
    u = rng.normal(scale=2.0, size=shape)
    f = rng.uniform(0.0, 3.0, size=shape)
    periodic = kind == "torus"
    out = kernels.vhj_step(u, f, 1e-3, 0.25, m, periodic, np.full(shape, np.nan))
    ref = _reference_step(u, f, 1e-3, 0.25, m, periodic)
    if m == 2.0:
        assert out.tobytes() == ref.tobytes()
    else:  # vector and scalar pow may differ by an ulp
        np.testing.assert_array_max_ulp(out, ref, maxulp=1)


@pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=["1d", "2d"])
def test_numpy_heat_step_matches_scalar_reference(shape):
    rng = np.random.default_rng(19)
    w = rng.uniform(0.0, 2.0, size=shape)
    pot = rng.uniform(0.0, 3.0, size=shape)
    out = kernels.heat_step(w, pot, 1e-3, 0.25, np.full(shape, np.nan))
    assert out.tobytes() == _reference_heat(w, pot, 1e-3, 0.25).tobytes()


def test_plan_cache_serves_interleaved_shapes_and_scalars():
    # one plan per (shape, periodic), reused across calls: a stale view, a
    # stale scalar cell or a 2D wall left unzeroed shows as a wrong bit
    rng = np.random.default_rng(41)

    def case(shape):
        return rng.normal(scale=2.0, size=shape), rng.uniform(0.0, 3.0, size=shape)

    calls = [((9,), False, 0.25, 1e-3), ((9,), True, 0.25, 1e-3),
             ((7, 6), False, 0.25, 1e-3), ((9,), False, 0.5, 4e-3),
             ("heat", False, 0.2, 2e-3), ((7, 6), True, 0.3, 5e-4),
             ((7, 6), False, 0.4, 2e-3), ((9,), False, 0.25, 1e-3)]
    for shape, periodic, h, dt in calls:
        if shape == "heat":
            w, pot = case((9,))
            expected = _reference_heat(w, pot, dt, h).tobytes()
            assert kernels.heat_step(w, pot, dt, h).tobytes() == expected
            assert kernels.heat_step(w, pot, dt, h, out=w).tobytes() == expected
            continue
        u, f = case(shape)
        expected = _reference_step(u, f, dt, h, 2.0, periodic).tobytes()
        assert kernels.vhj_step(u, f, dt, h, 2.0, periodic).tobytes() == expected
        # in place: the plan reads its own copy of u
        assert kernels.vhj_step(u, f, dt, h, 2.0, periodic, out=u).tobytes() == expected


def test_jacobian_pairs_survive_later_stencil_calls():
    # the Newton Jacobian keeps q2 and each axis's (a, b) while the next
    # iterate is evaluated on the same plan; its buffers must not alias them
    from ergodic_hj.ergodic import _stationary_terms

    rng = np.random.default_rng(23)
    u = rng.normal(size=(7, 6))
    stencil = kernels.Plan(u.shape, False)
    _, q2, axes = _stationary_terms(u, 0.0, np.ones(u.shape), 2.0, 0.25, stencil)
    kept = [q2.copy()] + [x.copy() for a, b, _ in axes for x in (a, b)]
    _stationary_terms(-u, 0.0, np.ones(u.shape), 2.0, 0.25, stencil)
    kernels.vhj_step(-u, u, 0.1, 0.25, 2.0, False)
    kept_now = [q2] + [x for a, b, _ in axes for x in (a, b)]
    assert all(np.array_equal(x, y) for x, y in zip(kept_now, kept))


def _box_gradient(u, inv_h):
    """The box measure as once written per dimension, over np.diff."""
    if u.ndim == 1:
        d = np.abs(np.diff(u)) * inv_h
        return float(d.max()) if d.size else 0.0
    d0 = np.abs(np.diff(u, axis=0)) * inv_h
    d1 = np.abs(np.diff(u, axis=1)) * inv_h
    return max(float(d0.max()) if d0.size else 0.0, float(d1.max()) if d1.size else 0.0)


def _torus_gradient(u, inv_h):
    """The torus measure as once written per dimension, over np.roll."""
    if u.ndim == 1:
        return float((np.abs(u - np.roll(u, 1)) * inv_h).max())
    d0 = np.abs(u - np.roll(u, 1, axis=0)) * inv_h
    d1 = np.abs(u - np.roll(u, 1, axis=1)) * inv_h
    return max(float(d0.max()), float(d1.max()))


@pytest.mark.parametrize("shape", [(9,), (7, 6), (1,), (1, 5)], ids=["1d", "2d", "1node", "1row"])
def test_max_onesided_gradient_matches_box_and_torus_definitions(shape):
    rng = np.random.default_rng(37)
    u = rng.normal(scale=3.0, size=shape)
    # |a - b| = |b - a| exactly and max ignores order: equal to the bit
    assert kernels.max_onesided_gradient(u, 4.0, False) == _box_gradient(u, 4.0)
    assert kernels.max_onesided_gradient(u, 4.0, True) == _torus_gradient(u, 4.0)
    u.flat[-1] = np.nan  # a blow-up must not read as a small gradient
    assert np.isnan(kernels.max_onesided_gradient(u, 4.0, True))
    if u.size > 1:  # a lone box node has no pair
        assert np.isnan(kernels.max_onesided_gradient(u, 4.0, False))


# ---------------------------------------------------------------------------
# what perfbench/ relies on: kernel names and signatures, and one
# vhj_step / heat_step call per step with dt as positional argument 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, periodic",
    [("step_box_1d", False), ("step_torus_1d", True), ("step_box_2d", False),
     ("step_torus_2d", True)],
)
def test_step_kernels_keep_the_benchmark_signature(name, periodic):
    shape = (9,) if name.endswith("1d") else (7, 6)
    rng = np.random.default_rng(29)
    u, f = rng.normal(size=shape), rng.uniform(0.0, 3.0, size=shape)
    out = np.empty(shape)
    # fn(u, f, dt, inv_h, inv_h2, m, out), writing into out
    getattr(kernels, name)(u, f, 1e-3, 4.0, 16.0, 2.0, out)
    assert out.tobytes() == kernels.vhj_step(u, f, 1e-3, 0.25, 2.0, periodic).tobytes()


def test_heat_kernel_keeps_the_benchmark_signature():
    rng = np.random.default_rng(31)
    w, pot = rng.uniform(0.0, 2.0, size=9), rng.uniform(0.0, 3.0, size=9)
    out = np.empty(9)
    # fn(w, pot, dt, inv_h2, out), writing into out
    kernels.heat_step_dirichlet_1d(w, pot, 1e-3, 16.0, out)
    assert out.tobytes() == kernels.heat_step(w, pot, 1e-3, 0.25).tobytes()


def test_benchmark_reads_one_numpy_backend():
    assert kernels.backend_name() == "numpy"
    assert kernels.NUMBA_AVAILABLE is False


def _recording(monkeypatch, name):
    """Replace ``kernels.<name>`` by a wrapper that logs each call's dt."""
    original = getattr(kernels, name)
    dts = []

    def wrapper(*args, **kwargs):
        dts.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, name, wrapper)
    return original, dts


def test_evolve_calls_vhj_step_once_per_step(monkeypatch):
    from ergodic_hj import ProblemSpec, SourceSpec, evolve, make_grid, sample

    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 2.0, 0.125, 1)
    original, dts = _recording(monkeypatch, "vhj_step")
    final = evolve(p, g, 0.6)
    assert dts and sum(dts) == pytest.approx(0.6, rel=1e-12)
    # replaying the recorded steps reproduces the run: one call per step
    u, f = sample(p.initial, g).values, sample(p.source, g).values
    for dt in dts:
        u = original(u, f, dt, g.spacing, 2.0, False)
    assert np.array_equal(u, final.u.values)


def test_parabolic_oracle_calls_heat_step_once_per_step(monkeypatch):
    from ergodic_hj import SourceSpec, make_grid, sample
    from ergodic_hj.reference import hopf_cole_parabolic

    # the 2D field is marched; the 1D one comes from an eigendecomposition
    g = make_grid("box", 2.0, 0.25, 2)
    f = sample(SourceSpec("power", alpha=2.0), g)
    _, dts = _recording(monkeypatch, "heat_step")
    u0 = GridFunction(g, np.zeros(g.shape))
    _, info = hopf_cole_parabolic(f, u0, [0.3, 0.5], 1.0)
    dt_stable = 0.9 / (2.0 * g.dim / g.spacing**2 + float(np.max(f.values)))
    # full stable steps, each output time reached by at most one shorter one
    assert sum(dt != dt_stable for dt in dts) <= 2
    assert min(abs(t - 0.3) for t in np.cumsum(dts)) < 1e-12
    assert sum(dts) == pytest.approx(0.5, rel=1e-12)
    assert info == {"dt": dt_stable, "steps": len(dts)}


def test_parabolic_oracle_takes_no_heat_step_in_1d(monkeypatch):
    from ergodic_hj import SourceSpec, make_grid, sample
    from ergodic_hj.reference import hopf_cole_parabolic

    g = make_grid("box", 2.0, 0.25, 1)
    f = sample(SourceSpec("power", alpha=2.0), g)
    _, dts = _recording(monkeypatch, "heat_step")
    hopf_cole_parabolic(f, GridFunction(g, np.zeros(g.shape)), [0.3, 0.5], 1.0)
    assert dts == []


def test_evolve_lands_each_step_on_samples_snapshots_and_horizon(monkeypatch):
    from ergodic_hj import ProblemSpec, SchemeConfig, SourceSpec, evolve, make_grid, sample
    from ergodic_hj import parabolic
    from ergodic_hj.scheme import cfl_timestep

    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    g = make_grid("box", 2.0, 0.125, 1)
    original, dts = _recording(monkeypatch, "vhj_step")
    final = evolve(p, g, 0.9, sample_interval=0.25, snapshot_times=(0.3, 0.6))
    # the rule written out: dt = min(dt_cfl, target - t), the targets being
    # the sample times, the snapshot times and T, dt_cfl refreshed every
    # REFRESH_STEPS steps
    u, f = sample(p.initial, g).values, sample(p.source, g).values
    dt_cfl = cfl_timestep(g, SchemeConfig(), 2.0, 0.0)  # zero initial data
    t, expected, reached, cfl_steps = 0.0, [], [], [dt_cfl]
    for target in (0.25, 0.3, 0.5, 0.6, 0.75, 0.9):
        while t < target - 1e-12:
            dt = min(dt_cfl, target - t)
            u = original(u, f, dt, g.spacing, 2.0, False)
            t += dt
            expected.append(dt)
            if len(expected) % parabolic.REFRESH_STEPS == 0:
                grad = kernels.max_onesided_gradient(u, 1.0 / g.spacing, False)
                dt_cfl = cfl_timestep(g, SchemeConfig(), 2.0, grad)
                cfl_steps.append(dt_cfl)
        reached.append(t)
    # the run is long enough for a refresh, and the refresh moves the step
    assert len(cfl_steps) >= 2 and cfl_steps[1] != cfl_steps[0]
    assert dts == expected
    assert [s.t for s in final.trace.samples] == [reached[i] for i in (0, 2, 4)]
    assert [ts for ts, _ in final.snapshots] == [reached[1], reached[3]]
    assert final.t == reached[-1]
    assert final.u.values.tobytes() == u.tobytes()
