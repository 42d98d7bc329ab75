"""Backend agreement: the numba kernels and the numpy fallbacks must match."""

import numpy as np
import pytest

from ergodic_hj import Grid, GridFunction, discrete_laplacian, kernels, numerical_hamiltonian


def _rand_fields(shape, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=shape)
    f = rng.uniform(0.0, 3.0, size=shape)
    return u, f


PAIRS_1D = [
    (kernels.step_box_1d_numba, kernels.step_box_1d_numpy),
    (kernels.step_torus_1d_numba, kernels.step_torus_1d_numpy),
]
PAIRS_2D = [
    (kernels.step_box_2d_numba, kernels.step_box_2d_numpy),
    (kernels.step_torus_2d_numba, kernels.step_torus_2d_numpy),
]


@pytest.mark.skipif(not kernels.NUMBA_AVAILABLE, reason="numba not installed")
@pytest.mark.parametrize("m", [2.0, 1.5, 1.2])
@pytest.mark.parametrize("pair", PAIRS_1D, ids=["box", "torus"])
def test_backends_agree_1d(pair, m):
    jit_fn, np_fn = pair
    u, f = _rand_fields(41, seed=3)
    a = np.empty_like(u)
    b = np.empty_like(u)
    jit_fn(u, f, 1e-4, 10.0, 100.0, m, a)
    np_fn(u, f, 1e-4, 10.0, 100.0, m, b)
    if m == 2.0:
        assert np.array_equal(a, b)  # same expression tree, no pow
    else:
        np.testing.assert_allclose(a, b, rtol=5e-15, atol=0.0)


@pytest.mark.skipif(not kernels.NUMBA_AVAILABLE, reason="numba not installed")
@pytest.mark.parametrize("m", [2.0, 1.5])
@pytest.mark.parametrize("pair", PAIRS_2D, ids=["box", "torus"])
def test_backends_agree_2d(pair, m):
    jit_fn, np_fn = pair
    u, f = _rand_fields((23, 23), seed=5)
    a = np.empty_like(u)
    b = np.empty_like(u)
    jit_fn(u, f, 1e-5, 20.0, 400.0, m, a)
    np_fn(u, f, 1e-5, 20.0, 400.0, m, b)
    if m == 2.0:
        assert np.array_equal(a, b)
    else:
        np.testing.assert_allclose(a, b, rtol=5e-15, atol=0.0)


@pytest.mark.skipif(not kernels.NUMBA_AVAILABLE, reason="numba not installed")
def test_heat_backends_agree():
    w, pot = _rand_fields(31, seed=11)
    w = np.abs(w)
    a = np.empty_like(w)
    b = np.empty_like(w)
    kernels.heat_step_dirichlet_1d_numba(w, pot, 1e-4, 100.0, a)
    kernels.heat_step_dirichlet_1d_numpy(w, pot, 1e-4, 100.0, b)
    assert np.array_equal(a, b)
    w2, pot2 = _rand_fields((17, 17), seed=13)
    a2 = np.empty_like(w2)
    b2 = np.empty_like(w2)
    kernels.heat_step_dirichlet_2d_numba(w2, pot2, 1e-5, 400.0, a2)
    kernels.heat_step_dirichlet_2d_numpy(w2, pot2, 1e-5, 400.0, b2)
    assert np.array_equal(a2, b2)


def test_numpy_step_hand_checked_interior_node():
    # h = 0.5, u = [0, 1, 3], f = 1, dt = 0.01, m = 2 at the middle node:
    # lap = (3 - 2 + 0) * 4 = 4; D- = 2, D+ = 4 so ham = max(2,0)^2 = 4
    # update = 1 + 0.01 * (4 - 4 + 1) = 1.01
    u = np.array([0.0, 1.0, 3.0])
    f = np.ones(3)
    out = np.empty(3)
    kernels.step_box_1d_numpy(u, f, 0.01, 2.0, 4.0, 2.0, out)
    assert out[1] == pytest.approx(1.01, rel=1e-15)


def test_state_constraint_boundary_uses_inward_stencil():
    # left wall: no wall-normal diffusion, gradient pair only inward
    u = np.array([5.0, 1.0, 0.0, 0.0, 0.0])
    f = np.zeros(5)
    out = np.empty(5)
    kernels.step_box_1d_numpy(u, f, 0.01, 2.0, 4.0, 2.0, out)
    ham0 = max(-((1.0 - 5.0) * 2.0), 0.0) ** 2  # inward slope 8, squared
    assert out[0] == pytest.approx(5.0 + 0.01 * (0.0 - ham0), rel=1e-14)
    # monotone in the inward neighbor: raising u[1] cannot lower the update
    u2 = u.copy()
    u2[1] = 2.0
    out2 = np.empty(5)
    kernels.step_box_1d_numpy(u2, f, 0.01, 2.0, 4.0, 2.0, out2)
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


def test_torus_wraparound():
    # constant field stays constant; a single spike diffuses symmetrically
    u = np.zeros(8)
    u[0] = 1.0
    f = np.zeros(8)
    out = np.empty(8)
    kernels.step_torus_1d_numpy(u, f, 0.001, 1.0, 1.0, 2.0, out)
    assert out[1] == pytest.approx(out[-1])  # wrap makes both neighbors equal


def test_dispatch_matches_env(monkeypatch):
    assert kernels.backend_name() in ("numba", "numpy")
    assert kernels.NUMBA_ENABLED == (kernels.backend_name() == "numba")


def test_env_flag_forces_numpy_backend():
    # the switch acts at import time, so probe in a fresh interpreter
    import os
    import subprocess
    import sys

    env = dict(os.environ, ERGODIC_HJ_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", "from ergodic_hj import kernels; print(kernels.backend_name())"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "numpy"


def test_vhj_step_rejects_3d():
    with pytest.raises(ValueError):
        kernels.vhj_step(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), 0.1, 0.5, 2.0, False)
