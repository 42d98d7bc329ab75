"""Discrete operators: stencil values, homogeneity, residuals, CFL rule."""

import numpy as np
import pytest

from ergodic_hj import (
    ConfigError,
    GridFunction,
    SchemeConfig,
    cfl_timestep,
    discrete_laplacian,
    make_grid,
    numerical_hamiltonian,
    residual_ergodic,
    residual_scaled_sub,
    residual_scaled_super,
    sample,
)
from ergodic_hj.kernels import vhj_step
from ergodic_hj.reference import manufactured, manufactured_oscillatory


def test_hamiltonian_constant_vanishes():
    g = make_grid("box", 2.0, 0.25, 1)
    u = GridFunction(g, np.full(g.shape, 3.7))
    assert numerical_hamiltonian(u, (8,), 2.0) == 0.0


def test_hamiltonian_linear_profile():
    # u = x, h = 0.1: D- = D+ = 1 so H = max(1,0)^2 + max(-1,0)^2 = 1
    g = make_grid("box", 1.0, 0.1, 1)
    u = sample(lambda x: x.copy(), g)
    assert numerical_hamiltonian(u, (5,), 2.0) == pytest.approx(1.0, abs=1e-12)


def test_hamiltonian_kink_at_minimum():
    # u = |x| at the kink: D- = -1, D+ = +1, both upwind picks drop out
    g = make_grid("box", 1.0, 0.1, 1)
    u = sample(lambda x: np.abs(x), g)
    assert numerical_hamiltonian(u, g.origin_index, 2.0) == 0.0


def test_hamiltonian_positive_homogeneity_dyadic_exact():
    # m = 2 involves only products and squares, so dyadic factors scale
    # without any rounding at all
    rng = np.random.default_rng(2)
    g = make_grid("box", 2.0, 0.25, 2)
    u = GridFunction(g, rng.normal(size=g.shape))
    base = numerical_hamiltonian(u, (4, 5), 2.0)
    for c in (0.5, 2.0, 4.0):
        scaled = GridFunction(g, c * u.values)
        assert numerical_hamiltonian(scaled, (4, 5), 2.0) == c**2.0 * base
    # fractional exponents go through pow, which does not distribute over
    # products in floats: exact in real arithmetic, last-ulp in binary64
    for m in (1.5, 1.2):
        base = numerical_hamiltonian(u, (4, 5), m)
        for c in (0.5, 2.0, 4.0):
            scaled = GridFunction(g, c * u.values)
            got = numerical_hamiltonian(scaled, (4, 5), m)
            assert got == pytest.approx(c**m * base, rel=1e-13)


def test_hamiltonian_positive_homogeneity_general():
    rng = np.random.default_rng(3)
    g = make_grid("box", 2.0, 0.25, 1)
    u = GridFunction(g, rng.normal(size=g.shape))
    for c in (0.3, 1.7, 5.1):
        got = numerical_hamiltonian(GridFunction(g, c * u.values), (7,), 1.5)
        want = c**1.5 * numerical_hamiltonian(u, (7,), 1.5)
        assert got == pytest.approx(want, rel=1e-12)


def test_hamiltonian_boundary_node_rejected():
    g = make_grid("box", 1.0, 0.25, 1)
    u = sample(lambda x: x.copy(), g)
    with pytest.raises(ConfigError):
        numerical_hamiltonian(u, (0,), 2.0)


def test_laplacian_affine_vanishes():
    g = make_grid("box", 2.0, 0.25, 1)
    u = sample(lambda x: 3.0 * x + 1.0, g)
    assert discrete_laplacian(u, (8,)) == pytest.approx(0.0, abs=1e-10)


def test_laplacian_quadratic_exact():
    g = make_grid("box", 2.0, 0.1, 1)
    u = sample(lambda x: x**2, g)
    for i in (1, 10, 25):
        assert discrete_laplacian(u, (i,)) == pytest.approx(2.0, abs=1e-9)


def test_laplacian_2d_bowl():
    g = make_grid("box", 2.0, 0.25, 2)
    u = sample(lambda x, y: x**2 + y**2, g)
    assert discrete_laplacian(u, (5, 9)) == pytest.approx(4.0, abs=1e-10)


@pytest.mark.parametrize("m,dim", [(1.5, 1), (2.0, 1), (2.0, 2), (1.2, 2)])
def test_residual_of_quadratic_pair_is_exact(m, dim):
    # the quadratic profile differentiates exactly under central stencils,
    # so the residual sits at rounding level rather than O(h^2)
    oracle = manufactured(m, dim)
    g = make_grid("box", 4.0, 0.125, dim)
    phi = sample(oracle.phi, g)
    f = sample(oracle.source, g)
    res = residual_ergodic(oracle.lambda_exact, phi, f, m)
    assert float(np.max(np.abs(res.values))) < 1e-9


def test_residual_constant_shift_is_affine():
    oracle = manufactured(1.5, 1)
    g = make_grid("box", 2.0, 0.125, 1)
    phi = sample(oracle.phi, g)
    f = sample(oracle.source, g)
    base = residual_ergodic(1.0, phi, f, 1.5).values
    shifted = residual_ergodic(1.0 + 0.25, phi, f, 1.5).values
    assert np.allclose(shifted - base, 0.25, rtol=0, atol=1e-12)


def test_residual_refinement_is_second_order():
    # transcendental manufactured pair: the central residual must shrink at
    # order h^2 (log-log slope 2 +- 0.2 over three refinements)
    oracle = manufactured_oscillatory(1.5, 1)
    sups = []
    spacings = [0.1, 0.05, 0.025]
    for h in spacings:
        g = make_grid("box", 3.0, h, 1)
        phi = sample(oracle.phi, g)
        f = sample(oracle.source, g)
        res = residual_ergodic(oracle.lambda_exact, phi, f, 1.5)
        sups.append(float(np.max(np.abs(res.values))))
    slope = np.polyfit(np.log(spacings), np.log(sups), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_scaled_super_equality_case():
    oracle = manufactured(2.0, 1)
    g = make_grid("box", 3.0, 0.125, 1)
    phi = sample(oracle.phi, g)
    f = sample(oracle.source, g)
    r = residual_scaled_super(1.0, oracle.lambda_exact, phi, f, 2.0)
    assert abs(r) < 1e-9


def test_scaled_super_surplus_grows():
    # on the exact pair the scaled residual is (mu^m - mu)|D phi|^m >= 0
    oracle = manufactured(2.0, 1)
    g = make_grid("box", 3.0, 0.125, 1)
    phi = sample(oracle.phi, g)
    f = sample(oracle.source, g)
    for mu in (1.2, 2.0):
        r = residual_scaled_super(mu, oracle.lambda_exact, phi, f, 2.0)
        assert r >= -1e-9


def test_scaled_super_uniform_constant_over_mu():
    # refinement: the negative part stays O(h^2) uniformly for mu in [1, 2]
    oracle = manufactured_oscillatory(1.5, 1)
    worst = {}
    for h in (0.1, 0.05):
        g = make_grid("box", 3.0, h, 1)
        phi = sample(oracle.phi, g)
        f = sample(oracle.source, g)
        worst[h] = min(
            residual_scaled_super(mu, oracle.lambda_exact, phi, f, 1.5)
            for mu in (1.0, 1.25, 1.5, 2.0)
        )
    c_coarse = max(-worst[0.1], 0.0) / 0.1**2
    c_fine = max(-worst[0.05], 0.0) / 0.05**2
    assert c_fine <= 4.0 * max(c_coarse, 1.0)


def test_scaled_super_trivial_zero_profile():
    g = make_grid("box", 2.0, 0.25, 1)
    phi = GridFunction(g, np.zeros(g.shape))
    f = GridFunction(g, np.full(g.shape, 1.3))
    assert residual_scaled_super(2.0, 1.3, phi, f, 2.0) == 0.0


def test_scaled_super_rejects_small_scale():
    g = make_grid("box", 2.0, 0.25, 1)
    phi = GridFunction(g, np.zeros(g.shape))
    f = GridFunction(g, np.ones(g.shape))
    with pytest.raises(ConfigError):
        residual_scaled_super(0.9, 1.0, phi, f, 2.0)


def test_scaled_sub_constant_solution():
    # f constant: psi = 0 solves with nu = c, residual exactly zero
    g = make_grid("torus", 2.0, 0.25, 1)
    psi = GridFunction(g, np.zeros(g.shape))
    f = GridFunction(g, np.full(g.shape, 2.5))
    assert residual_scaled_sub(1.0, 2.5, psi, f, 2.0) == 0.0
    assert residual_scaled_sub(0.0, 2.5, psi, f, 2.0) == 0.0


def test_scaled_sub_smooth_periodic_pair():
    # psi = a cos(pi x / S) with source defined by substitution
    S, a, m = 2.0, 0.4, 1.5
    k = np.pi / S
    nu = 1.0

    def psi_fn(x):
        return a * np.cos(k * x)

    def f_fn(x):
        return nu + a * k * k * np.cos(k * x) + np.abs(-a * k * np.sin(k * x)) ** m

    sups = {}
    for h in (0.05, 0.025):
        g = make_grid("torus", S, h, 1)
        psi = sample(psi_fn, g)
        f = sample(f_fn, g)
        r = residual_scaled_sub(0.8, nu, psi, f, m)
        # gamma < 1 makes the scaled profile a strict subsolution, so the
        # signed max is negative up to O(h^2)
        sups[h] = r
    assert sups[0.05] <= 0.05**2 * 10
    assert sups[0.025] <= 0.025**2 * 10


def test_scaled_sub_rejects_large_scale():
    g = make_grid("torus", 2.0, 0.25, 1)
    psi = GridFunction(g, np.zeros(g.shape))
    f = GridFunction(g, np.ones(g.shape))
    with pytest.raises(ConfigError):
        residual_scaled_sub(1.1, 1.0, psi, f, 2.0)


def test_cfl_formula_values():
    # N=1, h=0.1, L=1, m=2, safety=1: dt = 1/(2/h^2 + 2/h) = 1/220
    g = make_grid("box", 1.0, 0.1, 1)
    cfg = SchemeConfig(cfl_safety=1.0)
    # L = max(1.5 grad, 1): any gradient up to 2/3 keeps the floor L = 1
    for grad in (0.0, 0.5, 2.0 / 3.0):
        assert cfl_timestep(g, cfg, 2.0, grad) == pytest.approx(1.0 / 220.0, rel=1e-12)
    # grad = 2 gives L = 3: dt = 1/(2/h^2 + 2*3/h) = 1/260
    assert cfl_timestep(g, cfg, 2.0, 2.0) == pytest.approx(1.0 / 260.0, rel=1e-12)


def test_cfl_linear_in_safety():
    g = make_grid("box", 1.0, 0.1, 1)
    full = cfl_timestep(g, SchemeConfig(cfl_safety=1.0), 2.0, 0.5)
    half = cfl_timestep(g, SchemeConfig(cfl_safety=0.5), 2.0, 0.5)
    assert half == pytest.approx(0.5 * full, rel=1e-15)


def test_cfl_spacing_halving_between_2x_and_4x():
    coarse = cfl_timestep(make_grid("box", 1.0, 0.1, 1), SchemeConfig(), 2.0, 0.5)
    fine = cfl_timestep(make_grid("box", 1.0, 0.05, 1), SchemeConfig(), 2.0, 0.5)
    ratio = coarse / fine
    assert 2.0 < ratio < 4.0


def test_explicit_update_monotone_in_neighbors():
    # u <= w with equality at a node: the one-step update at that node under
    # u never exceeds the one under w, for any admissible time step
    rng = np.random.default_rng(42)
    g1 = make_grid("box", 1.0, 0.125, 1)
    g2 = make_grid("box", 1.0, 0.125, 2)
    violations = 0
    trials_per_dim = 500
    for g, m in ((g1, 2.0), (g1, 1.5), (g2, 2.0), (g2, 1.3)):
        h = g.spacing
        n = g.n_store
        for _ in range(trials_per_dim):
            u = rng.normal(size=g.shape)
            w = u + rng.uniform(0.0, 1.0, size=g.shape)
            if g.dim == 1:
                node = (int(rng.integers(1, n - 1)),)
            else:
                node = (int(rng.integers(1, n - 1)), int(rng.integers(1, n - 1)))
            w[node] = u[node]
            f = np.zeros(g.shape)
            dt = 1e-3 * h * h
            out_u = vhj_step(u, f, dt, h, m, False)
            out_w = vhj_step(w, f, dt, h, m, False)
            if out_u[node] > out_w[node] + 0.0:
                violations += 1
    assert violations == 0
