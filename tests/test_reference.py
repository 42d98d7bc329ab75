"""Oracle validation: the oracles must stand on their own feet."""

import numpy as np
import pytest

from ergodic_hj import (
    ConfigError,
    GridFunction,
    InitialSpec,
    ProblemSpec,
    SourceSpec,
    evolve,
    hopf_cole_eigenvalue,
    hopf_cole_parabolic,
    make_grid,
    manufactured,
    manufactured_oscillatory,
    residual_ergodic,
    restrict,
    sample,
    sup_norm_diff,
)


@pytest.mark.parametrize("m,dim", [(2.0, 1), (1.5, 2), (1.2, 1)])
def test_manufactured_substitution(m, dim):
    # lambda - lap(phi) + |D phi|^m = N - N + |x|^m = f, checked nodally
    oracle = manufactured(m, dim)
    assert oracle.lambda_exact == float(dim)
    g = make_grid("box", 3.0, 0.25, dim)
    phi = sample(oracle.phi, g)
    f = sample(oracle.source, g)
    res = residual_ergodic(oracle.lambda_exact, phi, f, m, "central")
    assert float(np.max(np.abs(res.values))) < 1e-10


def test_manufactured_rejects_bad_exponent():
    with pytest.raises(ConfigError):
        manufactured(2.5, 1)
    with pytest.raises(ConfigError):
        manufactured(1.5, 3)


def test_oscillatory_pair_substitution_converges():
    oracle = manufactured_oscillatory(1.7, 2)
    sups = []
    for h in (0.2, 0.1):
        g = make_grid("box", 2.0, h, 2)
        res = residual_ergodic(
            oracle.lambda_exact,
            sample(oracle.phi, g),
            sample(oracle.source, g),
            1.7,
            "central",
        )
        sups.append(float(np.max(np.abs(res.values))))
    assert sups[1] < sups[0] / 3.0  # second order: about a quarter


def test_eigenvalue_oscillator_1d():
    # ground energy of -d^2/dx^2 + x^2 is 1; truncation at 8 is negligible
    g = make_grid("box", 8.0, 0.05, 1)
    f = sample(SourceSpec("power", alpha=2.0), g)
    lam, info = hopf_cole_eigenvalue(f)
    assert lam == pytest.approx(1.0, abs=1e-2)
    assert info["residual"] <= 1e-8 * max(1.0, lam)


def test_eigenvalue_oscillator_1d_against_gaussian_ground_state():
    # direct residual of the classical ground state exp(-x^2/2)
    g = make_grid("box", 8.0, 0.05, 1)
    x = g.axis_coords()[1:-1]
    h = g.spacing
    w = np.exp(-(x**2) / 2.0)
    lap = (np.roll(w, -1) - 2.0 * w + np.roll(w, 1)) / h**2
    res = (-lap + x**2 * w - 1.0 * w)[1:-1] / np.max(w)
    assert float(np.max(np.abs(res))) < 5e-3  # O(h^2) + truncation


def test_eigenvalue_oscillator_2d():
    g = make_grid("box", 8.0, 0.1, 2)
    f = sample(SourceSpec("power", alpha=2.0), g)
    lam, _ = hopf_cole_eigenvalue(f)
    assert lam == pytest.approx(2.0, abs=2e-2)


def test_eigenvalue_box_doubling_certifies_truncation():
    vals = []
    for hw in (4.0, 8.0):
        g = make_grid("box", hw, 0.05, 1)
        f = sample(SourceSpec("power", alpha=2.0), g)
        vals.append(hopf_cole_eigenvalue(f)[0])
    assert abs(vals[1] - vals[0]) < 1e-3


def test_eigenvalue_diagonal_shift_identity():
    g = make_grid("box", 6.0, 0.05, 1)
    f = sample(SourceSpec("power", alpha=2.0), g)
    lam, _ = hopf_cole_eigenvalue(f)
    lam_shifted, _ = hopf_cole_eigenvalue(GridFunction(g, f.values + 3.0))
    assert lam_shifted - lam == pytest.approx(3.0, abs=1e-7)


def test_parabolic_transform_preserves_constants():
    # f = 0: the linear flow keeps exp(-c) flat away from the boundary ring;
    # the short horizon keeps the closure's influence exp(-far^2/4t) small
    g = make_grid("box", 4.0, 0.1, 1)
    f = GridFunction(g, np.zeros(g.shape))
    u0 = GridFunction(g, np.full(g.shape, 1.5))
    (u,) = hopf_cole_parabolic(f, u0, [0.1])
    mid = restrict(u, 1.0)
    assert np.allclose(mid.values, 1.5, atol=1e-6)


def test_parabolic_transform_agrees_with_nonlinear_solver():
    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    h = 0.0125
    g = make_grid("box", 8.0, h, 1)
    f = sample(p.source, g)
    u0 = sample(InitialSpec("zero"), g)
    (u_lin,) = hopf_cole_parabolic(f, u0, [5.0])
    u_non = evolve(p, g, 5.0).u
    diff = sup_norm_diff(restrict(u_lin, 2.0), restrict(u_non, 2.0))
    assert diff < 0.05


def test_parabolic_transform_late_slope_matches_eigenvalue():
    g = make_grid("box", 8.0, 0.025, 1)
    f = sample(SourceSpec("power", alpha=2.0), g)
    u0 = sample(InitialSpec("zero"), g)
    u4, u5 = hopf_cole_parabolic(f, u0, [4.0, 5.0])
    slope = float(np.mean(restrict(u5, 2.0).values) - np.mean(restrict(u4, 2.0).values))
    assert slope == pytest.approx(1.0, abs=0.02)


def test_parabolic_transform_fields_come_from_one_integration():
    # the earlier field is the prefix of the same trajectory, so it matches a
    # run stopped there bit for bit; unsorted times are refused
    g = make_grid("box", 4.0, 0.125, 1)
    f = sample(SourceSpec("power", alpha=2.0), g)
    u0 = sample(InitialSpec("zero"), g)
    u1, u2 = hopf_cole_parabolic(f, u0, [1.0, 2.0])
    (alone,) = hopf_cole_parabolic(f, u0, [1.0])
    assert np.array_equal(u1.values, alone.values)
    assert not np.array_equal(u1.values, u2.values)
    with pytest.raises(ConfigError):
        hopf_cole_parabolic(f, u0, [2.0, 1.0])


def test_rescaling_reproduces_unrescaled_run_bitwise():
    # power-of-two rescaling commutes with the linear update, so forcing a
    # rescale every step must reproduce the plain trajectory exactly
    from ergodic_hj import kernels

    g = make_grid("box", 4.0, 0.125, 1)
    f = sample(SourceSpec("power", alpha=2.0), g)
    w_plain = np.exp(-sample(InitialSpec("zero"), g).values)
    w_plain[0] = w_plain[-1] = 0.0
    w_scaled = w_plain.copy()
    shift_exp = 0
    h = g.spacing
    dt = 0.4 / (2.0 / h**2 + float(np.max(f.values)))
    out = np.empty_like(w_plain)
    for _ in range(200):
        kernels.heat_step(w_plain, f.values, dt, h, out)
        w_plain, out = out, w_plain
        kernels.heat_step(w_scaled, f.values, dt, h, out)
        w_scaled, out = out, w_scaled
        w_scaled *= 2.0
        shift_exp -= 1
    assert np.array_equal(w_scaled * 2.0**shift_exp, w_plain)


def test_parabolic_transform_needs_box():
    g = make_grid("torus", 4.0, 0.5, 1)
    f = GridFunction(g, np.ones(g.shape))
    u0 = GridFunction(g, np.zeros(g.shape))
    with pytest.raises(ConfigError):
        hopf_cole_parabolic(f, u0, [1.0])


def test_solver_vs_eigenvalue_gap_stable_in_box_size():
    # the nonlinear route and the linear-algebra route agree within the
    # upwind bias, and the agreement does not degrade as the box grows
    import ergodic_hj as e

    p = ProblemSpec(m=2.0, source=SourceSpec("power", alpha=2.0), dim=1)
    gaps = []
    for hw in (4.0, 8.0):
        sc = e.solve_state_constraint(p, hw, 0.05)
        g = make_grid("box", hw, 0.05, 1)
        f = sample(p.source, g)
        eig, _ = hopf_cole_eigenvalue(f)
        gaps.append(abs(sc.constant - eig))
    assert gaps[0] < 0.05 and gaps[1] < 0.05
    assert gaps[1] <= gaps[0] + 5e-3
