"""Acceptance suite: every exit criterion, one test each, one printed line each.

Benchmarks:
* oscillator: m = 2, f = |x|^2 (ground truth via the logarithmic transform,
  continuum constant N);
* manufactured family: f = |x|^m with profile |x|^2/2 and constant N, valid
  for every admissible exponent.

Grid policy: one fixed spacing per ladder (0.025 in 1D, 0.05 in 2D) so the
box half-width is the only knob a ladder varies.
"""

import filecmp
import math
import os

import numpy as np
import pytest

import ergodic_hj as e
from ergodic_hj import kernels
from ergodic_hj.asymptotics import barrier_check_lower, barrier_check_upper
from ergodic_hj.cli import main as cli_main
from ergodic_hj.reference import manufactured, manufactured_oscillatory

H1D = 0.025
H2D = 0.05
LADDER_1D = (4.0, 8.0, 16.0)
CUTOFFS_1D = (16.0, 32.0)
LADDER_2D = (4.0, 8.0)


def _announce(num, passed, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {text}")
    assert passed, text


def _problem(m, dim):
    return e.ProblemSpec(m=m, source=e.SourceSpec("power", alpha=m), dim=dim)


@pytest.fixture(scope="module")
def osc1d():
    return _problem(2.0, 1)


@pytest.fixture(scope="module")
def ladder_1d(osc1d):
    return [e.solve_state_constraint(osc1d, R, H1D) for R in LADDER_1D]


@pytest.fixture(scope="module")
def periodic_1d(osc1d):
    return [e.solve_periodic(osc1d, c, H1D) for c in CUTOFFS_1D]


@pytest.fixture(scope="module")
def estimate_1d(ladder_1d, periodic_1d):
    return e.estimate_lambda_star(ladder_1d, periodic_1d)


@pytest.fixture(scope="module")
def manufactured_ladders():
    out = {}
    for m in (1.2, 1.5):
        p = _problem(m, 1)
        runs = [e.solve_state_constraint(p, R, H1D) for R in LADDER_1D]
        per = [e.solve_periodic(p, 16.0, H1D)]
        out[m] = (p, runs, per, e.estimate_lambda_star(runs, per))
    return out


@pytest.fixture(scope="module")
def osc2d():
    return _problem(2.0, 2)


@pytest.fixture(scope="module")
def ladder_2d(osc2d):
    return [e.solve_state_constraint(osc2d, R, H2D) for R in LADDER_2D]


@pytest.fixture(scope="module")
def periodic_2d(osc2d):
    return [e.solve_periodic(osc2d, 16.0, H2D)]


@pytest.fixture(scope="module")
def estimate_2d(ladder_2d, periodic_2d):
    return e.estimate_lambda_star(ladder_2d, periodic_2d)


@pytest.fixture(scope="module")
def longtime_osc(osc1d, ladder_1d, estimate_1d):
    phi_ref = ladder_1d[-1].profile
    report = e.run_large_time(
        osc1d, estimate_1d.value, phi_ref, 20.0, 16.0, H1D, window_half_width=2.0
    )
    return report


@pytest.fixture(scope="module")
def resolution_constant():
    # calibrate the h^2 constant of the scaled residuals by refinement on a
    # transcendental exact pair, then keep a 4x safety factor
    oracle = manufactured_oscillatory(2.0, 1)
    worst = [1.0]
    for h in (0.05, 0.025):
        g = e.make_grid("box", 3.0, h, 1)
        phi = e.sample(oracle.phi, g)
        f = e.sample(oracle.source, g)
        for mu in (1.0, 1.5, 2.0):
            r = e.residual_scaled_super(mu, oracle.lambda_exact, phi, f, 2.0)
            worst.append(max(-r, 0.0) / (h * h))
    return 4.0 * max(worst)


def test_criterion_01_transform_benchmark(estimate_1d, estimate_2d):
    ok1 = abs(estimate_1d.value - 1.0) <= 0.05
    ok2 = abs(estimate_2d.value - 2.0) <= 0.1
    _announce(
        1,
        ok1 and ok2,
        f"transform benchmark: 1D estimate {estimate_1d.value:.4f} (target 1, "
        f"tol 0.05), 2D estimate {estimate_2d.value:.4f} (target 2, tol 0.1)",
    )


def test_criterion_02_manufactured_benchmark(manufactured_ladders, ladder_1d, estimate_1d):
    details = []
    ok = True
    cases = [(2.0, estimate_1d, ladder_1d)] + [
        (m, est, runs) for m, (p, runs, per, est) in manufactured_ladders.items()
    ]
    for m, est, runs in cases:
        lam_ok = abs(est.value - 1.0) <= 0.05
        phi_k = e.restrict(runs[-1].profile, 2.0)
        exact = e.sample(manufactured(m, 1).phi, phi_k.grid)
        sup = float(np.max(np.abs(phi_k.values - exact.values)))
        phi_ok = sup <= 0.05
        ok = ok and lam_ok and phi_ok
        details.append(f"m={m}: value {est.value:.4f}, profile sup {sup:.4f}")
    _announce(2, ok, "manufactured benchmark (tol 0.05): " + "; ".join(details))


def test_criterion_03_monotonicity_suite(
    ladder_1d, manufactured_ladders, ladder_2d, osc1d
):
    tol_mono = 1e-2
    ok = True
    details = []
    ladders = [("osc1d", ladder_1d, 0.0), ("osc2d", ladder_2d, 0.0)]
    for m, (p, runs, per, est) in manufactured_ladders.items():
        ladders.append((f"m={m}", runs, 0.0))
    for name, runs, fmin in ladders:
        consts = [r.constant for r in sorted(runs, key=lambda r: r.half_width)]
        mono = all(consts[i] >= consts[i + 1] - tol_mono for i in range(len(consts) - 1))
        floor = all(c >= fmin - tol_mono for c in consts)
        ok = ok and mono and floor
        details.append(f"{name}: {['%.4f' % c for c in consts]}")
    _announce(3, ok, "ladder constants nonincreasing and above min f: " + "; ".join(details))


def test_criterion_04_large_time_convergence(longtime_osc, manufactured_ladders):
    rep = longtime_osc
    errs = [r.sup_error for r in rep.history]
    tail = errs[-max(len(errs) // 4, 2) :]
    osc_ok = (
        rep.converged
        and rep.final_sup_error <= 0.05
        and errs[-1] <= min(tail) + 1e-3
        and rep.final_flatness <= 0.1
    )
    p, runs, per, est = manufactured_ladders[1.5]
    rep15 = e.run_large_time(
        p, est.value, runs[1].profile, 20.0, 8.0, H1D, window_half_width=2.0
    )
    manu_ok = rep15.converged and rep15.final_sup_error <= 0.05 and rep15.final_flatness <= 0.1
    _announce(
        4,
        osc_ok and manu_ok,
        f"large-time convergence by T=20: oscillator sup {rep.final_sup_error:.2e} "
        f"flat {rep.final_flatness:.2e}; m=1.5 sup {rep15.final_sup_error:.2e}",
    )


def test_criterion_05_initial_data_independence(osc1d, ladder_1d, estimate_1d):
    phi_ref = ladder_1d[-1].profile
    lam = estimate_1d.value
    g8 = e.make_grid("box", 8.0, H1D, 1)
    phi8 = e.restrict(phi_ref, 8.0)
    starts = {
        "zero": None,
        "phi": e.GridFunction(phi8.grid, phi8.values.copy()),
        "phi5": e.GridFunction(phi8.grid, phi8.values + 5.0),
        "bump": e.sample(e.InitialSpec("bump", amplitude=1.0, width=1.0), g8),
    }
    reports = {
        name: e.run_large_time(
            osc1d, lam, phi_ref, 20.0, 8.0, H1D, window_half_width=2.0, initial=u0
        )
        for name, u0 in starts.items()
    }
    # same growth rate: final window slopes within the bracket gap (or 1e-3,
    # which bounds the readout noise of the window slopes)
    slopes = {}
    for name, rep in reports.items():
        t1, tN = rep.history[-5].t, rep.history[-1].t
        c1, cN = rep.history[-5].c_of_t, rep.history[-1].c_of_t
        slopes[name] = lam + (cN - c1) / (tN - t1)
    slope_spread = max(slopes.values()) - min(slopes.values())
    slope_ok = slope_spread <= max(estimate_1d.gap, 1e-3)
    # same profile on the window
    profs = {}
    for name, rep in reports.items():
        t, v = rep.snapshots[-1]
        vk = e.restrict(v, 2.0)
        profs[name] = vk.values - np.mean(vk.values)
    prof_spread = max(
        float(np.max(np.abs(profs[a] - profs[b])))
        for a in profs
        for b in profs
    )
    prof_ok = prof_spread <= 0.05
    shift = reports["phi5"].c_hat - reports["phi"].c_hat
    shift_ok = abs(shift - 5.0) <= 0.02
    _announce(
        5,
        slope_ok and prof_ok and shift_ok,
        f"initial-data independence: slope spread {slope_spread:.2e} "
        f"(gap {estimate_1d.gap:.2e}), profile spread {prof_spread:.2e}, "
        f"offset shift {shift:.6f} (target 5 +- 0.02)",
    )


def test_criterion_06_barrier_suite(
    osc1d, ladder_1d, periodic_1d, estimate_1d, longtime_osc, resolution_constant
):
    phi_ref = ladder_1d[-1].profile
    rep = longtime_osc
    ok = True
    details = []
    m_vals = []
    for run in ladder_1d:
        v = barrier_check_upper(
            run,
            phi_ref,
            estimate_1d.value,
            rep.c_hat,
            0.1,
            rep,
            osc1d,
            resolution_constant=resolution_constant,
        )
        ok = ok and v.passed
        m_vals.append(abs(v.offset_min))
        details.append(f"upper R={run.half_width:g}: res {v.residual_extreme:.1e}")
    m_decreasing = all(
        m_vals[i + 1] <= m_vals[i] + 5e-3 for i in range(len(m_vals) - 1)
    ) and m_vals[-1] <= 0.02
    mt_vals = []
    for run in periodic_1d:
        v = barrier_check_lower(
            run,
            phi_ref,
            estimate_1d.value,
            rep.c_hat,
            0.1,
            rep,
            osc1d,
            resolution_constant=resolution_constant,
        )
        ok = ok and v.passed
        mt_vals.append(abs(v.offset_min))
        details.append(f"lower cut={run.cutoff:g}: res {v.residual_extreme:.1e}")
    mt_decreasing = all(
        mt_vals[i + 1] <= mt_vals[i] + 5e-3 for i in range(len(mt_vals) - 1)
    ) and mt_vals[-1] <= 0.02
    _announce(
        6,
        ok and m_decreasing and mt_decreasing,
        f"barriers at eps=0.1: {'; '.join(details)}; "
        f"|m_R| {['%.1e' % v for v in m_vals]}, |m~_R| {['%.1e' % v for v in mt_vals]}",
    )


def test_criterion_07_simplicity_machinery(
    osc1d,
    ladder_1d,
    estimate_1d,
    manufactured_ladders,
    osc2d,
    ladder_2d,
    estimate_2d,
    resolution_constant,
):
    ok = True
    details = []
    benchmarks = [(osc1d, ladder_1d, estimate_1d.value)]
    for m, (p, runs, per, est) in manufactured_ladders.items():
        benchmarks.append((p, runs, est.value))
    benchmarks.append((osc2d, ladder_2d, estimate_2d.value))
    for prob, runs, lam in benchmarks:
        for run in runs:
            f = e.sample(prob.source, run.profile.grid)
            rep = e.scaling_check_super(
                run, lam, f, prob.m, resolution_constant=resolution_constant
            )
            ok = ok and rep.passed
            r2 = e.residual_scaled_super(2.0, run.constant, run.profile, f, prob.m)
            ok = ok and r2 >= rep.threshold
    details.append("scaled supersolution residuals within -C h^2 for mu in [1, 2]")
    # argmax confinement against the lambda_1 certificate
    lam1_1d = e.solve_state_constraint(osc1d, 1.0, 0.00625).constant
    points = []
    for run in ladder_1d:
        f = e.sample(osc1d.source, run.profile.grid)
        exact = e.sample(manufactured(2.0, 1).phi, run.profile.grid)
        cand = e.GridFunction(exact.grid, exact.values + 5.0)
        rep = e.argmax_confinement(cand, run, estimate_1d.value, lam1_1d, f)
        ok = ok and rep.passed
        points.append(max(abs(c) for c in rep.point))
    confined_1d = max(points) <= 2.0
    lam1_2d = e.solve_state_constraint(osc2d, 1.0, 0.025).constant
    for run in ladder_2d:
        f = e.sample(osc2d.source, run.profile.grid)
        exact = e.sample(manufactured(2.0, 2).phi, run.profile.grid)
        cand = e.GridFunction(exact.grid, exact.values + 5.0)
        rep = e.argmax_confinement(cand, run, estimate_2d.value, lam1_2d, f)
        ok = ok and rep.passed
    details.append(
        f"argmax within |x| <= 2 across the ladder (max {max(points):.3f}), "
        f"f(x_R) <= 1 + lambda_1 + 0.05 with lambda_1 = {lam1_1d:.3f}"
    )
    _announce(7, ok and confined_1d, "; ".join(details))


def test_criterion_08_scheme_property_tests():
    rng = np.random.default_rng(2024)
    # (a) update monotone in neighbor values: >= 1000 ordered pairs, pinned node
    violations = 0
    g = e.make_grid("box", 1.0, 0.125, 1)
    for m in (2.0, 1.5):
        for _ in range(400):
            u = rng.normal(size=g.shape)
            w = u + rng.uniform(0.0, 1.0, size=g.shape)
            node = int(rng.integers(1, g.n_store - 1))
            w[node] = u[node]
            f = np.zeros(g.shape)
            dt = 1e-3 * g.spacing**2
            ou = kernels.vhj_step(u, f, dt, g.spacing, m, False)
            ow = kernels.vhj_step(w, f, dt, g.spacing, m, False)
            if ou[node] > ow[node]:
                violations += 1
    g2 = e.make_grid("box", 1.0, 0.25, 2)
    for _ in range(300):
        u = rng.normal(size=g2.shape)
        w = u + rng.uniform(0.0, 1.0, size=g2.shape)
        node = (int(rng.integers(1, g2.n_store - 1)), int(rng.integers(1, g2.n_store - 1)))
        w[node] = u[node]
        f = np.zeros(g2.shape)
        dt = 1e-3 * g2.spacing**2
        ou = kernels.vhj_step(u, f, dt, g2.spacing, 2.0, False)
        ow = kernels.vhj_step(w, f, dt, g2.spacing, 2.0, False)
        if ou[node] > ow[node]:
            violations += 1
    mono_ok = violations == 0

    # (b) gradient stencil positively homogeneous: bitwise for m = 2 with
    # dyadic factors (multiplications and squares only), last-ulp otherwise
    # (pow does not distribute over products in floating point)
    g3 = e.make_grid("box", 2.0, 0.25, 1)
    u = e.GridFunction(g3, rng.normal(size=g3.shape))
    homog_ok = True
    base2 = e.numerical_hamiltonian(u, (8,), 2.0)
    for c in (0.5, 2.0, 4.0):
        scaled = e.GridFunction(g3, c * u.values)
        homog_ok = homog_ok and (
            e.numerical_hamiltonian(scaled, (8,), 2.0) == c**2.0 * base2
        )
    for m in (1.5, 1.2):
        base = e.numerical_hamiltonian(u, (8,), m)
        for c in (0.5, 2.0, 3.7):
            scaled = e.GridFunction(g3, c * u.values)
            got = e.numerical_hamiltonian(scaled, (8,), m)
            homog_ok = homog_ok and math.isclose(got, c**m * base, rel_tol=1e-13)

    # (c) central residual refinement slope 2 +- 0.2
    oracle = manufactured_oscillatory(1.5, 1)
    sups = []
    spacings = [0.1, 0.05, 0.025]
    for h in spacings:
        gg = e.make_grid("box", 3.0, h, 1)
        res = e.residual_ergodic(
            oracle.lambda_exact,
            e.sample(oracle.phi, gg),
            e.sample(oracle.source, gg),
            1.5,
            "central",
        )
        sups.append(float(np.max(np.abs(res.values))))
    slope = float(np.polyfit(np.log(spacings), np.log(sups), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.2

    # (d) comparison on the box and domain monotonicity on random instances
    p = _problem(2.0, 1)
    gc = e.make_grid("box", 2.0, 0.125, 1)
    x = gc.axis_coords()
    comparison_ok = True
    for _ in range(3):
        coeffs = rng.uniform(-0.5, 0.5, size=3)
        base = coeffs[0] + coeffs[1] * np.sin(x) + coeffs[2] * x**2
        base -= base.min()
        u0 = e.GridFunction(gc, base)
        w0 = e.GridFunction(gc, base + rng.uniform(0.0, 1.0, size=gc.shape))
        su = e.evolve(p, gc, 0.5, initial=u0)
        sw = e.evolve(p, gc, 0.5, initial=w0)
        comparison_ok = comparison_ok and np.all(su.u.values <= sw.u.values + 1e-10)
    small = e.evolve(p, e.make_grid("box", 4.0, 0.05, 1), 3.0)
    large = e.evolve(p, e.make_grid("box", 6.0, 0.05, 1), 3.0)
    dom_ok = np.all(
        e.restrict(large.u, 3.0).values <= e.restrict(small.u, 3.0).values + 5e-3
    )
    _announce(
        8,
        mono_ok and homog_ok and slope_ok and bool(comparison_ok) and bool(dom_ok),
        f"scheme properties: 1100 monotone pairs, {violations} violations; "
        f"homogeneity exact; residual slope {slope:.3f}; comparison and "
        f"domain monotonicity hold",
    )


def test_criterion_09_regularity_diagnostics(osc1d, ladder_1d, longtime_osc):
    # Hoelder-1/2 quotient stable when the sampling interval halves
    trace = longtime_osc
    snaps = None
    # rebuild a trace-like object from the retained report history is not
    # needed: rerun the window diagnostics through evolve at two rates
    st_fine = e.evolve(
        osc1d,
        e.make_grid("box", 8.0, H1D, 1),
        6.0,
        sample_interval=0.125,
        window_half_width=2.0,
    )
    q_fine = e.holder_quotient(st_fine.trace, tau=1.0, max_gap=1.0)
    thinned = [
        (t, v)
        for t, v in st_fine.trace.window_snapshots
        if abs(t / 0.25 - round(t / 0.25)) < 1e-9
    ]
    from ergodic_hj.parabolic import DiagnosticsTrace

    coarse = DiagnosticsTrace(window_half_width=2.0, slope_window=1.0)
    coarse.window_snapshots = thinned
    q_coarse = e.holder_quotient(coarse, tau=1.0, max_gap=1.0)
    change = abs(q_fine - q_coarse) / q_coarse
    holder_ok = math.isfinite(q_fine) and change < 0.10

    # gradient-bound ratio shows no growth trend across the ladder
    ratios = []
    for run in ladder_1d:
        f = e.sample(osc1d.source, run.profile.grid)
        out = e.gradient_monitor(run.profile, 2.0, source=f, m=2.0)
        ratios.append(out["ratio"])
    slope = float(
        np.polyfit(np.log(LADDER_1D), np.log(ratios), 1)[0]
    )
    ratio_ok = abs(slope) <= 0.1
    _announce(
        9,
        holder_ok and ratio_ok,
        f"regularity: Hoelder quotient {q_coarse:.3f} -> {q_fine:.3f} "
        f"({100 * change:.1f}% under sampling refinement); gradient-ratio "
        f"log-log slope vs R = {slope:.3f}",
    )


DETERMINISM_CFG = """\
problem:
  m: 2.0
  dim: 1
  source:
    family: power
    alpha: 2.0
  initial:
    family: zero
scheme:
  cfl_safety: 0.9
ergodic:
  ladder: [4.0, 8.0]
  cutoffs: [16.0]
  spacing: 0.05
longtime:
  horizon: 10.0
  box_half_width: 8.0
  spacing: 0.05
  window_half_width: 2.0
  epsilon: 0.1
  tolerance: 0.05
seed: 0
"""


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(DETERMINISM_CFG)
    outs = []
    for tag in ("a", "b"):
        erg = tmp_path / f"erg_{tag}"
        lt = tmp_path / f"lt_{tag}"
        assert cli_main(["ergodic", "--config", str(cfg), "--out", str(erg)]) == 0
        assert (
            cli_main(
                [
                    "longtime",
                    "--config",
                    str(cfg),
                    "--out",
                    str(lt),
                    "--artifacts",
                    str(erg),
                ]
            )
            == 0
        )
        outs.append((erg, lt))
    identical = True
    compared = 0
    for d1, d2 in ((outs[0][0], outs[1][0]), (outs[0][1], outs[1][1])):
        for name in sorted(os.listdir(d1)):
            if name == "timings.txt":
                continue
            identical = identical and filecmp.cmp(
                d1 / name, d2 / name, shallow=False
            )
            compared += 1
    _announce(
        10,
        identical and compared >= 8,
        f"sequential reruns byte-identical across {compared} report files",
    )
