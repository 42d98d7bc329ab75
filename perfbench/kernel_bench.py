"""Isolated step-kernel timings at the workloads' array sizes.

Times the kernels the active backend (``kernels.backend_name()``) dispatches
to, in ns per node.  When numba is importable, the numba and numpy variants
of each kernel are also compared: for m = 2 they must agree bitwise.

The arrays are a few KB to tens of KB, so they stay in L2; these are
per-call costs, not bandwidth figures.
"""

from __future__ import annotations

import time

import numpy as np

#: (name, kernel stem in ergodic_hj.kernels, shape, the workload array it mirrors)
STEP_CASES = (
    ("box_1d", "step_box_1d", (641,), "R=16 box at h=0.05 (all_1d_*)"),
    ("torus_1d", "step_torus_1d", (260,), "S=6.5 torus at h=0.05 (all_1d_m15)"),
    ("box_2d", "step_box_2d", (51, 51), "R=4 box at h=0.16 (ergodic_2d_m2)"),
    ("torus_2d", "step_torus_2d", (50, 50), "S=4 torus at h=0.16 (ergodic_2d_m2)"),
)
HEAT_CASE = ("heat_1d", "heat_step_dirichlet_1d", (641,), "oracle box R=8 at h=0.025")
EXPONENTS = (("m2", 2.0), ("m15", 1.5))
HALF_WIDTH = 4.0
GRAD_CAP = 8.0
BATCHES = 7
BATCH_SECONDS = 0.02


def _data(shape, m):
    axes = [np.linspace(-HALF_WIDTH, HALF_WIDTH, n) for n in shape]
    if len(shape) == 1:
        x = axes[0]
        return 0.5 * x**2 + 0.3 * np.cos(3.0 * x), np.abs(x) ** m
    X, Y = np.meshgrid(*axes, indexing="ij")
    u = 0.5 * (X**2 + Y**2) + 0.3 * np.cos(3.0 * X) * np.cos(2.0 * Y)
    return u, (X**2 + Y**2) ** (0.5 * m)


def _per_call(call):
    """Seconds per call: the fastest of a few batches of about 20 ms each.

    On a shared host other tenants can slow a CPU by up to 2x for seconds
    at a time; the fastest batch is the one least disturbed by them."""
    call()  # warm-up (and jit compile for numba)
    t0 = time.perf_counter()
    call()
    single = max(time.perf_counter() - t0, 1e-7)
    n = max(1, int(BATCH_SECONDS / single))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(n):
            call()
        samples.append((time.perf_counter() - t0) / n)
    return min(samples)


def run(kernels) -> dict:
    """Metrics (name -> ns/node), per-case details, and the list of problems."""
    backend = kernels.backend_name()
    metrics, details, problems = {}, [], []
    for name, stem, shape, mirrors in STEP_CASES:
        h = 2.0 * HALF_WIDTH / (shape[0] - 1)
        inv_h = 1.0 / h
        for tag, m in EXPONENTS:
            u, f = _data(shape, m)
            dt = 0.9 / (2.0 * len(shape) / h**2 + m * GRAD_CAP ** (m - 1.0) / h)
            out = np.empty_like(u)
            fn = getattr(kernels, stem)
            sec = _per_call(lambda: fn(u, f, dt, inv_h, inv_h * inv_h, m, out))
            metrics[f"kernels.{name}.{tag}.ns_per_node"] = 1e9 * sec / u.size
            row = {"case": f"{name}.{tag}", "shape": list(shape), "mirrors": mirrors,
                   "backend": backend, "ns_per_node": 1e9 * sec / u.size}
            if kernels.NUMBA_AVAILABLE:
                row.update(_compare_backends(kernels, stem, u, f, dt, inv_h, m))
                if m == 2.0 and row["max_abs_diff"] != 0.0:
                    problems.append(f"numba and numpy {name} kernels differ for m = 2")
            details.append(row)
    name, stem, shape, mirrors = HEAT_CASE
    h = 2.0 * HALF_WIDTH / (shape[0] - 1)
    w, pot = _data(shape, 2.0)
    dt = 0.9 / (2.0 / h**2 + float(pot.max()))
    out = np.empty_like(w)
    fn = getattr(kernels, stem)
    sec = _per_call(lambda: fn(w, pot, dt, 1.0 / h**2, out))
    metrics[f"kernels.{name}.ns_per_node"] = 1e9 * sec / w.size
    details.append({"case": name, "shape": list(shape), "mirrors": mirrors,
                    "backend": backend, "ns_per_node": 1e9 * sec / w.size})
    return {"metrics": metrics, "details": details, "problems": problems}


def _compare_backends(kernels, stem, u, f, dt, inv_h, m):
    outs, times = {}, {}
    for backend in ("numba", "numpy"):
        fn = getattr(kernels, f"{stem}_{backend}")
        out = np.empty_like(u)
        times[backend] = _per_call(lambda: fn(u, f, dt, inv_h, inv_h * inv_h, m, out))
        outs[backend] = out.copy()
    return {
        "numba_ns_per_node": 1e9 * times["numba"] / u.size,
        "numpy_ns_per_node": 1e9 * times["numpy"] / u.size,
        "max_abs_diff": float(np.max(np.abs(outs["numba"] - outs["numpy"]))),
    }
