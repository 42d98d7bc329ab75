"""Problem instances: gradient exponent, source and initial data, hypothesis checks.

Sources come from a small coercive family (pure powers, oscillating powers,
shifted powers) plus tabulated data; all built-ins are nonnegative and radial,
which keeps derivatives in closed form for the slope test on
|Df|^(1/(2m-1)) / |f|^(1/m).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CoercivityError, TableRangeError

SOURCE_FAMILIES = ("power", "power_oscillating", "shifted_power", "custom_table")
INITIAL_FAMILIES = ("zero", "quadratic_bowl", "bump", "custom_table")

#: angles per radius when scanning non-grid directions in 2D
DIRECTION_SAMPLES = 64
#: radial step of the coercivity and torus-size scans
SCAN_STEP = 0.01
#: torus half-widths are rounded up to a multiple of this
TORUS_ROUNDING = 0.25
#: centered-difference step for the gradient of a tabulated source
FD_STEP = 1e-4


@dataclass(frozen=True)
class SourceSpec:
    """Right-hand side f.  Built-ins: |x|^a, |x|^a*(2+A*sin|x|), |x|^a+shift."""

    family: str
    alpha: float = 2.0
    osc_amp: float = 0.0
    shift: float = 0.0
    table: tuple | None = None  # (xs, values) in 1D; (xs, ys, values grid) in 2D

    def __post_init__(self):
        if self.family not in SOURCE_FAMILIES:
            raise ConfigError(f"unknown source family {self.family!r}")
        if self.family != "custom_table":
            if not self.alpha > 0:
                raise ConfigError(f"growth exponent must be positive, got {self.alpha}")
            if self.osc_amp < 0:
                raise ConfigError("oscillation amplitude must be >= 0")
            if self.family == "power_oscillating" and not self.osc_amp < 2:
                raise ConfigError(
                    "oscillation amplitude must stay below 2 so the source is coercive"
                )
            if self.shift < 0:
                raise ConfigError("shift must be >= 0")
        else:
            if self.table is None:
                raise ConfigError("custom_table source needs table data")
            vals = np.asarray(self.table[-1], dtype=float)
            if vals.size and float(vals.min()) < 0.0:
                raise ConfigError("tabulated source values must be nonnegative")


@dataclass(frozen=True)
class InitialSpec:
    """Initial data u0; all built-ins are nonnegative and locally Lipschitz."""

    family: str = "zero"
    amplitude: float = 1.0
    width: float = 1.0
    table: tuple | None = None

    def __post_init__(self):
        if self.family not in INITIAL_FAMILIES:
            raise ConfigError(f"unknown initial family {self.family!r}")
        if self.family in ("quadratic_bowl", "bump") and self.amplitude < 0:
            raise ConfigError("initial data must be bounded below by 0")
        if self.family == "bump" and not self.width > 0:
            raise ConfigError("bump width must be positive")
        if self.family == "custom_table":
            if self.table is None:
                raise ConfigError("custom_table initial data needs table data")
            vals = np.asarray(self.table[-1], dtype=float)
            if vals.size and float(vals.min()) < 0.0:
                raise ConfigError("tabulated initial values must be nonnegative")


@dataclass(frozen=True)
class ProblemSpec:
    """The triple (m, f, u0) on R^N, N in {1, 2}, with 1 < m <= 2."""

    m: float
    source: SourceSpec
    initial: InitialSpec = field(default_factory=InitialSpec)
    dim: int = 1

    def __post_init__(self):
        if not 1.0 < self.m <= 2.0:
            raise ConfigError(
                f"gradient exponent must satisfy 1 < m <= 2, got {self.m}"
            )
        if self.dim not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {self.dim}")

    @property
    def m_conjugate(self) -> float:
        return self.m / (self.m - 1.0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _table_interp_1d(xs, vals, x):
    x = np.asarray(x, dtype=float)
    if np.any(x < xs[0] - 1e-12) or np.any(x > xs[-1] + 1e-12):
        raise TableRangeError(
            f"point outside table range [{xs[0]}, {xs[-1]}]"
        )
    return np.interp(x, xs, vals)


def _table_interp_2d(xs, ys, grid, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if (
        np.any(x < xs[0] - 1e-12)
        or np.any(x > xs[-1] + 1e-12)
        or np.any(y < ys[0] - 1e-12)
        or np.any(y > ys[-1] + 1e-12)
    ):
        raise TableRangeError("point outside table range")
    ix = np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2)
    iy = np.clip(np.searchsorted(ys, y) - 1, 0, len(ys) - 2)
    tx = np.clip((x - xs[ix]) / (xs[ix + 1] - xs[ix]), 0.0, 1.0)
    ty = np.clip((y - ys[iy]) / (ys[iy + 1] - ys[iy]), 0.0, 1.0)
    v00 = grid[ix, iy]
    v10 = grid[ix + 1, iy]
    v01 = grid[ix, iy + 1]
    v11 = grid[ix + 1, iy + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )


def _radius_sq(x, y=None):
    x = np.asarray(x, dtype=float)
    if y is None:
        return x * x
    y = np.asarray(y, dtype=float)
    return x * x + y * y


def eval_source(spec: SourceSpec, x, y=None):
    """Evaluate f at points; pure, bit-stable for repeated calls.

    1D: pass x only.  2D: pass both coordinate arrays (broadcastable).
    """
    if spec.family == "custom_table":
        if y is None:
            xs, vals = spec.table
            return _table_interp_1d(np.asarray(xs, float), np.asarray(vals, float), x)
        xs, ys, grid = spec.table
        return _table_interp_2d(
            np.asarray(xs, float), np.asarray(ys, float), np.asarray(grid, float), x, y
        )
    rsq = _radius_sq(x, y)
    if spec.family == "power":
        return rsq ** (0.5 * spec.alpha)
    if spec.family == "shifted_power":
        return rsq ** (0.5 * spec.alpha) + spec.shift
    # power_oscillating
    r = np.sqrt(rsq)
    return rsq ** (0.5 * spec.alpha) * (2.0 + spec.osc_amp * np.sin(r))


def source_radial_values(spec: SourceSpec, radii):
    """Min and max of f over sampled directions at each radius."""
    radii = np.asarray(radii, dtype=float)
    if spec.family == "custom_table" and len(spec.table) == 3:
        ang = np.linspace(0.0, 2.0 * np.pi, DIRECTION_SAMPLES, endpoint=False)
        ca, sa = np.cos(ang), np.sin(ang)
        lo = np.empty_like(radii)
        hi = np.empty_like(radii)
        for i, r in enumerate(radii):
            v = eval_source(spec, r * ca, r * sa)
            lo[i], hi[i] = float(np.min(v)), float(np.max(v))
        return lo, hi
    if spec.family == "custom_table":
        v_pos = eval_source(spec, radii)
        v_neg = eval_source(spec, -radii)
        return np.minimum(v_pos, v_neg), np.maximum(v_pos, v_neg)
    # built-ins are radial
    v = eval_source(spec, radii)
    return np.asarray(v, float), np.asarray(v, float)


def source_gradient_magnitude(spec: SourceSpec, radii):
    """|Df| at each radius, maximized over sampled directions.

    Built-ins are radial so |Df| = |df/dr| in closed form; tables fall back
    to centered finite differences.
    """
    radii = np.asarray(radii, dtype=float)
    a = spec.alpha
    if spec.family in ("power", "shifted_power"):
        return a * radii ** (a - 1.0)
    if spec.family == "power_oscillating":
        A = spec.osc_amp
        term = a * radii ** (a - 1.0) * (2.0 + A * np.sin(radii))
        term = term + radii**a * (A * np.cos(radii))
        return np.abs(term)
    # custom_table: centered differences along sampled directions (+-x in 1D)
    if len(spec.table) == 3:
        ang = np.linspace(0.0, 2.0 * np.pi, DIRECTION_SAMPLES, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        dirs = np.array([[1.0], [-1.0]])
    out = np.empty_like(radii)
    for i, r in enumerate(radii):
        best = 0.0
        for d in dirs:
            try:
                fp = eval_source(spec, *((r + FD_STEP) * d))
                fm = eval_source(spec, *((r - FD_STEP) * d))
            except TableRangeError:
                continue
            best = max(best, abs(float(fp) - float(fm)) / (2 * FD_STEP))
        out[i] = best
    return out


# ---------------------------------------------------------------------------
# hypothesis certificates
# ---------------------------------------------------------------------------


def _scan_radii(spec: SourceSpec, r_max, must_reach=0.0):
    """Scan grid and a horizon beyond which f provably exceeds everything seen.

    For the power families f >= (coef)*r^alpha with coef = 1 (power, shifted)
    or 2 - osc_amp (oscillating), so once that lower envelope beats the
    largest value relevant to the suffix minimum (and any explicit target in
    ``must_reach``) the scan can stop.
    """
    if spec.family == "custom_table":
        hi = _max_table_radius(spec)
        return np.arange(0.0, hi + SCAN_STEP / 2, SCAN_STEP), True
    coef = 2.0 - spec.osc_amp if spec.family == "power_oscillating" else 1.0
    # values seen up to r_max are at most (2+amp)*r_max^alpha + shift
    seen_cap = (2.0 + spec.osc_amp) * max(r_max, 1.0) ** spec.alpha + spec.shift + 1.0
    target = max(seen_cap, must_reach)
    horizon = (target / coef) ** (1.0 / spec.alpha) + 1.0
    horizon = max(horizon, r_max + 1.0)
    return np.arange(0.0, horizon + SCAN_STEP / 2, SCAN_STEP), False


def coercivity_envelope(spec: SourceSpec, radii):
    """phi(r) = inf of f outside radius r, by direction-and-radius sampling.

    Nondecreasing in r for any genuine source; a stagnating tail on a
    tabulated source signals a coercivity failure.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        return np.empty(0)
    if np.any(np.diff(radii) < 0) or np.any(radii < 0):
        raise ConfigError("radii must be nondecreasing and nonnegative")
    scan, _ = _scan_radii(spec, float(radii[-1]))
    lo, _ = source_radial_values(spec, scan)
    # suffix minimum over the scan gives inf beyond each scan point
    suffix = np.minimum.accumulate(lo[::-1])[::-1]
    idx = np.searchsorted(scan, radii - 1e-12)
    idx = np.clip(idx, 0, len(scan) - 1)
    return suffix[idx]


def _max_table_radius(spec: SourceSpec) -> float:
    xs = np.asarray(spec.table[0], float)
    hi = min(abs(float(xs[0])), abs(float(xs[-1])))
    if len(spec.table) == 3:
        ys = np.asarray(spec.table[1], float)
        hi = min(hi, abs(float(ys[0])), abs(float(ys[-1])))
    return hi


def h1_certificate(spec: SourceSpec, radii=None):
    """Heuristic coercivity check: the envelope must keep growing in the tail."""
    if radii is None:
        if spec.family == "custom_table":
            radii = np.linspace(0.0, 0.95 * _max_table_radius(spec), 24)
        else:
            radii = np.linspace(0.5, 12.0, 24)
    env = coercivity_envelope(spec, radii)
    monotone = bool(np.all(np.diff(env) >= -1e-12))
    half = len(env) // 2
    growing = bool(env[-1] > env[half] + 1e-9)
    return {
        "radii": np.asarray(radii, float),
        "envelope": env,
        "monotone": monotone,
        "growing_tail": growing,
        "plausible": monotone and growing,
    }


def check_h2_ratio(spec: SourceSpec, m: float, radii):
    """Ratio |Df|^(1/(2m-1)) / |f|^(1/m) maximized over directions per radius.

    Radii where f vanishes are skipped (ratio undefined there); skipped
    entries come back as NaN and are reported by the validator.
    """
    radii = np.asarray(radii, dtype=float)
    lo, hi = source_radial_values(spec, radii)
    grad = source_gradient_magnitude(spec, radii)
    out = np.full(radii.shape, np.nan)
    mask = lo > 0.0
    out[mask] = grad[mask] ** (1.0 / (2.0 * m - 1.0)) / lo[mask] ** (1.0 / m)
    return out


def h2_certificate(spec: SourceSpec, m: float, radii=None):
    """H2 plausibility: the ratio tail stays within 2x the sequence median."""
    if radii is None:
        if spec.family == "custom_table":
            hi = 0.95 * _max_table_radius(spec) - FD_STEP
            radii = np.geomspace(max(hi / 50.0, 10 * FD_STEP), hi, 25)
        else:
            radii = np.geomspace(1.0, 1000.0, 25)
    ratios = check_h2_ratio(spec, m, radii)
    finite = ratios[np.isfinite(ratios)]
    if finite.size < 4:
        return {
            "radii": np.asarray(radii, float),
            "ratios": ratios,
            "plausible": False,
            "skipped": int(np.sum(~np.isfinite(ratios))),
        }
    med = float(np.median(finite))
    tail = finite[finite.size // 2 :]
    plausible = bool(np.max(tail) <= 2.0 * med + 1e-12)
    return {
        "radii": np.asarray(radii, float),
        "ratios": ratios,
        "median": med,
        "plausible": plausible,
        "skipped": int(np.sum(~np.isfinite(ratios))),
    }


def torus_half_width(spec: SourceSpec, cutoff: float):
    """Smallest grid-friendly S with f >= cutoff everywhere outside radius S.

    Rounded up to a multiple of ``TORUS_ROUNDING`` so torus cells divide
    evenly into the standard spacings.
    """
    if cutoff <= 0:
        raise ConfigError("cutoff must be positive")
    scan, truncated = _scan_radii(spec, 1.0, must_reach=2.0 * cutoff)
    lo, _ = source_radial_values(spec, scan)
    suffix = np.minimum.accumulate(lo[::-1])[::-1]
    hits = np.nonzero(suffix >= cutoff)[0]
    if hits.size == 0:
        raise CoercivityError(
            f"source never exceeds cutoff {cutoff} within the search range"
            + (" (table truncated)" if truncated else "")
        )
    s_raw = float(scan[hits[0]])
    k = int(np.ceil(s_raw / TORUS_ROUNDING - 1e-9))
    return max(k * TORUS_ROUNDING, TORUS_ROUNDING)


def eval_initial(spec: InitialSpec, x, y=None):
    """Evaluate u0 at points."""
    if spec.family == "zero":
        rsq = _radius_sq(x, y)
        return np.zeros_like(np.asarray(rsq, dtype=float))
    if spec.family == "quadratic_bowl":
        return spec.amplitude * _radius_sq(x, y)
    if spec.family == "bump":
        rsq = _radius_sq(x, y)
        return spec.amplitude * np.exp(-rsq / (2.0 * spec.width**2))
    if y is None:
        xs, vals = spec.table
        return _table_interp_1d(np.asarray(xs, float), np.asarray(vals, float), x)
    xs, ys, grid = spec.table
    return _table_interp_2d(
        np.asarray(xs, float), np.asarray(ys, float), np.asarray(grid, float), x, y
    )
