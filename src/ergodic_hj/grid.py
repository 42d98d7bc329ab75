"""Uniform Cartesian grids on truncated boxes and tori, plus nodal functions.

Boxes stand in for balls (a monotone first-order scheme gains nothing from
spherical geometry); tori carry the periodic problems.  Node counts are odd
so the origin is always a node, which every profile normalization relies on.
Torus grids store one value per physical node: index 0 and index
nodes_per_axis - 1 are the same point and the duplicate is not stored.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, GridMismatchError


@dataclass(frozen=True)
class Grid:
    kind: str  # "box" or "torus"
    half_width: float
    nodes_per_axis: int
    dim: int = 1

    def __post_init__(self):
        if self.kind not in ("box", "torus"):
            raise ConfigError(f"unknown grid kind {self.kind!r}")
        if self.dim not in (1, 2):
            raise ConfigError("dim must be 1 or 2")
        # restriction windows may be tiny; run grids get the >= 9 check in make_grid
        if self.nodes_per_axis < 3 or self.nodes_per_axis % 2 == 0:
            raise ConfigError(
                f"nodes_per_axis must be odd and >= 3, got {self.nodes_per_axis}"
            )
        if not self.half_width > 0:
            raise ConfigError("half_width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.nodes_per_axis - 1)

    @property
    def periodic(self) -> bool:
        return self.kind == "torus"

    @property
    def n_store(self) -> int:
        # tori drop the duplicate end node
        return self.nodes_per_axis - 1 if self.periodic else self.nodes_per_axis

    @property
    def shape(self) -> tuple:
        return (self.n_store,) * self.dim

    @property
    def origin_index(self) -> tuple:
        return ((self.nodes_per_axis - 1) // 2,) * self.dim

    def axis_coords(self) -> np.ndarray:
        h = self.spacing
        return -self.half_width + h * np.arange(self.n_store)

    def meshed_coords(self):
        """Coordinate arrays shaped like ``shape`` (one array per axis)."""
        ax = self.axis_coords()
        if self.dim == 1:
            return (ax,)
        return np.meshgrid(ax, ax, indexing="ij")


def interior_grid(g: Grid) -> Grid:
    """The box shrunk by one node per side, where box-interior fields live."""
    return Grid(
        kind="box",
        half_width=g.half_width - g.spacing,
        nodes_per_axis=g.nodes_per_axis - 2,
        dim=g.dim,
    )


def make_grid(kind: str, half_width: float, spacing: float, dim: int = 1) -> Grid:
    """Build a grid from a requested spacing; the actual spacing is rederived
    from the integer node count so node coordinates stay reproducible."""
    steps = 2.0 * half_width / spacing
    n_int = int(round(steps))
    if abs(steps - n_int) > 1e-9 * max(1.0, steps):
        raise ConfigError(
            f"spacing {spacing} does not divide the width {2 * half_width} evenly"
        )
    if n_int % 2 != 0:
        raise ConfigError(
            "spacing must place a node at the origin (even step count per width)"
        )
    if n_int + 1 < 9:
        raise ConfigError(
            f"run grids need at least 9 nodes per axis, got {n_int + 1}; "
            "refine the spacing"
        )
    return Grid(kind=kind, half_width=half_width, nodes_per_axis=n_int + 1, dim=dim)


@dataclass(frozen=True)
class GridFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            bad = np.argwhere(~np.isfinite(v))[0]
            raise ValueError(f"non-finite value at node index {tuple(bad)}")
        object.__setattr__(self, "values", v)

    def value_at_origin(self) -> float:
        return float(self.values[self.grid.origin_index])


def sample(spec_or_fn, grid: Grid) -> GridFunction:
    """Evaluate a source/initial spec or a plain callable at every node."""
    from . import problem as _p

    coords = grid.meshed_coords()
    if isinstance(spec_or_fn, _p.SourceSpec):
        vals = _p.eval_source(spec_or_fn, *coords)
    elif isinstance(spec_or_fn, _p.InitialSpec):
        vals = _p.eval_initial(spec_or_fn, *coords)
    else:
        vals = spec_or_fn(*coords)
    vals = np.asarray(vals, dtype=float)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(vals))[0]
        pt = tuple(c[tuple(bad)] if np.ndim(c) else float(c) for c in coords)
        raise ValueError(f"evaluation produced a non-finite value at node {pt}")
    return GridFunction(grid, vals)


def window_slices(grid: Grid, window_half_width: float) -> tuple:
    """Index slices selecting the aligned sub-box [-w, w]^dim."""
    h = grid.spacing
    steps = window_half_width / h
    k = int(round(steps))
    if abs(steps - k) > 1e-9 * max(1.0, steps):
        lo = np.floor(steps) * h
        hi = np.ceil(steps) * h
        raise AlignmentError(
            f"window half-width {window_half_width} is not node-aligned; "
            f"nearest aligned widths are {lo:.12g} and {hi:.12g}",
            nearest=(lo, hi),
        )
    center = (grid.nodes_per_axis - 1) // 2
    if k > center or (grid.periodic and center + k >= grid.n_store):
        raise AlignmentError(
            f"window half-width {window_half_width} exceeds the grid extent"
        )
    sl = slice(center - k, center + k + 1)
    return (sl,) * grid.dim


def restrict(gf: GridFunction, window_half_width: float) -> GridFunction:
    """Copy of the function on the compact window [-w, w]^dim (box grid)."""
    slices = window_slices(gf.grid, window_half_width)
    k = (slices[0].stop - slices[0].start - 1) // 2
    sub = Grid(
        kind="box",
        half_width=window_half_width,
        nodes_per_axis=2 * k + 1,
        dim=gf.grid.dim,
    )
    return GridFunction(sub, gf.values[slices].copy())


def grids_equal(a: Grid, b: Grid, tol=1e-9) -> bool:
    """Same discretization up to float rounding in the recorded half-width."""
    return (
        a.kind == b.kind
        and a.dim == b.dim
        and a.nodes_per_axis == b.nodes_per_axis
        and abs(a.half_width - b.half_width) <= tol * max(1.0, abs(a.half_width))
    )


def sup_norm_diff(a: GridFunction, b: GridFunction) -> float:
    """max over nodes of |a - b|; both functions must share a grid."""
    if not grids_equal(a.grid, b.grid):
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    return float(np.max(np.abs(a.values - b.values)))


def grids_aligned(a: Grid, b: Grid, tol=1e-9) -> bool:
    """True when the two grids share spacing and node placement (origin node)."""
    return a.dim == b.dim and abs(a.spacing - b.spacing) <= tol * max(
        a.spacing, b.spacing
    )


def torus_values_on_window(gf: GridFunction, window_half_width: float) -> GridFunction:
    """Periodic function evaluated on a box window, wrapping indices as needed.

    Unlike ``restrict`` this may extend past the fundamental cell.
    """
    g = gf.grid
    if not g.periodic:
        raise GridMismatchError("torus_values_on_window expects a torus function")
    h = g.spacing
    steps = window_half_width / h
    k = int(round(steps))
    if abs(steps - k) > 1e-9 * max(1.0, steps):
        raise AlignmentError(
            f"window half-width {window_half_width} is not node-aligned"
        )
    n = g.n_store
    center = (g.nodes_per_axis - 1) // 2
    idx = np.mod(center + np.arange(-k, k + 1), n)
    sub = Grid(kind="box", half_width=k * h, nodes_per_axis=2 * k + 1, dim=g.dim)
    if g.dim == 1:
        vals = gf.values[idx]
    else:
        vals = gf.values[np.ix_(idx, idx)]
    return GridFunction(sub, vals.copy())


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def export_csv(gf: GridFunction, path, header_lines=()):
    """Write (x[, y], value) rows; values use repr for exact round-trips."""
    coords = gf.grid.meshed_coords()
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        if gf.grid.dim == 1:
            fh.write("x,value\n")
            for x, v in zip(coords[0], gf.values):
                fh.write(f"{float(x)!r},{float(v)!r}\n")
        else:
            fh.write("x,y,value\n")
            X, Y = coords
            for i in range(gf.values.shape[0]):
                for j in range(gf.values.shape[1]):
                    fh.write(
                        f"{float(X[i, j])!r},{float(Y[i, j])!r},"
                        f"{float(gf.values[i, j])!r}\n"
                    )


def import_table(path):
    """Read a two- or three-column CSV into table data for custom_table specs."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                continue  # header line
    if not rows:
        raise ConfigError(f"no numeric rows found in {path}")
    arr = np.asarray(rows, dtype=float)
    if arr.shape[1] == 2:
        order = np.argsort(arr[:, 0])
        return (arr[order, 0], arr[order, 1])
    if arr.shape[1] == 3:
        xs = np.unique(arr[:, 0])
        ys = np.unique(arr[:, 1])
        if len(xs) * len(ys) != arr.shape[0]:
            raise ConfigError("2D table must cover a complete rectangular lattice")
        grid = np.full((len(xs), len(ys)), np.nan)
        ix = np.searchsorted(xs, arr[:, 0])
        iy = np.searchsorted(ys, arr[:, 1])
        grid[ix, iy] = arr[:, 2]
        if np.any(~np.isfinite(grid)):
            raise ConfigError("2D table has missing lattice entries")
        return (xs, ys, grid)
    raise ConfigError("table CSV must have two or three columns")
