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

#: relative tolerance of every spacing, width and node-alignment comparison
REL_TOL = 1e-9


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


def interior_values(g: Grid, values: np.ndarray) -> np.ndarray:
    """The nodal array on ``interior_grid(g)`` for a box, whole for a torus."""
    return values if g.periodic else values[(slice(1, -1),) * g.dim]


def make_grid(kind: str, half_width: float, spacing: float, dim: int = 1) -> Grid:
    """Build a grid from a requested spacing; the actual spacing is rederived
    from the integer node count so node coordinates stay reproducible."""
    steps = 2.0 * half_width / spacing
    n_int = int(round(steps))
    if abs(steps - n_int) > REL_TOL * max(1.0, steps):
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
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(v))[0])
            raise ValueError(f"non-finite value at node index {bad}")
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
        pt = tuple(float(c[tuple(bad)] if np.ndim(c) else c) for c in coords)
        raise ValueError(f"evaluation produced a non-finite value at node {pt}")
    return GridFunction(grid, vals)


def _aligned_steps(grid: Grid, window_half_width: float) -> int:
    """k with window_half_width = k h, or AlignmentError naming the nearest."""
    h = grid.spacing
    steps = window_half_width / h
    k = int(round(steps))
    if abs(steps - k) > REL_TOL * max(1.0, steps):
        lo = np.floor(steps) * h
        hi = np.ceil(steps) * h
        raise AlignmentError(
            f"window half-width {window_half_width} is not node-aligned; "
            f"nearest aligned widths are {lo:.12g} and {hi:.12g}",
            nearest=(lo, hi),
        )
    return k


def window_slices(grid: Grid, window_half_width: float) -> tuple:
    """Index slices selecting the aligned sub-box [-w, w]^dim.

    The slices select views, so on a torus the window must fit in the cell.
    """
    k = _aligned_steps(grid, window_half_width)
    center = (grid.nodes_per_axis - 1) // 2
    if k > center or (grid.periodic and center + k >= grid.n_store):
        raise AlignmentError(
            f"window half-width {window_half_width} exceeds the grid extent"
        )
    sl = slice(center - k, center + k + 1)
    return (sl,) * grid.dim


def restrict(gf: GridFunction, window_half_width: float) -> GridFunction:
    """Copy of the function on the compact window [-w, w]^dim (box grid).

    On a torus the indices wrap, so the window may extend past the cell.
    """
    g = gf.grid
    if g.periodic:
        k = _aligned_steps(g, window_half_width)
        idx = np.mod((g.nodes_per_axis - 1) // 2 + np.arange(-k, k + 1), g.n_store)
        vals = gf.values[np.ix_(*[idx] * g.dim)]
    else:
        vals = gf.values[window_slices(g, window_half_width)].copy()
    sub = Grid(
        kind="box",
        half_width=window_half_width,
        nodes_per_axis=vals.shape[0],
        dim=g.dim,
    )
    return GridFunction(sub, vals)


def grids_equal(a: Grid, b: Grid) -> bool:
    """Same discretization up to float rounding in the recorded half-width."""
    return (
        a.kind == b.kind
        and a.dim == b.dim
        and a.nodes_per_axis == b.nodes_per_axis
        and abs(a.half_width - b.half_width) <= REL_TOL * max(1.0, abs(a.half_width))
    )


def sup_norm_diff(a: GridFunction, b: GridFunction) -> float:
    """max over nodes of |a - b|; both functions must share a grid."""
    if not grids_equal(a.grid, b.grid):
        raise GridMismatchError(f"grids differ: {a.grid} vs {b.grid}")
    return float(np.max(np.abs(a.values - b.values)))


def grids_aligned(a: Grid, b: Grid) -> bool:
    """True when the two grids share spacing and node placement (origin node)."""
    return a.dim == b.dim and abs(a.spacing - b.spacing) <= REL_TOL * max(
        a.spacing, b.spacing
    )


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def write_table(path, header_lines, columns, rows):
    """Write one report table: ``# `` header lines, the column line, then rows.

    The one home of the report format.  Strings are written verbatim, with no
    quoting (so none may hold a comma); floats by repr, with nan and None as
    empty cells and inf as ``inf``; bools as 1/0; ints in decimal.  Each row
    is a sequence.  A large float table is fastest passed preformatted, each
    column as ``map(repr, col.tolist())``: a row of strings is joined as is.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {line}\n" for line in header_lines)
        fh.write(",".join(columns) + "\n")
        fh.writelines(map(_line, rows))


def _line(row):
    try:
        return ",".join(row) + "\n"
    except TypeError:  # not every cell is a string yet
        return ",".join(map(_cell, row)) + "\n"


def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, np.generic):
        v = v.item()
    if v is None or v != v:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    return repr(v)


def read_table(path):
    """Rows of a ``write_table`` file as dicts of column name -> cell text."""
    with open(path, newline="") as fh:
        lines = [ln.rstrip("\r\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        return []
    columns = lines[0].split(",")
    return [dict(zip(columns, ln.split(","))) for ln in lines[1:]]


def export_csv(gf: GridFunction, path, header_lines=()):
    """Write (x[, y], value) rows; values use repr for exact round-trips."""
    cols = [c.ravel().tolist() for c in gf.grid.meshed_coords()]
    cols.append(gf.values.ravel().tolist())
    names = ("x", "value") if gf.grid.dim == 1 else ("x", "y", "value")
    write_table(path, header_lines, names, zip(*[map(repr, c) for c in cols]))


def import_table(path):
    """Read a two- or three-column CSV into table data for custom_table specs.

    Skips ``#`` and blank lines, and the first other line if it is not
    numeric (a header); any later line that is not numeric, or has another
    number of cells than the first data row, is a ConfigError.
    """
    rows = []
    first = True
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            try:
                vals = [float(c) for c in row]
            except ValueError:
                vals = None
            if vals is not None and (not rows or len(vals) == len(rows[0])):
                rows.append(vals)
            elif vals is not None or not first:
                raise ConfigError(
                    f"{path} line {reader.line_num}: malformed row {','.join(row)}"
                )
            first = False
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
