"""Grids, grid functions, restriction, norms, CSV round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ergodic_hj import (
    AlignmentError,
    ConfigError,
    Grid,
    GridFunction,
    GridMismatchError,
    InitialSpec,
    SourceSpec,
    export_csv,
    import_table,
    make_grid,
    restrict,
    sample,
    sup_norm_diff,
)
from ergodic_hj.grid import read_table, window_slices, write_table


def test_node_coordinates_reproducible():
    g = make_grid("box", 4.0, 0.25, 1)
    h = g.spacing
    coords = g.axis_coords()
    for i in range(g.n_store):
        assert coords[i] == -4.0 + i * h  # bitwise: same formula


def test_origin_is_a_node():
    for hw, sp in [(4.0, 0.25), (8.0, 0.05), (1.0, 0.125)]:
        g = make_grid("box", hw, sp, 1)
        assert g.axis_coords()[g.origin_index[0]] == pytest.approx(0.0, abs=1e-12)


def test_even_node_count_rejected():
    with pytest.raises(ConfigError):
        Grid("box", 4.0, 10, 1)
    with pytest.raises(ConfigError):
        make_grid("box", 4.0, 1.6, 1)  # only 6 nodes: too few for a run grid


def test_torus_drops_duplicate_node():
    g = make_grid("torus", 4.0, 0.5, 1)
    assert g.nodes_per_axis == 17
    assert g.n_store == 16
    coords = g.axis_coords()
    assert coords[0] == pytest.approx(-4.0)
    assert coords[-1] == pytest.approx(4.0 - 0.5)  # +4 is identified with -4


def test_sample_power_node_values():
    # x = -1, -0.5, 0, 0.5, 1 sit at every other node of the 9-node grid
    g = make_grid("box", 1.0, 0.25, 1)
    gf = sample(SourceSpec("power", alpha=2.0), g)
    assert gf.values[::2] == pytest.approx([1.0, 0.25, 0.0, 0.25, 1.0])


def test_sample_bowl_node_values():
    g = make_grid("box", 2.0, 0.5, 1)
    gf = sample(lambda x: x**2 / 2.0, g)
    assert gf.values[::2] == pytest.approx([2.0, 0.5, 0.0, 0.5, 2.0])


def test_sample_zero_initial():
    g = make_grid("box", 4.0, 0.5, 2)
    gf = sample(InitialSpec("zero"), g)
    assert np.all(gf.values == 0.0)


def test_nonfinite_values_rejected():
    g = make_grid("box", 1.0, 0.25, 1)
    vals = np.zeros(g.shape)
    vals[3] = np.inf
    with pytest.raises(ValueError) as err:
        GridFunction(g, vals)
    assert str(err.value) == "non-finite value at node index (3,)"
    # sample names the node by its coordinates, as plain floats
    with pytest.raises(ValueError) as err:
        sample(lambda x: np.where(x == 0.5, np.inf, x), g)
    assert str(err.value) == "evaluation produced a non-finite value at node (0.5,)"
    assert "np." not in str(err.value)


def test_restrict_full_width_is_identity():
    g = make_grid("box", 4.0, 0.5, 1)
    gf = sample(SourceSpec("power", alpha=2.0), g)
    r = restrict(gf, 4.0)
    assert np.array_equal(r.values, gf.values)


def test_restrict_nine_node_grid():
    # a 9-node grid on [-4, 4] restricted to half-width 2 keeps 5 nodes
    g = make_grid("box", 4.0, 1.0, 1)
    gf = sample(lambda x: x.copy(), g)
    r = restrict(gf, 2.0)
    assert r.grid.nodes_per_axis == 5
    assert r.values == pytest.approx([-2.0, -1.0, 0.0, 1.0, 2.0])


def test_restrict_composes():
    g = make_grid("box", 8.0, 0.5, 2)
    gf = sample(SourceSpec("power", alpha=1.3), g)
    twice = restrict(restrict(gf, 4.0), 2.0)
    once = restrict(gf, 2.0)
    assert np.array_equal(twice.values, once.values)


def test_restrict_misaligned_reports_nearest():
    g = make_grid("box", 4.0, 0.5, 1)
    gf = sample(SourceSpec("power", alpha=2.0), g)
    with pytest.raises(AlignmentError) as err:
        restrict(gf, 1.3)
    assert err.value.nearest == pytest.approx((1.0, 1.5))


def test_sup_norm_examples():
    g = make_grid("box", 2.0, 0.25, 1)
    a = sample(SourceSpec("power", alpha=2.0), g)
    assert sup_norm_diff(a, a) == 0.0
    b = GridFunction(g, a.values + 3.25)
    assert sup_norm_diff(a, b) == pytest.approx(3.25)


def test_sup_norm_matches_bruteforce():
    rng = np.random.default_rng(7)
    g = make_grid("box", 2.0, 0.25, 2)
    a = GridFunction(g, rng.normal(size=g.shape))
    b = GridFunction(g, rng.normal(size=g.shape))
    brute = max(
        abs(a.values[i, j] - b.values[i, j])
        for i in range(g.n_store)
        for j in range(g.n_store)
    )
    assert sup_norm_diff(a, b) == brute


def test_sup_norm_grid_mismatch():
    a = sample(SourceSpec("power", alpha=2.0), make_grid("box", 2.0, 0.25, 1))
    b = sample(SourceSpec("power", alpha=2.0), make_grid("box", 2.0, 0.125, 1))
    with pytest.raises(GridMismatchError):
        sup_norm_diff(a, b)


@settings(max_examples=50, deadline=None)
@given(
    vals=hnp.arrays(
        np.float64,
        (3, 9),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
)
def test_sup_norm_triangle_inequality(vals):
    g = make_grid("box", 4.0, 1.0, 1)
    a, b, c = (GridFunction(g, v) for v in vals)
    ab = sup_norm_diff(a, b)
    bc = sup_norm_diff(b, c)
    ac = sup_norm_diff(a, c)
    assert ac <= ab + bc + 1e-9 * (1.0 + ab + bc)
    assert ab == sup_norm_diff(b, a)


def test_torus_window_wraps():
    g = make_grid("torus", 2.0, 0.5, 1)
    gf = sample(lambda x: x.copy(), g)
    win = restrict(gf, 2.0)
    # +2 wraps to the stored -2 node
    assert win.values[0] == -2.0
    assert win.values[-1] == -2.0
    # past the cell the indices keep wrapping, in 2D along both axes
    wide = restrict(sample(lambda x, y: x + 10.0 * y, make_grid("torus", 2.0, 0.5, 2)), 3.0)
    assert wide.grid.nodes_per_axis == 13
    assert wide.values[0, 0] == 1.0 + 10.0 * 1.0  # (-3, -3) is the stored (1, 1)
    assert wide.values[-1, 6] == -1.0  # (3, 0) is the stored (-1, 0)
    # a misaligned torus window names the nearest aligned widths, as on a box
    with pytest.raises(AlignmentError) as err:
        restrict(gf, 1.3)
    assert err.value.nearest == pytest.approx((1.0, 1.5))


def test_csv_roundtrip_1d(tmp_path):
    g = make_grid("box", 2.0, 0.25, 1)
    gf = sample(SourceSpec("power_oscillating", alpha=1.7, osc_amp=0.3), g)
    path = tmp_path / "field.csv"
    export_csv(gf, path, header_lines=["demo"])
    xs, vals = import_table(path)
    assert np.array_equal(vals, gf.values)
    assert xs == pytest.approx(g.axis_coords())


def test_csv_roundtrip_2d(tmp_path):
    g = make_grid("box", 1.0, 0.25, 2)
    gf = sample(SourceSpec("power", alpha=2.0), g)
    path = tmp_path / "field2.csv"
    export_csv(gf, path)
    xs, ys, vals = import_table(path)
    assert np.array_equal(vals, gf.values)


def test_write_table_cell_rules(tmp_path):
    path = tmp_path / "table.csv"
    x = 0.1 + 0.2  # repr needs all 17 digits
    rows = [
        (x, None, float("nan"), float("inf"), True, 7, "error: a b"),
        (np.float64(-2.5), 1e-300, 3.0, -float("inf"), False, np.int64(0), ""),
    ]
    cols = ("f", "none", "nan", "inf", "flag", "count", "text")
    write_table(path, ["a: 1", "  b: x"], cols, rows)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# a: 1", "#   b: x", ",".join(cols)]
    first, second = (line.split(",") for line in lines[3:])
    assert float(first[0]) == x
    assert first[1:] == ["", "", "inf", "1", "7", "error: a b"]
    assert second == ["-2.5", "1e-300", "3.0", "-inf", "0", "0", ""]
    back = read_table(path)
    assert [r["text"] for r in back] == ["error: a b", ""]
    assert back[0]["nan"] == "" and float(back[1]["f"]) == -2.5


def test_window_slices_respects_bounds():
    g = make_grid("box", 2.0, 0.5, 1)
    with pytest.raises(AlignmentError):
        window_slices(g, 3.0)


def test_import_table_skips_one_header_and_refuses_other_bad_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# note\nx,value\n0.0,1.0\n\n1.0,2.0\n")
    xs, vals = import_table(path)
    assert xs.tolist() == [0.0, 1.0] and vals.tolist() == [1.0, 2.0]
    path.write_text("x,value\nx,value\n0.0,1.0\n")
    with pytest.raises(ConfigError, match="line 2"):
        import_table(path)
    path.write_text("0.0,1.0\nnan?,2.0\n")
    with pytest.raises(ConfigError, match="line 2"):
        import_table(path)
    path.write_text("x,value\n0.0,1.0\n1.0,2.0,3.0\n")
    with pytest.raises(ConfigError, match="line 3"):
        import_table(path)
