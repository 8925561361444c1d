"""Grids, exact transforms, runs, CSV round trips."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fiolab import (
    DomainError,
    Grid,
    ResourceError,
    Runs,
    SampledFunction,
    StructuralError,
    ValidationError,
    fourier_transform,
    inner,
    inverse_fourier_transform,
    sampled_from_csv,
    sampled_to_csv,
)

from fiolab import grid as grid_module
from fiolab.grid import TILE_ENTRIES, take
from fiolab.tf import TFMatrix, tf_to_csv


def test_grid_validation():
    # grids are one-dimensional: dim is the integer 1, not a float or bool
    for dim in (3, 2, 0, 1.0, True, np.float64(1), "1", None):
        with pytest.raises(DomainError, match=re.escape(f"got {dim!r}")):
            Grid(dim, 64, 0.1)
    assert Grid(np.int64(1), 64, 0.1) == Grid(1, 64, 0.1)
    with pytest.raises(DomainError):
        Grid(1, 100, 0.1)
    with pytest.raises(DomainError):
        Grid(1, 64, -0.1)
    # a bool spacing is refused like a bool dim, not read as 1.0
    for spacing in (True, False):
        with pytest.raises(DomainError, match=re.escape(f"got {spacing!r}")):
            Grid(1, 4, spacing)


def test_grid_rejects_non_integral_or_non_numeric_sizes():
    for n, spacing in ((4.0, 0.1), ("4", 0.1), (4, "0.1"), (None, 0.1), (4, None)):
        with pytest.raises(DomainError):
            Grid(1, n, spacing)
    # numpy integers are integers: callers pass differences and powers of two
    assert Grid(1, np.int64(12) - np.int64(4), 0.1) == Grid(1, 8, 0.1)
    assert Grid(1, np.int32(4), np.float64(0.5)).shape() == (4,)


def test_axis_is_symmetric_and_covers_half_open_box():
    g = Grid(1, 8, 0.5)
    assert np.allclose(g.axis(), [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    assert g.half_length == 2.0
    assert g.describe() == "d=1 n=8 L=2"


def test_dual_grid_involution_on_dyadic_spacing():
    g = Grid(1, 256, 0.125)
    assert g.dual().spacing == 1.0 / 32.0
    assert g.dual().dual() == g


def test_sampled_function_validation():
    g = Grid(1, 16, 0.25)
    with pytest.raises(StructuralError):
        SampledFunction(g, np.zeros(8))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValidationError):
        SampledFunction(g, bad)
    with pytest.raises(StructuralError):
        SampledFunction(g, np.zeros((16, 16)))


def test_finite_check_holds_one_tile():
    # the check reads one TILE_ENTRIES tile at a time: its bool temporary
    # is a tile (64 KiB), not the 2n entries (4 MiB) of a whole-array
    # check on the real view, and a NaN in the last tile is still seen
    n = 1 << 20
    samples = np.ones(n, dtype=complex)
    tracemalloc.start()
    try:
        SampledFunction(Grid(1, n, 1.0 / 64), samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= TILE_ENTRIES + 4096
    samples[-1] = complex(1.0, np.nan)
    with pytest.raises(ValidationError, match="non-finite"):
        SampledFunction(Grid(1, n, 1.0 / 64), samples)
    with pytest.raises(ValidationError, match="non-finite"):
        Runs(Grid(1, n, 1.0 / 64), [(n - TILE_ENTRIES - 8, samples[-TILE_ENTRIES - 8 :])])


def test_overflowing_transform_is_a_domain_error():
    # the samples are finite, so an FFT that overflows is the transform's
    # fault, not theirs, and numpy's overflow warnings stay inside
    f = SampledFunction(Grid(1, 512, 0.0625), np.full(512, 1e308, dtype=complex))
    for transform, kind in ((fourier_transform, "the Fourier"),
                            (inverse_fourier_transform, "the inverse Fourier")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=f"^{kind} transform of 512 points is not finite"):
                transform(f)


def test_runs_densify_and_take():
    g = Grid(1, 16, 0.5)
    f = Runs(g, [(2, [1, 2]), (4, [3]), (14, [4, 5])])
    dense = f.densify().samples
    assert dense.tobytes() == np.array(
        [0, 0, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 5], dtype=complex
    ).tobytes()
    # within one run a view, across runs or the seam a wrapped copy
    assert np.shares_memory(take(f, 14, 16), f.runs[2][1])
    for lo, hi in ((1, 6), (-3, 4), (13, 20), (-16, 16), (0, 32)):
        expected = dense.take(np.arange(lo, hi), mode="wrap")
        assert take(f, lo, hi).tobytes() == expected.tobytes()
        assert take(f.densify(), lo, hi).tobytes() == expected.tobytes()
    for runs in ([(4, [1]), (2, [1, 2, 3])], [(15, [1, 2])], [(-1, [1])]):
        with pytest.raises(StructuralError, match="disjoint"):
            Runs(g, runs)


def test_fourier_transform_of_gaussian_is_gaussian():
    g = Grid(1, 512, 0.0625)
    x = g.axis()
    f = SampledFunction(g, np.exp(-np.pi * x**2).astype(complex))
    fhat = fourier_transform(f)
    xi = fhat.grid.axis()
    assert np.allclose(fhat.samples, np.exp(-np.pi * xi**2), atol=1e-12)


def test_transform_round_trip_and_parseval():
    g = Grid(1, 128, 0.2)
    rng = np.random.default_rng(0)
    f = SampledFunction(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    fhat = fourier_transform(f)
    back = inverse_fourier_transform(fhat)
    assert np.allclose(back.samples, f.samples, atol=1e-12)
    assert fhat.norm2() == pytest.approx(f.norm2(), rel=1e-12)


def test_inner_product_conventions():
    g = Grid(1, 64, 0.5)
    ones = SampledFunction(g, np.ones(64, dtype=complex))
    assert inner(ones, ones) == pytest.approx(64 * 0.5)
    other = SampledFunction(Grid(1, 64, 0.25), np.ones(64, dtype=complex))
    with pytest.raises(StructuralError):
        inner(ones, other)


def test_sampled_csv_round_trip():
    g = Grid(1, 16, 0.125)
    rng = np.random.default_rng(2)
    f = SampledFunction(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    text = sampled_to_csv(f)
    back = sampled_from_csv(text)
    assert back.grid == f.grid
    assert np.array_equal(back.samples, f.samples)


def test_sampled_csv_rejects_missing_header():
    with pytest.raises(ValidationError):
        sampled_from_csv("i0,re,im\n0,1,0\n")


def _malformed(row):
    """A valid 8-point sample CSV with its first data row replaced."""
    f = SampledFunction(Grid(1, 8, 0.5), np.ones(8, dtype=complex))
    lines = sampled_to_csv(f).splitlines()
    return "\n".join(lines[:2] + row + lines[3:]) + "\n"


@pytest.mark.parametrize(
    "row,match",
    [
        (["0,abc,0"], "non-numeric"),
        (["0,1"], "fields"),
        (["99,1,0"], "out of range"),
        (["-1,1,0"], "out of range"),
        (["0,1,0", "0,1,0"], "duplicate"),
        ([], "missing"),
    ],
)
def test_sampled_csv_rejects_malformed_rows(row, match):
    with pytest.raises(ValidationError, match=match):
        sampled_from_csv(_malformed(row))


@pytest.mark.parametrize("dim,n", [(1, 1 << 40), (1, 1 << 27)])
def test_sampled_csv_header_within_budget(dim, n):
    # the header alone would ask for 16 TiB, or twice the budget, before
    # any row is read
    text = f"# dim={dim} n={n} spacing=0.5\ni0,re,im\n0,1,0\n"
    with pytest.raises(ResourceError, match="budget"):
        sampled_from_csv(text)


def _reference_csv(header, columns, values):
    """The writer's bytes, one entry at a time through '{:.17g}'.format."""
    fmt = "{:.17g}"
    lines = ["# " + " ".join(f"{k}={fmt.format(v)}" for k, v in header.items()), columns]
    for idx in np.ndindex(values.shape):
        v = values[idx]
        head = ",".join(str(i) for i in idx)
        lines.append(f"{head},{fmt.format(v.real)},{fmt.format(v.imag)}")
    return "\n".join(lines) + "\n"


_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                -1.7976931348623157e308, 0.1, 1 / 3, -2.5, 1e16, 123456789.0]


def test_csv_writer_holds_its_text_at_most_twice():
    # the tiles' texts and their join are resident together at the end,
    # but no third copy is made by appending the last newline
    rng = np.random.default_rng(6)
    values = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    m = TFMatrix(Grid(1, 512, 0.125), Grid(1, 512, 1 / 64), values)
    tracemalloc.start()
    try:
        text = tf_to_csv(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert peak <= 3.3 * len(text)


@pytest.mark.parametrize("tile", [TILE_ENTRIES, 64])
def test_csv_writer_matches_the_per_entry_format(tile, monkeypatch):
    # rows are formatted one tile at a time; in tiles of 64 every table
    # below spans several, and the 16 x 128 table's tiles end mid-row
    monkeypatch.setattr(grid_module, "TILE_ENTRIES", tile)
    rng = np.random.default_rng(5)
    edge = np.array(_EDGE_VALUES)
    g = Grid(1, 256, 0.125)
    scale = 10.0 ** rng.integers(-300, 300, g.shape())
    samples = rng.standard_normal(g.shape()) * scale + 1j * rng.standard_normal(g.shape())
    samples[: edge.size] = edge + 1j * edge[::-1]
    f = SampledFunction(g, samples)
    text = sampled_to_csv(f)
    header = {"dim": 1, "n": g.n, "spacing": g.spacing}
    assert text == _reference_csv(header, "i0,re,im", f.samples)
    back = sampled_from_csv(text)
    assert back.grid == g
    assert back.samples.tobytes() == f.samples.tobytes()
    # non-finite entries are written as the reference writes them
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, -1e308])
    values = np.empty((16, 128), dtype=complex)
    values.real = np.resize(special, values.shape)
    values.imag = np.resize(special[::-1], values.shape)
    m = TFMatrix(Grid(1, 16, 0.5), Grid(1, 128, 0.125), values)
    header = {"nx": 16, "dx": 0.5, "nxi": 128, "dxi": 0.125}
    text = tf_to_csv(m)
    assert text == _reference_csv(header, "x_index,xi_index,re,im", m.values)
    for row in ("0,0,nan,-1e+308", "0,2,-inf,4.9406564584124654e-324", "0,3,-0,-0"):
        assert f"\n{row}\n" in text
