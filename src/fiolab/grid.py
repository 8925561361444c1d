"""Uniform dyadic grids, sampled functions, and the Fourier transform.

Conventions, used everywhere downstream:

* a grid with ``n`` points and spacing ``dx`` covers ``[-L, L)`` with
  ``L = n*dx/2``; the point set is ``(j - n/2)*dx`` for ``j = 0..n-1``,
  so ``0`` is always a grid point and ``+L`` is identified with ``-L``
  (circular model);
* the Fourier transform is ``Fhat(xi) = sum_x f(x) exp(-2pi i x xi) dx``
  (Riemann sum over the grid), returning samples on the dual grid with
  spacing ``1/(n*dx)``;
* translations are circular and must land on the grid; modulation
  frequencies must land on the dual grid, otherwise the circular model
  is inconsistent at the wrap seam.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError, StructuralError, ValidationError

__all__ = [
    "Grid",
    "SampledFunction",
    "Runs",
    "bracket",
    "fourier_transform",
    "inverse_fourier_transform",
    "inner",
    "sampled_to_csv",
    "sampled_from_csv",
]

# largest n x n complex matrix a computation may form (1 GiB at complex128)
MATRIX_BUDGET = 2**26

# grid points per tile of an elementwise pass over a grid (1 MiB of
# complex entries), so a pass's temporaries are tiles, not n-point arrays
TILE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid of one variable; ``dim`` is always 1."""

    dim: int
    n: int
    spacing: float

    def __post_init__(self):
        if not (isinstance(self.dim, numbers.Integral) and not isinstance(self.dim, bool)
                and self.dim == 1):
            raise DomainError(f"grid dim must be the integer 1, got {self.dim!r}")
        if not (isinstance(self.n, numbers.Integral) and self.n >= 2
                and (self.n & (self.n - 1)) == 0):
            raise DomainError(f"grid n must be a power of two >= 2, got {self.n!r}")
        if not (isinstance(self.spacing, numbers.Real)
                and np.isfinite(self.spacing) and self.spacing > 0):
            raise DomainError(f"grid spacing must be a positive number, got {self.spacing!r}")

    @property
    def half_length(self) -> float:
        """L such that the grid covers [-L, L)."""
        return self.n * self.spacing / 2.0

    def axis(self) -> np.ndarray:
        """The grid's points."""
        return np.arange(-(self.n // 2), self.n // 2) * self.spacing

    def dual(self) -> "Grid":
        """Frequency grid of the Fourier transform."""
        return Grid(self.dim, self.n, 1.0 / (self.n * self.spacing))

    def shape(self) -> tuple:
        return (self.n,)

    def cell_measure(self) -> float:
        return self.spacing

    def describe(self) -> str:
        return f"d={self.dim} n={self.n} L={self.half_length:g}"


class SampledFunction:
    """Complex samples of a function on a :class:`Grid`.

    ``samples`` has shape ``(n,)``, indexed so that ``samples[j]`` is
    the value at ``(j - n/2)*spacing``.
    """

    def __init__(self, grid: Grid, samples: np.ndarray):
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != grid.shape():
            raise StructuralError(
                f"samples shape {samples.shape} does not match grid shape {grid.shape()}"
            )
        _check_finite(samples)
        self.grid = grid
        self.samples = samples

    @property
    def runs(self) -> tuple:
        """The samples as the one run that covers the grid; see :class:`Runs`."""
        return ((0, self.samples),)

    def densify(self) -> "SampledFunction":
        return self

    def copy(self) -> "SampledFunction":
        return type(self)(self.grid, self.samples.copy())

    def norm2(self) -> float:
        """L2 norm with the grid's Riemann measure."""
        return float(
            np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.cell_measure())
        )

    def __repr__(self):
        return f"<SampledFunction {self.grid.describe()}>"


class Runs:
    """A function on a 1-D grid that is zero outside its runs: ordered,
    disjoint (offset, samples) pairs inside the grid. A SampledFunction
    is the one run (0, samples), so code reading ``f.runs`` takes both."""

    def __init__(self, grid: Grid, runs):
        self.grid = grid
        self.runs = tuple((int(lo), np.asarray(s, dtype=complex)) for lo, s in runs)
        end = 0
        for lo, s in self.runs:
            if s.ndim != 1 or lo < end or lo + s.size > grid.n:
                raise StructuralError(f"runs must be ordered, disjoint and on {grid}")
            _check_finite(s)
            end = lo + s.size

    def densify(self) -> SampledFunction:
        out = np.zeros(self.grid.n, dtype=complex)
        for lo, s in self.runs:
            out[lo : lo + s.size] = s
        return SampledFunction(self.grid, out)


def _check_finite(samples):
    """Raise ValidationError unless every sample is finite, testing one
    tile of ``TILE_ENTRIES`` at a time, so no n-entry mask is formed."""
    for _, tile in run_tiles([(0, samples.reshape(-1))]):
        if not np.isfinite(tile).all():
            raise ValidationError("samples contain non-finite values")


def take(f, lo: int, hi: int) -> np.ndarray:
    """The samples of f (a :class:`SampledFunction` or :class:`Runs`) at
    the indices lo..hi-1 taken mod n: a view when they lie in one run,
    else a copy with zeros between the runs."""
    n = f.grid.n
    for start, s in f.runs:
        if start <= lo and hi <= start + s.size:
            return s[lo - start : hi - start]
    out = np.zeros(hi - lo, dtype=complex)
    for start, s in f.runs:
        for at in (start - n, start, start + n):
            a, b = max(lo, at), min(hi, at + s.size)
            if a < b:
                out[a - lo : b - lo] = s[a - at : b - at]
    return out


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """<f, g> = sum f conj(g) * cell measure."""
    if f.grid != g.grid:
        raise StructuralError(f"grids differ: {f.grid} vs {g.grid}")
    return complex(np.vdot(g.samples, f.samples) * f.grid.cell_measure())


def bracket(x):
    """Japanese bracket (1 + |x|^2)^(1/2), elementwise."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(1.0 + x * x)


def check_matrix_budget(n: int, what: str):
    """Raise ResourceError, naming the largest admissible n, when an n x n
    complex matrix would exceed MATRIX_BUDGET."""
    if n**2 > MATRIX_BUDGET:
        max_n = 2 ** int(np.floor(np.log2(MATRIX_BUDGET) / 2))
        raise ResourceError(
            f"{what} output n^2={n**2} exceeds budget {MATRIX_BUDGET}; "
            f"maximal admissible n is {max_n}"
        )


def shifted_fft(samples: np.ndarray) -> np.ndarray:
    """DFT in grid order over the last axis: exact exp(-2pi i x xi) sums
    on symmetric grids."""
    work = np.fft.fft(np.fft.ifftshift(samples, axes=-1))
    return np.fft.fftshift(work, axes=-1)


def axis_tiles(grid: Grid, start: int = 0, stop=None):
    """(slice, points) for consecutive tiles of at most ``TILE_ENTRIES``
    indices of [start, stop) (default: the whole axis). The points are
    computed as :meth:`Grid.axis` computes them, so they equal
    ``grid.axis()[slice]`` to the bit, and an elementwise pass over the
    tiles makes the bytes of one pass over the whole axis."""
    stop = grid.n if stop is None else stop
    for lo in range(start, stop, TILE_ENTRIES):
        hi = min(lo + TILE_ENTRIES, stop)
        points = np.arange(lo - grid.n // 2, hi - grid.n // 2) * grid.spacing
        yield slice(lo, hi), points


def run_tiles(runs):
    """(first grid index, samples) of consecutive tiles of at most
    ``TILE_ENTRIES`` samples of each (offset, samples) run."""
    for start, samples in runs:
        for lo in range(0, samples.size, TILE_ENTRIES):
            yield start + lo, samples[lo : lo + TILE_ENTRIES]


def support_runs(runs, floor, gap):
    """(starts, ends): the first and last grid index of each stretch of
    the points where |f| > floor, for the ordered, disjoint ``runs`` of f
    (``f.runs``), a stretch ending where the next such point lies more
    than ``gap`` beyond it. The runs are read one tile at a time
    (:func:`run_tiles`), and a stretch may span tiles and runs."""
    starts, ends, last = [], [], None
    for lo, tile in run_tiles(runs):
        on = np.flatnonzero(np.abs(tile) > floor) + lo
        if not on.size:
            continue
        if last is None:
            starts.append(on[0])
        elif on[0] - last > gap:
            ends.append(last)
            starts.append(on[0])
        cuts = np.flatnonzero(np.diff(on) > gap)
        ends.extend(on[cuts])
        starts.extend(on[cuts + 1])
        last = on[-1]
    if last is not None:
        ends.append(last)
    return np.array(starts), np.array(ends)


def transform_in_place(grid: Grid, work: np.ndarray, inverse: bool):
    """The transform of the function on ``grid`` whose samples ``work``
    holds in FFT order (n is even, so that order swaps the halves of the
    grid order), computed in work's own buffer: an FFT in place, then
    the scaling on the swap back to grid order, through one tile-sized
    temporary. n is a power of two, so n * dx is exact. In place is not
    free: numpy's pocketfft still mallocs two n-point complex scratch
    buffers for the FFT, which tracemalloc does not see, so a transform
    peaks at three n-point arrays. A result that is not finite, as when
    the FFT overflows, raises DomainError with no numpy warning."""
    half = grid.n // 2
    scale = grid.n * grid.spacing if inverse else grid.spacing
    with np.errstate(over="ignore", invalid="ignore"):
        (np.fft.ifft if inverse else np.fft.fft)(work, out=work)
        for lo in range(0, half, TILE_ENTRIES):
            hi = min(lo + TILE_ENTRIES, half)
            tile = work[lo:hi] * scale
            np.multiply(work[lo + half : hi + half], scale, out=work[lo:hi])
            work[lo + half : hi + half] = tile
    try:
        return SampledFunction(grid.dual(), work)
    except ValidationError:
        kind = "the inverse Fourier" if inverse else "the Fourier"
        raise DomainError(f"{kind} transform of {grid.n} points is not finite") from None


def _transform(f: SampledFunction, inverse: bool) -> SampledFunction:
    """The DFT of f in grid order, scaled to the Riemann sum: one copy
    into FFT order and :func:`transform_in_place` on it."""
    half = f.grid.n // 2
    work = np.empty(f.grid.n, dtype=complex)
    work[:half] = f.samples[half:]
    work[half:] = f.samples[:half]
    return transform_in_place(f.grid, work, inverse)


def fourier_transform(f: SampledFunction) -> SampledFunction:
    """Riemann-sum Fourier transform onto the dual grid.

    Uses the convention ``Fhat(xi) = sum_x f(x) exp(-2pi i x xi) dx``;
    the discrete sum is exact for the cyclic model, so inversion and
    Parseval hold to round-off.
    """
    return _transform(f, inverse=False)


def inverse_fourier_transform(f: SampledFunction) -> SampledFunction:
    """Inverse of :func:`fourier_transform`, from the dual grid back."""
    return _transform(f, inverse=True)


# ---------------------------------------------------------------------------
# CSV serialization (binary-free interchange format)


def table_to_csv(header: dict, columns: str, values: np.ndarray) -> str:
    """A '# key=value' header line, a column line, then one
    ``indices,re,im`` row per entry of ``values`` in C order. Numbers are
    written ``%.17g``, the bytes of ``'{:.17g}'.format`` for every double
    (nan, +-inf and -0 too), so they read back bit for bit. The rows are
    formatted one ``TILE_ENTRIES`` tile at a time, through one ``%``
    template per tile applied to a flat tuple of the tile's fields."""
    parts = ["# " + " ".join(f"{k}={v:.17g}" for k, v in header.items()), columns]
    width, row = values.ndim + 2, "%d," * values.ndim + "%.17g,%.17g"
    for lo in range(0, values.size, TILE_ENTRIES):
        tile = values.flat[lo : lo + TILE_ENTRIES]
        fields = [None] * (width * tile.size)
        at = np.unravel_index(np.arange(lo, lo + tile.size), values.shape)
        for k, column in enumerate(at + (tile.real, tile.imag)):
            fields[k::width] = column.tolist()
        parts.append("\n".join([row] * tile.size) % tuple(fields))
    parts.append("")  # the final newline, with no copy of the joined text
    return "\n".join(parts)


def table_from_csv(text: str, keys: dict, shape) -> tuple:
    """Inverse of :func:`table_to_csv`: ``(header, values)``.

    ``keys`` maps each header key to its type, and ``shape(header)``
    gives the array shape, which must hold at most ``MATRIX_BUDGET``
    entries. Every index must appear exactly once.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValidationError("missing '# key=value' header line")
    tokens = dict(tok.partition("=")[::2] for tok in lines[0].lstrip("#").split())
    try:
        header = {key: kind(tokens[key]) for key, kind in keys.items()}
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad header: {lines[0]!r}") from exc
    dims = shape(header)
    if math.prod(dims) > MATRIX_BUDGET:
        raise ResourceError(
            f"a table of shape {dims} exceeds the budget of {MATRIX_BUDGET} entries"
        )
    values = np.zeros(dims, dtype=complex)
    seen = np.zeros(values.shape, dtype=bool)
    for ln in lines[2:]:
        parts = ln.split(",")
        if len(parts) != values.ndim + 2:
            raise ValidationError(f"expected {values.ndim + 2} fields in row {ln!r}")
        try:
            idx = tuple(int(p) for p in parts[:-2])
            value = complex(float(parts[-2]), float(parts[-1]))
        except ValueError:
            raise ValidationError(f"non-numeric field in row {ln!r}") from None
        if not all(0 <= i < m for i, m in zip(idx, values.shape)):
            raise ValidationError(f"index out of range for shape {values.shape}: {ln!r}")
        if seen[idx]:
            raise ValidationError(f"duplicate row for index {idx}")
        seen[idx] = True
        values[idx] = value
    if not seen.all():
        raise ValidationError(f"{int((~seen).sum())} of {seen.size} rows are missing")
    return header, values


def sampled_to_csv(f: SampledFunction) -> str:
    header = {"dim": 1, "n": f.grid.n, "spacing": f.grid.spacing}
    return table_to_csv(header, "i0,re,im", f.samples)


def sampled_from_csv(text: str) -> SampledFunction:
    keys = {"dim": int, "n": int, "spacing": float}
    header, samples = table_from_csv(text, keys, lambda h: Grid(**h).shape())
    return SampledFunction(Grid(**header), samples)
