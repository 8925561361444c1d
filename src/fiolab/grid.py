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
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceError, StructuralError, ValidationError

__all__ = [
    "Grid",
    "SampledFunction",
    "SampledFunction2D",
    "bracket",
    "fourier_transform",
    "inverse_fourier_transform",
    "translate_modulate",
    "inner",
    "sampled_to_csv",
    "sampled_from_csv",
]

# largest n x n complex matrix a computation may form (1 GiB at complex128)
MATRIX_BUDGET = 2**26

# grid points per tile of an elementwise pass over a grid: 1 MiB of
# complex entries, so a pass's temporaries stay in a 2 MiB L2 cache
# instead of being n-point arrays
TILE_ENTRIES = 1 << 16


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid in ``dim`` variables, same n/spacing per axis."""

    dim: int
    n: int
    spacing: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise DomainError(f"grid dim must be 1 or 2, got {self.dim}")
        if not _is_pow2(self.n):
            raise DomainError(f"grid n must be a power of two >= 2, got {self.n}")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise DomainError(f"grid spacing must be positive, got {self.spacing}")

    @property
    def half_length(self) -> float:
        """L such that each axis covers [-L, L)."""
        return self.n * self.spacing / 2.0

    def axis(self) -> np.ndarray:
        """The 1D point set shared by every axis."""
        return np.arange(-(self.n // 2), self.n // 2) * self.spacing

    def dual(self) -> "Grid":
        """Frequency grid of the Fourier transform."""
        return Grid(self.dim, self.n, 1.0 / (self.n * self.spacing))

    def shape(self) -> tuple:
        return (self.n,) * self.dim

    def cell_measure(self) -> float:
        return self.spacing**self.dim

    def describe(self) -> str:
        return f"d={self.dim} n={self.n} L={self.half_length:g}"


def default_grid() -> Grid:
    """The default desk grid: n=512 points on [-16, 16)."""
    return Grid(1, 512, 2.0 * 16.0 / 512)


class SampledFunction:
    """Complex samples of a function on a :class:`Grid`.

    ``samples`` has shape ``(n,)*dim``, indexed so that ``samples[j]`` is
    the value at ``(j - n/2)*spacing`` along each axis.
    """

    def __init__(self, grid: Grid, samples: np.ndarray):
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != grid.shape():
            raise StructuralError(
                f"samples shape {samples.shape} does not match grid shape {grid.shape()}"
            )
        if not np.all(np.isfinite(samples.view(float))):
            raise ValidationError("samples contain non-finite values")
        self.grid = grid
        self.samples = samples

    @property
    def dim(self) -> int:
        return self.grid.dim

    def copy(self) -> "SampledFunction":
        return type(self)(self.grid, self.samples.copy())

    def norm2(self) -> float:
        """L2 norm with the grid's Riemann measure."""
        return float(
            np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.grid.cell_measure())
        )

    def value_at_zero(self) -> complex:
        idx = (self.grid.n // 2,) * self.dim
        return complex(self.samples[idx])

    def __repr__(self):
        return f"<SampledFunction {self.grid.describe()}>"


class SampledFunction2D(SampledFunction):
    """A sampled function of two variables (a time-frequency plane function)."""

    def __init__(self, grid: Grid, samples: np.ndarray):
        if grid.dim != 2:
            raise StructuralError("SampledFunction2D requires a dim-2 grid")
        super().__init__(grid, samples)


def _same_grid(a: SampledFunction, b: SampledFunction):
    if a.grid != b.grid:
        raise StructuralError(f"grids differ: {a.grid} vs {b.grid}")


def inner(f: SampledFunction, g: SampledFunction) -> complex:
    """<f, g> = sum f conj(g) * cell measure."""
    _same_grid(f, g)
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


def shifted_fft(samples: np.ndarray, axes=None) -> np.ndarray:
    """DFT in grid order over ``axes`` (default all): exact exp(-2pi i x xi)
    sums on symmetric grids."""
    work = np.fft.fftn(np.fft.ifftshift(samples, axes=axes), axes=axes)
    return np.fft.fftshift(work, axes=axes)


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


def transform_in_place(grid: Grid, work: np.ndarray, inverse: bool):
    """The transform of the function on ``grid`` whose samples ``work``
    holds in FFT order (n is even, so that order swaps the halves of the
    grid order), computed in work's own buffer: an FFT in place, then
    the scaling on the swap back to grid order, through one tile-sized
    temporary. n is a power of two, so n * dx is exact."""
    half = grid.n // 2
    (np.fft.ifft if inverse else np.fft.fft)(work, out=work)
    scale = grid.n * grid.spacing if inverse else grid.spacing
    for lo in range(0, half, TILE_ENTRIES):
        hi = min(lo + TILE_ENTRIES, half)
        tile = work[lo:hi] * scale
        np.multiply(work[lo + half : hi + half], scale, out=work[lo:hi])
        work[lo + half : hi + half] = tile
    return SampledFunction(grid.dual(), work)


def _transform(f: SampledFunction, inverse: bool) -> SampledFunction:
    """The DFT of f in grid order, scaled to the Riemann sum: one copy
    into FFT order and :func:`transform_in_place` on it."""
    if f.dim != 1:
        raise StructuralError("Fourier transforms act on one-dimensional samples")
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


def _as_vector(v, dim: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (dim,):
        raise StructuralError(f"{name} must have {dim} component(s), got shape {arr.shape}")
    return arr


def _lattice_index(value: float, spacing: float, name: str) -> int:
    r = value / spacing
    k = int(np.rint(r))
    if abs(r - k) > 1e-9 * max(1.0, abs(r)):
        raise ValidationError(
            f"{name}={value!r} is off-grid; nearest admissible value is {k * spacing!r}"
        )
    return k


def translate_modulate(f: SampledFunction, u, omega) -> SampledFunction:
    """Return ``M_omega T_u f``: circular shift by ``u`` then modulation.

    ``u`` must lie on the grid and ``omega`` on the dual grid; both are
    validated and the error names the nearest admissible value.
    """
    u = _as_vector(u, f.dim, "u")
    omega = _as_vector(omega, f.dim, "omega")
    shifts = [_lattice_index(ui, f.grid.spacing, "u") for ui in u]
    for wi in omega:
        _lattice_index(wi, f.grid.dual().spacing, "omega")
    out = np.roll(f.samples, shifts, axis=tuple(range(f.dim)))
    x = f.grid.axis()
    for ax, wi in enumerate(omega):
        phase = np.exp(2j * np.pi * x * wi)
        shape = [1] * f.dim
        shape[ax] = f.grid.n
        out = out * phase.reshape(shape)
    return type(f)(f.grid, out)


# ---------------------------------------------------------------------------
# CSV serialization (binary-free interchange format)

_FMT = "{:.17g}"


def table_to_csv(header: dict, columns: str, values: np.ndarray) -> str:
    """A '# key=value' header line, a column line, then one
    ``indices,re,im`` row per entry of ``values`` in C order."""
    lines = ["# " + " ".join(f"{k}={_FMT.format(v)}" for k, v in header.items())]
    lines.append(columns)
    for idx in np.ndindex(values.shape):
        v = values[idx]
        head = ",".join(str(i) for i in idx)
        lines.append(f"{head},{_FMT.format(v.real)},{_FMT.format(v.imag)}")
    return "\n".join(lines) + "\n"


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
    header = {"dim": f.dim, "n": f.grid.n, "spacing": f.grid.spacing}
    columns = ",".join(f"i{k}" for k in range(f.dim)) + ",re,im"
    return table_to_csv(header, columns, f.samples)


def sampled_from_csv(text: str) -> SampledFunction:
    keys = {"dim": int, "n": int, "spacing": float}
    header, samples = table_from_csv(text, keys, lambda h: Grid(**h).shape())
    grid = Grid(**header)
    cls = SampledFunction2D if grid.dim == 2 else SampledFunction
    return cls(grid, samples)
