"""Short-time Fourier transforms of functions of one variable.

``stft`` computes V_g f(x, xi) = <f, M_xi T_x g>: rows are window shifts
over the primal grid, columns live on the dual grid. ``stft_rows``
evaluates one contiguous range of rows with the columns left in FFT
order, from the window shifts of :func:`window_shifts`, which the exact
norms in :mod:`fiolab.spaces` read too. :func:`window_at` holds the one
window formula.

Everything is exact for the cyclic model: the fundamental identity
V_g f(x, xi) = exp(-2pi i x xi) V_ghat fhat(xi, -x) and the orthogonality
relation ||V_g f||_2 = ||f||_2 ||g||_2 hold to round-off, which the
residual helpers below rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError, ValidationError
from .grid import (
    Grid,
    SampledFunction,
    check_matrix_budget,
    fourier_transform,
    table_to_csv,
)

__all__ = [
    "TFMatrix",
    "make_window",
    "window_at",
    "window_shifts",
    "stft",
    "stft_rows",
    "fundamental_identity_residual",
    "tf_to_csv",
]

DEFAULT_WINDOW = "gauss"


def window_width(window_id: str) -> float:
    """Width of a named window: 1 for ``"gauss"``, s for ``"gauss:s"``."""
    name, _, arg = window_id.partition(":")
    if name != "gauss":
        raise ValidationError(f"unknown window id {window_id!r}")
    if not arg:
        return 1.0
    try:
        sigma = float(arg)
    except ValueError:
        raise ValidationError(f"bad window width in {window_id!r}") from None
    if not (0 < sigma < np.inf):
        raise ValidationError(f"window width must be positive and finite, got {sigma}")
    return sigma


def window_at(window_id: str, x) -> np.ndarray:
    """The named window's real values at the points ``x``.

    ``"gauss"`` is the L2-normalized Gaussian exp(-pi t^2); ``"gauss:s"``
    scales its width to ``s``. The normalization is the continuum one,
    so <g, g> = 1 to quadrature accuracy on any adequate grid.
    """
    sigma = window_width(window_id)
    return (2.0**0.25 / np.sqrt(sigma)) * np.exp(-np.pi * (x / sigma) ** 2)


def make_window(window_id: str, grid: Grid) -> SampledFunction:
    """The named window (:func:`window_at`) on a one-dimensional ``grid``."""
    return SampledFunction(grid, window_at(window_id, grid.axis()).astype(complex))


class TFMatrix:
    """STFT values of a 1D function: axis 0 is x (primal), axis 1 is xi (dual)."""

    def __init__(self, x_grid: Grid, xi_grid: Grid, values: np.ndarray):
        if x_grid.dim != 1 or xi_grid.dim != 1:
            raise StructuralError("TFMatrix grids must be one-dimensional")
        values = np.asarray(values, dtype=complex)
        if values.shape != (x_grid.n, xi_grid.n):
            raise StructuralError(
                f"values shape {values.shape} does not match ({x_grid.n}, {xi_grid.n})"
            )
        self.x_grid = x_grid
        self.xi_grid = xi_grid
        self.values = values

    def norm2(self) -> float:
        meas = self.x_grid.spacing * self.xi_grid.spacing
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * meas))

    def __repr__(self):
        return f"<TFMatrix {self.values.shape}>"


def window_shifts(g: SampledFunction) -> np.ndarray:
    """Read-only (n, n) view whose row ``j`` times ``ifftshift(f)`` is
    the integrand of the STFT row at the shift ``(j - n/2) * dx``, in FFT
    order: conj(g) rotated, as rows of one sliding window over the
    doubled samples, so no rotated copy is made."""
    if not np.any(g.samples):
        raise ValidationError("window is identically zero")
    n = g.grid.n
    gbar = np.conj(g.samples)
    # row r of the sliding view is conj(g) rotated left by r; shift j needs r = n - j
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((gbar, gbar)), n)[:0:-1]


def stft_rows(f: SampledFunction, g: SampledFunction, rows: slice) -> np.ndarray:
    """STFT rows for one contiguous range of x shifts, columns in FFT order.

    Row ``j`` of ``rows`` is the shift to the grid point ``(j - n/2) * dx``;
    column ``k`` is the frequency ``np.fft.ifftshift(xi)[k]`` of the dual
    grid, so ``fftshift`` over axis 1 gives grid order. This is the block
    producer behind :func:`stft`: ``ifftshift(f)`` times the rows of
    :func:`window_shifts`, multiplied straight into the output, which is
    then transformed in place.
    """
    if f.grid != g.grid or f.dim != 1:
        raise StructuralError("stft needs two 1D functions on a common grid")
    start, stop, step = rows.indices(f.grid.n)
    if step != 1:
        raise StructuralError("stft rows must be a contiguous range of shifts")
    picked = window_shifts(g)[start:stop]
    out = np.empty(picked.shape, dtype=complex)
    np.multiply(np.fft.ifftshift(f.samples), picked, out=out)
    np.fft.fft(out, axis=1, out=out)
    out *= f.grid.spacing
    return out


def stft(f: SampledFunction, g: SampledFunction) -> TFMatrix:
    """Full STFT matrix of ``f`` with window ``g`` (both 1D, same grid).

    The rows of :func:`stft_rows` over every shift, with one ``fftshift``
    putting the frequencies in grid order. The matrix holds n^2 complex
    values; when that exceeds ``grid.MATRIX_BUDGET`` a
    :class:`ResourceError` names the largest admissible n. The streaming
    norm routines have no such limit.
    """
    n = f.grid.n
    check_matrix_budget(n, "stft")
    rows = np.fft.fftshift(stft_rows(f, g, slice(0, n)), axes=1)
    return TFMatrix(f.grid, f.grid.dual(), rows)


def fundamental_identity_residual(f: SampledFunction, g: SampledFunction) -> float:
    """Sup-norm residual of V_g f(x,xi) = e^{-2pi i x xi} V_ghat fhat(xi,-x)."""
    V1 = stft(f, g)
    V2 = stft(fourier_transform(f), fourier_transform(g))
    n = f.grid.n
    x = f.grid.axis()
    xi = f.grid.dual().axis()
    phase = np.exp(-2j * np.pi * np.outer(x, xi))
    neg = (-np.arange(n)) % n  # index of -x_j
    rhs = phase * V2.values[:, neg].T
    return float(np.max(np.abs(V1.values - rhs)))


# ---------------------------------------------------------------------------
# CSV interchange


def tf_to_csv(m: TFMatrix) -> str:
    header = {
        "nx": m.x_grid.n,
        "dx": m.x_grid.spacing,
        "nxi": m.xi_grid.n,
        "dxi": m.xi_grid.spacing,
    }
    return table_to_csv(header, "x_index,xi_index,re,im", m.values)

