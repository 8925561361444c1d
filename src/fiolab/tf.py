"""Short-time Fourier transforms of functions of one variable.

``stft`` computes V_g f(x, xi) = <f, M_xi T_x g>: rows are window shifts
over the primal grid, columns live on the dual grid. Its rows come from
the window shifts of :func:`window_shifts`, which the exact norms in
:mod:`fiolab.spaces` read too. :func:`window_at` holds the one window
formula.

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


def stft(f: SampledFunction, g: SampledFunction) -> TFMatrix:
    """Full STFT matrix of ``f`` with window ``g`` (same grid).

    ``ifftshift(f)`` times the rows of :func:`window_shifts`, multiplied
    straight into the output, which is transformed in place with the
    columns in FFT order; one ``fftshift`` puts the frequencies in grid
    order. The matrix holds n^2 complex values; when that exceeds
    ``grid.MATRIX_BUDGET`` a :class:`ResourceError` names the largest
    admissible n. The streaming norm routines have no such limit.
    """
    check_matrix_budget(f.grid.n, "stft")
    if f.grid != g.grid:
        raise StructuralError("stft needs two functions on a common grid")
    rows = np.empty((f.grid.n, f.grid.n), dtype=complex)
    np.multiply(np.fft.ifftshift(f.samples), window_shifts(g), out=rows)
    np.fft.fft(rows, axis=1, out=rows)
    rows *= f.grid.spacing
    return TFMatrix(f.grid, f.grid.dual(), np.fft.fftshift(rows, axes=1))


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

