"""Structured test functions that witness norm growth.

Everything here builds concrete sampled functions whose norms have
known closed-form behavior: trains of disjoint bumps on a stretched
lattice, modulated trains with prescribed Fourier coefficients, and
chirped annuli whose transforms spread at a computable rate. The
builders validate geometric preconditions (disjoint supports, in-box
placement) so a norm computed downstream can be trusted to measure
what the construction promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ValidationError
from .grid import Grid, SampledFunction, axis_tiles, bracket, inverse_fourier_transform
from .phase import bracket_power, k_alpha, mollifier, mu_gradient

__all__ = [
    "CoefficientSeq",
    "Bump",
    "default_bump",
    "annulus_profile",
    "build_F",
    "build_G",
    "build_modulated_train",
    "build_chirp_train",
    "chirp_modulate",
    "dispersive_sup",
    "default_dispersive_grid",
    "high_growth_decay",
    "decay_grid",
]

INF = float("inf")


@dataclass(frozen=True)
class CoefficientSeq:
    """Finitely supported nonnegative coefficients on the integer lattice."""

    indices: tuple
    values: tuple

    def __post_init__(self):
        idx = np.asarray(self.indices)
        vals = np.asarray(self.values, dtype=float)
        if idx.ndim != 1 or vals.ndim != 1 or idx.size != vals.size:
            raise ValidationError("indices and values must be 1D and equal length")
        if idx.size == 0:
            raise ValidationError("a coefficient sequence needs at least one entry")
        if not np.all(idx == np.asarray(idx, dtype=int)):
            raise ValidationError("indices must be integers")
        if np.unique(idx).size != idx.size:
            raise ValidationError("indices must be distinct")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValidationError("values must be finite and nonnegative")
        object.__setattr__(self, "indices", tuple(int(k) for k in idx))
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    @classmethod
    def delta(cls, k: int = 0, value: float = 1.0) -> "CoefficientSeq":
        return cls((k,), (value,))

    @classmethod
    def ones(cls, start: int, count: int) -> "CoefficientSeq":
        return cls(tuple(range(start, start + count)), (1.0,) * count)

    def index_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=float)

    def value_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def norm(self, p: float, s: float = 0.0) -> float:
        from .spaces import sequence_norm

        return sequence_norm(self.value_array(), self.index_array(), p, s)

    def total(self) -> float:
        return float(self.value_array().sum())


@dataclass(frozen=True)
class Bump:
    """A compactly supported profile with its support radius."""

    radius: float
    func: Callable

    def __post_init__(self):
        if not (self.radius > 0):
            raise DomainError(f"bump radius must be positive, got {self.radius}")

    def __call__(self, x):
        return self.func(x)


def default_bump(radius: float = 0.2) -> Bump:
    """Smooth bump of the given radius with peak value 1 at the origin."""
    return Bump(radius, lambda x: mollifier(x, radius))


def annulus_profile() -> Bump:
    """Smooth even profile supported on 1/2 <= |u| <= 2."""

    def rho(u):
        u = np.asarray(u, dtype=float)
        return mollifier((np.abs(u) - 1.25) / 0.75)

    return Bump(2.0, rho)


def _stretched_centers(a: CoefficientSeq, alpha: float):
    return k_alpha(a.index_array(), alpha)


def _support_slice(grid: Grid, center: float, half_width: float) -> slice:
    """Index window covering [center - half_width, center + half_width]."""
    x0 = -grid.half_length
    lo = int(np.floor((center - half_width - x0) / grid.spacing)) - 1
    hi = int(np.ceil((center + half_width - x0) / grid.spacing)) + 2
    return slice(max(lo, 0), min(hi, grid.n))


def _check_train_geometry(centers, radii, half_length):
    """Disjoint supports (with a one-radius safety gap) inside the box."""
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    radii = np.broadcast_to(np.asarray(radii, dtype=float), centers.shape)
    order = np.argsort(centers)
    c = centers[order]
    r = radii[order]
    if np.any(np.abs(c) + r > half_length):
        worst = float(np.max(np.abs(c) + r))
        raise ValidationError(
            f"bump train leaves the grid: needs half length {worst:g}, "
            f"grid has {half_length:g}"
        )
    if c.size > 1:
        gaps = c[1:] - c[:-1]
        needed = 2.0 * (r[1:] + r[:-1])
        if np.any(gaps < needed):
            i = int(np.argmin(gaps - needed))
            raise ValidationError(
                f"bump supports overlap: centers {c[i]:g} and {c[i + 1]:g} "
                f"are {gaps[i]:g} apart but need {needed[i]:g}"
            )


def build_F(
    a: CoefficientSeq,
    alpha: float,
    grid: Grid,
    h: Optional[Bump] = None,
) -> SampledFunction:
    """Train of identical bumps at the stretched lattice points.

    F(x) = sum_k a_k h(x - k_alpha). Supports must be disjoint and lie
    inside the grid; a single unit coefficient at the origin returns
    the bare bump.
    """
    h = h if h is not None else default_bump()
    centers = _stretched_centers(a, alpha)
    _check_train_geometry(centers, h.radius, grid.half_length)
    x = grid.axis()
    out = np.zeros(grid.n, dtype=complex)
    for c, v in zip(np.atleast_1d(centers), a.values):
        sl = _support_slice(grid, c, h.radius)
        out[sl] += v * h(x[sl] - c)
    return SampledFunction(grid, out)


def build_G(
    a: CoefficientSeq,
    alpha: float,
    grid: Grid,
    h: Optional[Bump] = None,
) -> SampledFunction:
    """Modulated train: each bump carries the local gradient frequency.

    G(x) = sum_k a_k h(x - k_alpha) exp(2 pi i grad_mu(k_alpha) x). The
    supports are disjoint, so |G| = sum_k a_k h(. - k_alpha) pointwise.
    """
    h = h if h is not None else default_bump()
    centers = _stretched_centers(a, alpha)
    _check_train_geometry(centers, h.radius, grid.half_length)
    x = grid.axis()
    out = np.zeros(grid.n, dtype=complex)
    for c, v in zip(np.atleast_1d(centers), a.values):
        freq = mu_gradient(c, alpha)
        sl = _support_slice(grid, c, h.radius)
        out[sl] += v * h(x[sl] - c) * np.exp(2j * np.pi * freq * x[sl])
    return SampledFunction(grid, out)


def build_modulated_train(
    a: CoefficientSeq,
    phi: Bump,
    grid: Grid,
) -> SampledFunction:
    """f = sum_k a_k exp(2 pi i k x) psi(x) with psi the normalized
    inverse transform of phi.

    phi must be supported strictly inside frequency radius 1/2 so that
    integer modulations keep disjoint spectra. psi is scaled so that
    psi(0) = 1 exactly, making f(0) = sum_k a_k an identity of the
    discrete model rather than an approximation.

    phi's samples are scaled in place and its axis is gone before the
    transform; the modulations are summed one tile of grid points at a
    time and multiplied into psi's own buffer, which becomes f. So the
    peak is the transform's input and output, two n-point complex
    arrays, and the sum in tiles has the bytes of a sum over the whole
    axis.
    """
    if phi.radius >= 0.5:
        raise ValidationError(
            f"spectral bump radius must be below 1/2, got {phi.radius:g}"
        )
    dual = grid.dual()
    nyquist = 1.0 / (2.0 * grid.spacing)
    kmax = float(np.max(np.abs(a.index_array())))
    if kmax + phi.radius > nyquist:
        raise ValidationError(
            f"modulation {kmax:g} plus bump radius exceeds the Nyquist "
            f"frequency {nyquist:g}"
        )
    phat = np.asarray(phi(dual.axis()), dtype=float)
    mass = float(phat.sum()) * dual.spacing
    if mass <= 0:
        raise ValidationError("spectral bump has no mass on this grid")
    phat /= mass
    phat = SampledFunction(dual, phat)
    psi = inverse_fourier_transform(phat).samples
    del phat
    for sl, x in axis_tiles(grid):
        train = np.zeros(x.size, dtype=complex)
        for k, v in zip(a.indices, a.values):
            train += v * np.exp(2j * np.pi * k * x)
        np.multiply(train, psi[sl], out=psi[sl])
    return SampledFunction(grid, psi)


def build_chirp_train(
    a: CoefficientSeq,
    alpha: float,
    grid: Grid,
    g: Optional[Bump] = None,
) -> SampledFunction:
    """Train of bumps dilated to the local lattice scale.

    G(x) = sum_k a_k g((x - k_alpha) / <k>^(alpha/(1-alpha))). The
    bump at k widens with the lattice stretch, so its value at the
    center stays g(0) while its width tracks the local cell size.
    """
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    g = g if g is not None else default_bump()
    idx = a.index_array()
    centers = k_alpha(idx, alpha)
    scales = bracket(idx) ** (alpha / (1.0 - alpha))
    _check_train_geometry(centers, g.radius * scales, grid.half_length)
    x = grid.axis()
    out = np.zeros(grid.n, dtype=complex)
    for c, s, v in zip(
        np.atleast_1d(centers), np.atleast_1d(scales), a.values
    ):
        sl = _support_slice(grid, c, g.radius * s)
        out[sl] += v * g((x[sl] - c) / s)
    return SampledFunction(grid, out)


def chirp_modulate(f: SampledFunction, alpha: float) -> SampledFunction:
    """Multiply by exp(2 pi i <x>^(2 - alpha)) pointwise."""
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    x = f.grid.axis()
    factor = np.exp(2j * np.pi * bracket(x) ** (2.0 - alpha))
    return SampledFunction(f.grid, f.samples * factor)


def default_dispersive_grid() -> Grid:
    return Grid(1, 1 << 14, 800.0 / (1 << 14))


def dispersive_sup(
    phi: Callable,
    phi_dd: Callable,
    g: Bump,
    lam: float,
) -> float:
    """sup over x of the inverse transform of g(xi) exp(i lam phi(xi)).

    The phase must be genuinely curved where g lives: |phi''| is
    required to stay above 0.1 on the support of g.
    At lam = 0 this is the sup norm of the inverse transform of g; for
    large lam stationary phase spreads the mass and the sup decays
    like lam^(-1/2).
    """
    dual = default_dispersive_grid().dual()
    xi = dual.axis()
    inside = np.abs(xi) <= g.radius
    curv = np.abs(np.asarray(phi_dd(xi[inside]), dtype=float))
    if curv.size and float(curv.min()) < 0.1:
        raise ValidationError(
            f"phase curvature {float(curv.min()):.3g} drops below "
            "0.1 on the bump support"
        )
    ghat = np.asarray(g(xi), dtype=float) * np.exp(
        1j * float(lam) * np.asarray(phi(xi), dtype=float)
    )
    h = inverse_fourier_transform(SampledFunction(dual, ghat))
    return float(np.abs(h.samples).max())


def decay_grid(k: float, t2: float) -> Grid:
    """Grid sized so the chirped annulus at k and its transform both fit."""
    k = abs(float(k))
    _, dmu, _ = bracket_power(2.0 + t2)
    x_need = 1.5 * abs(float(dmu(2.0 * k))) / (2.0 * np.pi) + 4.0 * k
    nyq_need = 4.0 * k
    n = 1 << max(10, int(np.ceil(np.log2(4.0 * x_need * nyq_need))))
    return Grid(1, n, 2.0 * x_need / n)


def high_growth_decay(
    k: float,
    t2: float,
    p: float = INF,
    grid: Optional[Grid] = None,
) -> float:
    """Normalized size of the transform of a chirped annulus at scale k.

    The frequency-side function is exp(-i <xi>^(2+t2)) rho(xi / |k|)
    with rho an even annulus profile. Its inverse transform spreads
    over a window of width W = (mu'(2k) - mu'(k/2)) / (2 pi); the
    returned value is the L^p norm times W^(-1/p), which removes the
    volume factor and leaves the stationary-phase amplitude, decaying
    like k^(-t2/2).
    """
    if not (t2 >= 0):
        raise DomainError(f"t2 must be nonnegative, got {t2}")
    kk = abs(float(k))
    if kk < 1:
        raise DomainError(f"|k| must be at least 1, got {k}")
    grid = grid if grid is not None else decay_grid(kk, t2)
    dual = grid.dual()
    xi = dual.axis()
    nyquist = 1.0 / (2.0 * grid.spacing)
    if 2.0 * kk > nyquist / 2.0:
        raise ValidationError(
            f"annulus at scale {kk:g} needs Nyquist frequency at least "
            f"{4.0 * kk:g}, grid has {nyquist:g}"
        )
    mu, dmu, _ = bracket_power(2.0 + t2)
    rho = annulus_profile()
    ghat = np.asarray(rho(xi / kk), dtype=float) * np.exp(
        -1j * np.asarray(mu(xi), dtype=float)
    )
    h = inverse_fourier_transform(SampledFunction(dual, ghat))
    spread = (float(dmu(2.0 * kk)) - float(dmu(kk / 2.0))) / (2.0 * np.pi)
    mags = np.abs(h.samples)
    if p == INF:
        return float(mags.max())
    pp = float(p)
    if not (pp >= 1):
        raise DomainError(f"p must be at least 1, got {p}")
    norm = float(((mags**pp).sum() * grid.spacing) ** (1.0 / pp))
    return norm * spread ** (-1.0 / pp)
