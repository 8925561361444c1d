"""Oscillatory integral operators on the periodic grid.

An operator here is determined by a symbol sigma(x, xi) and a phase
Phi(x, xi): it maps f to the Riemann sum over the dual grid of
sigma * fhat * exp(2 pi i Phi). Three independent realizations are
provided: the direct quadrature, a fast path through the separable
parts of symbol and phase when the phase's coupling is 0 or 1, and an
integral kernel obtained by transforming the symbol-phase matrix in
its second slot. They agree to round-off on band-limited inputs, which
is the working correctness check for everything built on top.

The fast path is :func:`apply_fio_family`; :func:`apply_fio` is a family
of one. It skips the factor of a part the phase lacks, runs one inverse
transform per distinct s2, and makes every pass over the grid one tile
of ``grid.TILE_ENTRIES`` points at a time, so it forms no axis and no
n-point temporary. Its n-point complex arrays are fhat, e^(2 pi i mu_x)
(stored once for a family of two or more symbols, formed per tile for
one), a profile per s2 and an output per symbol. fhat is spent by the
last s2, whose profile is weighed in fhat's buffer, straight into the
FFT order its inverse transform runs in; the last symbol of each s2
writes its output over that profile. So a one-symbol family holds one
n-point array, and a family at most four (three when no two symbols
share an s2).

The direct quadrature, the kernel and the weak pairing read the matrix
sigma * exp(2 pi i Phi) one block of x rows at a time, built in place in
one reused buffer of about a megabyte, so none of them holds an n x n
temporary; only the kernel's own output is n x n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, StructuralError, ValidationError
from .grid import (
    Grid,
    SampledFunction,
    axis_tiles,
    bracket,
    check_matrix_budget,
    fourier_transform,
    transform_in_place,
)
from .phase import ZERO_PART, PhaseSpec, build_builtin

__all__ = [
    "SymbolSpec",
    "constant_symbol",
    "decaying_symbol",
    "make_symbol",
    "BUILTIN_SYMBOLS",
    "BANDLIMIT_TOL",
    "bandlimit_leakage",
    "ensure_bandlimited",
    "apply_fio",
    "apply_fio_family",
    "kernel",
    "apply_kernel",
    "weak_pairing",
]

# inputs must keep essentially all energy below half the Nyquist frequency
BANDLIMIT_TOL = 1e-8

# complex entries per block of the phase matrix: 1 MiB, which stays in a
# 2 MiB L2 cache; blocks of 2^14 to 2^17 entries timed alike, and 2^22
# (one block for every grid up to n = 2048) was slower
_ROW_CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SymbolSpec:
    """Symbol sigma(x, xi) = sigma1(x) * sigma2(xi) = <x>^(-s1) <xi>^(-s2).

    The decay rates (s1, s2) are the data; the two factors and their
    product are methods, and fast operator paths use the factors.
    """

    name: str
    s1: float = 0.0
    s2: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.s1) and np.isfinite(self.s2)):
            raise DomainError(f"decay rates must be finite, got {self.s1}, {self.s2}")

    def sigma1(self, x):
        return bracket(x) ** (-self.s1)

    def sigma2(self, xi):
        return bracket(xi) ** (-self.s2)

    def eval(self, x, xi):
        return self.sigma1(x) * self.sigma2(xi)

    def describe(self) -> str:
        return self.name


def constant_symbol() -> SymbolSpec:
    """sigma identically 1."""
    return SymbolSpec("constant")


def decaying_symbol(s1: float, s2: float) -> SymbolSpec:
    """sigma(x, xi) = <x>^(-s1) <xi>^(-s2)."""
    s1 = float(s1)
    s2 = float(s2)
    return SymbolSpec(f"decaying[s1={s1:g},s2={s2:g}]", s1, s2)


BUILTIN_SYMBOLS = {
    "constant": constant_symbol,
    "decaying": decaying_symbol,
}


def make_symbol(kind: str, **params) -> SymbolSpec:
    """Look up a built-in symbol by name and build it with ``params``."""
    return build_builtin(BUILTIN_SYMBOLS, kind, params, "symbol")


def _band_edges(dual: Grid, cutoff: float):
    """(head, tail) with the frequencies below -cutoff the head
    ``dual.axis()[:head]`` and those above cutoff the tail
    ``dual.axis()[tail:]``, for a cutoff near half of the axis' extent.

    The axis is sorted, so each edge is a ``searchsorted`` on the few
    points of the axis around -n/4 or +n/4 from its middle, computed as
    ``Grid.axis`` computes them, rather than on the whole axis.
    """
    n = dual.n
    edges = []
    for centre, value, side in (n // 4, -cutoff, "left"), (3 * n // 4, cutoff, "right"):
        lo, hi = max(centre - 2, 0), min(centre + 3, n)
        xi = np.arange(lo - n // 2, hi - n // 2) * dual.spacing
        edges.append(lo + int(np.searchsorted(xi, value, side=side)))
    return tuple(edges)


def _spectrum(f: SampledFunction):
    """f's transform and the fraction of its amplitude above half Nyquist.

    The entries with |xi| > Nyquist/2 are a head and a tail of the
    sorted frequency axis: their energy is two sums of squares over
    slices, with no mask, no copy and no axis.
    """
    if f.dim != 1:
        raise StructuralError("band-limit checks apply to one-dimensional samples")
    fhat = fourier_transform(f)
    nyquist = 1.0 / (2.0 * f.grid.spacing)
    head, tail = _band_edges(fhat.grid, nyquist / 2.0)
    c = fhat.samples
    total = np.vdot(c, c).real
    if total == 0.0:
        return fhat, 0.0
    outside = np.vdot(c[:head], c[:head]).real + np.vdot(c[tail:], c[tail:]).real
    return fhat, float(np.sqrt(outside / total))


def _checked_transform(f) -> SampledFunction:
    """f's transform, after f's band limit is tested on it."""
    fhat, leak = _spectrum(f)
    if leak >= BANDLIMIT_TOL:
        raise ValidationError(
            f"input is not band-limited to half Nyquist: spectral leakage "
            f"{leak:.3e} exceeds {BANDLIMIT_TOL:.0e}"
        )
    return fhat


def bandlimit_leakage(f: SampledFunction) -> float:
    """Fraction of spectral amplitude above half the Nyquist frequency."""
    return _spectrum(f)[1]


def ensure_bandlimited(f: SampledFunction):
    _checked_transform(f)


def _phase_matrix_blocks(symbol, phase, x, xi):
    """(rows, sigma * exp(2 pi i Phi)) over blocks of the x rows, each
    block against all xi; ``rows`` is the block's slice of x.

    Every block is built in place in one buffer allocated per call, so
    each yielded block is overwritten by the next. The direct quadrature,
    ``kernel`` and ``weak_pairing`` each consume a block (a matrix-vector
    product, or an in-place transform copied into K) before asking for
    the next one.
    """
    chunk = max(1, _ROW_CHUNK_ENTRIES // xi.size)
    buf = np.empty((min(chunk, x.size), xi.size), dtype=complex)
    XI = xi[None, :]
    for start in range(0, x.size, chunk):
        X = x[start : start + chunk, None]
        sig = np.asarray(symbol.eval(X, XI), dtype=float)
        ph = np.asarray(phase.eval(X, XI), dtype=float)
        block = buf[: X.size]
        np.multiply(2j * np.pi, ph, out=block)
        np.exp(block, out=block)
        np.multiply(sig, block, out=block)
        yield slice(start, start + X.size), block


def apply_fio(
    f: SampledFunction,
    symbol: SymbolSpec,
    phase: PhaseSpec,
    force_direct: bool = False,
) -> SampledFunction:
    """Apply the operator with the given symbol and phase to f.

    The returned samples are Tf(x_j) = sum_m sigma(x_j, xi_m)
    fhat(xi_m) exp(2 pi i Phi(x_j, xi_m)) d xi. Inputs must be
    band-limited to half Nyquist so that the cyclic quadrature matches
    the line integral it stands for. The operator is
    :func:`apply_fio_family` over a family of one symbol;
    ``force_direct`` keeps the O(n^2) quadrature for cross-checks.
    """
    if not force_direct:
        return apply_fio_family(f, [symbol], phase, lambda s, g: g)[0]
    if f.dim != 1:
        raise StructuralError("operators act on one-dimensional samples")
    return _apply_transformed(f.grid, _checked_transform(f), symbol, phase)


def apply_fio_family(
    f: SampledFunction,
    symbols,
    phase: PhaseSpec,
    reduce: Callable,
) -> list:
    """``[reduce(s, apply_fio(f, s, phase)) for s in symbols]``, with f
    transformed and checked once for the whole family.

    At coupling 0 or 1, Tf = sigma1 e^(2 pi i mu_x) F^-1[sigma2
    e^(2 pi i mu_xi) fhat] (at coupling 0 the bracket is a sum). The
    symbols are visited in order of s2, so ``reduce`` is called in that
    order; the results come back in the order of ``symbols``. Other
    couplings take the quadrature.

    Every pass over the grid runs tile by tile, so besides pocketfft's
    scratch these n-point complex arrays are alive: fhat until the last
    s2 begins, whose profile F^-1[...] is weighed in fhat's own buffer;
    e^(2 pi i mu_x), stored only for a family of two or more symbols
    whose phase has mu_x; a profile while its s2 lasts; and an output,
    which the last symbol of an s2 writes into that profile. Each
    output is dropped before the next one is made, and what no later
    symbol reads is dropped before ``reduce`` runs. So a one-symbol
    family holds one n-point array, and two symbols of distinct s2 hold
    three at most.
    """
    if f.dim != 1:
        raise StructuralError("operators act on one-dimensional samples")
    fhat = _checked_transform(f)
    grid = f.grid
    if phase.coupling not in (0, 1):
        return [reduce(s, _apply_transformed(grid, fhat, s, phase)) for s in symbols]
    symbols = list(symbols)
    order = sorted(range(len(symbols)), key=lambda i: symbols[i].s2)
    chirped = phase.mu_x_triple is not ZERO_PART
    front = None
    if chirped and len(symbols) > 1:
        front = np.empty(grid.n, dtype=complex)
        for sl, x in axis_tiles(grid):
            front[sl] = _phase_factor(phase.mu_x, x)
    results = [None] * len(symbols)
    profile = None
    for k, i in enumerate(order):
        symbol = symbols[i]
        if profile is None:
            # the last s2 is the profile's last use of fhat
            spent = symbols[order[-1]].s2 == symbol.s2
            profile = _profile(fhat, symbol, phase, in_place=spent)
            if spent:
                fhat = None
        last_reader = k + 1 == len(order) or symbols[order[k + 1]].s2 != symbol.s2
        # at coupling 0 the profile is a scalar
        field = isinstance(profile, np.ndarray)
        out = profile if last_reader and field else np.empty(grid.n, dtype=complex)
        for sl, x in axis_tiles(grid):
            tile = symbol.sigma1(x)
            if front is not None:
                tile = tile * front[sl]
            elif chirped:
                tile = tile * _phase_factor(phase.mu_x, x)
            np.multiply(tile, profile[sl] if field else profile, out=out[sl])
        # what no later symbol reads goes before reduce runs
        if last_reader:
            profile = None
        if k + 1 == len(order):
            front = None
        results[i] = reduce(symbol, SampledFunction(grid, out))
        del out
    return results


def _phase_factor(part, u):
    """e^(2 pi i part(u)), formed in place."""
    factor = 2j * np.pi * np.asarray(part(u), dtype=float)
    return np.exp(factor, out=factor)


def _profile(fhat, symbol, phase, in_place):
    """F^-1[sigma2 e^(2 pi i mu_xi) fhat] at coupling 1, its Riemann sum
    at coupling 0.

    The spectrum is weighed tile by tile, at coupling 1 straight into
    FFT order (the halves swapped), so the inverse transform runs in the
    buffer it was weighed into. With ``in_place`` that buffer is fhat's
    own, which is spent.
    """
    dual = fhat.grid
    c = fhat.samples
    half = dual.n // 2
    weighted = c if in_place else np.empty(dual.n, dtype=complex)
    for (low, xi_low), (high, xi_high) in zip(
        axis_tiles(dual, 0, half), axis_tiles(dual, half)
    ):
        # both tiles are weighed before either is written: in place,
        # the swap writes each over the other
        a = _weigh(c[low], xi_low, symbol, phase)
        b = _weigh(c[high], xi_high, symbol, phase)
        if phase.coupling == 1.0:
            a, b = b, a
        weighted[low], weighted[high] = a, b
    if phase.coupling == 1.0:
        return transform_in_place(dual, weighted, inverse=True).samples
    return weighted.sum() * dual.cell_measure()


def _weigh(c, xi, symbol, phase):
    """sigma2(xi) e^(2 pi i mu_xi(xi)) c, as a new array."""
    if phase.mu_xi_triple is ZERO_PART:
        return symbol.sigma2(xi) * c
    weighted = _phase_factor(phase.mu_xi, xi)
    np.multiply(symbol.sigma2(xi), weighted, out=weighted)
    weighted *= c
    return weighted


def _apply_transformed(grid, fhat, symbol, phase):
    """The direct quadrature of the operator, applied to the input on
    ``grid`` whose transform is fhat."""
    out = np.empty(grid.n, dtype=complex)
    coeffs = fhat.samples * fhat.grid.cell_measure()
    for rows, block in _phase_matrix_blocks(symbol, phase, grid.axis(), fhat.grid.axis()):
        out[rows] = block @ coeffs
    return SampledFunction(grid, out)


def kernel(symbol: SymbolSpec, phase: PhaseSpec, grid: Grid) -> np.ndarray:
    """Integral kernel K with Tf(x_j) = sum_l K[j, l] f(y_l) dx.

    Row j is the second-slot Fourier transform of sigma exp(2 pi i Phi)
    at x_j: K[j, l] = sum_m sigma(x_j, xi_m) exp(2 pi i Phi(x_j, xi_m))
    exp(-2 pi i xi_m y_l) d xi. Like ``stft``, it raises
    :class:`ResourceError` when the n x n matrix exceeds the budget.
    """
    if grid.dim != 1:
        raise StructuralError("kernels are built over one-dimensional grids")
    check_matrix_budget(grid.n, "kernel")
    x = grid.axis()
    dual = grid.dual()
    # the blocks are built with xi in FFT order and transformed in
    # place; n is even, so scaling each half into the other half of K
    # is the fftshift
    xi = np.fft.ifftshift(dual.axis())
    half = grid.n // 2
    K = np.empty((grid.n, grid.n), dtype=complex)
    for rows, block in _phase_matrix_blocks(symbol, phase, x, xi):
        np.fft.fft(block, axis=1, out=block)
        np.multiply(block[:, half:], dual.spacing, out=K[rows, :half])
        np.multiply(block[:, :half], dual.spacing, out=K[rows, half:])
    return K


def apply_kernel(K: np.ndarray, f: SampledFunction) -> SampledFunction:
    if K.shape != (f.grid.n, f.grid.n):
        raise StructuralError(
            f"kernel shape {K.shape} does not match grid size {f.grid.n}"
        )
    return SampledFunction(f.grid, (K @ f.samples) * f.grid.cell_measure())


def weak_pairing(
    f: SampledFunction,
    g: SampledFunction,
    symbol: SymbolSpec,
    phase: PhaseSpec,
) -> complex:
    """<Tf, g> computed as a double sum, never forming Tf.

    Pairs sigma exp(2 pi i Phi) against conj(g) tensor fhat directly,
    one block of x rows at a time: only a block's share of Tf exists at
    once, and the total is the sum of the blocks' partial pairings, so
    its last bits depend on the block size. Agreement with
    inner(apply_fio(f), g) is a three-way consistency check on the
    quadrature, the kernel, and this pairing.
    """
    if f.grid != g.grid:
        raise StructuralError("weak pairing needs both functions on one grid")
    fhat = _checked_transform(f)
    xi = fhat.grid.axis()
    x = f.grid.axis()
    coeffs = fhat.samples * fhat.grid.cell_measure()
    gbar = np.conj(g.samples) * f.grid.cell_measure()
    total = 0.0 + 0.0j
    for rows, block in _phase_matrix_blocks(symbol, phase, x, xi):
        total += gbar[rows] @ (block @ coeffs)
    return complex(total)
