"""Oscillatory integral operators on the periodic grid.

An operator here is determined by a symbol sigma(x, xi) and a phase
Phi(x, xi): it maps f to the Riemann sum over the dual grid of
sigma * fhat * exp(2 pi i Phi). Three independent realizations are
provided: the direct quadrature, a fast path through the separable
parts of symbol and phase when the phase's coupling is 0 or 1, and an
integral kernel obtained by transforming the symbol-phase matrix in
its second slot. They agree to round-off on band-limited inputs, which
is the working correctness check for everything built on top.

The fast path is :func:`apply_fio_family` (:func:`apply_fio` is a family
of one), which works tile by tile and, at coupling 1 without mu_xi, on
patches of the input's support (:func:`_patches`), whose bytes differ
from the whole grid's at round-off only. The direct quadrature, the
kernel and the weak pairing read sigma * exp(2 pi i Phi) one block of x
rows at a time (:func:`_phase_matrix_blocks`), so none holds an n x n
temporary but the kernel's own output. Rows past n/2 reuse their mirror
rows' exponentials where Phi agrees bit for bit, but Phi is still
evaluated at every point, so the three realizations stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, StructuralError, ValidationError
from .grid import (
    Grid,
    Runs,
    SampledFunction,
    axis_tiles,
    bracket,
    check_matrix_budget,
    fourier_transform,
    run_tiles,
    support_runs,
    take,
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

# the margin, in units of x, that a patch keeps on either side of the
# support it holds: the multiplier <xi>^(-s2) extends analytically to the
# strip |Im xi| < 1, so its kernel decays like e^(-2 pi |x|), and
# e^(-12 pi) ~ 4e-17 of it reaches past 6 units
PATCH_MARGIN = 6.0

# complex entries per block of the phase matrix (1 MiB)
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

    The axis is sorted, so each edge is a ``searchsorted`` on its few
    points around indices n/4 and 3n/4, computed as ``Grid.axis`` does.
    """
    n = dual.n
    edges = []
    for centre, value, side in (n // 4, -cutoff, "left"), (3 * n // 4, cutoff, "right"):
        lo, hi = max(centre - 2, 0), min(centre + 3, n)
        xi = np.arange(lo - n // 2, hi - n // 2) * dual.spacing
        edges.append(lo + int(np.searchsorted(xi, value, side=side)))
    return tuple(edges)


def _spectrum(f: SampledFunction):
    """(fhat, (head, tail)): f's transform, whose entries with |xi| >
    Nyquist/2 are the head ``[:head]`` and the tail ``[tail:]`` of the
    sorted frequency axis, so their energy needs no mask, copy or axis."""
    fhat = fourier_transform(f)
    nyquist = 1.0 / (2.0 * f.grid.spacing)
    return fhat, _band_edges(fhat.grid, nyquist / 2.0)


def _energy(runs, shift):
    """sum |c|^2 times 4^shift over the arrays c of ``runs``, summed by
    numpy's own reductions over float views of ``grid.TILE_ENTRIES``
    tiles: no BLAS routine runs, so no BLAS thread wakes."""
    total = 0.0
    for _, tile in run_tiles(runs):
        t = np.ldexp(tile.view(float), shift) if shift else tile.view(float)
        total += np.add.reduce(t * t)
    return total


def _energies(spectra, shift):
    """(outside, total) energies of all the spectra, times 4^shift."""
    outside = total = 0.0
    for fhat, (head, tail) in spectra:
        c = fhat.samples
        out = _energy([(0, c[:head]), (0, c[tail:])], shift)
        outside += out
        total += out + _energy([(0, c[head:tail])], shift)
    return outside, total


def _leakage(spectra) -> float:
    """sqrt(outside / total) over all the ``_spectrum`` results: the
    fraction of their spectral amplitude above half Nyquist.

    Squares of entries above about 1e154 overflow, and a square under
    2^-1022 loses up to 2^-1074. When the plain total is not finite or
    is under 2^-900, where its round-off no longer bounds n such losses,
    the sums are taken again with each entry scaled by the power of two
    that brings the largest into [1/2, 1), which cancels in the ratio.
    """
    with np.errstate(over="ignore"):
        outside, total = _energies(spectra, 0)
    if not 2.0**-900 <= total < math.inf:
        views = [fhat.samples.view(float) for fhat, _ in spectra]
        peak = max(max(v.max(), -v.min()) for v in views)
        outside, total = _energies(spectra, -math.frexp(peak)[1])
    return 0.0 if total == 0.0 else math.sqrt(outside / total)


def _checked_transforms(pieces) -> list:
    """The pieces' transforms, after their band limit is tested on the
    leakage of all their spectra together: sqrt(sum outside / sum total)."""
    spectra = [_spectrum(piece) for piece in pieces]
    leak = _leakage(spectra)
    if leak >= BANDLIMIT_TOL:
        raise ValidationError(
            f"input is not band-limited to half Nyquist: spectral leakage "
            f"{leak:.3e} exceeds {BANDLIMIT_TOL:.0e}"
        )
    return [fhat for fhat, _ in spectra]


def bandlimit_leakage(f: SampledFunction) -> float:
    """Fraction of spectral amplitude above half the Nyquist frequency."""
    return _leakage([_spectrum(f)])


def ensure_bandlimited(f: SampledFunction):
    _checked_transforms([f])


def _phase_matrix_blocks(symbol, phase, x, xi):
    """(rows, sigma * exp(2 pi i Phi)) over the blocks ``[b c, (b + 1)
    c)`` of c x rows (about a megabyte), each against all xi, in no fixed
    order. Each is built in one buffer allocated per call, which the
    next overwrites, so the direct quadrature, ``kernel`` and
    ``weak_pairing`` consume a block (a product with a vector, or a
    transform into K) before asking for the next.

    Phi, and sigma unless the symbol is constant, are evaluated at every
    point. Row n - j takes the exponentials of row j, reversed over the
    columns past 0, wherever the two rows' Phi agree bit for bit, as an
    even phase's do on a symmetric axis, and forms the rest
    (:func:`_mirror_rows`), so each block holds the bytes of one formed
    whole. First-half blocks go from the middle outward, each followed
    by its mirror block.
    """
    n, cols = x.size, xi.size
    chunk = max(1, _ROW_CHUNK_ENTRIES // cols)
    half = n // 2
    # n is a power of two, so every mirror block is one of the blocks
    assert n <= chunk or half % chunk == 0
    buf = np.empty((min(chunk, n), cols), dtype=complex)
    XI = xi[None, :]
    constant = symbol.s1 == 0.0 and symbol.s2 == 0.0

    def phases(start, rows):
        return np.asarray(phase.eval(x[start : start + rows, None], XI), dtype=float)

    def finish(start, e):
        # times sigma = 1 would only flip the sign of zero imaginary parts
        X = x[start : start + e.shape[0], None]
        block = buf[: X.size]
        if constant:
            block[...] = e
        else:
            np.multiply(np.asarray(symbol.eval(X, XI), dtype=float), e, out=block)
        return slice(start, start + X.size), block

    if n <= chunk:
        ph, e = phases(0, n), buf[:n]
        _exp_2pi_i(ph[: half + 1], e[: half + 1])
        _mirror_rows(e[half + 1 :], ph[half + 1 :], e[1:half], ph[1:half])
        yield finish(0, e)
        return
    # rows s + 1 .. s + c mirror the block at n - s - c, so src holds a
    # first-half block's exponentials and phases with, as row c, the
    # first row of the block before it; row n/2 mirrors itself
    src_e = np.empty((chunk + 1, cols), dtype=complex)
    src_ph = np.empty((chunk + 1, cols))
    src_ph[chunk] = phases(half, 1)[0]
    _exp_2pi_i(src_ph[chunk], src_e[chunk])
    for start in range(half - chunk, -1, -chunk):
        src_ph[:chunk] = phases(start, chunk)
        yield finish(start, _exp_2pi_i(src_ph[:chunk], src_e[:chunk]))
        _mirror_rows(buf, phases(n - start - chunk, chunk), src_e[1:], src_ph[1:])
        yield finish(n - start - chunk, buf)
        src_e[chunk], src_ph[chunk] = src_e[0], src_ph[0]


def _exp_2pi_i(ph, out=None):
    """e^(2 pi i ph), formed in ``out`` (default: a new array)."""
    out = np.multiply(2j * np.pi, ph, out=out)
    return np.exp(out, out=out)


def _mirror_rows(e, ph, src_e, src_ph):
    """e = e^(2 pi i ph), given src_e = e^(2 pi i src_ph) on the mirror
    rows, so that row i of e mirrors row -1-i of src: columns 1.. take
    src_e's reversed where the two phases agree bit for bit, and the
    rest, column 0 included, are formed."""
    e[:, 1:] = src_e[::-1, :0:-1]
    miss = ph[:, 1:].view(np.int64) != src_ph[::-1, :0:-1].view(np.int64)
    _exp_2pi_i(ph[:, :1], e[:, :1])
    e[:, 1:][miss] = _exp_2pi_i(ph[:, 1:][miss])


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
        return apply_fio_family(f, [symbol], phase, lambda s, g: g.densify())[0]
    return _apply_transformed(f.grid, _checked_transforms([f.densify()])[0], symbol, phase)


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

    f is a :class:`grid.SampledFunction` or a :class:`grid.Runs`. At
    coupling 1 without mu_xi, F^-1[sigma2 fhat] is a Fourier multiplier,
    which commutes with translation. When f's exact support (|f| > 0)
    fits in patches inside the grid that cover at most half of it (see
    :func:`_patches`), each patch is taken from f's runs, transformed,
    checked and weighed on its own, and ``reduce`` is handed the output
    as a :class:`grid.Runs` of the patches; otherwise f is transformed
    whole and ``reduce`` is handed a SampledFunction.

    Every pass runs tile by tile, so besides pocketfft's scratch (see
    :func:`grid.transform_in_place`) these arrays are alive, each one
    n-point or one per patch: fhat until the last s2 begins, whose
    profile F^-1[...] is weighed in fhat's own buffer; e^(2 pi i mu_x),
    stored only for a family of two or more symbols whose phase has
    mu_x; a profile while its s2 lasts; and an output, which the last
    symbol of an s2 writes into that profile. Each output is dropped
    before the next one is made, and what no later symbol reads is
    dropped before ``reduce`` runs. So a one-symbol family holds one
    such array, and two symbols of distinct s2 hold three at most.
    """
    grid = f.grid
    patches = _patches(f, phase)
    whole = patches is None
    if whole:
        patches, pieces = [(0, grid.n)], [f.densify()]
    else:
        pieces = (
            SampledFunction(Grid(1, hi - lo, grid.spacing), take(f, lo, hi))
            for lo, hi in patches
        )
    spectra = _checked_transforms(pieces)
    del pieces
    if phase.coupling not in (0, 1):
        return [reduce(s, _apply_transformed(grid, spectra[0], s, phase)) for s in symbols]
    symbols = list(symbols)
    order = sorted(range(len(symbols)), key=lambda i: symbols[i].s2)
    chirped = phase.mu_x_triple is not ZERO_PART
    fronts = [None] * len(patches)
    if chirped and len(symbols) > 1:
        fronts = [np.empty(hi - lo, dtype=complex) for lo, hi in patches]
        for (lo, hi), front in zip(patches, fronts):
            for sl, x in axis_tiles(grid, lo, hi):
                front[sl.start - lo : sl.stop - lo] = _exp_2pi_i(phase.mu_x(x))
    results = [None] * len(symbols)
    profiles = None
    for k, i in enumerate(order):
        symbol = symbols[i]
        last_reader = k + 1 == len(order) or symbols[order[k + 1]].s2 != symbol.s2
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                if profiles is None:
                    # the last s2 is the profiles' last use of the spectra
                    spent = symbols[order[-1]].s2 == symbol.s2
                    profiles = [_profile(fhat, symbol, phase, spent) for fhat in spectra]
                    if spent:
                        spectra = None
                # at coupling 0 the profile is a scalar
                field = isinstance(profiles[0], np.ndarray)
                if last_reader and field:
                    outs = profiles
                else:
                    outs = [np.empty(hi - lo, dtype=complex) for lo, hi in patches]
                for (lo, hi), profile, front, out in zip(patches, profiles, fronts, outs):
                    for sl, x in axis_tiles(grid, lo, hi):
                        local = slice(sl.start - lo, sl.stop - lo)
                        tile = symbol.sigma1(x)
                        if front is not None:
                            tile = tile * front[local]
                        elif chirped:
                            tile = tile * _exp_2pi_i(phase.mu_x(x))
                        np.multiply(tile, profile[local] if field else profile, out=out[local])
            runs = [(lo, out) for (lo, _), out in zip(patches, outs)]
            g = SampledFunction(grid, outs[0]) if whole else Runs(grid, runs)
        except (DomainError, ValidationError):
            raise _not_finite(symbol) from None
        # what no later symbol reads goes before reduce runs
        if last_reader:
            profiles = None
        if k + 1 == len(order):
            fronts = None
        del outs, runs
        results[i] = reduce(symbol, g)
        del g
    return results


def _patches(f, phase):
    """The (lo, hi) index ranges of the patches on which the family is
    applied to f, or None when it is applied on the whole grid.

    Patches are taken at coupling 1 without mu_xi only. Each run of f's
    exact support gets a patch of a power-of-two length starting
    ``PATCH_MARGIN`` before it and ending at least that far after it;
    runs whose patches overlap share one. The patches are used only when
    they lie inside the grid, so that no patch wraps, and cover at most
    half of it. f == 0 is applied on the whole grid.
    """
    if phase.coupling != 1.0 or phase.mu_xi_triple is not ZERO_PART:
        return None
    margin = math.ceil(PATCH_MARGIN / f.grid.spacing)
    patches = []
    for start, end in zip(*support_runs(f.runs, 0.0, 2 * margin)):
        lo = int(start) - margin
        while True:
            hi = lo + (1 << (int(end) + margin - lo).bit_length())
            if not patches or patches[-1][1] <= lo:
                break
            lo = patches.pop()[0]
        patches.append((lo, hi))
    n = f.grid.n
    if not patches or patches[0][0] < 0 or patches[-1][1] > n:
        return None
    return patches if sum(hi - lo for lo, hi in patches) <= n // 2 else None


def _profile(fhat, symbol, phase, in_place):
    """F^-1[sigma2 e^(2 pi i mu_xi) fhat] at coupling 1, its Riemann sum
    at coupling 0.

    The spectrum is weighed tile by tile, at coupling 1 straight into
    FFT order (the halves swapped), so the inverse transform runs in the
    buffer it was weighed into. With ``in_place`` that buffer is fhat's
    own, which is spent. Weights of a growing symbol may overflow with
    no numpy warning; the transform then raises DomainError.
    """
    dual = fhat.grid
    c = fhat.samples
    half = dual.n // 2
    weighted = c if in_place else np.empty(dual.n, dtype=complex)
    tiles = zip(axis_tiles(dual, 0, half), axis_tiles(dual, half))
    with np.errstate(over="ignore", invalid="ignore"):
        for (low, xi_low), (high, xi_high) in tiles:
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


def _not_finite(symbol) -> DomainError:
    name = symbol.describe()
    return DomainError(f"operator with symbol {name} is not finite on this input")


def _finite(symbol, values):
    """values, if each is finite; else the DomainError naming the symbol."""
    if not np.isfinite(values).all():
        raise _not_finite(symbol)
    return values


def _weigh(c, xi, symbol, phase):
    """sigma2(xi) e^(2 pi i mu_xi(xi)) c, as a new array."""
    if phase.mu_xi_triple is ZERO_PART:
        return symbol.sigma2(xi) * c
    weighted = _exp_2pi_i(phase.mu_xi(xi))
    np.multiply(symbol.sigma2(xi), weighted, out=weighted)
    weighted *= c
    return weighted


def _apply_transformed(grid, fhat, symbol, phase):
    """The direct quadrature of the operator, applied to the input on
    ``grid`` whose transform is fhat."""
    out = np.empty(grid.n, dtype=complex)
    coeffs = fhat.samples * fhat.grid.cell_measure()
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, block in _phase_matrix_blocks(symbol, phase, grid.axis(), fhat.grid.axis()):
            out[rows] = block @ coeffs
    return SampledFunction(grid, _finite(symbol, out))


def kernel(symbol: SymbolSpec, phase: PhaseSpec, grid: Grid) -> np.ndarray:
    """Integral kernel K with Tf(x_j) = sum_l K[j, l] f(y_l) dx.

    Row j is the second-slot Fourier transform of sigma exp(2 pi i Phi)
    at x_j: K[j, l] = sum_m sigma(x_j, xi_m) exp(2 pi i Phi(x_j, xi_m))
    exp(-2 pi i xi_m y_l) d xi. Like ``stft``, it raises
    :class:`ResourceError` when the n x n matrix exceeds the budget.
    """
    check_matrix_budget(grid.n, "kernel")
    x = grid.axis()
    dual = grid.dual()
    # the blocks are built with xi in FFT order and transformed in
    # place; n is even, so scaling each half into the other half of K
    # is the fftshift
    xi = np.fft.ifftshift(dual.axis())
    half = grid.n // 2
    K = np.empty((grid.n, grid.n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, block in _phase_matrix_blocks(symbol, phase, x, xi):
            _finite(symbol, np.fft.fft(block, axis=1, out=block).view(float))
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
    once, and the total sums the blocks' partial pairings in ascending
    row order, whatever order the blocks come in, so its last bits
    depend on the block size only. Agreement with
    inner(apply_fio(f), g) is a three-way consistency check on the
    quadrature, the kernel, and this pairing.
    """
    if f.grid != g.grid:
        raise StructuralError("weak pairing needs both functions on one grid")
    fhat = _checked_transforms([f])[0]
    xi = fhat.grid.axis()
    x = f.grid.axis()
    coeffs = fhat.samples * fhat.grid.cell_measure()
    gbar = np.conj(g.samples) * f.grid.cell_measure()
    with np.errstate(over="ignore", invalid="ignore"):
        partials = sorted(
            (rows.start, gbar[rows] @ (block @ coeffs))
            for rows, block in _phase_matrix_blocks(symbol, phase, x, xi)
        )
        return _finite(symbol, complex(sum((p for _, p in partials), 0.0 + 0.0j)))
