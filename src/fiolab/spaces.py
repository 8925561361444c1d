"""Weighted mixed-norm spaces measured through the STFT.

Every modulation norm here follows one recipe: take STFT magnitudes of
the input on a Gabor lattice, multiply by a polynomial weight, then
reduce position first with exponent p and frequency second with q.
:func:`fold_norms` owns that recipe, and :func:`lattice_rows` is the one
producer of its tiles of magnitudes. The two norm engines differ only
in the lattice they pass and in where they scale by dx: the exact
engine (:func:`stft_norms`) passes every grid shift with the full
window and scales the spectra, the fast engine
(``experiments.fast_modulation_norms``) strided shifts over the support
of f with a truncated window and scales the magnitudes.

Exponents live in [1, inf]; infinity is handled exactly (sup over the
axis, no measure factor), never by a large-p surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError
from .grid import SampledFunction, bracket
from .tf import DEFAULT_WINDOW, make_window, window_shifts

__all__ = [
    "INF",
    "Weight",
    "SpaceSpec",
    "check_specs",
    "lattice_rows",
    "fold_norms",
    "modulation_norm",
    "stft_norms",
    "sequence_norm",
    "embedding_holds",
    "embedding_witness",
    "EmbeddingReport",
    "thm1_predicate",
    "thm2_predicate",
    "thm3_predicate",
]

INF = float("inf")

# rows of STFT data summed per block when streaming norms: a modulation
# norm adds each block's column sums to its accumulator, so this size
# fixes the summation order and with it every norm's bytes
_CHUNK_ENTRIES = 1 << 22

# entries per tile: the fold asks its producer for tiles of about this
# many magnitudes (1 MiB of floats) and reduces each while it is still
# in cache; the size moves no byte
FFT_BATCH_ENTRIES = 1 << 17


def _rec(p: float, name: str = "exponent") -> float:
    """1/p with exact infinity; validates p in [1, inf]."""
    p = float(p)
    if p == INF:
        return 0.0
    if not (1.0 <= p):
        raise DomainError(f"{name} must lie in [1, inf], got {p}")
    return 1.0 / p


@dataclass(frozen=True)
class Weight:
    """Polynomial weight <x>^s <xi>^t on position and frequency."""

    s: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.s) and np.isfinite(self.t)):
            raise DomainError(f"weight exponents must be finite, got {self.s}, {self.t}")

    def __call__(self, z1, z2):
        return bracket(z1) ** self.s * bracket(z2) ** self.t

    @property
    def trivial(self) -> bool:
        return self.s == 0.0 and self.t == 0.0


@dataclass(frozen=True)
class SpaceSpec:
    """Two-exponent space: p over position, q over frequency."""

    p: float
    q: float
    weight: Weight = Weight()
    window: str = DEFAULT_WINDOW


def check_specs(specs) -> str:
    """The one window of ``specs``, once each p and q is checked to lie
    in [1, inf]; both norm engines call this before they read f."""
    for spec in specs:
        _rec(spec.p, "p")
        _rec(spec.q, "q")
    window = specs[0].window
    if any(spec.window != window for spec in specs):
        raise StructuralError("all specs in one pass must share a window")
    return window


def lattice_rows(views, vector, spectra_scale=None, magnitude_scale=None):
    """``rows(sl, out)`` for :func:`fold_norms` on a Gabor lattice.

    ``views`` hold the lattice's rows one block after another, each a
    strided view whose rows are windowed stretches of samples. The rows
    of a tile are multiplied by ``vector`` into one complex buffer as
    wide as ``out``, L columns, reused for every tile, which an FFT
    transforms in place; its magnitudes fill ``out`` with the columns in
    FFT order. For L at or above ``vector.size`` the buffer is zero past
    that column. For a smaller, even L each row's product is summed
    modulo L, its columns past L formed L/2 at a time in ``out`` (which
    is C-contiguous and not yet written) and added in order, so the
    length-L DFT is exactly every k-th bin of the row's DFT zero padded
    to kL. ``spectra_scale`` multiplies the spectra, ``magnitude_scale``
    the magnitudes: the two round differently, and each engine's bytes
    are pinned with its own. The fold and the FFT work row by row, so
    the tile size moves no byte.
    """
    firsts = np.cumsum([0] + [len(view) for view in views])
    m = vector.size
    buf = np.empty((0, m), dtype=complex)

    def rows(sl, out):
        nonlocal buf
        if len(buf) < len(out):
            buf = np.empty(out.shape, dtype=complex)
        tile = buf[: len(out)]
        L = out.shape[1]
        head = min(m, L)
        # the last tile's FFT left its spectra in the padding columns
        tile[:, head:] = 0.0
        for first, last, view in zip(firsts, firsts[1:], views):
            r0, r1 = max(first, sl.start), min(last, sl.stop)
            if r0 < r1:
                segs = view[r0 - first : r1 - first]
                dest = tile[r0 - sl.start : r1 - sl.start]
                np.multiply(segs[:, :head], vector[:head], out=dest[:, :head])
                for c in range(L, m, L // 2):
                    part = out.view(complex)[r0 - sl.start : r1 - sl.start, : m - c]
                    np.multiply(segs[:, c : c + L // 2], vector[c : c + L // 2], out=part)
                    dest[:, c % L : c % L + part.shape[1]] += part
        np.fft.fft(tile, axis=1, out=tile)
        if spectra_scale is not None:
            tile *= spectra_scale
        np.abs(tile, out=out)
        if magnitude_scale is not None:
            out *= magnitude_scale

    return rows


def fold_norms(rows, x, xi, dx, dxi, specs) -> list:
    """Weighted modulation norms of one function from tiles of its
    STFT magnitudes.

    ``rows(sl, out)`` fills ``out`` with |V(x[sl], xi)|: one row per
    position of ``x[sl]``, one column per entry of ``xi``, in any column
    order. The fold asks for tiles of about ``FFT_BATCH_ENTRIES``
    entries, all in one reused buffer, and reduces each tile while it is
    still in cache, so memory stays bounded however large the grid is.
    ``dx``, ``dxi`` are the cell sizes of the sums. Position is reduced
    first (inner p, outer q), and frequency in increasing-xi order
    whatever the column order, so a producer that keeps FFT order gives
    the same bytes as one that shifts every row.

    Position sums add rows one after another within blocks of about
    ``_CHUNK_ENTRIES`` entries, and each block's column sums join the
    norm's accumulator. Every tile-sized buffer has a spare row ahead of
    the tile, which takes the block's sums so far before the buffer is
    reduced, so the sums, and the bytes, are those of whole blocks
    whatever the tile size. The tile is overwritten once no later spec
    reads the plain magnitudes: the last weighting to be built is built
    in it, and the last reader of each weighting takes its power in
    place. Every other weighting or power is formed in a tile-sized
    buffer of its own, so a single-spec fold holds one tile whatever its
    weight and exponents.

    Overflow makes no numpy warning: a norm that is not finite raises
    :class:`DomainError`.
    """
    specs = list(specs)
    if not specs:
        return []
    check_specs(specs)
    pqs = [(float(spec.p), float(spec.q)) for spec in specs]
    cols = xi.size
    # per spec: its position reduction at each frequency, and for a
    # finite p its column sums over the block so far
    accs = [np.zeros(cols) for _ in specs]
    sums = [np.zeros(cols) if p != INF else None for p, _ in pqs]
    order = np.argsort(xi)

    # the last spec to read each weighting; the plain magnitudes are read
    # by their own specs and to build every other weighting, at its first
    keys = [(spec.weight.s, spec.weight.t) for spec in specs]
    last = {key: i for i, key in enumerate(keys)}
    first = {key: keys.index(key) for key in last}
    plain = (0.0, 0.0)
    mags_last = max([last.get(plain, -1)] + [i for k, i in first.items() if k != plain])

    chunk = max(1, _CHUNK_ENTRIES // max(cols, 1))
    height = max(1, min(chunk, FFT_BATCH_ENTRIES // max(cols, 1), x.size))
    tile = np.empty((height + 1, cols))
    spare = {}

    def buffer(name, k):
        if name not in spare:
            spare[name] = np.empty_like(tile)
        return spare[name][:k]

    xi_pows = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, x.size, chunk):
            b1 = min(b0 + chunk, x.size)
            for t0 in range(b0, b1, height):
                sl = slice(t0, min(t0 + height, b1))
                k = sl.stop - t0 + 1
                mags = tile[:k]
                rows(sl, mags[1:])
                weighted = {plain: mags}
                for i, (spec, (p, q), acc, part, key) in enumerate(
                    zip(specs, pqs, accs, sums, keys)
                ):
                    w = spec.weight
                    if key not in weighted:
                        if w.t not in xi_pows:
                            xi_pows[w.t] = bracket(xi) ** w.t
                        wx = bracket(x[sl]) ** w.s
                        out = mags if i == mags_last else buffer(key, k)
                        np.multiply(mags[1:], np.outer(wx, xi_pows[w.t]), out=out[1:])
                        weighted[key] = out
                    wm = weighted[key]
                    if p == INF:
                        np.maximum(acc, wm[1:].max(axis=0), out=acc)
                    else:
                        # wm**1.0 is wm, but numpy computes a full pow for it
                        if p != 1.0:
                            # no later spec reads wm: its power may overwrite it
                            spent = i == last[key] and (wm is not mags or i >= mags_last)
                            out = wm if spent else buffer(None, k)
                            np.power(wm[1:], p, out=out[1:])
                            wm = out
                        # the block's sums so far, then this tile's rows in order
                        wm[0] = part
                        np.add.reduce(wm, axis=0, out=part)
            for acc, part in zip(accs, sums):
                if part is not None:
                    acc += part
                    part.fill(0.0)

        norms = []
        for (p, q), acc in zip(pqs, accs):
            inner = acc[order] if p == INF else (acc[order] * dx) ** (1.0 / p)
            outer = inner.max() if q == INF else ((inner**q).sum() * dxi) ** (1.0 / q)
            norms.append(float(outer))
    for spec, norm in zip(specs, norms):
        if not np.isfinite(norm):
            w = spec.weight
            raise DomainError(
                f"the modulation norm with p={spec.p:g}, q={spec.q:g}, "
                f"s={w.s:g}, t={w.t:g} is not finite"
            )
    return norms


def stft_norms(f: SampledFunction, specs) -> list:
    """Evaluate several modulation norms of one function in a single pass.

    ``specs`` is a sequence of SpaceSpec sharing one window. This is the
    exact engine: the lattice of every grid shift at stride 1 with n
    channels, whose rows are those of ``tf.window_shifts`` and whose
    vector is ``ifftshift(f)``, folded by :func:`fold_norms` with the
    spectra scaled by dx before their magnitudes are taken.
    """
    specs = list(specs)
    if not specs:
        return []
    g = make_window(check_specs(specs), f.grid)
    dx, dual = f.grid.spacing, f.grid.dual()
    rows = lattice_rows(
        [window_shifts(g)], np.fft.ifftshift(f.samples), spectra_scale=dx
    )
    xi = np.fft.ifftshift(dual.axis())
    return fold_norms(rows, f.grid.axis(), xi, dx, dual.spacing, specs)


def modulation_norm(f: SampledFunction, spec: SpaceSpec) -> float:
    """Weighted STFT norm, position reduced first (inner p, outer q)."""
    return stft_norms(f, [spec])[0]


# ---------------------------------------------------------------------------
# Weighted sequence spaces and their embeddings


def sequence_norm(values, indices, p: float, s: float = 0.0) -> float:
    """l^p norm of a_k <k>^s over the given integer indices (counting measure)."""
    _rec(p, "p")
    a = np.abs(np.asarray(values, dtype=complex)) * bracket(indices) ** s
    if float(p) == INF:
        return float(a.max()) if a.size else 0.0
    return float((a ** float(p)).sum() ** (1.0 / float(p)))


def embedding_holds(q1, s1, q2, s2) -> bool:
    """Whether l^{q1} with weight <k>^{s1} embeds into l^{q2} with <k>^{s2}.

    Holds iff s1 - s2 >= max(1/q2 - 1/q1, 0), strictly when the max is
    positive.
    """
    r1, r2 = _rec(q1, "q1"), _rec(q2, "q2")
    gap = r2 - r1
    if gap > 0:
        return s1 - s2 > gap
    return s1 - s2 >= 0.0


@dataclass
class EmbeddingReport:
    embedded: bool
    best_ratio: float
    support: tuple
    section: int


def embedding_witness(
    q1,
    s1,
    q2,
    s2,
    section: int = 64,
    threshold: float = 10.0,
) -> EmbeddingReport:
    """Finite-section search for a sequence violating the embedding.

    Over sequences supported in [-section, section] the largest possible
    ratio ||a||_{q2, s2} / ||a||_{q1, s1} has a closed form: it is the
    l^r norm of the ratio weight <k>^{s2 - s1} with 1/r = 1/q2 - 1/q1
    (the sup when that is nonpositive). The report flags the embedding
    as failed when the best ratio exceeds ``threshold`` and returns a
    smallest witness support achieving that.

    A divergence slower than section^0.4 or so cannot be told apart
    from convergence at the default section size; the verdict is only
    as good as the section.
    """
    r1, r2 = _rec(q1, "q1"), _rec(q2, "q2")
    ks = np.arange(-section, section + 1)
    m = bracket(ks) ** (s2 - s1)
    gap = r2 - r1
    if gap <= 0:
        j = int(np.argmax(m))
        best = float(m[j])
        return EmbeddingReport(best <= threshold, best, (int(ks[j]),), section)
    r = 1.0 / gap
    order = np.argsort(m)[::-1]
    sorted_m = m[order]
    prefix = np.cumsum(sorted_m**r) ** (1.0 / r)
    best = float(prefix[-1])
    if best > threshold:
        stop = int(np.searchsorted(prefix > threshold, True)) + 1
        support = tuple(int(ks[i]) for i in order[:stop])
        return EmbeddingReport(False, best, support, section)
    return EmbeddingReport(True, best, tuple(int(ks[i]) for i in order), section)


# ---------------------------------------------------------------------------
# Boundedness predicates


def _check_alpha(alpha: float):
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"phase growth index must lie in [0, 1], got {alpha}")


def thm1_predicate(p, q, s1, s2, alpha) -> bool:
    """Boundedness test for separated phases of sublinear gradient growth.

    With symbol decay indices (s1, s2), the operator is bounded exactly
    when both are nonnegative and the decay compensates the exponent
    mismatch: s1 > (1 - alpha) (1/q - 1/p) when frequency is summed
    harder than position, s1 + (1 - alpha) s2 > (1 - alpha) (1/p - 1/q)
    in the other case. Linear phases (alpha = 1) need no compensation.
    """
    rp, rq = _rec(p, "p"), _rec(q, "q")
    _check_alpha(alpha)
    if s1 < 0 or s2 < 0:
        return False
    if alpha == 1.0:
        return True
    if rq > rp:
        return s1 > (1.0 - alpha) * (rq - rp)
    if rp > rq:
        return s1 + (1.0 - alpha) * s2 > (1.0 - alpha) * (rp - rq)
    return True


def thm2_predicate(p, q, s1, s2, alpha) -> bool:
    """Boundedness test when the phase carries no separation.

    Requires s1 >= 1/p (strict unless p is infinite), s2 >= 1 - 1/q
    (strict unless q = 1), and for alpha < 1 additionally
    s1 >= alpha/p + (1 - alpha)/q (strict unless q is infinite).
    """
    rp, rq = _rec(p, "p"), _rec(q, "q")
    _check_alpha(alpha)
    if s1 < 0 or s2 < 0:
        return False
    if p == INF:
        if not (s1 >= rp):
            return False
    elif not (s1 > rp):
        return False
    thr2 = 1.0 - rq
    if q == 1.0:
        if not (s2 >= thr2):
            return False
    elif not (s2 > thr2):
        return False
    if alpha < 1.0:
        thr3 = alpha * rp + (1.0 - alpha) * rq
        if q == INF:
            return s1 >= thr3
        return s1 > thr3
    return True


def thm3_predicate(p, s1, s2, t1, t2) -> bool:
    """Symbol decay thresholds in the high-growth regime (non-strict).

    Needs s1 >= t1 |1/p - 1/2| and s2 >= t2 |1/p - 1/2|.
    """
    rp = _rec(p, "p")
    for name, val in (("t1", t1), ("t2", t2)):
        if not (val >= 0):
            raise DomainError(f"{name} must be nonnegative, got {val}")
    gap = abs(rp - 0.5)
    return s1 >= t1 * gap and s2 >= t2 * gap
