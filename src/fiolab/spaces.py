"""Weighted mixed-norm spaces measured through the STFT.

The norms here all follow one recipe: take STFT magnitudes of the input,
multiply by a polynomial weight, then reduce axis by axis with possibly
different exponents. Modulation norms reduce position first, amalgam
norms reduce frequency first. :func:`fold_norms` owns that recipe; the
exact engine (:func:`stft_norms`, full rows from ``tf.stft_rows``) and
the fast engine (``experiments.fast_modulation_norms``, truncated window
segments) only fill tiles of magnitudes for it, about
``FFT_BATCH_ENTRIES`` entries each, which the fold reduces while they
are in cache. Both fill them the same way: a strided view times a fixed
vector into one tile-sized complex buffer, an FFT of it in place, and
its magnitudes into the fold's one reused tile, with the columns left in
FFT order.

Exponents live in [1, inf]; infinity is handled exactly (sup over the
axis, no measure factor), never by a large-p surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError
from .grid import SampledFunction, bracket
from .tf import DEFAULT_WINDOW, make_window, stft_rows

__all__ = [
    "INF",
    "Weight",
    "SpaceSpec",
    "fold_norms",
    "modulation_norm",
    "amalgam_norm",
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
# many magnitudes and reduces each while it is still in cache, and each
# norm engine fills them through a complex buffer of the same size. A
# tile of 2^17 floats is 1 MiB, so a single-spec exact norm at n = 2048
# peaks below 4 MiB and the fast norms of the thm2 box input at R = 128
# (2^20 points, three gauss:0.5 specs) near 5 MiB. The size moves no
# byte; 2^15 to 2^19 time alike, 2^20 slower
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


def _reduce(vals, p, meas, axis=None):
    """(sum |.|^p * meas)^(1/p) over ``axis``; the maximum at p = inf."""
    if p == INF:
        return vals.max(axis=axis)
    return ((vals**p).sum(axis=axis) * meas) ** (1.0 / p)


def fold_norms(rows, x, xi, dx, dxi, specs, kinds) -> list:
    """Weighted STFT norms of one function from tiles of its magnitudes.

    ``rows(sl, out)`` fills ``out`` with |V(x[sl], xi)|: one row per
    position of ``x[sl]``, one column per entry of ``xi``, in any column
    order. The fold asks for tiles of about ``FFT_BATCH_ENTRIES``
    entries, all in one reused buffer, and reduces each tile while it is
    still in cache, so memory stays bounded however large the grid is.
    ``kinds`` gives "modulation" or "amalgam" for each SpaceSpec, and
    ``dx``, ``dxi`` are the cell sizes of the sums. Frequency is reduced
    in increasing-xi order whatever the column order, so a producer that
    keeps FFT order gives the same bytes as one that shifts every row.

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
    specs, kinds = list(specs), list(kinds)
    if len(specs) != len(kinds):
        raise StructuralError("need one kind per spec")
    if not specs:
        return []
    for spec, kind in zip(specs, kinds):
        _rec(spec.p, "p")
        _rec(spec.q, "q")
        if kind not in ("modulation", "amalgam"):
            raise DomainError(f"unknown norm kind {kind!r}")
    pqs = [(float(spec.p), float(spec.q)) for spec in specs]
    cols = xi.size
    # per spec: a modulation norm's position reduction at each frequency,
    # or an amalgam norm's frequency reductions at each position so far
    accs = [np.zeros(cols) if kind == "modulation" else [] for kind in kinds]
    # a finite-p modulation norm's column sums over the block so far
    sums = [
        np.zeros(cols) if kind == "modulation" and p != INF else None
        for kind, (p, _) in zip(kinds, pqs)
    ]
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
                for i, (spec, kind, (p, q), acc, part, key) in enumerate(
                    zip(specs, kinds, pqs, accs, sums, keys)
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
                    if kind == "amalgam":
                        acc.append(_reduce(np.take(wm[1:], order, axis=1), q, dxi, axis=1))
                    elif p == INF:
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
        for kind, (p, q), acc in zip(kinds, pqs, accs):
            if kind == "amalgam":
                norms.append(float(_reduce(np.concatenate(acc), p, dx)))
            else:
                inner = acc[order] if p == INF else (acc[order] * dx) ** (1.0 / p)
                norms.append(float(_reduce(inner, q, dxi)))
    for spec, kind, norm in zip(specs, kinds, norms):
        if not np.isfinite(norm):
            w = spec.weight
            raise DomainError(
                f"the {kind} norm with p={spec.p:g}, q={spec.q:g}, "
                f"s={w.s:g}, t={w.t:g} is not finite"
            )
    return norms


def stft_norms(f: SampledFunction, specs, kinds) -> list:
    """Evaluate several STFT norms of one function in a single pass.

    ``specs`` is a sequence of SpaceSpec sharing one window; ``kinds``
    gives "modulation" or "amalgam" for each. This is the exact engine:
    full STFT rows at every grid shift, folded by :func:`fold_norms`.
    Each tile the fold asks for is filled with the magnitudes of
    ``tf.stft_rows`` over the tile's shifts, so only one tile of
    complex rows is alive at a time; the columns stay in FFT order.
    """
    if f.dim != 1:
        raise StructuralError("streamed norms are defined for 1D functions")
    specs = list(specs)
    if not specs:
        return []
    window = specs[0].window
    if any(spec.window != window for spec in specs):
        raise StructuralError("all specs in one pass must share a window")
    g = make_window(window, f.grid)

    def rows(sl, out):
        np.abs(stft_rows(f, g, sl), out=out)

    x, dual = f.grid.axis(), f.grid.dual()
    xi = np.fft.ifftshift(dual.axis())
    return fold_norms(rows, x, xi, f.grid.spacing, dual.spacing, specs, kinds)


def modulation_norm(f: SampledFunction, spec: SpaceSpec) -> float:
    """Weighted STFT norm, position reduced first (inner p, outer q)."""
    return stft_norms(f, [spec], ["modulation"])[0]


def amalgam_norm(f: SampledFunction, spec: SpaceSpec) -> float:
    """Weighted STFT norm, frequency reduced first (inner q, outer p)."""
    return stft_norms(f, [spec], ["amalgam"])[0]


# ---------------------------------------------------------------------------
# Weighted sequence spaces and their embeddings


def sequence_norm(values, indices, p: float, s: float = 0.0) -> float:
    """l^p norm of a_k <k>^s over the given integer indices (counting measure)."""
    _rec(p, "p")
    a = np.abs(np.asarray(values, dtype=complex)) * bracket(indices) ** s
    if float(p) == INF:
        return float(a.max()) if a.size else 0.0
    return float((a ** float(p)).sum() ** (1.0 / float(p)))


def embedding_holds(q1, s1, q2, s2, d: int = 1) -> bool:
    """Whether l^{q1} with weight <k>^{s1} embeds into l^{q2} with <k>^{s2}.

    Holds iff s1 - s2 >= d * max(1/q2 - 1/q1, 0), strictly when the
    max is positive.
    """
    r1, r2 = _rec(q1, "q1"), _rec(q2, "q2")
    _check_dim(d)
    gap = r2 - r1
    if gap > 0:
        return s1 - s2 > d * gap
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
    d: int = 1,
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
    if d != 1:
        raise DomainError("witness search is implemented for d = 1")
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


def _check_dim(d: int):
    if d < 1 or d != int(d):
        raise DomainError(f"dimension must be a positive integer, got {d}")


def thm1_predicate(p, q, s1, s2, alpha, d: int = 1) -> bool:
    """Boundedness test for separated phases of sublinear gradient growth.

    With symbol decay indices (s1, s2), the operator is bounded exactly
    when both are nonnegative and the decay compensates the exponent
    mismatch: s1 > d (1 - alpha) (1/q - 1/p) when frequency is summed
    harder than position, s1 + (1 - alpha) s2 > d (1 - alpha) (1/p - 1/q)
    in the other case. Linear phases (alpha = 1) need no compensation.
    """
    rp, rq = _rec(p, "p"), _rec(q, "q")
    _check_alpha(alpha)
    _check_dim(d)
    if s1 < 0 or s2 < 0:
        return False
    if alpha == 1.0:
        return True
    if rq > rp:
        return s1 > d * (1.0 - alpha) * (rq - rp)
    if rp > rq:
        return s1 + (1.0 - alpha) * s2 > d * (1.0 - alpha) * (rp - rq)
    return True


def thm2_predicate(p, q, s1, s2, alpha, d: int = 1) -> bool:
    """Boundedness test when the phase carries no separation.

    Requires s1 >= d/p (strict unless p is infinite), s2 >= d(1 - 1/q)
    (strict unless q = 1), and for alpha < 1 additionally
    s1 >= alpha d/p + (1 - alpha) d/q (strict unless q is infinite).
    """
    rp, rq = _rec(p, "p"), _rec(q, "q")
    _check_alpha(alpha)
    _check_dim(d)
    if s1 < 0 or s2 < 0:
        return False
    thr1 = d * rp
    if p == INF:
        if not (s1 >= thr1):
            return False
    elif not (s1 > thr1):
        return False
    thr2 = d * (1.0 - rq)
    if q == 1.0:
        if not (s2 >= thr2):
            return False
    elif not (s2 > thr2):
        return False
    if alpha < 1.0:
        thr3 = alpha * d * rp + (1.0 - alpha) * d * rq
        if q == INF:
            return s1 >= thr3
        return s1 > thr3
    return True


def thm3_predicate(p, s1, s2, t1, t2, d: int = 1) -> bool:
    """Symbol decay thresholds in the high-growth regime (non-strict).

    Needs s1 >= d t1 |1/p - 1/2| and s2 >= d t2 |1/p - 1/2|.
    """
    rp = _rec(p, "p")
    _check_dim(d)
    for name, val in (("t1", t1), ("t2", t2)):
        if not (val >= 0):
            raise DomainError(f"{name} must be nonnegative, got {val}")
    gap = abs(rp - 0.5)
    return s1 >= d * t1 * gap and s2 >= d * t2 * gap
