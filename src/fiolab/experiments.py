"""Measured norm growth against predicted boundedness thresholds.

Each sweep picks a family of structured inputs whose operator ratios
have a known growth exponent in the family parameter, runs the
operator, measures the norms, and fits a log-log slope. The fitted
exponent is compared with the verdict of the corresponding predicate:
tuples predicted unbounded should show clearly positive slopes, tuples
predicted bounded should stay flat or decay.

Three probe families are used, one per operator regime:

* separated phases of sublinear gradient growth: trains of unit bumps
  on the stretched lattice witness the frequency-refinement condition,
  and gradient-modulated trains (which the operator refocuses to a
  common frequency) witness the reverse condition;
* phases with no separation: the operator has rank one, so a stack of
  integer modulations on a fixed grid probes the frequency threshold
  while a fixed spectral bump on a growing sequence of boxes probes
  the position threshold;
* high growth: the operator restricted to a window near x = k is a
  weighted chirp, so plain and pre-chirped local bumps measure both
  sides of the |1/p - 1/2| threshold exactly.

Each regime has its own probe runner, which holds the measurement and
returns, per tuple, one series (family parameters, ratios, grids,
window) for each of at least two probe families. One driver,
:func:`threshold_sweep`, fits every series separately and reports the
largest fitted slope, matching the fact that operator norms dominate
every probe; the first series reaching it is the dominant probe, whose
raw ratios fill the ratio column of the tuple's report rows, and the
regime's predicate gives the verdict.

A bounded tuple's ratios converge rather than decay
once every witness sum is summable, and a partial sum that converges
at rate r keeps a residual log-log slope of roughly r per decade of
family range; the default panels therefore keep bounded tuples far
enough from each threshold for that residual to sit well under the
0.1 band that separates the two verdicts.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DomainError, ResourceError, ValidationError
from .extremal import (
    Bump,
    CoefficientSeq,
    build_F,
    build_G,
    build_modulated_train,
    default_bump,
)
from .fio import apply_fio_family, decaying_symbol
from .grid import (
    MATRIX_BUDGET,
    TILE_ENTRIES,
    Grid,
    SampledFunction,
    bracket,
    fourier_transform,
)
from .phase import (
    MINUS_INF,
    GrowthParams,
    PhaseSpec,
    bracket_power,
    k_alpha,
    mild_growth,
    mollifier,
    nonseparated_x,
)
from .spaces import (
    SpaceSpec,
    Weight,
    fold_norms,
    modulation_norm,
    thm1_predicate,
    thm2_predicate,
    thm3_predicate,
)
from .tf import window_width

__all__ = [
    "REPORT_COLUMNS",
    "VERDICT_BOUNDED",
    "VERDICT_UNBOUNDED",
    "ExperimentRow",
    "SweepTuple",
    "fast_modulation_norms",
    "thm1_default_tuples",
    "thm2_default_tuples",
    "thm3_default_tuples",
    "threshold_sweep",
    "rows_to_csv",
    "rows_from_csv",
    "render_report_svg",
    "emit_report",
]

INF = float("inf")


# ---------------------------------------------------------------------------
# fast windowed norms

def fast_modulation_norms(
    f: SampledFunction,
    specs,
    xi_step: float | None = None,
    x_step: float = 0.0,
):
    """Modulation norms of f for several spaces sharing one window.

    The short-time transform is evaluated on truncated window segments:
    the gaussian is cut where it falls to exp(-40) of its peak, and each
    segment of m points is zero padded to the next power of two at or
    above m. Its frequency step, 1/(segment length), resolves the
    transform, which varies in frequency on the scale 1/sigma of a
    width-sigma window. ``xi_step=None`` (the default) adds no further
    padding; an explicit ``xi_step`` pads to the next power of two at or
    above max(m, 1/(xi_step dx)), giving frequency steps of at most
    ``xi_step``; a step that would pad beyond ``grid.MATRIX_BUDGET``
    columns raises :class:`ResourceError`. Window positions advance by
    ``x_step`` (default: a third of the window width) across the regions
    where |f| exceeds 1e-8 times its peak. Only magnitudes of the
    transform enter a norm, so the omitted global phase is irrelevant,
    and dropping segments where f vanishes changes nothing but
    round-off. Downsampling positions makes this an estimate whose
    error shrinks quadratically in ``x_step``: about a percent at the
    default step in the worst case (suprema over position), a fraction
    of that for finite exponents. Ratios of norms taken with the same
    step cancel most of the bias, which is what the sweeps consume;
    pass a smaller step to trade time for absolute accuracy.

    The segments' magnitudes are handed to :func:`spaces.fold_norms`
    tile by tile with their columns in FFT order, which the fold reduces
    in increasing-frequency order. The segments are rows of a
    sliding-window view over the span the windows cover: a slice of
    ``f.samples``, or one wrapped copy of the span when a window crosses
    the grid's seam. Runs of equally spaced rows are multiplied by the
    window straight into one zero-padded complex buffer of the tile's
    size, reused for every tile, which is transformed in place; its
    magnitudes go into the fold's tile. So no index array, gather or
    padding copy is made, and only that buffer and the fold's tiles are
    alive. The peak and the support's segments are found one tile of
    ``grid.TILE_ENTRIES`` samples at a time, so no n-point magnitude,
    mask or index array exists either. The FFT works row by row and sees
    the same values as a padded gather would, so neither the tile size
    nor the buffer changes a byte.
    """
    specs = list(specs)
    if not specs:
        raise ValidationError("need at least one space")
    window = specs[0].window
    if any(s.window != window for s in specs):
        raise ValidationError("all spaces must share one window")
    if f.dim != 1:
        raise ValidationError("fast norms handle one-dimensional samples")
    if xi_step is not None and not 0.0 < xi_step < INF:
        raise ValidationError(f"xi_step must be positive and finite, got {xi_step}")
    if not 0.0 <= x_step < INF:
        raise ValidationError(
            f"x_step must be positive and finite, or 0 for the default, got {x_step}"
        )
    sigma = window_width(window)
    grid = f.grid
    n, dx = grid.n, grid.spacing
    w_half = sigma * math.sqrt(40.0 / math.pi)
    m = 2 * int(math.ceil(w_half / dx)) + 1
    cols = m if xi_step is None else max(m, 1.0 / (xi_step * dx))
    # m2 exceeds the budget exactly when cols does, and cols may be inf
    if cols > MATRIX_BUDGET:
        raise ResourceError(
            f"xi_step {xi_step:g} pads each window to more than "
            f"{MATRIX_BUDGET} frequency columns"
        )
    m2 = 1 << int(math.ceil(math.log2(cols)))
    tiles = range(0, n, TILE_ENTRIES)
    peak = max(float(np.abs(f.samples[lo : lo + TILE_ENTRIES]).max()) for lo in tiles)
    if peak == 0.0:
        return [0.0] * len(specs)

    if m >= n:
        # window wider than the grid: the segment picture degenerates,
        # and grids this small are cheap to do exactly
        return [modulation_norm(f, s) for s in specs]

    pad = int(math.ceil(w_half / dx)) + 2
    step = x_step if x_step > 0 else sigma / 3.0
    stride = max(1, int(round(step / dx)))

    starts, ends = _support_runs(f.samples, 1e-8 * peak, 2 * pad)
    seg_lo = starts - pad
    seg_hi = ends + pad
    shifts = np.concatenate(
        [
            np.arange(max(int(lo), 0), min(int(hi), n - 1) + 1, stride)
            for lo, hi in zip(seg_lo, seg_hi)
        ]
    )

    off = np.arange(m) - m // 2
    gw = (2.0**0.25 / math.sqrt(sigma)) * np.exp(
        -np.pi * (off * dx / sigma) ** 2
    )
    xi = (np.arange(m2) - m2 // 2) / (m2 * dx)
    dxi = 1.0 / (m2 * dx)

    # the samples under every window, one window per row of the view:
    # the window at shift j covers span[j - shifts[0] :][:m]
    lo, hi = int(shifts[0]) - m // 2, int(shifts[-1]) - m // 2 + m
    if lo >= 0 and hi <= n:
        span = f.samples[lo:hi]
    else:
        span = f.samples.take(np.arange(lo, hi), mode="wrap")
    windows = np.lib.stride_tricks.sliding_window_view(span, m)
    starts = shifts - shifts[0]
    spectra = np.empty((0, m2), dtype=complex)

    def rows(sl, out):
        nonlocal spectra
        if len(spectra) < len(out):
            spectra = np.empty(out.shape, dtype=complex)
        run = starts[sl]
        buf = spectra[: run.size]
        # the last tile's FFT left its spectra in the padding columns
        buf[:, m:] = 0.0
        # runs of equally spaced windows are strided views of the span
        cuts = np.flatnonzero(np.diff(run) != stride) + 1
        for r0, r1 in zip([0, *cuts], [*cuts, run.size]):
            src = windows[run[r0] : run[r1 - 1] + 1 : stride]
            np.multiply(src, gw, out=buf[r0:r1, :m])
        np.fft.fft(buf, axis=1, out=buf)
        np.abs(buf, out=out)
        out *= dx

    kinds = ["modulation"] * len(specs)
    x = (shifts - n // 2) * dx
    return fold_norms(rows, x, np.fft.ifftshift(xi), stride * dx, dxi, specs, kinds)


def _support_runs(samples, floor, gap):
    """(starts, ends): the first and last index of each run of the points
    where |samples| > floor, a run ending where the next such point lies
    more than ``gap`` beyond it. The samples are read one tile of
    ``TILE_ENTRIES`` at a time, and a run may span tiles."""
    starts, ends, last = [], [], None
    for lo in range(0, samples.size, TILE_ENTRIES):
        on = np.flatnonzero(np.abs(samples[lo : lo + TILE_ENTRIES]) > floor) + lo
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
    ends.append(last)
    return np.array(starts), np.array(ends)


# ---------------------------------------------------------------------------
# report rows

REPORT_COLUMNS = (
    "id",
    "p",
    "q",
    "s1",
    "s2",
    "alpha",
    "t1",
    "t2",
    "d",
    "N",
    "ratio",
    "verdict",
    "exponent",
    "grid",
    "window",
)

VERDICT_BOUNDED = "predicted-bounded"
VERDICT_UNBOUNDED = "predicted-unbounded"


@dataclass(frozen=True)
class ExperimentRow:
    """One measured point of a sweep: a tuple at one family parameter.

    ``N`` is the family parameter of the dominant probe (train length,
    box scale, or bump center depending on the sweep), ``ratio`` the
    measured operator ratio there, and ``exponent`` the fitted log-log
    slope over the whole family, repeated on each of the tuple's rows.
    """

    id: str
    p: float
    q: float
    s1: float
    s2: float
    alpha: float
    t1: float
    t2: float
    d: int
    N: float
    ratio: float
    verdict: str
    exponent: float
    grid: str
    window: str

    def __post_init__(self):
        if self.verdict not in (VERDICT_BOUNDED, VERDICT_UNBOUNDED):
            raise ValidationError(f"unknown verdict {self.verdict!r}")
        if not 0.0 < self.N < INF:
            raise ValidationError(
                f"family parameter N must be positive and finite, got {self.N}"
            )
        for name in ("id", "verdict", "grid", "window"):
            val = getattr(self, name)
            if "," in val or "\n" in val:
                raise ValidationError(
                    f"{name} must not contain commas or newlines"
                )


def _column_types():
    """Each report column's type, read from ExperimentRow's annotations."""
    types = {f.name: f.type for f in fields(ExperimentRow)}
    return [{"str": str, "float": float, "int": int}[types[c]] for c in REPORT_COLUMNS]


def _cell(value, kind) -> str:
    if kind is str:
        return value
    return "%d" % value if kind is int else "%.17g" % float(value)


def rows_to_csv(rows) -> str:
    kinds = _column_types()
    out = [",".join(REPORT_COLUMNS)]
    for r in rows:
        cells = (_cell(getattr(r, c), k) for c, k in zip(REPORT_COLUMNS, kinds))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def rows_from_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(REPORT_COLUMNS):
        raise ValidationError("missing or malformed report header")
    kinds = _column_types()
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(REPORT_COLUMNS):
            raise ValidationError(
                f"expected {len(REPORT_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            values = {c: k(v) for c, k, v in zip(REPORT_COLUMNS, kinds, parts)}
        except ValueError:
            raise ValidationError(f"non-numeric field in report row {ln!r}") from None
        rows.append(ExperimentRow(**values))
    return rows


def render_report_svg(rows) -> str:
    """Scatter of log2 ratio against log2 N, one series per verdict."""
    rows = list(rows)
    if not rows:
        raise ValidationError("no rows to plot")
    pts = [
        (math.log2(r.N), math.log2(max(r.ratio, 1e-300)), r.verdict)
        for r in rows
    ]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    if xmax - xmin < 1e-9:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax - ymin < 1e-9:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    xmin -= 0.04 * (xmax - xmin)
    xmax += 0.04 * (xmax - xmin)
    ymin -= 0.06 * (ymax - ymin)
    ymax += 0.06 * (ymax - ymin)

    width, height = 640.0, 440.0
    ml, mr, mt, mb = 68.0, 24.0, 42.0, 54.0

    def sx(u):
        return ml + (u - xmin) * (width - ml - mr) / (xmax - xmin)

    def sy(v):
        return height - mb - (v - ymin) * (height - mt - mb) / (ymax - ymin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="#ffffff"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="#444" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="#444" stroke-width="1"/>',
    ]
    for i in range(5):
        u = xmin + (xmax - xmin) * i / 4.0
        v = ymin + (ymax - ymin) * i / 4.0
        parts.append(
            f'<text x="{sx(u):.1f}" y="{height - mb + 18:.1f}" '
            f'font-size="11" text-anchor="middle" fill="#444">{u:.2f}</text>'
        )
        parts.append(
            f'<text x="{ml - 8:.1f}" y="{sy(v) + 4:.1f}" font-size="11" '
            f'text-anchor="end" fill="#444">{v:.2f}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12:.1f}" '
        f'font-size="13" text-anchor="middle" fill="#222">log2 N</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" font-size="13" '
        f'text-anchor="middle" fill="#222" transform="rotate(-90 16 '
        f'{(mt + height - mb) / 2:.1f})">log2 ratio</text>'
    )
    colors = {VERDICT_BOUNDED: "#2b6cb0", VERDICT_UNBOUNDED: "#c53030"}
    for verdict, color in colors.items():
        dots = "".join(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5"/>'
            for x, y, v in pts
            if v == verdict
        )
        parts.append(
            f'<g id="{verdict}" fill="{color}" fill-opacity="0.75">{dots}</g>'
        )
    lx = ml + 12
    for verdict, color in colors.items():
        parts.append(
            f'<circle cx="{lx:.1f}" cy="{mt - 14:.1f}" r="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx + 9:.1f}" y="{mt - 10:.1f}" font-size="12" '
            f'fill="#222">{verdict}</text>'
        )
        lx += 160
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(rows, csv_path, svg_path=None):
    """Write sweep rows as CSV and, optionally, an SVG scatter."""
    rows = list(rows)
    if not rows:
        raise ValidationError("refusing to write an empty report")
    with open(csv_path, "w") as fh:
        fh.write(rows_to_csv(rows))
    if svg_path is not None:
        with open(svg_path, "w") as fh:
            fh.write(render_report_svg(rows))


# ---------------------------------------------------------------------------
# sweep tuples


@dataclass(frozen=True)
class SweepTuple:
    """One boundedness question: exponents, decay rates, growth rates."""

    p: float
    q: float
    s1: float = 0.0
    s2: float = 0.0
    alpha: float = 0.0
    t1: float = 0.0
    t2: float = 0.0
    d: int = 1


def thm1_default_tuples():
    """A fixed panel for the separated sublinear-growth regime.

    Unbounded tuples keep their decisive slope at least 0.15 above
    zero, where the witness sums diverge and the fit is an honest
    power. Bounded tuples whose witness sums converge are placed far
    enough above the threshold that the partial sums settle within the
    family range; right at the threshold the convergence is too slow
    for any affordable family to certify, which is what the exclusion
    band around thresholds acknowledges. alpha = 1 is excluded since
    no threshold remains there and the stretched lattice degenerates.
    """
    panel = {
        0.0: [
            (INF, 1, 0.0, 0.0),
            (INF, 1, 0.5, 0.0),
            (4, 1, 0.5, 0.3),
            (2, 1, 0.0, 0.5),
            (INF, 2, 0.0, 1.0),
            (1, INF, 0.0, 0.0),
            (1, INF, 0.5, 0.2),
            (1, 2, 0.0, 0.25),
            (2, INF, 0.25, 0.0),
            (1, INF, 0.0, 0.75),
            (2, 2, 0.0, 0.0),
            (2, 2, 0.5, 0.5),
            (1, 1, 0.3, 0.0),
            (INF, INF, 0.0, 0.3),
            (INF, 1, 2.0, 0.0),
            (2, 1, 0.75, 0.0),
            (1, 2, 0.8, 0.0),
            (1, INF, 1.0, 1.0),
            (1, INF, 2.0, 0.0),
            (1, INF, 0.0, 2.0),
            (4, 2, 0.5, 0.0),
        ],
        0.5: [
            (INF, 1, 0.0, 0.0),
            (INF, 1, 0.25, 0.0),
            (INF, 1, 0.4, 0.3),
            (2, 1, 0.0, 0.2),
            (1, INF, 0.0, 0.0),
            (1, INF, 0.25, 0.25),
            (1, 2, 0.0, 0.15),
            (2, INF, 0.1, 0.1),
            (1, INF, 0.0, 0.8),
            (INF, 2, 0.15, 0.0),
            (2, 2, 0.0, 0.0),
            (1, 1, 0.4, 0.2),
            (INF, 1, 1.0, 0.0),
            (2, 1, 0.35, 0.0),
            (1, INF, 0.5, 1.0),
            (1, INF, 1.0, 0.0),
            (1, INF, 0.0, 2.0),
            (1, 2, 0.35, 0.0),
            (2, INF, 0.3, 0.4),
            (4, 4, 0.2, 0.2),
        ],
    }
    out = []
    for alpha in (0.0, 0.5):
        for p, q, s1, s2 in panel[alpha]:
            out.append(
                SweepTuple(float(p), float(q), s1, s2, alpha=alpha)
            )
    return out


def thm2_default_tuples():
    """A generated panel for phases without separation, q <= p.

    For each base (p, q, alpha) one tuple sits above both decay
    thresholds and, where the threshold leaves room, one sits 0.2
    below the frequency threshold and one 0.2 below the position
    threshold. With q <= p the position condition of the mixed regime
    dominates the plain 1/p condition, so one growing-box probe covers
    both; at alpha = 1 it reduces to the 1/p condition itself.

    Bounded-side margins are rate aware. A bounded probe ratio is a
    convergent sum or integral whose partial pieces settle at the rate
    set by margin times integrability exponent; a margin of 0.2 against
    exponent 1 still drifts upward visibly over any affordable family
    range. Each margin is sized so that rate clears one, which keeps
    fitted exponents of bounded tuples near zero, while sup norms
    saturate exactly and need no extra room.
    """
    bases = [
        (2.0, 2.0),
        (INF, 1.0),
        (INF, 2.0),
        (4.0, 2.0),
        (2.0, 1.0),
        (1.0, 1.0),
        (INF, INF),
    ]
    out = []
    for alpha in (0.0, 0.5, 1.0):
        for p, q in bases:
            rp = 0.0 if p == INF else 1.0 / p
            rq = 0.0 if q == INF else 1.0 / q
            thr_freq = 1.0 - rq
            thr_pos = alpha * rp + (1.0 - alpha) * rq
            m_freq = 1.0 if q == INF else 0.2
            rate = rp if alpha == 1.0 else rq
            m_pos = max(0.2, 1.2 * rate)
            out.append(
                SweepTuple(
                    p, q, thr_pos + m_pos, thr_freq + m_freq, alpha=alpha
                )
            )
            if thr_freq >= 0.2:
                out.append(
                    SweepTuple(
                        p, q, thr_pos + m_pos, thr_freq - 0.2, alpha=alpha
                    )
                )
            if thr_pos >= 0.25:
                out.append(
                    SweepTuple(
                        p, q, thr_pos - 0.2, thr_freq + 0.25, alpha=alpha
                    )
                )
    return out


def thm3_default_tuples():
    """A panel for the high-growth regime, one-sided in each variable.

    Half the tuples exercise position decay against position growth
    (s2 = t2 = 0), the other half the mirror image; the probe family
    measures both through the same local model since the plain
    modulation norms are exactly Fourier invariant.
    """
    one_sided = []
    for t in (1.0, 2.0):
        for p in (1.0, 4.0 / 3.0, 4.0, INF):
            rp = 0.0 if p == INF else 1.0 / p
            thr = t * abs(rp - 0.5)
            one_sided.append((p, thr - 0.2, t))
            one_sided.append((p, thr + 0.2, t))
    for p in (1.0, INF):
        one_sided.append((p, 0.05, 0.5))
        one_sided.append((p, 0.45, 0.5))
    one_sided.append((2.0, 0.0, 1.0))
    one_sided.append((2.0, 0.2, 1.0))
    out = []
    for p, s, t in one_sided:
        out.append(
            SweepTuple(p, p, s1=s, s2=0.0, alpha=MINUS_INF, t1=t, t2=0.0)
        )
    for p, s, t in one_sided:
        out.append(
            SweepTuple(p, p, s1=0.0, s2=s, alpha=MINUS_INF, t1=0.0, t2=t)
        )
    return out


# ---------------------------------------------------------------------------
# shared probe helpers

_THM1_WINDOW = "gauss:0.15"
_THM2_TRAIN_WINDOW = "gauss:1"
_THM2_BOX_WINDOW = "gauss:0.5"

# the local chirp rates start around 20; a unit window keeps
# rate * width^2 well above one from the first family step on, which
# is where the chirp norms enter their power law regime
_THM3_WINDOW = "gauss"

# spectral tails of a compact bump decay like exp(-sqrt(8 pi r |xi|)),
# which is slow; half Nyquist must clear the outermost carrier by this
# much for the radius-1/4 train bumps to pass the operator input check
# with an order of magnitude to spare
_SPECTRAL_MARGIN = 200.0
_TRAIN_BUMP_RADIUS = 0.25

# a sweep whose largest grid has at least this many points runs its
# family steps on _POOL_WORKERS processes. On a 2-CPU host, forking made
# a three-tuple thm1 sweep with grids up to 2^16 points 0.07 s slower
# (0.58 s serial) and one with grids up to 2^17 points 0.25 s faster
# (1.23 s serial)
_POOL_POINTS = 1 << 17
_POOL_WORKERS = 2


def _next_pow2(x: float) -> int:
    return 1 << max(0, int(math.ceil(math.log2(max(float(x), 1.0)))))


def _norm_map(f, pqs, window):
    specs = [SpaceSpec(p, q, Weight(), window) for p, q in pqs]
    vals = fast_modulation_norms(f, specs)
    return dict(zip(pqs, vals))


def _fit_exponent(params, ratios) -> float:
    xs = np.log(np.asarray(params, dtype=float))
    ys = np.asarray(ratios, dtype=float)
    if xs.size < 2:
        raise ValidationError("need at least two family members to fit")
    floor = max(float(ys.max()), 0.0) * 1e-15 + 1e-300
    ys = np.log(np.maximum(ys, floor))
    return float(np.polyfit(xs, ys, 1)[0])


def _chirp_phase(alpha: float):
    """Phase <x>^(2-alpha) alone, admitting the endpoint alpha = 1."""
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha < 1.0:
        return nonseparated_x(alpha)
    return PhaseSpec(
        "nonseparated_x[alpha=1]",
        GrowthParams(alpha=1.0),
        mu_x_triple=bracket_power(1.0),
        coupling=0.0,
    )


# ---------------------------------------------------------------------------
# sweep: separated phases of sublinear growth


def _thm1_grid(alpha: float, N: int) -> Grid:
    kmax = max(N - 1, 1)
    top = float(k_alpha(float(kmax), alpha))
    half = top + 16.0
    carrier = (2.0 - alpha) * (kmax + 2)
    nyq = 2.0 * (carrier + _SPECTRAL_MARGIN)
    n = max(_next_pow2(4.0 * half * nyq), 1 << 12)
    return Grid(1, n, 2.0 * half / n)


def _thm1_input(grid, alpha, N, modulated) -> SampledFunction:
    """The train F of N unit bumps, or with ``modulated`` the conjugated
    gradient-modulated train conj(G)."""
    a = CoefficientSeq.ones(0, int(N))
    h = default_bump(_TRAIN_BUMP_RADIUS)
    if modulated:
        return SampledFunction(grid, np.conj(build_G(a, alpha, grid, h).samples))
    return build_F(a, alpha, grid, h)


def _thm1_step(grid, alpha, N, modulated, pair_pqs):
    """Operator ratios of one thm1 family step on one input.

    The input, from :func:`_thm1_input`, is transformed and checked once
    for every symbol. For each ((s1, s2), pqs) entry of ``pair_pqs`` the
    result maps ((s1, s2), (p, q)) to the output norm over the input
    norm, for every (p, q) in pqs.
    """
    f = _thm1_input(grid, alpha, N, modulated)
    pq_all = sorted({pq for _, pqs in pair_pqs for pq in pqs})
    norms_in = _norm_map(f, pq_all, _THM1_WINDOW)
    plan = {decaying_symbol(s1, s2): ((s1, s2), pqs) for (s1, s2), pqs in pair_pqs}
    norms_out = apply_fio_family(
        f,
        list(plan),
        mild_growth(alpha),
        lambda sym, g: _norm_map(g, plan[sym][1], _THM1_WINDOW),
    )
    return {
        (pair, pq): out[pq] / norms_in[pq]
        for (pair, pqs), out in zip(plan.values(), norms_out)
        for pq in pqs
    }


def _run_steps(step, tasks, pooled):
    """``[step(*task) for task in tasks]``, on two worker processes when
    ``pooled`` and the platform, the CPU affinity and the calling process
    allow it: a daemonic process, such as a ``multiprocessing.Pool``
    worker, may not have children and runs the steps itself. All three
    sweeps run their steps through it, by way of :func:`_run_keyed`:
    thm1 one per input and family step, thm2 and thm3 one per probe
    input, each returning only scalars for the caller to assemble.

    Tasks are handed out in list order, so callers list the longest
    first. A task's arguments are pickled to reach a worker, so each
    step builds its own input from a few parameters rather than being
    sent samples. Workers are forked rather than spawned: a spawned worker
    re-imports the caller's main script, which would rerun any script
    that sweeps without a ``__main__`` guard. The process starts no
    threads of its own; the BLAS pool resets itself across a fork and
    the steps use none of it. A worker's exception reaches the caller
    unchanged, after the queued tasks are cancelled.

    Each worker starts with :func:`_keep_freed_memory`. A fresh process
    hands its freed MB-sized buffers (pocketfft's scratch, 1 MiB per
    row at 2^16 points, and the steps' tiles) back to the kernel, which
    zero-fills their pages again on the next use: over one seed-1 pass
    of the benchmark's thm23-mid plan on a 2-CPU host, the workers took
    233k minor page faults and 0.54 s of system time without it and
    36k and 0.12 s with it (thm1-large: 169k and 0.60 s against 115k
    and 0.37 s; medians of five runs). Kept memory raises a worker's
    peak when its steps build inputs through whole-grid temporaries
    (thm23-mid: 125 to 135 MB); the n-point builders work in tiles
    instead, and the largest worker peaks at 94 MB.
    """
    cpus = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    if not pooled or cpus < 2 or len(tasks) < 2:
        return [step(*task) for task in tasks]
    # imported here: the pool's modules add about 20 ms to every import
    # of the package, each CLI call included
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return [step(*task) for task in tasks]
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        _POOL_WORKERS, mp_context=ctx, initializer=_keep_freed_memory
    ) as pool:
        futures = [pool.submit(step, *task) for task in tasks]
        try:
            return [fut.result() for fut in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _keep_freed_memory():
    """Allocate and free one untouched block just under 32 MiB.

    glibc's malloc serves a block above its mmap threshold (128 KiB at
    start) by a fresh mapping and unmaps it on free; freeing such a
    block raises the threshold to the block's size, up to 32 MiB, and
    the heap's trim threshold to twice that. After this call a worker
    keeps its freed buffers of up to about 31 MiB in its heap for the
    next step instead of returning them to the kernel, which would
    zero-fill every page again on the next use. The block is never
    written, so it costs no page. Under other allocators it does
    nothing.
    """
    np.empty((1 << 25) - (1 << 20), dtype=np.uint8)


def _run_keyed(step, tasks):
    """``{key: step(*args)}`` for the (key, grid, args) entries of
    ``tasks``, largest grid first, on the pool when the largest grid has
    at least ``_POOL_POINTS`` points."""
    tasks = sorted(tasks, key=lambda task: -task[1].n)
    pooled = tasks[0][1].n >= _POOL_POINTS
    results = _run_steps(step, [args for _, _, args in tasks], pooled)
    return {key: out for (key, _, _), out in zip(tasks, results)}


def _sweep_thm1(tuples, Ns):
    """Trains of bumps against the mild-growth operator.

    The plain train measures the frequency-refinement slope
    1/q - 1/p - s1/(1-alpha); the gradient-modulated train, which the
    operator refocuses onto a single frequency cell, measures
    1/p - 1/q - s1/(1-alpha) - s2. Each (alpha, N, input) step is one
    task for :func:`_run_keyed`.
    """
    grids = {}
    tasks = []
    for alpha in sorted({t.alpha for t in tuples}):
        members = [t for t in tuples if t.alpha == alpha]
        pair_pqs = [
            (pair, sorted({(t.p, t.q) for t in members if (t.s1, t.s2) == pair}))
            for pair in sorted({(t.s1, t.s2) for t in members})
        ]
        for N in Ns:
            grid = grids[alpha, N] = _thm1_grid(alpha, int(N))
            for modulated in (False, True):
                args = (grid, alpha, N, modulated, pair_pqs)
                tasks.append(((alpha, N, modulated), grid, args))
    steps = _run_keyed(_thm1_step, tasks)

    return {
        t: [
            (
                Ns,
                [steps[t.alpha, N, modulated][(t.s1, t.s2), (t.p, t.q)] for N in Ns],
                [grids[t.alpha, N].describe() for N in Ns],
                _THM1_WINDOW,
            )
            for modulated in (False, True)
        ]
        for t in tuples
    }


# ---------------------------------------------------------------------------
# sweep: phases without separation


def _thm2_train_grid() -> Grid:
    return Grid(1, 1 << 16, 128.0 / (1 << 16))


def _thm2_box_grid(alpha: float, R: int) -> Grid:
    half = 2.0 * R + 8.0
    _, dmu, _ = bracket_power(2.0 - alpha)
    nyq = 1.35 * abs(float(dmu(half))) + 25.0
    n = max(_next_pow2(4.0 * half * nyq), 1 << 12)
    return Grid(1, n, 2.0 * half / n)


def _spectral_bump() -> Bump:
    return Bump(0.3, lambda u: mollifier(u, 0.3))


def _symbol_scalar(fhat, s2: float) -> float:
    xi = fhat.grid.axis()
    total = (bracket(xi) ** (-s2) * fhat.samples).sum()
    return abs(complex(total * fhat.grid.cell_measure()))


def _thm2_step(grid, N, window, pq_all, s2s, alpha=None, s1_pqs=()):
    """What one thm2 task measures on one probe input, the train of N
    spectral bumps on ``grid`` (a box's input is the one bump N = 1).

    Returns (pairing, norms, outs): the spectral pairing scalar of the
    input's transform for each s2 in ``s2s``, the input's norms for each
    (p, q) in ``pq_all``, and for each (s1, pqs) entry of ``s1_pqs`` the
    norms over pqs of the image under the operator at ``alpha`` with the
    symbol of decay s1, all of them in one family call. A task that is
    not asked for one of the three leaves it empty.
    """
    f = build_modulated_train(CoefficientSeq.ones(0, N), _spectral_bump(), grid)
    pairing = {}
    if s2s:
        fhat = fourier_transform(f)
        pairing = {s2: _symbol_scalar(fhat, s2) for s2 in s2s}
        del fhat
    norms = _norm_map(f, pq_all, window) if pq_all else {}
    outs = {}
    if s1_pqs:
        pqs = dict(s1_pqs)
        images = apply_fio_family(
            f,
            [decaying_symbol(s1, 0.0) for s1 in pqs],
            _chirp_phase(alpha),
            lambda sym, g: _norm_map(g, pqs[sym.s1], window),
        )
        outs = dict(zip(pqs, images))
    return pairing, norms, outs


def _thm2_ratios(outs, probes, members):
    """Each member tuple's operator ratios over ``probes``, a list of
    (pairing scalars, input norms) whose first entry is the operator's
    input, whose output norms ``outs`` holds by s1 and (p, q).

    The operator has rank one, so on each probe its output norm is the
    first input's scaled by the ratio of the two pairing scalars.
    """
    c_ref = probes[0][0][0.0]
    return {
        t: [
            outs[t.s1][t.p, t.q] * (pairing[t.s2] / c_ref) / norms[t.p, t.q]
            for pairing, norms in probes
        ]
        for t in members
    }


def _sweep_thm2(tuples, Ns):
    """Rank-one operators from phases that forget the frequency slot.

    Such an operator sends f to (integral of sigma2 fhat) sigma1 chirp,
    so modulation stacks on a fixed grid expose the frequency decay
    threshold while a fixed input on growing boxes exposes the position
    threshold; output norms on each probe scale exactly with the
    spectral pairing scalar, which saves recomputing the chirp norm.

    Every :func:`_thm2_step` task, run by :func:`_run_keyed`, builds
    the one input it measures and returns only scalars: one task per
    train length N takes the train's norms and pairing scalars, one per
    alpha applies the operator to the first train, and one per (alpha,
    box scale R) does both on the box. :func:`_thm2_ratios` assembles
    the ratios here.
    """
    train_grid = _thm2_train_grid()
    Rs = [2 * int(N) for N in Ns]
    pq_all = sorted({(t.p, t.q) for t in tuples})
    grids_a = [train_grid.describe()] * len(Ns)

    alphas = sorted({t.alpha for t in tuples})
    members = {a: [t for t in tuples if t.alpha == a] for a in alphas}
    s1_pqs = {
        a: [
            (s1, sorted({(t.p, t.q) for t in members[a] if t.s1 == s1}))
            for s1 in sorted({t.s1 for t in members[a]})
        ]
        for a in alphas
    }
    # the first input's scalar at s2 = 0 is every ratio's reference
    s2s = {a: sorted({0.0} | {t.s2 for t in members[a]}) for a in alphas}
    s2_all = sorted({0.0} | {t.s2 for t in tuples})
    box_grids = {(a, R): _thm2_box_grid(a, R) for a in alphas for R in Rs}
    tasks = [
        (
            ("train", N),
            train_grid,
            (train_grid, int(N), _THM2_TRAIN_WINDOW, pq_all, s2_all),
        )
        for N in Ns
    ]
    tasks += [
        (
            ("operator", a),
            train_grid,
            (train_grid, int(Ns[0]), _THM2_TRAIN_WINDOW, (), (), a, s1_pqs[a]),
        )
        for a in alphas
    ]
    tasks += [
        (
            ("box", a, R),
            grid,
            (grid, 1, _THM2_BOX_WINDOW, pq_all, s2s[a], a, s1_pqs[a]),
        )
        for (a, R), grid in box_grids.items()
    ]
    steps = _run_keyed(_thm2_step, tasks)

    trains = [steps["train", N][:2] for N in Ns]
    series = {}
    for a in alphas:
        along = _thm2_ratios(steps["operator", a][2], trains, members[a])
        boxes = [
            _thm2_ratios(steps["box", a, R][2], [steps["box", a, R][:2]], members[a])
            for R in Rs
        ]
        for t in members[a]:
            series[t] = [
                (Ns, along[t], grids_a, _THM2_TRAIN_WINDOW),
                (
                    Rs,
                    [box[t][0] for box in boxes],
                    [box_grids[a, R].describe() for R in Rs],
                    _THM2_BOX_WINDOW,
                ),
            ]
    return series


# ---------------------------------------------------------------------------
# sweep: high growth


def _thm3_grid(t: float, k: float) -> Grid:
    half = 8.0
    _, dmu, _ = bracket_power(2.0 + t)
    up = abs(float(dmu(k + 1.0)) - float(dmu(k)))
    down = abs(float(dmu(k)) - float(dmu(k - 1.0)))
    nyq = 1.3 * max(up, down) / (2.0 * math.pi) + 30.0
    n = max(_next_pow2(4.0 * half * nyq), 1 << 12)
    return Grid(1, n, 2.0 * half / n)


def _thm3_side(t: SweepTuple):
    """Which variable a high-growth tuple exercises: (decay, growth)."""
    if t.t1 > 0.0 and t.t2 > 0.0:
        raise ValidationError(
            "the high-growth probes handle one growth direction at a "
            "time; split mixed tuples into their one-sided parts"
        )
    if t.t2 > 0.0 or (t.t1 == 0.0 and t.s2 > t.s1):
        return (t.s2, t.t2)
    return (t.s1, t.t1)


def _thm3_step(growth, k, grid, s, pqs):
    """Norms of one high-growth probe pair near x = k on ``grid``, for
    growth rate ``growth`` and each (p, p) in ``pqs``.

    With ``s`` None the pair is the plain bump and the pre-chirped bump,
    the denominators of the step's ratios; with a decay rate s it is
    their images under the local operator, the numerators. Returns the
    two inputs' norm maps.
    """
    kk = float(k)
    mu, dmu, _ = bracket_power(2.0 + growth)
    y = grid.axis()
    tau = mu(kk + y) - float(mu(kk)) - float(dmu(kk)) * y
    chi = mollifier(y, 1.0)
    if s is None:
        pair = (chi.astype(complex), np.exp(-1j * tau) * chi)
    else:
        decay = bracket(kk + y) ** (-s)
        pair = (decay * np.exp(1j * tau) * chi, (decay * chi).astype(complex))
    return tuple(
        _norm_map(SampledFunction(grid, v), pqs, _THM3_WINDOW) for v in pair
    )


def _sweep_thm3(tuples, Ns):
    """Local chirp probes for the high-growth multiplication operators.

    Near x = k the operator with position growth 2 + t is, after
    stripping the exact carrier modulation, multiplication by
    <k + y>^(-s) exp(i tau(y)) with tau the second-order remainder of
    <x>^(2+t). A plain bump measures the chirp spray (positive side of
    1/p - 1/2), a pre-chirped bump the focusing direction; the larger
    fitted slope equals t |1/p - 1/2| - s, the predicate margin. The
    frequency-sided tuples reduce to the same computation because the
    plain modulation norms are exactly invariant under the discrete
    Fourier transform. Each (growth, k) step is one :func:`_thm3_step`
    task for its denominators and one per decay rate s for its
    numerators, run by :func:`_run_keyed`; the ratios are taken here.
    """
    sides = {t: _thm3_side(t) for t in tuples}
    grids = {}
    tasks = []
    for growth in sorted({side[1] for side in sides.values()}):
        members = [t for t in tuples if sides[t][1] == growth]
        s_pqs = [
            (s, sorted({(t.p, t.p) for t in members if sides[t][0] == s}))
            for s in sorted({sides[t][0] for t in members})
        ]
        pq_all = sorted({pq for _, pqs in s_pqs for pq in pqs})
        for k in Ns:
            grid = grids[growth, k] = _thm3_grid(growth, float(k))
            for s, pqs in [(None, pq_all), *s_pqs]:
                tasks.append(((growth, k, s), grid, (growth, k, grid, s, pqs)))
    steps = _run_keyed(_thm3_step, tasks)

    def ratios(t, probe):
        s, growth = sides[t]
        pq = t.p, t.p
        return [
            steps[growth, k, s][probe][pq] / steps[growth, k, None][probe][pq]
            for k in Ns
        ]

    return {
        t: [
            (
                Ns,
                ratios(t, probe),
                [grids[sides[t][1], k].describe() for k in Ns],
                _THM3_WINDOW,
            )
            for probe in (0, 1)
        ]
        for t in tuples
    }


# ---------------------------------------------------------------------------
# driver

# theorem -> (probe runner, default panel, default family steps, predicate)
_SWEEPS = {
    "thm1": (_sweep_thm1, thm1_default_tuples, (4, 8, 16, 32), thm1_predicate),
    "thm2": (_sweep_thm2, thm2_default_tuples, (8, 16, 32, 64), thm2_predicate),
    "thm3": (_sweep_thm3, thm3_default_tuples, (4, 8, 16, 32), thm3_predicate),
}


def _whole(value, what: str) -> int:
    """``value`` as an int, or a ValidationError saying ``what`` it must be."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what}, got {value!r}")


def threshold_sweep(
    theorem: str,
    tuples=None,
    Ns=None,
    seed: int = 0,
    max_tuples=None,
):
    """Run one regime's probe sweep and return its report rows.

    The computation is deterministic for a given tuple list: the seed
    only drives the subsample drawn when ``max_tuples`` cuts the list
    down, and is recorded nowhere else. Running the same call twice
    yields identical rows, and identical CSV bytes.
    """
    if theorem not in _SWEEPS:
        raise ValidationError(
            f"unknown theorem {theorem!r}; choose from {sorted(_SWEEPS)}"
        )
    runner, default_tuples, default_steps, predicate = _SWEEPS[theorem]
    tuples = list(tuples) if tuples is not None else default_tuples()
    if not tuples:
        raise ValidationError("need at least one tuple to sweep")
    if len(set(tuples)) != len(tuples):
        raise ValidationError("sweep tuples must be distinct")
    steps = tuple(
        _whole(v, "family steps must be whole numbers")
        for v in (Ns if Ns is not None else default_steps)
    )
    if len(steps) < 2:
        raise ValidationError("need at least two family steps")
    if any(v <= 0 for v in steps) or any(
        b <= a for a, b in zip(steps, steps[1:])
    ):
        raise ValidationError("family steps must be positive and increasing")
    if _whole(seed, "seed must be a whole number") < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    if max_tuples is not None:
        count = _whole(max_tuples, "max_tuples must be a whole number")
        if count < 1:
            raise ValidationError("max_tuples must keep at least one tuple")
        rng = np.random.default_rng(seed)
        keep = sorted(rng.permutation(len(tuples))[:count])
        tuples = [tuples[i] for i in keep]

    # per tuple, one (family parameters, ratios, grids, window) per probe
    series = runner(tuples, steps)
    # a predicate's parameters are named after the tuple's fields
    names = inspect.signature(predicate).parameters
    rows = []
    for i, t in enumerate(tuples):
        slopes = [_fit_exponent(params, ratios) for params, ratios, _, _ in series[t]]
        best = max(range(len(slopes)), key=slopes.__getitem__)
        params, ratios, grids, window = series[t][best]
        ok = predicate(**{name: getattr(t, name) for name in names})
        verdict = VERDICT_BOUNDED if ok else VERDICT_UNBOUNDED
        for param, ratio, gdesc in zip(params, ratios, grids):
            rows.append(
                ExperimentRow(
                    id=f"{theorem}-{i:03d}",
                    **asdict(t),
                    N=float(param),
                    ratio=float(ratio),
                    verdict=verdict,
                    exponent=slopes[best],
                    grid=gdesc,
                    window=window,
                )
            )
    return rows
