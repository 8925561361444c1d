"""Phase functions and numerical verifiers for their growth geometry.

A phase is mu_x(x) + mu_xi(xi) + coupling * x * xi, stored as its two
one-variable parts, each with analytic first and second derivatives,
and the coupling constant; the phase, its gradient and its Hessian are
derived from those. The verifiers measure three things on nested
boxes: how fast the position gradient grows, whether weighted second
derivatives stay bounded, and whether lattice-separated points keep
their phase gradients apart. Each Hessian block is a product of one
function of x and one of xi, so its local spectrum is a product of two
1-D spectra. Declared growth parameters are checked by comparing these
measurements across boxes; a sound declaration gives box-stable
values, an understated one grows with the box.
"""

from __future__ import annotations

import inspect
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ValidationError
from .grid import bracket, shifted_fft

__all__ = [
    "MINUS_INF",
    "ZERO_PART",
    "GrowthParams",
    "PhaseSpec",
    "PartitionSpec",
    "mollifier",
    "bilinear",
    "mild_growth",
    "nonseparated_x",
    "nonseparated_xi",
    "high_growth",
    "make_phase",
    "BUILTIN_PHASES",
    "growth_ratio_x",
    "second_derivative_bounds",
    "separation_margin",
    "k_alpha",
    "mu_gradient",
    "ConditionVerdict",
    "verify_growth",
    "verify_separation",
    "check_phase",
    "DEFAULT_BOXES",
    "STABILITY_FACTOR",
    "SEPARATION_THRESHOLD",
]

MINUS_INF = float("-inf")

DEFAULT_BOXES = (8.0, 16.0, 32.0)
# measured values may grow by at most this factor between consecutive boxes
STABILITY_FACTOR = 1.15
# "gradients stay apart" is operationalized as margin >= this value
SEPARATION_THRESHOLD = 0.5


@dataclass(frozen=True)
class GrowthParams:
    """Growth declaration (alpha, t1, t2).

    ``alpha`` controls first-order growth of the position gradient
    (exponent 1 - alpha); the sentinel -inf means that gradient growth
    is unconstrained and only the weighted second-derivative bounds
    (exponents t1 in position, t2 in frequency) are claimed.
    """

    alpha: float
    t1: float = 0.0
    t2: float = 0.0

    def __post_init__(self):
        if self.alpha != MINUS_INF and not (0.0 <= self.alpha <= 1.0):
            raise DomainError(
                f"alpha must lie in [0, 1] or be the -inf sentinel, got {self.alpha}"
            )
        for name, val in (("t1", self.t1), ("t2", self.t2)):
            if not (0 <= val < np.inf):
                raise DomainError(f"{name} must be nonnegative and finite, got {val}")

    @property
    def regime(self) -> str:
        if self.t1 == 0.0 and self.t2 == 0.0:
            if self.alpha == 1.0:
                return "low"
            if self.alpha == 0.0 or self.alpha == MINUS_INF:
                return "critical"
            return "mild"
        if self.alpha == MINUS_INF:
            return "high"
        raise DomainError(
            "second-order growth exponents require the -inf sentinel for alpha"
        )


def _zero(u, t=0.0):
    return np.zeros_like(np.asarray(u, dtype=float))


# the part of a phase without mu_x or mu_xi, shared by every such phase;
# an operator skips the factor of a part that is this object
ZERO_PART = (_zero, _zero, _zero)


@dataclass(frozen=True)
class PhaseSpec:
    """The phase mu_x(x) + mu_xi(xi) + coupling * x * xi and its declared
    growth class.

    Each part is a triple (f, f', f'') of vectorized functions of one
    variable; a missing part is :data:`ZERO_PART`. f'' also takes the
    exponent t of a weight <u>^(-t) and returns f''(u) <u>^(-t). The
    phase, its gradient and its Hessian are methods derived from the
    parts, broadcasting their two arguments.
    """

    name: str
    declared: GrowthParams
    mu_x_triple: tuple = ZERO_PART
    mu_xi_triple: tuple = ZERO_PART
    coupling: float = 0.0

    def mu_x(self, x):
        return self.mu_x_triple[0](x)

    def mu_xi(self, xi):
        return self.mu_xi_triple[0](xi)

    def eval(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return self.mu_x(x) + self.mu_xi(xi) + self.coupling * x * xi

    def grad_x(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return self.mu_x_triple[1](x) + self.coupling * xi + 0.0 * x

    def grad_xi(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return self.mu_xi_triple[1](xi) + self.coupling * x + 0.0 * xi

    def hess_xx(self, x, xi):
        x = np.asarray(x, dtype=float)
        return self.mu_x_triple[2](x) + 0.0 * np.asarray(xi, dtype=float)

    def hess_xxi(self, x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        return self.coupling + 0.0 * x + 0.0 * xi

    def hess_xixi(self, x, xi):
        xi = np.asarray(xi, dtype=float)
        return self.mu_xi_triple[2](xi) + 0.0 * np.asarray(x, dtype=float)

    def describe(self) -> str:
        return self.name


def bracket_power(beta: float, scale: float = 1.0):
    """(f, f', f'') for f(u) = scale * <u>^beta.

    The weight of f''(u, t) sits inside its powers of <u>, so the
    weighted value stays finite where f'' alone overflows.
    """

    def f(u):
        return scale * bracket(u) ** beta

    def df(u):
        u = np.asarray(u, dtype=float)
        return scale * beta * u * bracket(u) ** (beta - 2.0)

    def d2f(u, t=0.0):
        u = np.asarray(u, dtype=float)
        b = bracket(u)
        return scale * (beta * b ** (beta - 2.0 - t)
                        + beta * (beta - 2.0) * u * u * b ** (beta - 4.0 - t))

    return f, df, d2f


def bilinear() -> PhaseSpec:
    """Phase x * xi; the operator it induces is the identity."""
    return PhaseSpec("bilinear", GrowthParams(alpha=1.0), coupling=1.0)


def mild_growth(alpha: float) -> PhaseSpec:
    """Phase <x>^(2-alpha) + x*xi: sublinear gradient growth, separated."""
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"mild growth needs alpha in [0, 1), got {alpha}")
    return PhaseSpec(
        f"mild_growth[alpha={alpha:g}]",
        GrowthParams(alpha=alpha),
        mu_x_triple=bracket_power(2.0 - alpha),
        coupling=1.0,
    )


def nonseparated_x(alpha: float) -> PhaseSpec:
    """Phase <x>^(2-alpha) alone: the frequency gradient forgets x."""
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"nonseparated_x needs alpha in [0, 1), got {alpha}")
    return PhaseSpec(
        f"nonseparated_x[alpha={alpha:g}]",
        GrowthParams(alpha=alpha),
        mu_x_triple=bracket_power(2.0 - alpha),
        coupling=0.0,
    )


def nonseparated_xi(radius: float = 1.0) -> PhaseSpec:
    """Phase phi(xi) with phi a compactly supported bump of the given radius."""
    if not (radius > 0):
        raise DomainError(f"bump radius must be positive, got {radius}")

    def f(u):
        return mollifier(u, radius)

    def df(u):
        u = np.asarray(u, dtype=float)
        v = u / radius
        out = np.zeros_like(v)
        inside = np.abs(v) < 1.0
        vi = v[inside]
        w = 1.0 - vi * vi
        out[inside] = np.exp(1.0 - 1.0 / w) * (-2.0 * vi / (w * w)) / radius
        return out

    def d2f(u, t=0.0):
        u = np.asarray(u, dtype=float)
        v = u / radius
        out = np.zeros_like(v)
        inside = np.abs(v) < 1.0
        vi = v[inside]
        w = 1.0 - vi * vi
        core = np.exp(1.0 - 1.0 / w)
        # d/dv of -2v/w^2 plus the chain term from the exponent
        out[inside] = core * (
            (-2.0 / (w * w) - 8.0 * vi * vi / (w**3))
            + (4.0 * vi * vi / (w**4))
        ) / (radius * radius)
        return out * bracket(u) ** (-t)

    return PhaseSpec(
        f"nonseparated_xi[radius={radius:g}]",
        GrowthParams(alpha=1.0),
        mu_xi_triple=(f, df, d2f),
        coupling=0.0,
    )


def high_growth(t1: float, t2: float) -> PhaseSpec:
    """Phase (<x>^(2+t1) + <xi>^(2+t2))/(2 pi) + x*xi."""
    if not (0 <= t1 < np.inf and 0 <= t2 < np.inf):
        raise DomainError(
            f"growth exponents must be nonnegative and finite, got {t1}, {t2}"
        )
    scale = 1.0 / (2.0 * np.pi)
    return PhaseSpec(
        f"high_growth[t1={t1:g},t2={t2:g}]",
        GrowthParams(alpha=MINUS_INF, t1=t1, t2=t2),
        mu_x_triple=bracket_power(2.0 + t1, scale),
        mu_xi_triple=bracket_power(2.0 + t2, scale),
        coupling=1.0,
    )


BUILTIN_PHASES = {
    "bilinear": bilinear,
    "mild_growth": mild_growth,
    "nonseparated_x": nonseparated_x,
    "nonseparated_xi": nonseparated_xi,
    "high_growth": high_growth,
}


def build_builtin(table: dict, kind: str, params: dict, what: str):
    """``table[kind](**params)`` once ``kind`` is known, ``params`` fit the
    factory's signature and every parameter value is a number."""
    try:
        factory = table[kind]
    except KeyError:
        raise DomainError(
            f"unknown {what} kind {kind!r}; choose from {sorted(table)}"
        ) from None
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise ValidationError(
            f"bad parameters {sorted(params)} for {what} {kind!r}: {exc}"
        ) from None
    for key, val in params.items():
        if not isinstance(val, numbers.Real):
            raise ValidationError(f"{what} parameter {key}={val!r} is not a number")
    return factory(**params)


def make_phase(kind: str, **params) -> PhaseSpec:
    """Look up a built-in phase by name and build it with ``params``."""
    return build_builtin(BUILTIN_PHASES, kind, params, "phase")


# ---------------------------------------------------------------------------
# Partition of unity


def mollifier(x, radius: float = 1.0):
    """Smooth bump supported on |x| < radius with value 1 at the origin."""
    if not (0 < radius < np.inf):
        raise DomainError(f"bump radius must be positive and finite, got {radius}")
    v = np.asarray(x, dtype=float) / radius
    out = np.zeros_like(v)
    inside = np.abs(v) < 1.0
    w = 1.0 - v[inside] * v[inside]
    out[inside] = np.exp(1.0 - 1.0 / w)
    return out


@dataclass(frozen=True)
class PartitionSpec:
    """Uniform partition of unity from one bump on the integer lattice.

    The base bump has support radius < spacing, so only adjacent cells
    overlap and the star function eta_star sums three neighbors.
    """

    radius: float = 0.75
    spacing: float = 1.0
    star_radius: int = 1

    def __post_init__(self):
        if not (0 < self.radius < self.spacing):
            raise DomainError("bump radius must lie in (0, spacing)")

    def _raw(self, x):
        return mollifier(x, self.radius)

    def lattice_sum(self, x):
        x = np.asarray(x, dtype=float)
        lo = int(np.floor(x.min() / self.spacing)) - 1
        hi = int(np.ceil(x.max() / self.spacing)) + 1
        total = np.zeros_like(x)
        for k in range(lo, hi + 1):
            total += self._raw(x - k * self.spacing)
        return total

    def eta(self, x, k: int = 0):
        """Partition piece centered at lattice point k; all pieces sum to 1."""
        x = np.asarray(x, dtype=float)
        return self._raw(x - k * self.spacing) / self.lattice_sum(x)

    def eta_star(self, x, k: int = 0):
        """Neighborhood sum that equals 1 on the support of eta_k."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for l in range(k - self.star_radius, k + self.star_radius + 1):
            out += self.eta(x, l)
        return out


# ---------------------------------------------------------------------------
# Condition measurements


def growth_ratio_x(phase: PhaseSpec, alpha: float, box: float) -> float:
    """sup of |grad_x Phi(x, xi) - grad_x Phi(0, xi)| / <x>^(1-alpha) on the box.

    Finite for boxes of any size exactly when the position gradient
    grows no faster than <x>^(1-alpha); the sentinel alpha has no
    first-order claim to check and is rejected.
    """
    if alpha == MINUS_INF:
        raise DomainError("gradient growth is unconstrained at the -inf sentinel")
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"alpha must lie in [0, 1], got {alpha}")
    L = float(box)
    if not (0 < L < np.inf):
        raise DomainError(f"box must be positive and finite, got {box}")
    x = np.linspace(-L, L, 2 * int(L * 8) + 1)  # 8 samples per unit
    xi = np.array([-L, -L / 2.0, 0.0, L / 2.0, L])
    X = x[:, None]
    G = np.asarray(phase.grad_x(X, xi[None, :]), dtype=float)
    G0 = np.asarray(phase.grad_x(np.zeros_like(X), xi[None, :]), dtype=float)
    diff = np.abs(G - G0)
    ratio = diff / bracket(X) ** (1.0 - alpha)
    return float(ratio.max())


_PARTITION = PartitionSpec()


def second_derivative_bounds(
    phase: PhaseSpec,
    t1: float,
    t2: float,
    eps: float,
    box: float,
):
    """Weighted second-derivative bounds (A, B, C) over the box.

    A bounds <x>^(-t1) times the xx-block, B bounds <xi>^(-t2) times
    the xixi-block, C the unweighted mixed block. Each is the maximum
    over unit cells of the frequency-weighted sup of the local spectrum
    of the partition-localized block, the sampled stand-in for a sup of
    windowed norms over the plane. On the cell at (k, l) the xx-block
    localizes to mu_x''(k+y) <k+y>^(-t1) eta(y) times eta(y'); the
    local spectrum of such a product is the product of the two 1-D
    spectra, and so is its weighted sup. The xixi-block is the mirror
    image and the mixed block is coupling * eta(y) eta(y').
    """
    if not (0 <= eps < np.inf):
        raise DomainError(f"eps must be nonnegative and finite, got {eps}")
    for name, val in (("t1", t1), ("t2", t2)):
        if not (0 <= val < np.inf):
            raise DomainError(f"{name} must be nonnegative and finite, got {val}")
    if not np.isfinite(box):
        raise DomainError(f"box must be finite, got {box}")
    L = int(round(float(box)))
    if L < 1:
        raise DomainError(f"box must be at least 1, got {box}")
    m = 32  # samples per cell side
    h = 2.0 / m
    off = (np.arange(m) - m // 2) * h
    eta = _PARTITION.eta(off, 0)
    zeta = (np.arange(m) - m // 2) / (m * h)
    weight = bracket(zeta) ** (1.0 + eps)

    def weighted_sup(rows):
        """Largest weighted 1-D local spectrum of eta times each row."""
        spec = shifted_fft(rows * eta) * h
        return float((np.abs(spec) * weight).max())

    e = weighted_sup(np.ones(m))
    u = np.arange(-L, L + 1, dtype=float)[:, None] + off[None, :]
    xx = np.asarray(phase.mu_x_triple[2](u, t1), dtype=float)
    xixi = np.asarray(phase.mu_xi_triple[2](u, t2), dtype=float)
    return weighted_sup(xx) * e, weighted_sup(xixi) * e, abs(phase.coupling) * e * e


def separation_margin(phase: PhaseSpec, kind: str, box: float) -> float:
    """Smallest gradient gap over lattice pairs at least one unit apart.

    x-type separation compares the frequency gradient at two positions
    sharing one xi; xi-type swaps the roles. A phase whose relevant
    gradient forgets the moving variable scores 0, and one whose
    gradient is not finite on a shared row scores nan, which fails every
    threshold.
    """
    if kind not in ("x", "xi"):
        raise DomainError(f"separation type must be 'x' or 'xi', got {kind!r}")
    L = float(box)
    if not (1 <= L < np.inf):
        raise DomainError(f"box must be finite and at least 1, got {box}")
    pts = np.arange(-int(L), int(L) + 1, dtype=float)
    shared = np.array([-L / 2.0, 0.0, L / 2.0])
    margin = np.inf
    for v in shared:
        # an overflowed gradient leaves the row's gaps unknown; it makes
        # the margin nan rather than leaving the verdict to other rows
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == "x":
                g = phase.grad_xi(pts, np.full_like(pts, v))
            else:
                g = phase.grad_x(np.full_like(pts, v), pts)
        g = np.sort(np.asarray(g, dtype=float))
        if not np.isfinite(g).all():
            return float("nan")
        if g.size > 1:
            margin = min(margin, float(np.min(np.diff(g))))
    return max(float(margin), 0.0)


# ---------------------------------------------------------------------------
# Lattice geometry of the separation construction


def k_alpha(k, alpha: float):
    """Stretched lattice point <k>^(alpha/(1-alpha)) * k."""
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    k = np.asarray(k, dtype=float)
    out = bracket(k) ** (alpha / (1.0 - alpha)) * k
    return float(out) if out.ndim == 0 else out


def mu_gradient(x, alpha: float):
    """Gradient of <x>^(2-alpha): (2 - alpha) <x>^(-alpha) x."""
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    x = np.asarray(x, dtype=float)
    out = (2.0 - alpha) * bracket(x) ** (-alpha) * x
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Declared-versus-measured verification


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    threshold: float
    measured: float
    passed: bool

    def csv_row(self) -> str:
        status = "pass" if self.passed else "fail"
        return f"{self.condition},{self.threshold:.6g},{self.measured:.6g},{status}"


def _stability_factor(values) -> float:
    """Largest growth factor between consecutive box measurements."""
    vals = np.maximum(np.asarray(values, dtype=float), 1e-12)
    return float(np.max(vals[1:] / vals[:-1]))


def verify_growth(
    phase: PhaseSpec,
    params: Optional[GrowthParams] = None,
    boxes=DEFAULT_BOXES,
    eps: float = 0.5,
) -> list:
    """Box-stability verdicts for the declared (alpha, t1, t2).

    Each measured condition must grow by less than STABILITY_FACTOR
    between consecutive boxes. The first-order row is omitted for the
    sentinel alpha, whose gradient growth is unconstrained.
    """
    params = params if params is not None else phase.declared
    rows = []
    if params.alpha != MINUS_INF:
        ratios = [growth_ratio_x(phase, params.alpha, L) for L in boxes]
        rows.append(
            ConditionVerdict(
                f"gradient-growth[alpha={params.alpha:g}]",
                STABILITY_FACTOR,
                _stability_factor(ratios),
                _stability_factor(ratios) < STABILITY_FACTOR,
            )
        )
    triples = [
        second_derivative_bounds(phase, params.t1, params.t2, eps, L) for L in boxes
    ]
    labels = (
        (0, f"hessian-xx[t1={params.t1:g}]"),
        (1, f"hessian-xixi[t2={params.t2:g}]"),
        (2, "hessian-xxi"),
    )
    for idx, label in labels:
        factor = _stability_factor([t[idx] for t in triples])
        rows.append(
            ConditionVerdict(label, STABILITY_FACTOR, factor, factor < STABILITY_FACTOR)
        )
    return rows


def verify_separation(phase: PhaseSpec, kind: str) -> ConditionVerdict:
    margin = separation_margin(phase, kind, 16.0)
    return ConditionVerdict(
        f"separation-{kind}",
        SEPARATION_THRESHOLD,
        margin,
        margin >= SEPARATION_THRESHOLD,
    )


def check_phase(
    phase: PhaseSpec,
    boxes=DEFAULT_BOXES,
    eps: float = 0.5,
) -> list:
    """All condition verdicts for one phase: growth, Hessian, separation."""
    rows = verify_growth(phase, boxes=boxes, eps=eps)
    rows.append(verify_separation(phase, "x"))
    rows.append(verify_separation(phase, "xi"))
    return rows
