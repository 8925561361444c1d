"""Phase calculus, partition geometry, and condition verification."""

import warnings

import numpy as np
import pytest

from fiolab import (
    ConditionVerdict,
    DomainError,
    GrowthParams,
    PartitionSpec,
    ValidationError,
    bilinear,
    bracket_power,
    check_phase,
    high_growth,
    k_alpha,
    make_phase,
    mild_growth,
    mollifier,
    mu_gradient,
    nonseparated_x,
    nonseparated_xi,
    PhaseSpec,
    separation_margin,
    verify_growth,
    verify_separation,
)
from fiolab import cli
from fiolab.grid import bracket
from fiolab.phase import (
    DEFAULT_BOXES,
    MINUS_INF,
    STABILITY_FACTOR,
    growth_ratio_x,
    second_derivative_bounds,
)

FAST_BOXES = (4.0, 8.0, 16.0)


def test_growth_params_regimes():
    assert GrowthParams(alpha=1.0).regime == "low"
    assert GrowthParams(alpha=0.0).regime == "critical"
    assert GrowthParams(alpha=MINUS_INF).regime == "critical"
    assert GrowthParams(alpha=0.5).regime == "mild"
    assert GrowthParams(alpha=MINUS_INF, t1=1.0, t2=0.5).regime == "high"


def test_growth_params_validation():
    with pytest.raises(DomainError):
        GrowthParams(alpha=1.5)
    with pytest.raises(DomainError):
        GrowthParams(alpha=-0.2)
    with pytest.raises(DomainError):
        GrowthParams(alpha=0.5, t1=-1.0)
    with pytest.raises(DomainError):
        GrowthParams(alpha=0.5, t1=1.0).regime


def test_bracket_power_exact_quadratic():
    f, df, d2f = bracket_power(2.0)
    x = np.linspace(-3, 3, 13)
    assert np.allclose(f(x), 1.0 + x * x)
    assert np.allclose(df(x), 2.0 * x)
    assert np.allclose(d2f(x), 2.0 + 0.0 * x)


def test_bracket_power_finite_differences():
    f, df, d2f = bracket_power(1.5, scale=0.7)
    h = 1e-5
    for x0 in (-2.3, 0.0, 0.4, 5.1):
        fd1 = (f(x0 + h) - f(x0 - h)) / (2 * h)
        fd2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / (h * h)
        assert df(x0) == pytest.approx(fd1, rel=1e-8, abs=1e-8)
        assert d2f(x0) == pytest.approx(fd2, rel=1e-4, abs=1e-4)


def test_lattice_geometry_values():
    assert k_alpha(3.0, 0.0) == pytest.approx(3.0)
    assert k_alpha(3.0, 0.5) == pytest.approx(np.sqrt(10.0) * 3.0)
    assert mu_gradient(0.0, 0.5) == 0.0
    assert mu_gradient(3.0, 0.0) == pytest.approx(6.0)
    x = k_alpha(4.0, 0.5)
    expected = 1.5 * (1.0 + x * x) ** (-0.25) * x
    assert mu_gradient(x, 0.5) == pytest.approx(expected)
    with pytest.raises(DomainError):
        k_alpha(2.0, 1.0)
    with pytest.raises(DomainError):
        mu_gradient(1.0, -0.1)


def test_mollifier_shape():
    assert mollifier(0.0) == pytest.approx(1.0)
    assert mollifier(np.array([1.0, -1.5, 2.0]), radius=1.0).max() == 0.0
    x = np.linspace(-0.9, 0.9, 19)
    vals = mollifier(x)
    assert np.allclose(vals, vals[::-1])
    assert np.all(vals > 0)


def test_partition_sums_to_one():
    part = PartitionSpec()
    x = np.linspace(-5.3, 5.3, 401)
    total = np.zeros_like(x)
    for k in range(-8, 9):
        total += part.eta(x, k)
    assert np.allclose(total, 1.0, atol=1e-12)
    # the star function covers the central piece completely
    inside = np.abs(x) < part.radius
    star = part.eta_star(x, 0)
    assert np.all(star[inside] >= part.eta(x, 0)[inside])
    assert np.allclose(star[np.abs(x) < 0.2], 1.0, atol=1e-12)
    with pytest.raises(DomainError):
        PartitionSpec(radius=1.0, spacing=1.0)


def test_make_phase_and_builtin_names():
    ph = make_phase("mild_growth", alpha=0.5)
    assert "mild_growth" in ph.describe()
    assert ph.coupling == 1.0
    assert make_phase("bilinear").declared.regime == "low"
    with pytest.raises(DomainError):
        make_phase("cubic")
    with pytest.raises(ValidationError, match="beta"):
        make_phase("mild_growth", beta=1.0)
    with pytest.raises(ValidationError, match="not a number"):
        make_phase("mild_growth", alpha="abc")
    with pytest.raises(DomainError):
        mild_growth(1.0)
    with pytest.raises(DomainError):
        nonseparated_xi(radius=0.0)
    with pytest.raises(DomainError):
        high_growth(-1.0, 0.0)


def test_separable_phase_derivative_consistency():
    ph = mild_growth(0.3)
    h = 1e-5
    pts = [(-1.7, 0.4), (0.0, 0.0), (2.2, -3.1)]
    for x0, xi0 in pts:
        gx = (ph.eval(x0 + h, xi0) - ph.eval(x0 - h, xi0)) / (2 * h)
        gxi = (ph.eval(x0, xi0 + h) - ph.eval(x0, xi0 - h)) / (2 * h)
        assert ph.grad_x(x0, xi0) == pytest.approx(gx, rel=1e-7, abs=1e-7)
        assert ph.grad_xi(x0, xi0) == pytest.approx(gxi, rel=1e-7, abs=1e-7)
        hxx = (ph.grad_x(x0 + h, xi0) - ph.grad_x(x0 - h, xi0)) / (2 * h)
        assert ph.hess_xx(x0, xi0) == pytest.approx(hxx, rel=1e-5, abs=1e-5)
        assert ph.hess_xxi(x0, xi0) == pytest.approx(1.0)


def test_nonseparated_xi_bump_derivatives():
    ph = nonseparated_xi(radius=2.0)
    h = 1e-6
    for u in (-1.3, 0.2, 0.9, 1.7):
        fd1 = (ph.eval(0.0, u + h) - ph.eval(0.0, u - h)) / (2 * h)
        assert ph.grad_xi(0.0, u) == pytest.approx(fd1, rel=1e-5, abs=1e-7)
        fd2 = (ph.grad_xi(0.0, u + h) - ph.grad_xi(0.0, u - h)) / (2 * h)
        assert ph.hess_xixi(0.0, u) == pytest.approx(fd2, rel=1e-4, abs=1e-6)
    assert ph.grad_xi(0.0, 5.0) == 0.0


def test_growth_ratio_x_cases():
    assert growth_ratio_x(bilinear(), 1.0, 8.0) == 0.0
    # ratio saturates at the top-order coefficient for a matching alpha
    r = growth_ratio_x(mild_growth(0.5), 0.5, 32.0)
    assert r == pytest.approx(1.5, rel=1e-2)
    with pytest.raises(DomainError):
        growth_ratio_x(high_growth(0.0, 0.0), MINUS_INF, 8.0)
    with pytest.raises(DomainError):
        growth_ratio_x(bilinear(), 2.0, 8.0)
    with pytest.raises(DomainError):
        growth_ratio_x(bilinear(), 1.0, 0.0)


def test_second_derivative_bounds_validation():
    ph = bilinear()
    with pytest.raises(DomainError):
        second_derivative_bounds(ph, 0.0, 0.0, -0.5, 8.0)
    with pytest.raises(DomainError):
        second_derivative_bounds(ph, -1.0, 0.0, 0.5, 8.0)
    with pytest.raises(DomainError):
        second_derivative_bounds(ph, 0.0, 0.0, 0.5, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DomainError):
            second_derivative_bounds(ph, 0.0, 0.0, 0.5, bad)
        with pytest.raises(DomainError):
            second_derivative_bounds(ph, 0.0, 0.0, bad, 8.0)
        with pytest.raises(DomainError):
            second_derivative_bounds(ph, bad, 0.0, 0.5, 8.0)
    with pytest.raises(DomainError):
        growth_ratio_x(ph, 1.0, float("inf"))
    with pytest.raises(DomainError):
        separation_margin(ph, "x", float("inf"))


def _bounds_2d_reference(phase, t1, t2, eps, box, xx=None):
    """second_derivative_bounds taken cell by cell over the plane: the
    2-D local spectrum of each partition-localized Hessian block; ``xx``
    replaces the weighted xx-block."""
    m = 32
    h = 2.0 / m
    off = (np.arange(m) - m // 2) * h
    eta = PartitionSpec().eta(off, 0)
    zeta = (np.arange(m) - m // 2) / (m * h)
    weight = bracket(zeta) ** (1.0 + eps)
    blocks = (
        xx or (lambda x, xi: phase.hess_xx(x, xi) * bracket(x) ** (-t1)),
        lambda x, xi: phase.hess_xixi(x, xi) * bracket(xi) ** (-t2),
        phase.hess_xxi,
    )
    cells = range(-int(box), int(box) + 1)
    bounds = []
    for block in blocks:
        best = 0.0
        for k in cells:
            for l in cells:
                piece = block(k + off[:, None], l + off[None, :]) * np.outer(eta, eta)
                spec = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(piece))) * (h * h)
                best = max(best, float((np.abs(spec) * np.outer(weight, weight)).max()))
        bounds.append(best)
    return bounds


@pytest.mark.parametrize("box", [1.0, 2.0, 4.0])
def test_second_derivative_bounds_match_2d_reference(box):
    cases = [
        bilinear(),
        mild_growth(0.0),
        mild_growth(0.5),
        nonseparated_x(0.5),
        nonseparated_xi(1.0),
        high_growth(1.0, 1.0),
        high_growth(0.5, 2.0),
    ]
    for ph in cases:
        for t1, t2 in ((0.0, 0.0), (1.0, 0.5)):
            for eps in (0.0, 0.5):
                got = second_derivative_bounds(ph, t1, t2, eps, box)
                want = _bounds_2d_reference(ph, t1, t2, eps, box)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _log_space_xx(x, xi, t1):
    """high_growth's mu_x''(x) <x>^(-t1) from its logarithm:
    mu'' = beta <x>^(beta-4) (<x>^2 + (beta-2) x^2) / (2 pi), beta = 2 + t1."""
    beta = 2.0 + t1
    b = bracket(x)
    log = np.log(beta / (2.0 * np.pi)) + (beta - 4.0 - t1) * np.log(b)
    return np.exp(log + np.log(b * b + (beta - 2.0) * x * x)) + 0.0 * xi


def test_high_growth_weighted_hessian_stays_finite():
    # mu_x'' alone overflows beyond |x| = 6 at t1 = 400, and its product
    # with the underflowing weight <x>^(-400) was nan
    ph = high_growth(400.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = verify_growth(ph)[0]
    assert row.condition == "hessian-xx[t1=400]"
    assert np.isfinite(row.measured)
    xx = lambda x, xi: _log_space_xx(x, xi, 400.0)  # noqa: E731
    bounds = [_bounds_2d_reference(ph, 400.0, 0.0, 0.5, L, xx)[0] for L in DEFAULT_BOXES]
    factor = max(b / a for a, b in zip(bounds, bounds[1:]))
    assert row.measured == pytest.approx(factor, rel=1e-12, abs=0.0)


def test_overflowed_gradients_fail_the_separation_row(capsys):
    # at t1 = 400, grad_x overflows on the x = +-8 rows of the box-16
    # lattice; the margin must not come from the finite x = 0 row alone
    ph = high_growth(400.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        margin = separation_margin(ph, "xi", 16.0)
        row = verify_separation(ph, "xi")
        code = cli.main(["check", "--phase", "high_growth:t1=400,t2=0"])
    assert np.isnan(margin)
    assert np.isnan(row.measured) and not row.passed
    assert code == 2
    assert "separation-xi,0.5,nan,fail\n" in capsys.readouterr().out
    # the x rows stay finite, as does every row at moderate growth
    assert verify_separation(ph, "x").passed
    assert np.isfinite(separation_margin(high_growth(1.0, 1.0), "xi", 16.0))


def test_verify_growth_accepts_builtins():
    cases = [
        bilinear(),
        mild_growth(0.0),
        mild_growth(0.5),
        nonseparated_x(0.5),
        nonseparated_xi(1.0),
        high_growth(0.0, 0.0),
        high_growth(1.0, 1.0),
    ]
    for ph in cases:
        rows = verify_growth(ph, boxes=FAST_BOXES)
        assert all(r.passed for r in rows), (ph.name, rows)
        want = 3 if ph.declared.alpha == MINUS_INF else 4
        assert len(rows) == want


def test_verify_growth_rejects_mismatched_declarations():
    # alpha declared larger than the true growth lets the ratio climb
    rows = verify_growth(mild_growth(0.5), GrowthParams(alpha=0.9), boxes=FAST_BOXES)
    assert any(not r.passed for r in rows)
    # a frequency Hessian growing like <xi>^2 cannot pass with t2 = 0
    rows = verify_growth(
        high_growth(0.0, 2.0), GrowthParams(alpha=MINUS_INF, t1=0.0, t2=0.0),
        boxes=FAST_BOXES,
    )
    bad = [r for r in rows if not r.passed]
    assert any("xixi" in r.condition for r in bad)


def test_separation_verdicts():
    for ph in (bilinear(), mild_growth(0.5)):
        for kind in ("x", "xi"):
            v = verify_separation(ph, kind)
            assert v.passed and v.measured >= 0.5
    assert not verify_separation(nonseparated_x(0.5), "x").passed
    assert not verify_separation(nonseparated_xi(1.0), "xi").passed
    with pytest.raises(DomainError):
        separation_margin(bilinear(), "both", 8.0)
    with pytest.raises(DomainError):
        separation_margin(bilinear(), "x", 0.5)


def test_check_phase_row_counts():
    rows = check_phase(mild_growth(0.25), boxes=FAST_BOXES)
    assert len(rows) == 6
    rows = check_phase(high_growth(0.0, 1.0), boxes=FAST_BOXES)
    assert len(rows) == 5


def test_condition_verdict_csv_row():
    v = ConditionVerdict("hessian-xx[t1=0]", 1.15, 1.0321, True)
    assert v.csv_row() == "hessian-xx[t1=0],1.15,1.0321,pass"
    v = ConditionVerdict("separation-x", 0.5, 0.0, False)
    assert v.csv_row() == "separation-x,0.5,0,fail"


def test_default_boxes_and_factor_constants():
    assert DEFAULT_BOXES == (8.0, 16.0, 32.0)
    assert 1.0 < STABILITY_FACTOR < 1.5
