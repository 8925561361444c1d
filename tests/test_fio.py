"""Operator quadrature, kernels, and weak pairings."""

import numpy as np
import pytest

import fiolab.grid
from fiolab import (
    BANDLIMIT_TOL,
    DomainError,
    Grid,
    ResourceError,
    SampledFunction,
    SampledFunction2D,
    StructuralError,
    ValidationError,
    apply_fio,
    apply_fio_family,
    apply_kernel,
    apply_multiplier,
    bandlimit_leakage,
    bilinear,
    bracket_power,
    constant_symbol,
    decaying_symbol,
    ensure_bandlimited,
    fourier_transform,
    inner,
    inverse_fourier_transform,
    kernel,
    make_symbol,
    mild_growth,
    nonseparated_xi,
    PhaseSpec,
    weak_pairing,
)
from fiolab.phase import GrowthParams

from conftest import bandlimited


@pytest.fixture()
def small():
    grid = Grid(1, 64, 0.25)
    rng = np.random.default_rng(11)
    return grid, bandlimited(grid, rng)


def test_symbol_values():
    sym = constant_symbol()
    assert np.all(sym.eval(np.zeros(3), np.arange(3.0)) == 1.0)
    dec = decaying_symbol(0.5, 1.5)
    x = np.array([0.0, 3.0])
    xi = np.array([4.0, 0.0])
    expected = (1 + x**2) ** -0.25 * (1 + xi**2) ** -0.75
    assert np.allclose(dec.eval(x, xi), expected)
    assert np.allclose(dec.sigma1(x) * dec.sigma2(xi), expected)


def test_make_symbol():
    assert make_symbol("decaying", s1=1.0, s2=0.0).name.startswith("decaying")
    with pytest.raises(DomainError):
        make_symbol("oscillating")
    with pytest.raises(ValidationError, match="s2"):
        make_symbol("decaying", s1=1.0)
    with pytest.raises(ValidationError, match="not a number"):
        make_symbol("decaying", s1=1.0, s2="abc")
    with pytest.raises(DomainError):
        decaying_symbol(float("inf"), 0.0)


def test_bandlimit_leakage_and_gate(small):
    grid, f = small
    assert bandlimit_leakage(f) < 1e-14
    ensure_bandlimited(f)
    # a plane wave above half Nyquist is all leakage
    x = grid.axis()
    wave = SampledFunction(grid, np.exp(2j * np.pi * 1.5 * x))
    assert bandlimit_leakage(wave) == pytest.approx(1.0)
    with pytest.raises(ValidationError, match="band-limited"):
        ensure_bandlimited(wave)
    with pytest.raises(ValidationError):
        apply_fio(wave, constant_symbol(), bilinear())
    g2 = Grid(2, 8, 0.5)
    with pytest.raises(StructuralError):
        bandlimit_leakage(SampledFunction2D(g2, np.ones((8, 8), complex)))


def _masked_leakage(f):
    """Band-limit leakage by the first formula: the norm of a masked copy
    of the spectrum over the norm of the whole spectrum."""
    fhat = fourier_transform(f)
    xi = fhat.grid.axis()
    outside = np.abs(xi) > 1.0 / (2.0 * f.grid.spacing) / 2.0
    total = np.linalg.norm(fhat.samples)
    if total == 0.0:
        return 0.0
    return float(np.linalg.norm(fhat.samples[outside])) / total


def _leakage_cases():
    rng = np.random.default_rng(5)
    cases = []
    for n, dx in ((64, 0.25), (512, 0.0625), (4096, 0.01)):
        grid = Grid(1, n, dx)
        x = grid.axis()
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cases.append(SampledFunction(grid, noise))
        cases.append(bandlimited(grid, rng))
        cases.append(SampledFunction(grid, np.zeros(n, complex)))
        # a plane wave at 0.375 of the sampling rate: all energy outside
        cases.append(SampledFunction(grid, np.exp(2j * np.pi * 0.375 / dx * x)))
        # energy on the two half-Nyquist bins, which count as inside, and
        # amplitude fractions either side of the tolerance on the bins
        # just past them
        dual = grid.dual()
        for frac in (0.0, 0.5 * BANDLIMIT_TOL, 2.0 * BANDLIMIT_TOL):
            coef = np.zeros(n, complex)
            coef[n // 4] = coef[3 * n // 4] = 1.0
            coef[n // 4 - 1] = coef[3 * n // 4 + 1] = frac
            f = inverse_fourier_transform(SampledFunction(dual, coef))
            cases.append(f)
    return cases


def test_bandlimit_leakage_matches_the_masked_norm():
    for f in _leakage_cases():
        old = _masked_leakage(f)
        new = bandlimit_leakage(f)
        assert new == pytest.approx(old, rel=1e-12, abs=0.0)
        if old >= BANDLIMIT_TOL:
            with pytest.raises(ValidationError, match="band-limited"):
                ensure_bandlimited(f)
        else:
            ensure_bandlimited(f)
    zero = SampledFunction(Grid(1, 64, 0.25), np.zeros(64, complex))
    assert bandlimit_leakage(zero) == 0.0


def test_identity_phase_is_identity(small):
    grid, f = small
    sym = constant_symbol()
    fast = apply_fio(f, sym, bilinear())
    direct = apply_fio(f, sym, bilinear(), force_direct=True)
    assert np.allclose(fast.samples, f.samples, atol=1e-12)
    assert np.allclose(direct.samples, f.samples, atol=1e-10)


def test_position_chirp_phase_multiplies(small):
    grid, f = small
    ph = mild_growth(0.5)
    out = apply_fio(f, constant_symbol(), ph)
    x = grid.axis()
    chirp = np.exp(2j * np.pi * np.sqrt(1 + x * x) ** 1.5)
    assert np.allclose(out.samples, chirp * f.samples, atol=1e-12)


def test_frequency_only_phase_gives_constant_output(small):
    grid, f = small
    ph = nonseparated_xi(radius=1.0)
    out = apply_fio(f, constant_symbol(), ph)
    assert np.allclose(out.samples, out.samples[0], atol=1e-12)
    fhat = fourier_transform(f)
    xi = fhat.grid.axis()
    phase_vals = np.asarray(ph.mu_xi(xi), dtype=float)
    oracle = np.sum(np.exp(2j * np.pi * phase_vals) * fhat.samples)
    oracle *= fhat.grid.cell_measure()
    assert out.samples[0] == pytest.approx(oracle, rel=1e-12)
    direct = apply_fio(f, constant_symbol(), ph, force_direct=True)
    assert np.allclose(direct.samples, out.samples, atol=1e-10)


def test_frequency_chirp_matches_multiplier(small):
    grid, f = small
    trip = bracket_power(0.5)
    ph = PhaseSpec(
        "freq_chirp", GrowthParams(alpha=1.0), mu_xi_triple=trip, coupling=1.0
    )
    out = apply_fio(f, constant_symbol(), ph)
    mult = apply_multiplier(f, lambda xi: 2.0 * np.pi * trip[0](xi))
    assert np.allclose(out.samples, mult.samples, atol=1e-12)


def test_multiplier_linear_phase_translates(small):
    grid, f = small
    u = 4 * grid.spacing
    out = apply_multiplier(f, lambda xi: 2.0 * np.pi * u * xi)
    assert np.allclose(out.samples, np.roll(f.samples, -4), atol=1e-10)
    assert out.norm2() == pytest.approx(f.norm2(), rel=1e-12)


def test_three_realizations_agree(small):
    grid, f = small
    sym = decaying_symbol(0.5, 0.3)
    ph = mild_growth(0.5)
    fast = apply_fio(f, sym, ph)
    direct = apply_fio(f, sym, ph, force_direct=True)
    K = kernel(sym, ph, grid)
    via_kernel = apply_kernel(K, f)
    scale = fast.norm2()
    assert np.linalg.norm(fast.samples - direct.samples) < 1e-9 * scale
    assert np.linalg.norm(fast.samples - via_kernel.samples) < 1e-9 * scale
    rng = np.random.default_rng(12)
    g = bandlimited(grid, rng)
    paired = weak_pairing(f, g, sym, ph)
    assert paired == pytest.approx(inner(fast, g), rel=1e-10)


def test_family_matches_single_applications(small):
    grid, f = small
    symbols = [constant_symbol(), decaying_symbol(0.5, 0.3), decaying_symbol(0.0, 1.0)]
    for ph in (mild_growth(0.5), bilinear()):
        got = apply_fio_family(f, symbols, ph, lambda sym, g: (sym, g.samples))
        assert [sym for sym, _ in got] == symbols
        for sym, samples in got:
            assert samples.tobytes() == apply_fio(f, sym, ph).samples.tobytes()
    wave = SampledFunction(grid, np.exp(1j * np.pi * grid.axis() / grid.spacing))
    with pytest.raises(ValidationError, match="band-limited"):
        apply_fio_family(wave, symbols, bilinear(), lambda sym, g: g)


def test_kernel_of_identity_is_delta(small):
    grid, _ = small
    K = kernel(constant_symbol(), bilinear(), grid)
    expected = np.eye(grid.n) / grid.spacing
    assert np.allclose(K, expected, atol=1e-8)


def test_kernel_budget_guard(small, monkeypatch):
    # the n x n kernel sits behind the budget stft uses
    grid, _ = small
    monkeypatch.setattr(fiolab.grid, "MATRIX_BUDGET", grid.n**2 - 1)
    with pytest.raises(ResourceError, match="maximal admissible n is"):
        kernel(constant_symbol(), bilinear(), grid)


def test_shape_and_grid_errors(small):
    grid, f = small
    with pytest.raises(StructuralError):
        apply_kernel(np.zeros((4, 4), complex), f)
    other = SampledFunction(Grid(1, 32, 0.25), np.zeros(32, complex))
    with pytest.raises(StructuralError):
        weak_pairing(f, other, constant_symbol(), bilinear())
    g2 = Grid(2, 8, 0.5)
    F = SampledFunction2D(g2, np.ones((8, 8), complex))
    with pytest.raises(StructuralError):
        apply_fio(F, constant_symbol(), bilinear())
    with pytest.raises(StructuralError):
        kernel(constant_symbol(), bilinear(), g2)
