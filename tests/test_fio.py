"""Operator quadrature, kernels, and weak pairings."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import fiolab.grid
from fiolab import fio
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
    make_phase,
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


@pytest.mark.parametrize("spacing", ["1", "0.1", "1/3", "7.3", "32/n", "528/n"])
def test_band_edges_match_the_full_axis(spacing):
    # the head and tail found on a few points around -n/4 and +n/4 are
    # the ones searchsorted finds on the whole frequency axis
    for n in (1 << e for e in range(2, 17)):
        dx = {"1/3": 1.0 / 3.0, "32/n": 32.0 / n, "528/n": 528.0 / n}.get(spacing)
        grid = Grid(1, n, float(spacing) if dx is None else dx)
        dual = grid.dual()
        cutoff = 1.0 / (2.0 * grid.spacing) / 2.0
        xi = dual.axis()
        full = (
            int(np.searchsorted(xi, -cutoff, side="left")),
            int(np.searchsorted(xi, cutoff, side="right")),
        )
        assert fio._band_edges(dual, cutoff) == full


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
    mult = _multiplier(f, lambda xi: 2.0 * np.pi * trip[0](xi))
    assert np.allclose(out.samples, mult.samples, atol=1e-12)


def _multiplier(f, mu):
    """The unimodular Fourier multiplier exp(i mu(xi)) applied to f."""
    fhat = fourier_transform(f)
    factor = np.exp(1j * mu(fhat.grid.axis()))
    return inverse_fourier_transform(SampledFunction(fhat.grid, factor * fhat.samples))


def test_multiplier_linear_phase_translates(small):
    grid, f = small
    u = 4 * grid.spacing
    out = _multiplier(f, lambda xi: 2.0 * np.pi * u * xi)
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


# the five built-in phases and the two symbol kinds of the CLI pins; at
# n = 512 and 1024 the phase matrix spans 4 and 16 blocks, so these pins
# see the block boundaries that a single-block grid cannot
BLOCK_SYMBOLS = {
    "constant": {},
    "decaying": {"s1": 1.0, "s2": 0.5},
}
BLOCK_PHASES = {
    "bilinear": {},
    "mild_growth": {"alpha": 0.5},
    "nonseparated_x": {"alpha": 0.5},
    "nonseparated_xi": {"radius": 1.0},
    "high_growth": {"t1": 1.0, "t2": 1.0},
}
# (n, symbol, phase) -> sha256 prefixes of the direct quadrature's and
# the kernel's bytes, recorded when each grid up to n = 2048 was one block
DIRECT_KERNEL_PINS = {
    (512, "constant", "bilinear"): ("710506c75126e72a", "2aed4df4c451d3eb"),
    (512, "constant", "mild_growth"): ("058aa2dc16b2c58d", "f8dbaee697461d88"),
    (512, "constant", "nonseparated_x"): ("f4a2bd29fa0903de", "5933d9ce46f5b888"),
    (512, "constant", "nonseparated_xi"): ("cddac08fc16c491b", "e59051f4e2d95320"),
    (512, "constant", "high_growth"): ("a955269c00602f22", "d9b3a6cf264122d8"),
    (512, "decaying", "bilinear"): ("d6053ad83aa98e2f", "ee3d4393b86fa5fe"),
    (512, "decaying", "mild_growth"): ("800fa32dfba2847f", "860a4089b48c6738"),
    (512, "decaying", "nonseparated_x"): ("b0af8c9ed8b8ad9b", "7a9edd026a731f68"),
    (512, "decaying", "nonseparated_xi"): ("82072bc5bfa61a9e", "99246db02d27060f"),
    (512, "decaying", "high_growth"): ("53e02aaa9c014314", "2ec44512bc260407"),
    (1024, "constant", "bilinear"): ("7ad97d6a4449b64b", "475472e0a0f23c61"),
    (1024, "constant", "mild_growth"): ("33c7de3b8198c451", "9418fd1d41ade66b"),
    (1024, "constant", "nonseparated_x"): ("77aa83a5e664fd20", "909c8860c902d1df"),
    (1024, "constant", "nonseparated_xi"): ("9a4373c6ce38fe9a", "8607ee5bbc83890e"),
    (1024, "constant", "high_growth"): ("f099dc24c2003352", "ee2746f57de064dc"),
    (1024, "decaying", "bilinear"): ("0826537fadc6e0b9", "7178752f51f49e55"),
    (1024, "decaying", "mild_growth"): ("e4489d93359d2896", "d21ce7e893b3c197"),
    (1024, "decaying", "nonseparated_x"): ("5ae110c0823afa0c", "44821787a5cf6a5f"),
    (1024, "decaying", "nonseparated_xi"): ("e072cadc26755298", "b0f359d607e765cf"),
    (1024, "decaying", "high_growth"): ("1c0604f7e7aa7df8", "13ad7e7eb4a21a23"),
}


def block_signal(n):
    """Gaussians on an n-point grid of span 32, in closed form, whose
    spectra sit far inside half Nyquist."""
    grid = Grid(1, n, 32.0 / n)
    x = grid.axis()
    return SampledFunction(
        grid,
        np.exp(-np.pi * x**2) * (1.0 + 0.5 * np.exp(2j * np.pi * x))
        + 0.3j * np.exp(-np.pi * ((x - 4.0) / 2.0) ** 2),
    )


def _block_case(key):
    n, sym, ph = key
    return (
        block_signal(n),
        make_symbol(sym, **BLOCK_SYMBOLS[sym]),
        make_phase(ph, **BLOCK_PHASES[ph]),
    )


def _sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize(
    "key", sorted(DIRECT_KERNEL_PINS), ids=lambda k: "-".join(map(str, k))
)
def test_direct_and_kernel_bytes_are_pinned(key):
    f, symbol, phase = _block_case(key)
    direct = apply_fio(f, symbol, phase, force_direct=True).samples
    got = (_sha(direct), _sha(kernel(symbol, phase, f.grid)))
    assert got == DIRECT_KERNEL_PINS[key]


@pytest.mark.parametrize(
    "key", sorted(DIRECT_KERNEL_PINS), ids=lambda k: "-".join(map(str, k))
)
def test_pairing_matches_direct_across_blocks(key):
    # the pairing sums one partial per block, so it may differ from the
    # direct quadrature's inner product in its last bits only
    f, symbol, phase = _block_case(key)
    x = f.grid.axis()
    g = SampledFunction(
        f.grid, np.exp(-np.pi * ((x + 3.0) / 3.0) ** 2 + 2j * np.pi * 0.25 * x)
    )
    paired = weak_pairing(f, g, symbol, phase)
    direct = inner(apply_fio(f, symbol, phase, force_direct=True), g)
    assert paired == pytest.approx(direct, rel=1e-13, abs=0.0)


MEMORY_CASES = {
    "direct": lambda f, sym, ph: apply_fio(f, sym, ph, force_direct=True),
    "pairing": lambda f, sym, ph: weak_pairing(f, f, sym, ph),
    "kernel": lambda f, sym, ph: kernel(sym, ph, f.grid),
}


@pytest.mark.parametrize("path", list(MEMORY_CASES))
def test_phase_matrix_memory_is_bounded(path):
    # the phase matrix is built one cache-sized block at a time: the
    # direct quadrature and the pairing hold no n x n array, and the
    # kernel holds only its output
    n = 2048
    f = block_signal(n)
    run = MEMORY_CASES[path]
    tracemalloc.start()
    try:
        run(f, decaying_symbol(1.0, 0.5), mild_growth(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = n * n * 16 if path == "kernel" else 0
    assert peak <= output + (8 << 20)


# a family with repeated s2 values in shuffled order, so the fast path
# shares profiles across symbols that are not neighbours in the list
FAMILY_SYMBOLS = [
    decaying_symbol(1.0, 0.5),
    constant_symbol(),
    decaying_symbol(0.5, 0.0),
    decaying_symbol(0.0, 0.5),
    decaying_symbol(2.0, 1.0),
    decaying_symbol(0.3, 0.5),
]
FAMILY_PHASES = {
    "bilinear": bilinear(),
    "mild_growth": mild_growth(0.5),
    "nonseparated_x": make_phase("nonseparated_x", alpha=0.5),
    "nonseparated_xi": nonseparated_xi(1.0),
    "high_growth": make_phase("high_growth", t1=1.0, t2=1.0),
    "freq_chirp": PhaseSpec(
        "freq_chirp", GrowthParams(alpha=1.0), mu_xi_triple=bracket_power(0.5),
        coupling=1.0,
    ),
}
# (n, phase) -> sha256 prefix of the family's outputs, concatenated in
# the order of FAMILY_SYMBOLS; recorded when every symbol rebuilt both
# exponentials and its own inverse transform
FAMILY_PINS = {
    (512, "bilinear"): "04bd47acc84e42f1",
    (512, "mild_growth"): "7861ba90f3c9b44a",
    (512, "nonseparated_x"): "08a5333bd6f772f0",
    (512, "nonseparated_xi"): "4cc9385d0f55e7b0",
    (512, "high_growth"): "69bf64abd4774ac4",
    (512, "freq_chirp"): "bc7bc018c767db92",
    (1024, "bilinear"): "e6d3ab5b55f81b09",
    (1024, "mild_growth"): "604bea3241b97e56",
    (1024, "nonseparated_x"): "a4f79e3f036726a5",
    (1024, "nonseparated_xi"): "6eef29c71e1ac005",
    (1024, "high_growth"): "4e347fecde8b794b",
    (1024, "freq_chirp"): "1df598b0ca13a472",
}


@pytest.mark.parametrize("key", sorted(FAMILY_PINS), ids=lambda k: "-".join(map(str, k)))
def test_family_bytes_are_pinned(key):
    n, name = key
    calls = []

    def reduce(symbol, g):
        calls.append(symbol.s2)
        return g.samples.tobytes()

    outs = apply_fio_family(block_signal(n), FAMILY_SYMBOLS, FAMILY_PHASES[name], reduce)
    assert hashlib.sha256(b"".join(outs)).hexdigest()[:16] == FAMILY_PINS[key]
    assert calls == sorted(calls)


def test_family_memory_is_bounded():
    # every pass runs tile by tile, the first profile is written over by
    # its output and the last is weighed in fhat's buffer: two symbols
    # with distinct s2 at n = 2^20 hold fhat, the phase factor and one
    # profile (3.4 n-point complex arrays with the tiles), where whole-grid
    # temporaries peaked at 4.63 and rebuilding both exponentials per
    # symbol at about six
    n = 1 << 20
    f = block_signal(n)
    symbols = [decaying_symbol(1.0, 0.5), decaying_symbol(0.5, 0.0)]
    tracemalloc.start()
    try:
        norms = apply_fio_family(
            f, symbols, mild_growth(0.5), lambda s, g: np.vdot(g.samples, g.samples).real
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(norm > 0.0 for norm in norms)
    assert peak <= 4.25 * n * 16


def test_one_symbol_family_holds_one_array():
    # one symbol stores no phase factor: its profile is weighed in fhat's
    # buffer and the output written into the profile, so beyond that one
    # n-point complex array only tiles are alive (1.4 with them)
    n = 1 << 20
    f = block_signal(n)
    tracemalloc.start()
    try:
        out = apply_fio(f, decaying_symbol(1.0, 0.5), mild_growth(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.norm2() > 0.0
    assert peak <= 1.5 * n * 16
