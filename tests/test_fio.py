"""Operator quadrature, kernels, and weak pairings."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

import fiolab.grid
from fiolab import experiments, fio
from fiolab import (
    BANDLIMIT_TOL,
    Bump,
    CoefficientSeq,
    DomainError,
    Grid,
    ResourceError,
    SampledFunction,
    StructuralError,
    ValidationError,
    apply_fio,
    apply_fio_family,
    apply_kernel,
    bandlimit_leakage,
    bilinear,
    bracket_power,
    build_F,
    constant_symbol,
    decaying_symbol,
    default_bump,
    ensure_bandlimited,
    fourier_transform,
    high_growth,
    inner,
    inverse_fourier_transform,
    kernel,
    make_phase,
    make_symbol,
    mild_growth,
    mollifier,
    nonseparated_xi,
    PhaseSpec,
    weak_pairing,
)
from fiolab.cli import main
from fiolab.grid import support_runs
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


def test_growing_symbol_overflow_is_a_domain_error():
    # <xi>^400 overflows while the spectrum is weighed, before any FFT
    # runs; the profile's transform is then not finite, the error names
    # the symbol, and no numpy warning leaks
    grid = Grid(1, 512, 0.0625)
    f = SampledFunction(grid, np.exp(-grid.axis() ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=r"symbol decaying\[s1=0,s2=-400\] is not finite"):
            apply_fio(f, decaying_symbol(0.0, -400.0), bilinear())


@pytest.mark.parametrize("kind", ["mild_growth", "nonseparated_x"])
def test_growing_symbol_fails_alike_on_every_realization(kind, tmp_path):
    # <xi>^400 overflows in the direct quadrature, the kernel and the
    # pairing as in the fast path, at coupling 1 and 0: one error class,
    # the symbol named, no numpy warning, and the CLI exits 2
    grid = Grid(1, 512, 0.0625)
    f = SampledFunction(grid, np.exp(-grid.axis() ** 2))
    symbol, phase = decaying_symbol(0.0, -400.0), make_phase(kind, alpha=0.5)
    runs = {
        "fast": lambda: apply_fio(f, symbol, phase),
        "direct": lambda: apply_fio(f, symbol, phase, force_direct=True),
        "kernel": lambda: kernel(symbol, phase, grid),
        "pairing": lambda: weak_pairing(f, f, symbol, phase),
    }
    for run in runs.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"symbol decaying\[s1=0,s2=-400\]"):
                run()
    argv = ["apply", "--signal", "gauss", "--phase", f"{kind}:alpha=0.5", "--symbol"]
    argv += ["decaying:s1=0,s2=-400", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 2
    assert main(argv + ["--direct"]) == 2


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
    # longer than a tile of grid.TILE_ENTRIES, so the head, the middle
    # and the tail of the spectrum each end inside a tile
    grid = Grid(1, 1 << 18, 0.01)
    noise = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    cases += [SampledFunction(grid, noise), bandlimited(grid, rng)]
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


def test_bandlimit_leakage_matches_the_masked_norm_in_small_tiles(monkeypatch):
    # the energies are summed one grid.TILE_ENTRIES tile at a time, the
    # tile size read at call time: in tiles of 64 every case spans many
    monkeypatch.setattr(fiolab.grid, "TILE_ENTRIES", 1 << 6)
    test_bandlimit_leakage_matches_the_masked_norm()


def test_bandlimit_check_reads_the_same_leakage_at_any_scale():
    # the spectrum's squares overflow at 1e160 and underflow at 1e-170,
    # where the plain sums read nan and 0.0; the ratio of energies does
    # not depend on the scale
    grid = Grid(1, 512, 0.0625)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    smooth = bandlimited(grid, rng).samples
    ref = bandlimit_leakage(SampledFunction(grid, noise))
    assert ref > 0.5
    for scale in (1e160, 1e-170):
        f = SampledFunction(grid, scale * noise)
        assert bandlimit_leakage(f) == pytest.approx(ref, rel=1e-12, abs=0.0)
        with pytest.raises(ValidationError, match="band-limited"):
            ensure_bandlimited(f)
        with pytest.raises(ValidationError, match="band-limited"):
            apply_fio(f, constant_symbol(), bilinear())
        g = SampledFunction(grid, scale * smooth)
        assert bandlimit_leakage(g) < 1e-14
        ensure_bandlimited(g)


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


# Phi(-x, -xi) = Phi(x, xi) fails for mu_x(u) = u^3, so every mirror row
# of this phase takes the path of entries whose phases differ
CUBIC_PHASE = PhaseSpec(
    "cubic_x", GrowthParams(alpha=1.0),
    mu_x_triple=(lambda u: u**3, lambda u: 3 * u**2, lambda u, t=0.0: 6 * u),
    coupling=1.0,
)
PRODUCER_CASES = [
    (make_phase(ph, **BLOCK_PHASES[ph]),
     [make_symbol(sym, **BLOCK_SYMBOLS[sym]) for sym in BLOCK_SYMBOLS])
    for ph in BLOCK_PHASES
] + [(CUBIC_PHASE, [decaying_symbol(1.0, 0.5)])]


@pytest.mark.parametrize("fft_order", [False, True], ids=["sorted", "fft"])
@pytest.mark.parametrize("n", [256, 512, 2048])
def test_phase_matrix_blocks_match_one_piece(n, fft_order):
    # the blocks reuse mirror rows' exponentials, yet each must hold the
    # bytes of sigma * e^(2 pi i Phi) formed in one piece; the kernel's
    # FFT-ordered xi leaves column n/2 without a partner
    grid = Grid(1, n, 32.0 / n)
    x = grid.axis()
    xi = grid.dual().axis()
    if fft_order:
        xi = np.fft.ifftshift(xi)
    chunk = max(1, fio._ROW_CHUNK_ENTRIES // n)
    X, XI = x[:, None], xi[None, :]
    for phase, symbols in PRODUCER_CASES:
        e = np.exp(2j * np.pi * phase.eval(X, XI))
        for symbol in symbols:
            # the blocks skip the constant symbol's sigma = 1, a product
            # that would only flip the sign of zero imaginary parts
            constant = symbol.s1 == 0.0 and symbol.s2 == 0.0
            whole = e if constant else symbol.eval(X, XI) * e
            starts = []
            for rows, block in fio._phase_matrix_blocks(symbol, phase, x, xi):
                assert rows.stop == min(rows.start + chunk, n)
                assert block.tobytes() == whole[rows].tobytes(), (symbol.name, phase.name, rows)
                starts.append(rows.start)
            assert sorted(starts) == list(range(0, n, chunk))


def test_pairing_sums_blocks_in_row_order():
    # the blocks come middle outward, but the partials are summed in
    # ascending row order, as over the blocks of one matrix formed whole
    f, symbol, phase = _block_case((1024, "decaying", "mild_growth"))
    x, fhat = f.grid.axis(), fourier_transform(f)
    coeffs = fhat.samples * fhat.grid.cell_measure()
    gbar = np.conj(f.samples) * f.grid.cell_measure()
    whole = symbol.eval(x[:, None], fhat.grid.axis()[None, :]) * np.exp(
        2j * np.pi * phase.eval(x[:, None], fhat.grid.axis()[None, :])
    )
    chunk = fio._ROW_CHUNK_ENTRIES // f.grid.n
    total = 0.0 + 0.0j
    for start in range(0, f.grid.n, chunk):
        rows = slice(start, start + chunk)
        total += gbar[rows] @ (whole[rows] @ coeffs)
    assert weak_pairing(f, f, symbol, phase) == complex(total)


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
    # symbol at about six. tracemalloc does not see the two n-point
    # scratch buffers pocketfft mallocs inside each transform, so the
    # process holds two more while one runs
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
    # n-point complex array only tiles are alive (1.4 with them). Not
    # counted: the two n-point scratch buffers pocketfft mallocs inside
    # each transform, which tracemalloc does not see
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


def _whole_grid_family(f, symbols, phase):
    """sigma1 e^(2 pi i mu_x) F^-1[sigma2 F f] per symbol, with one
    transform pair over the whole grid."""
    grid = f.grid
    fhat = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f.samples))) * grid.spacing
    xi = grid.dual().axis()
    x = grid.axis()
    front = np.exp(2j * np.pi * phase.mu_x(x))
    outs = []
    for symbol in symbols:
        weighted = np.fft.ifftshift(symbol.sigma2(xi) * fhat)
        profile = np.fft.fftshift(np.fft.ifft(weighted)) / grid.spacing
        outs.append(symbol.sigma1(x) * front * profile)
    return outs


PATCH_SYMBOLS = [decaying_symbol(0.5, 0.8), constant_symbol(), decaying_symbol(1.0, 2.0)]


@pytest.mark.parametrize("modulated", [False, True], ids=["plain", "modulated"])
@pytest.mark.parametrize("alpha, N", [(0.0, 4), (0.5, 4), (0.5, 16)])
def test_patches_match_one_whole_grid_transform_pair(alpha, N, modulated):
    # the thm1 trains: at alpha = 0.5 the first centers are about one
    # unit apart, so their runs share a patch, and at N = 16 the train
    # splits into several patches
    grid = experiments._thm1_grid(alpha, N)
    f = experiments._thm1_input(grid, alpha, N, modulated)
    phase = mild_growth(alpha)
    patches = fio._patches(f, phase)
    runs = support_runs(f.runs, 0.0, 1)[0].size
    assert patches is not None and runs == N > len(patches)
    if N == 16:
        assert len(patches) >= 2
    got = apply_fio_family(f, PATCH_SYMBOLS, phase, lambda s, g: g.densify().samples)
    f = f.densify()
    peak = np.abs(f.samples).max()
    for out, expected in zip(got, _whole_grid_family(f, PATCH_SYMBOLS, phase)):
        assert np.abs(out - expected).max() <= 1e-13 * peak


def test_patch_branch_declines_off_its_inputs_and_phases():
    # gaussians fill the grid, so the family keeps the whole-grid bytes
    # that FAMILY_PINS holds; phases with coupling 0 or mu_xi never take
    # patches, and neither does a train within a margin of the seam
    for n in (512, 1024):
        for name in ("bilinear", "mild_growth"):
            assert fio._patches(block_signal(n), FAMILY_PHASES[name]) is None
    grid = experiments._thm1_grid(0.5, 4)
    train = experiments._thm1_input(grid, 0.5, 4, False).densify()
    for name in ("nonseparated_x", "nonseparated_xi", "high_growth", "freq_chirp"):
        assert fio._patches(train, FAMILY_PHASES[name]) is None
    near_seam = SampledFunction(grid, np.roll(train.samples, grid.n // 2 - 1000))
    assert fio._patches(near_seam, bilinear()) is None
    zero = SampledFunction(grid, np.zeros(grid.n, complex))
    assert fio._patches(zero, bilinear()) is None


def test_patched_family_holds_no_whole_grid_spectrum():
    # on a 2^19-point thm1 train, given as runs, whose patches cover 0.41
    # of the grid, two symbols of distinct s2 hold spectra, the phase
    # factor and a profile that their output overwrites, all on the
    # patches only: 1.6 n-point complex arrays with the tiles. A
    # whole-grid output on top of them would make 2.6
    grid = experiments._thm1_grid(0.5, 16)
    assert grid.n == 1 << 19
    f = experiments._thm1_input(grid, 0.5, 16, True)
    symbols = [decaying_symbol(1.0, 0.5), decaying_symbol(0.5, 0.0)]
    tracemalloc.start()
    try:
        norms = apply_fio_family(
            f, symbols, mild_growth(0.5), lambda s, g: sum(np.vdot(r, r).real for _, r in g.runs)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(norm > 0.0 for norm in norms)
    assert peak <= 1.75 * grid.n * 16


def test_leaky_train_fails_on_patches(capsys):
    # radius-0.003 bumps at spacing 1/1024 leak about a tenth of their
    # amplitude above half Nyquist; the summed patch spectra see it
    argv = ["apply", "--signal", "train:start=0,count=4,radius=0.003",
            "--grid-n", "32768", "--phase", "mild_growth:alpha=0"]
    grid = Grid(1, 32768, 1.0 / 1024)
    h = Bump(0.003, lambda u: mollifier(u, 0.003))
    f = build_F(CoefficientSeq.ones(0, 4), 0.0, grid, h)
    assert fio._patches(f, mild_growth(0.0)) is not None
    assert 0.05 < bandlimit_leakage(f) < 0.2
    with pytest.raises(ValidationError, match="band-limited"):
        apply_fio(f, constant_symbol(), mild_growth(0.0))
    assert main(argv) == 2
    assert "band-limited" in capsys.readouterr().err


def _chirp_oracle(f):
    """mild_growth(0) with the constant symbol: f times e^(2 pi i (1 + x^2))."""
    x = f.grid.axis()
    return np.exp(2j * np.pi * (1.0 + x * x)) * f.samples


def test_mild_growth_zero_is_a_chirp_multiplication():
    phase, symbol = mild_growth(0.0), constant_symbol()
    # on patches: a train of four bumps near the origin
    grid = Grid(1, 32768, 32.0 / 32768)
    train = build_F(CoefficientSeq.ones(0, 4), 0.0, grid, default_bump(0.25))
    assert fio._patches(train, phase) is not None
    # on the whole grid and by the two n^2 realizations: a gaussian
    cases = [(train, apply_fio(train, symbol, phase))]
    for n in (1024, 256):
        g = Grid(1, n, 16.0 / n)
        x = g.axis()
        f = SampledFunction(g, np.exp(-np.pi * x * x))
        assert fio._patches(f, phase) is None
        if n == 1024:
            cases.append((f, apply_fio(f, symbol, phase)))
        else:
            cases.append((f, apply_fio(f, symbol, phase, force_direct=True)))
            cases.append((f, apply_kernel(kernel(symbol, phase, g), f)))
    for f, out in cases:
        err = np.abs(out.samples - _chirp_oracle(f)).max()
        assert err <= 1e-13 * np.abs(f.samples).max()


def _fresnel_oracle(f, a):
    """high_growth(0, 0) with the constant symbol on f = e^(-pi x^2 / a):
    e^(i (1 + x^2)) F^-1[e^(i (1 + xi^2)) fhat], where fhat is
    sqrt(a) e^(-pi a xi^2), so the inverse transform of the gaussian
    e^(-beta xi^2), beta = pi a - i, is sqrt(pi / beta) e^(-pi^2 x^2 / beta)."""
    x = f.grid.axis()
    beta = np.pi * a - 1j
    out = np.sqrt(a) * np.exp(1j) * np.sqrt(np.pi / beta) * np.exp(-np.pi**2 * x * x / beta)
    return np.exp(1j * (1.0 + x * x)) * out


@pytest.mark.parametrize("a", [1.0, 3.0])
def test_high_growth_zero_is_a_fresnel_propagator(a):
    # the fast path, the direct quadrature and the kernel; at n = 256 the
    # half length is 8, since at 16 the a = 1 gaussian fails the
    # band-limit check
    phase, symbol = high_growth(0.0, 0.0), constant_symbol()
    for n, half in ((256, 8.0), (512, 16.0), (1024, 16.0)):
        g = Grid(1, n, 2.0 * half / n)
        x = g.axis()
        f = SampledFunction(g, np.exp(-np.pi * x * x / a))
        outs = [
            apply_fio(f, symbol, phase),
            apply_fio(f, symbol, phase, force_direct=True),
            apply_kernel(kernel(symbol, phase, g), f),
        ]
        for out in outs:
            assert np.abs(out.samples - _fresnel_oracle(f, a)).max() <= 1e-13
