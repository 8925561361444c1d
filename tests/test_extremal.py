"""Bump trains, chirped profiles, and stationary-phase decay."""

import tracemalloc

import numpy as np
import pytest

from fiolab import (
    Bump,
    CoefficientSeq,
    DomainError,
    Grid,
    INF,
    ValidationError,
    annulus_profile,
    build_F,
    bump_train,
    build_modulated_train,
    chirp_modulate,
    decay_grid,
    default_bump,
    default_dispersive_grid,
    dispersive_sup,
    fourier_transform,
    high_growth_decay,
    inverse_fourier_transform,
    k_alpha,
    mu_gradient,
    SampledFunction,
)
from fiolab import experiments


def test_coefficient_seq_constructors():
    a = CoefficientSeq.ones(0, 4)
    assert a.indices == (0, 1, 2, 3)
    assert a.total() == 4.0
    assert a.norm(1.0) == pytest.approx(4.0)
    assert a.norm(2.0) == pytest.approx(2.0)
    assert a.norm(INF) == pytest.approx(1.0)
    d = CoefficientSeq.delta(3, 2.5)
    assert d.indices == (3,) and d.values == (2.5,)
    # weighted norm picks up <k>^s at the support point
    assert d.norm(1.0, s=1.0) == pytest.approx(2.5 * np.sqrt(10.0))


def test_coefficient_seq_validation():
    with pytest.raises(ValidationError):
        CoefficientSeq((0, 1), (1.0,))
    with pytest.raises(ValidationError):
        CoefficientSeq((), ())
    with pytest.raises(ValidationError):
        CoefficientSeq((0.5,), (1.0,))
    with pytest.raises(ValidationError):
        CoefficientSeq((0, 0), (1.0, 1.0))
    with pytest.raises(ValidationError):
        CoefficientSeq((0,), (-1.0,))
    with pytest.raises(ValidationError):
        CoefficientSeq((0,), (float("nan"),))


def test_bump_profiles():
    h = default_bump()
    assert h.radius == 0.2
    assert h(0.0) == pytest.approx(1.0)
    assert h(np.array([0.25, -0.3])).max() == 0.0
    with pytest.raises(DomainError):
        Bump(0.0, lambda x: x)
    rho = annulus_profile()
    u = np.array([0.3, 0.5, 1.25, 2.0, 2.5])
    vals = rho(u)
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert vals[2] == pytest.approx(1.0)
    assert vals[3] == 0.0 and vals[4] == 0.0
    assert np.allclose(rho(-u), vals)


def test_build_f_matches_direct_sum():
    grid = Grid(1, 512, 0.0625)
    a = CoefficientSeq((0, 1, 3), (1.0, 0.5, 2.0))
    h = default_bump(0.3)
    F = build_F(a, 0.5, grid, h)
    x = grid.axis()
    oracle = np.zeros(grid.n, dtype=complex)
    for k, v in zip(a.indices, a.values):
        oracle += v * h(x - k_alpha(float(k), 0.5))
    assert np.allclose(F.samples, oracle, atol=1e-14)
    # the delta train is the bare bump
    D = build_F(CoefficientSeq.delta(0), 0.0, grid, h)
    assert np.allclose(D.samples, h(x), atol=1e-14)


def test_train_geometry_errors():
    grid = Grid(1, 128, 0.0625)
    with pytest.raises(ValidationError, match="overlap"):
        build_F(CoefficientSeq.ones(0, 2), 0.0, grid, default_bump(0.6))
    with pytest.raises(ValidationError, match="leaves the grid"):
        build_F(CoefficientSeq.delta(64), 0.0, grid, default_bump(0.2))


def test_build_g_modulates_without_changing_modulus():
    grid = Grid(1, 1024, 0.03125)
    a = CoefficientSeq.ones(0, 4)
    F = build_F(a, 0.5, grid)
    G = bump_train(a, 0.5, grid, modulated=True).densify()
    assert np.allclose(np.abs(G.samples), np.abs(F.samples), atol=1e-14)
    assert G.norm2() == pytest.approx(F.norm2(), rel=1e-12)


def test_modulated_train_value_at_zero():
    grid = Grid(1, 256, 0.125)
    a = CoefficientSeq((0, 1, 2), (1.0, 2.0, 0.5))
    f = build_modulated_train(a, default_bump(0.25), grid)
    assert f.samples[grid.n // 2] == pytest.approx(a.total(), rel=1e-12)
    # spectrum concentrates near the chosen integer modulations
    fhat = fourier_transform(f)
    xi = fhat.grid.axis()
    near = np.zeros_like(xi, dtype=bool)
    for k in a.indices:
        near |= np.abs(xi - k) <= 0.25
    outside = float(np.linalg.norm(fhat.samples[~near]))
    assert outside < 1e-10 * float(np.linalg.norm(fhat.samples))


def test_modulated_train_tiles_keep_the_bytes():
    # four tiles of grid points; the reference sums every modulation over
    # the whole axis and multiplies by psi, as one pass over the grid
    grid = Grid(1, 1 << 18, 128.0 / (1 << 18))
    a = CoefficientSeq((0, 3, -7), (1.0, 0.5, 2.0))
    phi = default_bump(0.3)
    dual = grid.dual()
    phat = np.asarray(phi(dual.axis()), dtype=float)
    mass = float(phat.sum()) * dual.spacing
    psi = inverse_fourier_transform(SampledFunction(dual, phat / mass))
    x = grid.axis()
    train = np.zeros(grid.n, dtype=complex)
    for k, v in zip(a.indices, a.values):
        train += v * np.exp(2j * np.pi * k * x)
    expected = train * psi.samples
    got = build_modulated_train(a, phi, grid).samples
    assert got.tobytes() == expected.tobytes()


def test_modulated_train_memory_is_bounded():
    # the 2^20-point thm2 box input: phi's axis is gone before the
    # transform and the modulations are summed tile by tile into psi's
    # buffer, so the peak is the transform's input and output (36 MiB);
    # whole-grid temporaries peaked at 89 MiB
    grid = experiments._thm2_box_grid(0.0, 128)
    assert grid.n == 1 << 20
    tracemalloc.start()
    try:
        build_modulated_train(
            CoefficientSeq.delta(0), experiments._spectral_bump(), grid
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 << 20


@pytest.mark.parametrize("modulated", [False, True], ids=["F", "G"])
def test_bump_trains_keep_the_whole_axis_bytes(modulated):
    # each bump is evaluated on its own window's points, in tiles; wide
    # bumps on 2^18 points span tile borders, the one at 0 among them
    grid = Grid(1, 1 << 18, 64.0 / (1 << 18))
    a = CoefficientSeq((-3, 0, 3, 5), (1.0, 0.5, 2.0, 1.0))
    h = default_bump(2.0)
    x = grid.axis()
    expected = np.zeros(grid.n, dtype=complex)
    for c, v in zip(k_alpha(a.index_array(), 0.5), a.values):
        term = v * h(x - c)
        if modulated:
            term = term * np.exp(2j * np.pi * mu_gradient(c, 0.5) * x)
        expected += term
    got = bump_train(a, 0.5, grid, h, modulated).densify().samples
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("modulated", [False, True], ids=["F", "G"])
def test_bump_trains_memory_is_bounded(modulated):
    # the 2^21-point thm1 train: its runs are a bump window each, built
    # from a window's tiles (0.02 n-point complex arrays); the densified
    # train adds its output and a tile of the finite check (1.01)
    grid = experiments._thm1_grid(0.5, 32)
    assert grid.n == 1 << 21
    a, h = CoefficientSeq.ones(0, 32), default_bump(0.25)
    peaks = []
    for densify in (False, True):
        tracemalloc.start()
        try:
            train = bump_train(a, 0.5, grid, h, modulated)
            if densify:
                train.densify()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.0625 * grid.n * 16
    assert peaks[1] <= 1.0625 * grid.n * 16


def test_modulated_train_validation():
    grid = Grid(1, 256, 0.125)
    a = CoefficientSeq.ones(0, 2)
    with pytest.raises(ValidationError, match="radius"):
        build_modulated_train(a, default_bump(0.5), grid)
    with pytest.raises(ValidationError, match="Nyquist"):
        build_modulated_train(
            CoefficientSeq.delta(5), default_bump(0.25), grid
        )


def test_chirp_modulate():
    grid = Grid(1, 128, 0.125)
    rng = np.random.default_rng(3)
    f = SampledFunction(grid, rng.standard_normal(128) + 0j)
    out = chirp_modulate(f, 0.5)
    x = grid.axis()
    factor = np.exp(2j * np.pi * np.sqrt(1 + x * x) ** 1.5)
    assert np.allclose(out.samples, factor * f.samples, atol=1e-14)
    assert np.allclose(np.abs(out.samples), np.abs(f.samples), atol=1e-14)
    with pytest.raises(DomainError):
        chirp_modulate(f, 1.0)


def test_dispersive_sup_basics():
    g = default_bump(1.0)
    # lam = 0 reduces to the plain inverse transform of the bump
    grid = default_dispersive_grid()
    dual = grid.dual()
    ghat = np.asarray(g(dual.axis()), dtype=float).astype(complex)
    oracle = float(
        np.abs(inverse_fourier_transform(SampledFunction(dual, ghat)).samples).max()
    )
    got = dispersive_sup(lambda u: u * u, lambda u: 2.0 + 0.0 * u, g, 0.0)
    assert got == pytest.approx(oracle, rel=1e-12)
    # oscillation spreads the mass and lowers the sup
    spread = dispersive_sup(lambda u: u * u, lambda u: 2.0 + 0.0 * u, g, 100.0)
    assert spread < 0.5 * got
    with pytest.raises(ValidationError, match="curvature"):
        dispersive_sup(lambda u: u, lambda u: 0.0 * u, g, 10.0)


def test_high_growth_decay_validation():
    with pytest.raises(DomainError):
        high_growth_decay(0.5, 0.0)
    with pytest.raises(DomainError):
        high_growth_decay(8.0, -1.0)
    with pytest.raises(DomainError):
        high_growth_decay(8.0, 0.0, p=0.5)
    with pytest.raises(ValidationError, match="Nyquist"):
        high_growth_decay(8.0, 0.0, grid=Grid(1, 1024, 0.25))


def test_high_growth_decay_flat_at_t2_zero():
    grid = decay_grid(16.0, 0.0)
    assert 1.0 / (2.0 * grid.spacing) >= 64.0
    v8 = high_growth_decay(8.0, 0.0)
    v16 = high_growth_decay(16.0, 0.0)
    assert 0.8 < v16 / v8 < 1.25
