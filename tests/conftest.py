"""Shared fixtures: a varied sample corpus, band-limited generators and
the full default thm1 and thm2 sweeps."""

import time

import numpy as np
import pytest

from fiolab import (
    Grid,
    SampledFunction,
    inverse_fourier_transform,
    mollifier,
    threshold_sweep,
)


def bandlimited(grid, rng, frac=0.25):
    """Random unit-norm function with spectrum inside frac * Nyquist.

    The coefficients outside the kept band are exactly zero, so the
    result passes the operator input check with no leakage at all.
    """
    dual = grid.dual()
    xi = dual.axis()
    keep = np.abs(xi) <= frac / (2.0 * grid.spacing)
    m = int(keep.sum())
    coef = np.zeros(grid.n, dtype=complex)
    coef[keep] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = inverse_fourier_transform(SampledFunction(dual, coef))
    samples = f.samples / f.norm2()
    return SampledFunction(grid, samples)


def pin_signal(n, dx):
    """Three modulated gaussians spread over an n-point grid of spacing
    dx, in closed form, for the exact-engine byte pins."""
    grid = Grid(1, n, dx)
    x = grid.axis()
    half, nyquist = n * dx / 2.0, 1.0 / (2.0 * dx)

    def g(c, freq=0.0, s=1.0):
        return np.exp(-np.pi * ((x - c) / s) ** 2 + 2j * np.pi * freq * x)

    return SampledFunction(
        grid,
        g(0.0)
        + 0.5 * g(half / 2, 0.3 * nyquist)
        + 0.3j * g(-half / 3, -0.2 * nyquist, half / 8),
    )


def build_corpus(grid):
    """Twenty unit-norm functions of assorted shapes on one grid."""
    rng = np.random.default_rng(11)
    x = grid.axis()
    out = []

    def add(samples):
        f = SampledFunction(grid, np.asarray(samples, dtype=complex))
        out.append(SampledFunction(grid, f.samples / f.norm2()))

    for sigma in (0.5, 1.0, 2.0):
        add(np.exp(-np.pi * (x / sigma) ** 2))
    add(np.exp(-np.pi * (x - 3.0) ** 2))
    add(np.exp(-np.pi * x**2 + 2j * np.pi * 2.0 * x))
    add(mollifier(x, 2.0))
    add(mollifier(x, 5.0))
    add(mollifier(x, 3.0) * np.exp(1j * np.pi * x**2))
    add(x * np.exp(-np.pi * x**2))
    add((1.0 - 2.0 * np.pi * x**2) * np.exp(-np.pi * x**2))
    add(np.exp(-np.pi * (x - 2.0) ** 2) + np.exp(-np.pi * (x + 2.0) ** 2))
    add(np.exp(-np.pi * (x / 4.0) ** 2) * np.cos(2.0 * np.pi * 3.0 * x))
    add(rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n))
    add(bandlimited(grid, rng).samples)
    add(np.where(np.abs(x) <= 4.0, 1.0, 0.0))
    add(np.sinc(x))
    add(np.exp(2j * np.pi * x) * mollifier(x, 4.0))
    add(sum(mollifier(x - c, 1.0) for c in (-6.0, -3.0, 0.0, 3.0, 6.0)))
    add(np.exp(-np.pi * x**2) + 0.1 * rng.standard_normal(grid.n))
    add(1j * np.exp(-np.pi * (x + 5.0) ** 2))
    assert len(out) == 20
    return out


@pytest.fixture(scope="session")
def grid256():
    return Grid(1, 256, 0.125)


@pytest.fixture(scope="session")
def corpus256(grid256):
    return build_corpus(grid256)


@pytest.fixture(scope="session")
def default_sweeps():
    """theorem -> (rows, seconds) of the full default thm1 and thm2
    sweeps, run once per session for every test that reads them."""
    out = {}
    for theorem in ("thm1", "thm2"):
        t0 = time.perf_counter()
        rows = threshold_sweep(theorem)
        out[theorem] = (rows, time.perf_counter() - t0)
    return out
