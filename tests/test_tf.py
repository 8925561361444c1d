"""Short-time transforms: oracles, identities, budgets, CSV interchange."""

import hashlib

import numpy as np
import pytest

from fiolab import (
    Grid,
    ResourceError,
    SampledFunction,
    StructuralError,
    ValidationError,
    fundamental_identity_residual,
    make_window,
    stft,
    tf_to_csv,
)


from conftest import bandlimited, pin_signal


def test_make_window_normalization_and_errors():
    g = Grid(1, 256, 0.125)
    w = make_window("gauss", g)
    assert w.norm2() == pytest.approx(1.0, rel=1e-10)
    narrow = make_window("gauss:0.5", g)
    assert narrow.norm2() == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValidationError):
        make_window("hann", g)
    with pytest.raises(ValidationError):
        make_window("gauss:zero", g)
    with pytest.raises(ValidationError):
        make_window("gauss:-1", g)


def test_stft_matches_direct_inner_products():
    # oracle: V_g f(x_j, xi_m) = <f, M_xi T_x g> summed point by point
    g = Grid(1, 32, 0.5)
    rng = np.random.default_rng(3)
    f = SampledFunction(g, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    w = make_window("gauss", g)
    V = stft(f, w)
    x = g.axis()
    xi = g.dual().axis()
    t = g.axis()
    n = g.n
    direct = np.empty((n, n), dtype=complex)
    for j in range(n):
        shifted = np.roll(w.samples, j - n // 2)
        for m in range(n):
            probe = np.exp(2j * np.pi * xi[m] * t) * shifted
            direct[j, m] = np.sum(f.samples * np.conj(probe)) * g.spacing
    assert np.allclose(V.values, direct, atol=1e-10)


def test_stft_orthogonality_relation():
    g = Grid(1, 128, 0.25)
    rng = np.random.default_rng(4)
    f = bandlimited(g, rng)
    w = make_window("gauss:2", g)
    V = stft(f, w)
    plane = np.sqrt(
        np.sum(np.abs(V.values) ** 2) * g.spacing * g.dual().spacing
    )
    assert plane == pytest.approx(f.norm2() * w.norm2(), rel=1e-12)


def test_fundamental_identity_residual_is_round_off():
    g = Grid(1, 64, 0.25)
    rng = np.random.default_rng(5)
    f = SampledFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    w = make_window("gauss", g)
    assert fundamental_identity_residual(f, w) < 1e-10


def test_stft_budget_guard():
    g = Grid(1, 1 << 14, 2.0 ** (-10))
    f = SampledFunction(g, np.zeros(g.n, dtype=complex))
    w = make_window("gauss", g)
    with pytest.raises(ResourceError, match="maximal admissible n is 8192"):
        stft(f, w)


def test_stft_rejects_mismatched_grids():
    f = SampledFunction(Grid(1, 32, 0.5), np.ones(32, dtype=complex))
    w = make_window("gauss", Grid(1, 32, 0.25))
    with pytest.raises(StructuralError):
        stft(f, w)


# sha256 of tf_to_csv(stft(f, g)) and fundamental_identity_residual(f, g)
# as float.hex for the pin signal at n = 256, recorded when stft gathered
# every row through an n^2 index array taken mod n
STFT_PINS = {
    (0.125, "gauss"): (
        "c2a2899fa2993c515b9d94d90efefd5f06c89a4ac38c117b65dbed0760b90075",
        "0x1.1cd29fde580f2p-48",
    ),
    (0.3, "gauss:0.5"): (
        "3459257efa671bb514344327741c9f360f6e13e95b2b4597b81f045861633f54",
        "0x1.10d6ba4d2ce41p-47",
    ),
}


@pytest.mark.parametrize("key", sorted(STFT_PINS), ids=lambda k: "%g-%s" % k)
def test_stft_bytes_are_pinned(key):
    dx, window = key
    f = pin_signal(256, dx)
    w = make_window(window, f.grid)
    digest = hashlib.sha256(tf_to_csv(stft(f, w)).encode()).hexdigest()
    assert (digest, fundamental_identity_residual(f, w).hex()) == STFT_PINS[key]
