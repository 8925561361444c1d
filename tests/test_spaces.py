"""Weighted mixed norms, sequence spaces, embeddings, and predicates."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiolab import (
    DomainError,
    Grid,
    INF,
    SampledFunction,
    SpaceSpec,
    StructuralError,
    Weight,
    amalgam_norm,
    embedding_holds,
    embedding_witness,
    fold_norms,
    fourier_transform,
    make_window,
    modulation_norm,
    sequence_norm,
    stft,
    stft_norms,
    thm1_predicate,
    thm2_predicate,
    thm3_predicate,
    translate_modulate,
)
from fiolab import spaces

from conftest import bandlimited, pin_signal


def _reference_nested(mags, p, q, dx, dxi):
    """Independent two-level reduction: position inner, frequency outer."""
    if p == INF:
        inner = mags.max(axis=0)
    else:
        inner = ((mags**p).sum(axis=0) * dx) ** (1.0 / p)
    if q == INF:
        return float(inner.max())
    return float(((inner**q).sum() * dxi) ** (1.0 / q))


@pytest.fixture(scope="module")
def sample_pair():
    g = Grid(1, 128, 0.25)
    rng = np.random.default_rng(7)
    return g, bandlimited(g, rng)


def test_weight_evaluation():
    w = Weight(1.0, 0.0)
    assert w(0.0, 5.0) == pytest.approx(1.0)
    assert w(1.0, 5.0) == pytest.approx(np.sqrt(2.0))
    assert Weight().trivial
    assert not Weight(0.0, 0.1).trivial


@pytest.mark.parametrize(
    "p,q",
    [(1.0, 1.0), (2.0, 2.0), (1.0, INF), (INF, 1.0), (2.0, INF), (INF, INF)],
)
def test_mixed_norm_against_reference(sample_pair, p, q):
    g, f = sample_pair
    w = make_window("gauss", g)
    V = stft(f, w)
    weight = Weight(0.5, 1.0)
    x = g.axis()
    xi = g.dual().axis()
    mags = np.abs(V.values) * weight(x[:, None], xi[None, :])
    ref = _reference_nested(mags, p, q, g.spacing, g.dual().spacing)
    got = modulation_norm(f, SpaceSpec(p, q, weight, "gauss"))
    assert got == pytest.approx(ref, rel=1e-12)


def test_modulation_norm_m22_is_l2(sample_pair):
    g, f = sample_pair
    spec = SpaceSpec(2.0, 2.0)
    assert modulation_norm(f, spec) == pytest.approx(f.norm2(), rel=1e-10)


def test_modulation_norm_invariant_under_lattice_shifts(sample_pair):
    g, f = sample_pair
    spec = SpaceSpec(1.0, INF, Weight(), "gauss:0.5")
    base = modulation_norm(f, spec)
    moved = translate_modulate(f, 2.0 * g.spacing, 3.0 * g.dual().spacing)
    assert modulation_norm(moved, spec) == pytest.approx(base, rel=1e-10)


def test_modulation_norm_measure_normalized_monotonicity(sample_pair):
    g, f = sample_pair
    dx, dxi = g.spacing, g.dual().spacing

    def normalized(p, q):
        v = modulation_norm(f, SpaceSpec(p, q))
        ip = 0.0 if p == INF else 1.0 / p
        iq = 0.0 if q == INF else 1.0 / q
        return v / (dx**ip * dxi**iq)

    chain = [(1.0, 1.0), (2.0, 2.0), (4.0, 4.0), (INF, INF)]
    vals = [normalized(p, q) for p, q in chain]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert normalized(1.0, INF) >= normalized(2.0, INF) - 1e-12
    assert normalized(INF, 1.0) >= normalized(INF, 2.0) - 1e-12


def test_stft_norms_batches_match_single_calls(sample_pair):
    g, f = sample_pair
    specs = [
        SpaceSpec(1.0, INF),
        SpaceSpec(INF, 1.0, Weight(0.5, 0.5)),
        SpaceSpec(2.0, 2.0),
    ]
    kinds = ["modulation", "modulation", "amalgam"]
    batch = stft_norms(f, specs, kinds)
    assert batch[0] == pytest.approx(modulation_norm(f, specs[0]), rel=1e-12)
    assert batch[1] == pytest.approx(modulation_norm(f, specs[1]), rel=1e-12)
    assert batch[2] == pytest.approx(amalgam_norm(f, specs[2]), rel=1e-12)


def test_fold_reduces_frequency_in_increasing_order(sample_pair):
    # a producer may hand its columns over in any order, as the fast
    # engine does with FFT order; the norms keep the same bytes
    g, f = sample_pair
    specs = [
        SpaceSpec(1.0, 2.0),
        SpaceSpec(INF, 1.0, Weight(0.5, 0.5)),
        SpaceSpec(2.0, INF, Weight(0.0, 1.0)),
        SpaceSpec(2.0, 1.0, Weight(0.7, 0.7)),
    ]
    kinds = ["modulation", "modulation", "modulation", "amalgam"]
    w = make_window("gauss", g)
    mags = np.abs(stft(f, w).values)
    perm = np.random.default_rng(3).permutation(g.n)
    xi = g.dual().axis()
    dx, dxi = g.spacing, g.dual().spacing

    def rows(sl, out):
        np.take(mags[sl], perm, axis=1, out=out)

    got = fold_norms(rows, g.axis(), xi[perm], dx, dxi, specs, kinds)
    assert got == stft_norms(f, specs, kinds)


# stft_norms as float.hex, recorded when every row was gathered through
# an n^2 index array taken mod n and shifted into grid order; keyed by
# (n, spacing, window), the modulation then the amalgam norms of
# PIN_SPECS. At n = 4096 the rows span four fold blocks, so blocks start
# away from shift 0.
PIN_SPECS = [
    SpaceSpec(1.0, 4.0 / 3.0),
    SpaceSpec(4.0 / 3.0, INF, Weight(0.5, 0.0)),
    SpaceSpec(2.0, 1.0, Weight(0.0, 1.0)),
    SpaceSpec(INF, 2.0, Weight(1.0, 0.5)),
]
EXACT_NORM_PINS = {
    (64, "32/n", "gauss"): [
        "0x1.56c99d669dd99p+1", "0x1.44bbb4e0866bbp+1",
        "0x1.7ef5b83de25bdp+0", "0x1.dc1ac5f90e8bbp+1",
        "0x1.5b5d7b37cdd36p+1", "0x1.626c0c2d3a23cp+1",
        "0x1.741891737413bp+0", "0x1.dc1ac5f90e8bbp+1",
    ],
    (64, "32/n", "gauss:0.5"): [
        "0x1.7d91a675b7b85p+1", "0x1.1a96512e351a5p+1",
        "0x1.f0441beca426cp+0", "0x1.4841aafde2798p+2",
        "0x1.7dcb6990687ecp+1", "0x1.1ecb6ed492674p+1",
        "0x1.f00c66d6b2962p+0", "0x1.4841aafde2798p+2",
    ],
    (64, "0.3", "gauss"): [
        "0x1.3ba224a4cea18p+1", "0x1.c6c39bc4185d7p+0",
        "0x1.b563d27489989p+0", "0x1.297b871ffecdap+1",
        "0x1.4512626804d8bp+1", "0x1.0ca2b3b936985p+1",
        "0x1.95cb3c90c6866p+0", "0x1.1dee6aa7e8962p+1",
    ],
    (64, "0.3", "gauss:0.5"): [
        "0x1.41ad58aeb5a19p+1", "0x1.760a0fd280facp+0",
        "0x1.146d8387bc83fp+1", "0x1.56137c9a90a78p+1",
        "0x1.4467ebe6db004p+1", "0x1.8fb055e3745e3p+0",
        "0x1.0fd89efa2f531p+1", "0x1.56137c9a90a78p+1",
    ],
    (1024, "32/n", "gauss"): [
        "0x1.13120a56b75e3p+1", "0x1.639e23a0fa8e7p+0",
        "0x1.714272c166ba8p+2", "0x1.03057c2cdc82ap+3",
        "0x1.62f45c7a40cacp+1", "0x1.626881f54b8eep+1",
        "0x1.c63ce6c0c8bcbp+1", "0x1.e18519c2e5617p+2",
    ],
    (1024, "32/n", "gauss:0.5"): [
        "0x1.1cef779ff66fdp+1", "0x1.0abe690e542cdp+0",
        "0x1.e244f863618c2p+2", "0x1.2092b5de08b2ep+3",
        "0x1.6cc7ee9cd6634p+1", "0x1.055a844d98cb1p+1",
        "0x1.281d0506280a3p+2", "0x1.0e8f343fe8068p+3",
    ],
    (1024, "0.3", "gauss"): [
        "0x1.fee6b0fd18488p+2", "0x1.5a94727978af4p+4",
        "0x1.3291520eea873p+1", "0x1.27b037fad2003p+5",
        "0x1.07680c3e0f4e0p+3", "0x1.7207e846c4594p+4",
        "0x1.0f37d5dd625c5p+1", "0x1.17f1ba016936ep+5",
    ],
    (1024, "0.3", "gauss:0.5"): [
        "0x1.2d94ad2683259p+3", "0x1.fc20830d2357ep+3",
        "0x1.94bc5520c61cfp+1", "0x1.4ee83df4412bap+5",
        "0x1.2f3935d7a5bafp+3", "0x1.07ac0b93e12fap+4",
        "0x1.8bf5a081d2014p+1", "0x1.4ee83df4412bap+5",
    ],
    (4096, "32/n", "gauss"): [
        "0x1.130ac9f8e05f7p+1", "0x1.639e23a0fa8e6p+0",
        "0x1.28ab918a01f21p+4", "0x1.fdf32c6e4f1b2p+3",
        "0x1.62f45d13813e6p+1", "0x1.626882514e8bcp+1",
        "0x1.9be653548dc85p+3", "0x1.dcc455597336ep+3",
    ],
    (4096, "32/n", "gauss:0.5"): [
        "0x1.19cdac17aedfcp+1", "0x1.0abe69061900ap+0",
        "0x1.821e3a22a14e8p+4", "0x1.1bff08ca6033cp+4",
        "0x1.6cc7f40a9406ap+1", "0x1.055a844a9b873p+1",
        "0x1.07a9d2930d9f3p+4", "0x1.0bdd632606a62p+4",
    ],
    (4096, "0.3", "gauss"): [
        "0x1.a5a6eab554929p+4", "0x1.ddf804e1ff295p+6",
        "0x1.d59de844baa62p+1", "0x1.27b2a43cc7a53p+7",
        "0x1.aacbf2dc9f2d3p+4", "0x1.e642abe1d6784p+6",
        "0x1.a7f7635705872p+1", "0x1.17ec07fefc47cp+7",
    ],
    (4096, "0.3", "gauss:0.5"): [
        "0x1.faf4a42cd3c8ep+4", "0x1.550c92dfcc8e7p+6",
        "0x1.490e3c96c81dfp+2", "0x1.4ee16c2e4acfdp+7",
        "0x1.fbe74390b9741p+4", "0x1.58988588cd780p+6",
        "0x1.452e87abd07c0p+2", "0x1.4ee16c2e4acfdp+7",
    ],
}


@pytest.mark.parametrize("key", sorted(EXACT_NORM_PINS), ids=lambda k: "-".join(map(str, k)))
def test_exact_norms_are_pinned(key):
    n, spacing, window = key
    f = pin_signal(n, 32.0 / n if spacing == "32/n" else float(spacing))
    specs = [SpaceSpec(s.p, s.q, s.weight, window) for s in PIN_SPECS] * 2
    kinds = ["modulation"] * len(PIN_SPECS) + ["amalgam"] * len(PIN_SPECS)
    got = [v.hex() for v in stft_norms(f, specs, kinds)]
    assert got == EXACT_NORM_PINS[key]


def test_modulation_norm_memory_is_bounded():
    # the fold's one float tile of FFT_BATCH_ENTRIES magnitudes (1 MiB)
    # and the complex buffer that fills it (two tiles), plus the window
    # and accumulators: 3.6 tiles; one more tile-sized buffer would pass
    # 4.5
    n = 2048
    f = pin_signal(n, 32.0 / n)
    tracemalloc.start()
    try:
        modulation_norm(f, SpaceSpec(2.0, 2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * spaces.FFT_BATCH_ENTRIES * 8


# the norms the desk CLI asks for, plus a weight on both variables
ONE_BLOCK_SPECS = [
    SpaceSpec(2.0, 2.0),
    SpaceSpec(1.0, 2.0),
    SpaceSpec(2.0, INF, Weight(1.0, 0.0)),
    SpaceSpec(INF, 1.0, Weight(0.0, 0.5)),
    SpaceSpec(4.0 / 3.0, 2.0, Weight(0.5, 0.5)),
]


def _spec_id(s):
    return f"p{s.p:g}-q{s.q:g}-s{s.weight.s:g}-t{s.weight.t:g}"


@pytest.mark.parametrize("spec", ONE_BLOCK_SPECS, ids=_spec_id)
def test_single_spec_norm_holds_one_block(spec):
    # the fold's block is one float tile of FFT_BATCH_ENTRIES magnitudes,
    # weighted and raised to p in place, beside the complex buffer that
    # fills it (two tiles): 3.5 to 3.6 tiles with the window and the
    # accumulators; weighing or powering into a second tile would pass 4.5
    n = 2048
    f = pin_signal(n, 32.0 / n)
    tracemalloc.start()
    try:
        modulation_norm(f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * spaces.FFT_BATCH_ENTRIES * 8


@pytest.mark.parametrize("spec", ONE_BLOCK_SPECS, ids=_spec_id)
def test_in_place_fold_keeps_the_bytes(spec):
    # of two equal specs the first is reduced from a copy and the second
    # in place, as a lone spec is; a plain p = 2 spec ahead of a weighted
    # one must leave it the magnitudes unpowered
    f = pin_signal(4096, 32.0 / 4096)
    kinds = ["modulation", "modulation"]
    pair = stft_norms(f, [spec, spec], kinds)
    behind = stft_norms(f, [SpaceSpec(2.0, 2.0), spec], kinds)[1]
    assert pair[0].hex() == pair[1].hex() == behind.hex() == modulation_norm(f, spec).hex()


@pytest.mark.parametrize("spec", ONE_BLOCK_SPECS, ids=_spec_id)
def test_single_spec_norm_holds_a_few_tiles(spec):
    # the fold reduces tiles of FFT_BATCH_ENTRIES magnitudes as they are
    # made, so no n^2 block exists: a whole block alone would pass 32 MiB
    n = 2048
    f = pin_signal(n, 32.0 / n)
    tracemalloc.start()
    try:
        modulation_norm(f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


@pytest.mark.parametrize("entries", [1 << 12, 1 << 20])
def test_tile_size_moves_no_exact_byte(monkeypatch, entries):
    # only _CHUNK_ENTRIES fixes the summation order; at 2^12 entries the
    # n = 4096 rows come one per tile
    monkeypatch.setattr(spaces, "FFT_BATCH_ENTRIES", entries)
    for (n, spacing, window), pins in EXACT_NORM_PINS.items():
        f = pin_signal(n, 32.0 / n if spacing == "32/n" else float(spacing))
        specs = [SpaceSpec(s.p, s.q, s.weight, window) for s in PIN_SPECS] * 2
        kinds = ["modulation"] * len(PIN_SPECS) + ["amalgam"] * len(PIN_SPECS)
        assert [v.hex() for v in stft_norms(f, specs, kinds)] == pins


@pytest.mark.parametrize("key", [(1024, "0.3", "gauss"), (4096, "32/n", "gauss:0.5")])
def test_norms_keep_their_pins_in_any_spec_order(key):
    # which block the fold overwrites depends on the order of the specs;
    # the bytes of each norm do not
    n, spacing, window = key
    f = pin_signal(n, 32.0 / n if spacing == "32/n" else float(spacing))
    pins = EXACT_NORM_PINS[key]
    pairs = [
        (SpaceSpec(s.p, s.q, s.weight, window), kind, pins[half + i])
        for kind, half in (("modulation", 0), ("amalgam", 4))
        for i, s in enumerate(PIN_SPECS)
    ]
    rng = np.random.default_rng(5)
    orders = [[i] for i in range(4)] + [rng.permutation(8) for _ in range(2)]
    for order in orders:
        specs, kinds, want = zip(*(pairs[i] for i in order))
        got = [v.hex() for v in stft_norms(f, list(specs), list(kinds))]
        assert got == list(want)


def test_amalgam_is_fourier_image_of_modulation():
    # |V_g f(x, xi)| = |V_ghat fhat(xi, -x)| pointwise, so the modulation
    # norm of f equals the swapped-exponent amalgam norm of fhat when the
    # window is its own transform; the dual grid must leave the window
    # room to decay, hence the fine spacing
    g = Grid(1, 512, 0.0625)
    rng = np.random.default_rng(7)
    f = bandlimited(g, rng)
    fhat = fourier_transform(f)
    for p, q in [(1.0, INF), (2.0, 1.0), (INF, 2.0)]:
        m = modulation_norm(f, SpaceSpec(p, q, Weight(), "gauss"))
        a = amalgam_norm(fhat, SpaceSpec(q, p, Weight(), "gauss"))
        assert a == pytest.approx(m, rel=1e-9)
    mw = modulation_norm(f, SpaceSpec(1.0, 2.0, Weight(0.7, 0.7), "gauss"))
    aw = amalgam_norm(fhat, SpaceSpec(2.0, 1.0, Weight(0.7, 0.7), "gauss"))
    assert aw == pytest.approx(mw, rel=1e-9)


def test_sequence_norm_closed_forms():
    assert sequence_norm([0.0], [0], 1.0) == 0.0
    assert sequence_norm([1.0], [0], 2.0, s=3.0) == pytest.approx(1.0)
    assert sequence_norm([1, 1, 1, 1], [0, 1, 2, 3], 1.0) == pytest.approx(4.0)
    vals = [3.0, 4.0]
    assert sequence_norm(vals, [1, -2], INF, s=0.0) == pytest.approx(4.0)
    got = sequence_norm(vals, [1, -2], 2.0, s=1.0)
    want = np.sqrt((3.0 * np.sqrt(2.0)) ** 2 + (4.0 * np.sqrt(5.0)) ** 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_embedding_holds_paper_cases():
    assert embedding_holds(INF, 2.0, 1.0, 0.0, d=1) is True
    assert embedding_holds(INF, 1.0, 1.0, 0.0, d=1) is False
    assert embedding_holds(1.0, 0.0, INF, 0.0, d=1) is True


def test_embedding_witness_reports():
    rep = embedding_witness(INF, 2.0, 1.0, 0.0)
    assert rep.embedded is True
    assert rep.best_ratio < 10.0
    rep = embedding_witness(2.0, 0.0, 2.0, 1.0)
    assert rep.embedded is False
    assert rep.support == (64,) or rep.support == (-64,)
    with pytest.raises(DomainError):
        embedding_witness(2.0, 0.0, 2.0, 0.0, d=2)


@given(
    s1=st.floats(0.0, 4.0),
    s2=st.floats(0.0, 4.0),
    q1=st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]),
    q2=st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]),
)
@settings(max_examples=200, deadline=None)
def test_embedding_monotone_in_source_weight(s1, s2, q1, q2):
    # raising the source weight can only help the embedding
    if embedding_holds(q1, s1, q2, s2):
        assert embedding_holds(q1, s1 + 0.5, q2, s2)


def test_thm1_predicate_paper_cases():
    for p in (1.0, 2.0, INF):
        for alpha in (0.0, 0.5, 1.0):
            assert thm1_predicate(p, p, 0.0, 0.0, alpha) is True
    assert thm1_predicate(INF, 1.0, 0.5, 0.0, 0.5) is False
    assert thm1_predicate(1.0, INF, 0.6, 0.5, 0.0) is True
    # alpha = 1 removes every threshold
    assert thm1_predicate(1.0, INF, 0.0, 0.0, 1.0) is True
    assert thm1_predicate(2.0, 1.0, -0.1, 0.0, 1.0) is False


def test_thm2_predicate_paper_cases():
    # at (inf, 1) the first two thresholds vanish; the third is
    # alpha*d/p' + (1-alpha)*d/q' = 1 - alpha, strict since q < inf,
    # so s1 + s2 = 0 only clears it at alpha = 1
    assert thm2_predicate(INF, 1.0, 0.0, 0.0, 1.0) is True
    assert thm2_predicate(INF, 1.0, 0.0, 0.0, 0.5) is False
    assert thm2_predicate(INF, 1.0, 0.0, 0.0, 0.0) is False
    assert thm2_predicate(2.0, 2.0, 0.5, 0.5, 0.0) is False
    assert thm2_predicate(2.0, 2.0, 0.75, 0.75, 0.0) is True


def test_thm3_predicate_paper_cases():
    for t in (0.0, 1.0, 2.0):
        assert thm3_predicate(2.0, 0.0, 0.0, t, t) is True
    assert thm3_predicate(1.0, 1.0, 0.0, 2.0, 0.0) is True
    assert thm3_predicate(1.0, 0.9, 0.0, 2.0, 0.0) is False
    with pytest.raises(DomainError):
        thm3_predicate(2.0, 0.0, 0.0, -1.0, 0.0)


@given(
    p=st.sampled_from([1.0, 4.0 / 3.0, 2.0, 4.0, INF]),
    q=st.sampled_from([1.0, 4.0 / 3.0, 2.0, 4.0, INF]),
    s1=st.floats(0.0, 2.0),
    s2=st.floats(0.0, 2.0),
    alpha=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
)
@settings(max_examples=300, deadline=None)
def test_predicates_monotone_in_decay(p, q, s1, s2, alpha):
    # more symbol decay never breaks boundedness
    if thm1_predicate(p, q, s1, s2, alpha):
        assert thm1_predicate(p, q, s1 + 0.3, s2 + 0.3, alpha)
    if thm2_predicate(p, q, s1, s2, alpha):
        assert thm2_predicate(p, q, s1 + 0.3, s2 + 0.3, alpha)
    if thm3_predicate(p, s1, s2, 1.0, 1.0):
        assert thm3_predicate(p, s1 + 0.3, s2 + 0.3, 1.0, 1.0)


def test_predicates_validate_inputs():
    with pytest.raises(DomainError):
        thm1_predicate(0.5, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        thm1_predicate(2.0, 2.0, 0.0, 0.0, 1.5)
    with pytest.raises(DomainError):
        thm2_predicate(2.0, 2.0, 0.0, 0.0, 0.0, d=0)
