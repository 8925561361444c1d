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
    Runs,
    SampledFunction,
    SpaceSpec,
    Weight,
    embedding_holds,
    embedding_witness,
    fast_modulation_norms,
    fold_norms,
    make_window,
    modulation_norm,
    sequence_norm,
    stft,
    stft_norms,
    thm1_predicate,
    thm2_predicate,
    thm3_predicate,
)
from fiolab import spaces

from conftest import bandlimited, pin_signal


def _gaussian_norm(a, sigma, p, q, s=0, t=0):
    """The M^{p,q} norm of e^(-pi x^2 / a) with an L2-normalized gaussian
    window of width sigma: |V_g f| is a product of two gaussians
    (Groechenig 2001, Lemma 1.5.2), so the norm is C (A/p)^(1/(2p))
    (B/q)^(1/(2q)) with A = a + sigma^2, B = A / (a sigma^2) and
    C = 2^(1/4) sigma^(-1/2) (a sigma^2 / A)^(1/2). The weight
    <x>^s <xi>^t, s and t in {0, 1, 2}, is taken at p = q = 2 only: its
    square is a polynomial in x^2 (in xi^2), so each factor gains the
    square root of the moment E(1 + X^2)^s of a centred normal X of
    variance A / (4 pi) (B / (4 pi))."""
    A = a + sigma**2
    B = A / (a * sigma**2)
    C = 2**0.25 * sigma**-0.5 * (a * sigma**2 / A) ** 0.5
    assert s == t == 0 or p == q == 2.0

    def factor(X, r, k):
        if r == INF:
            return 1.0
        v = X / (4.0 * np.pi)
        moment = (1.0, 1.0 + v, 1.0 + 2.0 * v + 3.0 * v * v)[k]
        return (X / r) ** (1.0 / (2.0 * r)) * moment**0.5

    return C * factor(A, p, s) * factor(B, q, t)


ORACLE_PQS = ((1.0, 1.0), (2.0, 2.0), (1.0, INF), (INF, 1.0), (2.0, INF), (INF, INF))
# (p, q, s, t): every (p, q) unweighted, and every weight at p = q = 2
ORACLE_CASES = [(p, q, 0, 0) for p, q in ORACLE_PQS] + [
    (2.0, 2.0, s, t) for s in (0, 1, 2) for t in (0, 1, 2) if s or t
]


# the fast engine's suprema take the lattice max of a gaussian |V|, which
# can sit half a lattice step from the peak in position and in frequency,
# where the folded step is twice the padded one: 4.8e-2 measured below
FAST_SUP_REL = 6e-2


@pytest.mark.parametrize("window, sigma", [("gauss", 1.0), ("gauss:0.5", 0.5)])
@pytest.mark.parametrize("a", [1.0, 3.0])
@pytest.mark.parametrize("n", [1024, 4096])
def test_norm_engines_match_the_gaussian_closed_form(n, a, window, sigma):
    # the exact engine to 1e-13 relative (3.8e-15 measured, 4.4e-16 with
    # a weight); the fast engine's finite p to 1e-5 (1.9e-12 measured,
    # 2.0e-10 with a weight), which covers the
    # trapezoid-rule estimate e^(-pi sigma^2 / (2 h^2)) ~ 7e-7 at its
    # stride h = sigma / 3, and its p = inf to FAST_SUP_REL (2.4e-2
    # measured). The fast engine reads the gaussian dense and split into
    # three abutting runs
    grid = Grid(1, n, 32.0 / n)
    x = grid.axis()
    f = SampledFunction(grid, np.exp(-np.pi * x * x / a))
    cuts = [0, n // 3, n // 2 + 17, n]
    runs = Runs(grid, [(lo, f.samples[lo:hi]) for lo, hi in zip(cuts, cuts[1:])])
    specs = [SpaceSpec(p, q, Weight(s, t), window) for p, q, s, t in ORACLE_CASES]
    exact = stft_norms(f, specs)
    fast = fast_modulation_norms(f, specs)
    assert fast_modulation_norms(runs, specs) == fast
    for (p, q, s, t), e, v in zip(ORACLE_CASES, exact, fast):
        expected = _gaussian_norm(a, sigma, p, q, s, t)
        assert e == pytest.approx(expected, rel=1e-13, abs=0.0)
        rel = FAST_SUP_REL if p == INF else 1e-5
        assert v == pytest.approx(expected, rel=rel, abs=0.0)


@pytest.mark.parametrize("window, sigma", [("gauss", 1.0), ("gauss:0.5", 0.5)])
@pytest.mark.parametrize("a", [1.0, 3.0])
def test_fast_suprema_match_the_closed_form_off_the_lattice(a, window, sigma):
    # a modulation by nu moves |V| in frequency only, so the closed form
    # holds at every nu; between the folded lattice's frequencies the sup
    # over frequency misses most. Worst measured: (inf, inf) 4.8e-2,
    # (2, inf) 4.4e-2, (inf, 1) 2.4e-2; without the fold 3.0e-2, 1.1e-2
    # and 2.4e-2, and folded by 4 1.7e-1
    grid = Grid(1, 1024, 32.0 / 1024)
    x = grid.axis()
    pqs = ((INF, INF), (2.0, INF), (INF, 1.0))
    specs = [SpaceSpec(p, q, Weight(), window) for p, q in pqs]
    for nu in np.linspace(0.0, 0.5 / sigma, 9):
        f = SampledFunction(grid, np.exp(-np.pi * x * x / a + 2j * np.pi * nu * x))
        for (p, q), v in zip(pqs, fast_modulation_norms(f, specs)):
            expected = _gaussian_norm(a, sigma, p, q)
            assert v == pytest.approx(expected, rel=FAST_SUP_REL, abs=0.0), nu


@pytest.mark.parametrize("L", [8, 64, 512])
def test_lattice_rows_fold_to_every_second_bin(L):
    # rows wider than the buffer are summed modulo its width L, whose
    # DFT is every second bin of the row's DFT zero padded to 2L; the
    # rows come in two views and the tiles straddle them
    rng = np.random.default_rng(L)
    for m in (L + 1, 3 * L // 2 + 1, 2 * L - 1):
        segs = rng.standard_normal((23, m)) + 1j * rng.standard_normal((23, m))
        g = rng.standard_normal(m)
        rows = spaces.lattice_rows([segs[:9], segs[9:]], g)
        got = np.empty((23, L))
        for sl in (slice(0, 5), slice(5, 16), slice(16, 23)):
            rows(sl, got[sl])
        want = np.abs(np.fft.fft(segs * g, n=2 * L))[:, ::2]
        assert np.abs(got - want).max() <= 1e-12 * want.max()


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
    # a circular shift by two grid points, then a modulation by the
    # third frequency of the dual grid
    chirp = np.exp(2j * np.pi * g.axis() * 3.0 * g.dual().spacing)
    moved = SampledFunction(g, np.roll(f.samples, 2) * chirp)
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
    batch = stft_norms(f, specs)
    assert batch == [modulation_norm(f, spec) for spec in specs]


def test_fold_reduces_frequency_in_increasing_order(sample_pair):
    # a producer may hand its columns over in any order, as the fast
    # engine does with FFT order; the norms keep the same bytes
    g, f = sample_pair
    specs = [
        SpaceSpec(1.0, 2.0),
        SpaceSpec(INF, 1.0, Weight(0.5, 0.5)),
        SpaceSpec(2.0, INF, Weight(0.0, 1.0)),
        SpaceSpec(4.0 / 3.0, 1.0, Weight(0.7, 0.7)),
    ]
    w = make_window("gauss", g)
    mags = np.abs(stft(f, w).values)
    perm = np.random.default_rng(3).permutation(g.n)
    xi = g.dual().axis()
    dx, dxi = g.spacing, g.dual().spacing

    def rows(sl, out):
        np.take(mags[sl], perm, axis=1, out=out)

    got = fold_norms(rows, g.axis(), xi[perm], dx, dxi, specs)
    assert got == stft_norms(f, specs)


# stft_norms as float.hex, recorded when every row was gathered through
# an n^2 index array taken mod n and shifted into grid order; keyed by
# (n, spacing, window), the modulation norms of PIN_SPECS. At n = 4096
# the rows span four fold blocks, so blocks start away from shift 0.
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
    ],
    (64, "32/n", "gauss:0.5"): [
        "0x1.7d91a675b7b85p+1", "0x1.1a96512e351a5p+1",
        "0x1.f0441beca426cp+0", "0x1.4841aafde2798p+2",
    ],
    (64, "0.3", "gauss"): [
        "0x1.3ba224a4cea18p+1", "0x1.c6c39bc4185d7p+0",
        "0x1.b563d27489989p+0", "0x1.297b871ffecdap+1",
    ],
    (64, "0.3", "gauss:0.5"): [
        "0x1.41ad58aeb5a19p+1", "0x1.760a0fd280facp+0",
        "0x1.146d8387bc83fp+1", "0x1.56137c9a90a78p+1",
    ],
    (1024, "32/n", "gauss"): [
        "0x1.13120a56b75e3p+1", "0x1.639e23a0fa8e7p+0",
        "0x1.714272c166ba8p+2", "0x1.03057c2cdc82ap+3",
    ],
    (1024, "32/n", "gauss:0.5"): [
        "0x1.1cef779ff66fdp+1", "0x1.0abe690e542cdp+0",
        "0x1.e244f863618c2p+2", "0x1.2092b5de08b2ep+3",
    ],
    (1024, "0.3", "gauss"): [
        "0x1.fee6b0fd18488p+2", "0x1.5a94727978af4p+4",
        "0x1.3291520eea873p+1", "0x1.27b037fad2003p+5",
    ],
    (1024, "0.3", "gauss:0.5"): [
        "0x1.2d94ad2683259p+3", "0x1.fc20830d2357ep+3",
        "0x1.94bc5520c61cfp+1", "0x1.4ee83df4412bap+5",
    ],
    (4096, "32/n", "gauss"): [
        "0x1.130ac9f8e05f7p+1", "0x1.639e23a0fa8e6p+0",
        "0x1.28ab918a01f21p+4", "0x1.fdf32c6e4f1b2p+3",
    ],
    (4096, "32/n", "gauss:0.5"): [
        "0x1.19cdac17aedfcp+1", "0x1.0abe69061900ap+0",
        "0x1.821e3a22a14e8p+4", "0x1.1bff08ca6033cp+4",
    ],
    (4096, "0.3", "gauss"): [
        "0x1.a5a6eab554929p+4", "0x1.ddf804e1ff295p+6",
        "0x1.d59de844baa62p+1", "0x1.27b2a43cc7a53p+7",
    ],
    (4096, "0.3", "gauss:0.5"): [
        "0x1.faf4a42cd3c8ep+4", "0x1.550c92dfcc8e7p+6",
        "0x1.490e3c96c81dfp+2", "0x1.4ee16c2e4acfdp+7",
    ],
}


@pytest.mark.parametrize("key", sorted(EXACT_NORM_PINS), ids=lambda k: "-".join(map(str, k)))
def test_exact_norms_are_pinned(key):
    n, spacing, window = key
    f = pin_signal(n, 32.0 / n if spacing == "32/n" else float(spacing))
    specs = [SpaceSpec(s.p, s.q, s.weight, window) for s in PIN_SPECS]
    got = [v.hex() for v in stft_norms(f, specs)]
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
    pair = stft_norms(f, [spec, spec])
    behind = stft_norms(f, [SpaceSpec(2.0, 2.0), spec])[1]
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
        specs = [SpaceSpec(s.p, s.q, s.weight, window) for s in PIN_SPECS]
        assert [v.hex() for v in stft_norms(f, specs)] == pins


@pytest.mark.parametrize("key", [(1024, "0.3", "gauss"), (4096, "32/n", "gauss:0.5")])
def test_norms_keep_their_pins_in_any_spec_order(key):
    # which block the fold overwrites depends on the order of the specs;
    # the bytes of each norm do not
    n, spacing, window = key
    f = pin_signal(n, 32.0 / n if spacing == "32/n" else float(spacing))
    specs = [SpaceSpec(s.p, s.q, s.weight, window) for s in PIN_SPECS]
    pins = EXACT_NORM_PINS[key]
    rng = np.random.default_rng(5)
    orders = [[i] for i in range(4)] + [rng.permutation(4) for _ in range(2)]
    for order in orders:
        got = [v.hex() for v in stft_norms(f, [specs[i] for i in order])]
        assert got == [pins[i] for i in order]


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
    assert embedding_holds(INF, 2.0, 1.0, 0.0) is True
    assert embedding_holds(INF, 1.0, 1.0, 0.0) is False
    assert embedding_holds(1.0, 0.0, INF, 0.0) is True


def test_embedding_witness_reports():
    rep = embedding_witness(INF, 2.0, 1.0, 0.0)
    assert rep.embedded is True
    assert rep.best_ratio < 10.0
    rep = embedding_witness(2.0, 0.0, 2.0, 1.0)
    assert rep.embedded is False
    assert rep.support == (64,) or rep.support == (-64,)


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
