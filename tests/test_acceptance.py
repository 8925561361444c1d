"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line (visible with -s or on failure)
and asserts the stated tolerances, so a verbose run shows one pass or
fail line per criterion.
"""

import math
import time

import numpy as np

from fiolab import (
    CoefficientSeq,
    Grid,
    INF,
    SpaceSpec,
    Weight,
    apply_fio,
    apply_kernel,
    bilinear,
    bracket,
    build_F,
    chirp_modulate,
    constant_symbol,
    default_bump,
    dispersive_sup,
    embedding_holds,
    embedding_witness,
    fast_modulation_norms,
    fundamental_identity_residual,
    high_growth,
    high_growth_decay,
    inner,
    k_alpha,
    kernel,
    make_window,
    mild_growth,
    nonseparated_x,
    nonseparated_xi,
    sequence_norm,
    stft,
    thm3_predicate,
    verify_growth,
    weak_pairing,
)
from fiolab.phase import MINUS_INF, GrowthParams

from conftest import bandlimited


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} {label}: {status} ({detail})")


def test_criterion_1_stft_identities(grid256, corpus256):
    t0 = time.perf_counter()
    g = make_window("gauss", grid256)
    cell = grid256.spacing * grid256.dual().spacing
    worst_res = 0.0
    worst_orth = 0.0
    for f in corpus256:
        worst_res = max(worst_res, fundamental_identity_residual(f, g))
        V = stft(f, g)
        mass = math.sqrt(float((np.abs(V.values) ** 2).sum()) * cell)
        target = f.norm2() * g.norm2()
        worst_orth = max(worst_orth, abs(mass - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst_res < 1e-6 and worst_orth < 1e-3 and elapsed < 30
    _report(
        1,
        "stft identities",
        ok,
        f"residual {worst_res:.2e}, orthogonality {worst_orth:.2e}, "
        f"{elapsed:.1f}s over {len(corpus256)} functions",
    )
    assert worst_res < 1e-6
    assert worst_orth < 1e-3
    assert elapsed < 30


def test_criterion_2_operator_triangle():
    t0 = time.perf_counter()
    grid = Grid(1, 512, 0.0625)
    rng = np.random.default_rng(2026)
    fs = [bandlimited(grid, rng) for _ in range(10)]
    probe = bandlimited(grid, rng)
    sym = constant_symbol()
    phases = [bilinear(), mild_growth(0.5)]
    kernels = {ph.name: kernel(sym, ph, grid) for ph in phases}
    worst_tri = 0.0
    worst_id = 0.0
    for f in fs:
        for ph in phases:
            fast = apply_fio(f, sym, ph)
            direct = apply_fio(f, sym, ph, force_direct=True)
            via_kernel = apply_kernel(kernels[ph.name], f)
            scale = direct.norm2()
            worst_tri = max(
                worst_tri,
                float(np.linalg.norm(fast.samples - direct.samples)) / scale,
                float(np.linalg.norm(via_kernel.samples - direct.samples))
                / scale,
            )
            paired = weak_pairing(f, probe, sym, ph)
            pair_scale = scale * probe.norm2()
            worst_tri = max(
                worst_tri, abs(paired - inner(fast, probe)) / pair_scale
            )
        ident = apply_fio(f, sym, phases[0])
        worst_id = max(
            worst_id,
            float(np.linalg.norm(ident.samples - f.samples)) / f.norm2(),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_tri < 1e-6 and worst_id < 1e-8 and elapsed < 120
    _report(
        2,
        "operator triangle",
        ok,
        f"triangle {worst_tri:.2e}, identity {worst_id:.2e}, {elapsed:.1f}s",
    )
    assert worst_tri < 1e-6
    assert worst_id < 1e-8
    assert elapsed < 120


def _train_grid(alpha: float, N: int) -> Grid:
    half = float(k_alpha(float(N - 1), alpha)) + 8.0
    maxfreq = (2.0 - alpha) * float(bracket(half)) ** (1.0 - alpha)
    nyq = maxfreq + 64.0
    n = 1 << max(12, int(math.ceil(math.log2(4.0 * half * nyq))))
    return Grid(1, n, 2.0 * half / n)


def test_criterion_3_train_norm_equivalences():
    t0 = time.perf_counter()
    window = "gauss:0.15"
    rng = np.random.default_rng(5)
    pqs = [(1.0, INF), (2.0, 2.0), (INF, 1.0)]
    svals = (0.0, 0.6)
    worst = 0.0
    for alpha in (0.0, 0.5):
        keys = [
            (p, q, s1, s2) for p, q in pqs for s1 in svals for s2 in svals
        ]
        specs = [
            SpaceSpec(p, q, Weight(s1, s2), window) for p, q, s1, s2 in keys
        ]
        r_plain = {k: [] for k in keys}
        r_chirp = {k: [] for k in keys}
        for N in (4, 8, 16):
            grid = _train_grid(alpha, N)
            a = CoefficientSeq(
                tuple(range(N)), tuple(rng.uniform(0.5, 1.5, N))
            )
            F = build_F(a, alpha, grid, default_bump(0.25))
            G = chirp_modulate(F, alpha)
            nF = fast_modulation_norms(F, specs)
            nG = fast_modulation_norms(G, specs)
            vals = a.value_array()
            idx = a.index_array()
            for key, vF, vG in zip(keys, nF, nG):
                p, q, s1, s2 = key
                r_plain[key].append(
                    vF / sequence_norm(vals, idx, p, s1 / (1 - alpha))
                )
                r_chirp[key].append(
                    vG / sequence_norm(vals, idx, q, s1 / (1 - alpha) + s2)
                )
        for key in keys:
            worst = max(
                worst,
                max(r_plain[key]) / min(r_plain[key]),
                max(r_chirp[key]) / min(r_chirp[key]),
            )
    elapsed = time.perf_counter() - t0
    ok = worst < 4.0 and elapsed < 600
    _report(
        3,
        "train norm equivalences",
        ok,
        f"worst ratio variation x{worst:.2f} (< 4), {elapsed:.1f}s",
    )
    assert worst < 4.0
    assert elapsed < 600


def test_criterion_4_embedding_sharpness():
    rng = np.random.default_rng(42)
    qs = np.array([1.0, 2.0, INF])
    ss = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])

    def rec(q):
        return 0.0 if q == INF else 1.0 / q

    checked = 0
    agreed = 0
    while checked < 200:
        q1, q2 = rng.choice(qs), rng.choice(qs)
        s1, s2 = rng.choice(ss), rng.choice(ss)
        threshold = max(rec(q2) - rec(q1), 0.0)
        if abs((s1 - s2) - threshold) <= 0.1:
            continue
        checked += 1
        holds = embedding_holds(q1, s1, q2, s2)
        report = embedding_witness(q1, s1, q2, s2, section=64, threshold=7.0)
        agreed += report.embedded == holds
    ok = agreed == checked
    _report(
        4,
        "embedding sharpness",
        ok,
        f"{agreed}/{checked} agreements at section 64",
    )
    assert agreed == checked == 200


def test_criterion_5_dispersive_decay():
    t0 = time.perf_counter()
    lams = (10.0, 100.0, 1000.0)
    g = default_bump(1.0)
    vals = [
        dispersive_sup(lambda u: u * u, lambda u: 2.0 + 0.0 * u, g, lam)
        for lam in lams
    ]
    slope = float(np.polyfit(np.log(lams), np.log(vals), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = -0.6 <= slope <= -0.4 and elapsed < 60
    _report(
        5,
        "dispersive decay",
        ok,
        f"slope {slope:.4f} in [-0.6, -0.4], {elapsed:.1f}s",
    )
    assert -0.6 <= slope <= -0.4
    assert elapsed < 60


def _sweep_stats(rows):
    exps = {}
    verdicts = {}
    for r in rows:
        exps[r.id] = r.exponent
        verdicts[r.id] = r.verdict
    bounded = [exps[i] for i in exps if verdicts[i] == "predicted-bounded"]
    unbounded = [
        exps[i] for i in exps if verdicts[i] == "predicted-unbounded"
    ]
    frac_flat = float(np.mean([e < 0.1 for e in bounded]))
    return (
        len(exps),
        float(np.median(bounded)),
        float(np.median(unbounded)),
        frac_flat,
    )


def test_criterion_6_threshold_separation(default_sweeps):
    elapsed = 0.0
    details = []
    ok = True
    for theorem in ("thm1", "thm2"):
        rows, seconds = default_sweeps[theorem]
        elapsed += seconds
        count, med_bnd, med_unb, frac_flat = _sweep_stats(rows)
        details.append(
            f"{theorem}: {count} tuples, medians {med_bnd:+.3f}/"
            f"{med_unb:+.3f}, flat {frac_flat:.0%}"
        )
        ok = ok and count >= 40
        ok = ok and med_unb - med_bnd >= 0.1
        ok = ok and frac_flat >= 0.8
        assert count >= 40
        assert med_unb - med_bnd >= 0.1
        assert frac_flat >= 0.8
    ok = ok and elapsed < 1800
    _report(
        6,
        "threshold separation",
        ok,
        "; ".join(details) + f", {elapsed:.0f}s",
    )
    assert elapsed < 1800


def test_criterion_7_high_growth_scaling():
    ks = (8.0, 16.0, 32.0)
    detail = []
    ok = True
    for t2 in (0.0, 1.0):
        vals = [high_growth_decay(k, t2) for k in ks]
        slope = float(np.polyfit(np.log(ks), np.log(vals), 1)[0])
        detail.append(f"t2={t2:g}: slope {slope:+.3f}")
        ok = ok and abs(slope - (-t2 / 2.0)) <= 0.15
        assert abs(slope - (-t2 / 2.0)) <= 0.15
    table = (
        all(thm3_predicate(2.0, 0.0, 0.0, t, t) for t in (0.0, 1.0, 2.0))
        and thm3_predicate(1.0, 1.0, 0.0, 2.0, 0.0)
        and not thm3_predicate(1.0, 0.9, 0.0, 2.0, 0.0)
    )
    ok = ok and table
    _report(
        7,
        "high growth scaling",
        ok,
        "; ".join(detail) + f", truth table {'ok' if table else 'broken'}",
    )
    assert table


def test_criterion_8_condition_verifiers():
    t0 = time.perf_counter()
    builtins = [
        bilinear(),
        mild_growth(0.0),
        mild_growth(0.5),
        nonseparated_x(0.5),
        nonseparated_xi(1.0),
        high_growth(0.0, 0.0),
        high_growth(1.0, 0.0),
        high_growth(0.0, 1.0),
        high_growth(1.0, 1.0),
    ]
    declared_ok = []
    for ph in builtins:
        rows = verify_growth(ph)
        declared_ok.append(all(r.passed for r in rows))
    mismatches = [
        (mild_growth(0.5), GrowthParams(alpha=0.9)),
        (high_growth(1.0, 1.0), GrowthParams(alpha=MINUS_INF, t1=0.0, t2=1.0)),
        (high_growth(0.0, 2.0), GrowthParams(alpha=MINUS_INF, t1=0.0, t2=0.0)),
        (high_growth(1.0, 0.0), GrowthParams(alpha=0.5)),
    ]
    mismatch_caught = []
    for ph, wrong in mismatches:
        rows = verify_growth(ph, wrong)
        mismatch_caught.append(any(not r.passed for r in rows))
    elapsed = time.perf_counter() - t0
    ok = all(declared_ok) and all(mismatch_caught) and elapsed < 300
    _report(
        8,
        "condition verifiers",
        ok,
        f"{sum(declared_ok)}/{len(builtins)} builtins pass, "
        f"{sum(mismatch_caught)}/{len(mismatches)} mismatches caught, "
        f"{elapsed:.0f}s",
    )
    assert all(declared_ok)
    assert all(mismatch_caught)
    assert elapsed < 300


def test_criterion_9_sweep_determinism(tmp_path):
    from fiolab.cli import main

    out = tmp_path / "sweep.csv"
    args = [
        "sweep", "--theorem", "thm3", "--seed", "7", "--max-tuples", "30",
        "--out", str(out),
    ]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    second = out.read_bytes()
    ok = first == second
    _report(
        9,
        "sweep determinism",
        ok,
        f"{len(first)} CSV bytes, identical on rerun: {ok}",
    )
    assert first == second
