"""Norm engine accuracy, report plumbing, and sweep determinism."""

import hashlib
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fiolab import (
    CoefficientSeq,
    DomainError,
    ExperimentRow,
    Grid,
    INF,
    SampledFunction,
    SpaceSpec,
    SweepTuple,
    ValidationError,
    Weight,
    bracket_power,
    build_modulated_train,
    emit_report,
    fast_modulation_norms,
    modulation_norm,
    mollifier,
    render_report_svg,
    rows_from_csv,
    rows_to_csv,
    threshold_sweep,
    thm1_default_tuples,
    thm2_default_tuples,
    thm3_default_tuples,
    thm3_predicate,
)
from fiolab import cli, experiments, fio, grid as grid_module, spaces
from fiolab.grid import TILE_ENTRIES, Runs, take
from fiolab.phase import bilinear
from fiolab.experiments import (
    VERDICT_BOUNDED,
    VERDICT_UNBOUNDED,
    _fit_exponent,
)


def _two_tone(grid):
    x = grid.axis()
    env = np.exp(-np.pi * x * x)
    return SampledFunction(grid, env * (1.0 + np.exp(2j * np.pi * 3.0 * x)))


def test_fit_exponent_recovers_power_law():
    params = (4.0, 8.0, 16.0, 32.0)
    ratios = [3.7 * n**1.25 for n in params]
    assert _fit_exponent(params, ratios) == pytest.approx(1.25, abs=1e-12)
    with pytest.raises(ValidationError):
        _fit_exponent((4.0,), (1.0,))


def test_fast_norms_track_exact_norms():
    grid = Grid(1, 512, 0.0625)
    f = _two_tone(grid)
    specs = [
        SpaceSpec(1.0, 1.0, Weight(), "gauss"),
        SpaceSpec(2.0, 2.0, Weight(), "gauss"),
        SpaceSpec(INF, 1.0, Weight(), "gauss"),
        SpaceSpec(2.0, INF, Weight(0.5, 0.0), "gauss"),
        SpaceSpec(2.0, 1.0, Weight(0.0, 1.0), "gauss"),
    ]
    exact = [modulation_norm(f, s) for s in specs]
    coarse = fast_modulation_norms(f, specs)
    fine = fast_modulation_norms(f, specs, x_step=0.1)
    for c, fn, e in zip(coarse, fine, exact):
        assert c == pytest.approx(e, rel=3e-2)
        assert fn == pytest.approx(e, rel=5e-3)


def _run_case(name):
    """Runs of random complex samples on 2^18 points at spacing 1/64,
    where the gauss:0.5 window spans m = 231 points and the support
    segments are cut at gaps of 2 * pad = 232."""
    rng = np.random.default_rng(sum(map(ord, name)))
    n, T = 1 << 18, TILE_ENTRIES

    def run(lo, size, zeros=None):
        s = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        if zeros is not None:
            s[zeros] = 0.0
        return lo, s

    if name == "abutting":
        ends = 5000 + np.cumsum(rng.integers(50, 3000, 7))
        runs = [run(lo, hi - lo) for lo, hi in zip(ends, ends[1:])]
    elif name == "within_a_window":
        lo, runs = 20000, []
        for size, gap in zip(rng.integers(20, 400, 6), rng.integers(1, 115, 6)):
            runs.append(run(lo, size))
            lo += size + gap
    elif name == "tile_borders":
        # one run longer than a tile, scanned in two, and one across the
        # border 2T, with a zero stretch that cuts its segment
        runs = [run(2000, T + 3000), run(2 * T - 700, 1600, slice(300, 900))]
    elif name == "straddle":
        # 200 and 232 points apart: more than a window, one segment
        runs = [run(40000, 500), run(40700, 300), run(41232, 50)]
    else:
        # "seam": one run ending at the grid's last point
        runs = [run(n - 400, 400)]
    return Runs(Grid(1, n, 1.0 / 64), runs)


@pytest.mark.parametrize(
    "name", ["abutting", "within_a_window", "tile_borders", "straddle", "seam"]
)
def test_runs_give_the_dense_bytes(name):
    f = _run_case(name)
    dense = f.densify()
    specs = [
        SpaceSpec(p, q, w, "gauss:0.5")
        for p in (1.0, 2.0, INF)
        for q in (1.0, INF)
        for w in (Weight(), Weight(1.0, 0.5))
    ]
    assert fast_modulation_norms(f, specs) == fast_modulation_norms(dense, specs)
    # the operator's patches, and the samples it transforms on each
    patches = fio._patches(f, bilinear())
    assert patches == fio._patches(dense, bilinear())
    assert (patches is None) == (name == "seam")
    for lo, hi in patches or ():
        assert take(f, lo, hi).tobytes() == dense.samples[lo:hi].tobytes()


_TIMED_THM1_STEP = """
import time
from fiolab import experiments
grid = experiments._thm1_grid(0.5, 32)
args = (grid, 0.5, 32, False, [((0.5, 0.0), [(1.0, 2.0), (2.0, 1.0)])])
experiments._thm1_step(*args)
cpu, own = time.process_time(), time.thread_time()
experiments._thm1_step(*args)
print((time.process_time() - cpu) / (time.thread_time() - own))
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a second BLAS thread needs a second usable CPU",
)
def test_sweep_steps_keep_to_one_thread():
    # a pool worker runs steps with its CPU to itself only if no step
    # calls a BLAS routine: a large one wakes BLAS threads, which spin on
    # after it returns and show as process CPU beyond the main thread's
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fio.__file__)))
    for pool in ("OPENBLAS", "OMP", "MKL", "BLIS"):
        env[f"{pool}_NUM_THREADS"] = "2"
    out = subprocess.run(
        [sys.executable, "-c", _TIMED_THM1_STEP],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    assert float(out.stdout) <= 1.1


@pytest.mark.parametrize("modulated", [False, True], ids=["plain", "modulated"])
def test_thm1_step_holds_no_whole_grid_array(modulated):
    # the 2^21-point thm1 step works on runs: the input is a bump window
    # per run and the operator's output the patch runs, which cover a
    # quarter of the grid. One symbol holds its output (0.25 n-point
    # complex arrays) with the tiles and the norms' buffers: 0.42. Two of
    # distinct s2 add the stored spectra and phase factor: 0.88. A whole-
    # grid input, output or scan buffer is at least one more
    grid = experiments._thm1_grid(0.5, 32)
    assert grid.n == 1 << 21
    families = {
        0.5: [((0.5, 0.0), [(1.0, 2.0)])],
        1.0: [((0.5, 0.0), [(1.0, 2.0)]), ((0.5, 1.0), [(2.0, 1.0), (INF, 1.0)])],
    }
    for bound, pair_pqs in families.items():
        tracemalloc.start()
        try:
            ratios = experiments._thm1_step(grid, 0.5, 32, modulated, pair_pqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r > 0.0 for r in ratios.values())
        assert peak <= bound * grid.n * 16


@pytest.mark.parametrize("modulated", [False, True], ids=["F", "conjG"])
@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_fast_norms_fold_tracks_own_length_padding(monkeypatch, alpha, N, modulated):
    # segments folded to half their power of two against the same
    # segments padded to it, with twice the frequency step, on the thm1
    # sweep inputs; the largest relative gap measured was 5.6e-3
    grid = experiments._thm1_grid(alpha, N)
    f = experiments._thm1_input(grid, alpha, N, modulated)
    specs = [
        SpaceSpec(p, q, Weight(), experiments._THM1_WINDOW)
        for p in (1.0, 2.0, INF)
        for q in (1.0, 2.0, INF)
    ]
    folded = fast_modulation_norms(f, specs)
    monkeypatch.setattr(experiments, "_FOLD", 1)
    own = fast_modulation_norms(f, specs)
    assert folded == pytest.approx(own, rel=1e-2)


def test_fast_norms_memory_stays_within_three_blocks():
    # a 2^20-point thm2 box input; the support is scanned one grid tile
    # at a time, so only the fold's float tile of FFT_BATCH_ENTRIES
    # magnitudes (1 MiB), the complex buffer that fills it (two tiles)
    # and the window positions are alive: 5 tiles, where one more
    # tile-sized buffer would pass 5.75 and an n-point magnitude array 8
    grid = experiments._thm2_box_grid(0.0, 128)
    assert grid.n == 1 << 20
    psi = build_modulated_train(
        CoefficientSeq.delta(0), experiments._spectral_bump(), grid
    )
    specs = [SpaceSpec(p, p, Weight(), "gauss:0.5") for p in (1.0, 2.0, INF)]
    tracemalloc.start()
    try:
        fast_modulation_norms(psi, specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.75 * spaces.FFT_BATCH_ENTRIES * 8


def test_fast_norms_hold_a_few_tiles():
    # the same input with mixed exponents: the fold reduces each tile of
    # FFT_BATCH_ENTRIES magnitudes as it is made and the support scan
    # reads one grid tile at a time, so only tile-sized buffers are
    # alive (5 MiB); the whole-grid scan alone peaked at 12.8 MiB
    grid = experiments._thm2_box_grid(0.0, 128)
    psi = build_modulated_train(
        CoefficientSeq.delta(0), experiments._spectral_bump(), grid
    )
    pqs = ((1.0, 1.0), (2.0, 1.0), (4.0, 2.0))
    specs = [SpaceSpec(p, q, Weight(), "gauss:0.5") for p, q in pqs]
    tracemalloc.start()
    try:
        fast_modulation_norms(psi, specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


# fast_modulation_norms at p in {1, 4/3, 2, inf}, q = 2, window gauss:0.5,
# as float.hex, recorded when each window segment was first folded to
# half its padded length, which moved them by at most 3.3e-4 (the p = inf
# of "inside"); the producer must reproduce them bit for bit, the wrap
# branch included
FAST_NORM_PINS = {
    "inside": [
        "0x1.340cceeb35615p+0",
        "0x1.09edf094697e3p+0",
        "0x1.e15b7131057ccp-1",
        "0x1.0b3c594263319p+0",
    ],
    "separated": [
        "0x1.38654028d0c6ap+0",
        "0x1.079fe4eeb8202p+0",
        "0x1.d3af5de657582p-1",
        "0x1.f6c1f9fa6b7f6p-1",
    ],
    "seam": [
        "0x1.4007f91b9da10p+4",
        "0x1.0fb56064f4dcdp+3",
        "0x1.e15b70fbb299cp+1",
        "0x1.ffea860296b3fp-1",
    ],
}


def _pin_input(name):
    grid = Grid(1, 4096, 1.0 / 64.0)
    x = grid.axis()

    def g(c, f=0.0, s=1.0):
        return np.exp(-np.pi * ((x - c) / s) ** 2 + 2j * np.pi * f * x)

    samples = {
        # support well inside the grid, one segment
        "inside": g(0.0) + 0.5 * g(1.5, 3.0),
        # two segments, 25 length units apart
        "separated": g(-15.0, 2.0) + 0.3j * g(14.0, -4.0, 2.0),
        # above the support threshold up to both grid edges, so the
        # edge windows wrap around the seam
        "seam": g(0.0, 1.0, 20.0),
    }
    return SampledFunction(grid, samples[name])


@pytest.mark.parametrize("name", sorted(FAST_NORM_PINS))
def test_fast_norms_are_pinned(name):
    f = _pin_input(name)
    mags = np.abs(f.samples)
    on = mags > 1e-8 * mags.max()
    if name == "seam":
        assert on[0] and on[-1]
    else:
        assert not on[0] and not on[-1]
    ps = (1.0, 4.0 / 3.0, 2.0, INF)
    specs = [SpaceSpec(p, 2.0, Weight(), "gauss:0.5") for p in ps]
    got = [v.hex() for v in fast_modulation_norms(f, specs)]
    assert got == FAST_NORM_PINS[name]


@pytest.mark.parametrize("entries", [1 << 12, 1 << 20])
def test_tile_size_moves_no_fast_byte(monkeypatch, entries):
    # the fold sizes every tile from this one constant, and the fast
    # producer fills whatever tile it is handed
    monkeypatch.setattr(spaces, "FFT_BATCH_ENTRIES", entries)
    ps = (1.0, 4.0 / 3.0, 2.0, INF)
    specs = [SpaceSpec(p, 2.0, Weight(), "gauss:0.5") for p in ps]
    for name, pins in FAST_NORM_PINS.items():
        got = [v.hex() for v in fast_modulation_norms(_pin_input(name), specs)]
        assert got == pins


@pytest.mark.parametrize("entries", [1 << 6, 1 << 9])
def test_scan_tile_size_moves_no_fast_byte(monkeypatch, entries):
    # the support scan reads the 4096 samples in tiles of this many, so
    # segments and the gaps between them straddle tile borders; it must
    # find the segments of the whole-grid scan the pins were recorded with
    monkeypatch.setattr(grid_module, "TILE_ENTRIES", entries)
    ps = (1.0, 4.0 / 3.0, 2.0, INF)
    specs = [SpaceSpec(p, 2.0, Weight(), "gauss:0.5") for p in ps]
    for name, pins in FAST_NORM_PINS.items():
        got = [v.hex() for v in fast_modulation_norms(_pin_input(name), specs)]
        assert got == pins


@pytest.mark.parametrize(
    "steps",
    [
        dict(x_step=-1.0),
        dict(x_step=float("nan")),
        dict(x_step=INF),
    ],
    ids=lambda kw: "%s=%g" % next(iter(kw.items())),
)
def test_fast_norms_reject_bad_steps(steps):
    grid = Grid(1, 512, 0.0625)
    x = grid.axis()
    f = SampledFunction(grid, np.exp(-np.pi * x * x))
    specs = [SpaceSpec(2.0, 2.0, Weight(), "gauss")]
    with pytest.raises(ValidationError, match="_step"):
        fast_modulation_norms(f, specs, **steps)
    # zero still means the default position step
    default = fast_modulation_norms(f, specs)
    assert fast_modulation_norms(f, specs, x_step=0.0) == default


@pytest.mark.parametrize("p, q", [(0.5, 2.0), (2.0, 0.0), (float("nan"), 2.0)])
def test_fast_norms_check_exponents_when_f_vanishes(p, q):
    # a zero f needs no transform, but its specs are checked as the exact
    # engine checks them, before f is read
    grid = Grid(1, 1024, 32.0 / 1024)
    f = SampledFunction(grid, np.zeros(grid.n, dtype=complex))
    specs = [SpaceSpec(p, q)]
    with pytest.raises(DomainError):
        modulation_norm(f, specs[0])
    with pytest.raises(DomainError):
        fast_modulation_norms(f, specs)


def test_fast_norms_reject_foreign_windows():
    grid = Grid(1, 256, 0.0625)
    f = _two_tone(grid)
    with pytest.raises(ValidationError):
        fast_modulation_norms(f, [SpaceSpec(2.0, 2.0, Weight(), "hann")])
    with pytest.raises(ValidationError, match="window width"):
        fast_modulation_norms(f, [SpaceSpec(2.0, 2.0, Weight(), "gauss:abc")])


def _sample_rows():
    return [
        ExperimentRow(
            id="thm1-000",
            p=2.0,
            q=2.0,
            s1=0.0,
            s2=0.5,
            alpha=0.5,
            t1=0.0,
            t2=0.0,
            d=1,
            N=float(n),
            ratio=1.1 * n**-0.2,
            verdict=VERDICT_BOUNDED,
            exponent=-0.2,
            grid="d=1 n=4096 L=32",
            window="gauss",
        )
        for n in (4, 8)
    ] + [
        ExperimentRow(
            id="thm1-001",
            p=INF,
            q=1.0,
            s1=0.5,
            s2=0.0,
            alpha=0.5,
            t1=0.0,
            t2=0.0,
            d=1,
            N=4.0,
            ratio=2.0,
            verdict=VERDICT_UNBOUNDED,
            exponent=0.4,
            grid="d=1 n=4096 L=32",
            window="gauss",
        )
    ]


def test_experiment_row_validation():
    with pytest.raises(ValidationError):
        ExperimentRow(
            id="x", p=2.0, q=2.0, s1=0.0, s2=0.0, alpha=0.0, t1=0.0,
            t2=0.0, d=1, N=4.0, ratio=1.0, verdict="maybe",
            exponent=0.0, grid="g", window="gauss",
        )
    with pytest.raises(ValidationError):
        ExperimentRow(
            id="a,b", p=2.0, q=2.0, s1=0.0, s2=0.0, alpha=0.0, t1=0.0,
            t2=0.0, d=1, N=4.0, ratio=1.0, verdict=VERDICT_BOUNDED,
            exponent=0.0, grid="g", window="gauss",
        )


def test_csv_round_trip():
    rows = _sample_rows()
    text = rows_to_csv(rows)
    back = rows_from_csv(text)
    assert back == rows
    with pytest.raises(ValidationError, match="header"):
        rows_from_csv("p,q\n1,2\n")
    with pytest.raises(ValidationError, match="fields"):
        rows_from_csv(text.rsplit(",", 1)[0] + "\n")
    with pytest.raises(ValidationError, match="non-numeric"):
        rows_from_csv(text.replace(",2,2,", ",2,x,", 1))


def test_report_svg_structure():
    rows = _sample_rows()
    svg = render_report_svg(rows)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == len(rows) + 2  # points plus legend keys
    assert VERDICT_BOUNDED in svg and VERDICT_UNBOUNDED in svg
    with pytest.raises(ValidationError):
        render_report_svg([])


def test_emit_report_writes_files(tmp_path):
    rows = _sample_rows()
    csv_path = tmp_path / "rep.csv"
    svg_path = tmp_path / "rep.svg"
    emit_report(rows, csv_path, svg_path)
    assert rows_from_csv(csv_path.read_text()) == rows
    assert svg_path.read_text().startswith("<svg")
    with pytest.raises(ValidationError):
        emit_report([], tmp_path / "empty.csv")


def test_threshold_sweep_validation():
    with pytest.raises(ValidationError, match="unknown theorem"):
        threshold_sweep("thm4")
    with pytest.raises(ValidationError, match="at least one"):
        threshold_sweep("thm3", tuples=[])
    t = SweepTuple(2.0, 2.0)
    with pytest.raises(ValidationError, match="distinct"):
        threshold_sweep("thm3", tuples=[t, t])
    with pytest.raises(ValidationError, match="two family steps"):
        threshold_sweep("thm3", tuples=[t], Ns=(4,))
    with pytest.raises(ValidationError, match="increasing"):
        threshold_sweep("thm3", tuples=[t], Ns=(8, 4))
    with pytest.raises(ValidationError, match="max_tuples"):
        threshold_sweep("thm3", tuples=[t], max_tuples=0)
    # steps and max_tuples are whole numbers, never truncated
    for bad in ((4.5, 8), (float("nan"), 8), ("x", 8)):
        with pytest.raises(ValidationError, match="whole numbers"):
            threshold_sweep("thm3", tuples=[SweepTuple(2.0, 2.0, t1=1.0)], Ns=bad)
    for bad in ("x", 2.5):
        with pytest.raises(ValidationError, match="max_tuples"):
            threshold_sweep("thm3", tuples=[t], Ns=(4, 8), max_tuples=bad)
    # mixed growth directions are not a single probe family
    mixed = SweepTuple(2.0, 2.0, t1=1.0, t2=1.0)
    with pytest.raises(ValidationError, match="one growth direction"):
        threshold_sweep("thm3", tuples=[mixed], Ns=(4, 8))
    # the probes are one-dimensional: a d = 2 tuple would get the d = 1
    # slope under a d = 2 verdict
    for d in (2, 0):
        bounded_at_1 = SweepTuple(1.0, 1.0, s1=1.5, t1=2.0, d=d)
        with pytest.raises(ValidationError, match="one-dimensional"):
            threshold_sweep("thm3", tuples=[bounded_at_1], Ns=(4, 8))


def test_threshold_sweep_rows_and_determinism():
    tuples = [
        SweepTuple(2.0, 2.0, t1=0.0, t2=0.0),
        SweepTuple(1.0, 1.0, s1=1.0, t1=2.0),
    ]
    rows = threshold_sweep("thm3", tuples=tuples, Ns=(4, 8))
    assert len(rows) == 4
    assert [r.id for r in rows] == ["thm3-000"] * 2 + ["thm3-001"] * 2
    for r in rows[:2]:
        ok = thm3_predicate(r.p, r.s1, r.s2, r.t1, r.t2)
        want = VERDICT_BOUNDED if ok else VERDICT_UNBOUNDED
        assert r.verdict == want
    assert rows[0].exponent == rows[1].exponent
    assert {r.N for r in rows} == {4.0, 8.0}
    again = threshold_sweep("thm3", tuples=tuples, Ns=(4, 8))
    assert rows_to_csv(again) == rows_to_csv(rows)


# one thm1 tuple per stratum; serial, pooled and daemonic sweeps must
# all write the rows of this digest, recorded when fast-norm segments
# were first folded to half their padded length (exponents moved by at
# most 5.2e-3)
THM1_SMALL = [
    SweepTuple(INF, 1, 0.5, 0, alpha=0),
    SweepTuple(INF, 1, 0.25, 0, alpha=0.5),
    SweepTuple(1, INF, 0, 0.8, alpha=0.5),
]
THM1_SMALL_SHA256 = "2efdfe5d2c81586d9d0a60365c33bfec879647259df5e9cd0b7dcf1b4bc36dc9"


@pytest.mark.parametrize("pool_points", [1 << 40, 1])
def test_thm1_sweep_bytes_serial_and_pooled(monkeypatch, pool_points):
    monkeypatch.setattr(experiments, "_POOL_POINTS", pool_points)
    rows = threshold_sweep("thm1", tuples=THM1_SMALL, Ns=(4, 8))
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == THM1_SMALL_SHA256
    assert multiprocessing.active_children() == []


# both digests were recorded when fast-norm segments were first folded
# to half their padded length, which moved the exponents by at most
# 1.1e-3 (thm2) and 1.3e-2 (thm3, whose slopes are fitted on two points)
SWEEP_SHA256 = {
    "thm2": "abf863250e5630790cfe99e8b9e18f665923a97e85256ff3aaad88661234c7c0",
    "thm3": "d6b64074b90130b4554c4fe540f882d472a37f3fa22575ab780f90ccb5fcc97d",
}
SWEEP_ARGS = {
    "thm2": dict(Ns=(8, 16), max_tuples=10, seed=3),
    "thm3": dict(Ns=(4, 8)),
}


@pytest.mark.parametrize("pool_points", [1 << 40, 1], ids=["serial", "pooled"])
@pytest.mark.parametrize("theorem", ["thm2", "thm3"])
def test_sweep_bytes(monkeypatch, theorem, pool_points):
    monkeypatch.setattr(experiments, "_POOL_POINTS", pool_points)
    rows = threshold_sweep(theorem, **SWEEP_ARGS[theorem])
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == SWEEP_SHA256[theorem]
    assert multiprocessing.active_children() == []


def _send_thm1_digest(conn):
    try:
        rows = threshold_sweep("thm1", tuples=THM1_SMALL, Ns=(4, 8))
        conn.send(hashlib.sha256(rows_to_csv(rows).encode()).hexdigest())
    except BaseException as exc:
        conn.send(repr(exc))


def test_thm1_sweep_in_a_daemonic_process(monkeypatch):
    # a daemonic process may not have children, so a pooled-size sweep
    # made inside one (say, a multiprocessing.Pool task) runs serially
    monkeypatch.setattr(experiments, "_POOL_POINTS", 1)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_send_thm1_digest, args=(send,), daemon=True)
    proc.start()
    try:
        assert recv.poll(300)
        assert recv.recv() == THM1_SMALL_SHA256
    finally:
        proc.join()
    assert proc.exitcode == 0


def test_thm1_worker_errors_reach_the_caller(monkeypatch, tmp_path):
    # without spectral headroom the trains leak past half Nyquist, so
    # the operator's input check fails inside a worker
    monkeypatch.setattr(experiments, "_POOL_POINTS", 1)
    monkeypatch.setattr(experiments, "_SPECTRAL_MARGIN", 0.0)
    with pytest.raises(ValidationError, match="band-limited"):
        threshold_sweep("thm1", tuples=THM1_SMALL, Ns=(4, 8))
    argv = ["sweep", "--theorem", "thm1", "--ns", "4,8", "--out", str(tmp_path / "r.csv")]
    assert cli.main(argv + ["--max-tuples", "1"]) == 2
    assert multiprocessing.active_children() == []


def test_threshold_sweep_subsample_is_seeded():
    tuples = [SweepTuple(p, p) for p in (1.0, 2.0, INF)]
    a = threshold_sweep("thm3", tuples=tuples, Ns=(4, 8), seed=3, max_tuples=1)
    b = threshold_sweep("thm3", tuples=tuples, Ns=(4, 8), seed=3, max_tuples=1)
    assert rows_to_csv(a) == rows_to_csv(b)
    assert len({r.id for r in a}) == 1


def _thm3_gate_cases():
    bias = pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP 5(b): the t = 0.5 tuples fit 0.08-0.13 off the closed form"
        ),
    )
    for i, t in enumerate(thm3_default_tuples()):
        marks = [bias] if max(t.t1, t.t2) == 0.5 else []
        yield pytest.param(i, t, id=f"thm3-{i:03d}", marks=marks)


@pytest.fixture(scope="module")
def thm3_default_rows():
    return threshold_sweep("thm3")


@pytest.mark.parametrize("i, t", _thm3_gate_cases())
def test_thm3_slopes_match_closed_form(thm3_default_rows, i, t):
    # each high-growth tuple is one-sided; its probes' larger slope is
    # the predicate margin t |1/p - 1/2| - s of the side it exercises
    s, growth = (t.s2, t.t2) if t.t2 > 0 else (t.s1, t.t1)
    rp = 0.0 if t.p == INF else 1.0 / t.p
    row = next(r for r in thm3_default_rows if r.id == f"thm3-{i:03d}")
    fitted = row.exponent
    assert abs(fitted - (growth * abs(rp - 0.5) - s)) <= 0.05


def _verdict_gate_cases():
    for theorem, default_tuples in (
        ("thm1", thm1_default_tuples),
        ("thm2", thm2_default_tuples),
    ):
        for i in range(len(default_tuples())):
            yield pytest.param(theorem, i, id=f"{theorem}-{i:03d}")


@pytest.mark.parametrize("theorem, i", _verdict_gate_cases())
def test_thm1_thm2_slopes_fall_on_the_predicted_side(default_sweeps, theorem, i):
    # every tuple, not only the medians of criterion 6, sits on its
    # verdict's side of the 0.1 band. The default panels measured
    # bounded slopes up to +0.015 (thm1) and +0.028 (thm2), and
    # unbounded slopes from +0.128 and +0.181
    rows, _ = default_sweeps[theorem]
    row = next(r for r in rows if r.id == f"{theorem}-{i:03d}")
    if row.verdict == VERDICT_BOUNDED:
        assert row.exponent < 0.1
    else:
        assert row.exponent >= 0.1


# the default panels' CSV bytes, read off the sweeps the gates above run,
# recorded when fast-norm segments were first folded to half their
# padded length; that moved the exponents by at most 4.8e-3 (thm1),
# 7.0e-4 (thm2) and 8.3e-4 (thm3), each on a tuple with p or q = inf
DEFAULT_SWEEP_SHA256 = {
    "thm1": "02064ee306235b1f53e58b22c73eed6607d393d1ac09f11be3da239f5b92c61c",
    "thm2": "a78ad74eacf6734a01548cc2b6c369a95b0dea638691a4bc8d7fe200c5980f77",
    "thm3": "33d7850893ca3d4c1046940c267c16e35fd807f97e41da42fffd54991866760a",
}


@pytest.mark.parametrize("theorem", sorted(DEFAULT_SWEEP_SHA256))
def test_default_sweep_bytes_are_pinned(request, theorem):
    if theorem == "thm3":
        rows = request.getfixturevalue("thm3_default_rows")
    else:
        rows, _ = request.getfixturevalue("default_sweeps")[theorem]
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == DEFAULT_SWEEP_SHA256[theorem]


class _Captured(Exception):
    pass


@pytest.mark.parametrize("theorem", ["thm1", "thm2", "thm3"])
def test_sweep_tasks_pickle_small(monkeypatch, theorem):
    # each pool task builds its own input and carries only its
    # parameters; the default panel's tasks are captured, not run
    sent = []

    def capture(step, tasks, pooled):
        sent.extend(pickle.dumps((step, task)) for task in tasks)
        raise _Captured

    monkeypatch.setattr(experiments, "_run_steps", capture)
    with pytest.raises(_Captured):
        threshold_sweep(theorem)
    assert sent
    assert max(map(len, sent)) <= 64 * 1024


def test_local_probe_matches_global_operator():
    # the probe models multiplication by <x>^(-s) exp(i <x>^(2+t)) near
    # x = k through the second-order remainder of the exponent; the
    # same ratio measured globally, carrier and all, must agree since
    # the norms are translation and modulation invariant
    s, t, k = 0.3, 0.5, 4.0
    mu, dmu, _ = bracket_power(2.0 + t)

    loc = Grid(1, 512, 4.0 / 512)
    y = loc.axis()
    tau = mu(k + y) - float(mu(k)) - float(dmu(k)) * y
    chi = mollifier(y, 1.0)
    decay = np.sqrt(1.0 + (k + y) ** 2) ** (-s)
    specs = [
        SpaceSpec(1.0, 1.0, Weight(), "gauss"),
        SpaceSpec(2.0, 2.0, Weight(), "gauss"),
    ]
    num = fast_modulation_norms(
        SampledFunction(loc, decay * np.exp(1j * tau) * chi), specs
    )
    den = fast_modulation_norms(SampledFunction(loc, chi.astype(complex)), specs)

    glob = Grid(1, 2048, 1.0 / 64.0)
    x = glob.axis()
    bump = mollifier(x - k, 1.0)
    image = np.sqrt(1.0 + x * x) ** (-s) * np.exp(1j * mu(x)) * bump
    gnum = fast_modulation_norms(SampledFunction(glob, image), specs)
    gden = fast_modulation_norms(SampledFunction(glob, bump.astype(complex)), specs)

    for a, b, c, d in zip(num, den, gnum, gden):
        assert c / d == pytest.approx(a / b, rel=3e-2)
