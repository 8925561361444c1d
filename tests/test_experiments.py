"""Norm engine accuracy, report plumbing, and sweep determinism."""

import hashlib
import multiprocessing
import pickle
import tracemalloc

import numpy as np
import pytest

from fiolab import (
    CoefficientSeq,
    ExperimentRow,
    Grid,
    INF,
    ResourceError,
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
from fiolab import cli, experiments, spaces
from fiolab.grid import MATRIX_BUDGET
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
    fine = fast_modulation_norms(f, specs, xi_step=0.05, x_step=0.1)
    for c, fn, e in zip(coarse, fine, exact):
        assert c == pytest.approx(e, rel=3e-2)
        assert fn == pytest.approx(e, rel=5e-3)


@pytest.mark.parametrize("modulated", [False, True], ids=["F", "conjG"])
@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_fast_norms_own_length_padding_tracks_fine_steps(alpha, N, modulated):
    # segments padded only to their own power of two against the 0.2
    # frequency step the engine used to pad to, on the thm1 sweep
    # inputs; the largest relative gap measured was 4.3e-3
    grid = experiments._thm1_grid(alpha, N)
    f = experiments._thm1_input(grid, alpha, N, modulated)
    specs = [
        SpaceSpec(p, q, Weight(), experiments._THM1_WINDOW)
        for p in (1.0, 2.0, INF)
        for q in (1.0, 2.0, INF)
    ]
    own = fast_modulation_norms(f, specs)
    stepped = fast_modulation_norms(f, specs, xi_step=0.2)
    assert own == pytest.approx(stepped, rel=1e-2)


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
# as float.hex, recorded when each window segment was still gathered
# through an index array taken mod n; the sliding-window producer must
# reproduce them bit for bit, the wrap branch included
FAST_NORM_PINS = {
    "inside": [
        "0x1.340c0a876873ap+0",
        "0x1.09ede88a4de54p+0",
        "0x1.e15b71310570cp-1",
        "0x1.0b260174be33ep+0",
    ],
    "separated": [
        "0x1.38654028cfe88p+0",
        "0x1.079fe50349effp+0",
        "0x1.d3af5de65687fp-1",
        "0x1.f6c1f73eaddccp-1",
    ],
    "seam": [
        "0x1.4007f91b4321bp+4",
        "0x1.0fb56064e4adap+3",
        "0x1.e15b70fb99d9ap+1",
        "0x1.ffea86027c6f7p-1",
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
    monkeypatch.setattr(experiments, "TILE_ENTRIES", entries)
    ps = (1.0, 4.0 / 3.0, 2.0, INF)
    specs = [SpaceSpec(p, 2.0, Weight(), "gauss:0.5") for p in ps]
    for name, pins in FAST_NORM_PINS.items():
        got = [v.hex() for v in fast_modulation_norms(_pin_input(name), specs)]
        assert got == pins


@pytest.mark.parametrize(
    "steps",
    [
        dict(xi_step=0.0),
        dict(xi_step=-1.0),
        dict(xi_step=float("nan")),
        dict(xi_step=INF),
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


def test_fast_norms_refuse_an_impossible_xi_step():
    # the padded width is checked before anything is allocated, both
    # where it overflows to inf and where it is merely too large
    grid = Grid(1, 512, 0.0625)
    x = grid.axis()
    f = SampledFunction(grid, np.exp(-np.pi * x * x))
    specs = [SpaceSpec(2.0, 2.0, Weight(), "gauss")]
    for xi_step in (1e-300, 0.5 / (MATRIX_BUDGET * grid.spacing)):
        with pytest.raises(ResourceError, match="xi_step"):
            fast_modulation_norms(f, specs, xi_step=xi_step)


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


def test_threshold_sweep_rows_and_determinism():
    tuples = [
        SweepTuple(2.0, 2.0, t1=0.0, t2=0.0),
        SweepTuple(1.0, 1.0, s1=1.0, t1=2.0),
    ]
    rows = threshold_sweep("thm3", tuples=tuples, Ns=(4, 8))
    assert len(rows) == 4
    assert [r.id for r in rows] == ["thm3-000"] * 2 + ["thm3-001"] * 2
    for r in rows[:2]:
        ok = thm3_predicate(r.p, r.s1, r.s2, r.t1, r.t2, r.d)
        want = VERDICT_BOUNDED if ok else VERDICT_UNBOUNDED
        assert r.verdict == want
    assert rows[0].exponent == rows[1].exponent
    assert {r.N for r in rows} == {4.0, 8.0}
    again = threshold_sweep("thm3", tuples=tuples, Ns=(4, 8))
    assert rows_to_csv(again) == rows_to_csv(rows)


# one thm1 tuple per stratum; serial, pooled and daemonic sweeps must
# all write the rows of this digest
THM1_SMALL = [
    SweepTuple(INF, 1, 0.5, 0, alpha=0),
    SweepTuple(INF, 1, 0.25, 0, alpha=0.5),
    SweepTuple(1, INF, 0, 0.8, alpha=0.5),
]
THM1_SMALL_SHA256 = "e227b76158b16f19800788ceeb4eabe35f2a08e10426c3d41d15cc99656c35cc"


@pytest.mark.parametrize("pool_points", [1 << 40, 1])
def test_thm1_sweep_bytes_serial_and_pooled(monkeypatch, pool_points):
    monkeypatch.setattr(experiments, "_POOL_POINTS", pool_points)
    rows = threshold_sweep("thm1", tuples=THM1_SMALL, Ns=(4, 8))
    digest = hashlib.sha256(rows_to_csv(rows).encode()).hexdigest()
    assert digest == THM1_SMALL_SHA256
    assert multiprocessing.active_children() == []


# thm3's digest predates the shared fold of the exact and fast norm
# engines; thm2's was recorded when fast-norm segments were first
# padded only to their own power of two
SWEEP_SHA256 = {
    "thm2": "b461c272c5000cbdcb7021fa454cf9a6bcf98f56ef325f7ace506b9c2957ed63",
    "thm3": "96fbc3506c1104bb48978b2254cb59eb57adfe2c83e2894778eccd8f5aabbfaf",
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


# the default panels' CSV bytes, read off the sweeps the gates above run
DEFAULT_SWEEP_SHA256 = {
    "thm1": "e4c52c036578aaabae86217050f2cb4142744d995b357cf3d300ae137e07fc57",
    "thm2": "41033d6a423a3abcfb76149ddc518fa5f6addbe0aa565cbb9829ac050861b439",
    "thm3": "cd4f2e989cb694ca862e55236847b2a94f4ee5aa5a3f20a2c0da00fcea23971a",
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
