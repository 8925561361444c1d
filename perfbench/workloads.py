"""The benchmark's three workloads: seeded inputs, one timed pass, checks.

``thm1-large`` and ``thm23-mid`` run threshold sweeps on seeded,
alpha-stratified subsamples of the default panels. ``desk-small`` is a
closed loop of small requests (CLI calls, operator triangles, fast
against exact norms, malformed argv). For each kind there is

* a plan drawn from the workload seed (``sweep_plan``, ``desk_plan``):
  the same seed gives the same plan in every process;
* one pass over a plan (``sweep_pass``, ``desk_pass``), which returns
  the latency of each request: a ``threshold_sweep`` call on the
  sweeps, one desk request on ``desk-small``;
* a check of a pass's outputs (``sweep_check``, ``desk_check``): the
  gates, the failure count and the accuracy figures.

Everything here calls the package only through its public functions,
so the tracer in ``trace.py`` sees every call it wraps.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

from fiolab import cli
from fiolab.experiments import (
    VERDICT_BOUNDED,
    fast_modulation_norms,
    rows_to_csv,
    thm1_default_tuples,
    thm2_default_tuples,
    thm3_default_tuples,
    threshold_sweep,
)
from fiolab.fio import (
    apply_fio,
    apply_kernel,
    constant_symbol,
    decaying_symbol,
    kernel,
    weak_pairing,
)
from fiolab.grid import (
    Grid,
    SampledFunction,
    inner,
    inverse_fourier_transform,
    sampled_to_csv,
)
from fiolab.phase import bilinear, mild_growth, nonseparated_x
from fiolab.spaces import SpaceSpec, Weight, modulation_norm

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("thm1-large", "thm23-mid", "desk-small")

# a bounded tuple must fit below this exponent, an unbounded one at or above
MISFIT_BAND = 0.1
# criterion-2 tolerance for the three operator realizations
TRIANGLE_TOL = 1e-6
# largest relative gap between fast and exact norms over the whole
# fast-vs-exact catalogue (n = 1024; 512 gives the same) at the base commit is
# 2.2e-2, for the sup-norm space (p = inf) on a shifted train; the gate
# leaves a factor of about 1.4 above it
FAST_EXACT_TOL = 3e-2


# ---------------------------------------------------------------------------
# sweep workloads


def tuple_key(t) -> tuple:
    """A tuple's parameters as they print in a sweep CSV row."""
    values = (t.p, t.q, t.s1, t.s2, t.alpha, t.t1, t.t2)
    return tuple("%.17g" % float(v) for v in values) + ("%d" % t.d,)


def _row_key(fields) -> tuple:
    return tuple(fields[1:9])


def stratified_sample(tuples, stratum, work_key, per_stratum, rng):
    """Pick ``per_stratum`` tuples per stratum with distinct work keys.

    A sweep's cost grows with the number of distinct work keys in each
    stratum (operator applications are shared within a key), so fixing
    that count per stratum gives every seed the same amount of work.
    The result keeps panel order.
    """
    chosen = []
    for s in sorted({stratum(t) for t in tuples}):
        members = [t for t in tuples if stratum(t) == s]
        keys = sorted({work_key(t) for t in members})
        if len(keys) < per_stratum:
            raise ValueError(f"stratum {s} has only {len(keys)} work keys")
        for key in rng.sample(keys, per_stratum):
            chosen.append(rng.choice([t for t in members if work_key(t) == key]))
    order = {t: i for i, t in enumerate(tuples)}
    return sorted(chosen, key=order.__getitem__)


class Reference:
    """Full-panel rows recorded at the benchmark's base commit."""

    def __init__(self, theorem: str):
        with open(os.path.join(REF_DIR, f"{theorem}_full.csv")) as fh:
            lines = fh.read().splitlines()
        self.header = lines[0]
        self.rows = {}
        for ln in lines[1:]:
            fields = ln.split(",")
            self.rows.setdefault(_row_key(fields), []).append(fields)

    def expected_csv(self, theorem: str, tuples) -> str:
        """The CSV the base commit writes for this subsample."""
        out = [self.header]
        for i, t in enumerate(tuples):
            for fields in self.rows[tuple_key(t)]:
                out.append(",".join([f"{theorem}-{i:03d}"] + fields[1:]))
        return "\n".join(out) + "\n"

    def exponent(self, key) -> float:
        return float(self.rows[key][0][12])


def tuple_fits(csv_text: str):
    """(key, verdict, exponent) once per tuple of a sweep CSV."""
    seen = {}
    for ln in csv_text.splitlines()[1:]:
        fields = ln.split(",")
        seen.setdefault(fields[0], (_row_key(fields), fields[11], float(fields[12])))
    return list(seen.values())


def is_misfit(verdict: str, exponent: float) -> bool:
    if verdict == VERDICT_BOUNDED:
        return exponent >= MISFIT_BAND
    return exponent < MISFIT_BAND


@dataclass
class SweepPlan:
    sweeps: list  # (theorem, tuples)
    references: dict


# tuples drawn per stratum, each with its own operator work
THM1_PER_STRATUM = 1
THM2_PER_STRATUM = 1


def thm1_stratum(t):
    """alpha, and at alpha > 0 whether the symbol decays in frequency.

    At the base commit, on a 2-CPU Xeon VM, a single alpha = 0.5 tuple
    sweeps in 4.0 to 5.4 s with s2 = 0 and in 5.6 to 7.7 s with s2 > 0,
    while alpha = 0 tuples take 1.2 to 2.0 s whatever s2 is; one tuple
    from each class keeps the work of a pass nearly seed independent.
    """
    return (t.alpha, t.alpha > 0.0 and t.s2 > 0.0)


def plan_rng(seed: int) -> random.Random:
    return random.Random(f"perfbench:{seed}")


def load_references(workload: str) -> dict:
    theorems = ("thm1",) if workload == "thm1-large" else ("thm2", "thm3")
    return {theorem: Reference(theorem) for theorem in theorems}


def sweep_plan(workload: str, seed: int, references: dict) -> SweepPlan:
    rng = plan_rng(seed)
    if workload == "thm1-large":
        sweeps = [
            (
                "thm1",
                stratified_sample(
                    thm1_default_tuples(),
                    stratum=thm1_stratum,
                    work_key=lambda t: (t.s1, t.s2),
                    per_stratum=THM1_PER_STRATUM,
                    rng=rng,
                ),
            )
        ]
    else:
        sweeps = [
            (
                "thm2",
                stratified_sample(
                    thm2_default_tuples(),
                    stratum=lambda t: t.alpha,
                    work_key=lambda t: t.s1,
                    per_stratum=THM2_PER_STRATUM,
                    rng=rng,
                ),
            ),
            ("thm3", thm3_default_tuples()),
        ]
    return SweepPlan(sweeps, references)


def sweep_pass(plan: SweepPlan, tracer=None):
    """Run every sweep of the plan: (seconds, CSV text) per sweep call."""
    outputs = []
    for theorem, tuples in plan.sweeps:
        if tracer is not None:
            tracer.item = theorem
        t0 = time.perf_counter()
        text = rows_to_csv(threshold_sweep(theorem, tuples=tuples))
        outputs.append((time.perf_counter() - t0, text))
    return outputs


def sweep_warmup(plan: SweepPlan):
    """One small call per sweep regime: two short family steps."""
    for theorem, tuples in plan.sweeps:
        threshold_sweep(theorem, tuples=tuples[:1], Ns=(2, 4))


def sweep_check(plan: SweepPlan, outputs) -> dict:
    attempted = failed = misfits = 0
    identical = True
    drift = 0.0
    for (theorem, tuples), (_, text) in zip(plan.sweeps, outputs):
        ref = plan.references[theorem]
        fits = tuple_fits(text)
        ok_shape = [f[0] for f in fits] == [tuple_key(t) for t in tuples]
        identical = identical and text == ref.expected_csv(theorem, tuples)
        for key, verdict, expo in fits:
            attempted += 1
            if not np.isfinite(expo) or not ok_shape:
                failed += 1
            misfits += is_misfit(verdict, expo)
            drift = max(drift, abs(expo - ref.exponent(key)))
        if not ok_shape:
            failed += len(tuples) - len(fits)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "misfits": misfits,
        "csv_identical": identical,
        "exponent_drift_max": drift,
    }


def sweep_digest(outputs) -> str:
    h = hashlib.sha256()
    for _, text in outputs:
        h.update(text.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# desk workload

NORM_SIGNALS = (
    "gauss:sigma=1",
    "gauss:sigma=2",
    "bump:radius=3,freq=0.5",
    "train:alpha=0,count=4,start=2,radius=0.25",
)
# one space per request, so a request's cost depends on its grid only
NORM_SPACES = ("p=2", "p=1,q=2", "p=2,q=inf,s=1", "p=inf,q=1,t=0.5")
# gaussians wide enough to pass the operator's band-limit check on
# every desk grid; compact bumps leak too much spectrum below n = 2048
APPLY_SIGNALS = ("gauss:sigma=1.5", "gauss:sigma=2", "gauss:sigma=3")
APPLY_SYMBOLS = ("constant", "decaying:s1=1,s2=0", "decaying:s1=0.5,s2=0.5")
APPLY_PHASES = ("bilinear", "mild_growth:alpha=0.5", "mild_growth:alpha=0")
# nonseparated_* phases fail their separation rows and exit 2 by design;
# each phase is checked at two growth-box shrink factors
CHECK_EPS = ("0.5", "0.4")
CHECK_PHASES = (
    "bilinear",
    "mild_growth:alpha=0.5",
    "mild_growth:alpha=0",
    "high_growth:t1=1,t2=1",
    "nonseparated_x:alpha=0.5",
    "nonseparated_xi:radius=1",
)
# the malformed inputs listed in ROADMAP item 5; at the base commit
# each one escapes as a Python exception instead of exiting 2
BAD_ARGV = (
    ("norm", "--input", "{bad_value_csv}", "--space", "p=2"),
    ("norm", "--input", "{bad_index_csv}", "--space", "p=2"),
    ("apply", "--signal", "gauss", "--phase", "mild_growth:beta=1"),
    ("apply", "--signal", "gauss", "--phase", "mild_growth:alpha=abc"),
    ("norm", "--signal", "gauss", "--space", "p=abc"),
    ("sweep", "--theorem", "thm1", "--ns", "4,x", "--out", "{out}"),
    ("norm", "--signal", "train:count=abc", "--space", "p=2"),
    ("norm", "--signal", "gauss", "--grid-n", "0", "--space", "p=2"),
)

TRIANGLE_CASES = (
    ("constant", "bilinear"),
    ("constant", "mild_growth:0.5"),
    ("decaying:1,0", "mild_growth:0.5"),
    ("decaying:0.5,0.5", "nonseparated_x:0.5"),
)
FAST_EXACT_WINDOWS = ("gauss:0.5", "gauss:1")
FAST_EXACT_PQS = ((2.0, 2.0), (1.0, 2.0), (2.0, float("inf")), (float("inf"), 1.0))

# the desk request list: (kind, grid n, variant) -> requests. The
# counts are fixed so that every seed puts the same work into a list;
# the seed picks parameters within each slot and the order. The mix
# places the quantiles inside blocks of like requests whose cost the
# seed does not change. On a 2-CPU Xeon VM at the base commit, 44
# requests take under 30 ms, so p50 (between the 50th and 51st of 100)
# falls in the middle of the twelve n = 512 triangles (three per
# operator case, as the cases differ in cost; the seed picks only their
# random inputs); the twelve checks (two per phase, about 1 s each) are
# the slowest requests, so p90 lies among them with ten beyond it.
DESK_MIX = {
    ("cli-bad", 0, ""): 5,
    ("cli-apply", 256, "fast"): 4,
    ("cli-apply", 512, "fast"): 4,
    ("cli-apply", 1024, "fast"): 5,
    ("cli-apply", 2048, "fast"): 6,
    ("cli-apply", 512, "direct"): 5,
    ("cli-norm", 256, ""): 5,
    ("cli-norm", 512, ""): 5,
    ("triangle", 256, ""): 5,
    ("triangle", 512, "0"): 3,
    ("triangle", 512, "1"): 3,
    ("triangle", 512, "2"): 3,
    ("triangle", 512, "3"): 3,
    ("cli-norm", 1024, ""): 11,
    ("cli-apply", 1024, "direct"): 8,
    ("fast-vs-exact", 1024, ""): 6,
    ("triangle", 1024, ""): 2,
    ("cli-apply", 2048, "direct"): 2,
    ("cli-norm", 2048, ""): 3,
    ("cli-check", 0, ""): 12,
}


@dataclass(frozen=True)
class Request:
    kind: str
    n: int
    params: tuple

    @property
    def key(self) -> str:
        return json.dumps([self.kind, self.n, list(self.params)])


def _slot_options(kind: str, n: int, variant: str):
    if kind == "cli-norm":
        return [(sig, sp) for sig in NORM_SIGNALS for sp in NORM_SPACES]
    if kind == "cli-apply":
        return [
            (sig, sym, ph, variant)
            for sig in APPLY_SIGNALS
            for sym in APPLY_SYMBOLS
            for ph in APPLY_PHASES
        ]
    if kind == "cli-check":
        return [(ph, eps) for ph in CHECK_PHASES for eps in CHECK_EPS]
    if kind == "cli-bad":
        return list(BAD_ARGV)
    if kind == "triangle":
        cases = [TRIANGLE_CASES[int(variant)]] if variant else TRIANGLE_CASES
        return [case + (str(i),) for case in cases for i in range(4)]
    return [
        (w, sig, str(i))
        for w in FAST_EXACT_WINDOWS
        for sig in ("bandlimited", "train")
        for i in range(4)
    ]


def desk_catalogue():
    """Every request the desk workload can draw, by slot of DESK_MIX."""
    return {
        slot: [Request(slot[0], slot[1], params) for params in _slot_options(*slot)]
        for slot in DESK_MIX
    }


def desk_requests(seed: int):
    """The request list of a seed: fixed mix, seeded picks and order."""
    rng = plan_rng(seed)
    out = []
    for slot, options in desk_catalogue().items():
        out.extend(rng.sample(options, DESK_MIX[slot]))
    rng.shuffle(out)
    return out


@dataclass
class DeskPlan:
    requests: list
    scratch: str
    exit_codes: dict
    paths: dict
    prepared: dict = field(default_factory=dict)


def _write_bad_inputs(scratch: str) -> dict:
    good = sampled_to_csv(SampledFunction(Grid(1, 8, 0.5), np.ones(8, dtype=complex)))
    lines = good.splitlines()
    paths = {
        "bad_value_csv": os.path.join(scratch, "bad_value.csv"),
        "bad_index_csv": os.path.join(scratch, "bad_index.csv"),
    }
    with open(paths["bad_value_csv"], "w") as fh:
        fh.write("\n".join(lines[:2] + ["0,abc,0"] + lines[3:]) + "\n")
    with open(paths["bad_index_csv"], "w") as fh:
        fh.write("\n".join(lines[:2] + ["99,1,0"] + lines[3:]) + "\n")
    return paths


def load_exit_codes() -> dict:
    with open(os.path.join(REF_DIR, "desk_exit_codes.json")) as fh:
        return json.load(fh)


def desk_plan(seed: int, scratch: str, exit_codes: dict) -> DeskPlan:
    """A seed's requests, with the inputs of in-process requests built."""
    plan = DeskPlan(desk_requests(seed), scratch, exit_codes, _write_bad_inputs(scratch))
    plan.prepared = desk_prepare(plan.requests)
    return plan


def cli_argv(req: Request, plan_paths: dict, out: str):
    if req.kind == "cli-norm":
        sig, space = req.params
        argv = ["norm", "--signal", sig, "--grid-n", str(req.n), "--space", space]
    elif req.kind == "cli-apply":
        sig, sym, ph, mode = req.params
        argv = ["apply", "--signal", sig, "--grid-n", str(req.n), "--symbol", sym, "--phase", ph]
        if mode == "direct":
            argv.append("--direct")
    elif req.kind == "cli-check":
        phase, eps = req.params
        argv = ["check", "--phase", phase, "--eps", eps]
    else:
        return [a.format(out=out, **plan_paths) for a in req.params]
    return argv + ["--out", out]


def run_cli(argv):
    """Exit status of ``fiolab.cli.main(argv)``, or the escaped exception."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv), None
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2, None
        except Exception as exc:  # escaped: the failure this kind measures
            return None, type(exc).__name__


def _bandlimited(n: int, seed: int) -> SampledFunction:
    grid = Grid(1, n, 32.0 / n)
    rng = np.random.default_rng(seed)
    dual = grid.dual()
    keep = np.abs(dual.axis()) <= 0.25 / (2.0 * grid.spacing)
    coef = np.zeros(n, dtype=complex)
    m = int(keep.sum())
    coef[keep] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = inverse_fourier_transform(SampledFunction(dual, coef))
    return SampledFunction(grid, f.samples / f.norm2())


def _triangle_parts(req: Request):
    sym_id, ph_id, idx = req.params
    kind, _, args = sym_id.partition(":")
    if kind == "constant":
        symbol = constant_symbol()
    else:
        symbol = decaying_symbol(*map(float, args.split(",")))
    kind, _, arg = ph_id.partition(":")
    phase = {
        "bilinear": lambda: bilinear(),
        "mild_growth": lambda: mild_growth(float(arg)),
        "nonseparated_x": lambda: nonseparated_x(float(arg)),
    }[kind]()
    seed = 1000 * req.n + 10 * TRIANGLE_CASES.index((sym_id, ph_id)) + int(idx)
    return _bandlimited(req.n, seed), _bandlimited(req.n, seed + 7), symbol, phase


def _fast_exact_input(req: Request) -> SampledFunction:
    window, sig, idx = req.params
    if sig == "bandlimited":
        return _bandlimited(req.n, req.n + int(idx))
    grid = Grid(1, req.n, 32.0 / req.n)
    x = grid.axis()
    shift = 0.5 * int(idx)
    samples = sum(
        np.exp(-np.pi * (x - c) ** 2 + 2j * np.pi * c * x / 8.0)
        for c in (-8.0 + shift, -2.0, 3.0 - shift, 9.0)
    )
    return SampledFunction(grid, samples)


def desk_prepare(requests):
    """Inputs of the in-process requests; built before a pass, untimed."""
    prepared = {}
    for req in requests:
        if req.kind == "triangle":
            prepared[req] = _triangle_parts(req)
        elif req.kind == "fast-vs-exact":
            f = _fast_exact_input(req)
            specs = [SpaceSpec(p, q, Weight(), req.params[0]) for p, q in FAST_EXACT_PQS]
            prepared[req] = (f, specs)
    return prepared


def execute(req: Request, plan: DeskPlan, out: str):
    """Run one request; returns (seconds, raw result). Only the call is timed."""
    if req.kind.startswith("cli-"):
        argv = cli_argv(req, plan.paths, out)
        t0 = time.perf_counter()
        result = run_cli(argv)
        return time.perf_counter() - t0, result
    if req.kind == "triangle":
        f, probe, symbol, phase = plan.prepared[req]
        t0 = time.perf_counter()
        fast = apply_fio(f, symbol, phase)
        direct = apply_fio(f, symbol, phase, force_direct=True)
        via_kernel = apply_kernel(kernel(symbol, phase, f.grid), f)
        paired = weak_pairing(f, probe, symbol, phase)
        elapsed = time.perf_counter() - t0
        scale = direct.norm2()
        gaps = (
            float(np.linalg.norm(fast.samples - direct.samples)) / scale,
            float(np.linalg.norm(via_kernel.samples - direct.samples)) / scale,
            abs(paired - inner(fast, probe)) / (scale * probe.norm2()),
        )
        return elapsed, gaps
    f, specs = plan.prepared[req]
    t0 = time.perf_counter()
    fast = fast_modulation_norms(f, specs)
    exact = [modulation_norm(f, s) for s in specs]
    elapsed = time.perf_counter() - t0
    return elapsed, tuple(abs(a - b) / b for a, b in zip(fast, exact))


def _file_digest(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def grade(req: Request, plan: DeskPlan, result, out: str):
    """(passed, counts_against_correct, output digest) of one request."""
    if req.kind == "cli-bad":
        code, escaped = result
        return escaped is None and code in (2, 3), False, f"{code}:{escaped}"
    if req.kind.startswith("cli-"):
        code, escaped = result
        digest = f"{code}:{escaped}:{_file_digest(out)}"
        return escaped is None and code == plan.exit_codes[req.key], True, digest
    tol = TRIANGLE_TOL if req.kind == "triangle" else FAST_EXACT_TOL
    return all(g < tol for g in result), True, repr(result)


def desk_pass(plan: DeskPlan, tracer=None):
    """One pass of the closed loop: one client, no think time."""
    results = []
    for i, req in enumerate(plan.requests):
        if tracer is not None:
            tracer.item = i
        out = os.path.join(plan.scratch, f"r{i:03d}.out")
        elapsed, raw = execute(req, plan, out)
        results.append((req, elapsed, raw, out))
    return results


def desk_check(plan: DeskPlan, results) -> dict:
    failed = 0
    correct = True
    digests = []
    worst = {"triangle": 0.0, "fast-vs-exact": 0.0}
    for req, _, raw, out in results:
        passed, gated, digest = grade(req, plan, raw, out)
        if req.kind in worst:
            worst[req.kind] = max(worst[req.kind], max(raw))
        failed += not passed
        correct = correct and (passed or not gated)
        digests.append(digest)
        if os.path.exists(out):
            os.remove(out)
    return {
        "attempted": len(results),
        "failed": failed,
        "correct": correct,
        "digest": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
        "triangle_gap_max": worst["triangle"],
        "fast_exact_gap_max": worst["fast-vs-exact"],
    }


def desk_warmup(plan: DeskPlan):
    """One small CLI request."""
    req = Request("cli-norm", 256, (NORM_SIGNALS[0], NORM_SPACES[0]))
    out = os.path.join(plan.scratch, "warmup.out")
    run_cli(cli_argv(req, plan.paths, out))
    if os.path.exists(out):
        os.remove(out)
