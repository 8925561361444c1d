"""One pass of one workload in one fresh process; started by ``run.py``.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1
        --scratch DIR [--setup-only]

Set-up (imports, the seeded plan, one warm-up call) ends with a line
``READY`` on stdout, which the parent times. With ``--trace 0`` the
worker then makes one timed pass over the plan; with ``--trace 1`` it
makes a warm-up pass and then one pass traced and one untraced. It
prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402

env.pin_threads()
env.use_source()

import workloads as W  # noqa: E402
from trace import LAYERS, Tracer  # noqa: E402

N_2P21 = 1 << 21


def _cpu_seconds() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


class Sweep:
    """A sweep workload: its plan, warm-up, pass and check."""

    def __init__(self, workload: str, seed: int, scratch: str):
        self.plan = W.sweep_plan(workload, seed, W.load_references(workload))

    def warmup(self):
        W.sweep_warmup(self.plan)

    def run_pass(self, tracer=None):
        """(pass seconds, seconds per sweep call, outputs)."""
        t0 = time.perf_counter()
        outputs = W.sweep_pass(self.plan, tracer)
        wall = time.perf_counter() - t0
        return wall, [o[0] for o in outputs], outputs

    def check(self, outputs):
        check = W.sweep_check(self.plan, outputs)
        check["digest"] = W.sweep_digest(outputs)
        return check


class Desk:
    """The desk loop: one pass is the seed's request list."""

    def __init__(self, workload: str, seed: int, scratch: str):
        self.plan = W.desk_plan(seed, scratch, W.load_exit_codes())

    def warmup(self):
        W.desk_warmup(self.plan)

    def run_pass(self, tracer=None):
        """(pass seconds, seconds per request, outputs)."""
        t0 = time.perf_counter()
        results = W.desk_pass(self.plan, tracer)
        return time.perf_counter() - t0, [r[1] for r in results], results

    def check(self, outputs):
        return W.desk_check(self.plan, outputs)


def build(workload: str, seed: int, scratch: str):
    cls = Desk if workload == "desk-small" else Sweep
    return cls(workload, seed, scratch)


def timed_pass(bench) -> dict:
    """One timed pass after set-up: its time, request latencies and check."""
    wall, latencies, outputs = bench.run_pass()
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "check": bench.check(outputs),
        "peak_rss_mb": peak_rss_mb(),
    }


def _func_metrics(funcs, name, fields):
    f = funcs.get(name, {})
    units = {"calls": "count", "s": "s", "self_s": "s", "points": "count", "specs": "count"}
    return {f"{name}.{k}": (float(f.get(k, 0)), units[k]) for k in fields}


def _ms_per_call_at(funcs, name, n):
    calls, secs = funcs.get(name, {}).get("by_n", {}).get(n, (0, 0.0))
    return (1e3 * secs / calls) if calls else 0.0


# per-function metrics reported from the traced pass: name -> fields
TRACED_FUNCTIONS = {
    "grid.fourier_transform": ("calls", "s", "self_s", "points"),
    "grid.inverse_fourier_transform": ("calls", "s", "self_s", "points"),
    "fio.apply_fio": ("calls", "s", "self_s", "points"),
    "fio.ensure_bandlimited": ("calls", "s", "self_s", "points"),
    "fio.bandlimit_leakage": ("calls", "s", "self_s"),
    "fio.kernel": ("calls", "s", "self_s", "points"),
    "fio.apply_kernel": ("calls", "s", "self_s"),
    "fio.weak_pairing": ("calls", "s", "self_s", "points"),
    "experiments.fast_modulation_norms": ("calls", "s", "self_s", "points", "specs"),
    "experiments.threshold_sweep": ("calls", "s"),
    "experiments.rows_to_csv": ("s",),
    "spaces.stft_norms": ("calls", "s", "self_s", "points"),
    "spaces.modulation_norm": ("calls", "s", "self_s", "points"),
    "tf.stft_rows": ("calls", "s", "self_s", "points"),
    "tf.stft": ("calls", "s", "self_s", "points"),
    "tf.make_window": ("calls", "s"),
    "cli.main": ("calls", "s", "self_s"),
    "phase.check_phase": ("calls", "s"),
    "phase.verify_growth": ("s",),
    "phase.second_derivative_bounds": ("calls", "s", "self_s"),
    "phase.growth_ratio_x": ("s",),
    "phase.separation_margin": ("s",),
    "extremal.build_F": ("s",),
    "extremal.build_G": ("s",),
    "extremal.build_modulated_train": ("s",),
}

# functions whose mean time per call at n = 2^21 (the largest thm1 grid)
# is set against the ROADMAP baseline figures
BASELINE_AT_2P21 = (
    "grid.fourier_transform",
    "fio.ensure_bandlimited",
    "fio.apply_fio",
    "experiments.fast_modulation_norms",
)


def traced_runs(bench, scratch: str) -> dict:
    """A warm-up pass, then the plan traced and untraced.

    The traced outputs must equal the untraced ones byte for byte; the
    wrappers are removed before the untraced pass.
    """
    check_warm = bench.check(bench.run_pass()[2])
    tracer = Tracer(extra_modules=[W])
    with tracer:
        wall_traced, _, out_traced = bench.run_pass(tracer)
    check_traced = bench.check(out_traced)

    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    wall_plain, _, out_plain = bench.run_pass()
    cpu_s, wall_cpu = _cpu_seconds() - cpu0, time.perf_counter() - t0
    check_plain = bench.check(out_plain)
    same = check_plain["digest"] == check_traced["digest"]

    funcs = tracer.summary()
    m = {}
    for name, fields in TRACED_FUNCTIONS.items():
        m.update(_func_metrics(funcs, name, fields))
    apply_calls = funcs.get("fio.apply_fio", {}).get("calls", 0)
    ffts = tracer.count_under("grid.fourier_transform", "fio.apply_fio")
    m["fio.fft_per_apply"] = (ffts / apply_calls if apply_calls else 0.0, "ratio")
    fallbacks = tracer.count_with_parent(
        "spaces.modulation_norm", "experiments.fast_modulation_norms"
    )
    m["spaces.modulation_norm.fallback_calls"] = (float(fallbacks), "count")
    for name in BASELINE_AT_2P21:
        m[f"{name}.ms_per_call_2p21"] = (_ms_per_call_at(funcs, name, N_2P21), "ms")
    for layer in LAYERS:
        own = [f["self_s"] for k, f in funcs.items() if k.split(".")[0] == layer]
        m[f"layer.{layer}.self_s"] = (sum(own), "s")
    c = check_traced
    attempted = c["attempted"]
    m["attributed_frac"] = (tracer.top_level_seconds() / wall_traced, "ratio")
    m["trace_overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    m["cpu_s"] = (cpu_s, "s")
    m["cpu_util"] = (cpu_s / wall_cpu, "ratio")
    m["span_count"] = (float(len(tracer.spans)), "count")
    m["failed_frac"] = (c["failed"] / attempted, "ratio")
    m["misfit_frac"] = (c.get("misfits", 0) / attempted, "ratio")
    # a run without sweeps has no CSV to differ: identical, zero drift
    m["experiments.csv_identical"] = (float(c.get("csv_identical", True)), "bool")
    m["experiments.exponent_drift_max"] = (float(c.get("exponent_drift_max", 0.0)), "slope")
    m["fio.triangle_gap_max"] = (float(c.get("triangle_gap_max", 0.0)), "ratio")
    m["experiments.fast_exact_gap_max"] = (float(c.get("fast_exact_gap_max", 0.0)), "ratio")
    spans_path = os.path.join(scratch, "spans.jsonl")
    tracer.write(spans_path)
    return {
        "correct": all(x["correct"] for x in (check_warm, check_plain, c)) and same,
        "attempted": attempted,
        "failed": c["failed"],
        "metrics": m,
        "info": {
            "traced_matches_untraced": same,
            "wall_untraced_s": wall_plain,
            "wall_traced_s": wall_traced,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    bench = build(args.workload, args.seed, args.scratch)
    bench.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_runs(bench, args.scratch)
    else:
        result = timed_pass(bench)
    result["environment"] = env.environment_record(args.workload, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
