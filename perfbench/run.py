"""fiolab benchmark: one workload per call, timed end to end or traced.

    python3 perfbench/run.py --workload thm1-large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 40

Run from the repository root; the package is imported from ``src``.

A timed call (``--trace 0``) replays the seed's plan in fresh worker
processes, one pass each, until the next replay would overrun
``--seconds`` (at least ``MIN_REPLAYS``). On a host whose CPUs are
shared, time taken by other tenants only ever adds to a measurement,
so each request keeps the fastest of its replays and ``wall_s`` is the
fastest pass. As every replay is a new process, no
cache inside the program carries over from one replay to the next.
Between replays, set-up-only processes add samples to ``setup_s``, the
median time from process start to the end of set-up.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of one traced pass
with ``--trace 1``. ``--all`` runs every workload untraced and prints
each end-to-end metric by name and unit, one block per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("thm1-large", "thm23-mid", "desk-small")
MIN_REPLAYS = 2
SETUP_SAMPLES = 7
TIMEOUT_S = 170.0
SCRATCH_ROOT = ".perfbench_out"


class WorkerError(RuntimeError):
    pass


def _spawn(args, scratch, deadline):
    """Start a worker; return (set-up seconds, its last stdout line)."""
    cmd = [sys.executable, WORKER, "--scratch", scratch] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        env=env.pin_threads(dict(os.environ)),
        cwd=env.ROOT,
    )
    try:
        # a worker that hangs in set-up must not hold the run past its deadline
        if not select.select([proc.stdout], [], [], max(1.0, deadline - t0))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline - t0)
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker timed out: {' '.join(args)}")
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker failed with exit {proc.returncode}: {' '.join(args)}")
    lines = rest.splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    vals = sorted(values)
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def combine(replays, setups) -> dict:
    """End-to-end metrics of the replays of one plan.

    Each request keeps its fastest replay; ``wall_s`` is the fastest
    pass. Every replay must pass its checks and produce the same
    outputs as the first.
    """
    checks = [r["check"] for r in replays]
    best = [min(lat) for lat in zip(*(r["latencies_s"] for r in replays))]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    misfits = sum(c.get("misfits", 0) for c in checks)
    same = all(c["digest"] == checks[0]["digest"] for c in checks)
    metrics = {
        "wall_s": (min(r["wall_s"] for r in replays), "s"),
        "latency_p50_ms": (1e3 * percentile(best, 50), "ms"),
        "latency_p90_ms": (1e3 * percentile(best, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in replays), "MB"),
        "passed_frac": (1.0 - failed / attempted, "ratio"),
        "fit_frac": (1.0 - misfits / attempted, "ratio"),
    }
    return {
        "correct": same and all(c["correct"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {
            "replays": len(replays),
            "pass_walls_s": [r["wall_s"] for r in replays],
            "requests": len(best),
            "setup_samples_s": setups,
            "replays_identical": same,
            "output_sha256": checks[0]["digest"],
            "misfits": misfits,
            "csv_identical": all(c.get("csv_identical", True) for c in checks),
            **{
                key: max(c.get(key, 0.0) for c in checks)
                for key in ("exponent_drift_max", "triangle_gap_max", "fast_exact_gap_max")
            },
        },
        "environment": replays[0]["environment"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    deadline = start + TIMEOUT_S
    scratch = os.path.join(env.ROOT, SCRATCH_ROOT, f"{workload}-{seed}-{trace}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]
    try:
        if trace:
            _, result = _spawn(base + ["--trace", "1"], scratch, deadline)
            spans = os.path.join(scratch, "spans.jsonl")
            keep = os.path.join(env.ROOT, SCRATCH_ROOT, f"spans-{workload}-{seed}.jsonl")
            shutil.move(spans, keep)
            return result
        setups, replays, durations = [], [], []
        while True:
            setups.append(_spawn(base + ["--setup-only"], scratch, deadline)[0])
            t0 = time.perf_counter()
            setup, replay = _spawn(base + ["--trace", "0"], scratch, deadline)
            durations.append(time.perf_counter() - t0)
            setups.append(setup)
            replays.append(replay)
            elapsed = time.perf_counter() - start
            if len(replays) >= MIN_REPLAYS and elapsed + statistics.median(durations) > seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(base + ["--setup-only"], scratch, deadline)[0])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return combine(replays, setups)


def _public(result: dict) -> dict:
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, untraced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")
    if not env.source_present():
        print(f"error: no package source at {env.SRC}", file=sys.stderr)
        return 2

    try:
        if args.all:
            for workload in WORKLOADS:
                res = run_workload(workload, args.seed, args.seconds, 0)
                print(f"[{workload}] seed={args.seed} correct={res['correct']}")
                print(f"  environment {json.dumps(res['environment'])}")
                for name, (value, unit) in res["metrics"].items():
                    print(f"  {name:<16} {value:>14.6g} {unit}")
            return 0
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"info": res["info"], "environment": res["environment"]}))
    print(json.dumps(_public(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
