"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads thm1-large,...]
        [--traced-seed 1] [--out perfbench/baseline.json] [--compare OLD.json]

For each workload it runs ``run.py`` untraced once per seed and reports,
per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median as ``statistics.quantiles(values, n=4)`` gives them,
next to the metric's bound from BENCHMARK.json. With ``--traced-seed``
it adds one traced run per workload, and for thm1-large it sets the
per-call times at n = 2^21 next to the ROADMAP baseline figures. With
``--compare`` it sets each median against the same metric in an earlier
report and flags a metric whose median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# ROADMAP "Baseline (measured at this re-anchor)", per call at n = 2^21, ms
ROADMAP_MS_2P21 = {
    "grid.fourier_transform": (187.0, 187.0),
    "fio.ensure_bandlimited": (295.0, 295.0),
    "fio.apply_fio": (1014.0, 1014.0),
    "experiments.fast_modulation_norms": (487.0, 1386.0),
}


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def roadmap_comparison(metrics: dict) -> dict:
    rows = {}
    for name, (lo, hi) in ROADMAP_MS_2P21.items():
        got = metrics[f"{name}.ms_per_call_2p21"]["value"]
        off = 0.0 if lo <= got <= hi else min(abs(got - lo) / lo, abs(got - hi) / hi)
        rows[name] = {
            "measured_ms": got,
            "roadmap_ms": [lo, hi] if lo != hi else lo,
            "differs_by_more_than_10pct": off > 0.10,
        }
    return rows


def shift(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    worse = new - old if better == "lower" else old - new
    return worse / old


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="thm1-large,thm23-mid,desk-small")
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    ap.add_argument("--compare", help="an earlier report to set the medians against")
    args = ap.parse_args(argv)
    old = None
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)["workloads"]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, seconds, 0))
            res = runs[-1]["result"]
            print(workload, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)
        entry = {
            "seeds": _seeds(args.seeds),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "environment": runs[0]["detail"]["environment"],
            "output_sha256": {
                seed: r["detail"]["info"]["output_sha256"]
                for seed, r in zip(_seeds(args.seeds), runs)
            },
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {
                "unit": runs[0]["result"]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bound,
                "values": values,
            }
            if old is not None and workload in old:
                before = old[workload]["end_to_end"][name]["median"]
                entry["end_to_end"][name]["worse_than_compared"] = shift(
                    statistics.median(values), before, better[name]
                )
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, seconds, 1)
            entry["traced"] = {
                "seed": args.traced_seed,
                "correct": traced["result"]["correct"],
                "detail": traced["detail"]["info"],
                "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            }
            if workload == "thm1-large":
                entry["roadmap_2p21"] = roadmap_comparison(traced["result"]["metrics"])
        report["workloads"][workload] = entry
        for name, e in entry["end_to_end"].items():
            flag = "" if e["spread"] < e["bound"] / 3 else "  <-- spread above bound/3"
            if "worse_than_compared" in e:
                worse = e["worse_than_compared"]
                flag += f", worse by {worse:+.4f}" + ("  <-- over bound" if worse > e["bound"] else "")
            print(f"  {name:<16} median {e['median']:.6g} {e['unit']}, "
                  f"spread {e['spread']:.4f} (bound {e['bound']}){flag}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
