"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They need the package source under ``src`` and take about ten seconds.
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402

env.pin_threads()
env.use_source()

import run  # noqa: E402
import workloads as W  # noqa: E402
from fiolab.experiments import rows_to_csv, threshold_sweep  # noqa: E402


def _full_panel_misfits(theorem):
    with open(os.path.join(W.REF_DIR, f"{theorem}_full.csv")) as fh:
        fits = W.tuple_fits(fh.read())
    return sum(W.is_misfit(v, e) for _, v, e in fits), len(fits)


def test_misfit_rule_on_full_panels():
    assert _full_panel_misfits("thm1") == (0, 41)
    assert _full_panel_misfits("thm2") == (0, 49)
    assert _full_panel_misfits("thm3") == (2, 44)


def test_same_seed_same_inputs():
    for workload in ("thm1-large", "thm23-mid"):
        refs = W.load_references(workload)
        first = W.sweep_plan(workload, 5, refs).sweeps
        assert first == W.sweep_plan(workload, 5, refs).sweeps
        assert first != W.sweep_plan(workload, 6, refs).sweeps
    assert W.desk_requests(5) == W.desk_requests(5)
    assert W.desk_requests(5) != W.desk_requests(6)


def test_subsamples_keep_every_alpha_stratum():
    refs1, refs23 = W.load_references("thm1-large"), W.load_references("thm23-mid")
    for seed in range(20):
        thm1 = W.sweep_plan("thm1-large", seed, refs1).sweeps[0][1]
        assert sorted(W.thm1_stratum(t) for t in thm1) == [
            (0.0, False), (0.5, False), (0.5, True)
        ]
        thm2, thm3 = W.sweep_plan("thm23-mid", seed, refs23).sweeps
        assert sorted(t.alpha for t in thm2[1]) == [0.0, 0.5, 1.0]
        assert len(thm3[1]) == 44


def test_desk_list_has_the_fixed_mix():
    for seed in range(5):
        reqs = W.desk_requests(seed)
        assert len(reqs) == sum(W.DESK_MIX.values()) == 100
        for kind in ("cli-check", "cli-bad"):
            want = sum(c for slot, c in W.DESK_MIX.items() if slot[0] == kind)
            assert sum(r.kind == kind for r in reqs) == want


def test_subsample_rows_do_not_depend_on_other_tuples():
    # the expected CSV of a subsample is rebuilt from full-panel rows
    ref = W.Reference("thm3")
    tuples = W.thm3_default_tuples()[3:40:6]
    got = rows_to_csv(threshold_sweep("thm3", tuples=tuples))
    assert got == ref.expected_csv("thm3", tuples)


def test_raising_bad_request_counts_as_failed(monkeypatch):
    def escapes(argv):
        raise ZeroDivisionError("escaped")

    monkeypatch.setattr(W.cli, "main", escapes)
    with tempfile.TemporaryDirectory() as scratch:
        plan = W.DeskPlan([], scratch, W.load_exit_codes(), W._write_bad_inputs(scratch))
        req = W.Request("cli-bad", 0, W.BAD_ARGV[-1])
        out = os.path.join(scratch, "out")
        elapsed, raw = W.execute(req, plan, out)
        assert raw == (None, "ZeroDivisionError")
        check = W.desk_check(plan, [(req, elapsed, raw, out)])
    assert check["attempted"] == 1 and check["failed"] == 1
    assert check["correct"]


def test_replays_keep_each_request_fastest_and_must_agree():
    def replay(wall, latencies, digest):
        check = {"attempted": 2, "failed": 0, "correct": True, "digest": digest}
        return {"wall_s": wall, "latencies_s": latencies, "check": check,
                "peak_rss_mb": 100.0, "environment": {}}

    res = run.combine([replay(3.0, [1.0, 2.0], "a"), replay(2.5, [1.5, 1.0], "a")], [0.2, 0.3])
    assert res["correct"]
    assert res["metrics"]["wall_s"][0] == 2.5
    assert res["metrics"]["latency_p50_ms"][0] == 1000.0
    assert res["attempted"] == 4
    assert not run.combine([replay(1.0, [1.0], "a"), replay(1.0, [1.0], "b")], [0.2])["correct"]
