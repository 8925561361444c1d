"""Regenerate the references in perfbench/reference.

Run from the repository root:

    python3 perfbench/make_reference.py [thm1 thm2 thm3 desk]

``thmN`` writes the CSV of one default-panel ``threshold_sweep``. The
benchmark rebuilds the expected CSV of any tuple subsample from these
rows, which holds because a tuple's rows do not depend on which other
tuples share the sweep (``test_perfbench.py`` checks this). ``desk``
records the exit status of every CLI request the desk workload can
draw; an escaped exception is recorded as ``raise:<type>``.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402

env.pin_threads()
env.use_source()

import json  # noqa: E402
import tempfile  # noqa: E402

import workloads as W  # noqa: E402
from fiolab.experiments import rows_to_csv, threshold_sweep  # noqa: E402

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def desk_exit_codes() -> dict:
    codes = {}
    with tempfile.TemporaryDirectory() as scratch:
        paths = W._write_bad_inputs(scratch)
        out = os.path.join(scratch, "out")
        for slot, requests in W.desk_catalogue().items():
            if not slot[0].startswith("cli-"):
                continue
            for req in requests:
                code, escaped = W.run_cli(W.cli_argv(req, paths, out))
                codes[req.key] = code if escaped is None else f"raise:{escaped}"
    return codes


def main(argv):
    for target in argv or ["thm1", "thm2", "thm3", "desk"]:
        t0 = time.perf_counter()
        if target == "desk":
            path = os.path.join(REF_DIR, "desk_exit_codes.json")
            with open(path, "w") as fh:
                json.dump(desk_exit_codes(), fh, indent=1, sort_keys=True)
                fh.write("\n")
        else:
            path = os.path.join(REF_DIR, f"{target}_full.csv")
            with open(path, "w") as fh:
                fh.write(rows_to_csv(threshold_sweep(target)))
        print(f"{target}: {time.perf_counter() - t0:.1f} s -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
