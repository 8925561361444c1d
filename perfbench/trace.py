"""Spans around the package's public functions, installed from outside.

``Tracer.install()`` replaces every public function of the traced
modules with a recording wrapper, in every module that holds a
reference to it (``fiolab.experiments.apply_fio`` as well as
``fiolab.fio.apply_fio``, and the benchmark's own imports), and
``remove()`` puts the originals back. Nothing under ``src/`` changes.

A span records its name, start, end, parent span, item id and the grid
size n of its first grid argument. Spans stay in memory; ``summary()``
turns them into per-function counts and times, and ``write()`` dumps
them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("grid", "tf", "spaces", "phase", "fio", "extremal", "experiments", "cli")


def _grid_size(args):
    for a in args:
        grid = getattr(a, "grid", a)
        n = getattr(grid, "n", None)
        if isinstance(n, int) and hasattr(grid, "spacing"):
            return n
    return None


class Tracer:
    def __init__(self, extra_modules=()):
        self.spans = []  # [name, start, end, parent, item, n, specs]
        self.stack = []
        self.item = None
        self._patched = []  # (module, attr, original)
        self._extra = list(extra_modules)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        tracer = self
        count_specs = name == "experiments.fast_modulation_norms"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            specs = None
            if count_specs and len(args) > 1 and hasattr(args[1], "__len__"):
                specs = len(args[1])
            rec = [name, 0.0, 0.0, parent, tracer.item, _grid_size(args), specs]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fiolab.{layer}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        holders = [m for k, m in sys.modules.items() if k == "fiolab" or k.startswith("fiolab.")]
        holders += self._extra
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def remove(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, s, self_s, points; plus derived counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        funcs = {}
        for i, (name, t0, t1, parent, _, n, specs) in enumerate(spans):
            f = funcs.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0, "specs": 0, "by_n": {}}
            )
            dur = t1 - t0
            f["calls"] += 1
            f["s"] += dur
            f["self_s"] += dur - child_time[i]
            if n is not None:
                f["points"] += n
                c = f["by_n"].setdefault(n, [0, 0.0])
                c[0] += 1
                c[1] += dur
            if specs is not None:
                f["specs"] += specs
        return funcs

    def top_level_seconds(self) -> float:
        return sum(r[2] - r[1] for r in self.spans if r[3] < 0)

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ``ancestor`` span above them."""
        spans = self.spans
        total = 0
        for rec in spans:
            if rec[0] != name:
                continue
            p = rec[3]
            while p >= 0:
                if spans[p][0] == ancestor:
                    total += 1
                    break
                p = spans[p][3]
        return total

    def count_with_parent(self, name: str, parent: str) -> int:
        spans = self.spans
        return sum(1 for r in spans if r[0] == name and r[3] >= 0 and spans[r[3]][0] == parent)

    def write(self, path: str):
        keys = ("name", "start", "end", "parent", "item", "n")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec[:6]))) + "\n")
