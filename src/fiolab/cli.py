"""Command line front end.

Subcommands mirror the library surface: ``stft`` and ``norm`` analyze
a sampled function, ``apply`` runs an operator over it, ``check``
verifies a phase's declared growth and separation, ``sweep`` runs a
threshold experiment, and ``report`` renders sweep rows as a plot.

Structured options use a small key=value syntax: a kind name followed
by comma-separated parameters, as in ``--phase mild_growth:alpha=0.5``
or ``--symbol decaying:s1=1,s2=0``. Exit status is 0 on success, 2 for
invalid inputs or arguments, and 3 when a computation would exceed its
resource budget.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .errors import FiolabError, ResourceError, ValidationError
from .experiments import (
    emit_report,
    render_report_svg,
    rows_from_csv,
    threshold_sweep,
)
from .extremal import Bump, CoefficientSeq, build_F, build_modulated_train
from .fio import apply_fio, make_symbol
from .grid import Grid, SampledFunction, sampled_from_csv, sampled_to_csv
from .phase import check_phase, make_phase, mollifier
from .spaces import SpaceSpec, Weight, stft_norms
from .tf import make_window, stft, tf_to_csv

__all__ = ["main"]


def _parse_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse_kv_spec(text: str):
    """Split ``kind:k1=v1,k2=v2`` into a kind and a parameter dict."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if not kind:
        raise ValidationError(f"empty kind in spec {text!r}")
    params = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq or not key.strip():
                raise ValidationError(
                    f"expected key=value, got {item!r} in spec {text!r}"
                )
            params[key.strip()] = _parse_value(val.strip())
    return kind, params


def _number(text, what: str, cast=float):
    """``cast(text)``, or a ValidationError naming ``what``."""
    try:
        return cast(text)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be a number, got {text!r}") from None


def _integer(text, what: str) -> int:
    """``text`` as an integer, or a ValidationError naming ``what``; a
    fractional value is refused rather than truncated."""
    value = _number(text, what)
    if not value.is_integer():
        raise ValidationError(f"{what} must be an integer, got {text!r}")
    return int(value)


def _parse_space(text: str, window: str) -> SpaceSpec:
    params = {}
    for item in text.split(","):
        key, eq, val = item.partition("=")
        if not eq or key.strip() not in ("p", "q", "s", "t"):
            raise ValidationError(f"space spec takes p=..,q=..,s=..,t=.., got {item!r}")
        params[key.strip()] = _number(val.strip(), f"space parameter {key.strip()}")
    if "p" not in params:
        raise ValidationError("space spec needs at least p=...")
    p = params["p"]
    q = params.get("q", p)
    weight = Weight(params.get("s", 0.0), params.get("t", 0.0))
    return SpaceSpec(p, q, weight, window)


def _space_label(spec: SpaceSpec) -> str:
    w = spec.weight
    return f"M[p={spec.p:g} q={spec.q:g} s={w.s:g} t={w.t:g}]"


def _build_signal(spec_text: str, grid: Grid) -> SampledFunction:
    kind, params = parse_kv_spec(spec_text)

    def pop(key, default, read=_number):
        return read(params.pop(key, default), f"{kind} parameter {key}")

    if kind == "gauss":
        sigma = pop("sigma", 1.0)
        _reject_extras(kind, params)
        return make_window(f"gauss:{sigma:g}", grid)
    if kind == "bump":
        radius = pop("radius", 1.0)
        center = pop("center", 0.0)
        if not np.isfinite(center):
            raise ValidationError(f"bump parameter center must be finite, got {center}")
        freq = pop("freq", 0.0)
        _reject_extras(kind, params)
        x = grid.axis()
        samples = mollifier(x - center, radius) * np.exp(2j * np.pi * freq * x)
        return SampledFunction(grid, samples)
    if kind == "train":
        alpha = pop("alpha", 0.0)
        start = pop("start", 4, _integer)
        count = _train_length(pop("count", 8, _integer), grid)
        radius = pop("radius", 0.2)
        _reject_extras(kind, params)
        if abs(start) + count > 2**53:
            raise ValidationError(
                f"train indices must stay within 2**53 in magnitude, got start={start}"
            )
        a = CoefficientSeq.ones(start, count)
        h = Bump(radius, lambda u: mollifier(u, radius))
        return build_F(a, alpha, grid, h)
    if kind == "mtrain":
        count = _train_length(pop("count", 8, _integer), grid)
        radius = pop("radius", 0.3)
        _reject_extras(kind, params)
        a = CoefficientSeq.ones(0, count)
        phi = Bump(radius, lambda u: mollifier(u, radius))
        return build_modulated_train(a, phi, grid)
    raise ValidationError(
        f"unknown signal kind {kind!r}; choose from bump, gauss, "
        f"mtrain, train"
    )


def _train_length(count: int, grid: Grid) -> int:
    """``count`` bumps, at most one per grid point: a longer train cannot
    be resolved, and its index list alone could exhaust memory."""
    if not 1 <= count <= grid.n:
        raise ValidationError(
            f"train count must lie in [1, {grid.n}] on this grid, got {count}"
        )
    return count


def _reject_extras(kind: str, params: dict):
    if params:
        raise ValidationError(f"unknown parameters for {kind}: {sorted(params)}")


def _load_input(args) -> SampledFunction:
    if getattr(args, "input", None):
        with open(args.input) as fh:
            return sampled_from_csv(fh.read())
    if getattr(args, "signal", None):
        if args.grid_n < 2:
            raise ValidationError(
                f"--grid-n must be a power of two >= 2, got {args.grid_n}"
            )
        grid = Grid(1, args.grid_n, 2.0 * args.grid_L / args.grid_n)
        return _build_signal(args.signal, grid)
    raise ValidationError("provide --input FILE or --signal SPEC")


def _write_text(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_stft(args) -> int:
    f = _load_input(args)
    g = make_window(args.window, f.grid)
    _write_text(tf_to_csv(stft(f, g)), args.out)
    return 0


def _cmd_norm(args) -> int:
    f = _load_input(args)
    # the spaces share --window, so one exact pass serves them all
    specs = [_parse_space(text, args.window) for text in args.space]
    values = stft_norms(f, specs)
    lines = [
        f"{_space_label(spec)},{spec.window},{f.grid.describe()},{value:.12g}"
        for spec, value in zip(specs, values)
    ]
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_apply(args) -> int:
    f = _load_input(args)
    kind, params = parse_kv_spec(args.symbol)
    symbol = make_symbol(kind, **params)
    kind, params = parse_kv_spec(args.phase)
    phase = make_phase(kind, **params)
    g = apply_fio(f, symbol, phase, force_direct=args.direct)
    _write_text(sampled_to_csv(g), args.out)
    return 0


def _cmd_check(args) -> int:
    kind, params = parse_kv_spec(args.phase)
    phase = make_phase(kind, **params)
    verdicts = check_phase(phase, eps=args.eps)
    lines = ["condition,threshold,measured,status"]
    lines.extend(v.csv_row() for v in verdicts)
    _write_text("\n".join(lines) + "\n", args.out)
    return 0 if all(v.passed for v in verdicts) else 2


def _cmd_sweep(args) -> int:
    ns = None
    if args.ns:
        ns = tuple(_number(v, "--ns step", int) for v in args.ns.split(","))
    rows = threshold_sweep(
        args.theorem, Ns=ns, seed=args.seed, max_tuples=args.max_tuples
    )
    emit_report(rows, args.out, svg_path=args.svg)
    return 0


def _cmd_report(args) -> int:
    with open(args.input) as fh:
        rows = rows_from_csv(fh.read())
    _write_text(render_report_svg(rows), args.out)
    return 0


def _add_input_args(sp):
    sp.add_argument("--input", help="sampled-function CSV to read")
    sp.add_argument(
        "--signal",
        help="built-in input, e.g. bump:radius=2 or train:alpha=0.5,count=8",
    )
    sp.add_argument(
        "--grid-n", type=int, default=512, help="points per axis for --signal"
    )
    sp.add_argument(
        "--grid-L",
        type=float,
        default=16.0,
        dest="grid_L",
        help="half length of the --signal grid",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="fiolab",
        description="Time-frequency norms and oscillatory integral "
        "operators on uniform grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stft", help="short-time transform of an input")
    _add_input_args(sp)
    sp.add_argument("--window", default="gauss", help="analysis window id")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_stft)

    sp = sub.add_parser("norm", help="modulation norms of an input")
    _add_input_args(sp)
    sp.add_argument(
        "--space",
        action="append",
        required=True,
        help="space as p=..,q=..[,s=..,t=..]; repeatable",
    )
    sp.add_argument("--window", default="gauss", help="analysis window id")
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_norm)

    sp = sub.add_parser("apply", help="apply an operator to an input")
    _add_input_args(sp)
    sp.add_argument(
        "--symbol", default="constant", help="symbol spec, e.g. decaying:s1=1,s2=0"
    )
    sp.add_argument(
        "--phase", required=True, help="phase spec, e.g. mild_growth:alpha=0.5"
    )
    sp.add_argument(
        "--direct",
        action="store_true",
        help="force the quadratic-cost quadrature path",
    )
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_apply)

    sp = sub.add_parser("check", help="verify a phase's declared conditions")
    sp.add_argument(
        "--phase", required=True, help="phase spec, e.g. high_growth:t1=1,t2=1"
    )
    sp.add_argument(
        "--eps", type=float, default=0.5, help="shrink factor for growth boxes"
    )
    sp.add_argument("--out", help="output path (default stdout)")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("sweep", help="run a boundedness threshold sweep")
    sp.add_argument(
        "--theorem",
        required=True,
        choices=("thm1", "thm2", "thm3"),
        help="which boundedness regime to sweep",
    )
    sp.add_argument("--seed", type=int, default=0, help="subsampling seed")
    sp.add_argument(
        "--max-tuples", type=int, help="subsample the panel to this many tuples"
    )
    sp.add_argument("--ns", help="family steps, e.g. 4,8,16,32")
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.add_argument("--svg", help="also render a scatter plot here")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("report", help="render sweep rows as an SVG scatter")
    sp.add_argument("--input", required=True, help="sweep CSV to read")
    sp.add_argument("--out", help="SVG output path (default stdout)")
    sp.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FiolabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
