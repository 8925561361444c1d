"""Exit codes and text output of the command line front end."""

import hashlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fiolab import (
    Grid,
    SampledFunction,
    ValidationError,
    make_window,
    rows_from_csv,
    sampled_from_csv,
    sampled_to_csv,
)
from fiolab import spaces
from fiolab.cli import build_parser, main, parse_kv_spec


def test_parse_kv_spec():
    kind, params = parse_kv_spec("mild_growth:alpha=0.5")
    assert kind == "mild_growth" and params == {"alpha": 0.5}
    assert parse_kv_spec("bilinear") == ("bilinear", {})
    kind, params = parse_kv_spec("decaying:s1=1,s2=0")
    assert params == {"s1": 1.0, "s2": 0.0}
    with pytest.raises(ValidationError):
        parse_kv_spec(":alpha=1")
    with pytest.raises(ValidationError):
        parse_kv_spec("kind:novalue")


def test_norm_command_stdout(capsys):
    code = main(
        ["norm", "--signal", "gauss", "--grid-n", "256", "--grid-L", "8",
         "--space", "p=2", "--space", "p=1,q=2,s=0.5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("M[p=2 q=2 s=0 t=0],gauss,d=1 n=256 L=8,")
    for ln in lines:
        assert float(ln.rsplit(",", 1)[1]) > 0


def test_norm_spaces_share_one_pass(capsys, monkeypatch):
    # three spaces print what three one-space runs print, from the rows
    # of a single exact pass
    calls = []
    real = spaces.lattice_rows

    def counted(*args, **kwargs):
        rows = real(*args, **kwargs)

        def tile(sl, out):
            calls.append(sl)
            rows(sl, out)

        return tile

    monkeypatch.setattr(spaces, "lattice_rows", counted)
    base = ["norm", "--signal", "train:count=3", "--grid-n", "512", "--grid-L", "16"]
    texts = ["p=2", "p=1,q=4,s=0.5", "p=inf,q=1,t=1"]
    single = []
    for text in texts:
        assert main(base + ["--space", text]) == 0
        single.append(capsys.readouterr().out)
    per_space = len(calls) // len(texts)
    calls.clear()
    assert main(base + sum((["--space", t] for t in texts), [])) == 0
    assert capsys.readouterr().out == "".join(single)
    assert len(calls) == per_space


def test_integral_float_train_fields_are_accepted(capsys):
    outs = []
    for signal in ("train:start=4,count=2", "train:start=4.0,count=2.0"):
        assert main(["norm", "--signal", signal, "--space", "p=2"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_norm_requires_an_input(capsys):
    # no --input and no --signal is a validation failure
    assert main(["norm", "--space", "p=2"]) == 2
    assert "provide" in capsys.readouterr().err


def test_bad_space_spec_is_exit_2(capsys):
    code = main(["norm", "--signal", "gauss", "--space", "r=3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_signal_kind_is_exit_2(capsys):
    code = main(["norm", "--signal", "sawtooth", "--space", "p=2"])
    assert code == 2


def test_stft_writes_matrix_csv(tmp_path):
    out = tmp_path / "tf.csv"
    code = main(
        ["stft", "--signal", "bump:radius=2", "--grid-n", "64",
         "--grid-L", "8", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 64 * 64 + 2


def test_stft_budget_is_exit_3(capsys):
    code = main(["stft", "--signal", "gauss", "--grid-n", "16384"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_apply_identity_round_trip(tmp_path):
    out = tmp_path / "g.csv"
    code = main(
        ["apply", "--signal", "gauss", "--phase", "bilinear",
         "--out", str(out)]
    )
    assert code == 0
    g = sampled_from_csv(out.read_text())
    f = make_window("gauss:1", Grid(1, 512, 0.0625))
    assert np.allclose(g.samples, f.samples, atol=1e-9)


def test_apply_unknown_phase_is_exit_2(capsys):
    code = main(["apply", "--signal", "gauss", "--phase", "cubic"])
    assert code == 2


def test_check_passing_phase(capsys):
    code = main(["check", "--phase", "bilinear"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "condition,threshold,measured,status"
    assert all(ln.endswith("pass") for ln in lines[1:])
    assert len(lines) == 7


def test_check_failing_phase_is_exit_2(capsys):
    code = main(["check", "--phase", "nonseparated_x:alpha=0.5"])
    assert code == 2
    out = capsys.readouterr().out
    assert any(ln.endswith("fail") for ln in out.strip().splitlines())


def test_check_bad_eps_is_exit_2(capsys):
    code = main(["check", "--phase", "bilinear", "--eps", "-1"])
    assert code == 2


def test_sweep_and_report_round_trip(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    args = [
        "sweep", "--theorem", "thm3", "--ns", "4,8", "--max-tuples", "2",
        "--seed", "1", "--out", str(csv_path), "--svg", str(svg_path),
    ]
    assert main(args) == 0
    rows = rows_from_csv(csv_path.read_text())
    assert len(rows) == 4
    assert svg_path.read_text().startswith("<svg")
    # identical invocation reproduces the bytes
    first = csv_path.read_bytes()
    assert main(args) == 0
    assert csv_path.read_bytes() == first
    # render the emitted CSV through the report command
    out2 = tmp_path / "again.svg"
    assert main(["report", "--input", str(csv_path), "--out", str(out2)]) == 0
    assert out2.read_text().startswith("<svg")


def test_sweep_bad_steps_is_exit_2(tmp_path):
    code = main(
        ["sweep", "--theorem", "thm3", "--ns", "8,4",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_report_missing_file_is_exit_2(capsys):
    code = main(["report", "--input", "/nonexistent/rows.csv"])
    assert code == 2


def test_repeated_calls_share_no_parser_state(capsys):
    # main reuses one parser per process; what one call parses, appends
    # or fails on must not reach the next
    assert build_parser() is build_parser()
    norm = ["norm", "--signal", "gauss", "--grid-n", "64", "--space", "p=2"]
    assert main(norm + ["--space", "p=1"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    assert main(norm) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    good = ["apply", "--signal", "gauss:sigma=2", "--grid-n", "256",
            "--phase", "bilinear"]
    assert main(good) == 0
    first = capsys.readouterr().out
    bad = ["apply", "--signal", "gauss", "--symbol", "decaying:s1=1,s2=0", "--direct",
           "--phase", "mild_growth:alpha=0.5", "--grid-n", "abc"]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(good) == 0
    assert capsys.readouterr().out == first


def test_missing_required_flag_exits_via_parser():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--out", "x.csv"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fiolab.cli", "norm", "--signal", "gauss",
         "--grid-n", "128", "--grid-L", "8", "--space", "p=2,q=2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("M[p=2 q=2")


def _bad_csv(path, row):
    """An 8-point sample CSV with its first data row replaced by ``row``."""
    f = SampledFunction(Grid(1, 8, 0.5), np.ones(8, dtype=complex))
    lines = sampled_to_csv(f).splitlines()
    path.write_text("\n".join(lines[:2] + row + lines[3:]) + "\n")
    return str(path)


# malformed inputs of every kind the CLI reads; each must end in exit 2
BAD_ARGV = [
    ["norm", "--input", ["0,abc,0"], "--space", "p=2"],
    ["norm", "--input", ["99,1,0"], "--space", "p=2"],
    ["norm", "--input", ["0,1,0", "0,1,0"], "--space", "p=2"],
    ["norm", "--input", [], "--space", "p=2"],
    ["apply", "--signal", "gauss", "--phase", "mild_growth:beta=1"],
    ["apply", "--signal", "gauss", "--phase", "mild_growth:alpha=abc"],
    ["norm", "--signal", "gauss", "--space", "p=abc"],
    ["sweep", "--theorem", "thm1", "--ns", "4,x", "--out", "rows.csv"],
    ["norm", "--signal", "train:count=abc", "--space", "p=2"],
    ["norm", "--signal", "train:start=4.5,count=2.7", "--space", "p=2"],
    ["norm", "--signal", "train:count=2.7", "--space", "p=2"],
    ["norm", "--signal", "mtrain:count=2.5", "--space", "p=2"],
    ["norm", "--signal", "gauss", "--grid-n", "0", "--space", "p=2"],
    ["norm", "--signal", "bump:radius=0", "--space", "p=2"],
    ["norm", "--signal", "bump:radius=-1", "--space", "p=2"],
    ["norm", "--signal", "bump:radius=nan", "--space", "p=2"],
    ["norm", "--signal", "bump:radius=inf", "--space", "p=2"],
    ["norm", "--signal", "bump:center=nan", "--space", "p=2"],
    ["norm", "--signal", "bump:center=inf", "--space", "p=2"],
    ["norm", "--signal", "gauss:sigma=inf", "--space", "p=2"],
    ["norm", "--signal", "gauss", "--space", "p=2,s=nan"],
    ["norm", "--signal", "gauss", "--space", "p=2,t=inf"],
    ["check", "--phase", "high_growth:t1=inf,t2=0"],
    ["check", "--phase", "bilinear", "--eps", "inf"],
    ["norm", "--signal", "bump:radius=2", "--grid-n", "512", "--grid-L", "16",
     "--space", "p=2,q=2,s=1e300"],
    ["norm", "--signal", "bump:radius=2", "--grid-n", "512", "--grid-L", "16",
     "--space", "p=1e300,q=2"],
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=lambda a: " ".join(map(str, a)))
def test_malformed_input_is_exit_2(argv, tmp_path, capsys):
    argv = [_bad_csv(tmp_path / "in.csv", a) if isinstance(a, list) else a for a in argv]
    argv = [str(tmp_path / a) if a == "rows.csv" else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_two_dimensional_input_fails_at_the_parse(tmp_path, capsys):
    # a well-formed 8 x 8 table under a dim=2 header: grids are
    # one-dimensional, so reading it is the error, not a later step
    rows = [f"{i},{j},1,0" for i in range(8) for j in range(8)]
    path = tmp_path / "in.csv"
    path.write_text("# dim=2 n=8 spacing=0.5\ni0,i1,re,im\n" + "\n".join(rows) + "\n")
    for argv in (["norm", "--space", "p=2"], ["apply", "--phase", "bilinear"]):
        assert main(argv + ["--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith("error:") and "grid dim must be the integer 1, got 2" in err


def test_overflowing_transform_exits_2_without_numpy_warning(tmp_path, capsys):
    # finite samples whose transform overflows in the band-limit check
    f = SampledFunction(Grid(1, 512, 0.0625), np.full(512, 1e308, dtype=complex))
    path = tmp_path / "in.csv"
    path.write_text(sampled_to_csv(f))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["apply", "--input", str(path), "--phase", "bilinear"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Fourier transform of 512 points is not finite" in err


@pytest.mark.parametrize("space", ["p=2,q=2,s=1e300", "p=1e300,q=2"])
def test_overflowing_norm_makes_no_numpy_warning(space, capsys):
    # the weight or the power overflows; the norm is refused, not printed
    # as inf after a RuntimeWarning
    argv = ["norm", "--signal", "bump:radius=2", "--grid-n", "512", "--grid-L", "16",
            "--space", space]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not finite" in err


# sha256 prefixes of stdout recorded before phases and symbols were
# stored as their separable parts: (fast, --direct) per (symbol, phase)
# on gauss:sigma=2 at n = 256, and (exit code, digest) per checked phase
APPLY_PINS = {
    ("constant", "bilinear"):
        ("2e4c3cf34d3c89f2", "9b3577d277b1513e"),
    ("decaying:s1=1,s2=0.5", "bilinear"):
        ("84e902bbe9d521c8", "81b89462f0245734"),
    ("constant", "mild_growth:alpha=0.5"):
        ("0fae6a5053a3770e", "5ad9a7e33ddce91a"),
    ("decaying:s1=1,s2=0.5", "mild_growth:alpha=0.5"):
        ("81d1aee59dd9532e", "1a04ce549756ce2c"),
    ("constant", "nonseparated_x:alpha=0.5"):
        ("3fb10c0d1c3d6099", "e0462e77d6582941"),
    ("decaying:s1=1,s2=0.5", "nonseparated_x:alpha=0.5"):
        ("7c4203ee8fafc793", "650e1a41a1c6902f"),
    ("constant", "nonseparated_xi:radius=1"):
        ("1cc32c33d7bae686", "1cc32c33d7bae686"),
    ("decaying:s1=1,s2=0.5", "nonseparated_xi:radius=1"):
        ("73defc19a291da7f", "3a1626ea74b8d45c"),
    ("constant", "high_growth:t1=1,t2=1"):
        ("8f0afd32dbf28f57", "577eac7a38deeda6"),
    ("decaying:s1=1,s2=0.5", "high_growth:t1=1,t2=1"):
        ("dbc975f39652c83e", "99c84225e77ee640"),
}
CHECK_PINS = {
    "bilinear": (0, "b910f5ac50a531b2"),
    "mild_growth:alpha=0.5": (0, "f89580a7fb2900d3"),
    "mild_growth:alpha=0": (0, "e4d211b13934a4d3"),
    "high_growth:t1=1,t2=1": (0, "7e49f9cdecd60217"),
    "nonseparated_x:alpha=0.5": (2, "e768513d597de54d"),
    "nonseparated_xi:radius=1": (2, "44d62d88ee26235e"),
}


def _stdout_digest(capsys) -> str:
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]


@pytest.mark.parametrize("direct", [False, True], ids=["fast", "direct"])
@pytest.mark.parametrize("symbol, phase", list(APPLY_PINS))
def test_apply_output_bytes_are_pinned(symbol, phase, direct, capsys):
    argv = ["apply", "--signal", "gauss:sigma=2", "--grid-n", "256",
            "--symbol", symbol, "--phase", phase]
    assert main(argv + ["--direct"] * direct) == 0
    assert _stdout_digest(capsys) == APPLY_PINS[symbol, phase][direct]


@pytest.mark.parametrize("phase", list(CHECK_PINS))
def test_check_output_bytes_are_pinned(phase, capsys):
    code = main(["check", "--phase", phase, "--eps", "0.5"])
    assert (code, _stdout_digest(capsys)) == CHECK_PINS[phase]
