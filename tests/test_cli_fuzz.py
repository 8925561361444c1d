"""Grammar-driven fuzzing of the command line.

Every argv drawn from the subcommands' grammar, with numeric fields
that may be nan, inf, huge, negative or not numbers at all, must end
with exit status 0, 2 or 3 and no traceback. Sampled-function and
report CSV bodies are drawn from their own grammars the same way.

Huge values are written as floats (1e300), never as integers that
parse: an integer-looking step, grid size or train length in the
billions is a valid request for a very large allocation, which is a
resource question, not a parsing one.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fiolab import cli
from fiolab.experiments import REPORT_COLUMNS, VERDICT_BOUNDED, VERDICT_UNBOUNDED

BAD = ["nan", "inf", "-inf", "1e300", "-1e300", "-1", "0", "-0.5", "abc", "", "1e"]


def num(*good):
    """A numeric field: one of its good values or one of ``BAD``."""
    return st.sampled_from(list(good) + BAD)


def spec(kind, **fields):
    """``kind:k1=v1,...`` over any subset of ``fields``."""

    def text(d):
        return kind + ":" + ",".join(f"{k}={v}" for k, v in d.items()) if d else kind

    return st.fixed_dictionaries({}, optional=fields).map(text)


def opt(flag, values):
    """Nothing, or ``flag`` and a drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def csv_rows(fields, max_rows):
    return st.lists(st.tuples(*fields).map(",".join), max_size=max_rows)


SIGNAL = st.one_of(
    spec("gauss", sigma=num("1", "2", "0.5")),
    spec("bump", radius=num("1", "2"), center=num("0", "3"), freq=num("0", "2")),
    spec(
        "train",
        alpha=num("0", "0.5"),
        start=num("1", "4"),
        count=num("2", "8", "100"),
        radius=num("0.2", "0.3"),
    ),
    spec("mtrain", count=num("2", "8"), radius=num("0.2", "0.3")),
    st.sampled_from(["wave", "gauss:sigma", ":sigma=1", "gauss:sigma=1,sigma=2"]),
)
PHASE = st.one_of(
    st.just("bilinear"),
    spec("mild_growth", alpha=num("0", "0.5")),
    spec("nonseparated_x", alpha=num("0", "0.5")),
    spec("nonseparated_xi", radius=num("1", "0.5")),
    spec("high_growth", t1=num("1", "2"), t2=num("0", "1")),
    st.sampled_from(["chirp", "bilinear:alpha=1", "mild_growth:alpha"]),
)
SYMBOL = st.one_of(
    st.just("constant"),
    spec("decaying", s1=num("1", "0.5"), s2=num("0", "1")),
    st.just("smooth"),
)
SPACE = st.fixed_dictionaries(
    {},
    optional=dict(p=num("1", "2"), q=num("1", "2"), s=num("0", "1"), t=num("0", "1")),
).map(lambda d: ",".join(f"{k}={v}" for k, v in d.items()))
WINDOW = st.one_of(
    st.just("gauss"), num("1", "0.5").map("gauss:{}".format), st.just("hann")
)

# (file name, body) of a sampled-function CSV: header, columns, rows
SAMPLED_CSV = st.tuples(
    num("1", "2"),
    num("4", "8", "3"),
    num("0.5", "0.25"),
    csv_rows([num("0", "1", "3", "7"), num("1"), num("0")], 8),
).map(
    lambda t: (
        "f.csv",
        f"# dim={t[0]} n={t[1]} spacing={t[2]}\ni0,re,im\n" + "\n".join(t[3]) + "\n",
    )
)
# (file name, body) of a sweep report: id, p .. t2, d, N, ratio,
# verdict, exponent, grid, window
REPORT_CSV = csv_rows(
    [
        st.just("thm1-000"),
        *[num("1", "2")] * 7,
        num("1"),
        num("4", "8"),
        num("0.5", "2"),
        st.sampled_from([VERDICT_BOUNDED, VERDICT_UNBOUNDED, "maybe"]),
        num("0.25"),
        st.just("d=1 n=8 L=1"),
        st.just("gauss"),
    ],
    3,
).map(lambda rows: ("r.csv", "\n".join([",".join(REPORT_COLUMNS), *rows]) + "\n"))

# (argv, file or None) of an input: a built-in signal, a CSV, or neither
INPUT = st.one_of(
    st.tuples(
        SIGNAL.map(lambda s: ["--signal", s]),
        opt("--grid-n", num("64", "256", "3", "99999999999999999999")),
        opt("--grid-L", num("16", "4")),
    ).map(lambda t: (sum(t, []), None)),
    SAMPLED_CSV.map(lambda file: (["--input", "@/" + file[0]], file)),
    st.just(([], None)),
)


@st.composite
def command(draw):
    """(argv, files) of one call; ``@/name`` in argv is a scratch path."""
    which = draw(st.sampled_from(["norm", "apply", "stft", "check", "sweep", "report"]))
    argv, files = [which], []
    if which in ("norm", "apply", "stft"):
        args, file = draw(INPUT)
        argv += args
        files += [file] if file else []
    if which == "norm":
        for space in draw(st.lists(SPACE, min_size=1, max_size=2)):
            argv += ["--space", space]
        argv += draw(opt("--window", WINDOW))
    elif which == "apply":
        argv += ["--phase", draw(PHASE)] + draw(opt("--symbol", SYMBOL))
        argv += draw(st.sampled_from([[], ["--direct"]]))
    elif which == "stft":
        argv += draw(opt("--window", WINDOW)) + ["--out", "@/out.csv"]
    elif which == "check":
        argv += ["--phase", draw(PHASE)] + draw(opt("--eps", num("0.5", "0.25")))
    elif which == "sweep":
        theorem = draw(st.sampled_from(["thm1", "thm2", "thm3", "thm4"]))
        steps = draw(st.lists(num("1", "2", "3"), min_size=1, max_size=3))
        # a whole panel takes seconds to minutes, so a sweep always subsamples
        argv += ["--theorem", theorem, "--ns", ",".join(steps)]
        argv += ["--max-tuples", draw(num("1"))] + draw(opt("--seed", num("3")))
        argv += ["--out", "@/rows.csv"]
    else:
        file = draw(REPORT_CSV)
        files.append(file)
        argv += ["--input", "@/" + file[0], "--out", "@/plot.svg"]
    return argv, files


# a report row whose family parameter N is -inf
NEGATIVE_N_ROW = ",".join(
    ["thm1-000", *"1" * 8, "-inf", "0.5", VERDICT_BOUNDED, "0.25"]
    + ["d=1 n=8 L=1", "gauss"]
)


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(command())
# escapes found by this test or by hand, each now rejected where its
# value is parsed
@example((["norm", "--signal", "train:count=inf", "--space", "p=2"], []))
@example((["norm", "--signal", "train:count=1e300", "--space", "p=2"], []))
@example((["stft", "--signal", "train:start=1e300", "--out", "@/out.csv"], []))
@example((["norm", "--signal", "mtrain:count=1e300", "--space", "p=2"], []))
@example(
    (
        ["apply", "--signal", "gauss", "--phase", "nonseparated_x:alpha=0.5"]
        + ["--symbol", "decaying:s1=0,s2=-400", "--direct", "--out", "@/out.csv"],
        [],
    )
)
@example(
    (
        ["sweep", "--theorem", "thm3", "--ns", "1,2", "--max-tuples", "1"]
        + ["--seed", "-1", "--out", "@/rows.csv"],
        [],
    )
)
@example(
    (
        ["norm", "--input", "@/f.csv", "--space", "p=2"],
        [("f.csv", "# dim=1 n=1099511627776 spacing=0.5\ni0,re,im\n0,1,0\n")],
    )
)
@example(
    (
        ["report", "--input", "@/r.csv", "--out", "@/plot.svg"],
        [("r.csv", "\n".join([",".join(REPORT_COLUMNS), NEGATIVE_N_ROW]) + "\n")],
    )
)
def test_cli_exits_0_2_or_3_without_traceback(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as scratch:
        for name, body in files:
            with open(os.path.join(scratch, name), "w") as fh:
                fh.write(body)
        argv = [a.replace("@/", scratch + os.sep) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
