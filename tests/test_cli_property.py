"""Any command line ends with exit 0, 2 or 3, never with a traceback.

Each example is a valid command line in which up to two flags take an edge
of their domain instead (zero, negative, NaN, infinite, subnormal, the
largest floats, integers far beyond 64 bits, malformed regions), so that it
reaches as deep into the program as that flag lets it. Runs are capped at
20 trials and 2 workers, and every value is either small or far too large
to allocate, so no example can fill memory.
"""

import contextlib
import io
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from firewatch.cli import main

FLOATS = ["0", "-0", "-1", "nan", "inf", "-inf", "1e-320", "1e308"]
INTS = ["0", "-1", str(2**53), str(2**63), str(2**64), str(10**30), "2.5", "x"]
COUNTS = ["0", "-1", str(2**53), str(2**53 + 1), str(2**64), str(10**30), "2.5", "x"]
SIDES = ["0", "-1", "nan", "inf", "1e-320", "1e308", "10"]
REGIONS = [f"{w}x{h}" for w in SIDES for h in SIDES] + ["", "x", "10", "10x", "axb", "10x10x10"]

# (flag, always given, ordinary values, edge values); a switch has no values.
MODEL = [
    ("--model", False, ["circular", "elliptical"], []),
    ("--rate", False, ["1", "0.3"], FLOATS),
    ("--hb", False, ["1", "2"], FLOATS),
    ("--lb", False, ["1", "1.5"], FLOATS),
    ("--heading", False, ["0", "0.7"], FLOATS),
]
RUN = [
    ("--trials", True, ["2", "5", "20"], ["-1", "0", "1"]),
    ("--seed", False, ["0", "7"], INTS),
    ("--workers", False, ["1", "2"], ["-1", "0"]),
]
REGION = ("--region", True, ["10x10", "40x5", "2.5x10"], REGIONS)
SPACING = ("--spacing", True, ["1", "2.5", "5"], FLOATS)
SENSORS = ("--sensors", True, ["1", "3", "50", "1000"], COUNTS)
IGNITIONS = ("--ignitions", False, ["1", "3"], INTS)
SIMULATE = [
    ("--resample", False, [], []),
    ("--no-resample", False, [], []),
    ("--clip", False, [], []),
    ("--no-clip", False, [], []),
    IGNITIONS,
] + MODEL + RUN
COMPARE = [
    ("--ecdf-points", False, ["0", "3"], ["-1", str(10**30)]),
    ("--format", False, ["json"], []),
] + MODEL + RUN
PLAN = [
    ("--placement", True, ["grid", "random"], []),
    ("--area", False, ["100", "1e4"], FLOATS),
    ("--region", False, ["10x10", "40x5"], REGIONS),
] + MODEL
X = [
    ("--x", False, ["0,0.5,1"], ["nan", "1e308", "-1", "1e-320,2", ""]),
    ("--moments", False, [], []),
    ("--format", False, ["json"], []),
] + MODEL


@st.composite
def command_line(draw, head, flags):
    broken = set(draw(st.lists(st.integers(0, len(flags) - 1), max_size=2, unique=True)))
    argv = list(head)
    for i, (flag, always, ordinary, edge) in enumerate(flags):
        if i in broken and edge:
            argv += [flag, draw(st.sampled_from(edge))]
        elif always or draw(st.booleans()):
            argv += [flag] + ([draw(st.sampled_from(ordinary))] if ordinary else [])
    return argv


COMMAND_LINES = st.one_of(
    command_line(["simulate"], [REGION, SPACING] + SIMULATE),
    command_line(["simulate"], [REGION, SENSORS] + SIMULATE),
    command_line(["compare"], [REGION, SPACING] + COMPARE),
    command_line(["compare"], [
        ("--sensor-counts", True, ["10", "1,10", "100"],
         ["", "0", "-1", "x", str(2**53 + 1), f"10,{2**64}"]),
        ("--char-distance", False, ["0.5", "2"], FLOATS),
        IGNITIONS,
    ] + COMPARE),
    command_line(["plan"], PLAN + [("--target-area", True, ["0.5", "2"], FLOATS)]),
    command_line(["plan"], PLAN + [("--target-time", True, ["0.5", "2"], FLOATS)]),
    command_line(["analytic", "grid-td"], [SPACING] + X),
    command_line(["analytic", "grid-ad"], [SPACING] + X),
    command_line(["analytic", "random-td"], [("--char-distance", True, ["1"], FLOATS)] + X),
    command_line(["analytic", "ad-limit"], [
        ("--char-distance", True, ["1"], FLOATS),
        ("--x-range", False, ["0:2:5"], ["0:1:0", "0:1:-1", "0:1e308:3", "1:0:3"]),
    ] + X),
    command_line(["analytic", "ad-exact"], [
        ("--area", True, ["100"], FLOATS), ("--sensors", True, ["1", "50"], COUNTS),
    ] + X),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=COMMAND_LINES)
def test_any_command_line_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning is stray output too
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the flags
                assert exc.code == 2 and err.getvalue().startswith("usage:")
                return
    assert code in (0, 2, 3)
    if code:
        # One line, and nothing half written to stdout.
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith(("configuration error:", "domain error:"))
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
