"""Fuzz of the command line: any flag or config-file value ends in one of the
documented exit codes (0-4), never in a traceback.

Drawn floats are finite, nan, +-inf, negative, huge or subnormal; drawn ints
include negatives.  Two bounds keep each example cheap: at most 2 * 10**4
trials, and a keyrate sweep of at most about 2000 points.  No value is left
out because it fails.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from wqkd import cli

_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 1e300, -1e300, 5e-324)),
    st.floats(0, 1),  # in range for most keys, so examples also reach the commands
)
_MAX_TRIALS = 20_000
_MAX_SWEEP = 2000
_CHANNEL = {"eta": _FLOATS, "y0": _FLOATS, "mode": st.sampled_from(cli._CHOICES["mode"])}
_SIMULATE = dict(
    _CHANNEL,
    trials=st.integers(max_value=_MAX_TRIALS),
    seed=st.integers(-(2**70), 2**70),
    delta=_FLOATS,
    format=st.sampled_from(cli._CHOICES["format"]),
)
_KEYRATE = {key: _FLOATS for key in ("alpha", "eta_d", "y0", "q", "dmin", "dmax", "dstep")}
_KEYRATE["format"] = st.sampled_from(cli._CHOICES["format"])


@st.composite
def _invocation(draw, argv, keys):
    """The command line and config-file text: each drawn value is a flag or a file line."""
    values = {key: draw(st.none() | strategy) for key, strategy in keys.items()}
    if argv[0] == "keyrate":
        dmin, dmax, dstep = (cli._DEFAULTS[k] if values[k] is None else values[k] for k in ("dmin", "dmax", "dstep"))
        finite = all(map(math.isfinite, (dmin, dmax, dstep)))
        if finite and 0 <= dmin <= dmax and dstep > 0 and (dmax - dmin) / dstep > _MAX_SWEEP:
            values["dmax"] = dmin + _MAX_SWEEP * dstep
    argv, lines = list(argv), []
    for key, value in values.items():
        if value is None:
            continue
        if draw(st.booleans()):
            lines.append(f"{key} = {value}")
        else:
            argv.append(f"--{key.replace('_', '-')}={value}")
    return argv, "\n".join(lines)


def _assert_clean_exit(invocation):
    argv, config = invocation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        if config:
            path = Path(tmp) / "run.cfg"
            path.write_text(config + "\n")
            argv = argv + ["--config", str(path)]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in range(5), (argv, config, code)
    assert "Traceback" not in err.getvalue()


_FUZZ = settings(max_examples=80, derandomize=True, deadline=None)


@_FUZZ
@given(_invocation(["simulate", "--basis=z"], _SIMULATE))
def test_simulate_z_fuzz(invocation):
    _assert_clean_exit(invocation)


@settings(_FUZZ, max_examples=10)  # a new delay builds a new X outcome table
@given(_invocation(["simulate", "--basis=x"], _SIMULATE))
def test_simulate_x_fuzz(invocation):
    _assert_clean_exit(invocation)


@_FUZZ
@given(_invocation(["enumerate"], _CHANNEL))
def test_enumerate_fuzz(invocation):
    _assert_clean_exit(invocation)


@_FUZZ
@given(_invocation(["keyrate"], _KEYRATE))
def test_keyrate_fuzz(invocation):
    _assert_clean_exit(invocation)
