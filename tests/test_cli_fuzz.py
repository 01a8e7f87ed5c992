"""Property test of ``bicinium compose`` through ``cli.main``, in process.

Any argv drawn from the compose flags, valid or not, exits 0, 1 or 2 with
no traceback; a refusal ends stderr with a ``bicinium compose:`` line; a
complete duet validates; and spelling out an omitted flag with its
default value changes neither stdout nor the ``--trace`` file.
"""

import contextlib
import io
import signal
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from bicinium.cli import main
from bicinium.corpus import parse_duet_text
from bicinium.gamut import GAMUT
from bicinium.rules import validate_duet
from bicinium.seqnet import SequentialNet, save_net

# The compose flags that take a value, each with the value it defaults to.
DEFAULTS = {"--length": "8", "--start": "re8:re8", "--plan1": "0.8,0,0.8,0",
            "--plan2": "0,1,0,1", "--seed": "0", "--mode": "det",
            "--cm-weight": "1.0"}

unit = st.sampled_from(["0", "1", "0.8", "0.5"])
four = st.lists(unit, min_size=4, max_size=4).map(",".join)
plan = st.one_of(four, four, st.lists(unit, max_size=6).map(",".join),
                 st.sampled_from(["x", "1,,y", "0 1 0 z", "nan,0,0,0"]))
VALUES = {
    "--length": st.one_of(st.sampled_from([0, 1, 1001]),
                          st.integers(2, 20)).map(str),
    "--start": st.one_of(
        st.just("none"),
        st.lists(st.sampled_from([p.name for p in GAMUT] + ["xx"]),
                 min_size=1, max_size=3).map(":".join)),
    "--plan1": plan,
    "--plan2": plan,
    "--seed": st.integers(-3, 50).map(str),
    "--mode": st.sampled_from(["det", "coin"]),
    "--cm-weight": st.sampled_from(["0", "-1", "nan", "0.5", "1.0", "1.49"]),
}
# Net files: a fitting pair, a net with a 3-unit plan and a two-voice net.
NETS = {"a": {"seed": 1}, "b": {"seed": 2}, "plan3": {"plan_size": 3},
        "two_voice": {"voices": 2}}


class Hang(Exception):
    """Not an OSError or ValueError, so ``main`` cannot report it."""


def _hang(signum, frame):
    raise Hang("compose ran for more than 10 s")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("compose")
    for name, sizes in NETS.items():
        save_net(SequentialNet.new(**sizes), path / f"{name}.ckpt")
    return path


def run(argv, trace):
    """(exit code, stdout, stderr, trace bytes or None) of one call."""
    trace.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(10)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--trace", str(trace)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return (code, out.getvalue(), err.getvalue(),
            trace.read_bytes() if trace.exists() else None)


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(options=st.fixed_dictionaries({}, optional=VALUES),
       agent_only=st.booleans(), no_finalis=st.booleans(),
       net_a=st.sampled_from(["a", "a", "a", None, "plan3", "two_voice"]),
       net_b=st.sampled_from(["b", "b", "b", None]), midi=st.booleans())
def test_compose_argv(workdir, options, agent_only, no_finalis, net_a, net_b,
                      midi):
    argv = ["compose", *(t for item in options.items() for t in item)]
    argv += ["--agent-only"] * agent_only + ["--no-finalis"] * no_finalis
    for flag, net in (("--netA", net_a), ("--netB", net_b)):
        if net:
            argv += [flag, str(workdir / f"{net}.ckpt")]
    if midi:
        argv += ["--midi", str(workdir / "duet.mid")]
    code, out, err, trace = run(argv, workdir / "trace.csv")

    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith("bicinium compose:")
    elif not out.startswith("dead end"):
        v1, v2 = parse_duet_text(out)
        assert validate_duet(v1, v2, finalis=not no_finalis).legal

    for flag, value in DEFAULTS.items():
        if flag in options or (agent_only and flag.startswith("--plan")):
            continue
        again = run([*argv, flag, value], workdir / "again.csv")
        assert (again[0], again[1], again[3]) == (code, out, trace), flag
