"""Property tests of ``bicinium compose``, ``validate`` and ``generate``
through ``cli.main``, in process.

Any input drawn for them, valid or not, exits 0, 1 or 2 with no
traceback, and a refusal ends stderr with a ``bicinium <cmd>:`` line.
For ``compose``, a complete duet validates, and spelling out an omitted
flag with its default value changes neither stdout nor the ``--trace``
file.  For ``validate``, a text that parses prints its report and exits
0 exactly when the duet is legal.  For ``generate``, a run that exits 0
prints one line per voice of ``--length`` notes.  For ``train``, a refusal
writes neither the checkpoint nor the curve, and a run that exits 0 saves
a net that ``load_net`` reads and a curve of one row per epoch.
"""

import contextlib
import io
import signal
from datetime import timedelta
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from bicinium.cli import main
from bicinium.corpus import parse_corpus, parse_duet_text
from bicinium.gamut import GAMUT
from bicinium.rules import validate_duet
from bicinium.seqnet import (MAX_EPOCHS, MAX_HIDDEN, SequentialNet,
                             load_net, save_net)

from conftest import AGENT_ONLY_DUET, NONDET_DUETS, TRAINING_DUET

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
    raise Hang("main ran for more than 10 s")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("compose")
    for name, sizes in NETS.items():
        save_net(SequentialNet.new(**sizes), path / f"{name}.ckpt")
    return path


def call(argv):
    """(exit code, stdout, stderr) of one ``main`` call, stopped after 10 s."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(10)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def assert_boundary(command, code, err):
    """The exit codes and refusal line every subcommand keeps."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if err:
        assert err.splitlines()[-1].startswith(f"bicinium {command}:")
    else:
        assert code != 2


def run(argv, trace):
    """(exit code, stdout, stderr, trace bytes or None) of one call."""
    trace.unlink(missing_ok=True)
    code, out, err = call([*argv, "--trace", str(trace)])
    return code, out, err, trace.read_bytes() if trace.exists() else None


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

    assert_boundary("compose", code, err)
    if code:
        assert err
    elif not out.startswith("dead end"):
        v1, v2 = parse_duet_text(out)
        assert validate_duet(v1, v2, finalis=not no_finalis).legal

    for flag, value in DEFAULTS.items():
        if flag in options or (agent_only and flag.startswith("--plan")):
            continue
        again = run([*argv, flag, value], workdir / "again.csv")
        assert (again[0], again[1], again[3]) == (code, out, trace), flag


# ------------------------------------------------------------- validate

NAMES = [p.name for p in GAMUT]
LEGAL_DUETS = [AGENT_ONLY_DUET, TRAINING_DUET, *NONDET_DUETS]


@st.composite
def duet_texts(draw):
    """Bytes of a duet file: a legal duet, then a few edits of its tokens
    and lines, each of which may leave it legal, illegal or unparsable."""
    voices = [v.split() for v in draw(st.sampled_from(LEGAL_DUETS))]
    for _ in range(draw(st.integers(0, 3))):
        voice = voices[draw(st.integers(0, 1))]
        edit = draw(st.sampled_from(["note"] * 6 + ["token", "drop", "add",
                                                  "empty"]))
        at = draw(st.integers(0, max(len(voice) - 1, 0)))
        if edit == "note" and voice:
            voice[at] = draw(st.sampled_from(NAMES))
        elif edit == "token" and voice:
            voice[at] = draw(st.sampled_from(["xx", "re9", "RE8", "1", ":"]))
        elif edit == "drop" and voice:
            del voice[at]
        elif edit == "add":
            voice.insert(at, draw(st.sampled_from(NAMES)))
        elif edit == "empty":
            voice.clear()
    lines = [f"V{i}: {' '.join(v)}" for i, v in enumerate(voices, start=1)]
    shape = draw(st.sampled_from(["as is"] * 4 + ["comment", "blank",
                                                  "missing", "extra",
                                                  "swapped"]))
    if shape == "comment":
        lines.insert(draw(st.integers(0, 2)), "# a comment")
    elif shape == "blank":
        lines.insert(draw(st.integers(0, 2)), "")
    elif shape == "missing":
        del lines[draw(st.integers(0, 1))]
    elif shape == "extra":
        lines.append(draw(st.sampled_from(["V3: re8", lines[-1], "re8"])))
    elif shape == "swapped":
        lines.reverse()
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.integers(0, 15)) == 0:  # bytes that are not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff\xfe" + data[at:]
    return data


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(data=duet_texts(), no_finalis=st.booleans())
def test_validate_duet_text(workdir, data, no_finalis):
    path = workdir / "duet.txt"
    path.write_bytes(data)
    code, out, err = call(["validate", "--duet", str(path)]
                          + ["--no-finalis"] * no_finalis)

    assert_boundary("validate", code, err)
    try:
        v1, v2 = parse_duet_text(path.read_text())
        report = validate_duet(v1, v2, finalis=not no_finalis)
    except ValueError:  # undecodable, unparsable or empty
        assert code == 1 and err and out == ""
    else:
        assert (out, err) == (f"{report}\n", "")
        assert (code == 0) == report.legal


# ------------------------------------------------------------- generate

any_value = st.sampled_from(["0", "1", "0.5", "nan", "inf", "-inf"])
# Most plans fit the nets (four finite values), so that most runs print.
any_plan = st.one_of(four, four, four, four,
                     st.lists(any_value, max_size=6).map(",".join),
                     st.just("x"))
GENERATE_VALUES = {
    "--length": st.one_of(st.sampled_from([0, 1, 1001]), st.integers(2, 20),
                          st.integers(2, 20)).map(str),
    "--start": st.one_of(
        st.sampled_from(["none", "xx"]),
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=2)
        .map(":".join)),
}
HEADER = ["plan_size", "hidden_size", "voices", "decay"]


def mutated(draw, data):
    """``data``, a ``save_net`` checkpoint, as it is, cut at a byte, or
    with a header value or one weight replaced."""
    mutation = draw(st.sampled_from(["none"] * 3 + ["cut", "header",
                                                   "weight"]))
    if mutation == "cut":
        return data[:draw(st.integers(0, len(data) - 1))]
    lines = data.decode().split("\n")
    if mutation == "header":
        at = draw(st.integers(1, len(HEADER)))
        value = draw(st.sampled_from(["-1", "0", "nan", "5.0"]))
        lines[at] = f"{HEADER[at - 1]} {value}"
    elif mutation == "weight":
        at = draw(st.sampled_from([6, 8, 10, 12]))  # w1, b1, w2, b2 values
        values = lines[at].split()
        values[draw(st.integers(0, len(values) - 1))] = "nan"
        lines[at] = " ".join(values)
    return "\n".join(lines).encode()


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(options=st.fixed_dictionaries({}, optional=GENERATE_VALUES),
       plan=st.one_of(any_plan, any_plan, any_plan, st.none()),
       voices=st.sampled_from([1, 2]), drawn=st.data())
def test_generate_argv(workdir, options, plan, voices, drawn):
    saved = workdir / ("a.ckpt" if voices == 1 else "two_voice.ckpt")
    path = workdir / "generate.ckpt"
    path.write_bytes(mutated(drawn.draw, saved.read_bytes()))
    argv = ["generate", "--net", str(path),
            *(t for item in options.items() for t in item)]
    argv += [] if plan is None else ["--plan", plan]
    code, out, err = call(argv)

    assert_boundary("generate", code, err)
    if code:
        assert err and out == ""
    else:
        lines = out.splitlines()
        assert len(lines) == voices
        for i, line in enumerate(lines, start=1):
            prefix = f"V{i}: " if voices > 1 else ""
            assert line.startswith(prefix)
            notes = line[len(prefix):].split()
            assert len(notes) == int(options.get("--length", "8"))
            assert set(notes) <= set(NAMES)


# ---------------------------------------------------------------- train

# Valid sizes are small, and the values above MAX_HIDDEN and MAX_EPOCHS
# are refused before anything is built or trained.  --epochs is always
# given, as the default of 500 would dominate the run time.  Most values
# are valid, so that a fair share of runs train.
TRAIN_VALUES = {
    "--hidden": st.sampled_from([str(n) for n in range(1, 7)] * 2
                                + ["-1", "0", "2.5", str(MAX_HIDDEN + 1),
                                   str(10**12)]),
    "--lr": st.sampled_from(["2.0"] * 3 + ["0", "-1", "nan", "inf"]),
    "--decay": st.sampled_from(["0.7"] * 3 + ["-0.1", "0", "1.0", "nan"]),
    "--seed": st.integers(-3, 50).map(str),
}
CORPORA = [(resources.files("bicinium.data") / name).read_text()
           for name in ("cantus_one_voice.txt", "duets_two_voice.txt")]


@st.composite
def corpus_texts(draw):
    """Bytes of a corpus file: a bundled corpus, then a few edits of its
    lines, each of which may leave it valid or not."""
    lines = draw(st.sampled_from(CORPORA)).splitlines()
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["note"] * 3 + ["token", "drop", "copy",
                                                  "label", "blank"]))
        line = lines[at] if at < len(lines) else ""
        if edit in ("note", "token") and line.split():
            tokens = line.split()
            pool = NAMES if edit == "note" else ["xx", "re9", "V3:", "1"]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(pool))
            lines[at] = " ".join(tokens)
        elif edit == "drop" and at < len(lines):
            del lines[at]
        elif edit == "copy":
            lines.insert(at, line)
        elif edit == "label":
            lines.insert(at, draw(st.sampled_from(
                ["label: 1 0", "label: 0 1 0 0", "label:", "label: nan 0",
                 "label: x"])))
        elif edit == "blank":
            lines.insert(at, "")
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.sampled_from([False] * 15 + [True])):  # not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff\xfe" + data[at:]
    return data


@pytest.fixture(scope="module")
def traindir(workdir):
    path = workdir / "train"
    (path / "adir").mkdir(parents=True)
    return path


@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(options=st.fixed_dictionaries({}, optional=TRAIN_VALUES),
       epochs=st.sampled_from(["1", "2", "3"] * 3 + ["-1", "0", "x",
                              str(MAX_EPOCHS + 1), str(10**12)]),
       data=corpus_texts(),
       corpus=st.sampled_from(["corpus.txt"] * 8 + ["adir", None]),
       out=st.sampled_from(["net.ckpt"] * 8 + ["adir", "no/net.ckpt", None]),
       curve=st.sampled_from(["curve.csv"] * 3 + [None] * 3
                             + ["adir", "no/curve.csv"]))
def test_train_argv(traindir, options, epochs, data, corpus, out, curve):
    (traindir / "corpus.txt").write_bytes(data)
    for name in ("net.ckpt", "curve.csv"):
        (traindir / name).unlink(missing_ok=True)
    argv = ["train", "--epochs", epochs,
            *(t for item in options.items() for t in item)]
    for flag, path in (("--corpus", corpus), ("--out", out),
                       ("--curve", curve)):
        if path:
            argv += [flag, str(traindir / path)]
    code, stdout, err = call(argv)

    assert_boundary("train", code, err)
    written = sorted(p.name for p in traindir.iterdir())
    if code:
        assert err and stdout == ""
        assert written == ["adir", "corpus.txt"]  # no checkpoint, no curve
        return
    assert err == "" and stdout.startswith("trained ")
    net = load_net(traindir / out)
    assert net.voices == parse_corpus(data.decode()).voices
    if curve:
        rows = (traindir / curve).read_text().splitlines()
        assert rows[0] == "epoch,mse" and len(rows) == 1 + int(epochs)
