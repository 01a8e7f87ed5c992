import hashlib
import struct
import warnings
from dataclasses import replace
from importlib import resources

import pytest

from bicinium.cli import main
from bicinium.corpus import (
    CorpusError,
    load_corpus,
    parse_corpus,
    parse_duet_text,
    render_text,
)
from bicinium.midi import duet_to_midi_bytes, write_midi
from bicinium.seqnet import (MAX_EPOCHS, MAX_HIDDEN, SequentialNet,
                             generate, save_net)

from conftest import AGENT_ONLY_DUET, TRAINING_DUET, pitches


def data_path(name):
    return resources.files("bicinium.data") / name


# ---------------------------------------------------------------- corpus

def test_load_shipped_one_voice_corpus():
    corpus = load_corpus(data_path("cantus_one_voice.txt"))
    assert corpus.mode == "one_voice"
    labels = [label for label, _ in corpus.melodies]
    assert labels == [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                      (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    first = corpus.melodies[0][1][0]
    assert first == pitches("re8 la8 sol8 fa8 mi8 re8 fa8 mi8 re8")


def test_load_shipped_two_voice_corpus():
    corpus = load_corpus(data_path("duets_two_voice.txt"))
    assert corpus.mode == "two_voice"
    assert len(corpus.melodies) == 4
    v1, v2 = corpus.melodies[0][1]
    assert (len(v1), len(v2)) == (9, 9)
    assert v1 == pitches(TRAINING_DUET[0])
    assert v2 == pitches(TRAINING_DUET[1])


def test_parse_two_voice_block():
    corpus = parse_corpus("V1: re8 do8\nV2: re8 mi8\n")
    assert corpus.mode == "two_voice"
    assert corpus.melodies[0][0] == (1.0, 0.0, 0.0, 0.0)


def test_parse_explicit_labels():
    corpus = parse_corpus("label: 0 1 0 1\nre8 mi8 fa8\n")
    assert corpus.melodies[0][0] == (0.0, 1.0, 0.0, 1.0)


def test_parse_empty_corpus():
    with pytest.raises(CorpusError, match="empty corpus"):
        parse_corpus("# nothing here\n\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CorpusError, match="line 2.*'dox'"):
        parse_corpus("# comment\nre8 dox\n")
    with pytest.raises(CorpusError, match="length"):
        parse_corpus("V1: re8 do8 la\nV2: re8 mi8\n")


@pytest.mark.parametrize("text,message", [
    ("label: 1 0\nre8 la8\n\nlabel: 0 1 0 0\nre8 mi8\n",
     "line 4: label of 4 values, but the first melody's has 2"),
    # an unlabeled melody's one-hot label has four values
    ("label: 1 0 0 0 0\nre8 la8\n\n# auto\nre8 mi8\n",
     "line 5: label of 4 values, but the first melody's has 5"),
    ("re8 la8\n\nlabel: 0 1 0\nre8 mi8\n",
     "line 3: label of 3 values, but the first melody's has 4"),
], ids=["ragged", "auto-after-five", "three-after-auto"])
def test_parse_refuses_labels_of_differing_length(text, message):
    with pytest.raises(CorpusError) as info:
        parse_corpus(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,line", [
    ("label:\nre8 la8\n", 1),
    ("# nan\nlabel: nan 0 0 0\nre8 la8\n", 2),
    ("label: 1 0\nre8 la8\n\nlabel: 0 inf\nre8 mi8\n", 4),
    ("label: -inf 0 0 0\nre8 la8\n", 1),
], ids=["empty", "nan", "inf", "minus-inf"])
def test_parse_refuses_empty_or_non_finite_label(text, line):
    # an empty label used to fail later with "plan_size must be at least
    # 1, got 0"; a non-finite one trained to "final mse nan"
    with pytest.raises(CorpusError) as info:
        parse_corpus(text)
    assert str(info.value) == (f"line {line}: a label needs at least one "
                               "value, and every value finite")


def test_parse_too_many_unlabeled():
    text = "\n\n".join("re8 mi8 fa8" for _ in range(5))
    with pytest.raises(CorpusError, match="labels"):
        parse_corpus(text)


def test_render_text_matches_source_notation():
    v1, v2 = (pitches(t) for t in AGENT_ONLY_DUET)
    assert render_text(v1, v2) == (
        "V1: re8 do8 la sol la mi la re8\n"
        "V2: re8 mi8 fa8 sol8 fa8 sol8 fa8 re8\n")


def test_render_parse_roundtrip():
    v1, v2 = (pitches(t) for t in TRAINING_DUET)
    assert parse_duet_text(render_text(v1, v2)) == (v1, v2)


def test_single_pair_duet_renders():
    v1, v2 = pitches("re8"), pitches("re8")
    assert render_text(v1, v2) == "V1: re8\nV2: re8\n"


# ------------------------------------------------------------------ midi

def parse_midi(data: bytes):
    """Minimal independent MIDI reader: returns per-track note-on pitches
    and the total tick length of each track."""
    assert data[:4] == b"MThd"
    length, fmt, ntracks, division = struct.unpack(">IHHH", data[4:14])
    assert (length, fmt) == (6, 1)
    pos = 14
    tracks = []
    for _ in range(ntracks):
        assert data[pos:pos + 4] == b"MTrk"
        size = struct.unpack(">I", data[pos + 4:pos + 8])[0]
        body = data[pos + 8:pos + 8 + size]
        pos += 8 + size
        i = 0
        notes, ticks = [], 0
        while i < len(body):
            delta = 0
            while True:
                byte = body[i]; i += 1
                delta = (delta << 7) | (byte & 0x7F)
                if not byte & 0x80:
                    break
            ticks += delta
            status = body[i]
            if status == 0xFF:
                meta_len = body[i + 2]
                i += 3 + meta_len
            elif status & 0xF0 in (0x90, 0x80):
                if status & 0xF0 == 0x90 and body[i + 2] > 0:
                    notes.append(body[i + 1])
                i += 3
            else:
                raise AssertionError(f"unexpected status {status:#x}")
        tracks.append((notes, ticks))
    return division, tracks


def test_midi_single_pair(p):
    data = duet_to_midi_bytes((p("re8"),), (p("re8"),))
    division, tracks = parse_midi(data)
    assert division == 480
    assert [t[0] for t in tracks] == [[74], [74]]


def test_midi_eight_pair_duet():
    v1, v2 = (pitches(t) for t in AGENT_ONLY_DUET)
    division, tracks = parse_midi(duet_to_midi_bytes(v1, v2))
    assert all(len(notes) == 8 for notes, _ in tracks)
    assert all(ticks == 8 * 1920 for _, ticks in tracks)
    # round-trip: pitches survive through an independent reader
    assert tracks[0][0] == [62 + p.semitone for p in v1]
    assert tracks[1][0] == [62 + p.semitone for p in v2]


def test_midi_bytes_deterministic(tmp_path):
    v1, v2 = (pitches(t) for t in AGENT_ONLY_DUET)
    a = tmp_path / "a.mid"
    b = tmp_path / "b.mid"
    write_midi(v1, v2, a)
    write_midi(v1, v2, b)
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------- cli

def test_cli_validate_legal_duet(tmp_path, capsys):
    duet = tmp_path / "duet.txt"
    duet.write_text("V1: re8 do8 la sol la do8 si re8\n"
                    "V2: re8 mi8 fa8 sol8 fa8 mi8 sol8 re8\n")
    assert main(["validate", "--duet", str(duet)]) == 0
    out = capsys.readouterr().out
    assert "pos=0 pair=re8:re8 verdict=legal" in out


def test_cli_validate_parallel_octaves(tmp_path, capsys):
    duet = tmp_path / "duet.txt"
    duet.write_text("V1: re mi fa re\nV2: re8 mi8 fa8 re8\n")
    assert main(["validate", "--duet", str(duet)]) == 1
    assert "4" in capsys.readouterr().out


def test_cli_validate_refuses_empty_duet(tmp_path, capsys):
    duet = tmp_path / "duet.txt"
    duet.write_text("V1:\nV2:\n")
    code = main(["validate", "--duet", str(duet)])
    captured = capsys.readouterr()
    assert_one_line_refusal(code, captured.err, "validate", "empty duet")
    assert captured.out == ""


def test_cli_compose_agent_only_deterministic(capsys):
    args = ["compose", "--agent-only", "--seed", "1"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("V1: re8 do8 la sol")


def test_cli_compose_writes_midi_and_trace(tmp_path, capsys):
    midi = tmp_path / "duet.mid"
    trace = tmp_path / "trace.csv"
    code = main(["compose", "--agent-only", "--seed", "5", "--mode", "coin",
                 "--midi", str(midi), "--trace", str(trace)])
    assert code == 0
    division, tracks = parse_midi(midi.read_bytes())
    assert division == 480
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# seed=5 mode=coin")
    assert lines[1] == "step,weight,voice1,voice2,utility,legal_count"
    assert len(lines) == 10


def test_cli_compose_start_none_negotiates_the_opening(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["compose", "--agent-only", "--start", "none",
                 "--trace", str(trace)]) == 0
    assert " start=none " in trace.read_text().splitlines()[0]


def test_cli_compose_rejects_illegal_start(capsys):
    code = main(["compose", "--agent-only", "--start", "re:mi8",
                 "--length", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "start pair re:mi8 breaks rules 1 2" in captured.err


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_cli_compose_rejects_non_finite_weight(weight, capsys):
    assert main(["compose", "--agent-only", "--cm-weight", weight]) == 1
    assert "cm_weight must be positive and finite" in capsys.readouterr().err


def test_cli_train_generate_roundtrip(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("re8 la8 sol8 fa8 mi8 re8\n")
    ckpt = tmp_path / "net.txt"
    curve = tmp_path / "curve.csv"
    code = main(["train", "--corpus", str(corpus), "--hidden", "15",
                 "--epochs", "300", "--lr", "2.0", "--seed", "1",
                 "--out", str(ckpt), "--curve", str(curve)])
    assert code == 0
    assert ckpt.exists()
    assert curve.read_text().splitlines()[0] == "epoch,mse"
    capsys.readouterr()
    code = main(["generate", "--net", str(ckpt),
                 "--plan", "1,0,0,0", "--length", "6"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == "re8 la8 sol8 fa8 mi8 re8"


def test_cli_train_sizes_the_plan_from_the_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("label: 1 0 0 0 0\nre8 la8 sol8 fa8 mi8 re8\n\n"
                      "label: 0 1 0 0 0\nre8 mi8 fa8 mi8 re8\n")
    ckpt = tmp_path / "net.txt"
    assert main(["train", "--corpus", str(corpus), "--epochs", "300",
                 "--seed", "1", "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["generate", "--net", str(ckpt), "--plan", "1,0,0,0,0",
                 "--length", "6"]) == 0
    assert capsys.readouterr().out == "re8 la8 sol8 fa8 mi8 re8\n"


def test_cli_train_refuses_ragged_labels(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("label: 1 0\nre8 la8 sol8\n\nlabel: 0 1 0 0\nre8 mi8\n")
    out = tmp_path / "net.ckpt"
    code = main(["train", "--corpus", str(corpus), "--out", str(out)])
    captured = capsys.readouterr()
    assert_one_line_refusal(code, captured.err, "train",
                            "line 4: label of 4 values")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("label", ["", "nan 0 0 0", "0 inf 0 0"],
                         ids=["empty", "nan", "inf"])
def test_cli_train_refuses_empty_or_non_finite_label(label, tmp_path,
                                                     capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"label: {label}\nre8 la8 sol8\n")
    out = tmp_path / "net.ckpt"
    code = main(["train", "--corpus", str(corpus), "--out", str(out),
                 "--epochs", "2"])
    captured = capsys.readouterr()
    assert_one_line_refusal(code, captured.err, "train",
                            "line 1: a label needs at least one value")
    assert captured.out == "" and not out.exists()


# A learning rate this large saturates every sigmoid: np.exp overflows to
# inf, and the unit reads exactly 0.0.  The digest was recorded before the
# overflow warnings were silenced.
SATURATED = (
    ("train", "--corpus", "cantus.txt", "--hidden", "4", "--epochs", "3",
     "--lr", "1e200", "--seed", "1", "--out", "big.ckpt", "--curve",
     "big.csv"),
    ("generate", "--net", "big.ckpt", "--plan", "1,0,0,0", "--length", "8"),
    ("compose", "--netA", "big.ckpt", "--netB", "big.ckpt", "--start",
     "none"),
)
SATURATED_SHA256 = ("582583750739675aaa034d4cb8df91e5"
                    "7966798b081e8ccf392a7104d755e324")


def test_cli_saturated_net_runs_without_overflow_warnings(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cantus.txt").write_bytes(
        data_path("cantus_one_voice.txt").read_bytes())
    digest = hashlib.sha256()
    for argv in SATURATED:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(list(argv))
        captured = capsys.readouterr()
        assert (code, captured.err, caught) == (0, "", []), argv[0]
        digest.update(f"{' '.join(argv)}\n{captured.out}\n".encode())
    for name in ("big.ckpt", "big.csv"):
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == SATURATED_SHA256


def test_cli_generate_truncated_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "net.txt"
    save_net(SequentialNet.new(hidden_size=5, seed=3), ckpt)
    lines = ckpt.read_text().splitlines(keepends=True)
    ckpt.write_text("".join(lines[:7]))
    assert main(["generate", "--net", str(ckpt), "--plan", "1,0,0,0"]) == 1
    assert "net.txt: truncated checkpoint" in capsys.readouterr().err


def test_cli_unknown_flag_exits_nonzero(capsys):
    assert main(["compose", "--bogus"]) != 0


def test_cli_missing_file(capsys):
    assert main(["validate", "--duet", "/nonexistent/duet.txt"]) == 1


def assert_one_line_refusal(code, err, command, message):
    assert code == 1
    assert err.startswith(f"bicinium {command}: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("flags,message", [
    (["--epochs", "0"], "epochs must be at least 1, got 0"),
    (["--epochs", "-1"], "epochs must be at least 1, got -1"),
    (["--lr", "nan"], "learning rate must be finite and non-negative"),
    (["--lr", "inf"], "learning rate must be finite and non-negative"),
    (["--lr", "-0.5"], "learning rate must be finite and non-negative"),
    (["--hidden", "-1"], "hidden_size must be at least 1, got -1"),
    (["--hidden", "0"], "hidden_size must be at least 1, got 0"),
    (["--decay", "1"], "decay must be in [0, 1), got 1.0"),
    (["--decay", "-0.1"], "decay must be in [0, 1), got -0.1"),
    (["--seed", "-1"], "seed must be non-negative, got -1"),
    (["--epochs", str(MAX_EPOCHS + 1)],
     f"epochs must be at most {MAX_EPOCHS}, got {MAX_EPOCHS + 1}"),
    (["--hidden", str(10**12)],
     f"hidden_size must be at most {MAX_HIDDEN}, got {10**12}"),
])
def test_cli_train_rejects_bad_flags(flags, message, tmp_path, capsys):
    out = tmp_path / "net.ckpt"
    code = main(["train", "--corpus", str(data_path("cantus_one_voice.txt")),
                 "--out", str(out), *flags])
    assert_one_line_refusal(code, capsys.readouterr().err, "train", message)
    assert not out.exists()


@pytest.mark.parametrize("out,curve", [
    ("missing/dir/net.ckpt", None), ("net.ckpt", "missing/curve.csv"),
    ("existing", None)])
def test_cli_train_checks_output_paths_before_training(
        out, curve, tmp_path, monkeypatch, capsys):
    # save_net and the curve run after training, which used to finish
    # before a missing directory, or a directory given as the file, failed
    # the command
    monkeypatch.chdir(tmp_path)
    (tmp_path / "existing").mkdir()
    ran = []
    monkeypatch.setattr("bicinium.cli.train", lambda *a, **k: ran.append(a))
    code = main(["train", "--corpus", str(data_path("cantus_one_voice.txt")),
                 "--out", out, *(["--curve", curve] if curve else [])])
    assert_one_line_refusal(code, capsys.readouterr().err, "train",
                            f"{curve or out}: not a file in an existing "
                            "directory")
    assert ran == [] and [p.name for p in tmp_path.iterdir()] == ["existing"]


@pytest.mark.parametrize("mode", ["det", "coin"])
def test_cli_compose_refuses_negative_seed(mode, tmp_path, capsys):
    # coin mode used to fail with numpy's "expected non-negative integer",
    # and det mode wrote seed=-1 into the trace and exited 0
    trace = tmp_path / "trace.csv"
    code = main(["compose", "--agent-only", "--mode", mode, "--seed", "-1",
                 "--trace", str(trace)])
    captured = capsys.readouterr()
    assert_one_line_refusal(code, captured.err, "compose",
                            "seed must be non-negative, got -1")
    assert captured.out == "" and not trace.exists()


@pytest.mark.parametrize("voices,flags,message", [
    (2, ["--start", "re8"], "start needs one pitch per voice (2)"),
    (1, ["--length", "-3"], "length must be at least 1, got -3"),
    (1, ["--length", "0"], "length must be at least 1, got 0"),
    # inf used to print fa fa fa fa, and a NaN plan with the only step
    # pinned printed re8, both with exit 0
    (1, ["--plan", "inf,0,0,0", "--length", "4"],
     "plan holds a non-finite value"),
    (1, ["--plan", "nan,0,0,0", "--length", "1", "--start", "re8"],
     "plan holds a non-finite value"),
    (1, ["--plan", "0,0,0,-inf"], "plan holds a non-finite value"),
])
def test_cli_generate_rejects_bad_flags(voices, flags, message, tmp_path,
                                        capsys):
    ckpt = tmp_path / "net.ckpt"
    save_net(SequentialNet.new(voices=voices, seed=3), ckpt)
    code = main(["generate", "--net", str(ckpt), "--plan", "1,0,0,0", *flags])
    captured = capsys.readouterr()
    assert_one_line_refusal(code, captured.err, "generate", message)
    assert captured.out == ""


def test_cli_generate_refuses_nan_checkpoint(tmp_path, capsys):
    # a NaN weight makes every activation NaN; generate used to decode
    # them as re re re ... and exit 0.  With the only step pinned and
    # nothing decoded, it printed re8 and exited 0.
    ckpt = tmp_path / "nan.ckpt"
    net = SequentialNet.new(seed=3)
    net.w1[0, 0] = float("nan")
    save_net(net, ckpt)
    for flags in ([], ["--length", "1", "--start", "re8"]):
        code = main(["generate", "--net", str(ckpt), "--plan", "1,0,0,0",
                     *flags])
        captured = capsys.readouterr()
        assert_one_line_refusal(code, captured.err, "generate",
                                "nan.ckpt: w1 holds a non-finite value")
        assert captured.out == ""


def _shrunk(net, **sizes):
    """``net`` with the given header sizes and arrays cut to match them."""
    plan = sizes.get("plan_size", net.plan_size)
    hidden = sizes.get("hidden_size", net.hidden_size)
    out = sizes.get("voices", net.voices) * 19
    return replace(net, **sizes, w1=net.w1[:hidden, :plan + out],
                   b1=net.b1[:hidden], w2=net.w2[:out, :hidden],
                   b2=net.b2[:out])


@pytest.mark.parametrize("sizes,message", [
    ({"decay": 5.0}, "decay must be in [0, 1), got 5.0"),
    ({"decay": -1.0}, "decay must be in [0, 1), got -1.0"),
    ({"decay": float("nan")}, "decay must be in [0, 1), got nan"),
    ({"hidden_size": 0}, "hidden_size must be at least 1, got 0"),
    ({"hidden_size": MAX_HIDDEN + 1},
     f"hidden_size must be at most {MAX_HIDDEN}, got {MAX_HIDDEN + 1}"),
    ({"voices": 0}, "voices must be at least 1, got 0"),
    ({"plan_size": -4}, "plan_size must be at least 1, got -4"),
    ({"plan_size": 0}, "plan_size must be at least 1, got 0"),
], ids=["decay-5", "decay-minus-1", "decay-nan", "hidden-0", "hidden-max",
        "voices-0", "plan-minus-4", "plan-0"])
def test_cli_generate_refuses_header_outside_limits(sizes, message, tmp_path,
                                                    capsys):
    # each used to print notes and exit 0, or fail without naming the file
    ckpt = tmp_path / "bad.ckpt"
    save_net(_shrunk(SequentialNet.new(seed=3), **sizes), ckpt)
    code = main(["generate", "--net", str(ckpt), "--plan", "1,0,0,0"])
    captured = capsys.readouterr()
    assert_one_line_refusal(code, captured.err, "generate",
                            f"bad.ckpt: {message}")
    assert captured.out == ""


def test_cli_generate_start_pins_every_voice(tmp_path, capsys):
    ckpt = tmp_path / "duet.ckpt"
    net = SequentialNet.new(voices=2, seed=3)
    save_net(net, ckpt)
    code = main(["generate", "--net", str(ckpt), "--plan", "1,0,0,0",
                 "--length", "4", "--start", "re8:la8"])
    assert code == 0
    v1, v2 = capsys.readouterr().out.splitlines()
    assert v1.startswith("V1: re8 ") and v2.startswith("V2: la8 ")
    want = generate(net, (1, 0, 0, 0), 4, start=pitches("re8 la8"))
    assert (v1, v2) == tuple(f"V{i}: " + " ".join(p.name for p in voice)
                             for i, voice in enumerate(want, start=1))


@pytest.mark.parametrize("start", ["re8", "re8:la8:re8"])
def test_cli_compose_start_needs_two_pitches(start, capsys):
    code = main(["compose", "--agent-only", "--start", start])
    captured = capsys.readouterr()
    assert_one_line_refusal(code, captured.err, "compose",
                            "start needs one pitch per voice (2)")
    assert captured.out == ""


def test_cli_start_refuses_unknown_pitch(capsys):
    assert main(["compose", "--agent-only", "--start", "re8:xx"]) == 2
    assert "--start: unknown pitch token 'xx'" in capsys.readouterr().err


@pytest.mark.parametrize("with_net_a", [False, True])
def test_cli_compose_needs_both_nets(with_net_a, tmp_path, capsys):
    ckpt = tmp_path / "net.ckpt"
    save_net(SequentialNet.new(seed=1), ckpt)
    code = main(["compose", *(["--netA", str(ckpt)] if with_net_a else [])])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("bicinium compose: --netA and --netB are required "
                            "without --agent-only\n")
    assert captured.out == ""


@pytest.mark.parametrize("plans", [["--plan1", "1 2"], ["--plan2", "0,1,0,1"],
                                   ["--plan1", "0.8,0,0.8,0",
                                    "--plan2", "0,1,0,1"]])
def test_cli_compose_agent_only_refuses_plans(plans, tmp_path, capsys):
    # agent-only runs no net, so a plan given there would be ignored
    trace = tmp_path / "trace.csv"
    code = main(["compose", "--agent-only", *plans, "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("bicinium compose: --plan1 and --plan2 set the "
                            "nets' plans and cannot be used with "
                            "--agent-only\n")
    assert captured.out == ""
    assert not trace.exists()


@pytest.mark.parametrize("argv", [
    ["compose", "--agent-only", "--length", "1001"],
    ["compose", "--agent-only", "--length", "100000000000000000000"],
    ["generate", "--plan", "1,0,0,0", "--length", "1001"],
])
def test_cli_refuses_length_above_the_cap(argv, tmp_path, capsys):
    if argv[0] == "generate":
        ckpt = tmp_path / "net.ckpt"
        save_net(SequentialNet.new(seed=1), ckpt)
        argv = [*argv, "--net", str(ckpt)]
    code = main(argv)
    captured = capsys.readouterr()
    assert_one_line_refusal(code, captured.err, argv[0],
                            "length must be at most 1000, got")
    assert captured.out == ""


@pytest.mark.parametrize("two_voice", ["net1", "net2"])
def test_cli_compose_rejects_two_voice_net(two_voice, tmp_path, capsys):
    paths = []
    for name in ("net1", "net2"):
        paths.append(tmp_path / f"{name}.ckpt")
        save_net(SequentialNet.new(voices=2 if name == two_voice else 1,
                                   seed=1), paths[-1])
    code = main(["compose", "--netA", str(paths[0]), "--netB", str(paths[1])])
    captured = capsys.readouterr()
    assert_one_line_refusal(code, captured.err, "compose",
                            f"{two_voice} is a 2-voice net")
    assert captured.out == ""


@pytest.mark.parametrize("flags,message", [
    (["--plan1", "1,0,0"], "plan1 has 3 values, but net1 takes a plan of 4"),
    (["--plan2", "0,1,0,1,0"],
     "plan2 has 5 values, but net2 takes a plan of 4"),
    # --plan2 inf used to print a duet and exit 0; --plan1 nan failed at
    # bar 0 with a message that named neither plan
    (["--plan2", "inf,0,0,0"], "plan2 holds a non-finite value"),
    (["--plan1", "nan,0,0,0"], "plan1 holds a non-finite value"),
    (["--plan1", "0,-inf,0,0"], "plan1 holds a non-finite value"),
])
def test_cli_compose_names_the_plan_that_does_not_fit(flags, message,
                                                      tmp_path, capsys):
    paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for seed, path in enumerate(paths, start=1):
        save_net(SequentialNet.new(seed=seed), path)
    code = main(["compose", "--netA", str(paths[0]), "--netB", str(paths[1]),
                 *flags])
    captured = capsys.readouterr()
    assert_one_line_refusal(code, captured.err, "compose", message)
    assert captured.out == ""
