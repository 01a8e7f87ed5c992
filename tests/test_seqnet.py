import itertools
import math
from dataclasses import replace
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicinium.corpus import parse_corpus
from bicinium.gamut import GAMUT, pitch_from_name
from bicinium.seqnet import (
    NOTE_CODE_SIZE,
    SequentialNet,
    decode_pitch,
    encode_note,
    forward,
    generate,
    load_net,
    map_to_gamut,
    save_net,
    step_state,
    train,
)

from gradient_oracle import batch_gradients, batch_loss, reference_train

gamut_pitch = st.sampled_from(GAMUT)


def test_encode_first_note(p):
    code = encode_note(p("re"))
    assert code.tolist() == [1] + [0] * 18


def test_encode_ascending_step(p):
    code = encode_note(p("mi"), p("re"))
    assert code[1] == 1 and code.sum() == 3
    assert code[8 + 1] == 1 and code[17] == 1 and code[18] == 0


def test_encode_descending_step(p):
    code = encode_note(p("do8"), p("re8"))
    assert code[6] == 1
    assert code[8 + 1] == 1 and code[18] == 1 and code[17] == 0


def test_encode_upper_octave_folds_degree(p):
    assert encode_note(p("mi8"))[1] == 1
    assert encode_note(p("re8"))[7] == 1


def test_encode_rejects_wide_leap(p):
    with pytest.raises(ValueError, match="beyond"):
        encode_note(p("si8"), p("re"))


@given(gamut_pitch, gamut_pitch)
def test_encode_unit_counts(cur, prev):
    if abs(cur.index - prev.index) > 8:
        return
    code = encode_note(cur, prev)
    assert code[:8].sum() == 1
    assert code[8:17].sum() == 1
    assert code[17:].sum() == (0 if cur == prev else 1)


def test_forward_zero_weights_gives_half():
    net = SequentialNet.new(seed=0)
    net.w1[:] = 0; net.b1[:] = 0; net.w2[:] = 0; net.b2[:] = 0
    out = forward(net, np.zeros(4), net.fresh_state())
    assert np.allclose(out, 0.5)


def test_forward_shapes_and_range():
    net = SequentialNet.new(hidden_size=15, voices=1, seed=3)
    out = forward(net, np.ones(4), net.fresh_state())
    assert out.shape == (19,)
    assert np.all((out > 0) & (out < 1))
    with pytest.raises(ValueError):
        forward(net, np.ones(3), net.fresh_state())


def test_forward_deterministic():
    a = forward(SequentialNet.new(seed=11), np.ones(4),
                np.linspace(0, 1, 19))
    b = forward(SequentialNet.new(seed=11), np.ones(4),
                np.linspace(0, 1, 19))
    assert np.array_equal(a, b)


def test_step_state_formula():
    net = SequentialNet.new(decay=0.7, seed=0)
    state = net.fresh_state()
    assert type(state) is np.ndarray and np.array_equal(state, np.zeros(19))
    state = step_state(net, state, np.full(19, 0.5))
    state = step_state(net, state, np.full(19, 0.5))
    # s2 = 0.7*0.5 + 0.5
    assert np.allclose(state, 0.85)
    one = step_state(net, np.full(19, 1.0), np.full(19, 0.5))
    assert np.allclose(one, 1.2)
    with pytest.raises(ValueError, match="length mismatch"):
        step_state(net, state, np.zeros(18))


def test_step_state_degenerate_decay():
    net = SequentialNet.new(decay=0.0, seed=0)
    state = step_state(net, net.fresh_state(), np.arange(19.0))
    assert np.array_equal(state, np.arange(19.0))


def test_map_to_gamut_interval_veto(p):
    out = np.zeros(19)
    out[:8] = 1.0          # all pitch degrees equally expected
    out[8 + 1] = 1.0       # step of one
    out[17] = 1.0          # ascending
    acts = map_to_gamut(out, p("sol"))
    assert int(np.argmax(acts)) == p("la").index


def test_map_to_gamut_first_note(p):
    out = np.zeros(19)
    out[0] = 1.0
    acts = map_to_gamut(out)
    winners = {GAMUT[i].name for i, a in enumerate(acts) if a == max(acts)}
    assert winners == {"re"}
    out = np.zeros(19)
    out[7] = 1.0
    assert decode_pitch(out) == p("re8")


def test_map_to_gamut_all_zero(p):
    assert map_to_gamut(np.zeros(19)) == [0.0] * 13
    # every pitch ties at zero, and the first (lowest) one wins
    assert decode_pitch(np.zeros(19)) == p("re")
    assert decode_pitch(np.zeros(19), p("sol")) == p("re")


def test_map_to_gamut_normalized():
    rng = np.random.default_rng(0)
    acts = map_to_gamut(rng.uniform(0.1, 1, 19), GAMUT[5])
    assert type(acts) is list and len(acts) == 13
    assert max(acts) == pytest.approx(1.0)


@given(gamut_pitch, gamut_pitch)
def test_encode_decode_roundtrip(cur, prev):
    if abs(cur.index - prev.index) > 8:
        return
    assert decode_pitch(encode_note(cur, prev), prev) == cur


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    net = SequentialNet.new(plan_size=3, hidden_size=6, voices=1, seed=7)
    inputs = rng.uniform(0, 1, size=(5, net.plan_size + net.output_size))
    targets = rng.uniform(0, 1, size=(5, net.output_size))
    analytic = batch_gradients(net, inputs, targets)
    eps = 1e-5
    numeric = []
    for arr in (net.w1, net.b1, net.w2, net.b2):
        grad = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            up = batch_loss(net, inputs, targets)
            arr[idx] = orig - eps
            down = batch_loss(net, inputs, targets)
            arr[idx] = orig
            grad[idx] = (up - down) / (2 * eps)
        numeric.append(grad)
    num = np.concatenate([g.ravel() for g in numeric])
    ana = np.concatenate([g.ravel() for g in analytic])
    rel = np.linalg.norm(num - ana) / max(np.linalg.norm(num),
                                          np.linalg.norm(ana))
    assert rel <= 1e-5


@pytest.mark.parametrize("learning_rate", [2.0, 0.0])
@pytest.mark.parametrize("hidden", [8, 15, 24])
@pytest.mark.parametrize("corpus_file", ["cantus_one_voice.txt",
                                         "duets_two_voice.txt"])
def test_train_matches_reference_loop_bit_for_bit(corpus_file, hidden,
                                                  learning_rate):
    text = (resources.files("bicinium.data") / corpus_file).read_text()
    corpus = parse_corpus(text)
    samples = corpus.training_set()
    net = SequentialNet.new(hidden_size=hidden, voices=corpus.voices,
                            seed=hidden)
    ref = SequentialNet.new(hidden_size=hidden, voices=corpus.voices,
                            seed=hidden)
    arrays = (net.w1, net.b1, net.w2, net.b2)
    curve = train(net, samples, epochs=4, learning_rate=learning_rate)
    expected = reference_train(ref, samples, epochs=4,
                               learning_rate=learning_rate)
    assert all(type(v) is float for v in curve)
    assert [v.hex() for v in curve] == [v.hex() for v in expected]
    for name, before in zip(("w1", "b1", "w2", "b2"), arrays):
        got, want = getattr(net, name), getattr(ref, name)
        assert got is before  # updated in place
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_train_zero_learning_rate_is_a_no_op(p):
    net = SequentialNet.new(seed=0)
    before = [a.copy() for a in (net.w1, net.b1, net.w2, net.b2)]
    corpus = [((1.0, 0, 0, 0), ((p("re8"), p("la8"), p("sol8")),))]
    curve = train(net, corpus, epochs=5, learning_rate=0.0)
    assert all(np.array_equal(a, b)
               for a, b in zip(before, (net.w1, net.b1, net.w2, net.b2)))
    assert len(set(curve)) == 1


def test_train_empty_corpus_raises():
    with pytest.raises(ValueError, match="empty"):
        train(SequentialNet.new(seed=0), [], epochs=1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_train_refuses_a_non_finite_plan_label(p, bad):
    # such a label would train every weight to NaN, and load_net refuses
    # the checkpoint save_net would then write
    net = SequentialNet.new(seed=0)
    before = [a.copy() for a in (net.w1, net.b1, net.w2, net.b2)]
    corpus = [((bad, 0, 0, 0), ((p("re8"), p("la8")),))]
    with pytest.raises(ValueError, match="plan label holds a non-finite"):
        train(net, corpus, epochs=1)
    assert all(np.array_equal(a, b)
               for a, b in zip(before, (net.w1, net.b1, net.w2, net.b2)))


def test_train_single_one_note_melody(p):
    net = SequentialNet.new(hidden_size=5, voices=1, seed=0)
    corpus = [((1.0, 0, 0, 0), ((p("re"),),))]
    curve = train(net, corpus, epochs=60000, learning_rate=10.0)
    assert curve[-1] < 1e-6


def test_train_memorizes_small_one_voice_corpus(p):
    melody = tuple(p(t) for t in "re8 la8 sol8 fa8 mi8 re8".split())
    net = SequentialNet.new(hidden_size=15, voices=1, seed=1)
    label = (1.0, 0.0, 0.0, 0.0)
    curve = train(net, [(label, (melody,))], epochs=300, learning_rate=2.0)
    assert curve[-1] < np.mean(curve[:5])
    assert generate(net, label, len(melody)) == (melody,)


def test_generate_deterministic():
    net = SequentialNet.new(seed=4)
    a = generate(net, (0.3, 0.7, 0.3, 0.7), 8)
    b = generate(net, (0.3, 0.7, 0.3, 0.7), 8)
    assert a == b
    assert len(a) == 1 and len(a[0]) == 8


def test_generate_start_needs_one_pitch_per_voice(p):
    # a tuple start is taken as one pitch per voice, so extra pitches are
    # refused too, not only missing ones, and so is anything not a pitch
    net = SequentialNet.new(seed=4)
    for start in ((p("re8"), p("la8")), "re8", ("re8",), [p("re8")]):
        with pytest.raises(ValueError, match=r"one pitch per voice \(1\)"):
            generate(net, (1, 0, 0, 0), 4, start=start)
    assert generate(net, (1, 0, 0, 0), 4, start=(p("re8"),))[0][0] == p("re8")


def test_generate_feeds_back_bare_code_after_a_wide_leap(p):
    # outputs near 1e-304 make every product 0, so re (index 0) is decoded
    # after the pinned si8, 12 steps away: no interval unit codes that leap
    net = SequentialNet.new(seed=4)
    net.w2[:] = 0.0
    net.b2[:] = -700.0
    assert generate(net, (1, 0, 0, 0), 3, start=p("si8")) == \
        ((p("si8"), p("re"), p("re")),)


def test_generate_state_recurrence():
    # independently replay a generation trace with the raw recurrence
    # s_t = decay*s_{t-1} + code_{t-1} and check it decodes identically
    net = SequentialNet.new(seed=9, decay=0.7)
    plan = (0.5, 0.5, 0.0, 0.0)
    (voice,) = generate(net, plan, 8)
    state = np.zeros(net.output_size)
    prev = None
    for note in voice:
        out = forward(net, plan, state)
        block = out[:NOTE_CODE_SIZE]
        assert decode_pitch(block, prev) == note
        state = 0.7 * state + encode_note(note, prev)
        prev = note


def test_new_rejects_a_net_without_voices():
    with pytest.raises(ValueError, match="voices must be at least 1, got 0"):
        SequentialNet.new(voices=0)


def test_new_rejects_a_net_without_plan_units():
    with pytest.raises(ValueError, match="plan_size must be at least 1, got 0"):
        SequentialNet.new(plan_size=0)


def test_checkpoint_roundtrip(tmp_path):
    # every size up to plan 5, hidden 8 and voices 3, each with its own
    # seed and a decay from 0 to just under 1: the net reads back to the bit
    decays = (0.0, 0.3, 0.65, 0.7, math.nextafter(1.0, 0.0))
    sizes = itertools.product(range(1, 6), range(1, 9), range(1, 4))
    nets = [SequentialNet.new(hidden_size=7, voices=2, decay=0.65, seed=42)]
    nets += [SequentialNet.new(plan, hidden, voices, decays[i % 5], seed=i)
             for i, (plan, hidden, voices) in enumerate(sizes)]
    path = tmp_path / "net.txt"
    for net in nets:
        save_net(net, path)
        loaded = load_net(path)
        assert loaded.plan_size == net.plan_size
        assert loaded.hidden_size == net.hidden_size
        assert loaded.voices == net.voices
        assert loaded.decay.hex() == net.decay.hex()
        for name in ("w1", "b1", "w2", "b2"):
            got, want = getattr(loaded, name), getattr(net, name)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ValueError, match="checkpoint"):
        load_net(path)


def test_load_rejects_truncated_checkpoint(tmp_path):
    path = tmp_path / "net.txt"
    save_net(SequentialNet.new(hidden_size=5, seed=3), path)
    lines = path.read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.txt"
    for keep in range(1, len(lines)):
        cut.write_text("".join(lines[:keep]))
        with pytest.raises(ValueError, match="cut.txt: truncated"):
            load_net(cut)
    cut.write_text(path.read_text()[:-20])
    with pytest.raises(ValueError, match="cut.txt: truncated"):
        load_net(cut)


def test_load_rejects_shape_disagreeing_with_header(tmp_path):
    path = tmp_path / "net.txt"
    save_net(SequentialNet.new(hidden_size=5, seed=3), path)
    text = path.read_text()
    path.write_text(text.replace("hidden_size 5", "hidden_size 6"))
    with pytest.raises(ValueError, match=r"net.txt: w1 has shape \(5, 23\)"):
        load_net(path)
    path.write_text(text.replace("b2 19", "b2 19 1"))
    with pytest.raises(ValueError, match=r"net.txt: b2 has shape \(19, 1\)"):
        load_net(path)
    # a -1 dimension is read as written, not inferred from the values
    path.write_text(text.replace("w1 5 23", "w1 -1 23"))
    with pytest.raises(ValueError, match=r"net.txt: w1 holds 115 values, "
                       r"but its line declares shape \(-1, 23\)"):
        load_net(path)


BAD_NETS = {  # fields that make a net bad, and the refusal
    "decay 1.5": (lambda net: {"decay": 1.5},
                  r"decay must be in \[0, 1\), got 1\.5"),
    "hidden size lies": (lambda net: {"hidden_size": 16},
                         r"w1 has shape \(15, 23\), but the sizes imply "
                         r"\(16, 23\)"),
    "list weight": (lambda net: {"w1": net.w1.tolist()},
                    "w1 is not a float64 array"),
    "int weight": (lambda net: {"b1": net.b1.astype(int)},
                   "b1 is not a float64 array"),
    "NaN weight": (lambda net: {"b2": np.where(np.arange(19) == 3, np.nan,
                                               net.b2)},
                   "b2 holds a non-finite value"),
}


@pytest.mark.parametrize("case", BAD_NETS)
def test_every_way_to_build_a_net_refuses_a_bad_one(case, tmp_path):
    net = SequentialNet.new(seed=5)
    change, message = BAD_NETS[case]
    bad = change(net)
    with pytest.raises(ValueError, match=message):
        SequentialNet(**vars(net) | bad)
    with pytest.raises(ValueError, match=message):
        replace(net, **bad)
    if "decay" in bad:
        with pytest.raises(ValueError, match=message):
            SequentialNet.new(decay=bad["decay"])
    if case in ("list weight", "int weight"):
        return  # a checkpoint's values always read back as float64 arrays
    path = tmp_path / "bad.ckpt"
    save_net(SimpleNamespace(**vars(net) | bad), path)
    with pytest.raises(ValueError, match="bad.ckpt: " + message):
        load_net(path)
