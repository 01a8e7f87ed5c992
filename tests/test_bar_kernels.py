"""The per-bar fast path of two-net compose against plain references.

``map_to_gamut`` runs on Python floats over a per-previous-pitch unit
table; ``reference_map_to_gamut`` below is the per-pitch numpy loop it
replaced, kept as the oracle.  The fed-back 19-codes come from a table,
negotiation reads candidates from a bounded cache and takes activation
lists as they are, and the legality mask is computed once per bar.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicinium import composer, negotiation, rules
from bicinium.cli import main
from bicinium.composer import CompositionConfig, compose
from bicinium.gamut import GAMUT, Pitch
from bicinium.negotiation import DeadEnd, negotiate
from bicinium.rules import DuetState
from bicinium.seqnet import (
    NOTE_CODE_SIZE,
    SequentialNet,
    encode_note,
    load_net,
    map_to_gamut,
    save_net,
)

from test_negotiation import brute_force_argmax, random_state


def reference_map_to_gamut(out, prev: Pitch | None = None) -> np.ndarray:
    out = np.asarray(out, dtype=float)
    acts = np.zeros(len(GAMUT))
    for p in GAMUT:
        a = out[p.index if p.index <= 7 else p.index - 7]
        if prev is not None:
            delta = p.index - prev.index
            if abs(delta) > 8:
                a = 0.0
            else:
                a *= out[8 + abs(delta)]
                if delta > 0:
                    a *= out[17]
                elif delta < 0:
                    a *= out[18]
        acts[p.index] = a
    peak = acts.max()
    return acts / peak if peak > 0 else acts


previous = st.sampled_from(GAMUT + (None,))
# Few distinct values make ties and zero products common.
tied = st.sampled_from([0.0, 0.25, 0.5, 1.0])
blocks = st.lists(st.floats(0.0, 1.0) | tied, min_size=19, max_size=19)
any_floats = st.lists(st.floats(width=64) | tied, min_size=19, max_size=19)


def assert_bit_identical(got, want):
    """Same values bit for bit, except that a NaN may carry another sign
    or payload (the multiply may see its operands in either order)."""
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert got.shape == (13,)
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@given(blocks, previous)
def test_map_to_gamut_equals_reference(block, prev):
    got = map_to_gamut(np.array(block), prev)
    want = reference_map_to_gamut(block, prev)
    assert (got == want).all()
    assert_bit_identical(got, want)


@given(any_floats, previous)
def test_map_to_gamut_equals_reference_beyond_unit_range(block, prev):
    # negative, huge, infinite and NaN activations take the same path
    with np.errstate(all="ignore"):
        assert_bit_identical(map_to_gamut(block, prev),
                             reference_map_to_gamut(block, prev))


@pytest.mark.parametrize("prev", GAMUT + (None,))
def test_map_to_gamut_all_zero_and_all_tied(prev):
    for value in (0.0, 0.5, 1.0):
        block = np.full(NOTE_CODE_SIZE, value)
        assert_bit_identical(map_to_gamut(block, prev),
                             reference_map_to_gamut(block, prev))


def test_feedback_codes_equal_encode_note():
    for prev in GAMUT + (None,):
        for note in GAMUT:
            leap = prev is not None and abs(note.index - prev.index) > 8
            want = encode_note(note) if leap else encode_note(note, prev)
            got = composer._feedback_code(note, prev)
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype
            assert not got.flags.writeable


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
@pytest.mark.parametrize("kind", [list, np.array])
def test_activations_reject_bad_values(bad, kind):
    values = [0.5] * 13
    values[4] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        negotiation._as_activations(kind(values))


@pytest.mark.parametrize("size", [12, 14])
@pytest.mark.parametrize("kind", [list, np.array])
def test_activations_reject_wrong_shape(size, kind):
    with pytest.raises(ValueError, match="shape"):
        negotiation._as_activations(kind([0.5] * size))
    with pytest.raises(ValueError, match="shape"):
        negotiation._as_activations(np.full((13, 1), 0.5))


def test_activations_come_back_as_python_floats():
    for act in ([0.0] * 13, np.zeros(13), [0] * 13, np.zeros(13, np.float32),
                [np.float64(0.25)] * 13, tuple([0.5] * 13),
                [1e308] * 13):
        values = negotiation._as_activations(act)
        assert type(values) is list and len(values) == 13
        assert all(type(v) is float for v in values)
        assert values == [float(v) for v in act]


def write_net_with_nan(path, array_name, index):
    net = SequentialNet.new(seed=1)
    getattr(net, array_name).flat[index] = math.nan
    save_net(net, path)
    return path


@pytest.mark.parametrize("array_name,index", [("w1", 0), ("b2", 7),
                                              ("b2", 17)])
def test_nan_checkpoint_raises_rather_than_dead_ends(tmp_path, capsys,
                                                     array_name, index):
    # b2[7] feeds the re8 degree unit the default opening reads; b2[17]
    # the ascending unit, first read at the second bar
    bad = write_net_with_nan(tmp_path / "bad.ckpt", array_name, index)
    good = tmp_path / "good.ckpt"
    save_net(SequentialNet.new(seed=2), good)
    for start in (CompositionConfig().start_pair, None):
        cfg = CompositionConfig(length=8, start_pair=start)
        with pytest.raises(ValueError, match="finite"):
            compose(load_net(bad), load_net(good), cfg)
    code = main(["compose", "--netA", str(bad), "--netB", str(good)])
    assert code == 1
    assert "finite and non-negative" in capsys.readouterr().err


def test_candidate_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(negotiation, "_CANDIDATES", {})
    monkeypatch.setattr(negotiation, "_MAX_CANDIDATE_MASKS", 5)
    rng = np.random.default_rng(3)
    for _ in range(200):
        state = random_state(rng)
        act1 = rng.uniform(0, 1, 13)
        act2 = rng.uniform(0, 1, 13)
        expected_pair, expected_u = brute_force_argmax(state, act1, act2, 1.0)
        got = negotiate(state, act1, act2, 1.0)
        assert len(negotiation._CANDIDATES) <= 5
        if expected_pair is None:
            assert isinstance(got, DeadEnd)
        else:
            assert got.pair == expected_pair
            assert got.utility == pytest.approx(expected_u, abs=1e-12)


def test_candidate_cache_default_bound_holds_over_many_runs():
    starts = [None] + [(a, b) for a in GAMUT for b in GAMUT
                       if rules.check_pair(DuetState(2), (a, b)).legal]
    for start in starts:
        for length in (2, 5, 9, 14):
            compose(None, None, CompositionConfig(
                length=length, start_pair=start, agent_only=True))
    assert 0 < len(negotiation._CANDIDATES) <= negotiation._MAX_CANDIDATE_MASKS
    assert negotiation._MAX_CANDIDATE_MASKS == 8192


def test_legality_mask_computed_once_per_bar(monkeypatch):
    calls = []
    original = rules._rule_masks

    def counting(state):
        calls.append(state.position)
        return original(state)

    monkeypatch.setattr(rules, "_rule_masks", counting)
    net1, net2 = SequentialNet.new(seed=1), SequentialNet.new(seed=2)
    result = compose(net1, net2, CompositionConfig(length=12, start_pair=None))
    bars = len(result.trace) + (not result.complete)
    assert sorted(calls) == list(range(bars))
