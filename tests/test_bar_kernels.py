"""The per-bar fast path of two-net compose against plain references.

``map_to_gamut`` runs on Python floats over a per-previous-pitch unit
table; ``reference_map_to_gamut`` below is the per-pitch numpy loop it
replaced, kept as the oracle.  ``encode_note`` and the fed-back 19-codes
read the same table; ``reference_encode_note`` is the arithmetic encoder
it replaced.  Negotiation reads its candidates, each with its bonus, from
one table per rule key and takes activation lists as they are, the
agent-only choice is made once per (rule key, weight), and the rules
compute each mask once per rule key.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicinium import negotiation, rules, seqnet
from bicinium.cli import main
from bicinium.composer import CompositionConfig, compose
from bicinium.gamut import GAMUT, Pitch
from bicinium.negotiation import (
    COIN_VALUES,
    DeadEnd,
    UtilityWeights,
    contrary_motion_bonus,
    negotiate,
)
from bicinium.rules import DuetState, legal_pairs
from bicinium.seqnet import (
    NOTE_CODE_SIZE,
    SequentialNet,
    encode_note,
    load_net,
    map_to_gamut,
    save_net,
)

from test_rules import any_states


def reference_products(out, prev: Pitch | None = None) -> np.ndarray:
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
    return acts


def reference_map_to_gamut(out, prev: Pitch | None = None) -> np.ndarray:
    acts = reference_products(out, prev)
    peak = acts.max()
    return acts / peak if peak > 0 else acts


def reference_encode_note(cur: Pitch, prev: Pitch | None = None) -> np.ndarray:
    code = np.zeros(NOTE_CODE_SIZE)
    code[cur.index if cur.index <= 7 else cur.index - 7] = 1.0
    if prev is not None:
        delta = cur.index - prev.index
        if abs(delta) > 8:
            raise ValueError(
                f"step {prev.name}->{cur.name} spans {abs(delta)} steps, "
                "beyond the 9 interval units")
        code[8 + abs(delta)] = 1.0
        if delta > 0:
            code[17] = 1.0
        elif delta < 0:
            code[18] = 1.0
    return code


previous = st.sampled_from(GAMUT + (None,))
# Few distinct values make ties and zero products common.
tied = st.sampled_from([0.0, 0.25, 0.5, 1.0])
blocks = st.lists(st.floats(0.0, 1.0) | tied, min_size=19, max_size=19)
any_floats = st.lists(st.floats(width=64) | tied, min_size=19, max_size=19)


def assert_bit_identical(got, want):
    assert type(got) is list and len(got) == 13
    assert all(type(v) is float for v in got)
    assert np.array(got).tobytes() == want.tobytes()


@given(blocks, previous)
def test_map_to_gamut_equals_reference(block, prev):
    got = map_to_gamut(np.array(block), prev)
    want = reference_map_to_gamut(block, prev)
    assert (got == want).all()
    assert_bit_identical(got, want)


@given(any_floats, previous)
@example([1e308] * 19, None)  # finite products whose sum overflows
@example([math.inf] * 19, None)
@example([-math.inf] * 19, GAMUT[7])
@example([-0.0] * 19, None)  # negative zeros pass, as in negotiation
def test_map_to_gamut_scores_finite_products_and_refuses_the_rest(block,
                                                                  prev):
    # negative, huge, infinite and NaN activations: the reference's result
    # where its products are all finite and non-negative, else ValueError
    with np.errstate(all="ignore"):
        products = reference_products(block, prev)
        want = reference_map_to_gamut(block, prev)
    if (np.isfinite(products) & (products >= 0)).all():
        assert_bit_identical(map_to_gamut(block, prev), want)
    else:
        with pytest.raises(ValueError, match="finite and non-negative"):
            map_to_gamut(block, prev)


@pytest.mark.parametrize("prev", GAMUT + (None,))
def test_map_to_gamut_all_zero_and_all_tied(prev):
    for value in (0.0, 0.5, 1.0):
        block = np.full(NOTE_CODE_SIZE, value)
        assert_bit_identical(map_to_gamut(block, prev),
                             reference_map_to_gamut(block, prev))


@pytest.mark.parametrize("prev", GAMUT + (None,))
def test_map_to_gamut_list_passes_negotiation_as_it_is(prev):
    for block in (np.full(NOTE_CODE_SIZE, 0.5), np.zeros(NOTE_CODE_SIZE),
                  np.linspace(0.1, 1, NOTE_CODE_SIZE)):
        acts = map_to_gamut(block, prev)
        values = negotiation._as_activations(acts)
        assert values == acts
        assert type(values) is list and set(map(type, values)) == {float}


@pytest.mark.parametrize("prev", GAMUT + (None,))
def test_encode_note_equals_reference(prev):
    for note in GAMUT:
        try:
            want = reference_encode_note(note, prev)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                encode_note(note, prev)
            assert str(refused.value) == str(exc)
            continue
        got = encode_note(note, prev)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.flags.writeable


def test_feedback_codes_equal_encode_note():
    for prev in GAMUT + (None,):
        for note in GAMUT:
            leap = prev is not None and abs(note.index - prev.index) > 8
            want = encode_note(note) if leap else encode_note(note, prev)
            got = seqnet._feedback_code(note, prev)
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
                [1e308] * 13, [-0.0] * 13):
        values = negotiation._as_activations(act)
        assert type(values) is list and len(values) == 13
        assert all(type(v) is float for v in values)
        assert values == [float(v) for v in act]


@pytest.mark.parametrize("array_name,index", [("w1", 0), ("b2", 7),
                                              ("b2", 17)])
def test_nan_checkpoint_raises_rather_than_dead_ends(tmp_path, capsys,
                                                     array_name, index):
    # b2[7] feeds the re8 degree unit the default opening reads; b2[17]
    # the ascending unit, first read at the second bar.  In memory, compose
    # refuses the NaN activations; from a file, load_net refuses the net.
    bad = SequentialNet.new(seed=1)
    getattr(bad, array_name).flat[index] = math.nan
    good = SequentialNet.new(seed=2)
    for start in (CompositionConfig().start_pair, None):
        cfg = CompositionConfig(length=8, start_pair=start)
        with pytest.raises(ValueError, match="finite and non-negative"):
            compose(bad, good, cfg)
    save_net(bad, tmp_path / "bad.ckpt")
    save_net(good, tmp_path / "good.ckpt")
    message = f"bad.ckpt: {array_name} holds a non-finite value"
    with pytest.raises(ValueError, match=message):
        load_net(tmp_path / "bad.ckpt")
    code = main(["compose", "--netA", str(tmp_path / "bad.ckpt"),
                 "--netB", str(tmp_path / "good.ckpt")])
    assert code == 1
    assert message in capsys.readouterr().err


def negotiated_keys(result, length):
    """Rule keys of the states a compose negotiated (or scored the start
    pair) at: one per bar placed, plus the dead end's."""
    bars = len(result.trace) + (not result.complete)
    state = DuetState(length)
    keys = [state._key]
    for pair in result.pairs[:bars - 1]:
        state = state.append(pair)
        keys.append(state._key)
    assert len(keys) == bars
    return keys


def bar_weights(cfg, bars):
    """The contrary-motion weight of each of the first ``bars`` bars."""
    if cfg.weights.mode != "coin_toss":
        return [cfg.weights.cm_weight] * bars
    rng = np.random.default_rng(cfg.seed)
    return [COIN_VALUES[int(rng.integers(2))] for _ in range(bars)]


@pytest.mark.parametrize("start", [CompositionConfig().start_pair, None],
                         ids=["pinned", "open"])
def test_coin_draw_equals_per_bar_draws(start):
    # compose draws a run's coins in one call: every trace, complete or
    # dead-ended, holds the weights of one integers(2) per bar
    dead_ends = 0
    for seed in range(200):
        for length in range(2, 21):
            cfg = CompositionConfig(length=length, seed=seed, agent_only=True,
                                    start_pair=start,
                                    weights=UtilityWeights(mode="coin_toss"))
            result = compose(None, None, cfg)
            weights = [step.weight for step in result.trace]
            assert weights == bar_weights(cfg, len(weights)), (seed, length)
            dead_ends += not result.complete
    assert dead_ends


@pytest.mark.parametrize("finalis", [True, False], ids=["finalis", "open_end"])
@pytest.mark.parametrize("start", [CompositionConfig().start_pair, None],
                         ids=["pinned", "open"])
def test_coin_draw_beyond_twenty_bars(start, finalis):
    # two coins per raw 64-bit word: an odd length cuts the last word's
    # second coin, and without the finalis every run places every bar, so
    # the last coin of each length is compared too
    for seed in range(20):
        for length in [*range(21, 42), 999, 1000]:
            cfg = CompositionConfig(length=length, seed=seed, agent_only=True,
                                    start_pair=start, finalis=finalis,
                                    weights=UtilityWeights(mode="coin_toss"))
            result = compose(None, None, cfg)
            weights = [step.weight for step in result.trace]
            assert weights == bar_weights(cfg, len(weights)), (seed, length)
            assert finalis or len(weights) == length


def test_legality_cache_misses_once_per_key():
    # the candidate tables are cleared too: one left by an earlier test
    # would answer a dead-end bar without reading the rules
    rules._rules_at.cache_clear()
    negotiation._candidates.cache_clear()
    net1, net2 = SequentialNet.new(seed=1), SequentialNet.new(seed=2)
    result = compose(net1, net2, CompositionConfig(length=12, start_pair=None))
    keys = set(negotiated_keys(result, 12))
    info = rules._rules_at.cache_info()
    assert info.misses == info.currsize == len(keys)


def test_candidates_cached_no_more_than_keys():
    # one candidate table per rule key, built on its first use, and one
    # agent-only choice per (rule key, weight) the loop negotiated at
    negotiation._candidates.cache_clear()
    negotiation._unoffered_choice.cache_clear()
    starts = [None] + [(a, b) for a in GAMUT for b in GAMUT
                       if rules.check_pair(DuetState(2), (a, b)).legal]
    keys, choices = set(), set()
    for start in starts:
        for length in (2, 5, 9, 14):
            for mode in ("deterministic", "coin_toss"):
                cfg = CompositionConfig(length=length, start_pair=start,
                                        weights=UtilityWeights(mode=mode),
                                        agent_only=True)
                result = compose(None, None, cfg)
                bar_keys = negotiated_keys(result, length)
                keys.update(bar_keys)
                chosen = zip(bar_keys, bar_weights(cfg, len(bar_keys)))
                # the start pair is scored, not chosen
                choices.update(list(chosen)[start is not None:])
    info = negotiation._candidates.cache_info()
    assert info.misses == info.currsize == len(keys)
    info = negotiation._unoffered_choice.cache_info()
    assert info.misses == info.currsize == len(choices)


@settings(max_examples=200, deadline=None)
@given(any_states())
def test_candidate_table_lists_the_legal_pairs_and_their_bonus(state):
    table = negotiation._candidates(state._key)
    listed = [(GAMUT[i], GAMUT[j]) for _, i, j, _ in table]
    assert listed == legal_pairs(state)
    prev = state.history[-1] if state.history else None
    for (k, i, j, bonus), pair in zip(table, listed):
        assert k == i * len(GAMUT) + j
        assert bonus == (0.0 if prev is None
                         else contrary_motion_bonus(prev, pair))


# Equal weights of different types, signed zeros, and extremes: the cache
# must keep each one's result and its type apart.
WEIGHTS = [1, 1.0, True, np.float64(1.0), 0.5, 1.49, 0.0, -0.0, -1.0,
           5e-324, 1e308]


@settings(max_examples=200, deadline=None)
@given(any_states())
def test_unoffered_choice_equals_the_uncached_loop(state):
    for w in WEIGHTS:
        got = negotiate(state, negotiation._NO_OFFER, negotiation._NO_OFFER, w)
        want = negotiate(state, [0.0] * 13, [0.0] * 13, w)
        if isinstance(want, DeadEnd):
            assert got == want, w
            continue
        assert got.pair == want.pair, w
        assert float.hex(float(got.utility)) == float.hex(float(want.utility))
        assert type(got.utility) is type(want.utility), w
