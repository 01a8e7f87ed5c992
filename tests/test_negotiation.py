import numpy as np
import pytest

from bicinium.gamut import GAMUT, Motion, motion, signed_interval
from bicinium.negotiation import (
    COIN_VALUES,
    Agreement,
    DeadEnd,
    UtilityWeights,
    contrary_motion_bonus,
    negotiate,
    system_utility,
)
from bicinium.rules import DuetState, check_pair

from conftest import pairs

ZERO = np.zeros(13)


def brute_force_argmax(state, act1, act2, w):
    """Independent oracle: score all 169 pairs from the utility formula
    and keep the first strict maximum in canonical scan order."""
    best, best_u = None, None
    prev = state.history[-1] if state.history else None
    for a in GAMUT:
        for b in GAMUT:
            if not check_pair(state, (a, b)).legal:
                continue
            u = act1[a.index] * act2[b.index]
            if prev is not None and motion(prev, (a, b)) is not Motion.SIMILAR:
                d = abs(signed_interval(prev) - signed_interval((a, b)))
                if d:
                    u += w / d
            if best_u is None or u > best_u:
                best, best_u = (a, b), u
    return best, best_u


def random_state(rng):
    length = 8
    state = DuetState(length=length, finalis=bool(rng.integers(2)))
    steps = int(rng.integers(0, 6))
    for _ in range(steps):
        legal = [(a, b) for a in GAMUT for b in GAMUT
                 if check_pair(state, (a, b)).legal]
        if not legal:
            break
        state = state.append(legal[int(rng.integers(len(legal)))])
    return state


def test_cm_direct_value(p):
    prev = (p("re"), p("do8"))  # interval 6
    cur = (p("mi"), p("si"))    # interval 4, contrary motion
    assert contrary_motion_bonus(prev, cur) == pytest.approx(0.5)


def test_cm_matches_source_transition(p):
    assert contrary_motion_bonus((p("re8"), p("re8")),
                                 (p("do8"), p("mi8"))) == pytest.approx(0.5)


def test_cm_zero_for_similar_motion(p):
    assert contrary_motion_bonus((p("re"), p("la")),
                                 (p("mi"), p("si"))) == 0.0


def test_cm_zero_for_unchanged_interval(p):
    # crossing that keeps the directed interval size but flips nothing
    prev = (p("sol"), p("la"))
    cur = (p("fa"), p("sol"))   # both descend -> similar, 0
    assert contrary_motion_bonus(prev, cur) == 0.0
    # oblique with identical directed interval: 1/0 case maps to 0
    prev = (p("sol"), p("si"))
    cur = (p("sol"), p("si"))
    assert contrary_motion_bonus(prev, cur) == 0.0


def test_system_utility_direct(p):
    state = DuetState.from_history(8, pairs("re8 do8", "re8 mi8"))
    act1 = np.zeros(13)
    act2 = np.zeros(13)
    pair = (p("la"), p("fa8"))
    act1[pair[0].index] = 0.5
    act2[pair[1].index] = 0.4
    # contrary, directed interval 2 -> 5
    expected = 0.5 * 0.4 + 1.0 / 3.0
    assert system_utility(state, pair, act1, act2, 1.0) == pytest.approx(expected)


def test_system_utility_zero_for_illegal(p):
    state = DuetState(length=8)
    ones = np.ones(13)
    assert system_utility(state, (p("re8"), p("fa8")), ones, ones, 1.0) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_system_utility_checks_activations_before_legality(p, bad):
    # re8:fa8 breaks rule 2 at the opening; bad activations still raise
    state = DuetState(length=8)
    act = np.full(13, 0.5)
    act[3] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        system_utility(state, (p("re8"), p("fa8")), act, np.ones(13), 1.0)


@pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_raises(p, w):
    # w * 0.0 would turn every zero bonus, the opening's included, into NaN
    states = (DuetState(8), DuetState.from_history(8, pairs("re8", "re8")))
    for state in states:
        with pytest.raises(ValueError, match="cm_weight must be finite"):
            negotiate(state, ZERO, ZERO, w)
        with pytest.raises(ValueError, match="cm_weight must be finite"):
            system_utility(state, (p("la"), p("fa8")), ZERO, ZERO, w)


def test_system_utility_zero_activations_cm_only(p):
    state = DuetState.from_history(8, pairs("re8 do8", "re8 mi8"))
    assert system_utility(state, (p("la"), p("fa8")), ZERO, ZERO,
                          1.0) == pytest.approx(1.0 / 3.0)


def test_utility_weights_validation():
    with pytest.raises(ValueError):
        UtilityWeights(mode="lottery")
    with pytest.raises(ValueError):
        UtilityWeights(cm_weight=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            UtilityWeights(cm_weight=bad)
    # not a real number: the agent-only choice is cached on the weight, and
    # a 0-d array is unhashable
    for bad in (np.array(1.0), "1.0"):
        with pytest.raises(ValueError, match="cm_weight"):
            UtilityWeights(cm_weight=bad)
    for good in (1, True, np.float64(1.0)):
        assert UtilityWeights(cm_weight=good).cm_weight is good


def test_negotiate_second_pair_zero_activations(p):
    state = DuetState.from_history(8, pairs("re8", "re8"))
    got = negotiate(state, ZERO, ZERO, 1.0)
    assert got == Agreement(pair=(p("do8"), p("mi8")), utility=0.5)


def test_negotiate_third_pair_tie_break(p):
    state = DuetState.from_history(8, pairs("re8 do8", "re8 mi8"))
    got = negotiate(state, ZERO, ZERO, 1.0)
    # (si, sol8) reaches the same utility; lower voice-1 index wins
    assert isinstance(got, Agreement)
    assert got.pair == (p("la"), p("fa8"))
    assert got.utility == pytest.approx(1.0 / 3.0)


def test_negotiate_dead_end(p):
    state = DuetState.from_history(3, pairs("re sol", "la si"))
    assert negotiate(state, ZERO, ZERO, 1.0) == DeadEnd(step=2)


def test_negotiate_rejects_bad_activations():
    state = DuetState(length=8)
    with pytest.raises(ValueError, match="shape"):
        negotiate(state, np.zeros(12), ZERO, 1.0)
    with pytest.raises(ValueError, match="finite"):
        negotiate(state, np.full(13, -1.0), ZERO, 1.0)


def test_negotiate_matches_brute_force_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        state = random_state(rng)
        act1 = rng.uniform(0, 1, 13)
        act2 = rng.uniform(0, 1, 13)
        w = float(rng.choice([0.5, 1.0, 1.49]))
        expected_pair, expected_u = brute_force_argmax(state, act1, act2, w)
        got = negotiate(state, act1, act2, w)
        if expected_pair is None:
            assert isinstance(got, DeadEnd)
        else:
            assert got.pair == expected_pair
            assert got.utility == pytest.approx(expected_u, abs=1e-12)


def test_negotiated_utility_is_system_utility_exactly():
    rng = np.random.default_rng(77)
    agreements = 0
    for _ in range(300):
        state = random_state(rng)
        act1 = rng.uniform(0, 1, 13)
        act2 = rng.uniform(0, 1, 13)
        w = float(rng.choice(COIN_VALUES + (1.0,)))
        got = negotiate(state, act1, act2, w)
        if isinstance(got, Agreement):
            agreements += 1
            assert got.utility == system_utility(state, got.pair, act1, act2, w)
    assert agreements > 250


def test_chosen_pair_is_legal_and_dominant():
    rng = np.random.default_rng(99)
    for _ in range(20):
        state = random_state(rng)
        act1 = rng.uniform(0, 1, 13)
        act2 = rng.uniform(0, 1, 13)
        got = negotiate(state, act1, act2, 1.0)
        if isinstance(got, DeadEnd):
            continue
        assert check_pair(state, got.pair).legal
        for a in GAMUT:
            for b in GAMUT:
                assert system_utility(state, (a, b), act1, act2,
                                      1.0) <= got.utility + 1e-12


def test_scaling_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        state = random_state(rng)
        act1 = rng.uniform(0, 1, 13)
        act2 = rng.uniform(0, 1, 13)
        base = negotiate(state, act1, act2, 1.0)
        for c in (2.0, 0.5):
            scaled = negotiate(state, c * act1, c * act2, c * c * 1.0)
            assert type(scaled) is type(base)
            if isinstance(base, Agreement):
                assert scaled.pair == base.pair
