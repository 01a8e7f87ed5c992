import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicinium.gamut import GAMUT, IntervalQuality, interval_quality, interval_steps
from bicinium.negotiation import negotiate, system_utility
from bicinium.rules import (
    MAX_IMPERFECT_RUN,
    MAX_INTERIOR_PERFECT,
    DuetState,
    check_pair,
    legal_bits,
    legal_pairs,
    pair_bit,
    validate_duet,
)

from conftest import AGENT_ONLY_DUET, NONDET_DUETS, TRAINING_DUET, pairs, pitches
from scalar_rules import history_counters, scalar_violations

gamut_pitch = st.sampled_from(GAMUT)
note_pair = st.tuples(gamut_pitch, gamut_pitch)


def test_unison_legal_at_opening(p):
    state = DuetState(length=8)
    assert check_pair(state, (p("re8"), p("re8"))).legal


def test_opening_third_breaks_rule_2(p):
    state = DuetState(length=8)
    assert check_pair(state, (p("re8"), p("fa8"))).violations == {2}


def test_parallel_octaves(p):
    # octave reached by similar motion; the unchanged interval also
    # breaks the interval-difference rule
    state = DuetState.from_history(8, ((p("re"), p("re8")),))
    verdict = check_pair(state, (p("mi"), p("mi8")))
    assert verdict.violations == {4, 5}


def test_same_direction_double_skip(p):
    history = pairs("re8 do8 la sol fa la", "re8 mi8 fa8 sol8 la8 fa8")
    state = DuetState.from_history(8, history)
    verdict = check_pair(state, (p("re"), p("re")))
    # both voices skip down, one by more than a fourth; the interior
    # unison and the similar-motion perfect also register
    assert 8 in verdict.violations
    assert verdict.violations == {3, 4, 8}


def test_interior_unison_breaks_rule_3(p):
    state = DuetState.from_history(8, pairs("re8 do8", "re8 mi8"))
    assert 3 in check_pair(state, (p("la"), p("la"))).violations


def test_tenth_cap_rule_6(p):
    state = DuetState.from_history(8, pairs("re8 do8", "re8 mi8"))
    assert 6 in check_pair(state, (p("re"), p("la8"))).violations


def test_repeat_breaks_rule_9(p):
    state = DuetState.from_history(8, pairs("re8 do8", "re8 mi8"))
    assert 9 in check_pair(state, (p("do8"), p("la8"))).violations


def test_fifth_run_of_thirds_breaks_rule_7(p):
    history = pairs("re8 si la sol fa", "re8 re8 do8 si la")
    state = DuetState.from_history(8, history)
    assert 7 in check_pair(state, (p("mi"), p("sol"))).violations
    # a sixth resets the family even though it is also imperfect
    assert 7 not in check_pair(state, (p("re"), p("si"))).violations


def test_third_interior_perfect_breaks_rule_10(p):
    history = pairs("re8 re la", "re8 la mi8")
    state = DuetState.from_history(8, history)
    assert 10 in check_pair(state, (p("fa"), p("do8"))).violations
    assert 10 not in check_pair(state, (p("fa"), p("la"))).violations


def test_finalis_rule_11(p):
    history = pairs("re8 do8 la sol la mi la", "re8 mi8 fa8 sol8 fa8 sol8 fa8")
    state = DuetState.from_history(8, history)
    assert 11 in check_pair(state, (p("sol"), p("sol8"))).violations
    off = DuetState.from_history(8, history, finalis=False)
    assert 11 not in check_pair(off, (p("sol"), p("sol8"))).violations


def test_check_pair_beyond_length_raises(p):
    # every reader of the rule key refuses a complete duet
    state = DuetState.from_history(2, pairs("re8 re", "re8 re"))
    pair, zero = (p("re"), p("re")), [0.0] * 13
    for read in (lambda: check_pair(state, pair),
                 lambda: legal_pairs(state),
                 lambda: negotiate(state, zero, zero),
                 lambda: system_utility(state, pair, zero, zero)):
        with pytest.raises(ValueError, match="beyond"):
            read()
    with pytest.raises(ValueError, match="already complete"):
        state.append(pair)


@pytest.mark.parametrize("v1,v2", [AGENT_ONLY_DUET, TRAINING_DUET] + NONDET_DUETS)
def test_source_duets_are_fully_legal(v1, v2):
    report = validate_duet(pitches(v1), pitches(v2))
    assert report.legal, str(report)


def test_every_adjacent_pair_of_nondet_duet_1():
    v1, v2 = (pitches(t) for t in NONDET_DUETS[0])
    state = DuetState(length=len(v1))
    for pair in zip(v1, v2):
        assert check_pair(state, pair).legal
        state = state.append(pair)


def test_repeated_pair_fails_at_position_1(p):
    report = validate_duet(pitches("re8 re8"), pitches("re8 re8"))
    assert not report.legal
    assert report.verdicts[0].legal
    assert report.verdicts[1].violations == {9}


def test_validate_rejects_unequal_lengths(p):
    with pytest.raises(ValueError, match="length"):
        validate_duet(pitches("re8 re8"), pitches("re8"))


def test_validate_rejects_empty_duet():
    with pytest.raises(ValueError, match="empty duet"):
        validate_duet((), ())


def test_report_format():
    report = validate_duet(pitches("re8 re8"), pitches("re8 re8"))
    lines = str(report).splitlines()
    assert lines[0] == "pos=0 pair=re8:re8 verdict=legal"
    assert lines[1] == "pos=1 pair=re8:re8 verdict=rules 9"


def test_legal_pairs_matches_brute_force_at_opening():
    state = DuetState(length=8)
    got = legal_pairs(state)
    expected = [(a, b) for a in GAMUT for b in GAMUT
                if check_pair(state, (a, b)).legal]
    assert got == expected
    names = {(a.name, b.name) for a, b in got}
    assert {("re", "re"), ("re", "la"), ("re", "re8"),
            ("re8", "re8")} <= names
    assert all(interval_quality(a, b) is IntervalQuality.PERFECT_CONSONANT
               for a, b in got)


def test_dead_end_state_exists(p):
    # ending position reachable only by a perfect re-degree pair, but the
    # previous interval admits none of the four candidates
    state = DuetState.from_history(3, pairs("re sol", "la si"))
    assert legal_pairs(state) == []


# Thirds make runs at the rule-7 cap common enough to reach, and perfects
# interior counts at the rule-10 cap.
third_or_any = st.sampled_from([(a, b) for a in GAMUT for b in GAMUT
                                if interval_steps(a, b) in (2, 9)]) | note_pair
perfect_pair = st.sampled_from([
    (a, b) for a in GAMUT for b in GAMUT
    if interval_quality(a, b) is IntervalQuality.PERFECT_CONSONANT])


@st.composite
def random_states(draw):
    length = draw(st.integers(3, 10))
    n = draw(st.integers(0, length - 1))
    pairs_of = draw(st.sampled_from([third_or_any, perfect_pair | note_pair]))
    history = tuple(draw(pairs_of) for _ in range(n))
    return DuetState.from_history(length, history)


@settings(max_examples=200)
@given(random_states())
def test_cached_counters_match_recompute(state):
    # the rule key's slots equal the oracle's scan of the history, with
    # the rule-7 run and the rule-10 count capped at their thresholds
    fam, run, interior = history_counters(state)
    t = state.position
    last = t == state.length - 1
    assert state._key == (pair_bit(state.history[-1]) if t else -1, fam,
                          min(run, MAX_IMPERFECT_RUN),
                          min(interior, MAX_INTERIOR_PERFECT),
                          last, state.finalis and last)


def test_constructor_takes_no_history_or_counters():
    # a history passed in would keep the empty duet's rule key and so
    # disagree with it; only append and from_history grow a state
    history = pairs("re8 do8 si la", "fa8 mi8 re8 do8")  # four thirds
    for field, value in (("history", history),
                         ("_key", (-1, 3, 4, 0, False, False))):
        with pytest.raises(TypeError, match=field):
            DuetState(8, **{field: value})
    with pytest.raises(TypeError):
        DuetState(8, history)  # finalis is keyword-only


@settings(max_examples=50)
@given(random_states())
def test_accepted_duets_satisfy_scannable_rules(state):
    # any full duet the validator accepts has at most 2 interior perfect
    # consonances, no interior unisons, and no interval over 9 steps
    if not state.history:
        return
    v1 = [pr[0] for pr in state.history]
    v2 = [pr[1] for pr in state.history]
    report = validate_duet(v1, v2, finalis=state.finalis)
    if not report.legal:
        return
    interior = [pr for t, pr in enumerate(state.history)
                if 0 < t < len(state.history) - 1]
    assert sum(interval_quality(*pr) is IntervalQuality.PERFECT_CONSONANT
               for pr in interior) <= 2
    assert all(interval_steps(*pr) > 0 for pr in interior)
    assert all(interval_steps(*pr) <= 9 for pr in state.history)


@st.composite
def any_states(draw):
    """States after arbitrary histories, legal or not."""
    length = draw(st.integers(2, 20))
    history = tuple(draw(st.lists(note_pair, max_size=length - 1)))
    return DuetState.from_history(length, history, finalis=draw(st.booleans()))


ALL_PAIRS = [(a, b) for a in GAMUT for b in GAMUT]


@settings(max_examples=300, deadline=None)
@given(any_states())
def test_check_pair_matches_scalar_rules(state):
    for pair in ALL_PAIRS:
        assert check_pair(state, pair).violations == \
            scalar_violations(state, pair), pair


@settings(max_examples=100, deadline=None)
@given(any_states())
def test_legal_pairs_matches_brute_force(state):
    expected = [pair for pair in ALL_PAIRS
                if not scalar_violations(state, pair)]
    assert legal_pairs(state) == expected
    assert legal_bits(state).bit_count() == len(expected)


def key_class(pair):
    """What a pair before the last adds to the rule key: its imperfect
    family (rule 7) and whether it is perfect (rule 10)."""
    steps = interval_steps(*pair)
    return (3 if steps in (2, 9) else 6 if steps in (5, 12) else 0,
            interval_quality(*pair) is IntervalQuality.PERFECT_CONSONANT)


PAIRS_OF_CLASS = {}
for _pair in ALL_PAIRS:
    PAIRS_OF_CLASS.setdefault(key_class(_pair), []).append(_pair)


@st.composite
def same_key_states(draw):
    """A state after arbitrary pairs and another state with the same rule
    key: it keeps the first state's last few pairs, at least the last one,
    and replaces each earlier pair by one of the same ``key_class``.  When
    the first pair is not perfect, pairs of neither family that are not
    perfect may go before it, so the second state sits at a later position.
    It may differ in length and ``finalis`` where the key does not read
    them."""
    length = draw(st.integers(2, 20))
    history = tuple(draw(st.lists(third_or_any, max_size=length - 1)))
    a = DuetState.from_history(length, history, finalis=draw(st.booleans()))
    n = len(history)
    keep = draw(st.integers(min(n, 1), n))
    history = tuple(draw(st.sampled_from(PAIRS_OF_CLASS[key_class(pair)]))
                    for pair in history[:n - keep]) + history[n - keep:]
    if n and not key_class(history[0])[1]:
        history = tuple(draw(st.lists(st.sampled_from(
            PAIRS_OF_CLASS[0, False]), max_size=max(0, 18 - n)))) + history
    t = len(history)
    if n == length - 1:  # last: the length and finalis are in the key
        b = DuetState.from_history(t + 1, history, finalis=a.finalis)
    else:
        b = DuetState.from_history(draw(st.integers(t + 2, 20)), history,
                                   finalis=draw(st.booleans()))
    assert a._key == b._key
    return a, b


@settings(max_examples=300, deadline=None)
@given(same_key_states())
def test_equal_keys_get_equal_scalar_verdicts(states):
    a, b = states
    for pair in ALL_PAIRS:
        assert scalar_violations(a, pair) == scalar_violations(b, pair), pair
