import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicinium.gamut import (
    GAMUT,
    IntervalQuality,
    Motion,
    interval_quality,
    interval_steps,
    motion,
    pitch_from_name,
    signed_interval,
)

import scalar_rules

gamut_pitch = st.sampled_from(GAMUT)


def test_gamut_is_a_bijection():
    assert len(GAMUT) == 13
    assert len({p.name for p in GAMUT}) == 13
    assert len({p.semitone for p in GAMUT}) == 13
    assert [p.index for p in GAMUT] == list(range(13))


def test_diatonic_octaves_are_perfect():
    for i in range(6):
        assert GAMUT[i + 7].semitone - GAMUT[i].semitone == 12


def test_pitch_from_name_examples():
    assert pitch_from_name("re8").index == 7
    assert pitch_from_name("re8").semitone == 12
    assert pitch_from_name("re") == GAMUT[0]
    assert pitch_from_name("si8").index == 12
    assert pitch_from_name("si8").semitone == 21
    assert pitch_from_name("SOL8") == pitch_from_name("sol8")


@pytest.mark.parametrize("bad", ["do", "ut", "re9", "", "re8x"])
def test_pitch_from_name_rejects(bad):
    with pytest.raises(ValueError, match=repr(bad)):
        pitch_from_name(bad)


def test_interval_steps_examples(p):
    assert interval_steps(p("re8"), p("re8")) == 0
    assert interval_steps(p("la8"), p("la")) == 7
    assert interval_steps(p("mi"), p("sol8")) == 9


@given(gamut_pitch, gamut_pitch)
def test_interval_steps_symmetric_nonnegative(a, b):
    assert interval_steps(a, b) == interval_steps(b, a) >= 0


@given(gamut_pitch, gamut_pitch)
def test_signed_interval_antisymmetric(a, b):
    assert signed_interval((a, b)) == -signed_interval((b, a))
    assert abs(signed_interval((a, b))) == interval_steps(a, b)


def test_interval_quality_examples(p):
    assert interval_quality(p("re"), p("la")) is IntervalQuality.PERFECT_CONSONANT
    assert interval_quality(p("si"), p("fa8")) is IntervalQuality.DISSONANT
    assert interval_quality(p("do8"), p("mi8")) is IntervalQuality.IMPERFECT_CONSONANT


def test_tritone_is_the_only_dissonant_fifth():
    # brute force over all 169 pairs: every class-4 dissonance spans
    # 6 semitones, and per octave register there is exactly one such pair
    bad = [(a, b) for a, b in itertools.product(GAMUT, GAMUT)
           if interval_steps(a, b) % 7 == 4
           and interval_quality(a, b) is IntervalQuality.DISSONANT]
    assert all(abs(a.semitone - b.semitone) == 6 for a, b in bad)
    unordered = {frozenset((a.index, b.index)) for a, b in bad}
    assert unordered == {frozenset({5, 9})}  # si, fa8


def test_motion_examples(p):
    assert motion((p("re8"), p("re8")), (p("do8"), p("mi8"))) is Motion.CONTRARY
    assert motion((p("re"), p("re8")), (p("mi"), p("mi8"))) is Motion.SIMILAR
    assert motion((p("re"), p("la")), (p("re"), p("si"))) is Motion.OBLIQUE


@given(gamut_pitch, gamut_pitch, gamut_pitch, gamut_pitch)
def test_motion_cases_are_exhaustive(a1, a2, b1, b2):
    m = motion((a1, a2), (b1, b2))
    d1, d2 = b1.index - a1.index, b2.index - a2.index
    if (d1 == 0) != (d2 == 0):
        assert m is Motion.OBLIQUE
    elif d1 * d2 > 0:
        assert m is Motion.SIMILAR
    else:
        assert m is Motion.CONTRARY


def test_scalar_oracle_helpers_agree_with_gamut():
    # the rule oracle's own interval helpers, one pair and one motion at a
    # time: all 169 pairs and all 169 x 169 consecutive pairs
    pairs = list(itertools.product(GAMUT, repeat=2))
    assert list(scalar_rules.SEMITONES) == [p.semitone for p in GAMUT]
    for a, b in pairs:
        assert scalar_rules.steps_between(a, b) == interval_steps(a, b)
        assert scalar_rules.signed_steps((a, b)) == signed_interval((a, b))
        assert scalar_rules.consonance(a, b) == interval_quality(a, b).value
    for prev, cur in itertools.product(pairs, repeat=2):
        assert scalar_rules.motion(prev, cur) == motion(prev, cur).value
