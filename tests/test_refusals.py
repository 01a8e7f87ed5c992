"""Values of the wrong kind at the library's boundary raise ValueError with
a message naming what is wrong, never TypeError or AttributeError from
deep inside."""

import pytest

from bicinium.composer import CompositionConfig
from bicinium.corpus import parse_duet_text, render_text
from bicinium.gamut import GAMUT
from bicinium.midi import duet_to_midi_bytes
from bicinium.negotiation import negotiate, system_utility
from bicinium.rules import DuetState, validate_duet

HALF = [0.5] * 13
RE8 = (GAMUT[7], GAMUT[7])

REFUSALS = {
    "start_pair int": (lambda: CompositionConfig(agent_only=True,
                                                 start_pair=5),
                       "start needs one pitch per voice"),
    "weights None": (lambda: CompositionConfig(agent_only=True, weights=None),
                     "weights None is not UtilityWeights"),
    "weights str": (lambda: CompositionConfig(agent_only=True, weights="det"),
                    "weights 'det' is not UtilityWeights"),
    "negotiate str offer": (lambda: negotiate(DuetState(8), "0123456789012",
                                              HALF), "shape"),
    "negotiate str weight": (lambda: negotiate(DuetState(8), HALF, HALF, "x"),
                             "cm_weight must be finite"),
    "negotiate None weight": (lambda: negotiate(DuetState(8), HALF, HALF,
                                                None),
                              "cm_weight must be finite"),
    "system_utility None weight": (lambda: system_utility(
        DuetState(8), RE8, HALF, HALF, None), "cm_weight must be finite"),
    "validate_duet names": (lambda: validate_duet(["re8"], ["re8"]),
                            "voices must hold only gamut pitches"),
    "render_text names": (lambda: render_text(["a"], ["b"]),
                          "voices must hold only gamut pitches"),
    "midi names": (lambda: duet_to_midi_bytes(["re8"], ["re8"]),
                   "voices must hold only gamut pitches"),
    "render_text lengths": (lambda: render_text(RE8, RE8[:1]),
                            "voices differ in length: 2 vs 1"),
    "midi lengths": (lambda: duet_to_midi_bytes(RE8, RE8[:1]),
                     "voices differ in length: 2 vs 1"),
    "parse_duet_text lengths": (
        lambda: parse_duet_text("V1: re8 re8\nV2: re8"),
        "voices differ in length: 2 vs 1"),
    "validate_duet ints": (lambda: validate_duet(5, 5),
                           "voices must be sequences of pitches"),
    "validate_duet generators": (lambda: validate_duet(iter(RE8), iter(RE8)),
                                 "voices must be sequences of pitches"),
    "render_text generators": (lambda: render_text(iter(RE8), iter(RE8)),
                               "voices must be sequences of pitches"),
    "midi ints": (lambda: duet_to_midi_bytes(RE8, 5),
                  "voices must be sequences of pitches"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_wrong_kinds_raise_value_error(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()

