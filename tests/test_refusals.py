"""Values of the wrong kind at the library's boundary raise ValueError with
a message naming what is wrong, never TypeError or AttributeError from
deep inside."""

from dataclasses import replace

import pytest

from bicinium.composer import CompositionConfig
from bicinium.corpus import parse_corpus, parse_duet_text, render_text
from bicinium.gamut import GAMUT
from bicinium.midi import duet_to_midi_bytes
from bicinium.negotiation import negotiate, system_utility
from bicinium.rules import DuetState, validate_duet
from bicinium.seqnet import SequentialNet, forward, map_to_gamut, train

HALF = [0.5] * 13
RE8 = (GAMUT[7], GAMUT[7])
PLAN = (1.0, 0.0, 0.0, 0.0)


def nan_weight_net():
    """The constructor, given a new net's fields with NaN in b2."""
    net = SequentialNet.new()
    return SequentialNet(**vars(net) | {"b2": net.b2 * float("nan")})


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
    "corpus label words": (lambda: parse_corpus("label: a b\nre8\n"),
                           "line 1: bad label values"),
    "corpus bare label": (lambda: parse_corpus("label: 1 0\n"),
                          "line 1: label without melody"),
    "corpus mixed voices": (
        lambda: parse_corpus("re8 la\n\nV1: re8\nV2: re8\n"),
        "line 3: mixed one-voice and two-voice blocks"),
    "corpus duplicate labels": (
        lambda: parse_corpus("label: 1 0\nre8\n\nlabel: 1 0\nla\n"),
        "duplicate melody labels"),
    "forward state length": (lambda: forward(SequentialNet.new(), PLAN,
                                             [0.0] * 18),
                             r"state must have shape \(19,\)"),
    "map_to_gamut two blocks": (lambda: map_to_gamut([0.5] * 38),
                                "expected one 19-unit block"),
    "train label size": (lambda: train(SequentialNet.new(),
                                       [((1.0, 0.0), (RE8[:1],))], 1),
                         "plan label size mismatch"),
    "train voices": (lambda: train(SequentialNet.new(), [(PLAN, (RE8, RE8))],
                                   1), r"net expects 1 voice\(s\)"),
    "net replace lying size": (
        lambda: replace(SequentialNet.new(), hidden_size=16),
        r"w1 has shape \(15, 23\), but the sizes imply \(16, 23\)"),
    "net list weight": (
        lambda: replace(SequentialNet.new(), w1=[[0.5] * 23] * 15),
        "w1 is not a float64 array"),
    "net NaN weight": (nan_weight_net, "b2 holds a non-finite value"),
    "net new str decay": (lambda: SequentialNet.new(decay="x"),
                          "decay must be in"),
    "net new None decay": (lambda: SequentialNet.new(decay=None),
                           "decay must be in"),
    "net constructor complex decay": (
        lambda: SequentialNet(**vars(SequentialNet.new()) | {"decay": 1j}),
        "decay must be in"),
    "net replace str decay": (lambda: replace(SequentialNet.new(),
                                              decay="x"), "decay must be in"),
    "train empty voice": (lambda: train(SequentialNet.new(), [(PLAN, ((),))],
                                        1), "empty melody"),
    "train bare pitch voice": (
        lambda: train(SequentialNet.new(), [(PLAN, (RE8[0],))], 1),
        "voices must be sequences of pitches"),
    "train voice of names": (
        lambda: train(SequentialNet.new(), [(PLAN, (("re8", "la"),))], 1),
        "voices must hold only gamut pitches"),
    "train voices of two lengths": (
        lambda: train(SequentialNet.new(voices=2), [(PLAN, (RE8, RE8[:1]))],
                      1), "voices differ in length: 2 vs 1"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_wrong_kinds_raise_value_error(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()

