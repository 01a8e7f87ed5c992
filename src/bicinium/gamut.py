"""The 13-note Dorian gamut, interval arithmetic and shared input checks.

Pitches run from re (D) up to si8 (B an octave and a half above), named in
solfege with an ``8`` suffix for the upper octave.  Everything downstream
(rules, utilities, note encoding) works in diatonic steps over this gamut.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Pitch",
    "NotePair",
    "IntervalQuality",
    "Motion",
    "GAMUT",
    "pitch_from_name",
    "interval_steps",
    "signed_interval",
    "interval_quality",
    "motion",
]


@dataclass(frozen=True, order=True)
class Pitch:
    """A gamut degree: position 0..12, solfege name, semitones above re."""

    index: int
    name: str
    semitone: int

    def __str__(self) -> str:
        return self.name

    @property
    def degree(self) -> int:
        """Diatonic degree 0..6 (re=0, mi=1, ... do=6), octave folded out."""
        return self.index % 7


_NAMES = ("re", "mi", "fa", "sol", "la", "si", "do8",
          "re8", "mi8", "fa8", "sol8", "la8", "si8")
_SEMITONES = (0, 2, 3, 5, 7, 9, 10, 12, 14, 15, 17, 19, 21)

GAMUT: tuple[Pitch, ...] = tuple(
    Pitch(i, n, s) for i, (n, s) in enumerate(zip(_NAMES, _SEMITONES))
)
_BY_NAME = {p.name: p for p in GAMUT}

NotePair = tuple[Pitch, Pitch]


class IntervalQuality(Enum):
    DISSONANT = "dissonant"
    IMPERFECT_CONSONANT = "imperfect_consonant"
    PERFECT_CONSONANT = "perfect_consonant"


class Motion(Enum):
    CONTRARY = "contrary"
    SIMILAR = "similar"
    OBLIQUE = "oblique"


def pitch_from_name(name: str) -> Pitch:
    """Look up a pitch by solfege token (case-insensitive).

    Bare ``do`` is rejected: the low octave of the gamut stops at si, so
    only ``do8`` exists.
    """
    pitch = _BY_NAME.get(name.strip().lower())
    if pitch is None:
        raise ValueError(f"unknown pitch token {name!r}")
    return pitch


def interval_steps(a: Pitch, b: Pitch) -> int:
    """Interval size in diatonic steps (absolute index difference)."""
    return abs(a.index - b.index)


def signed_interval(pair: NotePair) -> int:
    """Directed interval of a pair, voice 2 minus voice 1, in steps.

    Negative when the voices cross.  Interval *comparisons* between
    consecutive pairs (rule 5 and the contrary-motion bonus) use this
    directed value so that a crossing counts as the large change it is.
    """
    return pair[1].index - pair[0].index


def interval_quality(a: Pitch, b: Pitch) -> IntervalQuality:
    """Consonance class of the interval.

    Fifths (class 4) are perfect only when they span 7 semitones mod 12;
    the one diminished fifth in the gamut (si-fa8, 6 semitones) is
    dissonant.
    """
    cls = interval_steps(a, b) % 7  # 0 unison/octave, 2 third, ...
    if cls in (1, 3, 6):
        return IntervalQuality.DISSONANT
    if cls in (2, 5):
        return IntervalQuality.IMPERFECT_CONSONANT
    if cls == 0:
        return IntervalQuality.PERFECT_CONSONANT
    # class 4: perfect or diminished fifth
    if abs(a.semitone - b.semitone) % 12 == 7:
        return IntervalQuality.PERFECT_CONSONANT
    return IntervalQuality.DISSONANT


def motion(prev: NotePair, cur: NotePair) -> Motion:
    """Relative motion of the two voices between consecutive pairs.

    Oblique when exactly one voice repeats its tone; similar when both
    move in the same direction; contrary otherwise (including the
    degenerate both-repeat case, which the rules forbid anyway).
    """
    d1 = cur[0].index - prev[0].index
    d2 = cur[1].index - prev[1].index
    if (d1 == 0) != (d2 == 0):
        return Motion.OBLIQUE
    if d1 * d2 > 0:
        return Motion.SIMILAR
    return Motion.CONTRARY


def _check_count(name: str, value, low: int, high: int | None = None) -> None:
    """Refuse a count that is not an integer (numpy's pass) in [low, high]."""
    # int first: it passes without the ABC's slower Python-level check
    if not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")


def _check_offer(values) -> None:
    """Refuse activations that are not all finite and non-negative."""
    if not all(map(math.isfinite, values)) or min(values) < 0.0:
        raise ValueError("activations must be finite and non-negative")


def _check_voices(*voices) -> None:
    """Refuse voices that are not equal-length sequences of pitches."""
    try:
        lengths = [len(voice) for voice in voices]
    except TypeError:
        raise ValueError("voices must be sequences of pitches") from None
    if len(set(lengths)) > 1:
        raise ValueError("voices differ in length: "
                         + " vs ".join(map(str, lengths)))
    if not {type(p) for voice in voices for p in voice} <= {Pitch}:
        raise ValueError("voices must hold only gamut pitches")
