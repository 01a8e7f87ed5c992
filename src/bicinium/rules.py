"""First-species legality rules for two-part counterpoint.

The engine checks a candidate pair of simultaneous tones against the
composition so far and reports which of the numbered rules it breaks:

 1. no dissonant intervals
 2. perfect consonance at the first and last places
 3. unison only at the first or last place
 4. no perfect interval reached by similar motion (hidden/parallel
    fifths and octaves)
 5. a fifth or octave must differ from the previous interval by exactly
    two steps, measured on directed intervals (unisons exempt)
 6. no interval wider than a tenth
 7. at most four consecutive intervals from the same imperfect family
    (thirds/tenths, or sixths)
 8. if both voices skip in the same direction, neither skips more than
    a fourth
 9. no voice repeats its previous tone
10. at most two perfect consonances in the interior
11. (finalis, configurable) both final tones on the re degree

Each rule is a mask over the 169 candidate pairs: a plain ``int`` whose
bit k stands for the pair (GAMUT[k // 13], GAMUT[k % 13]), so ascending
bit order is the voice-1-then-voice-2 scan order.  The masks of rules 1,
2, 3, 6, 7, 10 and 11 depend on the candidate alone and are built at
import; those of rules 4, 5, 8 and 9 also depend on the previous pair and
are built the first time that pair is seen.  One table per small rule
key (``DuetState._key``) holds the legal mask and the rules that apply
with their masks: ``legal_bits`` reads the legal mask and ``check_pair``
names the rules whose mask holds the candidate's bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .gamut import (
    GAMUT,
    IntervalQuality,
    Motion,
    NotePair,
    interval_quality,
    interval_steps,
    motion,
    signed_interval,
)

__all__ = ["DuetState", "RuleVerdict", "check_pair", "legal_bits",
           "legal_pairs", "pair_bit", "validate_duet", "DuetReport"]

THIRDS_FAMILY = frozenset({2, 9})
SIXTHS_FAMILY = frozenset({5, 12})
MAX_IMPERFECT_RUN = 4
MAX_INTERIOR_PERFECT = 2


@dataclass(frozen=True)
class RuleVerdict:
    violations: frozenset[int]

    @property
    def legal(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.legal:
            return "legal"
        return "rules " + " ".join(str(r) for r in sorted(self.violations))


@dataclass(frozen=True, slots=True)
class DuetState:
    """Composition-so-far plus the rule key the next position reads.

    The constructor takes only ``length`` and, by keyword, ``finalis``,
    and starts an empty duet.  The history and the key derived from it
    grow only through ``append`` (or ``from_history``), so they cannot
    disagree.  ``_key`` is (the previous pair's bit or -1, the imperfect
    family of the current run or 0, that run's length capped at
    MAX_IMPERFECT_RUN, the interior perfects capped at
    MAX_INTERIOR_PERFECT, last, finalis due), or None once complete.
    """

    length: int
    history: tuple[NotePair, ...] = field(default=(), init=False)
    finalis: bool = field(default=True, kw_only=True)
    _key: tuple[int, int, int, int, bool, bool] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        # The opening's key; a duet of no bars is complete at once.
        last = self.length == 1
        key = (-1, 0, 0, 0, last, self.finalis and last)
        object.__setattr__(self, "_key", key if self.length > 0 else None)

    @property
    def position(self) -> int:
        """Index of the next pair to be placed."""
        return len(self.history)

    @property
    def complete(self) -> bool:
        return len(self.history) == self.length

    def append(self, pair: NotePair) -> "DuetState":
        if self._key is None:
            raise ValueError("duet already complete")
        prev_bit, prev_fam, run, interior, last, _ = self._key
        k = pair_bit(pair)
        fam = 3 if _FAMILY[3] >> k & 1 else 6 if _FAMILY[6] >> k & 1 else 0
        if fam != prev_fam:
            run = 1 if fam else 0
        elif fam and run < MAX_IMPERFECT_RUN:
            run += 1
        if (_PERFECT >> k & 1 and prev_bit >= 0 and not last
                and interior < MAX_INTERIOR_PERFECT):
            interior += 1
        t = len(self.history) + 1
        last = t == self.length - 1
        # The constructor sets only length and finalis: fill every field.
        nxt, put = object.__new__(DuetState), object.__setattr__
        put(nxt, "length", self.length)
        put(nxt, "history", self.history + (pair,))
        put(nxt, "finalis", self.finalis)
        put(nxt, "_key", (k, fam, run, interior, last, self.finalis and last)
            if t < self.length else None)
        return nxt

    @classmethod
    def from_history(cls, length: int, history: tuple[NotePair, ...] = (),
                     finalis: bool = True) -> "DuetState":
        state = cls(length=length, finalis=finalis)
        for pair in history:
            state = state.append(pair)
        return state


def pair_bit(pair: NotePair) -> int:
    """Bit of ``pair`` in a rule mask: voice-1 index * 13 + voice-2 index."""
    return pair[0].index * len(GAMUT) + pair[1].index


_PAIRS: tuple[NotePair, ...] = tuple((a, b) for a in GAMUT for b in GAMUT)
_ALL = (1 << len(_PAIRS)) - 1


def _mask(holds) -> int:
    """Mask of the candidate pairs for which ``holds(pair)`` is true."""
    mask = 0
    for k, pair in enumerate(_PAIRS):
        if holds(pair):
            mask |= 1 << k
    return mask


def _perfect(pair: NotePair) -> bool:
    return interval_quality(*pair) is IntervalQuality.PERFECT_CONSONANT


# Rules that depend on the candidate pair alone.
_DISSONANT = _mask(
    lambda p: interval_quality(*p) is IntervalQuality.DISSONANT)       # 1
_NOT_PERFECT = _mask(lambda p: not _perfect(p))                        # 2
_UNISON = _mask(lambda p: interval_steps(*p) == 0)                     # 3
_WIDE = _mask(lambda p: interval_steps(*p) > 9)                        # 6
_FAMILY = {3: _mask(lambda p: interval_steps(*p) in THIRDS_FAMILY),   # 7
           6: _mask(lambda p: interval_steps(*p) in SIXTHS_FAMILY)}
_PERFECT = _mask(_perfect)                                             # 10
_OFF_FINALIS = _mask(
    lambda p: not (p[0].degree == 0 and p[1].degree == 0))             # 11


@cache
def _motion_masks(prev_bit: int) -> tuple[int, int, int, int]:
    """Masks of rules 4, 5, 8 and 9, which compare the candidate with the
    previous pair, given by its bit."""
    prev = _PAIRS[prev_bit]

    def leaps(pair):
        return pair[0].index - prev[0].index, pair[1].index - prev[1].index

    def double_skip(pair):
        d1, d2 = leaps(pair)
        return (d1 * d2 > 0 and abs(d1) >= 2 and abs(d2) >= 2
                and max(abs(d1), abs(d2)) > 3)

    return (
        _mask(lambda p: _perfect(p) and motion(prev, p) is Motion.SIMILAR),
        _mask(lambda p: _perfect(p) and interval_steps(*p) in (4, 7, 11)
              and abs(signed_interval(prev) - signed_interval(p)) != 2),
        _mask(double_skip),
        _mask(lambda p: 0 in leaps(p)),
    )


@cache
def _rules_at(key: tuple | None) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(legal mask, ((rule, mask), ...)) at a state with this key: the
    pairs that break no rule, and every rule that applies with its mask."""
    if key is None:
        raise ValueError("position beyond duet length: the duet is complete")
    prev_bit, run_family, run, interior, last, finalis_due = key
    masks = [(1, _DISSONANT), (6, _WIDE)]
    if prev_bit < 0 or last:
        masks.append((2, _NOT_PERFECT))
    else:
        masks.append((3, _UNISON))
        if interior >= MAX_INTERIOR_PERFECT:
            masks.append((10, _PERFECT))
    if prev_bit >= 0:
        masks.extend(zip((4, 5, 8, 9), _motion_masks(prev_bit)))
    if run >= MAX_IMPERFECT_RUN:
        masks.append((7, _FAMILY[run_family]))
    if finalis_due:
        masks.append((11, _OFF_FINALIS))
    illegal = 0
    for _, mask in masks:
        illegal |= mask
    return _ALL & ~illegal, tuple(masks)


def legal_bits(state: DuetState) -> int:
    """The legal pairs at the next position as a 169-bit mask: bit
    ``pair_bit(pair)`` is set when ``pair`` breaks no rule."""
    return _rules_at(state._key)[0]


_LEGAL = RuleVerdict(frozenset())


def check_pair(state: DuetState, pair: NotePair) -> RuleVerdict:
    """Verdict for appending ``pair`` at the next position of ``state``."""
    legal, masks = _rules_at(state._key)
    k = pair_bit(pair)
    if legal >> k & 1:
        return _LEGAL
    return RuleVerdict(frozenset(rule for rule, m in masks if m >> k & 1))


def legal_pairs(state: DuetState) -> list[NotePair]:
    """All legal pairs at the next position, in canonical scan order
    (voice-1 index ascending, then voice-2 index ascending)."""
    bits = legal_bits(state)
    return [pair for k, pair in enumerate(_PAIRS) if bits >> k & 1]


@dataclass(frozen=True)
class DuetReport:
    verdicts: tuple[RuleVerdict, ...]
    pairs: tuple[NotePair, ...]

    @property
    def legal(self) -> bool:
        return all(v.legal for v in self.verdicts)

    def __str__(self) -> str:
        lines = []
        for t, (pair, verdict) in enumerate(zip(self.pairs, self.verdicts)):
            lines.append(f"pos={t} pair={pair[0]}:{pair[1]} verdict={verdict}")
        return "\n".join(lines)


def validate_duet(voice1, voice2, finalis: bool = True) -> DuetReport:
    """Replay a finished duet through check_pair, position by position."""
    if len(voice1) != len(voice2):
        raise ValueError(
            f"voices differ in length: {len(voice1)} vs {len(voice2)}")
    length = len(voice1)
    if not length:
        raise ValueError("empty duet: the voices hold no notes")
    state = DuetState(length=length, finalis=finalis)
    verdicts = []
    for pair in zip(voice1, voice2):
        verdicts.append(check_pair(state, pair))
        state = state.append(pair)
    return DuetReport(tuple(verdicts), state.history)
