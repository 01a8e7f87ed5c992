"""Scalar statement of rules 1-11, one candidate pair at a time.

This is the reference the rule masks in ``bicinium.rules`` are checked
against: it reads the state and the pair directly, with no table.
"""

from bicinium.gamut import (
    IntervalQuality,
    Motion,
    interval_quality,
    interval_steps,
    motion,
    signed_interval,
)


def _family(pair):
    steps = interval_steps(*pair)
    if steps in (2, 9):
        return 3
    if steps in (5, 12):
        return 6
    return 0


def scalar_violations(state, pair):
    """Numbers of the rules ``pair`` breaks at the next position of ``state``."""
    t = state.position
    n1, n2 = pair
    steps = interval_steps(n1, n2)
    quality = interval_quality(n1, n2)
    perfect = quality is IntervalQuality.PERFECT_CONSONANT
    first, last = t == 0, t == state.length - 1
    prev = state.history[-1] if t > 0 else None

    violations = set()
    if quality is IntervalQuality.DISSONANT:
        violations.add(1)
    if (first or last) and not perfect:
        violations.add(2)
    if steps == 0 and not (first or last):
        violations.add(3)
    if perfect and prev is not None and motion(prev, pair) is Motion.SIMILAR:
        violations.add(4)
    if (perfect and steps in (4, 7, 11) and prev is not None
            and abs(signed_interval(prev) - signed_interval(pair)) != 2):
        violations.add(5)
    if steps > 9:
        violations.add(6)
    fam = _family(pair)
    if fam and fam == state.imperfect_run[0] \
            and state.imperfect_run[1] + 1 > 4:
        violations.add(7)
    if prev is not None:
        d1 = n1.index - prev[0].index
        d2 = n2.index - prev[1].index
        if d1 * d2 > 0 and abs(d1) >= 2 and abs(d2) >= 2 \
                and max(abs(d1), abs(d2)) > 3:
            violations.add(8)
        if d1 == 0 or d2 == 0:
            violations.add(9)
    if perfect and not (first or last) and state.interior_perfect_count >= 2:
        violations.add(10)
    if state.finalis and last and not (n1.degree == 0 and n2.degree == 0):
        violations.add(11)
    return frozenset(violations)
