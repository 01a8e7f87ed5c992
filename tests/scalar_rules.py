"""Scalar statement of rules 1-11, one candidate pair at a time.

This is the reference the rule masks in ``bicinium.rules`` are checked
against: it reads the state's length, ``finalis`` and history and the
pair directly, with no table.  The counts rules 7 and 10 need are
recomputed from the history, not read from the rule key ``append`` keeps.
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


def history_counters(state):
    """(family, run, interior perfects) by a scan of ``state.history``: the
    imperfect family of the last pair and how many pairs in a row end
    with it (rule 7), and the perfect consonances placed in the interior
    (rule 10)."""
    fam = run = interior = 0
    for t, pair in enumerate(state.history):
        f = _family(pair)
        run = run + 1 if f and f == fam else (1 if f else 0)
        fam = f
        if 0 < t < state.length - 1 and interval_quality(*pair) \
                is IntervalQuality.PERFECT_CONSONANT:
            interior += 1
    return fam, run, interior


def scalar_violations(state, pair):
    """Numbers of the rules ``pair`` breaks at the next position of ``state``."""
    t = state.position
    n1, n2 = pair
    steps = interval_steps(n1, n2)
    quality = interval_quality(n1, n2)
    perfect = quality is IntervalQuality.PERFECT_CONSONANT
    first, last = t == 0, t == state.length - 1
    prev = state.history[-1] if t > 0 else None
    run_family, run, interior_perfects = history_counters(state)

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
    if fam and fam == run_family and run + 1 > 4:
        violations.add(7)
    if prev is not None:
        d1 = n1.index - prev[0].index
        d2 = n2.index - prev[1].index
        if d1 * d2 > 0 and abs(d1) >= 2 and abs(d2) >= 2 \
                and max(abs(d1), abs(d2)) > 3:
            violations.add(8)
        if d1 == 0 or d2 == 0:
            violations.add(9)
    if perfect and not (first or last) and interior_perfects >= 2:
        violations.add(10)
    if state.finalis and last and not (n1.degree == 0 and n2.degree == 0):
        violations.add(11)
    return frozenset(violations)
