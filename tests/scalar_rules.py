"""Scalar statement of rules 1-11, one candidate pair at a time.

This is the reference the rule masks in ``bicinium.rules`` are checked
against: it reads the state's length, ``finalis`` and history and the
pair directly, with no table.  The counts rules 7 and 10 need are
recomputed from the history, not read from the rule key ``append`` keeps.
Steps, motion and consonance come from the helpers below, not from
``bicinium.gamut``: consonance reads a hand-written semitone list, so the
oracle shares no interval arithmetic with the code under test.
"""

# semitones above re of re mi fa sol la si do8 re8 mi8 fa8 sol8 la8 si8
SEMITONES = (0, 2, 3, 5, 7, 9, 10, 12, 14, 15, 17, 19, 21)
# semitones mod 12 of the unison, octave and fifth; of the thirds and sixths
_PERFECT, _IMPERFECT = {0, 7}, {3, 4, 8, 9}


def steps_between(a, b):
    """Diatonic steps between two pitches."""
    return abs(a.index - b.index)


def signed_steps(pair):
    """Steps from voice 1 up to voice 2, negative when the voices cross."""
    return pair[1].index - pair[0].index


def direction(before, after):
    """-1, 0 or 1: how one voice moves from ``before`` to ``after``."""
    return (after.index > before.index) - (after.index < before.index)


def motion(prev, pair):
    """The motion between two pairs: "oblique" if exactly one voice holds,
    "similar" if both move the same way, else "contrary" (both holding
    included)."""
    d1, d2 = direction(prev[0], pair[0]), direction(prev[1], pair[1])
    if (d1 == 0) != (d2 == 0):
        return "oblique"
    return "similar" if d1 == d2 != 0 else "contrary"


def consonance(a, b):
    """The consonance class, "perfect_consonant", "imperfect_consonant" or
    "dissonant", read from the semitone distance alone: a fifth is perfect
    only at 7 semitones mod 12."""
    span = abs(SEMITONES[a.index] - SEMITONES[b.index]) % 12
    if span in _PERFECT:
        return "perfect_consonant"
    return "imperfect_consonant" if span in _IMPERFECT else "dissonant"


def _family(pair):
    span = steps_between(*pair)
    if span in (2, 9):
        return 3
    if span in (5, 12):
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
        if 0 < t < state.length - 1 and \
                consonance(*pair) == "perfect_consonant":
            interior += 1
    return fam, run, interior


def scalar_violations(state, pair):
    """Numbers of the rules ``pair`` breaks at the next position of ``state``."""
    t = state.position
    n1, n2 = pair
    span = steps_between(n1, n2)
    quality = consonance(n1, n2)
    perfect = quality == "perfect_consonant"
    first, last = t == 0, t == state.length - 1
    prev = state.history[-1] if t > 0 else None
    run_family, run, interior_perfects = history_counters(state)

    violations = set()
    if quality == "dissonant":
        violations.add(1)
    if (first or last) and not perfect:
        violations.add(2)
    if span == 0 and not (first or last):
        violations.add(3)
    if perfect and prev is not None and motion(prev, pair) == "similar":
        violations.add(4)
    if (perfect and span in (4, 7, 11) and prev is not None
            and abs(signed_steps(prev) - signed_steps(pair)) != 2):
        violations.add(5)
    if span > 9:
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
    if state.finalis and last and not (n1.index % 7 == 0 == n2.index % 7):
        violations.add(11)
    return frozenset(violations)
