"""The rule engine as a finite-state machine over its rule keys.

``rules._next_key`` steps a key without building a state.  Walking it from
the openings reaches every key a duet of any length can hold, and each one
is checked against the scalar oracle on all 169 candidates.  Counting legal
duets through the same transition must equal a brute-force search over the
oracle, which never reads a key.
"""

from collections import deque
from functools import cache
from typing import NamedTuple

import pytest

from bicinium.rules import (_ALL, _PAIRS, DuetState, _next_key, _rules_at,
                            check_pair)

from scalar_rules import scalar_violations

OPENING = (-1, 0, 0, 0)  # the core the opening's key is stepped from
# (bars left after the placed pair, finalis): one bar left, finalis on or
# off, or more bars left, where the key does not read finalis
STEPS = ((1, True), (1, False), (2, False))


@cache
def walk(legal_only: bool) -> tuple[dict, dict]:
    """Every key reachable from an opening, by legal appends only or by any
    of the 169 pairs (as ``validate`` replays), each with the first history
    found that reaches it (one of the fewest pairs) and with the last."""
    witness, last = {}, {}
    todo = deque()

    def reach(key, history):
        if key not in witness:
            witness[key] = history
            todo.append(key)
        last[key] = history

    for bars_left, finalis in STEPS:
        reach(_next_key(OPENING, -1, bars_left, finalis), ())
    while todo:
        key = todo.popleft()
        if key[4]:  # the next bar is the last: placing it completes the duet
            continue
        moves = _rules_at(key)[0] if legal_only else _ALL
        history = witness[key]
        for bit, pair in enumerate(_PAIRS):
            if moves >> bit & 1:
                for bars_left, finalis in STEPS:
                    reach(_next_key(key, bit, bars_left, finalis),
                          history + (pair,))
    return witness, last


def state_at(key, history) -> DuetState:
    """The state ``history`` leaves, sized so that its key can be ``key``."""
    next_is_last, finalis_due = key[4], key[5]
    return DuetState.from_history(len(history) + (1 if next_is_last else 2),
                                  history, finalis=finalis_due)


def test_every_reachable_key_agrees_with_the_scalar_oracle():
    keys = walk(legal_only=False)[0]
    legal_keys = walk(legal_only=True)[0]
    # each core (bit, family, run, interior) comes with next bar not last,
    # and last with finalis due or not
    assert (len(keys), len(legal_keys)) == (3 * 940, 3 * 650)
    assert legal_keys.keys() <= keys.keys()
    verdicts = 0
    for key, history in keys.items():
        state = state_at(key, history)
        assert state._key == key
        for pair in _PAIRS:
            assert check_pair(state, pair).violations == \
                scalar_violations(state, pair), (history, pair)
            verdicts += 1
    assert verdicts == 476_580


def test_the_key_decides_the_oracle_whatever_history_reached_it():
    # a key is sufficient: two histories that reach it, the first and the
    # last the walk found, get the same scalar verdict on every candidate
    first, last = walk(legal_only=False)
    others = {key: h for key, h in last.items() if h != first[key]}
    assert len(others) == 2_682
    for key, history in others.items():
        state, witness = state_at(key, history), state_at(key, first[key])
        assert state._key == key
        for pair in _PAIRS:
            assert scalar_violations(state, pair) == \
                scalar_violations(witness, pair), (history, first[key], pair)


def count_by_transition(length: int, finalis: bool) -> int:
    """Legal duets of ``length`` bars, by a memo over (key, bars left)."""
    @cache
    def count(key, bars_left):
        legal = _rules_at(key)[0]
        if bars_left == 1:
            return legal.bit_count()
        return sum(count(_next_key(key, bit, bars_left - 1, finalis),
                         bars_left - 1)
                   for bit in range(len(_PAIRS)) if legal >> bit & 1)

    return count(_next_key(OPENING, -1, length, finalis), length)


class Plain(NamedTuple):
    """What the scalar oracle reads of a state, with no rule key."""
    length: int
    finalis: bool
    history: tuple = ()

    @property
    def position(self) -> int:
        return len(self.history)


def count_by_oracle(state: Plain) -> int:
    """Legal completions of ``state``, by depth-first search."""
    if state.position == state.length:
        return 1
    return sum(count_by_oracle(state._replace(history=state.history + (pair,)))
               for pair in _PAIRS if not scalar_violations(state, pair))


@pytest.mark.parametrize("length,finalis,duets", [
    (2, True, 14), (3, True, 530), (2, False, 120), (3, False, 4620)])
def test_counting_through_the_transition_matches_brute_force(length, finalis,
                                                             duets):
    assert count_by_oracle(Plain(length, finalis)) == duets
    assert count_by_transition(length, finalis) == duets


def test_legal_duets_of_twenty_bars():
    assert count_by_transition(20, True) == \
        2_787_035_996_762_997_305_804_956_388
