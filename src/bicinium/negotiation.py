"""Pair utility and the bilateral negotiation over all candidate pairs.

Each agent's network rates every gamut note with an activation in [0,1].
The joint utility of a candidate pair is

    (act1[T1] * act2[T2] + w * cm(prev, pair)) * match(pair)

where cm rewards contrary motion (larger for smaller interval change) and
match zeroes out anything the rulebook rejects.  Negotiation scores every
legal one of the 13x13 combinations, read with its bonus off one table per
rule key, and the maximal pair wins, ties broken toward lower voice-1
index, then lower voice-2 index.

An agent without a net offers ``_NO_OFFER``, thirteen zeros built once at
import.  Between two such agents the choice depends only on the state's
rule key and the weight, so it is made once per (key, weight) and cached.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache, lru_cache

from .gamut import Motion, NotePair, motion, signed_interval
from .rules import _PAIRS, DuetState, _rules_at, pair_bit

__all__ = ["UtilityWeights", "Agreement", "DeadEnd", "COIN_VALUES",
           "contrary_motion_bonus", "system_utility", "negotiate"]

COIN_VALUES = (0.5, 1.49)

# The offer of an agent without a net: immutable and checked here, once.
_NO_OFFER = (0.0,) * 13


@dataclass(frozen=True)
class UtilityWeights:
    """Contrary-motion weighting: fixed, or redrawn per step from COIN_VALUES."""

    cm_weight: float = 1.0
    mode: str = "deterministic"  # "deterministic" | "coin_toss"

    def __post_init__(self):
        if self.mode not in ("deterministic", "coin_toss"):
            raise ValueError(f"unknown utility mode {self.mode!r}")
        # A real number only: the agent-only choice is cached on it.
        if not (isinstance(self.cm_weight, numbers.Real)
                and 0 < self.cm_weight < math.inf):
            raise ValueError("cm_weight must be positive and finite, "
                             f"got {self.cm_weight!r}")


@dataclass(frozen=True)
class Agreement:
    pair: NotePair
    utility: float


@dataclass(frozen=True)
class DeadEnd:
    step: int


def contrary_motion_bonus(prev: NotePair, cur: NotePair) -> float:
    """1/|interval change| when the motion is not similar, else 0.

    The interval change is measured on directed intervals, so a voice
    crossing registers as a large change.  An unchanged interval earns
    nothing: the formula is undefined there and repeating the interval is
    not contrary motion worth rewarding.
    """
    if motion(prev, cur) is Motion.SIMILAR:
        return 0.0
    delta = abs(signed_interval(prev) - signed_interval(cur))
    return 1.0 / delta if delta else 0.0


def _as_activations(act) -> list[float] | tuple[float, ...]:
    if act is _NO_OFFER:
        return act
    # Fast path: a list of floats whose sum is finite (so no NaN or
    # infinity) and whose minimum is non-negative passes as it is.
    if (type(act) is list and len(act) == 13
            and set(map(type, act)) == {float}
            and 0.0 <= min(act) and sum(act) < math.inf):
        return act
    import numpy as np
    act = np.asarray(act, dtype=float)
    if act.shape != (13,):
        raise ValueError(f"activation vector must have shape (13,), got {act.shape}")
    values = act.tolist()
    if not all(0.0 <= v < math.inf for v in values):
        raise ValueError("activations must be finite and non-negative")
    return values


@cache
def _candidates(key: tuple) -> tuple[tuple[int, int, int, float], ...]:
    """Legal candidates at a state with rule key ``key`` as (bit, voice-1
    index, voice-2 index, contrary-motion bonus) in ascending bit order.
    The bonus is 0.0 at the opening (previous-pair bit -1).  Unbounded:
    there are few keys."""
    bits = _rules_at(key)[0]
    prev = _PAIRS[key[0]] if key[0] >= 0 else None
    return tuple([(k, pair[0].index, pair[1].index,
                   contrary_motion_bonus(prev, pair) if prev else 0.0)
                  for k, pair in enumerate(_PAIRS) if bits >> k & 1])


def system_utility(state: DuetState, pair: NotePair, act1, act2,
                   cm_weight: float = 1.0) -> float:
    """Joint utility of a candidate pair; exactly 0 for illegal pairs."""
    if not -math.inf < cm_weight < math.inf:
        raise ValueError(f"cm_weight must be finite, got {cm_weight}")
    act1 = _as_activations(act1)
    act2 = _as_activations(act2)
    k = pair_bit(pair)
    for bit, i, j, bonus in _candidates(state._key):
        if bit == k:
            return act1[i] * act2[j] + cm_weight * bonus
    return 0.0


def negotiate(state: DuetState, act1, act2,
              cm_weight: float = 1.0) -> Agreement | DeadEnd:
    """The legal pair of maximal utility, or a dead end if none is legal.

    Only the legal pairs are scored, in ascending bit order (voice-1
    index, then voice-2 index), and the incumbent is replaced only on
    strict improvement, so the first pair reaching the maximal utility
    wins ties.
    """
    if not -math.inf < cm_weight < math.inf:
        raise ValueError(f"cm_weight must be finite, got {cm_weight}")
    act1 = _as_activations(act1)
    act2 = _as_activations(act2)
    if act1 is _NO_OFFER is act2:
        choice = _unoffered_choice(state._key, cm_weight)
    else:
        choice = _choose(state._key, act1, act2, cm_weight)
    if choice is None:
        return DeadEnd(step=state.position)
    return choice


def _choose(key: tuple, act1, act2, cm_weight) -> Agreement | None:
    """The maximal candidate at rule key ``key``, or None if none is legal."""
    best = -1
    best_utility = -1.0
    for k, i, j, bonus in _candidates(key):
        score = act1[i] * act2[j] + cm_weight * bonus
        if score > best_utility:
            best = k
            best_utility = score
    if best < 0:
        return None
    return Agreement(pair=_PAIRS[best], utility=best_utility)


# Typed, so that 1, 1.0, True and np.float64(1.0) each keep the utility
# type the loop gives them.  Unbounded: there are few keys and weights.
@lru_cache(maxsize=None, typed=True)
def _unoffered_choice(key: tuple, cm_weight) -> Agreement | None:
    return _choose(key, _NO_OFFER, _NO_OFFER, cm_weight)
