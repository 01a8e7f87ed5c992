"""The full composition loop: nets propose, agents negotiate, agreements
feed back as context.

Per bar each agent runs its net forward and maps the output onto the
13-pitch gamut through the unit table of its previous note (in agent-only
mode both offer negotiation's constant zero vector, whose choice is cached
per rule key and weight).  The negotiation picks the legal pair of
maximal utility from the candidate table of the state's rule key, and the
trace's legal count reads the legal mask cached on the same key.  Each agent
then pushes the 19-code ``seqnet`` feeds back for its agreed note into
its net state.  Dead ends stop the run; there is no backtracking.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass

from .gamut import NotePair, Pitch, _check_count, pitch_from_name
from .negotiation import (
    _NO_OFFER,
    COIN_VALUES,
    DeadEnd,
    UtilityWeights,
    negotiate,
    system_utility,
)
from .rules import DuetState, _rules_at, check_pair
from .seqnet import (MAX_LENGTH, SequentialNet, _feedback_code, forward,
                     map_to_gamut, step_state)

__all__ = ["CompositionConfig", "StepTrace", "CompositionResult", "compose"]

_DEFAULT_START = (pitch_from_name("re8"), pitch_from_name("re8"))


@dataclass(frozen=True, slots=True)
class CompositionConfig:
    length: int = 8
    plan1: tuple = (0.8, 0.0, 0.8, 0.0)
    plan2: tuple = (0.0, 1.0, 0.0, 1.0)
    weights: UtilityWeights = UtilityWeights()
    seed: int = 0
    start_pair: NotePair | None = _DEFAULT_START
    finalis: bool = True
    agent_only: bool = False

    def __post_init__(self):
        _check_count("length", self.length, 2, MAX_LENGTH)
        _check_count("seed", self.seed, 0)
        for name in ("plan1", "plan2"):
            try:  # a value that is not a real number raises TypeError
                finite = all(map(math.isfinite, getattr(self, name)))
            except TypeError:
                finite = False
            if not finite:
                raise ValueError(f"{name} holds a non-finite value")
        if not isinstance(self.weights, UtilityWeights):
            raise ValueError(f"weights {self.weights!r} is not UtilityWeights")
        start = self.start_pair
        if start is not None and not (isinstance(start, (tuple, list)) and
                                      list(map(type, start)) == [Pitch, Pitch]):
            raise ValueError("start needs one pitch per voice (2)")
        object.__setattr__(self, "start_pair", start and tuple(start))


# A named tuple: it builds in a third of a frozen dataclass's time, and
# compares equal to a plain tuple of the same values.
StepTrace = namedtuple("StepTrace", "step weight pair utility legal_count")


@dataclass(frozen=True)
class CompositionResult:
    pairs: tuple[NotePair, ...]
    trace: tuple[StepTrace, ...]
    dead_end_step: int | None = None

    @property
    def complete(self) -> bool:
        return self.dead_end_step is None

    @property
    def voices(self) -> tuple[tuple[Pitch, ...], tuple[Pitch, ...]]:
        # From lists, not generators: CPython sizes a tuple built from a
        # generator by guess and then resizes it, so each call would move
        # memory into the free list of another tuple size.
        return (tuple([p[0] for p in self.pairs]),
                tuple([p[1] for p in self.pairs]))


def compose(net1: SequentialNet | None, net2: SequentialNet | None,
            cfg: CompositionConfig) -> CompositionResult:
    """Run the negotiation loop for cfg.length steps.

    Each agent is one record, ``[net, plan array, state units]``, and
    agent-only mode has none: both activation vectors are zero and both
    nets must be None.  Otherwise each agent runs its own net and feeds
    back the encoded note of every agreement.  Output is fully determined
    by (nets, cfg): the only randomness is the seeded coin toss.  A start
    pair that breaks a rule at the opening, a net that is not a one-voice
    net, or a plan whose length is not its net's plan size, raises ValueError.
    """
    agents = []
    quiet = nullcontext()
    if cfg.agent_only:
        if net1 is not None or net2 is not None:
            raise ValueError("agent_only runs no net; pass None for both nets")
    else:
        if net1 is None or net2 is None:
            raise ValueError("both nets are required unless agent_only is set")
        import numpy as np
        # A saturated sigmoid overflows np.exp to inf and reads exactly 0.0.
        quiet = np.errstate(over="ignore")
        for i, net, plan in ((1, net1, cfg.plan1), (2, net2, cfg.plan2)):
            if net.voices != 1:
                raise ValueError(f"net{i} is a {net.voices}-voice net; each "
                                 "agent needs a one-voice net")
            if len(plan) != net.plan_size:
                raise ValueError(f"plan{i} has {len(plan)} values, but net{i} "
                                 f"takes a plan of {net.plan_size}")
            agents.append([net, np.asarray(plan, dtype=float),
                           net.fresh_state()])
    # Only the coin toss draws from the generator, so a fixed weight skips
    # building one, and with it the import of numpy.  Each raw 64-bit word
    # of PCG64(seed) gives two bars' coins, bits 31 and 63: the top bits of
    # its 32-bit halves, low half first, which default_rng(seed).integers(2)
    # keeps.  numpy keeps the raw stream stable across versions (NEP 19).
    if cfg.weights.mode == "coin_toss":
        from numpy.random import PCG64
        words = PCG64(cfg.seed).random_raw((cfg.length + 1) // 2).tolist()
        weights = [COIN_VALUES[w >> s & 1]  # a fair coin per bar
                   for w in words for s in (31, 63)][:cfg.length]
    else:
        weights = [cfg.weights.cm_weight] * cfg.length
    prevs: tuple[Pitch | None, ...] = (None, None)
    act1 = act2 = _NO_OFFER

    start = cfg.start_pair
    state = DuetState(length=cfg.length, finalis=cfg.finalis)
    if start is not None:
        verdict = check_pair(state, start)
        if not verdict.legal:
            a, b = start
            raise ValueError(f"start pair {a}:{b} breaks {verdict}")
    trace: list[StepTrace] = []
    with quiet:
        for t, w in enumerate(weights):
            if agents:
                act1, act2 = [map_to_gamut(forward(*agent), prev)
                              for agent, prev in zip(agents, prevs)]

            if t or start is None:
                outcome = negotiate(state, act1, act2, w)
                if isinstance(outcome, DeadEnd):
                    return CompositionResult(state.history, tuple(trace), t)
                pair, utility = outcome.pair, outcome.utility
            else:
                pair = start
                utility = system_utility(state, pair, act1, act2, w)

            trace.append(StepTrace(t, w, pair, utility,
                                   _rules_at(state._key)[0].bit_count()))
            state = state.append(pair)
            if agents:
                for agent, note, prev in zip(agents, pair, prevs):
                    agent[2] = step_state(agent[0], agent[2],
                                          _feedback_code(note, prev))
                prevs = pair

    return CompositionResult(pairs=state.history, trace=tuple(trace))
