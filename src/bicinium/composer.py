"""The full composition loop: nets propose, agents negotiate, agreements
feed back as context.

Per bar each agent runs its net forward and maps the output onto the
13-pitch gamut through the unit table of its previous note (or offers a
list of zeros in agent-only mode).  The negotiation picks the legal pair of
maximal utility from the candidate table of the state's rule key, and the
trace's legal count reads the legal mask cached on the same key.  Each agent
then pushes the 19-code ``seqnet`` feeds back for its agreed note into
its net state.  Dead ends stop the run; there is no backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gamut import GAMUT, NotePair, Pitch, pitch_from_name
from .negotiation import (
    COIN_VALUES,
    Agreement,
    DeadEnd,
    UtilityWeights,
    negotiate,
    system_utility,
)
from .rules import DuetState, check_pair, legal_bits
from .seqnet import (MAX_LENGTH, SequentialNet, _feedback_code, forward,
                     map_to_gamut, step_state)

__all__ = ["CompositionConfig", "StepTrace", "CompositionResult",
           "draw_step_weight", "compose"]

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
        if self.length < 2:
            raise ValueError("length must be at least 2")
        if self.length > MAX_LENGTH:
            raise ValueError(f"length must be at most {MAX_LENGTH}, "
                             f"got {self.length}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.start_pair is not None and len(self.start_pair) != 2:
            raise ValueError("start needs one pitch per voice (2)")


@dataclass(frozen=True)
class StepTrace:
    step: int
    weight: float
    pair: NotePair
    utility: float
    legal_count: int


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


def draw_step_weight(rng: np.random.Generator,
                     weights: UtilityWeights) -> float:
    """Fair-coin draw of the contrary-motion weight for one step."""
    if weights.mode != "coin_toss":
        raise ValueError("draw_step_weight requires coin_toss mode")
    return COIN_VALUES[int(rng.integers(2))]


def compose(net1: SequentialNet | None, net2: SequentialNet | None,
            cfg: CompositionConfig) -> CompositionResult:
    """Run the negotiation loop for cfg.length steps.

    Each agent is one record, ``[net, plan array, state units]``, and
    agent-only mode has none: both activation vectors are zero and the
    nets may be None.  Otherwise each agent runs its own net and feeds
    back the encoded note of every agreement.  Output is fully determined
    by (nets, cfg): the only randomness is the seeded coin toss.  A start
    pair that breaks a rule at the opening, a net that is not a one-voice
    net, or a plan whose length is not its net's plan size or that holds
    a NaN or infinite value, raises ValueError.
    """
    agents = []
    if not cfg.agent_only:
        if net1 is None or net2 is None:
            raise ValueError("both nets are required unless agent_only is set")
        import numpy as np
        for i, net, plan in ((1, net1, cfg.plan1), (2, net2, cfg.plan2)):
            if net.voices != 1:
                raise ValueError(f"net{i} is a {net.voices}-voice net; each "
                                 "agent needs a one-voice net")
            if len(plan) != net.plan_size:
                raise ValueError(f"plan{i} has {len(plan)} values, but net{i} "
                                 f"takes a plan of {net.plan_size}")
            plan = np.asarray(plan, dtype=float)
            if not np.isfinite(plan).all():
                raise ValueError(f"plan{i} holds a non-finite value")
            agents.append([net, plan, net.fresh_state()])
    # Only the coin toss draws from the generator, so a fixed weight skips
    # building one, and with it the import of numpy.
    coin_toss = cfg.weights.mode == "coin_toss"
    if coin_toss:
        from numpy.random import default_rng
        rng = default_rng(cfg.seed)
    # A list, not an ndarray: negotiation takes a list of floats as is.
    zero = [0.0] * len(GAMUT)
    prevs: tuple[Pitch | None, ...] = (None, None)

    state = DuetState(length=cfg.length, finalis=cfg.finalis)
    if cfg.start_pair is not None:
        verdict = check_pair(state, cfg.start_pair)
        if not verdict.legal:
            a, b = cfg.start_pair
            raise ValueError(f"start pair {a}:{b} breaks {verdict}")
    trace: list[StepTrace] = []
    for t in range(cfg.length):
        if coin_toss:
            w = draw_step_weight(rng, cfg.weights)
        else:
            w = cfg.weights.cm_weight

        if agents:
            acts = [map_to_gamut(forward(net, plan, units), prev)
                    for (net, plan, units), prev in zip(agents, prevs)]
        else:
            acts = (zero, zero)

        if t == 0 and cfg.start_pair is not None:
            pair = cfg.start_pair
            utility = system_utility(state, pair, acts[0], acts[1], w)
        else:
            outcome = negotiate(state, acts[0], acts[1], w)
            if isinstance(outcome, DeadEnd):
                return CompositionResult(pairs=state.history,
                                         trace=tuple(trace),
                                         dead_end_step=t)
            pair, utility = outcome.pair, outcome.utility

        trace.append(StepTrace(step=t, weight=w, pair=pair, utility=utility,
                               legal_count=legal_bits(state).bit_count()))
        state = state.append(pair)
        for agent, note, prev in zip(agents, pair, prevs):
            agent[2] = step_state(agent[0], agent[2],
                                  _feedback_code(note, prev))
        prevs = pair

    return CompositionResult(pairs=state.history, trace=tuple(trace))
