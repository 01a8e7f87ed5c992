"""Two-part first-species counterpoint composer.

A rule engine validates simultaneous note pairs, two agents negotiate
each pair by maximizing an explicit utility, and a Jordan-style
sequential net supplies per-note expectations that steer the agents.
"""

from .composer import CompositionConfig, CompositionResult, StepTrace, compose
from .corpus import Corpus, load_corpus, parse_corpus, parse_duet_text, render_text
from .gamut import (
    GAMUT,
    IntervalQuality,
    Motion,
    NotePair,
    Pitch,
    interval_quality,
    interval_steps,
    motion,
    pitch_from_name,
    signed_interval,
)
from .midi import write_midi
from .negotiation import (
    Agreement,
    DeadEnd,
    UtilityWeights,
    contrary_motion_bonus,
    negotiate,
    system_utility,
)
from .rules import DuetState, RuleVerdict, check_pair, legal_pairs, validate_duet
from .seqnet import (
    SequentialNet,
    encode_note,
    forward,
    generate,
    load_net,
    map_to_gamut,
    save_net,
    step_state,
    train,
)

__version__ = "0.1.0"
