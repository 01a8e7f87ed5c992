"""Two-part first-species counterpoint composer.

A rule engine validates simultaneous note pairs, two agents negotiate
each pair by maximizing an explicit utility, and a Jordan-style
sequential net supplies per-note expectations that steer the agents.
"""

from .composer import CompositionConfig, CompositionResult, compose
from .corpus import parse_corpus, parse_duet_text, render_text
from .gamut import GAMUT, interval_quality, interval_steps, pitch_from_name
from .midi import write_midi
from .negotiation import Agreement, UtilityWeights, negotiate
from .rules import DuetState, legal_pairs, validate_duet
from .seqnet import SequentialNet, generate, load_net, save_net, train

__version__ = "0.1.0"
