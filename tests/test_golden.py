"""Golden digest of two-net compositions, utilities included.

The benchmark's output digests hash the duets but not the utilities, so a
last-ulp change in ``map_to_gamut`` or ``negotiate`` could slip past them.
This test hashes every step of a fixed grid of two-net compositions:
the agreed pair, the legal count, and the exact ``repr`` of the weight and
the utility.  The expected hash was recorded before the per-bar fast path
(table-driven ``map_to_gamut``, cached negotiation candidates) went in,
and must not change.
"""

import hashlib
import itertools

from bicinium.composer import CompositionConfig, compose
from bicinium.gamut import pitch_from_name
from bicinium.negotiation import UtilityWeights
from bicinium.seqnet import SequentialNet

GOLDEN_SHA256 = "ab5ce0d5bf586df764739314151d118d514f0eb20693360539f45530aa3946e9"

LENGTHS = (2, 3, 5, 8, 12, 16, 20)
WEIGHTS = (UtilityWeights(),
           UtilityWeights(cm_weight=0.5),
           UtilityWeights(mode="coin_toss"))
SEEDS = (0, 7)
PLANS = (((0.8, 0.0, 0.8, 0.0), (0.0, 1.0, 0.0, 1.0)),
         ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)),
         ((0.3, 0.7, 0.3, 0.7), (0.5, 0.5, 0.5, 0.5)))
STARTS = ((pitch_from_name("re8"), pitch_from_name("re8")),
          (pitch_from_name("re"), pitch_from_name("la")),
          None)


def golden_lines():
    net1 = SequentialNet.new(seed=1)
    net2 = SequentialNet.new(seed=2)
    for length, weights, seed, (plan1, plan2), start in itertools.product(
            LENGTHS, WEIGHTS, SEEDS, PLANS, STARTS):
        cfg = CompositionConfig(length=length, plan1=plan1, plan2=plan2,
                                weights=weights, seed=seed, start_pair=start)
        result = compose(net1, net2, cfg)
        opening = "none" if start is None else f"{start[0]}:{start[1]}"
        yield (f"L={length} {weights.mode} w={weights.cm_weight!r} "
               f"seed={seed} plans={plan1}/{plan2} start={opening} "
               f"dead_end={result.dead_end_step}")
        for s in result.trace:
            yield (f"{s.step} {s.pair[0]}:{s.pair[1]} {s.legal_count} "
                   f"{s.weight!r} {s.utility!r}")


def test_two_net_compositions_match_golden_digest():
    digest = hashlib.sha256()
    for line in golden_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256
