import pickle
from collections import Counter

import numpy as np
import pytest

from bicinium import composer
from bicinium.composer import CompositionConfig, StepTrace, compose
from bicinium.negotiation import COIN_VALUES, UtilityWeights
from bicinium.gamut import GAMUT
from bicinium.rules import DuetState, check_pair, validate_duet
from bicinium.seqnet import MAX_LENGTH, SequentialNet, encode_note, train

from conftest import pitches
from test_negotiation import brute_force_argmax

ZERO = np.zeros(13)


def agent_only_cfg(**kw):
    return CompositionConfig(agent_only=True, **kw)


def test_agent_only_run_is_legal_and_stepwise_optimal():
    result = compose(None, None, agent_only_cfg(length=8))
    assert result.complete
    v1, v2 = result.voices
    assert validate_duet(v1, v2).legal
    # every step after the configured opening is the brute-force optimum
    state = DuetState(length=8)
    for step in result.trace:
        if step.step > 0:
            pair, utility = brute_force_argmax(state, ZERO, ZERO, 1.0)
            assert step.pair == pair
            assert step.utility == pytest.approx(utility)
        state = state.append(step.pair)


def test_agent_only_matches_source_prefix(p):
    # the printed agent-only duet shares its first four pairs with ours;
    # from the fifth pair on, an exact utility tie resolves differently
    # under the canonical ascending tie-break (divergence checked in the
    # acceptance suite, which reports it)
    result = compose(None, None, agent_only_cfg(length=8))
    v1, v2 = result.voices
    assert v1[:4] == pitches("re8 do8 la sol")
    assert v2[:4] == pitches("re8 mi8 fa8 sol8")
    assert (v1[-1], v2[-1]) == (p("re8"), p("re8"))


def test_compose_is_deterministic():
    cfg = agent_only_cfg(length=8, seed=3,
                         weights=UtilityWeights(mode="coin_toss"))
    assert compose(None, None, cfg) == compose(None, None, cfg)


def test_compose_requires_nets_without_agent_only():
    with pytest.raises(ValueError, match="nets"):
        compose(None, None, CompositionConfig())
    # and agent-only mode, which runs no net, takes none
    net = SequentialNet.new(seed=1)
    for nets in ((net, None), (None, "not a net"), (net, net)):
        with pytest.raises(ValueError, match="pass None for both nets"):
            compose(*nets, agent_only_cfg())


def test_compose_trace_fields():
    result = compose(None, None, agent_only_cfg(length=4))
    assert [s.step for s in result.trace] == [0, 1, 2, 3]
    assert all(s.weight == 1.0 for s in result.trace)
    assert all(s.legal_count > 0 for s in result.trace)
    assert all(s.utility >= 0 for s in result.trace)


def test_step_trace_is_a_named_tuple_row(p):
    pair = (p("re8"), p("la"))
    row = StepTrace(3, 1.49, pair, 2.5, 41)
    assert StepTrace._fields == ("step", "weight", "pair", "utility",
                                 "legal_count")
    assert (row.step, row.weight, row.pair, row.utility,
            row.legal_count) == (3, 1.49, pair, 2.5, 41)
    with pytest.raises(AttributeError):
        row.step = 4
    twin = StepTrace(3, 1.49, (p("re8"), p("la")), 2.5, 41)
    assert twin == row and hash(twin) == hash(row)
    assert row != StepTrace(3, 1.49, pair, 2.5, 40)
    # a row is a tuple: it unpacks and equals the plain tuple of its values
    step, *_, legal_count = row
    assert (step, legal_count, row[2]) == (3, 41, pair)
    assert row == (3, 1.49, pair, 2.5, 41) and hash(row) == hash(tuple(row))
    assert repr(row) == (
        "StepTrace(step=3, weight=1.49, pair=(Pitch(index=7, name='re8', "
        "semitone=12), Pitch(index=4, name='la', semitone=7)), utility=2.5, "
        "legal_count=41)")
    copy = pickle.loads(pickle.dumps(row))
    assert type(copy) is StepTrace and copy == row


def test_every_trace_row_is_a_step_trace():
    net1, net2 = SequentialNet.new(seed=1), SequentialNet.new(seed=2)
    runs = [compose(None, None, agent_only_cfg(length=length, seed=seed,
                                               start_pair=None,
                                               weights=UtilityWeights(
                                                   mode="coin_toss")))
            for length in (2, 8, 20) for seed in range(5)]
    runs.append(compose(net1, net2, CompositionConfig(length=12)))
    assert any(not r.complete for r in runs) and any(r.complete for r in runs)
    for result in runs:
        assert result.trace and all(type(s) is StepTrace for s in result.trace)


def test_compose_dead_end_is_data(p):
    # a non-default opening paints the greedy run into a corner at the
    # final bar; the partial result and the dead-end step come back as data
    cfg = agent_only_cfg(length=9, start_pair=(p("re"), p("la")))
    result = compose(None, None, cfg)
    assert not result.complete
    assert result.dead_end_step == 8
    assert len(result.pairs) == 8
    # the same opening as a list is stored, and placed, as a tuple
    listed = agent_only_cfg(length=9, start_pair=[p("re"), p("la")])
    assert listed == cfg and hash(listed) == hash(cfg)
    assert compose(None, None, listed) == result


def test_compose_rejects_illegal_start_pair(p):
    cfg = agent_only_cfg(length=2, start_pair=(p("re"), p("mi8")))
    with pytest.raises(ValueError, match=r"start pair re:mi8 breaks rules 1 2"):
        compose(None, None, cfg)


@pytest.mark.parametrize("mode", ["deterministic", "coin_toss"])
def test_config_rejects_negative_seed(mode):
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        CompositionConfig(seed=-1, weights=UtilityWeights(mode=mode))


def test_config_caps_the_length():
    # only the config is built: no composition runs
    assert CompositionConfig(length=MAX_LENGTH).length == MAX_LENGTH
    for length in (MAX_LENGTH + 1, 10**20):
        with pytest.raises(ValueError, match=f"length must be at most "
                                             f"{MAX_LENGTH}, got {length}"):
            CompositionConfig(length=length)


@pytest.mark.parametrize("field, value", [
    ("length", 8.5), ("length", 8.0), ("length", "8"), ("seed", 1.5),
    ("seed", None)])
def test_config_refuses_a_length_or_seed_that_is_not_an_integer(field,
                                                                 value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, "
                                         f"got {value!r}"):
        CompositionConfig(**{field: value},
                          weights=UtilityWeights(mode="coin_toss"))


def test_config_takes_numpy_integers():
    cfg = CompositionConfig(length=np.int64(8), seed=np.uint8(3))
    assert (cfg.length, cfg.seed) == (8, 3)


@pytest.mark.parametrize("start", ["re8", "re8 la8 re8"])
def test_config_start_pair_needs_two_pitches(start):
    with pytest.raises(ValueError, match=r"one pitch per voice \(2\)"):
        CompositionConfig(start_pair=pitches(start))


@pytest.mark.parametrize("agent_only", [False, True])
@pytest.mark.parametrize("field, plan", [
    ("plan1", (float("nan"),)), ("plan1", ("a",)), ("plan1", None),
    ("plan1", 0.5), ("plan2", (0.0, float("inf"), 0.0, 0.0)),
    ("plan2", (0.0, 1j, 0.0, 0.0))])
def test_config_refuses_a_plan_that_is_not_finite_reals(agent_only, field,
                                                        plan):
    # agent-only mode reads no plan, but refuses a bad one all the same
    with pytest.raises(ValueError, match=f"^{field} holds a non-finite value"):
        CompositionConfig(agent_only=agent_only, **{field: plan})


@pytest.mark.parametrize("start", [("re8", "re8"), "re", (None, None)])
def test_config_start_pair_needs_pitches(start):
    with pytest.raises(ValueError, match=r"one pitch per voice \(2\)"):
        agent_only_cfg(start_pair=start)


def test_every_complete_result_validates_whatever_the_start():
    # each start pair is either rejected at the boundary or opens a run
    # whose complete results pass validate_duet, at every length
    opening = DuetState(length=2)
    starts = [(a, b) for a in GAMUT for b in GAMUT] + [None]
    legal_starts = 0
    for start in starts:
        legal = start is None or check_pair(opening, start).legal
        legal_starts += legal
        for length in range(2, 21):
            cfg = agent_only_cfg(length=length, start_pair=start)
            if not legal:
                with pytest.raises(ValueError, match="start pair"):
                    compose(None, None, cfg)
                continue
            result = compose(None, None, cfg)
            if result.complete:
                assert validate_duet(*result.voices).legal
    assert legal_starts == 42


def test_compose_feedback_fidelity(p):
    # replay the whole loop independently with the raw state recurrence
    # s' = decay*s + code(own agreed note) and check the duet is identical
    from bicinium.negotiation import Agreement, negotiate
    from bicinium.seqnet import forward, map_to_gamut

    net1 = SequentialNet.new(hidden_size=15, voices=1, seed=1)
    net2 = SequentialNet.new(hidden_size=15, voices=1, seed=2)
    cfg = CompositionConfig(length=8, seed=0)
    result = compose(net1, net2, cfg)

    nets = (net1, net2)
    plans = (np.asarray(cfg.plan1), np.asarray(cfg.plan2))
    states = [np.zeros(19), np.zeros(19)]
    prevs = [None, None]
    duet_state = DuetState(length=8)
    replay = []
    for t in range(8):
        acts = [map_to_gamut(forward(nets[i], plans[i], states[i]), prevs[i])
                for i in range(2)]
        if t == 0:
            pair = (p("re8"), p("re8"))
        else:
            outcome = negotiate(duet_state, acts[0], acts[1], 1.0)
            if not isinstance(outcome, Agreement):
                break
            pair = outcome.pair
        replay.append(pair)
        duet_state = duet_state.append(pair)
        for i in (0, 1):
            states[i] = nets[i].decay * states[i] \
                + encode_note(pair[i], prevs[i])
            prevs[i] = pair[i]
    assert tuple(replay) == result.pairs


def test_compose_completes_or_reports_dead_end():
    net1 = SequentialNet.new(hidden_size=15, voices=1, seed=1)
    net2 = SequentialNet.new(hidden_size=15, voices=1, seed=2)
    result = compose(net1, net2, CompositionConfig(length=8, seed=0))
    if result.complete:
        assert validate_duet(*result.voices).legal
    else:
        assert 0 < result.dead_end_step <= 8


def coin_weights(seed, length=20):
    cfg = agent_only_cfg(length=length, seed=seed, start_pair=None,
                         weights=UtilityWeights(mode="coin_toss"))
    return [s.weight for s in compose(None, None, cfg).trace]


def test_coin_toss_weights_fair_and_reproducible():
    draws = [coin_weights(123, length=2)[0] for _ in range(3)]
    assert len(set(draws)) == 1  # same seed, same first draw
    sample = [w for seed in range(7, 7 + 500) for w in coin_weights(seed)]
    assert len(sample) > 9_000
    assert set(sample) <= set(COIN_VALUES)
    freq = sample.count(1.49) / len(sample)
    assert 0.47 <= freq <= 0.53


LAYERS = ("negotiate", "system_utility", "check_pair", "forward",
          "map_to_gamut", "step_state")


@pytest.mark.parametrize("mode", ["deterministic", "coin_toss"])
@pytest.mark.parametrize("agent_only", [True, False],
                         ids=["agent-only", "two-net"])
def test_compose_calls_every_layer_per_bar(monkeypatch, agent_only, mode):
    # compose calls each layer by its module-level name, once per bar and
    # agent, on complete and dead-ended runs alike: what a tracer that
    # replaces those names sees
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in LAYERS:
        monkeypatch.setattr(composer, name,
                            counting(name, getattr(composer, name)))
    monkeypatch.setattr(DuetState, "append",
                        counting("append", DuetState.append))
    nets = (None, None) if agent_only else (SequentialNet.new(seed=1),
                                            SequentialNet.new(seed=2))
    outcomes = set()
    for start in (CompositionConfig().start_pair, None):
        for length in range(2, 13):
            cfg = CompositionConfig(length=length, start_pair=start,
                                    agent_only=agent_only, seed=length,
                                    weights=UtilityWeights(mode=mode))
            calls.clear()
            result = compose(*nets, cfg)
            placed = len(result.trace)
            tried = placed + (not result.complete)  # the dead-end bar too
            pinned = start is not None
            offers = 0 if agent_only else 2
            assert calls == Counter({
                "negotiate": tried - pinned, "system_utility": pinned,
                "check_pair": pinned, "append": placed,
                "forward": offers * tried, "map_to_gamut": offers * tried,
                "step_state": offers * placed}) - Counter(), cfg
            outcomes.add(result.complete)
    assert outcomes == {True, False}
