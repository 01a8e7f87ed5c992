"""Every count the library takes is an integer in its range, or the entry
point raises ValueError before it builds, trains or composes anything."""

from typing import Callable, NamedTuple

import numpy as np
import pytest

from bicinium.composer import CompositionConfig
from bicinium.gamut import GAMUT
from bicinium.rules import DuetState
from bicinium.seqnet import (MAX_EPOCHS, MAX_HIDDEN, MAX_LENGTH,
                             SequentialNet, generate, train)

PLAN = (1.0, 0.0, 0.0, 0.0)
CORPUS = [(PLAN, ((GAMUT[7], GAMUT[11], GAMUT[10]),))]


def _new(**counts):
    # the weights, which numpy arrays would make ambiguous to compare
    return SequentialNet.new(**counts).w1.tolist()


def _train(epochs):
    return train(SequentialNet.new(seed=1), CORPUS, epochs=epochs)


def _generate(length):
    return generate(SequentialNet.new(seed=1), PLAN, length)


class Count(NamedTuple):
    name: str
    call: Callable  # the entry point, called with the count
    valid: int
    low: int
    high: int | None


COUNTS = {
    "CompositionConfig-length": Count(
        "length", lambda v: CompositionConfig(length=v), 8, 2, MAX_LENGTH),
    "CompositionConfig-seed": Count(
        "seed", lambda v: CompositionConfig(seed=v), 3, 0, None),
    "DuetState-length": Count(
        "length", lambda v: DuetState(length=v), 8, 0, None),
    "SequentialNet.new-seed": Count(
        "seed", lambda v: _new(seed=v), 1, 0, None),
    "SequentialNet.new-plan_size": Count(
        "plan_size", lambda v: _new(plan_size=v), 4, 1, None),
    "SequentialNet.new-hidden_size": Count(
        "hidden_size", lambda v: _new(hidden_size=v), 3, 1, MAX_HIDDEN),
    "SequentialNet.new-voices": Count(
        "voices", lambda v: _new(voices=v), 2, 1, None),
    "train-epochs": Count("epochs", _train, 1, 1, MAX_EPOCHS),
    "generate-length": Count("length", _generate, 3, 1, MAX_LENGTH),
}
every_count = pytest.mark.parametrize("count", COUNTS.values(),
                                      ids=COUNTS.keys())


@every_count
@pytest.mark.parametrize("value", [8.5, "8", 3.0, None])
def test_a_count_that_is_not_an_integer_is_refused(count, value):
    with pytest.raises(ValueError, match=f"^{count.name} must be an integer, "
                                         f"got {value!r}$"):
        count.call(value)


@every_count
def test_a_count_outside_its_range_is_refused(count):
    low, high = count.low, count.high
    bound = "non-negative" if low == 0 else f"at least {low}"
    with pytest.raises(ValueError,
                       match=f"^{count.name} must be {bound}, got {low - 1}$"):
        count.call(low - 1)
    if high is not None:
        with pytest.raises(ValueError, match=f"^{count.name} must be at most "
                                             f"{high}, got {high + 1}$"):
            count.call(high + 1)


@every_count
@pytest.mark.parametrize("integer", [int, np.int64, np.uint16])
def test_a_count_may_be_a_numpy_integer(count, integer):
    assert count.call(integer(count.valid)) == count.call(count.valid)


@pytest.mark.parametrize("length", range(21))
def test_duet_state_is_complete_exactly_when_its_key_is_none(length):
    # append does not judge legality, so one pair repeated fills any length
    state = DuetState(length=length)
    while not state.complete:
        assert state._key is not None
        state = state.append((GAMUT[7], GAMUT[11]))
    assert state._key is None and state.position == length
