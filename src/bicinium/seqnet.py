"""Jordan-style sequential net: 19-unit note codes, decaying state units,
backprop training, and the mapping of output activations onto the gamut.

A note is coded in 19 units: 8 for the pitch degree on a re..re' wheel,
9 for the step distance 0..8 from the previous note, and 2 for the
direction of movement.  The input layer holds the plan units (a fixed
label per melody) next to state units that accumulate decayed copies of
past notes; hidden and output units are logistic.  A two-voice net simply
doubles the code: 38 output/state units, one 19-block per voice.

numpy is imported inside the functions that use it, so the rules, the
agents and the command line can import this module without loading numpy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .gamut import (GAMUT, Pitch, _check_count, _check_offer, _check_voices,
                    interval_steps)

__all__ = [
    "NOTE_CODE_SIZE",
    "MAX_LENGTH",
    "MAX_HIDDEN",
    "MAX_EPOCHS",
    "SequentialNet",
    "encode_note",
    "forward",
    "step_state",
    "map_to_gamut",
    "decode_pitch",
    "train",
    "generate",
    "save_net",
    "load_net",
]

NOTE_CODE_SIZE = 19
# The most notes ``generate`` free-runs, and the most bars ``compose``
# writes: a limit on input, not a setting.
MAX_LENGTH = 1000
# The widest hidden layer a net may have and the most epochs ``train``
# runs: limits on input, far above any recipe in the project (hidden 40,
# 1,500 epochs).
MAX_HIDDEN = 1000
MAX_EPOCHS = 100_000
_PITCH_UNITS = 8
_ASCEND, _DESCEND = 17, 18


def _degree_unit(p: Pitch) -> int:
    # re..re' wheel: index 7 (re8) keeps its own unit; 8..12 fold to 1..5
    return p.index if p.index <= 7 else p.index - 7


# Pad units appended after the 19-block: a factor of 1.0 and a zero score.
_ONE, _ZERO = 19, 20
_UNIT_PAD = [1.0, 0.0]


def _gamut_units(prev: Pitch | None) -> tuple[tuple[int, int, int], ...]:
    """(degree, interval, direction) units each gamut pitch reads after
    ``prev``; a pitch more than 8 steps away reads the zero unit."""
    units = []
    for p in GAMUT:
        if prev is None:
            units.append((_degree_unit(p), _ONE, _ONE))
            continue
        delta = p.index - prev.index
        if abs(delta) > 8:
            units.append((_ZERO, _ONE, _ONE))
        else:
            sign = _ASCEND if delta > 0 else _DESCEND if delta < 0 else _ONE
            units.append((_degree_unit(p), _PITCH_UNITS + abs(delta), sign))
    return tuple(units)


# Indexed by the previous pitch's index, with slot 13 for no previous pitch.
_GAMUT_UNITS = tuple(_gamut_units(prev) for prev in GAMUT + (None,))


def encode_note(cur: Pitch, prev: Pitch | None = None) -> np.ndarray:
    """One-hot 19-code of a note in the context of its predecessor."""
    if _GAMUT_UNITS[13 if prev is None else prev.index][cur.index][0] == _ZERO:
        raise ValueError(
            f"step {prev.name}->{cur.name} spans "
            f"{interval_steps(prev, cur)} steps, beyond the 9 interval units")
    return _feedback_code(cur, prev).copy()


def _feedback_code(note: Pitch, prev: Pitch | None) -> np.ndarray:
    """Read-only 19-code fed back into the state units for a chosen note.

    The rules cap simultaneous intervals, not melodic leaps, so a note can
    sit more than 8 steps from its predecessor; the code has no interval
    unit for that, and the bare code of the note stands in.
    """
    return _code(note.index, 13 if prev is None else prev.index)


@cache
def _code(note: int, slot: int) -> np.ndarray:
    import numpy as np
    units = _GAMUT_UNITS[slot][note]
    if units[0] == _ZERO:
        units = _GAMUT_UNITS[13][note]
    code = np.zeros(NOTE_CODE_SIZE)
    code[[u for u in units if u < NOTE_CODE_SIZE]] = 1.0
    code.flags.writeable = False
    return code


@dataclass
class SequentialNet:
    """Three-layer net with plan+state input, logistic hidden and output;
    ``__post_init__`` checks every net, however built, against ``_shapes``."""

    plan_size: int
    hidden_size: int
    voices: int
    decay: float
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        import numpy as np
        for name, shape in _shapes(self.plan_size, self.hidden_size,
                                   self.voices, self.decay).items():
            w = getattr(self, name)
            if not isinstance(w, np.ndarray) or w.dtype != np.float64:
                raise ValueError(f"{name} is not a float64 array")
            if w.shape != shape:
                raise ValueError(f"{name} has shape {w.shape}, but the sizes "
                                 f"imply {shape}")
            if not np.isfinite(w).all():
                raise ValueError(f"{name} holds a non-finite value")

    @property
    def output_size(self) -> int:
        return self.voices * NOTE_CODE_SIZE

    @classmethod
    def new(cls, plan_size: int = 4, hidden_size: int = 15, voices: int = 1,
            decay: float = 0.7, seed: int = 0) -> "SequentialNet":
        import numpy as np
        shapes = _shapes(plan_size, hidden_size, voices, decay)
        _check_count("seed", seed, 0)
        rng = np.random.default_rng(seed)
        return cls(plan_size, hidden_size, voices, decay,
                   *(rng.uniform(-0.5, 0.5, size=s) for s in shapes.values()))

    def fresh_state(self) -> np.ndarray:
        import numpy as np
        return np.zeros(self.output_size)


def _shapes(plan_size: int, hidden_size: int, voices: int, decay: float):
    """Each weight's shape, in ``new``'s draw order, after the limit checks."""
    _check_count("plan_size", plan_size, 1)
    _check_count("hidden_size", hidden_size, 1, MAX_HIDDEN)
    _check_count("voices", voices, 1)
    if not (isinstance(decay, numbers.Real) and 0 <= decay < 1):
        raise ValueError(f"decay must be in [0, 1), got {decay}")
    out = voices * NOTE_CODE_SIZE
    return {"w1": (hidden_size, plan_size + out), "b1": (hidden_size,),
            "w2": (out, hidden_size), "b2": (out,)}


def step_state(net: SequentialNet, state: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """s' = decay * s + out, elementwise, with the net's decay."""
    import numpy as np
    out = np.asarray(out, dtype=float)
    if out.shape != state.shape:
        raise ValueError("state/output length mismatch")
    return net.decay * state + out


def forward(net: SequentialNet, plan: np.ndarray,
            state: np.ndarray) -> np.ndarray:
    """One forward pass; returns the output activations in (0, 1)."""
    import numpy as np
    units = np.asarray(state)
    plan = np.asarray(plan, dtype=float)
    if plan.shape != (net.plan_size,):
        raise ValueError(f"plan must have shape ({net.plan_size},)")
    if units.shape != (net.output_size,):
        raise ValueError(f"state must have shape ({net.output_size},)")
    x = np.concatenate([plan, units])
    hidden = 1.0 / (1.0 + np.exp(-(net.w1 @ x + net.b1)))
    return 1.0 / (1.0 + np.exp(-(net.w2 @ hidden + net.b2)))


def map_to_gamut(out: np.ndarray, prev: Pitch | None = None) -> list[float]:
    """Combine one 19-block of activations into 13 per-pitch expectations.

    Each gamut pitch is scored by the product of its degree-wheel
    activation, the activation of its step distance from the previous
    note, and the activation of the movement direction (a pitch beyond
    the 8 interval units scores 0); the vector is then normalized to peak
    at 1 (all-zero passes through).  The products run on Python floats,
    in that order, over the unit table of ``prev``, into a list; a product
    that is not finite and non-negative (a NaN weight, say) raises ValueError.
    """
    import numpy as np
    out = np.asarray(out, dtype=float)
    if out.shape != (NOTE_CODE_SIZE,):
        raise ValueError("expected one 19-unit block")
    o = out.tolist() + _UNIT_PAD
    acts = [o[d] * o[i] * o[s]
            for d, i, s in _GAMUT_UNITS[13 if prev is None else prev.index]]
    _check_offer(acts)
    peak = max(acts)
    if peak > 0:
        acts = [a / peak for a in acts]
    return acts


def decode_pitch(out_block: np.ndarray, prev: Pitch | None = None) -> Pitch:
    """Argmax decode of one 19-block (ties to the lowest pitch index)."""
    acts = map_to_gamut(out_block, prev)
    return GAMUT[acts.index(max(acts))]


def _teacher_samples(net: SequentialNet, corpus):
    """Unroll every melody with teacher forcing into (input, target) rows.

    With target codes (not predictions) fed back into the state units, the
    inputs do not depend on the weights, so training reduces to plain
    backprop over a fixed sample set.
    """
    import numpy as np
    inputs, targets = [], []
    for plan, voices in corpus:
        plan = np.asarray(plan, dtype=float)
        if plan.shape != (net.plan_size,):
            raise ValueError("plan label size mismatch")
        if not np.isfinite(plan).all():
            raise ValueError("plan label holds a non-finite value")
        if len(voices) != net.voices:
            raise ValueError(f"net expects {net.voices} voice(s)")
        _check_voices(*voices)
        if not len(voices[0]):
            raise ValueError("empty melody: its voices hold no notes")
        state = net.fresh_state()
        for t in range(len(voices[0])):
            code = np.concatenate(
                [encode_note(v[t], v[t - 1] if t else None) for v in voices])
            inputs.append(np.concatenate([plan, state]))
            targets.append(code)
            state = step_state(net, state, code)
    return np.array(inputs), np.array(targets)


def train(net: SequentialNet, corpus, epochs: int = 500,
          learning_rate: float = 0.2) -> list[float]:
    """Online backprop over the teacher-forced sample set, in place.

    Returns the per-epoch mean squared error (mean over samples and
    output units), measured on each sample before its update.  A learning
    rate of 0 leaves the weights as they are.

    The weights are trained as views of one flat vector and their
    gradients as views of a twin, every step writes into buffers made
    once, and an update is two calls over the whole vector.  Each element
    still goes through the per-sample formula's operations in its order
    (h = 1/(1+exp(-(w1 x + b1))), o likewise, dz2 = ((o-t)*o)*(1-o),
    dz1 = ((w2.T dz2)*h)*(1-h), then outer products, times the learning
    rate, subtracted), so the result is the same to the bit.
    """
    import numpy as np
    _check_count("epochs", epochs, 1, MAX_EPOCHS)
    if not 0 <= learning_rate < np.inf:
        raise ValueError("learning rate must be finite and non-negative, "
                         f"got {learning_rate}")
    if not corpus:
        raise ValueError("empty corpus")
    inputs, targets = _teacher_samples(net, corpus)
    fields = (net.w1, net.b1, net.w2, net.b2)
    params = np.concatenate([a.ravel() for a in fields])
    grads = np.empty_like(params)
    cuts = np.cumsum([a.size for a in fields])[:-1]

    def views(flat):
        return [v.reshape(a.shape)
                for v, a in zip(np.split(flat, cuts), fields)]

    w1, b1, w2, b2 = views(params)
    gw1, gb1, gw2, gb2 = views(grads)
    w2t, dz1_col, dz2_col = w2.T, gb1[:, None], gb2[:, None]
    h, h_tmp = np.empty(net.hidden_size), np.empty(net.hidden_size)
    h_row = h[None, :]
    o, d, o_tmp = (np.empty(net.output_size) for _ in range(3))
    samples = list(zip(inputs, inputs[:, None, :], targets))
    # Bound to locals: the attribute lookups cost about 9% of an update.
    matmul, add, subtract, multiply = (np.matmul, np.add, np.subtract,
                                       np.multiply)
    divide, negative, exp, add_reduce = (np.divide, np.negative, np.exp,
                                         np.add.reduce)
    size = net.output_size
    curve = []
    # A saturated sigmoid overflows np.exp to inf and reads exactly 0.0.
    with np.errstate(over="ignore"):
        for _ in range(epochs):
            sq = 0.0
            for x, x_row, t in samples:
                matmul(w1, x, out=h)
                add(h, b1, out=h)
                negative(h, out=h)
                exp(h, out=h)
                add(1.0, h, out=h)
                divide(1.0, h, out=h)
                matmul(w2, h, out=o)
                add(o, b2, out=o)
                negative(o, out=o)
                exp(o, out=o)
                add(1.0, o, out=o)
                divide(1.0, o, out=o)
                subtract(o, t, out=d)
                multiply(d, d, out=o_tmp)
                sq += float(add_reduce(o_tmp) / size)
                multiply(d, o, out=gb2)
                subtract(1.0, o, out=o_tmp)
                multiply(gb2, o_tmp, out=gb2)
                matmul(w2t, gb2, out=gb1)
                multiply(gb1, h, out=gb1)
                subtract(1.0, h, out=h_tmp)
                multiply(gb1, h_tmp, out=gb1)
                multiply(dz1_col, x_row, out=gw1)
                multiply(dz2_col, h_row, out=gw2)
                multiply(grads, learning_rate, out=grads)
                subtract(params, grads, out=params)
            curve.append(sq / len(samples))
    for field, trained in zip(fields, (w1, b1, w2, b2)):
        field[...] = trained
    return curve


def generate(net: SequentialNet, plan, length: int,
             start: Pitch | tuple | None = None) -> tuple[tuple[Pitch, ...], ...]:
    """Free-run the net for `length` steps, one pitch sequence per voice.

    The argmax-decoded note of each step is re-encoded and fed back into
    the state units.  `start` pins the first note (a pitch, or a tuple of
    pitches for a multi-voice net).
    """
    import numpy as np
    _check_count("length", length, 1, MAX_LENGTH)
    plan = np.asarray(plan, dtype=float)
    if not np.isfinite(plan).all():
        raise ValueError("plan holds a non-finite value")
    if start is not None and not isinstance(start, tuple):
        start = (start,)
    if start is not None and list(map(type, start)) != [Pitch] * net.voices:
        raise ValueError(f"start needs one pitch per voice ({net.voices})")
    state = net.fresh_state()
    prev: list[Pitch | None] = [None] * net.voices
    voices: list[list[Pitch]] = [[] for _ in range(net.voices)]
    with np.errstate(over="ignore"):  # as in train
        for t in range(length):
            out = forward(net, plan, state)
            feedback = []
            for v in range(net.voices):
                block = out[v * NOTE_CODE_SIZE:(v + 1) * NOTE_CODE_SIZE]
                if t == 0 and start is not None:
                    pitch = start[v]
                else:
                    pitch = decode_pitch(block, prev[v])
                voices[v].append(pitch)
                feedback.append(_feedback_code(pitch, prev[v]))
                prev[v] = pitch
            state = step_state(net, state, np.concatenate(feedback))
    return tuple(tuple(v) for v in voices)


_CKPT_MAGIC = "bicinium-net v1"


def save_net(net: SequentialNet, path) -> None:
    """Write a checkpoint as portable decimal text (exact round-trip)."""
    lines = [_CKPT_MAGIC,
             f"plan_size {net.plan_size}",
             f"hidden_size {net.hidden_size}",
             f"voices {net.voices}",
             f"decay {net.decay!r}"]
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(net, name)
        lines.append(f"{name} {' '.join(str(d) for d in arr.shape)}")
        lines.append(" ".join(f"{v:.17g}" for v in arr.ravel()))
    Path(path).write_text("\n".join(lines) + "\n")


def load_net(path) -> SequentialNet:
    """Read a checkpoint written by ``save_net``.  A file that is not one,
    is cut short or malformed, or holds a net ``SequentialNet`` refuses
    raises ValueError naming the file."""
    import numpy as np
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a net checkpoint")
    if not text.endswith("\n"):  # save_net ends every line, the last too
        raise ValueError(f"{path}: truncated checkpoint, cut inside a line")
    try:
        header = dict(line.split(None, 1) for line in lines[1:5])
        fields = [int(header["plan_size"]), int(header["hidden_size"]),
                  int(header["voices"]), float(header["decay"])]
        arrays = {}
        for i in range(5, len(lines) - 1, 2):
            name, *shape = lines[i].split()
            arrays[name] = (tuple(int(s) for s in shape),
                            np.array([float(v) for v in lines[i + 1].split()]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: truncated or malformed checkpoint "
                         f"({exc!r})") from None
    try:
        weights = []
        for name in ("w1", "b1", "w2", "b2"):
            if name not in arrays:
                raise ValueError(f"truncated checkpoint, no {name} array")
            shape, values = arrays[name]
            if values.size != np.prod(shape) or min(shape, default=0) < 0:
                raise ValueError(f"{name} holds {values.size} values, but "
                                 f"its line declares shape {shape}")
            weights.append(values.reshape(shape))
        return SequentialNet(*fields, *weights)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
