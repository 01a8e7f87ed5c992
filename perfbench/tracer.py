"""Span tracing from outside the program.

``Tracer.install`` replaces each public function that a layer is entered
through with a wrapper, in every ``bicinium`` module that holds a reference
to it (so ``composer``'s own ``negotiate`` and ``negotiation``'s own
``check_pair`` are traced too).  Each call records one span: sequence
number, name, start and end (``perf_counter_ns``), the span that was open
when it began, and the group (one composition, net or validation) it
belongs to.  Spans stay in memory in one flat integer array and are saved
when the run ends.  Self time is a span's duration minus its children's,
so a parent's self time also holds the wrapper cost of its children; the
traced run reports the total cost as ``trace.overhead_share``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

TRACED = (
    "rules.check_pair", "rules.legal_pairs", "rules.validate_duet",
    "negotiation.negotiate", "negotiation.system_utility",
    "composer.compose",
    "seqnet.forward", "seqnet.map_to_gamut", "seqnet.step_state",
    "seqnet.train", "seqnet.generate", "seqnet.save_net", "seqnet.load_net",
    "corpus.parse_duet_text", "corpus.render_text", "corpus.parse_corpus",
    "midi.duet_to_midi_bytes",
)
FIELDS = 6  # seq, name index, start, end, parent seq, group


def _observe_train(counts, args, curve):
    counts["epochs"] += len(curve)
    counts["samples"] += sum(len(voices[0]) for _, voices in args[1])


# Counts taken at the same boundaries as the spans.
OBSERVERS = {
    "rules.legal_pairs":
        lambda c, a, r: c.update(legal=len(r)),
    "negotiation.negotiate":
        lambda c, a, r: c.update(dead_ends=type(r).__name__ == "DeadEnd"),
    "composer.compose":
        lambda c, a, r: c.update(bars=len(r.pairs), incomplete=not r.complete),
    "seqnet.train": _observe_train,
    "midi.duet_to_midi_bytes":
        lambda c, a, r: c.update(midi_bytes=len(r)),
}


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.stack = [-1]
        self.seq = 0
        self.group = 0
        self.counts: Counter = Counter()
        self.paused = False  # set while the benchmark checks an output
        self._patched: list = []

    def _wrap(self, index: int, fn, observe):
        spans, stack, clock = self.spans, self.stack, perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            seq = self.seq
            self.seq = seq + 1
            parent = stack[-1]
            stack.append(seq)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((seq, index, start, end, parent, self.group))
            if observe is not None:
                observe(self.counts, args, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bicinium" or name.startswith("bicinium.")]
        for index, qualified in enumerate(TRACED):
            module, func = qualified.split(".")
            original = getattr(sys.modules[f"bicinium.{module}"], func)
            wrapper = self._wrap(index, original, OBSERVERS.get(qualified))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def table(self) -> np.ndarray:
        """Spans as rows ordered by sequence number (row index == seq)."""
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS)
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def save(self, path) -> None:
        np.savez_compressed(path, spans=self.table(), names=np.array(TRACED),
                            fields=np.array(["seq", "name", "start_ns",
                                             "end_ns", "parent", "group"]))

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        rows = self.table()
        dur = rows[:, 3] - rows[:, 2]
        child = np.zeros(len(rows), dtype=np.int64)
        nested = rows[:, 4] >= 0
        np.add.at(child, rows[nested, 4], dur[nested])
        own = dur - child
        out = {}
        for index, name in enumerate(TRACED):
            mask = rows[:, 1] == index
            out[name] = (int(mask.sum()), dur[mask].sum() / 1e9,
                         own[mask].sum() / 1e9)
        return out
