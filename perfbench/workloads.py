"""The four benchmark workloads.

Each workload is a closed loop with one caller.  ``prepare(seed)`` builds
its inputs as rounds: a round holds one item of every stratum (length,
weight mode, corpus, hidden size, text kind) in seeded order, so any run
that ends on a round boundary sees the same mix whatever the seed.  The
program only ever receives these generated inputs, through its public API
or its command line.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
OUT = HERE / "out"

BANK_LENGTHS = range(8, 21)
PLANS = ((0.8, 0.0, 0.8, 0.0), (0.0, 1.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0),
         (0.0, 0.0, 1.0, 0.0), (0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.6, 0.9))
WALK_STEPS = (-3, -2, -1, 1, 2, 3)
EPOCHS = 500
LEARNING_RATE = 2.0


def _names(pitches) -> str:
    return " ".join(p.name for p in pitches)


def _plan_arg(plan) -> str:
    return ",".join(repr(v) for v in plan)


def _composition_record(cfg, result) -> str:
    start = "none" if cfg.start_pair is None else \
        f"{cfg.start_pair[0]}:{cfg.start_pair[1]}"
    trace = " ".join(f"{s.pair[0]}:{s.pair[1]}/{s.legal_count}"
                     for s in result.trace)
    return (f"L={cfg.length} start={start} mode={cfg.weights.mode} "
            f"seed={cfg.seed} plans={cfg.plan1}{cfg.plan2} "
            f"dead_end={result.dead_end_step} trace={trace}\n")


class Workload:
    """Shared shape of a workload; subclasses fill in the specifics."""

    name = ""
    item_noun = "item"
    rate_noun = "items"
    # Fixed per workload so that a faster program is compared at the same
    # percentile: the highest of 50/90/95/98/99 that keeps at least ten
    # samples beyond it in a 20 s run at the seed commit, even on a box
    # running a quarter slower than usual.  Capped at p95 for validate,
    # whose 0.15 ms items put scheduler interrupts, not the program, in the
    # higher percentiles (on a 2-core Xeon VM, p99 varied by 27% across
    # seeds and p99.9 by 63%).
    tail_percentile = 98.0
    pool_rounds = 100        # rounds generated in set-up; the loop cycles
    trace_rounds = 1         # rounds timed with and without tracing
    warmup_items = 10**9     # items of seed 0's first round run untimed
    digested = True          # whether in-process outputs enter the digest

    def __init__(self, bc):
        self.bc = bc

    def prepare(self, seed: int, rounds: int | None = None) -> list[list]:
        rng = np.random.default_rng(seed)
        return [self._round(rng) for _ in range(rounds or self.pool_rounds)]

    def _round(self, rng) -> list:
        items = self._stratum_items(rng)
        return [items[i] for i in rng.permutation(len(items))]

    def rate_terms(self, output, seconds: float) -> tuple[float, float]:
        """Work done by one item and the time it took, for throughput."""
        return 1.0, seconds

    def check(self, item, output) -> str | None:
        return None

    def count(self, output, stats) -> None:
        """Add the item's behaviour counts to ``stats`` (traced runs)."""

    def record(self, item, output) -> str:
        return ""

    def cli_command(self, seed: int, index: int):
        """argv after ``python -m bicinium.cli``, files it writes, and the
        exit codes that are correct for it."""
        raise NotImplementedError

    def _check_complete(self, result, report=None) -> str | None:
        if not result.complete:
            return None
        v1, v2 = result.voices
        report = report or self.bc.validate_duet(list(v1), list(v2))
        if not report.legal:
            return f"complete duet fails validate_duet:\n{report}"
        return None


class Search(Workload):
    """Agent-only compose: rules, negotiation and the composer loop."""

    name = "search"
    item_noun = "agent-only compose"
    rate_noun = "duets"
    tail_percentile = 98.0
    pool_rounds = 200
    trace_rounds = 4
    lengths = range(3, 21)

    def __init__(self, bc):
        super().__init__(bc)
        from bicinium.rules import DuetState
        self.starts = bc.legal_pairs(DuetState(length=3)) + [None]
        self.weights = (bc.UtilityWeights(),
                        bc.UtilityWeights(mode="coin_toss"))

    def _stratum_items(self, rng) -> list:
        return [self.bc.CompositionConfig(
                    length=length, weights=weights, agent_only=True,
                    start_pair=self.starts[rng.integers(len(self.starts))],
                    seed=int(rng.integers(2**31)))
                for length in self.lengths for weights in self.weights]

    def run(self, cfg):
        return self.bc.compose(None, None, cfg)

    def check(self, cfg, result):
        return self._check_complete(result)

    def record(self, cfg, result):
        return _composition_record(cfg, result)

    def cli_command(self, seed, index):
        rng = np.random.default_rng([seed, index])
        trace = OUT / "search.csv"
        argv = ["compose", "--agent-only",
                "--length", str(int(rng.integers(3, 21))),
                "--mode", ("det", "coin")[rng.integers(2)],
                "--seed", str(int(rng.integers(2**31))), "--trace", str(trace)]
        return argv, [trace], (0,)


class Duet(Workload):
    """Two checkpointed nets compose; each duet is validated, rendered
    and encoded as MIDI."""

    name = "duet"
    item_noun = "two-net compose + validate + render + MIDI"
    rate_noun = "duets"
    tail_percentile = 98.0
    pool_rounds = 200
    trace_rounds = 3
    lengths = range(8, 17)

    def __init__(self, bc):
        super().__init__(bc)
        self.weights = (bc.UtilityWeights(),
                        bc.UtilityWeights(mode="coin_toss"))
        self.nets = None

    def prepare(self, seed, rounds=None):
        self.nets = (self.bc.load_net(DATA / "netA.ckpt"),
                     self.bc.load_net(DATA / "netB.ckpt"))
        return super().prepare(seed, rounds)

    def _stratum_items(self, rng):
        return [self.bc.CompositionConfig(
                    length=length, weights=weights,
                    plan1=PLANS[rng.integers(len(PLANS))],
                    plan2=PLANS[rng.integers(len(PLANS))],
                    seed=int(rng.integers(2**31)))
                for length in self.lengths for weights in self.weights]

    def run(self, cfg):
        bc = self.bc
        result = bc.compose(self.nets[0], self.nets[1], cfg)
        if not result.complete:
            return result, None, None, None
        v1, v2 = result.voices
        return (result, bc.validate_duet(list(v1), list(v2)),
                bc.render_text(v1, v2), bc.midi.duet_to_midi_bytes(v1, v2))

    def check(self, cfg, output):
        return self._check_complete(output[0], output[1])

    def record(self, cfg, output):
        result, report, text, midi = output
        extra = "" if report is None else f"{report}\n{text}{midi.hex()}\n"
        return _composition_record(cfg, result) + extra

    def cli_command(self, seed, index):
        rng = np.random.default_rng([seed, index])
        midi, trace = OUT / "duet.mid", OUT / "duet.csv"
        argv = ["compose",
                "--netA", str(DATA / "netA.ckpt"),
                "--netB", str(DATA / "netB.ckpt"),
                "--plan1", _plan_arg(PLANS[rng.integers(len(PLANS))]),
                "--plan2", _plan_arg(PLANS[rng.integers(len(PLANS))]),
                "--length", str(int(rng.integers(8, 17))),
                "--mode", ("det", "coin")[rng.integers(2)],
                "--seed", str(int(rng.integers(2**31))),
                "--midi", str(midi), "--trace", str(trace)]
        return argv, [midi, trace], (0,)


class Train(Workload):
    """Backprop training on both bundled corpora, then a checkpoint round
    trip and a replay of every melody."""

    name = "train"
    item_noun = "train 500 epochs + save/load + replay"
    rate_noun = "updates"
    tail_percentile = 50.0  # ~24 nets a run: nothing above p50 has ten beyond
    pool_rounds = 20
    trace_rounds = 1
    warmup_items = 1
    digested = False  # weights follow training arithmetic, not the rules
    hidden_sizes = (8, 15, 24)

    def prepare(self, seed, rounds=None):
        data = Path(self.bc.__file__).parent / "data"
        self.corpora = tuple((data / f).read_text() for f in
                             ("cantus_one_voice.txt", "duets_two_voice.txt"))
        return super().prepare(seed, rounds)

    def _stratum_items(self, rng):
        return [(corpus, hidden, int(rng.integers(2**31)))
                for corpus in range(len(self.corpora))
                for hidden in self.hidden_sizes]

    def run(self, item):
        bc = self.bc
        corpus_index, hidden, seed = item
        corpus = bc.parse_corpus(self.corpora[corpus_index])
        samples = corpus.training_set()
        net = bc.SequentialNet.new(hidden_size=hidden, voices=corpus.voices,
                                   seed=seed)
        start = perf_counter()
        curve = bc.train(net, samples, epochs=EPOCHS,
                         learning_rate=LEARNING_RATE)
        train_s = perf_counter() - start
        path = OUT / "train.ckpt"
        bc.save_net(net, path)
        loaded = bc.load_net(path)
        exact = 0
        for plan, voices in samples:
            first = tuple(v[0] for v in voices)
            replay = bc.generate(loaded, plan, len(voices[0]),
                                 start=first if len(first) > 1 else first[0])
            exact += replay == tuple(voices)
        updates = EPOCHS * sum(len(voices[0]) for _, voices in samples)
        return {"curve": curve, "train_s": train_s, "updates": updates,
                "net": net, "loaded": loaded, "exact": exact,
                "melodies": len(samples)}

    def rate_terms(self, output, seconds):
        return output["updates"], output["train_s"]

    def count(self, output, stats):
        stats.update(exact=output["exact"], melodies=output["melodies"])

    def check(self, item, output):
        curve = output["curve"]
        if not np.all(np.isfinite(curve)) or not curve[-1] < curve[0]:
            return f"training loss curve does not fall: {curve[0]} -> {curve[-1]}"
        net, loaded = output["net"], output["loaded"]
        for field in ("plan_size", "hidden_size", "voices", "decay"):
            if getattr(net, field) != getattr(loaded, field):
                return f"checkpoint round trip changed {field}"
        for field in ("w1", "b1", "w2", "b2"):
            if not np.array_equal(getattr(net, field), getattr(loaded, field)):
                return f"checkpoint round trip changed {field}"
        return None

    def cli_command(self, seed, index):
        rng = np.random.default_rng([seed, index])
        plan = [0.0] * 4
        plan[rng.integers(4)] = 1.0
        argv = ["generate", "--net", str(DATA / ("netA.ckpt", "netB.ckpt")
                                         [rng.integers(2)]),
                "--plan", _plan_arg(plan),
                "--length", str(int(rng.integers(8, 13))), "--start", "re8"]
        return argv, [], (0,)


class Validate(Workload):
    """Parse and validate a stream of duet texts: legal duets, one-note
    mutations of them, and random walks."""

    name = "validate"
    item_noun = "parse + validate one duet text"
    rate_noun = "validations"
    tail_percentile = 95.0
    pool_rounds = 200
    trace_rounds = 100
    kinds = ("legal", "mutation", "walk")

    def prepare(self, seed, rounds=None):
        bank = {length: [] for length in BANK_LENGTHS}
        for line in (DATA / "legal_duets.txt").read_text().splitlines():
            if line and not line.startswith("#"):
                v1, v2 = (tuple(self.bc.pitch_from_name(t) for t in half.split())
                          for half in line.split("|"))
                bank[len(v1)].append((v1, v2))
        self.bank = bank
        return super().prepare(seed, rounds)

    def _stratum_items(self, rng):
        gamut = self.bc.GAMUT
        items = []
        for length in BANK_LENGTHS:
            options = self.bank[length]
            for kind in self.kinds:
                if kind == "walk":
                    voices = []
                    for _ in range(2):
                        i = int(rng.integers(len(gamut)))
                        walk = []
                        for step in rng.integers(len(WALK_STEPS), size=length):
                            walk.append(gamut[i])
                            i = min(max(i + WALK_STEPS[step], 0), len(gamut) - 1)
                        voices.append(walk)
                else:
                    voices = [list(v) for v in
                              options[rng.integers(len(options))]]
                    if kind == "mutation":
                        voice, pos = rng.integers(2), rng.integers(length)
                        old = voices[voice][pos].index
                        new = (old + int(rng.integers(1, len(gamut)))) % len(gamut)
                        voices[voice][pos] = gamut[new]
                text = f"V1: {_names(voices[0])}\nV2: {_names(voices[1])}\n"
                items.append((kind, text))
        return items

    def run(self, item):
        v1, v2 = self.bc.parse_duet_text(item[1])
        return self.bc.validate_duet(v1, v2)

    def check(self, item, report):
        if item[0] == "legal" and not report.legal:
            return f"legal duet judged illegal:\n{report}"
        return None

    def record(self, item, report):
        return f"{item[0]}\n{report}\n"

    def cli_command(self, seed, index):
        rng = np.random.default_rng([seed, index])
        kind, text = self._round(rng)[0]
        path = OUT / "validate.txt"
        path.write_text(text)
        return ["validate", "--duet", str(path)], [], \
            (0,) if kind == "legal" else (0, 1)


WORKLOADS = {cls.name: cls for cls in (Search, Duet, Train, Validate)}
