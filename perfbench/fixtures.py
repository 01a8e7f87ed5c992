"""Regenerate the benchmark's committed fixtures from the library.

    python3 perfbench/fixtures.py [--digests-only]

Writes, under perfbench/data/:

- ``netA.ckpt`` and ``netB.ckpt``: one-voice nets trained on the bundled
  cantus corpus (15 hidden units, seeds 1 and 2, 500 epochs, lr 2.0), as
  in ``demos/04_full_system.py``.  The ``duet`` workload loads them, so its
  outputs do not depend on training arithmetic.
- ``legal_duets.txt``: legal duets of lengths 8..20 found by a seeded
  randomized depth-first search, the legal part of the ``validate`` mix.
- ``digests.json``: the expected output digests (see ``gate.py``), taken
  from the code checked out at the time this script runs.

Only rerun this on purpose: the digests are the record of the outputs the
benchmark accepts, and the checkpoint hashes are pinned in ``gate.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets up the environment and sys.path)

bc = run.import_program()

from gate import file_sha256  # noqa: E402
from workloads import BANK_LENGTHS, DATA, OUT, WORKLOADS  # noqa: E402

BANK_PER_LENGTH = 8
DIGEST_SEEDS = range(32)


def make_checkpoints() -> None:
    text = (run.SRC / "bicinium" / "data" / "cantus_one_voice.txt").read_text()
    samples = bc.parse_corpus(text).training_set()
    for name, seed in (("netA", 1), ("netB", 2)):
        net = bc.SequentialNet.new(plan_size=4, hidden_size=15, voices=1,
                                   seed=seed)
        bc.train(net, samples, epochs=500, learning_rate=2.0)
        bc.save_net(net, DATA / f"{name}.ckpt")
        print(name, file_sha256(DATA / f"{name}.ckpt"))


def _random_legal_duet(rng, length: int):
    """Depth-first search for a legal duet, trying pairs in random order."""
    from bicinium.rules import DuetState, legal_pairs

    def extend(state):
        if state.complete:
            return state
        options = legal_pairs(state)
        for i in rng.permutation(len(options)):
            done = extend(state.append(options[i]))
            if done is not None:
                return done
        return None

    return extend(DuetState(length=length)).history


def make_bank() -> None:
    import numpy as np
    rng = np.random.default_rng(20020321)
    lines = ["# Legal first-species duets (one per line, V1 | V2), "
             "generated by perfbench/fixtures.py."]
    for length in BANK_LENGTHS:
        for _ in range(BANK_PER_LENGTH):
            pairs = _random_legal_duet(rng, length)
            v1 = [a for a, _ in pairs]
            v2 = [b for _, b in pairs]
            if not bc.validate_duet(v1, v2).legal:
                raise RuntimeError(f"search returned an illegal duet: {pairs}")
            lines.append(" ".join(p.name for p in v1) + " | "
                         + " ".join(p.name for p in v2))
    (DATA / "legal_duets.txt").write_text("\n".join(lines) + "\n")


def make_digests() -> None:
    table = {"canary": {}, "seeds": {}}
    for name, cls in WORKLOADS.items():
        wl = cls(bc)
        table["canary"][name] = run.canary_digest(wl)
        table["seeds"][name] = {str(s): run.seed_digest(wl, s)
                                for s in DIGEST_SEEDS}
        print(name, table["canary"][name])
    (DATA / "digests.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    if "--digests-only" not in sys.argv:
        make_checkpoints()
        make_bank()
    make_digests()
