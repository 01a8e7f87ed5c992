"""Check the symbolic half of bicinium on an interpreter with no numpy.

Runs agent-only deterministic compose from every legal opening pair (and
from a negotiated opening) at every length from 2 to 20, validates,
renders and MIDI-encodes each result, and parses both bundled corpora.
All of that is hashed into one sha256.  Apart from the digest, it asserts
that negotiation reads tuple and int offers: with a negative weight, a run
dead-ends only where no pair is legal.  The script needs nothing but the
standard library and the checkout's ``src/``:

    python tests/floor_check.py

It prints the digest and exits 1 if the digest differs from DIGEST, or if
anything it ran loaded numpy.  pytest does not collect it (no ``test_``
prefix); ``tests/test_numpy_on_use.py`` runs it as a subprocess.
"""

import hashlib
import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bicinium import (CompositionConfig, DuetState, compose, legal_pairs,  # noqa: E402
                      parse_corpus, render_text, validate_duet)
from bicinium.midi import duet_to_midi_bytes  # noqa: E402
from bicinium.negotiation import DeadEnd, negotiate  # noqa: E402

DIGEST = "3d0f7cb00f020eb35af46d3369acc3d48c474b5afb06005d9fa2ad0c32cb02e2"


def lines():
    starts = list(legal_pairs(DuetState(length=2))) + [None]
    for start in starts:
        for length in range(2, 21):
            cfg = CompositionConfig(length=length, start_pair=start,
                                    agent_only=True)
            result = compose(None, None, cfg)
            opening = "none" if start is None else f"{start[0]}:{start[1]}"
            yield f"L={length} start={opening} dead_end={result.dead_end_step}"
            for s in result.trace:
                yield (f"{s.step} {s.pair[0]}:{s.pair[1]} {s.legal_count} "
                       f"{s.weight!r} {s.utility!r}")
            v1, v2 = result.voices
            if v1:
                yield render_text(v1, v2)
                # a dead end leaves a duet that never reached its last bar
                yield str(validate_duet(v1, v2, finalis=result.complete))
                yield duet_to_midi_bytes(v1, v2).hex()
    for name in ("cantus_one_voice.txt", "duets_two_voice.txt"):
        text = (resources.files("bicinium.data") / name).read_text()
        corpus = parse_corpus(text)
        yield f"{name} {corpus.mode}"
        for label, voices in corpus.melodies:
            yield f"{label} " + " / ".join(
                " ".join(p.name for p in voice) for voice in voices)


def check_offers() -> None:
    for offer in ((0.5,) * 13, [1] * 13):
        state = DuetState(8)
        while not state.complete:
            got = negotiate(state, offer, offer, -2.0)
            assert isinstance(got, DeadEnd) == (not legal_pairs(state)), got
            if isinstance(got, DeadEnd):
                break
            state = state.append(got.pair)


def main() -> int:
    check_offers()
    digest = hashlib.sha256()
    for line in lines():
        digest.update(line.encode() + b"\n")
    got = digest.hexdigest()
    print(f"{sys.version.split()[0]} {got}")
    if "numpy" in sys.modules:
        print("floor check: numpy was loaded", file=sys.stderr)
        return 1
    if got != DIGEST:
        print(f"floor check: digest differs from {DIGEST}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
