"""Correctness gate of the benchmark.

Every item the benchmark runs is checked by its workload (a complete
composition must pass ``validate_duet``, a legal duet must be judged legal,
a loss curve must fall, a checkpoint must round-trip exactly).  On top of
that the discrete outputs (pitches, trace pairs and legal counts, rule
verdicts, rendered text, MIDI bytes, CLI stdout and files) are hashed and
compared with the digests recorded at the seed commit in
``data/digests.json``: always for the seed-0 canary run during warm-up,
and for the measured stream whenever its seed has a stored digest.  Each
failure counts in the result's ``failed``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# sha256 of the committed checkpoints the duet and train workloads load.
CHECKPOINTS = {
    "netA.ckpt": "f763adba6ac0ef5bb112b9ae5b30fa2e2ee637da2735b7da358e2083b5977109",
    "netB.ckpt": "0c634694c217543867170a6d2d5cea9a11426089ac3c7d4927bcc60810b35137",
}


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_checkpoints() -> list[str]:
    return [f"{name}: sha256 differs from the committed checkpoint"
            for name, expected in CHECKPOINTS.items()
            if file_sha256(DATA / name) != expected]


def expected_digests() -> dict:
    return json.loads((DATA / "digests.json").read_text())


def check_digest(what: str, actual: str, expected: str | None) -> str | None:
    if expected is None or actual == expected:
        return None
    return f"{what}: output digest {actual[:16]} != recorded {expected[:16]}"


class Tally:
    """Counts attempted and failed operations; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def attempt(self, failure: str | None) -> None:
        self.attempted += 1
        self.fail(failure)

    def fail(self, failure: str | None) -> None:
        if failure is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(failure)
