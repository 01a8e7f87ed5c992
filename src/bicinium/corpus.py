"""Corpus and score text formats.

A corpus file holds blank-line-separated melody blocks.  Each block is
either one bare line of solfege tokens (one-voice corpus) or adjacent
``V1:`` / ``V2:`` lines (two-voice corpus), optionally preceded by a
``label:`` line giving the plan vector: at least one value, each finite.
``#`` starts a comment line.  Unlabeled melodies get one-hot labels of
``PLAN_SIZE`` values in file order, and every label of a corpus has the
length of the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .gamut import Pitch, _check_voices, pitch_from_name

__all__ = ["Corpus", "load_corpus", "parse_corpus", "render_text",
           "parse_duet_text"]

PLAN_SIZE = 4


@dataclass(frozen=True)
class Corpus:
    melodies: tuple  # of (label: tuple[float, ...], voices: tuple[tuple[Pitch, ...], ...])
    mode: str  # "one_voice" | "two_voice"

    @property
    def voices(self) -> int:
        return 1 if self.mode == "one_voice" else 2

    def training_set(self):
        """(plan, voices) pairs in the shape seqnet.train expects."""
        return [(label, voices) for label, voices in self.melodies]


class CorpusError(ValueError):
    pass


def _parse_tokens(text: str, lineno: int) -> tuple[Pitch, ...]:
    try:
        return tuple([pitch_from_name(tok) for tok in text.split()])
    except ValueError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from None


def parse_corpus(text: str) -> Corpus:
    blocks: list[list[tuple[int, str]]] = [[]]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        blocks[-1].append((lineno, line))
    if not blocks[-1]:
        blocks.pop()
    if not blocks:
        raise CorpusError("empty corpus")

    melodies = []
    mode = None
    for block in blocks:
        label = None
        lines = list(block)
        if lines[0][1].lower().startswith("label:"):
            lineno, line = lines.pop(0)
            try:
                values = line.split(":", 1)[1].split()
                label = tuple([float(v) for v in values])
            except ValueError:
                raise CorpusError(f"line {lineno}: bad label values") from None
            if not label or not all(map(math.isfinite, label)):
                raise CorpusError(f"line {lineno}: a label needs at least one "
                                  "value, and every value finite")
        size = PLAN_SIZE if label is None else len(label)
        if melodies and size != plan_size:
            raise CorpusError(f"line {block[0][0]}: label of {size} values, "
                              f"but the first melody's has {plan_size}")
        plan_size = size
        if not lines:
            raise CorpusError(f"line {block[0][0]}: label without melody")
        if lines[0][1].lower().startswith("v1:"):
            block_mode = "two_voice"
            if len(lines) != 2 or not lines[1][1].lower().startswith("v2:"):
                raise CorpusError(
                    f"line {lines[0][0]}: two-voice block needs adjacent "
                    "V1: and V2: lines")
            v1 = _parse_tokens(lines[0][1][3:], lines[0][0])
            v2 = _parse_tokens(lines[1][1][3:], lines[1][0])
            if len(v1) != len(v2):
                raise CorpusError(
                    f"line {lines[0][0]}: voices differ in length "
                    f"({len(v1)} vs {len(v2)})")
            voices = (v1, v2)
        else:
            block_mode = "one_voice"
            if len(lines) != 1:
                raise CorpusError(
                    f"line {lines[0][0]}: one-voice block must be a single line")
            voices = (_parse_tokens(lines[0][1], lines[0][0]),)
        if mode is None:
            mode = block_mode
        elif mode != block_mode:
            raise CorpusError(
                f"line {lines[0][0]}: mixed one-voice and two-voice blocks")
        melodies.append((label, voices))

    unlabeled = sum(1 for label, _ in melodies if label is None)
    if unlabeled and len(melodies) > PLAN_SIZE:
        raise CorpusError(
            f"{len(melodies)} melodies need explicit labels "
            f"(auto one-hot labels cover at most {PLAN_SIZE})")
    filled = []
    for i, (label, voices) in enumerate(melodies):
        if label is None:
            label = tuple([1.0 if j == i else 0.0 for j in range(PLAN_SIZE)])
        filled.append((label, voices))
    if len({label for label, _ in filled}) != len(filled):
        raise CorpusError("duplicate melody labels")
    return Corpus(melodies=tuple(filled), mode=mode)


def load_corpus(path) -> Corpus:
    return parse_corpus(Path(path).read_text())


def render_text(voice1, voice2) -> str:
    """Two-line duet notation, V1 above V2, solfege tokens."""
    _check_voices(voice1, voice2)
    return (f"V1: {' '.join(p.name for p in voice1)}\n"
            f"V2: {' '.join(p.name for p in voice2)}\n")


def parse_duet_text(text: str):
    """Inverse of render_text; returns (voice1, voice2)."""
    lines = [l.strip() for l in text.splitlines()
             if l.strip() and not l.strip().startswith("#")]
    if len(lines) != 2 or not lines[0].lower().startswith("v1:") \
            or not lines[1].lower().startswith("v2:"):
        raise ValueError("duet text must be exactly a V1: line and a V2: line")
    # Tuples from lists, not generators: see CompositionResult.voices.
    v1 = tuple([pitch_from_name(t) for t in lines[0][3:].split()])
    v2 = tuple([pitch_from_name(t) for t in lines[1][3:].split()])
    _check_voices(v1, v2)
    return v1, v2
