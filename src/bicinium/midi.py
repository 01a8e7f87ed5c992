"""Standard MIDI file output for finished duets.

Format 1, 480 ticks per quarter, one track per voice (the tempo, a fixed
60 bpm, in the first), every note a whole note.  The gamut maps onto
D4..B5: MIDI note = 62 plus the pitch's semitone offset.  Output bytes
depend only on the duet, so identical duets give identical files.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from pathlib import Path

from .gamut import _check_voices

__all__ = ["duet_to_midi_bytes", "write_midi"]

TICKS_PER_QUARTER = 480
WHOLE_NOTE_TICKS = 4 * TICKS_PER_QUARTER
BASE_MIDI_NOTE = 62  # re = D4
_VELOCITY = 80
_TEMPO_US = 1_000_000  # microseconds per quarter: 60 bpm


@lru_cache(maxsize=16)  # the 13 gamut semitones, bounded all the same
def _note_events(semitone: int) -> bytes:
    """One whole note: delta 0, note on, delta 1920, note off."""
    note = BASE_MIDI_NOTE + semitone
    # 1920 ticks as a variable-length quantity: two 7-bit groups, 0x8F 0x00
    return bytes((0, 0x90, note, _VELOCITY,
                  0x80 | WHOLE_NOTE_TICKS >> 7, WHOLE_NOTE_TICKS & 0x7F,
                  0x80, note, 0))


def _track(events: bytes) -> bytes:
    events += b"\x00\xff\x2f\x00"  # end of track
    return b"MTrk" + struct.pack(">I", len(events)) + events


def _voice_events(voice, tempo_us: int | None) -> bytes:
    tempo = (b"" if tempo_us is None
             else b"\x00\xff\x51\x03" + struct.pack(">I", tempo_us)[1:])
    return tempo + b"".join([_note_events(pitch.semitone) for pitch in voice])


def duet_to_midi_bytes(voice1, voice2) -> bytes:
    _check_voices(voice1, voice2)
    header = b"MThd" + struct.pack(">IHHH", 6, 1, 2, TICKS_PER_QUARTER)
    return (header
            + _track(_voice_events(voice1, _TEMPO_US))
            + _track(_voice_events(voice2, None)))


def write_midi(voice1, voice2, path) -> None:
    data = duet_to_midi_bytes(voice1, voice2)
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(target)
