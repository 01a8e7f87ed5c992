"""The public names of the package, pinned so that a change to the API
shows up as a diff of this list."""

import types

import bicinium

PUBLIC = [
    "Agreement", "CompositionConfig", "CompositionResult", "Corpus", "DeadEnd",
    "DuetState", "GAMUT", "IntervalQuality", "Motion", "NotePair",
    "Pitch", "RuleVerdict", "SequentialNet", "StepTrace", "UtilityWeights",
    "check_pair", "compose", "contrary_motion_bonus", "encode_note", "forward",
    "generate", "interval_quality", "interval_steps", "legal_pairs",
    "load_corpus", "load_net", "map_to_gamut", "motion", "negotiate",
    "parse_corpus", "parse_duet_text", "pitch_from_name", "render_text",
    "save_net", "signed_interval", "step_state", "system_utility", "train",
    "validate_duet", "write_midi",
]


def test_public_names():
    names = sorted(name for name, value in vars(bicinium).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC
