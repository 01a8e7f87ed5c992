"""The public names of the package, pinned so that a change to the API
shows up as a diff of this list, and each one used outside the tests."""

import ast
import re
import types
from pathlib import Path

import bicinium

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "Agreement", "CompositionConfig", "CompositionResult", "DuetState",
    "GAMUT", "SequentialNet", "UtilityWeights", "compose", "generate",
    "interval_quality", "interval_steps", "legal_pairs", "load_net",
    "negotiate", "parse_corpus", "parse_duet_text", "pitch_from_name",
    "render_text", "save_net", "train", "validate_duet", "write_midi",
]


def package_names():
    return sorted(name for name, value in vars(bicinium).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType))


def imported_from_bicinium(source):
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "bicinium"
            for alias in node.names}


def test_public_names():
    assert package_names() == PUBLIC


def test_every_public_name_has_a_caller_outside_the_tests():
    # a demo imports it, the benchmark reads it as ``bc.<name>``, or the
    # README's quick start imports it
    used = set()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= imported_from_bicinium(demo.read_text())
    for bench in sorted((ROOT / "perfbench").glob("*.py")):
        used |= set(re.findall(r"\bbc\.(\w+)", bench.read_text()))
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Library quick start", 1)[1]
    block = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    used |= imported_from_bicinium(block)
    assert [name for name in package_names() if name not in used] == []
