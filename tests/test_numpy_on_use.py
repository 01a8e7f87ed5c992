"""Where numpy loads: only the nets, training and the coin toss need it.

Each case runs in a fresh interpreter with ``PYTHONPATH=src`` and reports
whether ``numpy`` ended up in ``sys.modules``.  The symbolic half (rules,
agents with offers of any kind, validation, agent-only deterministic
compose) must not load it.  ``floor_check.py`` runs the same half with a
pinned digest, and a static check keeps the rules and negotiation modules
clear of the net module and of numpy.
"""

import ast
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from bicinium.seqnet import SequentialNet, save_net

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
CANTUS = str(resources.files("bicinium.data") / "cantus_one_voice.txt")


def cli(*argv):
    return f"from bicinium.cli import main\nassert main({list(argv)!r}) == 0"


def offer(expr):
    """Negotiate and score with the offer ``expr`` at the second bar, and
    check both results equal those for the same values as Python floats."""
    return f"""
from bicinium.negotiation import negotiate, system_utility
from bicinium.rules import DuetState
offer = {expr}
floats = [float(v) for v in offer]
state = DuetState(8).append(negotiate(DuetState(8), offer, offer).pair)
got, want = (negotiate(state, a, a, -2.0) for a in (offer, floats))
assert got == want
assert (system_utility(state, got.pair, offer, offer, -2.0)
        == system_utility(state, got.pair, floats, floats, -2.0))"""


SYMBOLIC = {
    "import bicinium": "import bicinium",
    "import bicinium.cli": "import bicinium.cli",
    "validate": cli("validate", "--duet", "duet.txt"),
    "compose det": cli("compose", "--agent-only", "--mode", "det"),
    "negotiate tuple offer": offer("tuple(i / 12 for i in range(13))"),
    "negotiate int-list offer": offer("list(range(13))"),
}
NUMERIC = {
    "compose coin": cli("compose", "--agent-only", "--mode", "coin"),
    "compose two-net": cli("compose", "--netA", "a.ckpt", "--netB", "a.ckpt"),
    "train": cli("train", "--corpus", CANTUS, "--hidden", "2", "--epochs", "1",
                 "--out", "t.ckpt"),
    "generate": cli("generate", "--net", "a.ckpt", "--plan", "1,0,0,0"),
}


def run_python(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, text=True,
                          capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


def loads_numpy(code, cwd) -> bool:
    proc = run_python(
        ["-c", f"{code}\nimport sys\nprint('numpy' in sys.modules)"], cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "duet.txt").write_text("V1: re8 do8 la sol la do8 si re8\n"
                                       "V2: re8 mi8 fa8 sol8 fa8 mi8 sol8 re8\n")
    save_net(SequentialNet.new(hidden_size=3, seed=1), tmp_path / "a.ckpt")
    return tmp_path


@pytest.mark.parametrize("case", SYMBOLIC)
def test_symbolic_path_leaves_numpy_unloaded(case, workdir):
    assert not loads_numpy(SYMBOLIC[case], workdir)


@pytest.mark.parametrize("case", NUMERIC)
def test_nets_training_and_coin_toss_load_numpy(case, workdir):
    assert loads_numpy(NUMERIC[case], workdir)


def test_floor_check_passes(tmp_path):
    proc = run_python([str(TESTS / "floor_check.py")], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_rules_import_only_the_gamut_and_negotiation_never_names_numpy():
    imported = set()  # every module rules.py imports, relative ones dotted
    rules = (SRC / "bicinium" / "rules.py").read_text()
    for node in ast.walk(ast.parse(rules)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + node.module)
    assert imported == {"__future__", "dataclasses", "functools", ".gamut"}
    assert "numpy" not in (SRC / "bicinium" / "negotiation.py").read_text()
