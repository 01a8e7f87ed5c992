"""Golden digest of the command line's artifacts.

A small fixed grid runs through ``cli.main`` in a temporary directory:
``train`` on the bundled cantus corpus, ``generate`` from the nets it
saved, ``compose`` agent-only (det and coin) and two-net, each with
``--trace`` and ``--midi``, and ``validate`` on a legal and an illegal
duet.  Every command's argv, exit code and stdout, and then every file
the grid wrote, are hashed.  All names are relative, so no path enters
the hash.  The expected hash was recorded before numpy moved into the
functions that use it, and must not change.
"""

import hashlib
from importlib import resources

from bicinium.cli import main

GOLDEN_SHA256 = "af3f7e40a28f5e180bf8c821df6ac2c50241cb923f6007376bddab942fa33a47"

LEGAL_DUET = ("V1: re8 do8 la sol la do8 si re8\n"
              "V2: re8 mi8 fa8 sol8 fa8 mi8 sol8 re8\n")
ILLEGAL_DUET = "V1: re mi fa re\nV2: re8 mi8 fa8 re8\n"

TRACED = ("--trace", "{name}.csv", "--midi", "{name}.mid")

GRID = (
    ("train", "--corpus", "cantus.txt", "--hidden", "6", "--epochs", "40",
     "--lr", "2.0", "--seed", "1", "--out", "a.ckpt", "--curve", "a.csv"),
    ("train", "--corpus", "cantus.txt", "--hidden", "4", "--epochs", "40",
     "--decay", "0.5", "--seed", "2", "--out", "b.ckpt"),
    ("generate", "--net", "a.ckpt", "--plan", "1,0,0,0", "--length", "9"),
    ("generate", "--net", "b.ckpt", "--plan", "0,0,1,0", "--length", "6",
     "--start", "la"),
    ("compose", "--agent-only", *TRACED),
    ("compose", "--agent-only", "--length", "20", "--start", "none", *TRACED),
    ("compose", "--agent-only", "--mode", "coin", "--seed", "5", *TRACED),
    ("compose", "--agent-only", "--mode", "coin", "--seed", "11",
     "--length", "12", *TRACED),
    ("compose", "--netA", "a.ckpt", "--netB", "b.ckpt", "--length", "10",
     *TRACED),
    ("compose", "--netA", "b.ckpt", "--netB", "a.ckpt", "--mode", "coin",
     "--seed", "3", "--cm-weight", "0.5", "--plan1", "0,1,0,0", *TRACED),
    ("validate", "--duet", "legal.txt"),
    ("validate", "--duet", "illegal.txt"),
)


def test_cli_artifacts_match_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cantus = resources.files("bicinium.data") / "cantus_one_voice.txt"
    (tmp_path / "cantus.txt").write_bytes(cantus.read_bytes())
    (tmp_path / "legal.txt").write_text(LEGAL_DUET)
    (tmp_path / "illegal.txt").write_text(ILLEGAL_DUET)
    inputs = {"cantus.txt", "legal.txt", "illegal.txt"}
    digest = hashlib.sha256()
    for n, argv in enumerate(GRID):
        argv = [a.format(name=f"run{n}") for a in argv]
        code = main(argv)
        out = capsys.readouterr().out
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\n".encode())
    for path in sorted(tmp_path.iterdir()):
        if path.name not in inputs:
            digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256
