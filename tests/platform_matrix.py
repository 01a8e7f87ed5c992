"""Which pinned outputs depend on the CPU's floating-point kernels.

    python3 tests/platform_matrix.py

Run from the root of a checkout.  The script reruns the tests that pin
float bits (the two-net golden, the CLI golden, both training pins and
acceptance criterion 4) in child pytest processes: once as the machine
is, and once under each switch below, which picks other numpy or
OpenBLAS kernels for the child alone.  It prints pass or fail per test
and switch, and lists the tests that pass as the machine is but fail
under some switch: those outputs are bound to this CPU's kernels.

A switch the machine cannot apply (no AVX-512 to turn off, a BLAS other
than OpenBLAS, a CPU already on that core) changes nothing in the child,
and is reported as skipped.  The script only reports: it exits 0 once
every run has finished, whatever the tests gave, and 1 only if it
cannot probe the kernels at all.  pytest does not
collect it, as its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TESTS = [
    "tests/test_golden.py::test_two_net_compositions_match_golden_digest",
    "tests/test_cli_golden.py::test_cli_artifacts_match_golden_digest",
    "tests/test_training_pins.py::"
    "test_retrained_fixture_checkpoints_match_committed_hashes",
    "tests/test_training_pins.py::test_two_voice_training_matches_pinned_hash",
    "tests/test_acceptance.py::test_criterion_4_training_memorization",
]

# Each switch is set in the child's environment only.
SWITCHES = {
    "numpy-avx2": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "blas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "blas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
}

# Prints the kernels a child would run: numpy's enabled CPU features and
# the core OpenBLAS picked, read from the library numpy loaded.
PROBE = r"""
import ctypes
import numpy
try:
    from numpy._core._multiarray_umath import __cpu_features__ as features
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__ as features
core = None
try:
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
except OSError:
    libs = set()
for path in sorted(libs):
    for name in ("openblas_get_corename", "openblas_get_corename64_",
                 "scipy_openblas_get_corename", "scipy_openblas_get_corename64_"):
        function = getattr(ctypes.CDLL(path), name, None)
        if function is not None:
            function.restype = ctypes.c_char_p
            core = function().decode()
print(" ".join(sorted(k for k, on in features.items() if on)))
print(core)
"""


def child_env(switch: dict[str, str]) -> dict[str, str]:
    env = dict(os.environ, **switch)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def kernels(switch: dict[str, str]) -> str:
    """What the probe prints under ``switch``: a line of numpy's enabled
    features, then one with the OpenBLAS core or None.  Raises if the
    probe fails."""
    run = subprocess.run([sys.executable, "-c", PROBE], env=child_env(switch),
                         capture_output=True, text=True, timeout=120)
    if run.returncode:
        lines = (run.stderr or run.stdout).strip().splitlines()
        raise RuntimeError(lines[-1] if lines else f"exit {run.returncode}")
    return run.stdout.strip()


def run_tests(switch: dict[str, str]) -> dict[str, str]:
    """Outcome of each test in TESTS under ``switch``: pass, fail or error."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         *TESTS], cwd=ROOT, env=child_env(switch), capture_output=True,
        text=True, timeout=1800)
    outcome = dict.fromkeys(TESTS, "error")
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        test = rest.split(" - ")[0]
        if test in outcome and word in ("PASSED", "FAILED", "ERROR"):
            outcome[test] = {"PASSED": "pass", "FAILED": "fail"}.get(word, "error")
    return outcome


def main() -> int:
    try:
        default_kernels = kernels({})
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"platform_matrix: the kernel probe fails here ({exc})")
        return 1
    features, core = default_kernels.splitlines()
    print(f"as the machine is: {len(features.split())} numpy CPU features "
          f"enabled, OpenBLAS core {core}")
    columns = {"default": run_tests({})}
    for name, switch in SWITCHES.items():
        try:
            applied = kernels(switch) != default_kernels
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: skipped, the switch fails here ({exc})")
            continue
        if not applied:
            print(f"{name}: skipped, the switch changes no kernel here")
            continue
        columns[name] = run_tests(switch)

    width = max(len(t) for t in TESTS)
    print()
    print("test".ljust(width), *(name.rjust(16) for name in columns))
    for test in TESTS:
        print(test.ljust(width),
              *(outcome[test].rjust(16) for outcome in columns.values()))
    bound = [test for test in TESTS if columns["default"][test] == "pass"
             and any(outcome[test] != "pass" for outcome in columns.values())]
    print()
    print(f"platform-bound: {len(bound)} of {len(TESTS)} tests")
    for test in bound:
        failing = [name for name, outcome in columns.items()
                   if outcome[test] != "pass"]
        print(f"  {test}: not under {', '.join(failing)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
