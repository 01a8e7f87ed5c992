"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that a tiny timed run and a traced run of every workload pass the
gate and print exactly the metrics ``BENCHMARK.json`` declares; that the
traced counts show each workload isolating its layers; that the gate
reports an illegal duet and a wrong digest as failures; and that the
benchmark refuses to run without the program's sources.  Exits non-zero
on the first list of failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

bc = run.import_program()

from gate import check_digest  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode:
        return {"correct": False, "failed": -1, "metrics": {},
                "stderr": proc.stderr[-2000:]}
    return json.loads(proc.stdout.splitlines()[-1])


def tiny_runs() -> dict:
    layers = {}
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(name, trace)
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: every output passes the gate"
                   + (f"\n{result['stderr']}" if "stderr" in result else ""))
            expect(list(result["metrics"]) == [m["name"] for m in SPEC[kind]],
                   f"{name} trace={trace}: prints every {kind} metric")
            if trace:
                layers[name] = {k: v["value"]
                                for k, v in result["metrics"].items()}
    return layers


def isolation(layers: dict) -> None:
    def calls(workload, metric):
        return layers.get(workload, {}).get(metric, -1)

    expect(calls("search", "seqnet.forward.calls") == 0
           and calls("search", "rules.check_pair.calls") > 0,
           "search: rules do the work, seqnet.forward is never called")
    expect(calls("duet", "seqnet.forward.calls") > 0
           and calls("duet", "negotiation.negotiate.calls") > 0,
           "duet: seqnet and negotiation both run")
    expect(calls("train", "negotiation.negotiate.calls") == 0
           and calls("train", "rules.check_pair.calls") == 0
           and calls("train", "seqnet.train.samples") > 0,
           "train: no negotiation and no rule checks")
    expect(calls("validate", "rules.legal_pairs.calls") == 0
           and calls("validate", "rules.check_pair.calls") > 0,
           "validate: rules one pair at a time, no legal_pairs scan")


def gate_catches_bad_outputs() -> None:
    re, mi = bc.pitch_from_name("re"), bc.pitch_from_name("mi")
    # Two seconds: dissonant, and imperfect at the first and last place.
    illegal = bc.CompositionResult(pairs=((re, mi), (mi, re)), trace=())
    search = WORKLOADS["search"](bc)
    cfg = search.prepare(0, 1)[0][0]
    expect(search.check(cfg, illegal) is not None,
           "gate: a complete but illegal composition is a failure")
    report = bc.validate_duet([re, mi], [mi, re])
    expect(WORKLOADS["validate"](bc).check(("legal", ""), report) is not None,
           "gate: a legal duet judged illegal is a failure")
    expect(check_digest("x", "0" * 64, "1" * 64) is not None
           and check_digest("x", "2" * 64, "2" * 64) is None,
           "gate: a digest is compared exactly")

    wrong = json.loads(json.dumps(run.expected_digests()))
    wrong["canary"]["validate"] = "0" * 64
    saved = run.expected_digests
    run.expected_digests = lambda: wrong
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", "validate", "--seed", "3",
                      "--seconds", "0.2"])
    finally:
        run.expected_digests = saved
    result = json.loads(out.getvalue().splitlines()[-1])
    expect(not result["correct"] and result["failed"] >= 1,
           "gate: a run whose canary digest differs reports a failure")


def refuses_without_sources() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip().startswith("{"),
           "a directory without src/ exits non-zero with no result")


if __name__ == "__main__":
    gate_catches_bad_outputs()
    refuses_without_sources()
    isolation(tiny_runs())
    if failures:
        sys.exit(f"{len(failures)} self-test check(s) failed")
    print("all self-test checks passed")
