"""Benchmark of the bicinium composer.

    python3 perfbench/run.py --workload {search,duet,train,validate} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``
and its command line is run as ``python -m bicinium.cli``.  One process,
one thread, one caller: each workload (see ``workloads.py``) is a closed
loop over inputs generated from ``--seed``.

``--trace 0`` times the workload for ``--seconds`` seconds with nothing
patched and prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds twice, first plain and then with every layer's entry
points wrapped (``tracer.py``), and prints the per-layer metrics, the
tracing overhead among them.  Metric names and units come from
``BENCHMARK.json``; every output is checked by ``gate.py``.  The last line
of standard output is one JSON object; the lines before it describe the
machine and each metric.
"""

from __future__ import annotations

import os

# One thread for numpy's BLAS and OpenMP, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from gate import Tally, check_checkpoints, check_digest, expected_digests  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5   # set-up is repeated and its median reported
CLI_RUNS = 9     # cold CLI processes per timed run, one at a time
MAIN_RUNS = 3    # in-process cli.main calls per traced run
IMPORT_PROBE = ("import time; t = time.perf_counter(); import bicinium; "
                "print(time.perf_counter() - t)")


def import_program():
    """Import bicinium from this checkout's src/, or exit non-zero."""
    init = SRC / "bicinium" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import bicinium
    import bicinium.cli  # noqa: F401
    if Path(bicinium.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported bicinium from {bicinium.__file__}")
    return bicinium


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record if isinstance(record, bytes) else record.encode())
    return h.hexdigest()


def cold_import_s() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout)


def run_cli(command, tally: Tally) -> tuple[float, bytes]:
    """One cold ``python -m bicinium.cli`` process: wall time and a record
    of its exit code, stdout and output files."""
    argv, files, ok_codes = command
    for path in files:
        path.unlink(missing_ok=True)
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "bicinium.cli", *argv],
                          cwd=ROOT, capture_output=True, timeout=120)
    seconds = perf_counter() - start
    failure = None
    if proc.returncode not in ok_codes or b"Traceback" in proc.stderr:
        failure = (f"cli {' '.join(argv)} exited {proc.returncode}: "
                   f"{proc.stderr.decode(errors='replace')[-300:]}")
    tally.attempt(failure)
    record = [f"exit={proc.returncode}\n".encode(), proc.stdout]
    for path in files:
        record.append(path.read_bytes() if path.exists() else b"<missing>")
    return seconds, b"".join(record)


def run_rounds(wl, rounds, tally: Tally, *, seconds=None, stats=None,
               tracer=None, records=None, pauses=()):
    """Run whole rounds, cycling, until they have taken ``seconds`` (or all
    of ``rounds`` once).  ``pauses`` run between rounds, spread evenly over
    those seconds, and their time does not count.  Returns the item
    durations and the throughput: work done over the time it took."""
    durations = array("d")  # no object per item, so memory stays flat
    work = busy = 0.0
    pending = list(pauses)
    gc.collect()
    begin, paused, k = perf_counter(), 0.0, 0
    while True:
        for item in rounds[k % len(rounds)]:
            if tracer is not None:
                tracer.group += 1
            start = perf_counter()
            try:
                output = wl.run(item)
            except Exception:  # a crash is a failed item, not a stopped run
                tally.attempt(traceback.format_exc(limit=3))
                continue
            elapsed = perf_counter() - start
            durations.append(elapsed)
            done, took = wl.rate_terms(output, elapsed)
            work += done
            busy += took
            if tracer is not None:
                tracer.paused = True  # the gate's own calls are not the workload's
            tally.attempt(wl.check(item, output))
            if tracer is not None:
                tracer.paused = False
            if stats is not None:
                wl.count(output, stats)
            if records is not None and k == 0 and wl.digested:
                records.append(wl.record(item, output))
        k += 1
        if seconds is None:
            if k == len(rounds):
                break
            continue
        ran = perf_counter() - begin - paused
        while pending and ran >= seconds * (
                len(pauses) - len(pending) + 0.5) / len(pauses):
            start = perf_counter()
            pending.pop(0)()
            paused += perf_counter() - start
        if ran >= seconds:
            break
    for pause in pending:
        pause()
    return durations, work / busy if busy else 0.0


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def canary_digest(wl, tally: Tally | None = None) -> str:
    """Warm-up: seed 0's first round (or its first items) and one CLI run,
    untimed; the digest of their outputs is checked on every run."""
    tally = tally or Tally()
    records = []
    items = wl.prepare(0, 1)[0][:wl.warmup_items]
    run_rounds(wl, [items], tally, records=records)
    records.append(run_cli(wl.cli_command(0, 0), tally)[1])
    return digest(records)


def seed_digest(wl, seed: int) -> str:
    """Digest of a seed's first round and its CLI runs, as a timed run
    computes it."""
    tally, records = Tally(), []
    if wl.digested:
        run_rounds(wl, wl.prepare(seed, 1), tally, records=records)
    records += [run_cli(wl.cli_command(seed, i), tally)[1]
                for i in range(CLI_RUNS)]
    return digest(records)


def timed_run(wl, rounds, args, tally: Tally) -> tuple[dict, dict]:
    records, cli_records, cli_s = [], [], []

    def cli_run(index):
        seconds, record = run_cli(wl.cli_command(args.seed, index), tally)
        cli_s.append(seconds)
        cli_records.append(record)

    # The CLI runs are spread over the timed loop so that they, like the
    # items, sample the whole run rather than one moment of it.
    durations, rate = run_rounds(
        wl, rounds, tally, seconds=args.seconds, records=records,
        pauses=[partial(cli_run, i) for i in range(CLI_RUNS)])
    records += cli_records
    expected = expected_digests()["seeds"][wl.name].get(str(args.seed))
    tally.fail(check_digest(f"seed {args.seed}", digest(records), expected))

    ms = np.frombuffer(durations) * 1e3
    beyond = int((ms > np.percentile(ms, wl.tail_percentile)).sum())
    notes = {
        "throughput_per_s": f"{wl.rate_noun} per second",
        "item_ms_p50": f"one {wl.item_noun}, n={len(ms)}",
        "item_ms_tail": f"p{wl.tail_percentile:g}, {beyond} samples beyond",
        "cli_s_p50": f"cold CLI '{wl.cli_command(args.seed, 0)[0][0]}', "
                     f"n={CLI_RUNS}",
        "setup_s": f"median of {SETUP_REPS} set-ups",
    }
    print(f"# seed {args.seed} digest: "
          + ("checked" if expected else "none stored"))
    values = {
        "throughput_per_s": rate,
        "item_ms_p50": float(np.median(ms)),
        "item_ms_tail": float(np.percentile(ms, wl.tail_percentile)),
        "cli_s_p50": median(cli_s),
    }
    return values, notes


def traced_run(bc, wl, rounds, args, tally: Tally) -> tuple[dict, dict]:
    chosen = rounds[:wl.trace_rounds]
    start = perf_counter()
    run_rounds(wl, chosen, tally)
    plain_s = perf_counter() - start

    tracer, stats = Tracer(), Counter()
    tracer.install()
    try:
        wl.prepare(args.seed, 1)  # traced once more for its checkpoint loads
        start = perf_counter()
        run_rounds(wl, chosen, tally, stats=stats, tracer=tracer)
        traced_s = perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.save(OUT / f"spans-{wl.name}.npz")

    main_s = []
    for i in range(MAIN_RUNS):
        argv, _, ok_codes = wl.cli_command(args.seed, i)
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = bc.cli.main(argv)
            main_s.append(perf_counter() - start)
        tally.attempt(None if code in ok_codes else f"cli.main exited {code}")

    totals, counts = tracer.totals(), tracer.counts

    def calls(name):
        return totals[name][0]

    def per_call(name, scale, own=False):
        n, total, self_time = totals[name]
        return (self_time if own else total) / n * scale if n else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    compose_n, compose_s, compose_self = totals["composer.compose"]
    values = {
        "rules.check_pair.calls": calls("rules.check_pair"),
        "rules.check_pair.self_us": per_call("rules.check_pair", 1e6, True),
        "rules.legal_pairs.calls": calls("rules.legal_pairs"),
        "rules.legal_pairs.self_us": per_call("rules.legal_pairs", 1e6, True),
        "rules.legal_share": share(counts["legal"],
                                   169 * calls("rules.legal_pairs")),
        "rules.validate_duet.us": per_call("rules.validate_duet", 1e6),
        "negotiation.negotiate.calls": calls("negotiation.negotiate"),
        "negotiation.negotiate.self_us":
            per_call("negotiation.negotiate", 1e6, True),
        "negotiation.system_utility.calls": calls("negotiation.system_utility"),
        "negotiation.system_utility.self_us":
            per_call("negotiation.system_utility", 1e6, True),
        "negotiation.dead_ends": counts["dead_ends"],
        "composer.bars": counts["bars"],
        "composer.compose.bar_us": share(compose_s * 1e6, counts["bars"]),
        "composer.compose.self_share": share(compose_self, compose_s),
        "composer.dead_end_share": share(counts["incomplete"], compose_n),
        "seqnet.forward.calls": calls("seqnet.forward"),
        "seqnet.forward.us": per_call("seqnet.forward", 1e6),
        "seqnet.map_to_gamut.us": per_call("seqnet.map_to_gamut", 1e6),
        "seqnet.step_state.us": per_call("seqnet.step_state", 1e6),
        "seqnet.train.epoch_ms": share(totals["seqnet.train"][1] * 1e3,
                                       counts["epochs"]),
        "seqnet.train.samples": counts["samples"],
        "seqnet.generate.us": per_call("seqnet.generate", 1e6),
        "seqnet.replay_exact_share": share(stats["exact"], stats["melodies"]),
        "seqnet.load_net.ms": per_call("seqnet.load_net", 1e3),
        "seqnet.save_net.ms": per_call("seqnet.save_net", 1e3),
        "corpus.parse_duet_text.us": per_call("corpus.parse_duet_text", 1e6),
        "corpus.render_text.us": per_call("corpus.render_text", 1e6),
        "corpus.parse_corpus.us": per_call("corpus.parse_corpus", 1e6),
        "midi.duet_to_midi_bytes.us": per_call("midi.duet_to_midi_bytes", 1e6),
        "midi.bytes": counts["midi_bytes"],
        "cli.main_ms": median(main_s) * 1e3,
        "trace.overhead_share": traced_s / plain_s - 1.0,
    }
    notes = {"trace.overhead_share": f"{wl.trace_rounds} rounds: "
                                     f"{plain_s:.3f} s plain, "
                                     f"{traced_s:.3f} s traced"}
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bc = import_program()
    print("# machine " + json.dumps(machine_info()))
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    for failure in check_checkpoints():
        tally.fail(failure)

    cold_import_s()  # untimed: the first import may compile bytecode
    setups, imports = [], []
    for _ in range(SETUP_REPS):
        imports.append(cold_import_s())
        start = perf_counter()
        wl = WORKLOADS[args.workload](bc)
        rounds = wl.prepare(args.seed)
        setups.append(imports[-1] + perf_counter() - start)

    tally.fail(check_digest("seed-0 canary", canary_digest(wl, tally),
                            expected_digests()["canary"][wl.name]))

    if args.trace:
        values, notes = traced_run(bc, wl, rounds, args, tally)
        values["cli.import_s"] = median(imports)
        declared = spec["per_layer"]
    else:
        values, notes = timed_run(wl, rounds, args, tally)
        values["setup_s"] = median(setups)
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        declared = spec["end_to_end"]

    print(f"# workload {wl.name} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={tally.failed}")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": float(values[name]), "unit": unit}
        note = notes.get(name)
        print(f"#   {name} = {values[name]:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    for message in tally.messages:
        print("# FAILED: " + message.replace("\n", "\n#   "), file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
