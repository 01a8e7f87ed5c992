"""Command-line workflows: train, generate, compose, validate."""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from pathlib import Path

from .composer import CompositionConfig, compose
from .corpus import load_corpus, parse_duet_text, render_text
from .gamut import pitch_from_name
from .midi import write_midi
from .negotiation import UtilityWeights
from .rules import validate_duet
from .seqnet import SequentialNet, generate, load_net, save_net, train

__all__ = ["main"]


def _plan(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad plan vector {text!r}") from None


def _pitches(text: str):
    """``pitch[:pitch]``, one pitch per voice, or None for ``none``."""
    if text.lower() == "none":
        return None
    try:
        return tuple(pitch_from_name(name) for name in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicinium",
        description="Two-part first-species counterpoint composer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a sequential net on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--hidden", type=int, default=15)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--lr", type=float, default=2.0)
    p.add_argument("--decay", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--curve", help="write per-epoch error as CSV epoch,mse")

    p = sub.add_parser("generate", help="free-run a trained net")
    p.add_argument("--net", required=True)
    p.add_argument("--plan", type=_plan, required=True)
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--start", type=_pitches,
                   help="first note of each voice, e.g. re8 or re8:la8")

    p = sub.add_parser("compose", help="compose a duet by negotiation")
    p.add_argument("--netA")
    p.add_argument("--netB")
    default = CompositionConfig()
    for flag, net, plan in (("--plan1", "A", default.plan1),
                            ("--plan2", "B", default.plan2)):
        p.add_argument(flag, type=_plan, help=f"plan of net {net} (default "
                       f"{','.join(f'{v:g}' for v in plan)})")
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--mode", choices=("det", "coin"), default="det")
    p.add_argument("--cm-weight", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--agent-only", action="store_true")
    p.add_argument("--start", type=_pitches, default="re8:re8",
                   help="first pair, e.g. re8:re8 (or 'none' to negotiate)")
    p.add_argument("--no-finalis", action="store_true")
    p.add_argument("--midi", help="write the duet as a MIDI file")
    p.add_argument("--trace", help="write the per-step trace as CSV")

    p = sub.add_parser("validate", help="check a duet file against the rules")
    p.add_argument("--duet", required=True)
    p.add_argument("--no-finalis", action="store_true")
    return parser


def _cmd_train(args) -> int:
    # The checkpoint and the curve are written after training; a path that
    # cannot be written should not cost the whole run.
    for path in filter(None, (args.out, args.curve)):
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise ValueError(f"{path}: not a file in an existing directory")
    corpus = load_corpus(args.corpus)
    net = SequentialNet.new(plan_size=len(corpus.melodies[0][0]),
                            hidden_size=args.hidden, voices=corpus.voices,
                            decay=args.decay, seed=args.seed)
    curve = train(net, corpus.training_set(), epochs=args.epochs,
                  learning_rate=args.lr)
    save_net(net, args.out)
    if args.curve:
        with open(args.curve, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mse"])
            for epoch, mse in enumerate(curve):
                writer.writerow([epoch, f"{mse:.12g}"])
    print(f"trained {corpus.voices}-voice net on {len(corpus.melodies)} "
          f"melodies; final mse {curve[-1]:.3g}; saved to {args.out}")
    return 0


def _cmd_generate(args) -> int:
    net = load_net(args.net)
    voices = generate(net, args.plan, args.length, start=args.start)
    for i, voice in enumerate(voices, start=1):
        prefix = f"V{i}: " if len(voices) > 1 else ""
        print(prefix + " ".join(p.name for p in voice))
    return 0


def _write_trace(path, cfg, result, net_hashes) -> None:
    start = ("none" if cfg.start_pair is None
             else f"{cfg.start_pair[0]}:{cfg.start_pair[1]}")
    mode = "coin" if cfg.weights.mode == "coin_toss" else "det"
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={cfg.seed} mode={mode} "
                 f"cm_weight={cfg.weights.cm_weight} length={cfg.length} "
                 f"agent_only={cfg.agent_only} finalis={cfg.finalis} "
                 f"plan1={','.join(map(str, cfg.plan1))} "
                 f"plan2={','.join(map(str, cfg.plan2))} "
                 f"start={start} "
                 f"netA={net_hashes[0]} netB={net_hashes[1]}\n")
        writer = csv.writer(fh)
        writer.writerow(["step", "weight", "voice1", "voice2", "utility",
                         "legal_count"])
        for s in result.trace:
            writer.writerow([s.step, s.weight, s.pair[0].name, s.pair[1].name,
                             f"{s.utility:.12g}", s.legal_count])
        if not result.complete:
            fh.write(f"# dead_end_step={result.dead_end_step}\n")


def _cmd_compose(args) -> int:
    nets = [None, None]
    hashes = ["-", "-"]
    plans = {f"plan{i}": plan for i, plan in ((1, args.plan1), (2, args.plan2))
             if plan is not None}
    if args.agent_only and (plans or args.netA is not None
                            or args.netB is not None):
        print("bicinium compose: --netA, --netB, --plan1 and --plan2 set the "
              "nets and their plans and cannot be used with --agent-only",
              file=sys.stderr)
        return 2
    if not args.agent_only:
        if not args.netA or not args.netB:
            print("bicinium compose: --netA and --netB are required without "
                  "--agent-only", file=sys.stderr)
            return 2
        nets = [load_net(args.netA), load_net(args.netB)]
        hashes = [_file_hash(args.netA), _file_hash(args.netB)]
    mode = "coin_toss" if args.mode == "coin" else "deterministic"
    cfg = CompositionConfig(
        length=args.length, **plans,
        weights=UtilityWeights(cm_weight=args.cm_weight, mode=mode),
        seed=args.seed, start_pair=args.start,
        finalis=not args.no_finalis, agent_only=args.agent_only)
    result = compose(nets[0], nets[1], cfg)
    if args.trace:
        _write_trace(args.trace, cfg, result, hashes)
    v1, v2 = result.voices
    if not result.complete:
        print(f"dead end at step {result.dead_end_step}")
    if v1:
        print(render_text(v1, v2), end="")
    if result.complete and args.midi:
        write_midi(v1, v2, args.midi)
    return 0


def _cmd_validate(args) -> int:
    v1, v2 = parse_duet_text(Path(args.duet).read_text())
    report = validate_duet(v1, v2, finalis=not args.no_finalis)
    print(report)
    return 0 if report.legal else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"train": _cmd_train, "generate": _cmd_generate,
                "compose": _cmd_compose, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"bicinium {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
