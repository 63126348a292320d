"""
Command-line entry point.

Subcommands: synth, sort, background, mask, detect, score, run-all.
Exit codes: 0 success, 2 bad configuration, 3 missing input,
64 unknown subcommand, 1 any other stage failure, including any video
that sort, background, mask, detect or run-all could not finish (the
other videos still run).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline, synth
from .codec import dumps, encode
from .config import PipelineConfig
from .errors import ConfigError, StallwatchError

SUBCOMMANDS = ("synth", "sort", "background", "mask", "detect", "score", "run-all")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_USAGE = 64


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stallwatch",
                                     description=__doc__.strip().splitlines()[0])
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the global seed")
    parser.add_argument("--jobs", type=int, help="parallel videos")
    parser.add_argument("--dump-config", action="store_true",
                        help="print the effective config and exit")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    p.add_argument("--out", type=Path, required=True)

    for name in ("sort", "background", "mask", "detect", "run-all"):
        p = sub.add_parser(name)
        p.add_argument("--corpus", type=Path, required=True)
        p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("score", help="score predictions against ground truth")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--gt", type=Path, required=True)
    p.add_argument("--out", type=Path, help="write the JSON report here too")
    return parser


def load_config(args) -> PipelineConfig:
    """The config, `--seed` and `--jobs` put in by `replace`, which checks them."""
    cfg = (PipelineConfig.from_json_file(args.config) if args.config
           else PipelineConfig())
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.jobs is not None:
        cfg = replace(cfg, jobs=args.jobs)
    return cfg


def _require(path: Path, what: str) -> None:
    if not path.exists():
        print(f"missing {what}: {path}", file=sys.stderr)
        raise SystemExit(EXIT_MISSING_INPUT)


def run(argv: list[str]) -> int:
    if argv and argv[0] in ("-h", "--help"):
        build_parser().print_help()
        return EXIT_OK
    if argv and argv[0] not in SUBCOMMANDS and not argv[0].startswith("-"):
        print(f"unknown subcommand {argv[0]!r}; choose from "
              f"{', '.join(SUBCOMMANDS)}", file=sys.stderr)
        return EXIT_USAGE

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        cfg = load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.dump_config:
        sys.stdout.write(dumps(cfg))
        return EXIT_OK
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    stage = args.subcommand
    failures = []
    try:
        if "corpus" in vars(args):
            _require(args.corpus, "corpus directory")
        if stage == "synth":
            synth.corpus(args.out, seed=cfg.seed)
        elif stage in pipeline.STAGES:
            through = "decide" if stage == "detect" else stage
            failures = encode(pipeline.run_corpus(args.corpus, args.out, cfg,
                                                  through)[0])
        elif stage == "score":
            _require(args.pred, "predictions file")
            _require(args.gt, "ground-truth file")
            report = pipeline.score_corpus(args.pred, args.gt, args.out)
            sys.stdout.write(dumps(report))
        elif stage == "run-all":
            manifest = pipeline.run_all(args.corpus, args.out, cfg)
            sys.stdout.write(dumps(manifest))
            failures = manifest["failures"]
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_FAILURE
    except FileNotFoundError as exc:
        print(f"{stage}: missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ConfigError as exc:
        print(f"{stage}: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StallwatchError as exc:
        print(f"{stage}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    for failure in failures:
        print(f"{stage}: {failure['error']}", file=sys.stderr)
    return EXIT_FAILURE if failures else EXIT_OK


def main() -> None:
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
