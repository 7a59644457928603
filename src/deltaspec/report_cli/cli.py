"""Command-line entry point.

Each subcommand but `cost-model` runs one stage of pipeline.STAGES against
a JSON config; `cost-model` is a standalone calculator. Exit codes: 0
success, 1 a pipeline error (printed to stderr), 2 usage (argparse's own).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from ..errors import DeltaSpecError
from .config import load_config
from .cost import CostModelInputs, cost_model
from .pipeline import STAGES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaspec",
        description="Spec-versus-code inconsistency detection pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGES:
        p = sub.add_parser(stage.name, help=stage.help)
        p.set_defaults(stage=stage)
        p.add_argument("--config", required=True,
                       help="path to a pipeline config JSON file")

    p = sub.add_parser("cost-model",
                       help="closed-form token cost comparison")
    p.add_argument("--updates", type=int, required=True,
                   help="number of updates N in the chain")
    p.add_argument("--spec-tokens", type=int, required=True,
                   help="full specification length in tokens")
    p.add_argument("--code-tokens", type=int, required=True,
                   help="relevant code size in tokens")
    p.add_argument("--delta-spec-tokens", type=int, required=True,
                   help="tokens of one spec increment")
    p.add_argument("--delta-code-tokens", type=int, required=True,
                   help="tokens of code relevant to one increment")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "cost-model":
            inputs = CostModelInputs(
                n_updates=args.updates,
                len_spec=args.spec_tokens,
                m_code=args.code_tokens,
                delta_len=args.delta_spec_tokens,
                delta_m=args.delta_code_tokens)
            print(json.dumps(cost_model(inputs).to_dict(), indent=1,
                             sort_keys=True))
            return 0

        stage = args.stage
        for line in stage.summary(stage.run(load_config(args.config))):
            print(line)
    except DeltaSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
