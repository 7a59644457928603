"""Command-line entry point.

Each subcommand runs one pipeline stage against a JSON config; `cost-model`
is a standalone calculator. Exit codes: 0 success, 1 a pipeline error
(printed to stderr), 2 usage (argparse's own).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from ..errors import DeltaSpecError
from .config import load_config
from .cost import CostModelInputs, cost_model
from . import pipeline
from .render import build_report, render_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaspec",
        description="Spec-versus-code inconsistency detection pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("ingest-rfc", "parse and chunk the configured RFC text files"),
        ("ingest-code", "index and chunk the configured source trees"),
        ("build-graph", "build the knowledge graph from the chunks"),
        ("build-chains", "extract functional entries and chain deltas"),
        ("synth-triplets", "synthesize the differential triplet store"),
        ("verify", "verify every chain against every code version"),
        ("eval", "score the verdict matrix against ground truth"),
        ("report", "assemble and render the final report"),
    ):
        p = sub.add_parser(name, help=helptext)
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

        cfg = load_config(args.config)
        if args.command == "ingest-rfc":
            docs = pipeline.ingest_rfcs(cfg)
            print(f"parsed {len(docs)} RFC documents")
        elif args.command == "ingest-code":
            for version in cfg.versions:
                index = pipeline.ingest_code(cfg, version)
                print(f"{version}: {index.total_functions} functions, "
                      f"{index.total_lines} function lines")
        elif args.command == "build-graph":
            for version, graph in zip(
                    cfg.versions, pipeline.build_graph_stage(cfg, cfg.versions)):
                print(f"{version}: {len(graph.entities)} entities, "
                      f"{len(graph.communities)} communities")
        elif args.command == "build-chains":
            chain_graph = pipeline.build_chains_stage(cfg)
            print(f"{len(chain_graph.nodes)} RFCs, "
                  f"{chain_graph.chain_count()} chains")
        elif args.command == "synth-triplets":
            store = pipeline.synth_triplets_stage(cfg)
            print(f"{len(store)} triplets")
        elif args.command == "verify":
            matrix = pipeline.verify_stage(cfg)
            for version in sorted(matrix):
                cells = ", ".join(
                    f"{rfc}={verdict.value}"
                    for rfc, verdict in sorted(matrix[version].items()))
                print(f"{version}: {cells}")
        elif args.command == "eval":
            metrics = pipeline.eval_stage(cfg)
            d = metrics.to_dict()
            print(f"accuracy {d['accuracy_pct']}% recall {d['recall_pct']}% "
                  f"precision {d['precision_pct']}% f1 {d['f1']}")
        elif args.command == "report":
            path = render_report(build_report(cfg), cfg.workdir / "report")
            print(f"report written to {path}")
    except DeltaSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
