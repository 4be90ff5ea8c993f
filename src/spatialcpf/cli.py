"""Command-line entry point.

One subcommand per stage declared in pipeline.STAGES (ingest, project,
graph, cluster, refine, summarize, export) plus `run` for the whole chain. All behavior is
driven by one YAML config file; --seed overrides the config's seed. Each warning
of a run or stage is printed once to stderr as `warning: ...`; the exit code stays 0.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import SpatialCpfError
from .pipeline import STAGES, PipelineConfig, StageError, run_pipeline, run_stage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialcpf",
        description="Spatially-constrained CPF clustering of geochemical soil samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", *STAGES):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML pipeline config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name != "run":
            p.add_argument("--in", dest="in_path", default=None, help="input file override")
            p.add_argument("--out", dest="out_path", default=None, help="output file override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = PipelineConfig.from_file(args.config)
        if args.seed is not None:
            config.seed = args.seed
            config.validate()
        if args.command == "run":
            report = run_pipeline(config)
            json.dump(report, sys.stdout, indent=2, sort_keys=True)
            print()
            messages = report["warnings"]
        else:
            messages = []
            result = run_stage(args.command, config, args.in_path, args.out_path,
                               messages=messages)
            for p in result if isinstance(result, tuple) else (result,):
                print(p)
        for warning in messages:
            print(f"warning: {warning}", file=sys.stderr)
    except StageError as exc:
        print(f"error in stage {exc.stage}: {exc.cause}", file=sys.stderr)
        return 1
    except (SpatialCpfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
