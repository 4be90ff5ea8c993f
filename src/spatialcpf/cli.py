"""Command-line entry point.

Subcommands mirror the pipeline stages (ingest, project, graph, cluster,
refine, summarize, export) plus `run` for the whole chain. All behavior is
driven by one YAML config file; --seed overrides the config's seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import SpatialCpfError
from .pipeline import PipelineConfig, StageError, run_pipeline
from . import pipeline

STAGES = {
    "ingest": lambda cfg, a: pipeline.stage_ingest(cfg, in_path=a.in_path, out_path=a.out_path),
    "project": lambda cfg, a: pipeline.stage_project(cfg, in_path=a.in_path, out_path=a.out_path),
    "graph": lambda cfg, a: pipeline.stage_graph(cfg, in_path=a.in_path, out_path=a.out_path),
    "cluster": lambda cfg, a: pipeline.stage_cluster(cfg, samples_path=a.in_path, out_path=a.out_path),
    "refine": lambda cfg, a: pipeline.stage_refine(cfg, labeling_path=a.in_path, out_path=a.out_path),
    "summarize": lambda cfg, a: pipeline.stage_summarize(cfg, labeling_path=a.in_path, out_path=a.out_path),
    "export": lambda cfg, a: pipeline.stage_export(cfg, labeling_path=a.in_path),
}


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
        else:
            result = STAGES[args.command](config, args)
            if isinstance(result, tuple):
                for p in result:
                    print(p)
            else:
                print(result)
    except StageError as exc:
        print(f"error in stage {exc.stage}: {exc.cause}", file=sys.stderr)
        return 1
    except (SpatialCpfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
