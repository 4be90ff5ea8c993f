"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json request>'

The request names the mode ("setup" or "pass"), the config file, the
workload and, for a traced pass, where to write the spans. The worker
imports spatialcpf from the checkout's src/ directory, loads and validates
the config, and prints "ready" (the parent times set-up up to that line).
In "pass" mode it then runs the workload once, times the calibration kernel
(calibrate.py), fingerprints the outputs and prints one JSON result line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_spatialcpf():
    sys.path.insert(0, str(ROOT / "src"))
    import spatialcpf
    from spatialcpf import pipeline

    if Path(spatialcpf.__file__).resolve().parent != ROOT / "src" / "spatialcpf":
        raise ImportError(f"spatialcpf imported from {spatialcpf.__file__}, not {ROOT / 'src'}")
    return pipeline


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _retune_configs(pipeline, base, out: Path) -> list:
    from workloads import RETUNE_SETTINGS

    configs = []
    for j, s in enumerate(RETUNE_SETTINGS):
        raw = base.to_dict()
        raw["output_dir"] = str(out / f"setting{j}")
        raw["cpf"].update(alpha=s["alpha"], merge_threshold=s["merge_threshold"])
        raw["iforest"]["contamination"] = s["contamination"]
        configs.append(pipeline.PipelineConfig.from_dict(raw))
    return configs


def _retune(pipeline, config, configs) -> list[tuple]:
    """Ingest, project and build the geo graph once, then re-cluster
    file-to-file for each setting. Returns each setting's output paths."""
    samples = pipeline.stage_ingest(config)
    coords = pipeline.stage_project(config)
    adjacency = pipeline.stage_graph(config)
    outputs = []
    for cfg in configs:
        out = Path(cfg.output_dir)
        labeling = pipeline.stage_cluster(cfg, samples_path=samples, adjacency_path=adjacency,
                                          out_path=out / "labeling.csv")
        pipeline.stage_refine(cfg, samples_path=samples, labeling_path=labeling,
                              out_path=labeling)
        summary = pipeline.stage_summarize(cfg, samples_path=samples, labeling_path=labeling,
                                           out_path=out / "summary.csv")
        geojson, _ = pipeline.stage_export(cfg, samples_path=samples, coords_path=coords,
                                           labeling_path=labeling)
        outputs.append((labeling, geojson, summary, None))
    return outputs


def run_pass(pipeline, config, request: dict) -> dict:
    # Imported after the ready line, so that set-up time is spatialcpf's alone.
    import check
    import tracer as tracing

    out = Path(config.output_dir)
    retune = request["workload"] == "retune"
    configs = _retune_configs(pipeline, config, out) if retune else []
    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer(pass_id=request["pass_id"])
        tracing.install(tracer)

    cpu0 = _cpu_s()
    start = time.perf_counter()
    if retune:
        outputs = _retune(pipeline, config, configs)
    else:
        pipeline.run_pipeline(config)
        outputs = [tuple(config.path(pipeline.FILES[k])
                         for k in ("labeling", "geojson", "summary", "report"))]
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Imported and run after the peak RSS is read, so that it stays the pass's.
    import calibrate

    result = {
        "wall_s": wall,
        "kernel_s": calibrate.kernel_s(),
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss,
        "output_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        "fingerprint": {
            "coords": check.fingerprint_coords(config.path(pipeline.FILES["coords"])),
            "settings": [check.fingerprint_setting(*paths) for paths in outputs],
        },
    }
    if tracer is not None:
        layers, absent = tracing.pass_metrics(tracer)
        result["layers"] = layers
        result["absent"] = absent
        with open(request["spans_path"], "w", encoding="utf-8") as fh:
            for record in tracer.to_records():
                fh.write(json.dumps(record) + "\n")
    return result


def main() -> int:
    request = json.loads(sys.argv[1])
    pipeline = _import_spatialcpf()
    config = pipeline.PipelineConfig.from_file(request["config"])
    print("ready", flush=True)
    if request["mode"] == "setup":
        return 0
    try:
        result = run_pass(pipeline, config, request)
    except Exception:
        result = {"error": traceback.format_exc()}
    print(json.dumps(result), flush=True)
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
