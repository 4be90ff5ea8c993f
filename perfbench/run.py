"""spatialcpf benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 perfbench/run.py --workload survey --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. --workload is survey, one_component, retune
or all; BENCHMARK.json lists survey and one_component, and retune is run by
hand. Each measured pass runs in a fresh worker interpreter, one at a time,
with the BLAS thread count capped at the number of usable cores; passes
repeat for about --seconds (no pass starts that would end more than half a
pass after them). Every pass's outputs are checked (see check.py); the run
exits 1 if any check fails. --trace 1 alternates untraced and traced passes
and reports the per-layer metrics of the traced ones, plus the tracing
overhead. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. Work files, spans and a result record go to
.perfbench_work/ in the checkout.

--write-reference (seed 0 only) stores the first pass's output fingerprint
as the workload's reference in perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
WORKLOAD_NAMES = ("survey", "one_component", "retune")

# Set-up is timed in this many set-up-only workers and in every pass worker.
SETUP_SAMPLES = 3
# A run must end within 180 s; no pass is started that could overrun this.
RUN_BUDGET_S = 160.0

# The run's median pass wall time is reported scaled to the calibration
# kernel's reference speed (see calibrate.py), since the host's own speed
# drifts; the unscaled wall_s and samples_per_s are printed alongside.
END_TO_END = {"scaled_wall_s": "s", "scaled_samples_per_s": "1/s", "peak_rss_mib": "MiB",
              "setup_s": "s"}
PER_LAYER = {
    **{name: unit for name, (unit, _) in tracer.SPAN_METRICS.items()},
    "pipeline.report_s": "s",
    "pipeline.cpu_s": "s",
    "pipeline.output_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "check.outlier_frac": "ratio",
}


class SetupFailed(RuntimeError):
    pass


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    cores = str(usable_cores())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cores
    env.pop("PYTHONPATH", None)
    return env


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": usable_cores(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
    }


def spawn(request: dict, timeout: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it was ready, its result).

    Raises SetupFailed when the worker exits before reporting ready.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(request)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        if line != "ready\n":
            proc.communicate()
            raise SetupFailed(f"worker exited with code {proc.returncode} before set-up "
                              "completed (is src/spatialcpf present?)")
        try:
            rest, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return ready_s, {"error": f"pass exceeded {timeout:.0f} s"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if request["mode"] == "setup":
        return ready_s, None
    lines = rest.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"worker exited with code {proc.returncode} and no result"}
    return ready_s, result


def pass_failures(fp: dict, baseline: dict | None, reference: dict | None,
                  n_sites: int, contaminations: list[float]) -> list[str]:
    """Every reason one pass's output fingerprint is wrong."""
    fails = []
    if len(fp["settings"]) != len(contaminations):
        return [f"{len(fp['settings'])} settings in output, want {len(contaminations)}"]
    for j, (setting, contamination) in enumerate(zip(fp["settings"], contaminations)):
        fails.extend(f"setting {j}: {f}"
                     for f in check.invariant_failures(setting, n_sites, contamination))
    if baseline is not None:
        fails.extend(f"differs from first pass: {f}" for f in check.mismatches(fp, baseline))
    if reference is not None:
        fails.extend(f"differs from reference: {f}" for f in check.mismatches(fp, reference))
    return fails


def median_line(name: str, values: list[float], unit: str) -> str:
    """Median and sample count, plus the highest standard percentile with at
    least ten samples beyond it, when there is one."""
    text = f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)})"
    for pct in (99.9, 99, 95, 90):
        if len(values) * (1 - pct / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]
            text += f", p{pct:g} {cut:.6g} {unit}"
            break
    return text


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n_sites: int | None = None, write_reference: bool = False) -> dict:
    run_start = time.perf_counter()
    run_dir = WORK / (f"{name}-seed{seed}-trace{int(trace)}"
                      + (f"-n{n_sites}" if n_sites else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    start = time.perf_counter()
    data = workloads.generate(name, seed, n_sites)
    input_path = run_dir / "input.csv"
    workloads.write_survey_csv(input_path, *data)
    gen_s = time.perf_counter() - start
    n = len(data[0])

    out_dir = run_dir / "out"
    config_path = run_dir / "config.yaml"
    # JSON is a subset of YAML, so the config loader reads this as is.
    config_path.write_text(json.dumps({"input": str(input_path), "output_dir": str(out_dir)}))
    contaminations = workloads.contaminations(name)

    setup_request = {"mode": "setup", "config": str(config_path)}
    spawn(setup_request, RUN_BUDGET_S)  # warm-up: fills the bytecode cache
    setup = [spawn(setup_request, RUN_BUDGET_S)[0] for _ in range(SETUP_SAMPLES)]

    reference = None
    if seed == DEFAULT_SEED and n_sites is None:
        reference = check.load_reference(REFERENCE).get(name)
    baseline = None
    walls = {False: [], True: []}
    rows = {False: [], True: []}
    failures = []
    attempted = 0
    measure_start = time.perf_counter()
    last_pass_s = 0.0
    while True:
        elapsed = time.perf_counter() - measure_start
        traced = trace and attempted % 2 == 1
        need_more = attempted == 0 or (trace and attempted == 1)
        # Stop when the next pass would end more than half a pass past the
        # measuring window, so that a run measures about --seconds.
        if not need_more and (elapsed + last_pass_s / 2 >= seconds
                              or time.perf_counter() - run_start
                              + 1.5 * last_pass_s > RUN_BUDGET_S):
            break
        shutil.rmtree(out_dir, ignore_errors=True)
        request = {"mode": "pass", "config": str(config_path), "workload": name,
                   "trace": traced, "pass_id": attempted,
                   "spans_path": str(run_dir / f"spans-pass{attempted}.jsonl")}
        pass_start = time.perf_counter()
        remaining = RUN_BUDGET_S - (pass_start - run_start)
        ready_s, result = spawn(request, max(remaining, 1.0))
        setup.append(ready_s)
        last_pass_s = time.perf_counter() - pass_start
        attempted += 1
        if "error" in result:
            failures.append(f"pass {attempted - 1}: {result['error'].strip()}")
            continue
        fp = result["fingerprint"]
        fails = pass_failures(fp, baseline, reference, n, contaminations)
        if fails:
            failures.extend(f"pass {attempted - 1}: {f}" for f in fails)
            continue
        if baseline is None:
            baseline = fp
        walls[traced].append(result["wall_s"])
        rows[traced].append(result)
    kernels = [r["kernel_s"] for r in rows[False] + rows[True]]
    shutil.rmtree(out_dir, ignore_errors=True)
    input_path.unlink()

    if write_reference and baseline is not None and not failures:
        refs = check.load_reference(REFERENCE)
        refs[name] = baseline
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")

    lines = [f"workload {name}: seed {seed}, {n} sites, input generation {gen_s:.4f} s, "
             f"trace {int(trace)}"]
    metrics = {}
    untraced = rows[False]
    if untraced:
        kernel_s = statistics.median(kernels)
        scaled_wall_s = calibrate.scaled(statistics.median(walls[False]), kernel_s)
        values = {"scaled_wall_s": scaled_wall_s, "scaled_samples_per_s": n / scaled_wall_s,
                  "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in untraced),
                  "setup_s": statistics.median(setup)}
        how = (f"median wall_s x ({calibrate.REFERENCE_S} s / median kernel_s "
               f"{kernel_s:.6g} s (n={len(kernels)})) ^ {calibrate.SENSITIVITY}")
        lines.append(f"scaled_wall_s: {scaled_wall_s:.6g} s ({how})")
        lines.append(f"scaled_samples_per_s: {n / scaled_wall_s:.6g} 1/s ({n} sites / "
                     "scaled_wall_s)")
        lines.append(median_line("peak_rss_mib", [r["peak_rss_mib"] for r in untraced], "MiB"))
        lines.append(median_line("setup_s", setup, "s"))
        lines.append(median_line("wall_s", walls[False], "s") + " (unscaled)")
        lines.append(median_line("samples_per_s", [n / w for w in walls[False]], "1/s")
                     + " (unscaled)")
        if not trace:
            metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}
    else:
        lines.append(median_line("setup_s", setup, "s"))
    lines.append(f"failed_frac: {len(failures)}/{attempted} = "
                 f"{len(failures) / max(attempted, 1):.6g}")
    if baseline is not None:
        for j, setting in enumerate(baseline["settings"]):
            frac = setting["exact"]["n_outliers"] / n
            lines.append(f"outlier_frac setting {j}: {frac:.6g}")

    if trace and rows[True]:
        absent = set()
        per_pass = []
        for r in rows[True]:
            layers = dict(r["layers"])
            layers["pipeline.cpu_s"] = r["cpu_s"]
            layers["pipeline.output_bytes"] = r["output_bytes"]
            layers["check.outlier_frac"] = (
                r["fingerprint"]["settings"][0]["exact"]["n_outliers"] / n)
            per_pass.append(layers)
            absent.update(r["absent"])
        for metric, unit in PER_LAYER.items():
            if metric == "trace.overhead_s":
                value = (calibrate.scaled(statistics.median(walls[True])
                                          - statistics.median(walls[False]), kernel_s)
                         if walls[False] else 0.0)
            elif unit in ("count", "bytes"):
                # An observed value, so exact counts stay whole numbers.
                value = statistics.median_low(p[metric] for p in per_pass)
            else:
                value = statistics.median(p[metric] for p in per_pass)
            metrics[metric] = {"value": value, "unit": unit}
            mark = "  ABSENT (function not found)" if metric in absent else ""
            lines.append(f"{metric}: {value:.6g} {unit} (n={len(per_pass)}){mark}")

    correct = not failures and bool(untraced) and (not trace or bool(rows[True]))
    record = {"workload": name, "seed": seed, "trace": int(trace), "n_sites": n,
              "gen_s": gen_s, "setup_s": setup, "attempted": attempted,
              "failures": failures, "metrics": metrics, "environment": environment(),
              "passes": [{k: v for k, v in r.items() if k != "fingerprint"}
                         for r in rows[False] + rows[True]]}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "lines": lines, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error("--write-reference needs the default seed")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               write_reference=args.write_reference)
            print("\n".join(res["lines"]), flush=True)
            for failure in res["failures"]:
                print(f"FAILED {failure}", file=sys.stderr)
            results[name] = res
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, r in results.items()
                   for m, v in r["metrics"].items()}
    print("env: " + json.dumps(environment(), sort_keys=True))
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
