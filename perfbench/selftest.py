"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. A small-input smoke run of every workload, untraced and traced, must
   pass its output check and print every end-to-end and per-layer metric.
2. A copy of a pipeline output with one cluster label flipped must fail the
   output check, while the unchanged output passes it.
3. A traced function that no longer exists must be reported as absent.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import csv
import shutil
import sys
import types

import check
import run
import tracer
import workloads

SMOKE_SITES = 400


def smoke() -> list[str]:
    problems = []
    for name in run.WORKLOAD_NAMES:
        for trace, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            res = run.run_workload(name, seed=1, seconds=0, trace=trace, n_sites=SMOKE_SITES)
            print("\n".join(res["lines"]))
            if not res["correct"]:
                problems.append(f"{name} trace={int(trace)}: check failed: {res['failures']}")
            printed = {line.split(":", 1)[0] for line in res["lines"]}
            for metric in expected:
                if metric not in printed or metric not in res["metrics"]:
                    problems.append(f"{name} trace={int(trace)}: metric {metric} not reported")
    return problems


def flipped_label() -> list[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    from spatialcpf.pipeline import FILES, PipelineConfig, run_pipeline

    work = run.WORK / "selftest-flip"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workloads.write_survey_csv(work / "input.csv", *workloads.generate("survey", 1, SMOKE_SITES))
    config = PipelineConfig.from_dict({"input": str(work / "input.csv"),
                                       "output_dir": str(work / "out")})
    run_pipeline(config)
    paths = [config.path(FILES[k]) for k in ("labeling", "geojson", "summary", "report")]
    contamination = [workloads.DEFAULT_CONTAMINATION]
    original = {"coords": check.fingerprint_coords(config.path(FILES["coords"])),
                "settings": [check.fingerprint_setting(*paths)]}

    with open(paths[0], "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("cluster_label")
    rows[1][col] = "0" if rows[1][col] == "-1" else "-1"
    flipped_path = work / "labeling_flipped.csv"
    with open(flipped_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    flipped = {"coords": original["coords"],
               "settings": [check.fingerprint_setting(flipped_path, *paths[1:])]}

    problems = []
    same = run.pass_failures(original, original, None, SMOKE_SITES, contamination)
    if same:
        problems.append(f"unchanged output fails the check: {same}")
    caught = run.pass_failures(flipped, original, None, SMOKE_SITES, contamination)
    if not caught:
        problems.append("output with one flipped label passes the check")
    print(f"flipped label: {len(caught)} check failure(s), e.g. {caught[:1]}")
    shutil.rmtree(work)
    return problems


def absent_name() -> list[str]:
    t = tracer.Tracer()
    t.wrap(types.SimpleNamespace(), "big_brother", "cpf.big_brother")
    _, absent = tracer.pass_metrics(t)
    want = {"cpf.big_brother_s", "cpf.big_brother_rss_growth_mib"}
    if not want <= set(absent):
        return [f"missing function reported absent as {absent}, want {sorted(want)}"]
    print(f"absent function: reported as {sorted(absent)}")
    return []


def main() -> int:
    problems = smoke() + flipped_label() + absent_name()
    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
