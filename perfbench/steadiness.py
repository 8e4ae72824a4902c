"""Steadiness check: run the benchmark on several seeds, report spreads.

Run from the repository root::

    python3 perfbench/steadiness.py --seeds 1-10 --out steady.json
    python3 perfbench/steadiness.py --seeds 1-10 --compare steady.json

For each workload and end-to-end metric it prints the median of the runs
and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
spread above the metric's bound in ``BENCHMARK.json`` fails the check;
above a third of the bound it is flagged.  With
``--compare`` each median is also checked against an earlier set: it
may not be worse by more than the bound.  Runs go one at a time, seed by
seed across the workloads.  Exit code 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(spec, workload, seed, seconds, trace):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds),
                                 "--trace", str(trace)]
    start = time.perf_counter()
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=900, check=False)
    elapsed = time.perf_counter() - start
    lines = child.stdout.strip().splitlines()
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), None)
    return {"workload": workload, "seed": seed, "exit": child.returncode,
            "elapsed_s": elapsed, "result": json.loads(lines[-1]),
            "record": record}


def shorten(record):
    """The record with its set-up samples (up to thousands) as a summary."""
    samples = record.get("setup_s_samples")
    if samples:
        record["setup_s_samples"] = {
            "count": len(samples), "min": min(samples),
            "median": statistics.median(samples), "max": max(samples)}
    return record


def spread(values):
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(spec, runs, previous=None):
    """Per workload and metric: median, spread and verdicts."""
    rows = []
    ok = True
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run["result"]["metrics"][name]["value"]
                      for run in mine]
            median = statistics.median(values)
            row = {"workload": workload, "metric": name, "bound": bound,
                   "median": median, "spread": spread(values),
                   "values": values}
            row["spread_ok"] = row["spread"] <= bound
            row["under_third"] = row["spread"] <= bound / 3
            if previous is not None:
                before = [r["median"] for r in previous
                          if r["workload"] == workload
                          and r["metric"] == name]
                if before:
                    change = median / before[0] - 1.0  # all lower-better
                    row["worse_by"] = change
                    row["median_ok"] = change <= bound
            ok = ok and row["spread_ok"] and row.get("median_ok", True)
            rows.append(row)
    return rows, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path,
                        help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    correct = True
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            run = run_once(spec, workload, seed, seconds, 0)
            correct = correct and run["exit"] == 0 and run["result"]["correct"]
            record = run["record"] or {}
            print("%-15s seed %3d  exit %d  %5.1fs  wall_s %.4f  setup_s "
                  "%.4f  cpu/wall %.3f  load1 %.2f" % (
                      workload, seed, run["exit"], run["elapsed_s"],
                      run["result"]["metrics"]["wall_s"]["value"],
                      run["result"]["metrics"]["setup_s"]["value"],
                      record.get("cpu_per_wall", 0.0),
                      record.get("load1", 0.0)), flush=True)
            runs.append(run)
    previous = None
    if args.compare is not None:
        previous = json.loads(args.compare.read_text())["summary"]
    rows, ok = summarise(spec, runs, previous)
    for row in rows:
        flag = ("" if row["under_third"] else "  above bound/3"
                if row["spread_ok"] else "  SPREAD OVER BOUND")
        print("%-15s %-12s median %14.6f  spread %.4f (bound %.2f)%s%s" % (
            row["workload"], row["metric"], row["median"], row["spread"],
            row["bound"], flag, "" if row.get("median_ok", True)
            else "  MEDIAN WORSE BY %.3f" % row["worse_by"]))
    if args.out is not None:
        for run in runs:
            shorten(run["record"] or {})
        args.out.write_text(json.dumps(
            {"seconds": seconds, "runs": runs, "summary": rows},
            indent=1) + "\n")
    return 0 if ok and correct else 1


if __name__ == "__main__":
    sys.exit(main())
