#!/usr/bin/env python3
"""Steadiness study: how far the benchmark's figures move on one host.

    python3 perfbench/study.py --set A --seeds 1-10      # one set of runs
    python3 perfbench/study.py --set B --seeds 1-10      # later: a second set
    python3 perfbench/study.py --report                  # summarise both sets

Each set runs ``perfbench/run.py`` once per (workload, seed), every run in
fresh processes, and appends the printed metrics plus the repetitions'
reference-loop timings to ``perfbench/out/study.jsonl``.  ``--report``
prints, per set, each end-to-end metric's median and quartiles over the
seeds and their spread (interquartile distance over the median), the
shift of the median from the first set to the second, and the largest of
the two as a share of the metric's bound; it writes the summary to
``perfbench/steadiness.json``.  The reference loop rescales nothing: it
is there to show whether the host itself changed speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOG = os.path.join(HERE, "out", "study.jsonl")
SUMMARY = os.path.join(HERE, "steadiness.json")


def seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(name: str, seed_list: List[int], workloads: List[str], seconds: int) -> None:
    os.makedirs(os.path.dirname(LOG), exist_ok=True)
    runs_log = os.path.join(HERE, "out", "runs.jsonl")
    for workload in workloads:
        for seed in seed_list:
            started = time.time()
            child = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, check=False,
            )
            result = json.loads(child.stdout.decode().strip().splitlines()[-1])
            with open(runs_log) as fh:
                reps = json.loads(fh.read().strip().splitlines()[-1])["repetitions"]
            entry = {
                "set": name,
                "workload": workload,
                "seed": seed,
                "started": started,
                "wall_s": time.time() - started,
                "exit": child.returncode,
                "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "run_s": [r["run_s"] for r in reps],
                "setup_s": [s for r in reps for s in r["setup_s"]],
                "ref_loop_s": [[r["ref_loop_before_s"], r["ref_loop_after_s"]] for r in reps],
            }
            with open(LOG, "a") as fh:
                fh.write(json.dumps(entry) + "\n")
            print(f"{name} {workload} seed {seed}: exit {child.returncode} "
                  f"run_s {entry['metrics']['run_s']:.3f} "
                  f"setup_s {entry['metrics']['setup_s']:.3f} "
                  f"wall {entry['wall_s']:.1f}s", flush=True)


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def report() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    entries = [json.loads(line) for line in open(LOG)]
    sets = sorted({e["set"] for e in entries})
    summary: Dict[str, object] = {"sets": sets, "workloads": {}}
    for workload in [w["name"] for w in bench["workloads"]]:
        rows = {}
        for metric, spec in bounds.items():
            per_set = {}
            for name in sets:
                values = [e["metrics"][metric] for e in entries
                          if e["set"] == name and e["workload"] == workload]
                if len(values) >= 2:
                    per_set[name] = quartiles(values)
            if not per_set:
                continue
            row = {"bound": spec["bound"], "sets": per_set}
            if len(per_set) >= 2:
                first, second = (per_set[s]["median"] for s in sets[:2])
                worse = (second - first) if spec["better"] == "lower" else (first - second)
                row["median_shift"] = worse / first if first else 0.0
            worst = max([p["spread"] for p in per_set.values()]
                        + [abs(row.get("median_shift", 0.0))])
            row["worst_share_of_bound"] = worst / spec["bound"]
            rows[metric] = row
        ref_loop = {}
        for name in sets:
            refs = [x for e in entries if e["workload"] == workload and e["set"] == name
                    for pair in e["ref_loop_s"] for x in pair]
            if len(refs) >= 2:
                ref_loop[name] = quartiles(refs)
        summary["workloads"][workload] = {
            "runs": sum(1 for e in entries if e["workload"] == workload),
            "incorrect": sum(1 for e in entries
                             if e["workload"] == workload and not e["correct"]),
            "ref_loop_s": ref_loop,
            "metrics": rows,
        }
        print(f"\n{workload}  reference loop: " + "  ".join(
            f"{name} {q['median']:.4f} s" for name, q in ref_loop.items()))
        for metric, row in rows.items():
            cells = "  ".join(
                f"{s}: {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
                f"spread {p['spread']:.3f}" for s, p in row["sets"].items())
            shift = row.get("median_shift")
            shift_text = f"  shift {shift:+.3f}" if shift is not None else ""
            print(f"  {metric:<15} {cells}{shift_text}  "
                  f"(bound {row['bound']}, worst {row['worst_share_of_bound']:.2f} of it)")
    with open(SUMMARY, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return summary


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--set", help="name of the set of runs to make")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default="steady1000,flash1000,flapdense")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args(argv)
    if args.set:
        run_set(args.set, args.seeds, args.workloads.split(","), args.seconds)
    if args.report:
        report()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
