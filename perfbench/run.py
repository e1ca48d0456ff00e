#!/usr/bin/env python3
"""Run the repository benchmark on one workload and print its metrics.

    python3 perfbench/run.py --workload steady1000 --seed 17 --seconds 30 --trace 0

Run from the repository root.  Each repetition runs in a fresh child
process (``--rep``), so every one starts from the same interpreter
state and ``peak_rss_mb`` is one repetition's.  With ``--trace 0`` the
benchmark repeats the workload until ``--seconds`` are used (at least
MIN_REPS times) and prints the end-to-end metrics: medians over the
repetitions, and exact counts that must agree between them.  With
``--trace 1`` it runs one plain and one traced repetition and prints the
per-layer metrics; the spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output was correct: no missing or duplicate delivery
pair, no invariant or conservation finding at drain, every join
completed, and every deterministic metric equal across repetitions and
between the traced and the plain run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOADS = ("steady1000", "flash1000", "flapdense")
#: The default seed; README.md records a second one for re-checking a
#: claim on load it was not tuned on.
DEFAULT_SEED = 17
MIN_REPS = 3
MAX_REPS = 12
CHILD_TIMEOUT = 170

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "delivery_ratio": "ratio",
    "control_msgs": "count",
    "join_p50_ms": "ms",
    "join_p90_ms": "ms",
    "fib_entries": "count",
    "stretch_mean": "ratio",
    "recovery_p50_s": "s",
}
#: Outcomes that are a pure function of (workload, seed).
DETERMINISTIC = (
    "delivery_ratio",
    "control_msgs",
    "join_p50_ms",
    "join_p90_ms",
    "fib_entries",
    "stretch_mean",
    "recovery_p50_s",
    "engine.events",
    "engine.scheduled",
    "engine.cancelled",
    "joins",
    "pairs",
)
PER_LAYER_UNITS = {
    "phase.build_s": "s",
    "phase.bootstrap_s": "s",
    "phase.settle_s": "s",
    "phase.workload_s": "s",
    "phase.drain_s": "s",
    "phase.check_s": "s",
    "topology.build_s": "s",
    "topology.links": "count",
    "engine.events": "count",
    "engine.scheduled": "count",
    "engine.cancelled": "count",
    "engine.fired_ratio": "ratio",
    "engine.self_s": "s",
    "link.transmits": "count",
    "link.deliveries": "count",
    "link.drops": "count",
    "link.fanout": "ratio",
    "link.self_s": "s",
    "routing.lookups": "count",
    "routing.lookup_s": "s",
    "routing.recomputes": "count",
    "routing.recompute_s": "s",
    "cbt.ctl_rx": "count",
    "cbt.ctl_s": "s",
    "cbt.tick_s": "s",
    "fib.writes": "count",
    "igmp.rx": "count",
    "igmp.s": "s",
    "igmp.queries_tx": "count",
    "dataplane.packets": "count",
    "dataplane.copies_per_packet": "ratio",
    "dataplane.s": "s",
    "telemetry.publishes": "count",
    "telemetry.publish_s": "s",
    "telemetry.registry_scans": "count",
    "telemetry.scan_s": "s",
    "verify.s": "s",
    "trace.overhead": "ratio",
    "trace.untracked_s": "s",
    "trace.spans": "count",
}


def _import_program() -> None:
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_repetition(workload: str, seed: int, traced: bool) -> Dict[str, object]:
    """One repetition in this process (the child side of ``--rep``)."""
    _import_program()
    from perfbench.workloads import Repetition

    if not traced:
        return Repetition(workload, seed).execute()

    from perfbench import tracer as tracing

    run_id = f"{workload}-seed{seed}"
    tracer = tracing.Tracer(run_id)
    uninstall = tracing.install(tracer)
    try:
        rep = Repetition(workload, seed, tracer=tracer)
        record = rep.execute()
    finally:
        uninstall()
    marks = rep.trace_marks
    layers = tracing.layer_metrics(marks["run_start"], marks["run_end"], record["run_s"])
    topology = marks["setup_end"]["self_s"].get("topology.waxman_network", 0.0)
    layers["topology.build_s"] = topology / rep.spec.setups
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{run_id}"))
    record["layers"] = layers
    return record


def spawn_repetition(workload: str, seed: int, traced: bool) -> Dict[str, object]:
    """One repetition in a fresh child process."""
    command = [
        sys.executable, os.path.abspath(__file__), "--rep",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    child = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT, check=False
    )
    if child.returncode != 0:
        raise RuntimeError(f"repetition exited with {child.returncode}")
    return json.loads(child.stdout.decode().strip().splitlines()[-1])


def _finite(value: float) -> float:
    return value if math.isfinite(value) else -1.0


def check(records: List[Dict[str, object]]) -> List[str]:
    """Correctness findings over the repetitions of one invocation."""
    problems: List[str] = []
    for index, record in enumerate(records):
        problems.extend(f"repetition {index}: {e}" for e in record["errors"])
    first = records[0]["outcome"]
    for index, record in enumerate(records[1:], 1):
        for key in DETERMINISTIC:
            if record["outcome"][key] != first[key]:
                problems.append(
                    f"repetition {index}: {key} = {record['outcome'][key]!r}, "
                    f"repetition 0 had {first[key]!r}"
                )
    return problems


def end_to_end(records: List[Dict[str, object]]) -> Dict[str, float]:
    outcome = records[0]["outcome"]
    metrics = {
        "setup_s": statistics.median(s for r in records for s in r["setup_s"]),
        "run_s": statistics.median(r["run_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    for key in END_TO_END:
        if key not in metrics:
            metrics[key] = _finite(outcome[key])
    return metrics


def per_layer(plain: Dict[str, object], traced: Dict[str, object]) -> Dict[str, float]:
    outcome = plain["outcome"]
    phases = plain["phases"]
    metrics = {f"phase.{name}_s": phases[name] for name in (
        "build", "bootstrap", "settle", "workload", "drain", "check")}
    metrics["topology.links"] = plain["links"]
    metrics["engine.events"] = outcome["engine.events"]
    metrics["engine.scheduled"] = outcome["engine.scheduled"]
    metrics["engine.cancelled"] = outcome["engine.cancelled"]
    metrics["engine.fired_ratio"] = outcome["engine.events"] / outcome["engine.scheduled"]
    layers = traced["layers"]
    for key in PER_LAYER_UNITS:
        if key not in metrics and key in layers:
            metrics[key] = layers[key]
    metrics["trace.overhead"] = traced["run_s"] / plain["run_s"]
    return metrics


def write_record(args, records, problems) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "started": time.time(),
            "problems": problems,
            "repetitions": records,
        }) + "\n")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rep", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2

    if args.rep:
        record = run_repetition(args.workload, args.seed, bool(args.trace))
        print(json.dumps(record))
        return 0

    started = time.perf_counter()
    records: List[Dict[str, object]] = []
    if args.trace:
        records = [
            spawn_repetition(args.workload, args.seed, False),
            spawn_repetition(args.workload, args.seed, True),
        ]
    else:
        while True:
            records.append(spawn_repetition(args.workload, args.seed, False))
            elapsed = time.perf_counter() - started
            if len(records) >= MAX_REPS:
                break
            if len(records) >= MIN_REPS and elapsed * (1 + 1 / len(records)) > args.seconds:
                break

    problems = check(records)
    write_record(args, records, problems)
    if args.trace:
        metrics, units = per_layer(records[0], records[1]), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(records), END_TO_END
    for name, value in metrics.items():
        print(f"{args.workload:>10}  {name:<28} {value:>16.6f} {units[name]}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    attempted = sum(r["outcome"]["attempted"] for r in records)
    failed = sum(r["outcome"]["failed"] for r in records)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
