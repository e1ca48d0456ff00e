"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run small copies of the workloads, so they take seconds, except the
known-defect test, which runs flapdense once (about ten seconds).
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
from array import array

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.run import DETERMINISTIC  # noqa: E402

TINY = {
    "tiny-steady": workloads.Spec(
        name="tiny-steady", routers=30, alpha=0.3, topology_seed=3,
        members=10, stream_interval=0.25, steady=3.0,
    ),
    "tiny-flap": workloads.Spec(
        name="tiny-flap", routers=30, alpha=0.3, topology_seed=3, groups=2,
        members=8, stream_interval=0.5, faults_per_group=2, fault_spacing=16.0,
        fault_down=13.0, fault_grace=14.0, drain=6.0, proxy_ack=False,
    ),
}


@pytest.fixture(autouse=True)
def tiny_specs(monkeypatch):
    monkeypatch.setattr(workloads, "SPECS", {**workloads.SPECS, **TINY})


def plain(name: str, seed: int = 1) -> workloads.Repetition:
    rep = workloads.Repetition(name, seed)
    rep.record = rep.execute()
    return rep


def traced(name: str, seed: int = 1) -> workloads.Repetition:
    tracer = tracing.Tracer(f"{name}-{seed}")
    uninstall = tracing.install(tracer)
    try:
        rep = workloads.Repetition(name, seed, tracer=tracer)
        rep.record = rep.execute()
    finally:
        uninstall()
    return rep


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrappers_leave_deterministic_outputs_unchanged(name):
    untraced, with_spans = plain(name), traced(name)
    assert untraced.record["errors"] == []
    assert with_spans.record["errors"] == []
    for key in DETERMINISTIC:
        assert with_spans.record["outcome"][key] == untraced.record["outcome"][key], key
    assert len(with_spans.tracer.span_start) > 1000


def test_uninstall_restores_every_boundary():
    from repro.netsim.engine import Scheduler
    from repro.netsim.link import Link

    before = (Scheduler.__dict__["call_at"], Link.__dict__["transmit"],
              workloads.generators.waxman_network)
    uninstall = tracing.install(tracing.Tracer("x"))
    assert Scheduler.__dict__["call_at"] is not before[0]
    uninstall()
    after = (Scheduler.__dict__["call_at"], Link.__dict__["transmit"],
             workloads.generators.waxman_network)
    assert after == before


def test_self_times_are_non_negative_and_sum_to_traced_run_s():
    rep = traced("tiny-flap")
    tracer, marks = rep.tracer, rep.trace_marks
    start, end = marks["run_start"], marks["run_end"]
    deltas = {n: end["self_s"][n] - start["self_s"].get(n, 0.0) for n in end["self_s"]}
    assert all(v >= 0.0 for v in deltas.values()), deltas
    layers = tracing.layer_metrics(start, end, rep.record["run_s"])
    assert layers["trace.untracked_s"] >= 0.0
    assert layers["trace.untracked_s"] < 0.2 * rep.record["run_s"]
    assert math.isclose(
        layers["trace.self_sum_s"] + layers["trace.untracked_s"], rep.record["run_s"]
    )

    # The same self times, recomputed offline from the recorded spans.
    first, last = start["spans"], end["spans"]
    child_time = array("d", [0.0]) * (last - first)
    for i in range(first, last):
        parent = tracer.span_parent[i]
        if parent >= first:
            child_time[parent - first] += tracer.span_end[i] - tracer.span_start[i]
    offline = {}
    for i in range(first, last):
        name = tracer.names[tracer.span_name[i]]
        own = tracer.span_end[i] - tracer.span_start[i] - child_time[i - first]
        assert own >= 0.0
        offline[name] = offline.get(name, 0.0) + own
    for name, value in offline.items():
        assert math.isclose(value, deltas[name], rel_tol=1e-6, abs_tol=1e-9), name


def test_missing_and_duplicate_pairs_lower_delivery_ratio():
    rep = plain("tiny-steady")
    clean = rep._outcome()
    assert clean["delivery_ratio"] == 1.0 and clean["failed"] == 0
    members = [h for h in rep.windows[0] if h != rep.load.sources[0]]
    delivered = rep.network.host(members[0]).delivered
    data = [d for d in delivered if d.dst == rep.groups[0]]
    delivered.remove(data[len(data) // 2])  # a missing pair
    other = rep.network.host(members[1]).delivered
    other.append([d for d in other if d.dst == rep.groups[0]][-3])  # a duplicate
    rep.errors = []
    hurt = rep._outcome()
    assert hurt["delivery_ratio"] == pytest.approx(
        (clean["pairs"] - 2) / clean["pairs"]
    )
    assert hurt["failed"] == 2
    assert any("1 missing and 1 duplicate" in e for e in rep.errors)


def test_unfinished_join_counts_as_failure_in_latency_percentiles():
    assert workloads.percentile([0.1, 0.2, math.inf], 0.5) == 0.2
    assert workloads.percentile([0.1, math.inf, math.inf], 0.5) == math.inf
    rep = plain("tiny-steady")
    latencies = rep.join_clock.latencies
    clean = rep._outcome()
    for key in sorted(latencies)[: len(latencies) // 2 + 1]:
        latencies[key] = math.inf
    rep.errors = []
    stalled = rep._outcome()
    assert stalled["join_p50_ms"] == math.inf
    assert stalled["join_p90_ms"] == math.inf
    assert stalled["failed"] == clean["failed"] + len(latencies) // 2 + 1
    assert any("never completed" in e for e in rep.errors)


def test_load_is_a_function_of_the_seed():
    hosts = [f"H_N{i}" for i in range(1000)]
    spec = workloads.SPECS["flash1000"]
    assert workloads.make_load(spec, 5, hosts) == workloads.make_load(spec, 5, hosts)
    assert workloads.make_load(spec, 5, hosts) != workloads.make_load(spec, 6, hosts)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: a proxy-ack over a point-to-point link makes a "
    "rejoining member DR abandon its member LAN (perfbench/README.md)",
)
def test_flapdense_with_proxy_ack_is_clean():
    spec = dataclasses.replace(
        workloads.SPECS["flapdense"], name="flapdense-proxy-ack", proxy_ack=True
    )
    workloads.SPECS[spec.name] = spec
    assert plain(spec.name).record["errors"] == []
