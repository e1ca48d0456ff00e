"""The three benchmark workloads and the measurement of one repetition.

A repetition builds one network, runs one workload on it and checks the
outcome.  Everything it does is a pure function of ``(workload, seed)``:
the topology of each workload is fixed, and the seed picks the members,
the join times, the flash-crowd schedule, the stream phase and the
fault schedule.  The load is open loop in simulated time: every join,
leave, packet and fault is placed on the scheduler at a time fixed
before the run, whatever the program does.

Wall time is measured in two intervals:

* ``setup_s`` -- topology generation with unicast routing
  (``phase.build_s``) and ``CBTDomain`` construction plus ``start()``
  (``phase.bootstrap_s``); the simulation clock has not advanced yet;
* ``run_s`` -- from the first ``run()`` to a verified result: settle,
  workload, drain and the end-of-run check.

The program is reached only through the module attributes listed in
:mod:`perfbench.tracer`, so a traced repetition sees every call the
benchmark makes into a layer.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core import audit, bootstrap
from repro.core.migration import network_graph
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS
from repro.metrics.delay import delay_stretch
from repro.netsim import faults
from repro.netsim.address import group_address
from repro.netsim.packet import PROTO_UDP, IPDatagram, UDPDatagram
from repro.telemetry import conservation
from repro.telemetry.tracebus import MembershipEvent, ProtocolEvent
from repro.topology import generators
from repro.topology.graph import Tree
from repro.workloads.flashcrowd import FlashCrowdConfig, generate_flash_crowd

#: Simulated seconds of elections and HELLOs before any join.
SETTLE = 3.0
#: A packet counts as expected for a member only when sent at least
#: JOIN_MARGIN after its join and LEAVE_MARGIN before its leave.
JOIN_MARGIN = 1.5
LEAVE_MARGIN = 0.5
#: Packets sent this long before a fault may be on the failed link.
IN_FLIGHT = 1.0


@dataclass(frozen=True)
class Spec:
    """Fixed shape of one workload (the seed varies only the load)."""

    name: str
    routers: int
    alpha: float
    topology_seed: int
    groups: int = 1
    #: Members per group, the group's source included.
    members: int = 0
    stream_interval: float = 0.1
    #: Steady window after the last join (steady1000).
    steady: float = 0.0
    #: Flash-crowd clients (flash1000).
    clients: int = 0
    #: Faults per group and the spacing of one group's faults (flapdense).
    faults_per_group: int = 0
    fault_spacing: float = 0.0
    fault_down: float = 0.0
    #: After a fault, packets of the hit group are not expected for this
    #: long (nor those sent IN_FLIGHT before it); recovery must be
    #: complete by then.
    fault_grace: float = 0.0
    drain: float = 3.0
    #: Set-up is timed this many times per repetition (the last build
    #: is the one that runs); the median is reported.
    setups: int = 1
    #: CBT's section 2.6 proxy-ack, a shared-LAN mechanism.
    proxy_ack: bool = True


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="steady1000",
            routers=1000,
            alpha=0.02,
            topology_seed=1000,
            members=125,
            stream_interval=0.2,
            steady=10.0,
            setups=2,
        ),
        Spec(
            name="flash1000",
            routers=1000,
            alpha=0.02,
            topology_seed=1001,
            clients=160,
            stream_interval=0.5,
            drain=6.0,
            setups=2,
        ),
        Spec(
            name="flapdense",
            routers=150,
            alpha=0.25,
            topology_seed=150,
            groups=6,
            members=27,
            stream_interval=1.0,
            faults_per_group=4,
            fault_spacing=20.0,
            fault_down=13.0,
            fault_grace=17.0,
            drain=6.0,
            setups=5,
            # The realised topology has no router-shared LAN, so a
            # proxy-ack has no legitimate use here; with it on, a
            # childless member DR that rejoins over the link carrying
            # its primary address is proxy-acked and abandons its member
            # LAN (see perfbench/README.md, "Known defect").
            proxy_ack=False,
        ),
    )
}


def derive(seed: int, *labels: object) -> random.Random:
    """An independent random stream for one part of the load."""
    return random.Random(faults.derive_seed(seed, *labels))


def reference_loop() -> float:
    """Wall time of a fixed dict loop: a host-speed drift diagnostic."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(200_000):
        table[i & 4095] = table.get(i & 4095, 0) + i
    return time.perf_counter() - start


# -- the load -----------------------------------------------------------------


@dataclass
class Disruption:
    """Something that stops delivery to ``members`` of ``group`` at ``time``."""

    time: float
    group: int
    members: Tuple[str, ...]
    #: Delivery must be restored before this send time.
    until: float


@dataclass
class Load:
    """Everything the benchmark asks of the program in one repetition."""

    #: ``(time, host, group index, "join"|"leave")``.
    membership: List[Tuple[float, str, int, str]] = field(default_factory=list)
    #: ``(send time, group index, source host)``.
    packets: List[Tuple[float, int, str]] = field(default_factory=list)
    #: ``(time, group index, fault index)``; the target is chosen when it fires.
    faults: List[Tuple[float, int, int]] = field(default_factory=list)
    sources: List[str] = field(default_factory=list)
    #: When tree state, stretch and FIB size are sampled.
    steady_point: float = 0.0
    end: float = 0.0


def _stream(load: Load, group: int, source: str, start: float, end: float,
            interval: float) -> None:
    t = start
    while t < end:
        load.packets.append((t, group, source))
        t += interval


def make_load(spec: Spec, seed: int, hosts: Sequence[str]) -> Load:
    """The seeded membership, stream and fault schedule of one workload."""
    load = Load()
    hosts = sorted(hosts)
    # Sources are fixed per topology, not drawn from the seed: stretch is
    # measured from the source, and a source placed anew per seed would
    # swing it by a third between seeds.
    sources = derive(spec.topology_seed, "sources").sample(hosts, spec.groups)
    if spec.clients:
        source = sources[0]
        clients = sorted(derive(seed, "clients").sample(
            [h for h in hosts if h != source], spec.clients))
        start = SETTLE + 1.0
        crowd = generate_flash_crowd(
            clients,
            FlashCrowdConfig(
                ramp=8.0,
                hold=10.0,
                segment_spacing=spec.stream_interval,
                seed=faults.derive_seed(seed, "crowd"),
            ),
            start=start,
        )
        load.sources = [source]
        load.membership.append((SETTLE, source, 0, "join"))
        for event in crowd.schedule.events:
            load.membership.append((event.time, event.host, 0, event.action))
        load.packets = [(t, 0, source) for t in crowd.segments]
        load.steady_point = start + crowd.config.ramp + 1.0
        load.end = crowd.drain_time
        return load

    join_end = SETTLE + 6.0
    for g in range(spec.groups):
        rng = derive(seed, "members", g)
        source = sources[g]
        load.sources.append(source)
        load.membership.append((SETTLE, source, g, "join"))
        for host in rng.sample([h for h in hosts if h != source], spec.members - 1):
            load.membership.append(
                (SETTLE + 0.5 + rng.random() * 5.5, host, g, "join")
            )
    if not spec.faults_per_group:
        load.steady_point = join_end + 2.0 + spec.steady
        load.end = load.steady_point + 1.0
    else:
        fault_start = join_end + 4.0
        load.steady_point = fault_start - 0.5
        slot = spec.fault_spacing
        for g in range(spec.groups):
            rng = derive(seed, "faults", g)
            for k in range(spec.faults_per_group):
                at = fault_start + k * slot + g * slot / spec.groups + rng.random()
                load.faults.append((at, g, k))
        load.faults.sort()
        load.end = load.faults[-1][0] + slot
    for g, source in enumerate(load.sources):
        phase = derive(seed, "stream", g).random() * spec.stream_interval
        _stream(load, g, source, SETTLE + 0.5 + phase, load.end, spec.stream_interval)
    load.membership.sort()
    load.packets.sort()
    return load


# -- one repetition -------------------------------------------------------------


class Phases:
    """Wall-clock time of each named phase of the last set-up and the run."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def timed(self, name: str, action, *args):
        start = time.perf_counter()
        result = action(*args)
        self.seconds[name] = time.perf_counter() - start
        return result


@dataclass
class JoinClock:
    """Per-join latency from ``join_host`` to the DR holding tree state.

    Fed by the trace bus.  A join completes at the DR's ``joined``
    protocol event (its join-ack, or the primary core standing as
    root).  When the member's IGMP report reaches a DR that already
    holds tree state for the group, the join completes at that
    membership event.  When it reaches a DR that is relaying another
    router's join, the DR records no event of its own; the join then
    completes at the first trace record after the DR's FIB entry appears
    (one hop of the relayed ack later at most).
    """

    domain: object
    groups: List[object]
    #: ``(router, group index) -> (join time, host)``.
    waiting: Dict[Tuple[str, int], Tuple[float, str]] = field(default_factory=dict)
    #: Waiting DRs that were relaying a join when the report arrived.
    relaying: Dict[Tuple[str, int], object] = field(default_factory=dict)
    latencies: Dict[Tuple[str, int, float], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._group_index = {g: i for i, g in enumerate(self.groups)}

    def started(self, host: str, router: str, g: int, now: float) -> None:
        self.waiting[(router, g)] = (now, host)
        self.latencies[(host, g, now)] = math.inf

    def __call__(self, record) -> None:
        if self.relaying:
            for key, group in list(self.relaying.items()):
                if self.domain.protocols[key[0]].fib.get(group) is not None:
                    del self.relaying[key]
                    self._complete(key, record.time)
        if isinstance(record, MembershipEvent):
            if not record.present:
                return
            key = (record.router, self._group_index.get(record.group, -1))
            if key in self.waiting:
                protocol = self.domain.protocols[record.router]
                if protocol.fib.get(record.group) is not None:
                    self._complete(key, record.time)
                elif record.group in protocol.pending:
                    self.relaying[key] = record.group
        elif isinstance(record, ProtocolEvent) and record.kind == "joined":
            key = (record.router, self._group_index.get(record.group, -1))
            if key in self.waiting:
                self.relaying.pop(key, None)
                self._complete(key, record.time)

    def _complete(self, key, now: float) -> None:
        started, host = self.waiting.pop(key)
        self.latencies[(host, key[1], started)] = now - started


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries count as over every limit."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _host_router(network, host: str) -> str:
    link = network.host(host).interface.link
    return next(i.node.name for i in link.interfaces if i.node.name in network.routers)


class Repetition:
    """One build, run and check of a workload."""

    def __init__(self, name: str, seed: int, tracer=None) -> None:
        self.spec = SPECS[name]
        self.seed = seed
        #: A :class:`perfbench.tracer.Tracer` already installed, if any.
        self.tracer = tracer
        self.trace_marks: Dict[str, Dict[str, object]] = {}
        self.phases = Phases()
        self.errors: List[str] = []

    # -- setup --------------------------------------------------------------

    def build(self) -> None:
        spec = self.spec
        self.network = generators.waxman_network(
            spec.routers, alpha=spec.alpha, seed=spec.topology_seed
        )

    def bootstrap(self) -> None:
        network = self.network
        by_degree = sorted(
            network.routers, key=lambda n: (-len(network.routers[n].interfaces), n)
        )
        self.cores = by_degree[: self.spec.groups]
        self.domain = bootstrap.CBTDomain(
            network,
            timers=FAST_TIMERS,
            igmp_config=FAST_IGMP,
            enable_proxy_ack=self.spec.proxy_ack,
        )
        self.groups = [group_address(g) for g in range(self.spec.groups)]
        for group, core in zip(self.groups, self.cores):
            self.domain.create_group(group, cores=[core])
        self.domain.start()

    def _mark(self, name: str) -> None:
        if self.tracer is not None:
            self.trace_marks[name] = self.tracer.snapshot()

    def setup(self) -> List[float]:
        """Time ``spec.setups`` set-ups; the network of the last one runs."""
        samples = []
        self._mark("setup_start")
        for _ in range(self.spec.setups):
            self.network = self.domain = None
            gc.collect()
            start = time.perf_counter()
            self.phases.timed("build", self.build)
            self.phases.timed("bootstrap", self.bootstrap)
            samples.append(time.perf_counter() - start)
        self._mark("setup_end")
        return samples

    # -- run ----------------------------------------------------------------

    def _schedule(self) -> None:
        network, domain, load = self.network, self.domain, self.load
        scheduler = network.scheduler
        self.sent: List[Tuple[int, int, float]] = []
        self.windows: List[Dict[str, List[float]]] = [
            {} for _ in range(self.spec.groups)
        ]
        self.join_clock = JoinClock(domain, self.groups)
        network.telemetry.bus.subscribe(self.join_clock)
        for at, host, g, action in load.membership:
            scheduler.call_at(at, self._membership_action(host, g, action))
        for at, g, source in load.packets:
            scheduler.call_at(at, self._sender(g, source))
        for at, g, k in load.faults:
            scheduler.call_at(at, self._fault(g, k))
        scheduler.call_at(load.steady_point, self._sample_steady)

    def _membership_action(self, host: str, g: int, action: str):
        domain, group = self.domain, self.groups[g]
        scheduler = self.network.scheduler
        router = self.host_router[host]

        def act() -> None:
            now = scheduler.now
            if action == "join":
                self.windows[g][host] = [now, math.inf]
                self.join_clock.started(host, router, g, now)
                domain.join_host(host, group)
            else:
                self.windows[g][host][1] = now
                domain.leave_host(host, group)

        return act

    def _sender(self, g: int, source: str):
        host = self.network.host(source)
        group = self.groups[g]
        scheduler = self.network.scheduler

        def send() -> None:
            datagram = IPDatagram(
                src=host.interface.address,
                dst=group,
                proto=PROTO_UDP,
                payload=UDPDatagram(sport=40000, dport=5000, payload=b"x" * 64),
                ttl=64,
            )
            self.sent.append((datagram.uid, g, scheduler.now))
            host.originate(datagram)

        return send

    def _fault(self, g: int, k: int):
        """Hit group ``g``'s live tree: a link flap or a router crash.

        The kind comes from the seed; the target is drawn from the tree
        as it stands when the fault fires, preferring links and routers
        that carry no other group's tree, and never a core or a router
        serving a member or source.
        """
        spec = self.spec

        def fire() -> None:
            rng = derive(self.seed, "fault-target", g, k)
            kind = "crash" if rng.random() < 0.5 else "flap"
            now = self.network.scheduler.now
            # Routers still down from an earlier fault keep their frozen
            # tree state; they and their links are not targets.
            alive = {
                name
                for name, router in self.network.routers.items()
                if all(i.up for i in router.interfaces)
            }
            trees = [self._tree_links(i, alive) for i in range(spec.groups)]
            on_tree = [self._tree_routers(i) & alive for i in range(spec.groups)]
            event = None
            if kind == "crash":
                others = set().union(*(on_tree[i] for i in range(spec.groups) if i != g))
                candidates = sorted(on_tree[g] - self.protected - others)
                if candidates:
                    node = rng.choice(candidates)
                    event = faults.NodeOutage(at=now, node=node, duration=spec.fault_down)
                    hit = [i for i in range(spec.groups) if node in on_tree[i]]
            if event is None:
                others = set().union(*(trees[i] for i in range(spec.groups) if i != g))
                candidates = sorted(trees[g] - others) or sorted(trees[g])
                link = rng.choice(candidates)
                event = faults.LinkFlap(at=now, link=link, duration=spec.fault_down)
                hit = [i for i in range(spec.groups) if link in trees[i]]
            faults.FaultSchedule().add(event).apply(self.network)
            self.fault_log.append((now, type(event).__name__, hit))
            for i in hit:
                members = tuple(
                    sorted(
                        h
                        for h, (joined, left) in self.windows[i].items()
                        if joined + JOIN_MARGIN <= now < left
                        and h != self.load.sources[i]
                    )
                )
                # The group's next fault comes at least a slot minus one
                # second (the time jitter) later.
                self.disruptions.append(
                    Disruption(now, i, members, now + spec.fault_spacing - 1.0)
                )
                self.fault_windows[i].append((now - IN_FLIGHT, now + spec.fault_grace))

        return fire

    def _tree_routers(self, g: int) -> set:
        group = self.groups[g]
        return {
            name for name, p in self.domain.protocols.items() if p.fib.get(group) is not None
        }

    def _tree_links(self, g: int, alive: set) -> set:
        """Up links from a live on-tree router to its parent."""
        group = self.groups[g]
        links = set()
        for name in alive:
            entry = self.domain.protocols[name].fib.get(group)
            if entry is not None and entry.has_parent:
                link = self.network.routers[name].interfaces[entry.parent_vif].link
                if link.up:
                    links.add(link.name)
        return links

    def _sample_steady(self) -> None:
        self.steady_edges = [self.domain.tree_edges(g) for g in self.groups]
        self.steady_members = [
            sorted(h for h, (joined, left) in w.items() if left == math.inf)
            for w in self.windows
        ]
        self.fib_entries = self.domain.total_fib_state()

    def settle(self) -> None:
        self.network.run(until=SETTLE)

    def workload(self) -> None:
        self._schedule()
        self.network.run(until=self.load.end)

    def drain(self) -> None:
        self.network.run(until=self.load.end + self.spec.drain)

    def check(self) -> None:
        findings = [str(f) for f in audit.check_invariants(self.domain)]
        findings += list(conservation.check_conservation(self.network, self.domain))
        self.errors.extend(f"drain: {f}" for f in findings)

    def run(self) -> float:
        gc.collect()
        self._mark("run_start")
        start = time.perf_counter()
        for name in ("settle", "workload", "drain", "check"):
            self.phases.timed(name, getattr(self, name))
        run_s = time.perf_counter() - start
        self._mark("run_end")
        return run_s

    # -- outcome ------------------------------------------------------------

    def _outcome(self) -> Dict[str, float]:
        spec, load, network = self.spec, self.load, self.network
        received = {
            host: Counter(d.uid for d in network.host(host).delivered)
            for w in self.windows
            for host in w
        }
        by_group: List[List[Tuple[float, int]]] = [[] for _ in range(spec.groups)]
        for uid, g, at in self.sent:
            by_group[g].append((at, uid))

        expected = exact = missing = duplicate = 0
        for g, windows in enumerate(self.windows):
            blackout = self.fault_windows[g]
            for host, (joined, left) in windows.items():
                if host == load.sources[g]:
                    continue
                counts = received[host]
                for at, uid in by_group[g]:
                    if not joined + JOIN_MARGIN <= at <= left - LEAVE_MARGIN:
                        continue
                    if any(lo <= at < hi for lo, hi in blackout):
                        continue
                    expected += 1
                    copies = counts.get(uid, 0)
                    if copies == 1:
                        exact += 1
                    elif copies == 0:
                        missing += 1
                    else:
                        duplicate += 1
        if missing or duplicate:
            self.errors.append(
                f"delivery: {missing} missing and {duplicate} duplicate pairs "
                f"of {expected}"
            )

        joins = list(self.join_clock.latencies.values())
        unfinished = sum(1 for v in joins if v == math.inf)
        if unfinished:
            self.errors.append(f"joins: {unfinished} of {len(joins)} never completed")

        disruptions = self.disruptions or [
            Disruption(joined, g, (host,), left - LEAVE_MARGIN)
            for g, windows in enumerate(self.windows)
            for host, (joined, left) in windows.items()
            if host != load.sources[g]
        ]
        recoveries = [self._recovery(d, by_group[d.group], received) for d in disruptions]
        stuck = sum(1 for r in recoveries if r == math.inf)
        if stuck:
            self.errors.append(
                f"recovery: delivery never restored after {stuck} of "
                f"{len(recoveries)} disruptions"
            )

        graph = network_graph(network)
        ratios: List[float] = []
        for g, edges in enumerate(self.steady_edges):
            tree = Tree(graph=graph, root=self.cores[g])
            for child, parent in edges:
                tree.edges.add((child, parent) if child <= parent else (parent, child))
            source = self.host_router[load.sources[g]]
            members = sorted(
                {self.host_router[h] for h in self.steady_members[g]} - {source}
            )
            ratios.extend(delay_stretch(graph, tree, source, members).values())

        return {
            "delivery_ratio": exact / expected if expected else 0.0,
            "control_msgs": self.domain.control_messages_sent(),
            "join_p50_ms": percentile(joins, 0.50) * 1000.0,
            "join_p90_ms": percentile(joins, 0.90) * 1000.0,
            "fib_entries": self.fib_entries,
            "stretch_mean": sum(ratios) / len(ratios),
            "recovery_p50_s": percentile(recoveries, 0.50),
            "engine.events": network.scheduler.events_processed,
            "engine.scheduled": network.scheduler.events_scheduled,
            "engine.cancelled": network.scheduler.events_cancelled,
            "joins": len(joins),
            "pairs": expected,
            "failed": missing + duplicate + unfinished + stuck,
            "attempted": expected + len(joins) + len(recoveries),
            "recovery_samples": len(recoveries),
        }

    @staticmethod
    def _recovery(d: Disruption, packets: List[Tuple[float, int]], received) -> float:
        """Send time of the first packet after which every packet of the
        group up to ``d.until`` reached all of ``d.members``, minus the
        disruption time."""
        restored = math.inf
        for at, uid in packets:
            if at < d.time or at >= d.until:
                continue
            if all(received[m].get(uid, 0) for m in d.members):
                if restored == math.inf:
                    restored = at
            else:
                restored = math.inf
        return restored - d.time

    # -- the whole repetition ---------------------------------------------------

    def execute(self) -> Dict[str, object]:
        """Set up, run and check; returns the repetition's record."""
        ref_before = reference_loop()
        setup_samples = self.setup()
        network = self.network
        self.host_router = {h: _host_router(network, h) for h in network.hosts}
        self.load = make_load(self.spec, self.seed, sorted(network.hosts))
        self.protected = set(self.cores) | {
            self.host_router[h] for _t, h, _g, _a in self.load.membership
        }
        self.disruptions: List[Disruption] = []
        self.fault_windows: List[List[Tuple[float, float]]] = [
            [] for _ in range(self.spec.groups)
        ]
        self.fault_log: List[Tuple[float, str, List[int]]] = []
        run_s = self.run()
        ref_after = reference_loop()
        outcome = self._outcome()
        return {
            "workload": self.spec.name,
            "seed": self.seed,
            "setup_s": setup_samples,
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "phases": dict(self.phases.seconds),
            "links": sum(1 for link in network.links.values() if len(link.interfaces) == 2
                         and all(i.node.name in network.routers for i in link.interfaces)),
            "outcome": outcome,
            "faults": [(round(t, 6), kind, hit) for t, kind, hit in self.fault_log],
            "errors": list(self.errors),
            "ref_loop_before_s": ref_before,
            "ref_loop_after_s": ref_after,
        }
