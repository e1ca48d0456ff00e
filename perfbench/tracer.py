"""Layer spans for the traced benchmark run, recorded from outside.

:func:`install` wraps the public methods at each layer boundary of the
program -- the calls the benchmark and the layers make into each other --
and records a span for every call: name, start, end and parent span,
all in memory.  A span's self time is its duration minus the time its
child spans cover, so the self times of all spans in an interval plus
the time no span covers add up to the interval.  Nothing in the program
is edited; the wrappers are removed again by the function ``install``
returns.

The boundaries, by layer (the layer is the part of a span name before
the first dot):

* ``topology`` -- ``generators.waxman_network``;
* ``engine`` -- ``Scheduler.run``, ``call_at``, ``call_later`` and
  ``Timer.cancel``; every callback handed to ``call_at`` is wrapped too
  and its span is named after the module that owns it (``cbt.timer``,
  ``igmp.timer`` ...), which is how keepalive ticks are attributed;
* ``link`` -- ``Link.transmit``, ``deliver`` and ``deliver_batch``;
* ``cbt`` and ``igmp`` -- every handler registered with
  ``Node.register_handler``, named by the module that owns it;
* ``dataplane`` -- ``DataPlane.forward_multicast``, ``handle_cbt_unicast``,
  ``handle_ipip`` and ``intercept_unicast``;
* ``fib`` -- ``FIB.get_or_create`` and ``FIB.remove``;
* ``routing`` -- ``RoutingTable.lookup`` and ``LinkStateRouting.recompute``;
* ``telemetry`` -- ``TraceBus.publish`` and ``MetricsRegistry.total``;
* ``verify`` -- ``audit.check_invariants`` and
  ``conservation.check_conservation``.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

from repro.core import audit
from repro.core.fib import FIB
from repro.core.forwarding import DataPlane
from repro.igmp.messages import MembershipQuery
from repro.netsim.engine import PeriodicTimer, Scheduler, Timer
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import PROTO_IGMP
from repro.routing.linkstate import LinkStateRouting
from repro.routing.table import RoutingTable
from repro.telemetry import conservation
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracebus import TraceBus
from repro.topology import generators

#: Owning-module prefix -> layer, most specific first.
MODULE_LAYERS = (
    ("repro.core.forwarding", "dataplane"),
    ("repro.core.fib", "fib"),
    ("repro.core.audit", "verify"),
    ("repro.core", "cbt"),
    ("repro.igmp", "igmp"),
    ("repro.netsim.link", "link"),
    ("repro.netsim.engine", "engine"),
    ("repro.netsim.faults", "faults"),
    ("repro.routing", "routing"),
    ("repro.telemetry.conservation", "verify"),
    ("repro.telemetry", "telemetry"),
    ("repro.topology", "topology"),
)


def layer_of(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "workload"


def owner_module(callback) -> str:
    """Module owning a scheduled callback or a registered handler."""
    target = getattr(callback, "__self__", None)
    if isinstance(target, PeriodicTimer):
        callback = target._callback
        target = getattr(callback, "__self__", None)
    fn = getattr(callback, "_fn", None)
    if fn is not None:  # a bare function adapted by Node.register_handler
        return owner_module(fn)
    if target is not None:
        return type(target).__module__
    return getattr(callback, "__module__", None) or type(callback).__module__


class Tracer:
    """In-memory span recorder with online self-time accounting."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: List[list] = []
        self.self_s: List[float] = []
        #: Counts taken at the boundaries (drops, copies, ...).
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
        return nid

    def open(self, nid: int) -> list:
        stack = self._stack
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        frame = [index, 0.0, 0.0, nid]
        stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        frame[1] = start
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        self.span_end[frame[0]] = end
        nid = frame[3]
        self.self_s[nid] += duration - frame[2]
        if stack:
            stack[-1][2] += duration

    def current_layer(self) -> Optional[str]:
        if not self._stack:
            return None
        return self.names[self._stack[-1][3]].split(".", 1)[0]

    def snapshot(self) -> Dict[str, object]:
        """Copy of the accumulators (taken between phases, no span open)."""
        if self._stack:
            raise RuntimeError("snapshot taken inside an open span")
        return {
            "self_s": dict(zip(self.names, self.self_s)),
            "counts": dict(self.counts),
            "spans": len(self.span_start),
        }

    def write(self, prefix: str) -> None:
        """Write the spans: ``prefix.json`` describes ``prefix.bin``."""
        columns = [
            ("name", self.span_name),
            ("start", self.span_start),
            ("end", self.span_end),
            ("parent", self.span_parent),
        ]
        with open(prefix + ".bin", "wb") as fh:
            for _name, column in columns:
                column.tofile(fh)
        header = {
            "run_id": self.run_id,
            "spans": len(self.span_start),
            "names": self.names,
            "columns": [[name, column.typecode] for name, column in columns],
            "clock": "time.perf_counter seconds",
        }
        with open(prefix + ".json", "w") as fh:
            json.dump(header, fh, indent=1)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        """``fn`` recorded as span ``name``.

        ``before(args)`` runs first and its result is passed to
        ``after(args, state)`` once the call returns; both feed the
        boundary counts and run outside the span.
        """
        nid = self.name_id(name)
        open_, close = self.open, self.close

        if before is None and after is None:

            def traced(*args, **kwargs):
                frame = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame)

        else:

            def traced(*args, **kwargs):
                state = before(args) if before is not None else None
                frame = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame)
                    if after is not None:
                        after(args, state)

        traced.__wrapped__ = fn
        traced.perfbench_traced = True
        return traced

    def wrap_callback(self, callback: Callable) -> Callable:
        if getattr(callback, "perfbench_traced", False):
            return callback
        module = owner_module(callback)
        if module == "repro.netsim.link":
            return callback  # a delivery: Link.deliver spans cover it
        return self.wrap(callback, layer_of(module) + ".timer")


class _TracedHandler:
    """A registered protocol handler, recorded as a span."""

    def __init__(self, tracer: Tracer, handler) -> None:
        layer = layer_of(owner_module(handler))
        self.layer = layer
        self._handle = tracer.wrap(handler.handle, layer + ".handle")
        self._tracer = tracer

    def handle(self, node, interface, datagram) -> None:
        counts = self._tracer.counts
        counts[self.layer + ".rx"] += 1
        if self.layer == "cbt":
            inner = getattr(datagram.payload, "payload", None)
            if getattr(inner, "msg_type", None) is not None:
                counts["cbt.ctl_rx"] += 1
        self._handle(node, interface, datagram)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary; returns a function that unwraps them."""
    saved = []
    counts = tracer.counts

    def patch(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def method(owner, attr: str, name: str, before=None, after=None) -> None:
        patch(owner, attr, tracer.wrap(owner.__dict__[attr], name, before, after))

    # engine
    call_at = tracer.wrap(Scheduler.__dict__["call_at"], "engine.call_at")

    def traced_call_at(self, time, callback, tag=None):
        return call_at(self, time, tracer.wrap_callback(callback), tag)

    patch(Scheduler, "call_at", traced_call_at)
    method(Scheduler, "call_later", "engine.call_later")
    method(Scheduler, "run", "engine.run")
    method(Timer, "cancel", "engine.cancel")

    # link
    def transmit_before(args):
        link, datagram = args[0], args[2]
        counts["link.transmits"] += 1
        if tracer.current_layer() == "dataplane":
            counts["dataplane.copies"] += 1
        if isinstance(datagram.payload, MembershipQuery):
            counts["igmp.queries_tx"] += 1
        return link.tx_count

    def transmit_after(args, tx_before):
        if args[0].tx_count == tx_before:  # dropped before the wire
            counts["link.tx_drops"] += 1

    def deliver_before(args):
        link, receiver = args[0], args[1]
        counts["link.deliveries"] += 1
        if not (link.up and receiver._up):  # went down in flight
            counts["link.rx_drops"] += 1

    method(Link, "transmit", "link.transmit", transmit_before, transmit_after)
    method(Link, "deliver", "link.deliver", deliver_before)
    method(Link, "deliver_batch", "link.deliver_batch")

    # protocol handlers (cbt, igmp)
    register = Node.__dict__["register_handler"]

    def traced_register(self, proto, handler):
        register(self, proto, handler)
        self._handlers[proto] = _TracedHandler(tracer, self._handlers[proto])

    patch(Node, "register_handler", traced_register)

    # dataplane and fib
    def count(key):
        def before(args):
            counts[key] += 1

        return before

    def forward_before(args):
        if args[3].proto != PROTO_IGMP:  # IGMP reports to the group return at once
            counts["dataplane.packets"] += 1

    method(DataPlane, "forward_multicast", "dataplane.forward_multicast", forward_before)
    # Tree forwarding between CBT routers arrives as CBT-mode unicast
    # (or IP-in-IP), dispatched to the data plane by the CBT handler.
    method(DataPlane, "handle_cbt_unicast", "dataplane.handle_cbt_unicast",
           count("dataplane.packets"))
    method(DataPlane, "handle_ipip", "dataplane.handle_ipip", count("dataplane.packets"))
    method(DataPlane, "intercept_unicast", "dataplane.intercept_unicast")

    def fib_before(args):
        return len(args[0])

    def fib_after(args, size):
        if len(args[0]) != size:
            counts["fib.writes"] += 1

    method(FIB, "get_or_create", "fib.get_or_create", fib_before, fib_after)
    method(FIB, "remove", "fib.remove", fib_before, fib_after)

    # routing
    method(RoutingTable, "lookup", "routing.lookup", count("routing.lookups"))
    method(LinkStateRouting, "recompute", "routing.recompute",
           count("routing.recomputes"))

    # telemetry
    method(TraceBus, "publish", "telemetry.publish", count("telemetry.publishes"))
    method(MetricsRegistry, "total", "telemetry.total",
           count("telemetry.registry_scans"))

    # verify and topology: module functions the benchmark calls
    patch(audit, "check_invariants",
          tracer.wrap(audit.check_invariants, "verify.check_invariants"))
    patch(conservation, "check_conservation",
          tracer.wrap(conservation.check_conservation, "verify.check_conservation"))
    patch(generators, "waxman_network",
          tracer.wrap(generators.waxman_network, "topology.waxman_network"))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return uninstall


def layer_metrics(start: Dict, end: Dict, wall: float) -> Dict[str, float]:
    """Per-layer self times and boundary counts between two snapshots
    that bracket ``wall`` seconds."""

    def delta(kind: str, name: str) -> float:
        return end[kind].get(name, 0) - start[kind].get(name, 0)

    def self_of(*prefixes: str) -> float:
        return sum(
            delta("self_s", name)
            for name in end["self_s"]
            if name.startswith(prefixes)
        )

    c = {key: delta("counts", key) for key in end["counts"]}
    total_self = sum(delta("self_s", name) for name in end["self_s"])
    transmits = c.get("link.transmits", 0)
    packets = c.get("dataplane.packets", 0)
    on_wire = transmits - c.get("link.tx_drops", 0)
    return {
        "engine.self_s": self_of("engine."),
        "link.transmits": transmits,
        "link.deliveries": c.get("link.deliveries", 0),
        "link.drops": c.get("link.tx_drops", 0) + c.get("link.rx_drops", 0),
        "link.fanout": c.get("link.deliveries", 0) / on_wire if on_wire else 0.0,
        "link.self_s": self_of("link."),
        "routing.lookups": c.get("routing.lookups", 0),
        "routing.lookup_s": self_of("routing.lookup"),
        "routing.recomputes": c.get("routing.recomputes", 0),
        "routing.recompute_s": self_of("routing.recompute"),
        "cbt.ctl_rx": c.get("cbt.ctl_rx", 0),
        "cbt.ctl_s": self_of("cbt.handle"),
        "cbt.tick_s": self_of("cbt.timer"),
        "fib.writes": c.get("fib.writes", 0),
        "igmp.rx": c.get("igmp.rx", 0),
        "igmp.s": self_of("igmp."),
        "igmp.queries_tx": c.get("igmp.queries_tx", 0),
        "dataplane.packets": packets,
        "dataplane.copies_per_packet": (
            c.get("dataplane.copies", 0) / packets if packets else 0.0
        ),
        "dataplane.s": self_of("dataplane."),
        "telemetry.publishes": c.get("telemetry.publishes", 0),
        "telemetry.publish_s": self_of("telemetry.publish"),
        "telemetry.registry_scans": c.get("telemetry.registry_scans", 0),
        "telemetry.scan_s": self_of("telemetry.total"),
        "verify.s": self_of("verify."),
        "trace.self_sum_s": total_self,
        "trace.untracked_s": wall - total_self,
        "trace.spans": end["spans"] - start["spans"],
    }
