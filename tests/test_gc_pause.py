"""The event loop and network set-up run with cyclic GC paused.

``Scheduler.run``, ``realise`` and ``CBTDomain`` suspend CPython's
automatic collector (``repro.netsim.engine.gc_paused``).  Two things
make that sound, and both are pinned here:

* the caller's collector state always comes back — after a normal
  return, after an exception, when the caller had already disabled
  collection, and across nested runs;
* a run creates no cyclic garbage, so nothing piles up while
  collection is off.
"""

import gc
from collections import Counter

import pytest

from repro import CBTDomain, build_figure1, group_address
from repro.harness.scenarios import FAST_IGMP, FAST_TIMERS, send_data
from repro.netsim.engine import Scheduler, gc_paused
from repro.netsim.faults import FaultSchedule, LinkFlap, NodeOutage
from repro.topology import generators


@pytest.fixture
def gc_state():
    """Restore the collector's state whatever a test does to it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestGcPaused:
    def test_disables_inside_and_restores(self, gc_state):
        gc.enable()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_after_exception(self, gc_state):
        gc.enable()
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_leaves_disabled_collector_disabled(self, gc_state):
        gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_keeps_outer_state(self, gc_state):
        gc.enable()
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


class TestSchedulerRunRestoresGc:
    def test_collection_paused_during_callbacks(self, gc_state):
        gc.enable()
        sched = Scheduler()
        seen = []
        sched.call_later(1.0, lambda: seen.append(gc.isenabled()))
        sched.run_until_idle()
        assert seen == [False]
        assert gc.isenabled()

    def test_restored_when_callback_raises(self, gc_state):
        gc.enable()
        sched = Scheduler()

        def boom():
            raise RuntimeError("callback failed")

        sched.call_later(1.0, boom)
        with pytest.raises(RuntimeError):
            sched.run_until_idle()
        assert gc.isenabled()

    def test_restored_when_runaway_guard_trips(self, gc_state):
        gc.enable()
        sched = Scheduler()

        def again():
            sched.call_later(0.1, again)

        again()
        with pytest.raises(Exception, match="max_events"):
            sched.run(max_events=5)
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, gc_state):
        gc.disable()
        sched = Scheduler()
        sched.call_later(1.0, lambda: None)
        sched.run_until_idle()
        assert not gc.isenabled()

    def test_nested_run_keeps_outer_state(self, gc_state):
        gc.enable()
        outer = Scheduler()
        inner = Scheduler()
        seen = []
        inner.call_later(1.0, lambda: seen.append(("inner", gc.isenabled())))

        def nested():
            inner.run_until_idle()
            seen.append(("outer after inner", gc.isenabled()))

        outer.call_later(1.0, nested)
        outer.run_until_idle()
        assert seen == [("inner", False), ("outer after inner", False)]
        assert gc.isenabled()


class TestSetupRestoresGc:
    def test_realise(self, gc_state):
        gc.enable()
        generators.grid_network(2, 2)
        assert gc.isenabled()
        gc.disable()
        generators.grid_network(2, 2)
        assert not gc.isenabled()

    def test_cbt_domain_init_and_start(self, gc_state):
        net = build_figure1()
        gc.enable()
        domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        assert gc.isenabled()
        domain.start()
        assert gc.isenabled()
        gc.disable()
        domain = CBTDomain(build_figure1(), timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        domain.start()
        assert not gc.isenabled()

    def test_realise_restores_after_exception(self, gc_state, monkeypatch):
        gc.enable()

        def broken(self):
            raise RuntimeError("converge failed")

        monkeypatch.setattr(generators.Network, "converge", broken)
        with pytest.raises(RuntimeError):
            generators.grid_network(2, 2)
        assert gc.isenabled()


def _cyclic_garbage(drive) -> list:
    """Objects only the cyclic collector could free, left by ``drive()``
    run with collection paused (garbage from before it is collected
    first, so only the run is measured)."""
    gc.collect()
    saved_debug = gc.get_debug()
    with gc_paused():
        drive()
        gc.set_debug(saved_debug | gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = list(gc.garbage)
        finally:
            gc.set_debug(saved_debug)
            gc.garbage.clear()
    return found


def _describe(objects: list) -> Counter:
    return Counter(
        getattr(obj, "__qualname__", type(obj).__name__) for obj in objects
    )


class TestRunsLeaveNoCyclicGarbage:
    def test_figure1_join_leave_stream(self):
        net = build_figure1()
        domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        group = group_address(0)
        domain.create_group(group, cores=["R4", "R9"])
        domain.start()
        net.run(until=3.0)

        def drive():
            for index, member in enumerate(["A", "B", "G", "H"]):
                net.scheduler.call_at(
                    3.0 + 0.05 * index,
                    (lambda m: (lambda: domain.join_host(m, group)))(member),
                )
            net.run(until=7.0)
            send_data(net, "H", group, count=5)
            domain.leave_host("B", group)
            net.run(until=net.scheduler.now + 10.0)
            send_data(net, "A", group, count=5)

        garbage = _cyclic_garbage(drive)
        assert not garbage, _describe(garbage)

    def test_waxman_with_link_flap_and_node_outage(self):
        net = generators.waxman_network(50, seed=3)
        domain = CBTDomain(net, timers=FAST_TIMERS, igmp_config=FAST_IGMP)
        group = group_address(0)
        hosts = sorted(net.hosts)
        core = sorted(net.routers)[0]
        domain.create_group(group, cores=[core])
        domain.start()
        net.run(until=3.0)
        members = hosts[1::6]
        for member in members:
            domain.join_host(member, group)
        net.run(until=8.0)
        # Fault the live tree: the parent link of a member's router and
        # a transit router that is neither core nor a member's router.
        member_routers = {_attached_router(net, member) for member in members}
        edges = domain.tree_edges(group)
        assert edges, "the group never built a tree"
        child, parent = next((c, p) for c, p in edges if c in member_routers)
        link = _link_between(net, child, parent)
        transit = next(
            (c for c, _p in edges if c not in member_routers and c != core),
            parent if parent != core else child,
        )
        # Both faults outlast the echo timeout, so routers below them
        # lose their parent and rejoin through the retry timers.
        faults = FaultSchedule()
        faults.add(LinkFlap(at=9.0, link=link, duration=12.0))
        faults.add(NodeOutage(at=24.0, node=transit, duration=12.0))
        registry = net.scheduler.telemetry.registry
        rejoins_before = registry.total("cbt.router.*.event.rejoined")

        def drive():
            faults.apply(net)
            send_data(net, members[0], group, count=3)
            net.run(until=60.0)
            send_data(net, members[-1], group, count=3)

        garbage = _cyclic_garbage(drive)
        assert [t for t, _d in faults.applied] == [9.0, 21.0, 24.0, 36.0]
        assert registry.total("cbt.router.*.event.rejoined") > rejoins_before
        assert not garbage, _describe(garbage)


def _attached_router(net, host: str) -> str:
    link = net.host(host).interface.link
    return next(i.node.name for i in link.interfaces if i.node.name in net.routers)


def _link_between(net, a: str, b: str) -> str:
    for name, link in net.links.items():
        ends = {i.node.name for i in link.interfaces}
        if ends == {a, b}:
            return name
    raise AssertionError(f"no link between {a} and {b}")
