"""The probe bus: subscription, answers, and the four subscribers."""

from pathlib import Path

import pytest

import repro.probe
from repro.analyze.checkers.hooks import load_sites
from repro.config import PAGE_SIZE
from repro.faults import FAULTS, FaultError, FaultPlan
from repro.observability.profile import PROFILER
from repro.observability.trace import TRACER
from repro.probe import PROBES, SITES, ProbeBus
from repro.sanitize.invariants import SANITIZE


class TestBus:
    def test_off_with_no_subscribers(self):
        bus = ProbeBus()
        assert bus.on is False
        assert bus.fire("kernel.mmap_bind") is None
        assert bus.push("gc.minor") is None
        bus.pop(None)  # no-op

    def test_on_tracks_subscription(self):
        bus = ProbeBus()
        handler = lambda site, ctx: None  # noqa: E731
        bus.subscribe(handler)
        bus.subscribe(handler)  # idempotent
        assert bus.on is True
        bus.unsubscribe(handler)
        assert bus.on is False
        bus.unsubscribe(handler)  # no-op

    def test_fire_returns_first_non_none_answer(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe(lambda site, ctx: seen.append(("a", site, ctx)))
        bus.subscribe(lambda site, ctx: "stale")
        bus.subscribe(lambda site, ctx: "exhaust")
        assert bus.fire("monitor.sample", round=3) == "stale"
        assert seen == [("a", "monitor.sample", {"round": 3})]

    def test_subscriber_exception_propagates(self):
        bus = ProbeBus()

        def boom(site, ctx):
            raise FaultError(site)

        bus.subscribe(boom)
        with pytest.raises(FaultError, match="runtime.alloc"):
            bus.fire("runtime.alloc")

    def test_spans_and_events_reach_the_recorder_only_while_recording(self):
        bus = ProbeBus()
        calls = []

        class Recorder:
            def push(self, name, **attrs):
                calls.append(("push", name))
                return [name]

            def pop(self, frame, **attrs):
                calls.append(("pop", frame[0]))

            def event(self, name, **attrs):
                calls.append(("event", name))

        recorder = Recorder()
        bus.record(recorder, events=False, spans=True)
        assert bus.on is False  # spans alone do not arm fire/event sites
        frame = bus.push("gc.full")
        bus.record(recorder, events=False, spans=False)
        bus.pop(frame)  # a frame handed out earlier still closes
        bus.event("kernel.mbind")  # not recording events: dropped
        assert calls == [("push", "gc.full"), ("pop", "gc.full")]


class TestSites:
    def test_every_site_names_its_firing_functions(self):
        owners = load_sites(Path(repro.probe.__file__))
        assert set(owners) == set(SITES)
        for site, (_owners, meaning) in SITES.items():
            assert meaning, site
            for owner in owners[site]:
                module, _, qualname = owner.partition("::")
                assert module.startswith("repro.") and qualname, owner


class TestSubscribers:
    def test_singletons_leave_the_bus_off(self):
        assert not (TRACER.enabled or PROFILER.enabled
                    or SANITIZE.active or FAULTS.active)
        assert PROBES.on is False

    def test_uninstall_unsubscribes_when_the_body_raised(self):
        with pytest.raises(RuntimeError):
            with FAULTS.installed(FaultPlan()):
                assert PROBES.on
                raise RuntimeError("boom")
        with pytest.raises(RuntimeError):
            with SANITIZE.installed():
                assert PROBES.on
                raise RuntimeError("boom")
        assert PROBES.on is False
        assert PROBES.fire("kernel.mmap_bind") is None

    def test_faults_and_sanitizer_both_see_one_mmap_bind(self, kernel):
        process = kernel.create_process()
        with FAULTS.installed(FaultPlan().add("kernel.munmap")), \
                SANITIZE.installed():
            checks = SANITIZE.checks_run
            kernel.mmap_bind(process, 0x10000, PAGE_SIZE, node_id=1)
            assert FAULTS.arrivals("kernel.mmap_bind") == 1
            assert FAULTS.arrivals("kernel.mmap_bind.done") == 1
            # kernel laws + machine laws, swept once after the bind
            assert SANITIZE.checks_run == checks + 2
            assert SANITIZE.violations == []

    def test_tracer_and_profiler_subscribe_while_switched_on(self):
        with TRACER.capture():
            assert PROBES.on
        assert PROBES.on is False
        PROFILER.enable()
        try:
            assert PROBES.on
        finally:
            PROFILER.disable()
        assert PROBES.on is False
