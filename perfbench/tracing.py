"""Outside-in layer tracing: time the calls into each layer's public API.

:meth:`LayerTracer.install` replaces the public methods and functions named
in :data:`TIMED` and :data:`COUNTED` with thin wrappers, from outside the
package: nothing under ``src/repro`` changes.  Each timed wrapper keeps a
span's call count, inclusive time and self time (inclusive minus the time
of the timed spans it encloses), so the self times of all spans plus an
explicit ``other`` remainder partition the traced wall time.

Install before any simulation is built, in a process that only runs the
traced repetition: wrappers stay installed until the interpreter exits.
"""

from __future__ import annotations

import importlib
import sys
import time

#: span name -> public calls it times, as ``(module, "Class.method")`` or
#: ``(module, "function")``.  Subclass overrides of a method are timed
#: under the same span; a call nested in a same-span call (``super()``)
#: is not counted twice.
TIMED = {
    "apps.step": (("repro.apps.base", "Application.step"),),
    "kernel.tick": (("repro.kernel.kernel", "Kernel.tick"),),
    "kernel.scheduler": (("repro.kernel.scheduler", "Scheduler.run_tick"),),
    "kernel.gpu": (("repro.kernel.gpu", "GpuDevice.run_tick"),),
    "kernel.cpufreq": (("repro.kernel.cpufreq.governors", "FreqGovernor.update"),),
    "kernel.zones": (("repro.kernel.thermal.zone", "ThermalZone.poll"),),
    "kernel.cpuidle": (("repro.kernel.cpuidle", "ClusterIdleGovernor.update"),),
    "core.governor": (("repro.core.governor", "ApplicationAwareGovernor.run"),),
    "soc.power_model": (("repro.soc.power_model", "SocPowerModel.rail_powers"),),
    "sim.power_stage": (("repro.sim.power_stage", "PowerStage.assemble"),),
    "sim.trace_record": (("repro.sim.trace", "TraceRecorder.record"),),
    "thermal.step": (("repro.thermal.model", "ThermalModel.step"),),
    "power.daq": (("repro.power.daq", "PowerDaq.capture"),),
    "power.energy": (("repro.power.energy", "EnergyMeter.accumulate"),),
    "power.sensors": (("repro.kernel.kernel", "Kernel.update_power_readings"),),
    "sim.run": (("repro.sim.engine", "Simulation.run"),),
    "campaign.runner": (("repro.campaign.runner", "CampaignRunner.run"),),
    "campaign.scenario": (("repro.sim.experiment", "Scenario.run_instrumented"),),
    "campaign.store_save": (("repro.campaign.store", "ResultStore.save"),),
    "obs.snapshot": (("repro.obs.metrics", "MetricsRegistry.snapshot"),),
    "obs.aggregate": (
        ("repro.obs.telemetry.aggregate", "CampaignAggregator.ingest"),
        ("repro.obs.telemetry.aggregate", "CampaignAggregator.aggregate"),
    ),
    "analysis.breakdown": (("repro.analysis.breakdown", "breakdown_from_traces"),),
    "calib.excite": (("repro.calib.excite", "run_excitation"),),
    "calib.degrade": (("repro.calib.degrade", "DegradationModel.apply"),),
    "calib.fit": (("repro.calib.assemble", "fit_platform"),),
}

#: counter name -> (public call counted, span it must run inside or None).
COUNTED = {
    "soc.opp.index_of": (("repro.soc.opp", "OppTable.index_of"), None),
    "core.fixed_point_evals": (
        ("repro.core.stability", "FixedPointFunction.__call__"), "core.governor",
    ),
    "experiments.run_app": (("repro.experiments.nexus", "run_app"), None),
}

#: Modules that define subclasses of the traced classes; imported before
#: patching so every override is found.
SUBCLASS_MODULES = (
    "repro.apps.frames", "repro.apps.gfxbench", "repro.apps.mibench",
    "repro.apps.replay",
)


class Span:
    """Call count and time totals of one traced layer boundary."""

    __slots__ = ("calls", "total_ns", "self_ns", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.active = False


class LayerTracer:
    """Installs the wrappers and holds the spans and counters they fill."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {name: Span() for name in TIMED}
        self.counters: dict[str, Span] = {name: Span() for name in COUNTED}
        #: Child-time accumulators of the open timed spans, innermost last.
        self._stack: list[int] = []

    # ------------------------------------------------------------ wrappers

    def _timed(self, span: Span, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if span.active:
                return fn(*args, **kwargs)
            span.active = True
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                span.calls += 1
                span.total_ns += elapsed
                span.self_ns += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.active = False

        return wrapper

    def _counted(self, counter: Span, fn, inside: Span | None):
        if inside is None:
            def wrapper(*args, **kwargs):
                counter.calls += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                if inside.active:
                    counter.calls += 1
                return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------- install

    def _patch(self, module_name: str, target: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." not in target:
            original = getattr(module, target)
            wrapped = make(original)
            # Rebind every imported alias too (``from x import f``).
            for mod in list(sys.modules.values()):
                for attr, value in list(getattr(mod, "__dict__", {}).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
            return
        cls_name, method = target.split(".")
        base = getattr(module, cls_name)
        todo = [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if method in cls.__dict__:
                setattr(cls, method, make(cls.__dict__[method]))

    def install(self) -> None:
        """Wrap every call in :data:`TIMED` and :data:`COUNTED`."""
        for name in SUBCLASS_MODULES:
            importlib.import_module(name)
        for name, targets in TIMED.items():
            span = self.spans[name]
            for module_name, target in targets:
                self._patch(module_name, target, lambda fn, s=span: self._timed(s, fn))
        for name, ((module_name, target), inside) in COUNTED.items():
            counter = self.counters[name]
            inside_span = None if inside is None else self.spans[inside]
            self._patch(
                module_name, target,
                lambda fn, c=counter, i=inside_span: self._counted(c, fn, i),
            )

    # ------------------------------------------------------------- results

    def snapshot(self) -> dict:
        """JSON-native totals: ``{"spans": {...}, "counters": {...}}``."""
        return {
            "spans": {
                name: {"calls": s.calls, "total_ns": s.total_ns, "self_ns": s.self_ns}
                for name, s in self.spans.items()
            },
            "counters": {name: c.calls for name, c in self.counters.items()},
        }
