"""Per-component power models: dynamic CV^2 f plus temperature-driven leakage.

Power is the coupling variable of the whole reproduction: the kernel decides
frequencies, the scheduler decides utilisations, this module turns both plus
the current temperatures into per-rail watts, and the thermal model turns
watts back into temperatures.  The leakage term is what creates the
positive feedback loop the paper's stability analysis (Section IV.A) studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.soc.components import ClusterSpec, GpuSpec, LeakageParams, MemorySpec

#: Weights of the CPU/GPU → DRAM activity proxy.  One definition: the
#: engine applies it per tick and the calibration pipeline inverts it from
#: logged busy channels, so the constants must never drift apart.
MEM_ACTIVITY_CPU_WEIGHT = 0.25
MEM_ACTIVITY_GPU_WEIGHT = 0.6


def memory_activity_proxy(busy_cores, total_cores: int, gpu_busy):
    """DRAM activity in [0, 1] from CPU busy-cores and GPU busy fraction.

    ``act = min(1, 0.25 * busy_cores / total_cores + 0.6 * gpu_busy)`` — a
    modelling assumption standing in for DRAM event counters.  Accepts
    scalars (the engine's per-tick path) or numpy arrays (the calibration
    fit over whole trace channels).
    """
    act = (
        MEM_ACTIVITY_CPU_WEIGHT * busy_cores / max(total_cores, 1)
        + MEM_ACTIVITY_GPU_WEIGHT * gpu_busy
    )
    if isinstance(act, np.ndarray):
        return np.minimum(1.0, act)
    return min(1.0, act)


def dynamic_power_w(
    ceff_w_per_v2hz: float, voltage_v: float, freq_hz: float, busy_units: float
) -> float:
    """Dynamic switching power: ``Ceff * V^2 * f`` scaled by busy units.

    ``busy_units`` is the number of fully-busy execution units (e.g. 2.5
    means two cores busy plus one half busy).
    """
    if busy_units < 0.0:
        raise SimulationError(f"negative busy_units: {busy_units}")
    return ceff_w_per_v2hz * voltage_v * voltage_v * freq_hz * busy_units


def leakage_power_w(params: LeakageParams, temp_k: float, voltage_v: float) -> float:
    """Temperature-dependent leakage: ``kappa * T^2 * exp(-beta/T) * V/Vref``."""
    if temp_k <= 0.0:
        raise SimulationError(f"non-physical temperature {temp_k} K")
    return (
        params.kappa_w_per_k2
        * temp_k
        * temp_k
        * math.exp(-params.beta_k / temp_k)
        * (voltage_v / params.v_ref)
    )


@dataclass(frozen=True)
class PowerSample:
    """Decomposed power of one rail at one instant."""

    dynamic_w: float
    leakage_w: float

    @property
    def total_w(self) -> float:
        """Dynamic plus leakage power."""
        return self.dynamic_w + self.leakage_w


@dataclass
class ComponentActivity:
    """Runtime operating condition of one component for a power query.

    ``idle_scale`` multiplies the component's idle power: 1.0 for a shallow
    WFI idle, lower when cpuidle has gated the component deeper.
    """

    freq_hz: float
    busy_units: float
    temp_k: float
    powered: bool = True
    idle_scale: float = 1.0


class _Component:
    """Per-tick constants of one DVFS component (a CPU cluster or the GPU)."""

    __slots__ = ("name", "rail", "opps", "max_busy", "idle_w", "ceff", "volts", "leakage")

    def __init__(self, spec: ClusterSpec | GpuSpec, max_busy: float) -> None:
        self.name = spec.name
        self.rail = spec.rail
        self.opps = spec.opps
        self.max_busy = max_busy
        self.idle_w = spec.idle_power_w
        self.ceff = spec.ceff_w_per_v2hz
        self.volts = tuple(p.voltage_v for p in spec.opps)
        self.leakage = spec.leakage


class SocPowerModel:
    """Computes per-rail power for a set of component activities.

    Built from the component specs of a platform; stateless apart from those
    specs, so one instance can serve many simulations.  For the per-tick
    :meth:`component_power_w`, which reads the voltage by OPP index instead
    of searching the table by frequency, the components are numbered in
    order: the clusters as given, then the GPU.
    """

    def __init__(
        self,
        clusters: Mapping[str, ClusterSpec],
        gpu: GpuSpec,
        memory: MemorySpec,
    ) -> None:
        if not clusters:
            raise ConfigurationError("a SoC needs at least one CPU cluster")
        self._clusters = dict(clusters)
        self._gpu = gpu
        self._memory = memory
        self._components = tuple(
            _Component(spec, spec.n_cores) for spec in self._clusters.values()
        ) + (_Component(gpu, 1.0),)
        self._cluster_index = {name: k for k, name in enumerate(self._clusters)}

    def _busy_error(self, comp: _Component, busy_units: float) -> SimulationError:
        if comp is self._components[-1]:
            return SimulationError(f"gpu busy_units must be <= 1, got {busy_units}")
        return SimulationError(
            f"cluster {comp.name!r}: busy_units {busy_units} exceeds "
            f"{comp.max_busy} cores"
        )

    @staticmethod
    def _dyn_leak(
        comp: _Component, voltage: float, freq_hz: float, busy_units: float,
        temp_k: float, idle_scale: float,
    ) -> tuple[float, float]:
        """Dynamic and leakage watts of a powered component: the one place
        the ``CV²f`` + leakage arithmetic is assembled."""
        dyn = comp.idle_w * idle_scale + dynamic_power_w(
            comp.ceff, voltage, freq_hz, busy_units
        )
        leak = leakage_power_w(comp.leakage, temp_k, voltage)
        if busy_units < 1e-6:
            # A fully idle component in a deep idle state is power-gated:
            # the gating removes leakage along with the clock tree.
            leak *= idle_scale
        return dyn, leak

    def _sample(self, comp: _Component, activity: ComponentActivity) -> PowerSample:
        if not activity.powered:
            return PowerSample(0.0, 0.0)
        if activity.busy_units > comp.max_busy + 1e-9:
            raise self._busy_error(comp, activity.busy_units)
        voltage = comp.volts[comp.opps.index_of(activity.freq_hz)]
        return PowerSample(*self._dyn_leak(
            comp, voltage, activity.freq_hz, activity.busy_units,
            activity.temp_k, activity.idle_scale,
        ))

    def cluster_power(self, name: str, activity: ComponentActivity) -> PowerSample:
        """Power of CPU cluster ``name`` under ``activity``."""
        k = self._cluster_index.get(name)
        if k is None:
            raise SimulationError(f"unknown cluster {name!r}")
        return self._sample(self._components[k], activity)

    def gpu_power(self, activity: ComponentActivity) -> PowerSample:
        """Power of the GPU under ``activity`` (busy_units in [0, 1])."""
        return self._sample(self._components[-1], activity)

    def component_power_w(
        self, k: int, opp_index: int, freq_hz: float, busy_units: float,
        temp_k: float, idle_scale: float,
    ) -> float:
        """Total watts of powered component ``k`` at OPP ``opp_index``.

        The per-tick form of :meth:`cluster_power` / :meth:`gpu_power`:
        the same checks and arithmetic, bit for bit, with the voltage read
        by index.  ``freq_hz`` must be the frequency of that OPP.
        """
        comp = self._components[k]
        if busy_units > comp.max_busy + 1e-9:
            raise self._busy_error(comp, busy_units)
        dyn, leak = self._dyn_leak(
            comp, comp.volts[opp_index], freq_hz, busy_units, temp_k, idle_scale
        )
        return dyn + leak

    def _memory_dyn_leak(
        self, activity_fraction: float, temp_k: float
    ) -> tuple[float, float]:
        if not 0.0 <= activity_fraction <= 1.0 + 1e-9:
            raise SimulationError(
                f"memory activity must be in [0, 1], got {activity_fraction}"
            )
        spec = self._memory
        dyn = spec.base_power_w + spec.activity_power_w * min(activity_fraction, 1.0)
        leak = leakage_power_w(spec.leakage, temp_k, spec.leakage.v_ref)
        return dyn, leak

    def memory_power(self, activity_fraction: float, temp_k: float) -> PowerSample:
        """Memory power at the given activity fraction in [0, 1]."""
        return PowerSample(*self._memory_dyn_leak(activity_fraction, temp_k))

    def memory_power_w(self, activity_fraction: float, temp_k: float) -> float:
        """Total memory watts: the per-tick form of :meth:`memory_power`."""
        dyn, leak = self._memory_dyn_leak(activity_fraction, temp_k)
        return dyn + leak

    def rail_powers(
        self,
        cluster_activity: Mapping[str, ComponentActivity],
        gpu_activity: ComponentActivity,
        memory_activity: float,
        memory_temp_k: float,
    ) -> dict[str, PowerSample]:
        """Power of every rail, keyed by rail name."""
        out: dict[str, PowerSample] = {}
        for name, spec in self._clusters.items():
            activity = cluster_activity.get(name)
            if activity is None:
                raise SimulationError(f"missing activity for cluster {name!r}")
            out[spec.rail] = self.cluster_power(name, activity)
        out[self._gpu.rail] = self.gpu_power(gpu_activity)
        out[self._memory.rail] = self.memory_power(memory_activity, memory_temp_k)
        return out

    def max_cluster_power_w(self, name: str, freq_hz: float, temp_k: float) -> float:
        """Worst-case (all cores busy) cluster power at an OPP — used by IPA."""
        spec = self._clusters.get(name)
        if spec is None:
            raise SimulationError(f"unknown cluster {name!r}")
        activity = ComponentActivity(freq_hz, float(spec.n_cores), temp_k)
        return self.cluster_power(name, activity).total_w

    def max_gpu_power_w(self, freq_hz: float, temp_k: float) -> float:
        """Worst-case GPU power at an OPP — used by IPA."""
        return self.gpu_power(ComponentActivity(freq_hz, 1.0, temp_k)).total_w
