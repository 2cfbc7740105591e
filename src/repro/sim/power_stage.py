"""Per-tick power assembly: kernel activity + temperatures → rail watts.

Extracted from the body of :meth:`Simulation.step` so the same contract has
one scalar implementation here and one vectorized implementation in
:mod:`repro.sim.batch`.  Everything that does not change between ticks —
the component order, each rail's slot in the thermal model's power vector,
the thermal node of each component — is resolved once at build time; a
tick reads each policy's OPP index, asks the power model for each
component's watts, and writes the totals straight into the rail-order
vector :meth:`~repro.thermal.model.ThermalModel.step_in_place` integrates.

The arithmetic is byte-identical to :meth:`SocPowerModel.rail_powers`:
the same per-component floats, the same overwrite order when two
components share a rail, the same rail summation order for the battery.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.kernel.kernel import GPU_DOMAIN, Kernel
from repro.soc.platform import BOARD_RAIL, PlatformSpec
from repro.soc.power_model import memory_activity_proxy
from repro.thermal.model import ThermalModel


class PowerStage:
    """Assembles per-rail power from one kernel tick result."""

    def __init__(
        self, platform: PlatformSpec, kernel: Kernel, thermal: ThermalModel
    ) -> None:
        self._kernel = kernel
        self._thermal = thermal
        self._model = kernel.power_model
        node_index = {name: i for i, name in enumerate(thermal.node_names)}
        rail_index = {name: i for i, name in enumerate(thermal.rail_names)}

        def slot(rail: str) -> int:
            if rail not in rail_index:
                raise SimulationError(
                    f"unknown power rail {rail!r}; rails: {list(thermal.rail_names)}"
                )
            return rail_index[rail]

        # (name, n_cores, policy, rail, slot, node) per component, in the
        # power model's component order: the clusters, then the GPU.
        self._components = tuple(
            (c.name, float(c.n_cores), kernel.policies[c.name], c.rail,
             slot(c.rail), node_index[c.thermal_node])
            for c in platform.clusters
        ) + ((GPU_DOMAIN, 1.0, kernel.policies[GPU_DOMAIN], platform.gpu.rail,
              slot(platform.gpu.rail), node_index[platform.gpu.thermal_node]),)
        self._n_clusters = len(platform.clusters)
        self._total_cores = sum(c.n_cores for c in platform.clusters)
        self._memory_rail = platform.memory.rail
        self._memory_slot = slot(platform.memory.rail)
        self._memory_node = node_index[platform.memory.thermal_node]
        self._board_w = platform.board_power_w
        self._board_slot = slot(BOARD_RAIL) if self._board_w > 0.0 else None
        #: Rail-order power vector handed to the thermal model each tick.
        self.vector = np.zeros(len(thermal.rail_names))
        self._soc_watts: dict[str, float] = {}
        self._rail_watts: dict[str, float] = {}  # SoC rails + board

    def assemble(self, kres) -> tuple[dict[str, float], dict[str, float], float]:
        """One tick of power assembly.

        Fills :attr:`vector` in the thermal model's rail order and returns
        ``(rail_watts, soc_watts, battery_w)`` where ``rail_watts``
        includes the board rail (when the platform draws board power) and
        ``soc_watts`` is the SoC-only subset fed to the rail power sensors.
        The returned dicts are owned by the stage and rewritten every tick.
        """
        kernel = self._kernel
        model = self._model
        temps = self._thermal.temperature_list()
        vector = self.vector
        soc_watts = self._soc_watts
        n_clusters = self._n_clusters
        usage = kres.usage
        freqs = kres.freqs_hz
        total_busy = 0.0
        for k, (name, n_cores, policy, rail, slot, node) in enumerate(self._components):
            freq = freqs[name]
            if k < n_clusters:
                busy_cores = usage[name].busy_cores
                total_busy += busy_cores
                busy = min(busy_cores, n_cores)
                powered = kernel.cluster_online(name)
            else:
                busy = min(kres.gpu.busy_fraction, 1.0)
                powered = True
            if powered:
                # The policy's index is the OPP the kernel ran this tick at,
                # unless something moved the policy since.
                index = policy.cur_index
                if policy.cur_freq_hz != freq:  # repro-lint: disable=R401
                    index = policy.opps.index_of(freq)
                watts = model.component_power_w(
                    k, index, freq, busy, temps[node], kernel.idle_scale(name)
                )
            else:
                watts = 0.0
            soc_watts[rail] = watts
            vector[slot] = watts
        mem_activity = memory_activity_proxy(
            total_busy, self._total_cores, kres.gpu.busy_fraction
        )
        watts = model.memory_power_w(mem_activity, temps[self._memory_node])
        soc_watts[self._memory_rail] = watts
        vector[self._memory_slot] = watts
        for rail, watts in soc_watts.items():
            if watts < 0.0:
                raise SimulationError(f"rail {rail!r}: negative power {watts}")
        rail_watts = soc_watts
        if self._board_slot is not None:
            rail_watts = self._rail_watts
            rail_watts.update(soc_watts)
            rail_watts[BOARD_RAIL] = self._board_w
            vector[self._board_slot] = self._board_w
        battery_w = sum(rail_watts.values())
        return rail_watts, soc_watts, battery_w
