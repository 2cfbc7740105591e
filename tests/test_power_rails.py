"""The per-tick power path equals ``SocPowerModel.rail_powers``, bit for bit.

``PowerStage.assemble`` reads each policy's OPP index and writes the rail
totals straight into the thermal model's rail-order vector.  The oracle is
``rail_powers`` over ``ComponentActivity`` objects built from the same
kernel state, summed into a rail dict and mapped onto the rail order.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.gpu import GpuTickResult
from repro.kernel.kernel import GPU_DOMAIN, KernelTickResult
from repro.kernel.scheduler import ClusterUsage
from repro.sim.engine import Simulation
from repro.soc import registry
from repro.soc.platform import BOARD_RAIL
from repro.soc.power_model import ComponentActivity, memory_activity_proxy


def shared_rail_platform():
    """nexus6p with its GPU powered from the memory rail."""
    spec = registry.build("nexus6p")
    gpu = dataclasses.replace(spec.gpu, rail=spec.memory.rail)
    return dataclasses.replace(spec, gpu=gpu)


PLATFORMS = {name: registry.build(name) for name in registry.platform_names()}
PLATFORMS["nexus6p/gpu-on-mem-rail"] = shared_rail_platform()


def oracle(sim, kres):
    """Rail watts, battery watts and rail-order vector via rail_powers."""
    platform, kernel, thermal = sim.platform, sim.kernel, sim.thermal
    temps = thermal.temperatures_k()
    clusters = {}
    total_busy = 0.0
    for c in platform.clusters:
        busy = kres.usage[c.name].busy_cores
        total_busy += busy
        clusters[c.name] = ComponentActivity(
            freq_hz=kres.freqs_hz[c.name],
            busy_units=min(busy, float(c.n_cores)),
            temp_k=temps[c.thermal_node],
            powered=kernel.cluster_online(c.name),
            idle_scale=kernel.idle_scale(c.name),
        )
    gpu = ComponentActivity(
        freq_hz=kres.freqs_hz[GPU_DOMAIN],
        busy_units=min(kres.gpu.busy_fraction, 1.0),
        temp_k=temps[platform.gpu.thermal_node],
        idle_scale=kernel.idle_scale(GPU_DOMAIN),
    )
    mem = memory_activity_proxy(
        total_busy, sum(c.n_cores for c in platform.clusters),
        kres.gpu.busy_fraction,
    )
    rails = kernel.power_model.rail_powers(
        clusters, gpu, mem, temps[platform.memory.thermal_node]
    )
    watts = {rail: sample.total_w for rail, sample in rails.items()}
    if platform.board_power_w > 0.0:
        watts[BOARD_RAIL] = platform.board_power_w
    vector = np.zeros(len(thermal.rail_names))
    for rail, w in watts.items():
        vector[thermal.rail_names.index(rail)] = w
    return watts, sum(watts.values()), vector


@st.composite
def tick_state(draw, platform):
    """Random OPPs, loads, temperatures, idle scales and online clusters."""
    freqs = {}
    usage = {}
    for c in platform.clusters:
        freqs[c.name] = draw(st.sampled_from(c.opps.frequencies_hz()))
        busy = draw(st.floats(0.0, float(c.n_cores)))
        usage[c.name] = ClusterUsage(
            capacity_cycles=1.0, used_cycles=0.0, busy_cores=busy
        )
    freqs[GPU_DOMAIN] = draw(st.sampled_from(platform.gpu.opps.frequencies_hz()))
    gpu = GpuTickResult(
        busy_fraction=draw(st.floats(0.0, 1.0)), completed_tags=[], owner_cycles={}
    )
    online = {
        c.name: draw(st.booleans()) for c in platform.clusters[1:]
    }
    scales = {
        name: draw(st.sampled_from([1.0, 0.6, 0.25, 0.05]))
        for name in [*freqs]
    }
    temps_c = draw(
        st.lists(
            st.floats(-20.0, 130.0), min_size=len(platform.thermal.node_names),
            max_size=len(platform.thermal.node_names),
        )
    )
    kres = KernelTickResult(
        usage=usage, gpu=gpu, freqs_hz=freqs, completed_cpu_tags=[]
    )
    return kres, online, scales, temps_c


@pytest.mark.parametrize("name", sorted(PLATFORMS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_assemble_equals_rail_powers(name, data):
    platform = PLATFORMS[name]
    sim = Simulation(platform, seed=0)
    kernel = sim.kernel
    # Several ticks through one stage: its vector and dicts are reused.
    for _ in range(3):
        kres, online, scales, temps_c = data.draw(tick_state(platform))
        for domain, freq in kres.freqs_hz.items():
            policy = kernel.policies[domain]
            policy.set_user_limits(freq, freq)
            assert policy.cur_freq_hz == freq
        if data.draw(st.booleans(), label="policies moved after the kernel ran"):
            for policy in kernel.policies.values():
                policy.set_user_limits(policy.opps.min_freq_hz, policy.opps.min_freq_hz)
        for cluster, on in online.items():
            kernel.set_cluster_online(cluster, on)
        kernel._idle_scales.update(scales)
        sim.thermal.set_state({
            node: 273.15 + t for node, t in zip(sim.thermal.node_names, temps_c)
        })

        want_watts, want_battery, want_vector = oracle(sim, kres)
        rail_watts, soc_watts, battery_w = sim.power_stage.assemble(kres)

        assert list(rail_watts) == list(want_watts)
        for rail, w in want_watts.items():
            assert rail_watts[rail].hex() == w.hex(), rail
        assert battery_w.hex() == want_battery.hex()
        assert sim.power_stage.vector.tobytes() == want_vector.tobytes()
        assert BOARD_RAIL not in soc_watts
        assert all(soc_watts[r] == want_watts[r] for r in soc_watts)


def test_offline_cluster_draws_nothing():
    platform = PLATFORMS["nexus6p"]
    sim = Simulation(platform, seed=0)
    big, little = platform.big_cluster, platform.little_cluster
    sim.kernel.set_cluster_online(big.name, False)
    sim.run(0.05)
    rails = sim.thermal.rail_names
    assert sim.power_stage.vector[rails.index(big.rail)] == 0.0
    assert sim.power_stage.vector[rails.index(little.rail)] > 0.0
    assert sim.energy.energy_j(big.rail) == 0.0
