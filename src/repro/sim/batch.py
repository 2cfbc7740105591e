"""Stacked-scenario batch stepping with a byte-identical vectorized fast path.

A :class:`BatchSimulation` advances N independent :class:`Simulation`
instances in lock-step.  Scenarios whose device has reached a *steady*
operating point — constant frequencies, constant scheduler activity,
settled cpuidle states, no pending application events — are *promoted* to a
vectorized fast path: their thermal states are stacked into one
``(N, nodes)`` matrix (row views adopted by each model, so zone sensors
stay live), per-rail power is elementwise vector arithmetic across
scenarios, and every strictly linear accounting quantity (utilisation
windows, ``time_in_state``, cpuidle residency and dwell, task CPU time,
energy) accumulates in a single ``acc += rate`` matrix add per tick.

Byte identity with N separate ``sim.run()`` calls is the contract, not an
aspiration.  Everything event-like still runs the *real* scalar code at
exactly the ticks it would have run: thermal zones poll through
:meth:`ThermalZone.poll` (consuming the same sensor RNG draws), records go
through :meth:`Simulation._record`, and the real periodic timers are polled
on their true fire ticks so their deadlines advance naturally.  DVFS
governor evaluations are *absorbed* only when a side-effect-free probe — a
throwaway policy primed with the live utilisation window and run through
the real governor object — proves the evaluation would leave the frequency
unchanged.  Any probe failure, or a post-poll invariant violation (a zone
poll moved a frequency or a cooling-device state), *demotes* the scenario:
its accumulators are written back and the tick is completed through the
kernel's real phase methods, after which the scenario steps scalar until
the next segment boundary re-checks promotion.

The fast path's only observable divergence is wall-clock-domain:
absorbed governor fires make no decision-latency observation (a wall-clock
histogram excluded from deterministic snapshots anyway).  They left the
frequency unchanged, so they owe no ``governor.update`` span.  See
``docs/ENGINE.md`` for the full contract.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.kernel.cpufreq.policy import DvfsPolicy
from repro.kernel.cpuidle import IDLE_BUSY_THRESHOLD
from repro.kernel.gpu import GpuTickResult
from repro.kernel.kernel import GPU_DOMAIN, KernelTickResult
from repro.kernel.scheduler import ClusterUsage, _weighted_water_fill
from repro.obs.profiler import NULL_PROFILER, StepProfiler
from repro.power.daq import sample_window
from repro.sim.clock import ticks_for_duration
from repro.sim.engine import Simulation
from repro.soc.platform import BOARD_RAIL
from repro.soc.power_model import dynamic_power_w, memory_activity_proxy
from repro.units import hz_to_khz

#: Ticks per fast segment; promotion is re-checked at segment boundaries.
SEGMENT_TICKS = 512

#: Segment length while nothing is promoted yet.  Devices typically settle
#: (cpuidle dwell satisfied, sensors primed) within a few dozen ticks of a
#: cold start; short segments keep the time-to-promotion low without paying
#: per-segment setup costs once the batch is cruising.
RAMP_TICKS = 32

#: Governors whose ``update`` is known to touch only the policy object, so a
#: probe evaluation has no side effects (no RNG, no sensor reads).  Anything
#: else — e.g. a registered proposed governor — keeps its scenario scalar.
_STOCK_GOVERNOR_MODULE = "repro.kernel.cpufreq.governors"


class _FireSchedule:
    """Precomputed firing pattern of one PeriodicTimer over a segment.

    Replicates :meth:`repro.sim.clock.PeriodicTimer.poll` exactly — the
    tolerance and the catch-up loop — against ``now = (k0 + j) * dt``.
    ``fires`` holds the firing local ticks; :meth:`deadline_before` gives the
    timer's deadline as of any local tick, so real timers can be synced by a
    single write instead of a poll per member per fire tick.
    """

    __slots__ = ("fires", "_initial", "_fire_list", "_after")

    def __init__(self, deadline: float, period: float, k0: int, n: int,
                 dt: float) -> None:
        self._initial = deadline
        self.fires = set()
        self._fire_list = []
        self._after = []
        for j in range(n):
            now = (k0 + j) * dt
            if now + 1e-12 < deadline:
                continue
            while deadline <= now + 1e-12:
                deadline += period
            self.fires.add(j)
            self._fire_list.append(j)
            self._after.append(deadline)

    def deadline_before(self, j: int) -> float:
        """The timer's deadline once every tick ``< j`` has been processed."""
        i = bisect_right(self._fire_list, j - 1)
        return self._after[i - 1] if i else self._initial

    def deadline_after(self, j: int) -> float:
        """The deadline once tick ``j``'s fire (if any) has been consumed."""
        return self.deadline_before(j + 1)

    def count_before(self, j: int) -> int:
        """How many fires land on ticks ``< j``."""
        return bisect_right(self._fire_list, j - 1)


def _daq_schedule(next_sample_s: float, rate_hz: float, k0: int, n: int, dt: float):
    """Per-tick DAQ sample windows for local ticks ``[0, n)``.

    Lays the windows out with :func:`repro.power.daq.sample_window`, the
    arithmetic of :meth:`~repro.power.daq.PowerDaq.capture`.  The time grid
    is seed-independent, so one schedule serves every scenario of a
    segment.  Returns ``(starts, counts, next_after)``: the first sample
    time and sample count of each tick's window, and the instrument's next
    sample time after tick ``j``.
    """
    period = 1.0 / rate_hz
    starts = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    next_after = np.zeros(n)
    cur = next_sample_s
    for j in range(n):
        starts[j], counts[j], cur = sample_window(cur, (k0 + j) * dt, dt, period)
        next_after[j] = cur
    return starts, counts, next_after


class _FastSim:
    """Everything constant about one scenario while it is on the fast path."""

    __slots__ = (
        "sim", "row", "kres", "freqs", "rail_consts", "lin_cols", "lin_init",
        "lin_rate", "bi_col", "el_col", "probe_static", "group_key",
        "pending_steps",
    )

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.row = -1
        self.pending_steps = 0


class BatchSimulation:
    """Steps N independent simulations together, vectorizing steady spans.

    All member simulations must share the clock step and sit at the same
    tick.  ``fast=False`` forces pure lock-step scalar stepping (tier 0),
    which isolates fast-path regressions; the output is identical either
    way.  ``profile=True`` attaches a batch-level :class:`StepProfiler`
    whose phases (``kernel``, ``power_assemble``, ``thermal_exact``,
    ``batch_sync``, ``record``) bracket the fast path.
    """

    def __init__(
        self,
        sims: Sequence[Simulation],
        fast: bool = True,
        profile: bool = False,
    ) -> None:
        if not sims:
            raise ConfigurationError("a batch needs at least one simulation")
        self.sims = list(sims)
        dt = self.sims[0].clock.dt
        tick = self.sims[0].clock.tick
        for sim in self.sims:
            if sim.clock.dt != dt:
                raise ConfigurationError(
                    f"batched simulations must share the clock step "
                    f"({sim.clock.dt} != {dt})"
                )
            if sim.clock.tick != tick:
                raise ConfigurationError(
                    "batched simulations must sit at the same tick"
                )
        self._dt = dt
        self._fast_enabled = fast
        self.profiler = StepProfiler() if profile else None
        prof = self.profiler if profile else NULL_PROFILER
        self._ph_step = prof.step()
        self._ph_kernel = prof.phase("kernel")
        self._ph_assemble = prof.phase("power_assemble")
        self._ph_thermal = prof.phase("thermal_exact")
        self._ph_sync = prof.phase("batch_sync")
        self._ph_record = prof.phase("record")
        self._probe_cache: dict = {}
        self._probe_intern: dict = {}
        self._cruising = False
        self.stats = {
            "fast_ticks": 0,
            "scalar_ticks": 0,
            "promotions": 0,
            "demotions": 0,
        }

    # ----------------------------------------------------------------- run

    def run(self, duration_s: float) -> None:
        """Run every member for ``duration_s`` simulated seconds."""
        self.run_each([duration_s] * len(self.sims))

    def run_each(self, durations_s: Sequence[float]) -> None:
        """Run member ``i`` for ``durations_s[i]`` seconds, in lock-step.

        Members retire as they reach their own end tick; the rest continue.
        Segment boundaries never cross a retirement, so every active member
        always sits at the same tick.
        """
        if len(durations_s) != len(self.sims):
            raise ConfigurationError(
                f"need one duration per simulation "
                f"({len(durations_s)} != {len(self.sims)})"
            )
        for duration in durations_s:
            if duration <= 0.0:
                raise ConfigurationError("duration must be positive")
        remaining = [ticks_for_duration(d, self._dt) for d in durations_s]
        while True:
            active = [i for i, left in enumerate(remaining) if left > 0]
            if not active:
                return
            segment = SEGMENT_TICKS if self._cruising else RAMP_TICKS
            block = min(segment, min(remaining[i] for i in active))
            self._run_segment([self.sims[i] for i in active], block)
            for i in active:
                remaining[i] -= block

    # ------------------------------------------------------------ segments

    def _run_segment(self, active: list, n: int) -> None:
        k0 = active[0].clock.tick
        fast: list[_FastSim] = []
        if self._fast_enabled:
            with self._ph_sync:
                for sim in active:
                    rec = self._try_promote(sim)
                    if rec is None:
                        continue
                    if fast and rec.group_key != fast[0].group_key:
                        # Different platform or timer/DAQ phasing: the
                        # shared fire schedules would not apply.  Run this
                        # member scalar for the segment.
                        continue
                    fast.append(rec)
                self.stats["promotions"] += len(fast)
        self._cruising = bool(fast)
        fast_ids = {id(rec.sim) for rec in fast}
        scalar = [sim for sim in active if id(sim) not in fast_ids]
        if fast:
            self._run_fast(fast, scalar, k0, n)
        else:
            for _ in range(n):
                with self._ph_step:
                    for sim in scalar:
                        sim.step()
            self.stats["scalar_ticks"] += n * len(scalar)

    # ----------------------------------------------------------- promotion

    def _try_promote(self, sim: Simulation) -> _FastSim | None:
        """Build a promotion record, or return None if the sim isn't steady."""
        kernel = sim.kernel
        now = sim.clock.now
        dt = self._dt
        if sim.battery is not None or sim.profiler is not None:
            return None
        if kernel._daemons:
            return None
        for app in sim._apps.values():
            if not app.steady():
                return None
        if kernel.gpu.queue_depth != 0:
            return None
        scheduler = kernel.scheduler
        for task in scheduler._tasks.values():
            if task.runnable and (not task.unbounded or task._queue):
                return None
        for governor in kernel.governors.values():
            if type(governor).__module__ != _STOCK_GOVERNOR_MODULE:
                return None
        for policy in kernel.policies.values():
            if policy.boosted(now):
                return None
        for device in kernel.cooling_devices:
            if kernel._cooling_states.get(device.name) != device.cur_state:
                return None
        for sensor in kernel.power_sensors.values():
            if sensor._ema_w is None:
                return None

        # --- replicate one scheduler tick without mutating anything ------
        # (Scheduler.run_tick would call Task.consume, which accumulates
        # CPU-time accounting; here the grants become per-tick rates.)
        freqs = {name: p.cur_freq_hz for name, p in kernel.policies.items()}
        usage: dict[str, ClusterUsage] = {}
        task_rates = []
        for cname, spec in scheduler._clusters.items():
            freq = freqs[cname] if kernel._cluster_online[cname] else 0.0
            capacity = spec.capacity_cycles(freq, dt)
            per_core = capacity / spec.n_cores
            runnable = [
                t for t in scheduler._tasks.values()
                if t.runnable and t.cluster == cname
            ]
            ceilings = [t.demand_cycles(per_core) for t in runnable]
            weights = [t.weight for t in runnable]
            grants = _weighted_water_fill(capacity, ceilings, weights)
            used = 0.0
            per_task: dict[int, float] = {}
            max_core_load = 0.0
            for task, grant in zip(runnable, grants):
                if grant <= 0.0:
                    continue
                rate = spec.ipc * freq
                task_rates.append((task, cname, grant / rate, grant))
                per_task[task.pid] = grant
                used += grant
                threads = min(task.n_threads, spec.n_cores)
                max_core_load = max(max_core_load, grant / (per_core * threads))
            busy_cores = used / (spec.ipc * freq * dt) if freq > 0 else 0.0
            cluster_load = busy_cores / spec.n_cores
            usage[cname] = ClusterUsage(
                capacity_cycles=capacity,
                used_cycles=used,
                busy_cores=busy_cores,
                per_task_cycles=per_task,
                max_core_load=min(max(max_core_load, cluster_load), 1.0),
            )

        # IPA reads policy.last_util / last_mean_util *live* mid-segment, so
        # the frozen values must already be what every tick re-asserts.
        busy = {}
        mean_util = {}
        for cluster in sim.platform.clusters:
            u = usage[cluster.name]
            busy[cluster.name] = u.max_core_load
            mean_util[cluster.name] = u.busy_cores / cluster.n_cores
        busy[GPU_DOMAIN] = 0.0
        mean_util[GPU_DOMAIN] = 0.0
        for domain, policy in kernel.policies.items():
            if policy._last_util != busy[domain]:
                return None
            if policy._last_mean_util != mean_util[domain]:
                return None

        # --- cpuidle must be settled (constant state, constant scale) ----
        idle_busy = {
            c.name: usage[c.name].busy_cores for c in sim.platform.clusters
        }
        idle_busy[GPU_DOMAIN] = 0.0
        idle_cores = {c.name: c.n_cores for c in sim.platform.clusters}
        idle_cores[GPU_DOMAIN] = 1
        idle_scales = {}
        idle_is_idle = {}
        for domain, gov in kernel.idle_governors.items():
            level = idle_busy[domain] / max(idle_cores[domain], 1)
            if level > IDLE_BUSY_THRESHOLD:
                if (gov._idle_dwell_s != 0.0  # repro-lint: disable=R401
                        or gov._current is not gov._states[0]):
                    return None
                idle_is_idle[domain] = False
            else:
                deepest = gov._states[-1]
                if (gov._current is not deepest
                        or gov._idle_dwell_s < deepest.entry_dwell_s):
                    return None
                idle_is_idle[domain] = True
            idle_scales[domain] = gov._current.power_scale

        rec = _FastSim(sim)
        rec.freqs = freqs
        rec.kres = KernelTickResult(
            usage=usage,
            gpu=GpuTickResult(busy_fraction=0.0, completed_tags=[], owner_cycles={}),
            freqs_hz=freqs,
            completed_cpu_tags=[],
        )

        # --- per-rail power constants ------------------------------------
        # One entry per rail_powers() assignment, in assignment order, so a
        # platform routing two components onto one rail overwrites exactly
        # like the scalar dict does:
        # (rail, dyn_w, kappa, -beta, V/Vref, leak_scale, powered, node).
        model = sim.thermal
        node_index = {name: i for i, name in enumerate(model.node_names)}
        total_busy = 0.0
        for cluster in sim.platform.clusters:
            total_busy += usage[cluster.name].busy_cores
        consts = []
        for cluster in sim.platform.clusters:
            spec = kernel.power_model._clusters[cluster.name]
            busy_units = min(usage[cluster.name].busy_cores, float(cluster.n_cores))
            freq = freqs[cluster.name]
            scale = idle_scales[cluster.name]
            voltage = spec.opps.voltage_for(freq)
            dyn = spec.idle_power_w * scale + dynamic_power_w(
                spec.ceff_w_per_v2hz, voltage, freq, busy_units
            )
            leak = spec.leakage
            consts.append((
                spec.rail, dyn, leak.kappa_w_per_k2, -leak.beta_k,
                voltage / leak.v_ref,
                scale if busy_units < 1e-6 else 1.0,
                kernel._cluster_online[cluster.name],
                node_index[cluster.thermal_node],
            ))
        gpu_spec = sim.platform.gpu
        gpu_scale = idle_scales[GPU_DOMAIN]
        gpu_voltage = gpu_spec.opps.voltage_for(freqs[GPU_DOMAIN])
        gpu_dyn = gpu_spec.idle_power_w * gpu_scale + dynamic_power_w(
            gpu_spec.ceff_w_per_v2hz, gpu_voltage, freqs[GPU_DOMAIN], 0.0
        )
        leak = gpu_spec.leakage
        consts.append((
            gpu_spec.rail, gpu_dyn, leak.kappa_w_per_k2, -leak.beta_k,
            gpu_voltage / leak.v_ref, gpu_scale, True,
            node_index[gpu_spec.thermal_node],
        ))
        mem_spec = sim.platform.memory
        mem_activity = memory_activity_proxy(
            total_busy, sum(c.n_cores for c in sim.platform.clusters), 0.0
        )
        mem_dyn = mem_spec.base_power_w + mem_spec.activity_power_w * min(
            mem_activity, 1.0
        )
        leak = mem_spec.leakage
        consts.append((
            mem_spec.rail, mem_dyn, leak.kappa_w_per_k2, -leak.beta_k,
            leak.v_ref / leak.v_ref, 1.0, True,
            node_index[mem_spec.thermal_node],
        ))
        rec.rail_consts = consts

        # --- linear accumulator columns: (kind, handle, initial, rate) ---
        cols = []
        rec.bi_col = {}
        rec.el_col = {}
        for domain, policy in kernel.policies.items():
            rec.bi_col[domain] = len(cols)
            cols.append(("bi", policy, policy._busy_integral_s, busy[domain] * dt))
            rec.el_col[domain] = len(cols)
            cols.append(("el", policy, policy._elapsed_s, dt))
            khz = hz_to_khz(policy.cur_freq_hz)
            cols.append(
                ("tis", (policy, khz), policy._time_in_state.get(khz, 0.0), dt)
            )
        for domain, gov in kernel.idle_governors.items():
            cols.append((
                "dwell", gov, gov._idle_dwell_s,
                dt if idle_is_idle[domain] else 0.0,
            ))
            cols.append((
                "resid", (gov, gov._current.name),
                gov._residency_s[gov._current.name], dt,
            ))
        for task, cname, cs_rate, cycle_rate in task_rates:
            cols.append((
                "task_cs", (task, cname),
                task.core_seconds.get(cname, 0.0), cs_rate,
            ))
            cols.append((
                "task_cyc", (task, cname),
                task.cycles_by_cluster.get(cname, 0.0), cycle_rate,
            ))
        cols.append(("energy_t", sim.energy, sim.energy._elapsed_s, dt))
        rec.lin_cols = cols
        rec.lin_init = np.array([c[2] for c in cols])
        rec.lin_rate = np.array([c[3] for c in cols])

        # Everything a governor probe depends on except the utilisation
        # window is frozen for the whole segment; intern those key parts to
        # one small integer so each absorbed fire costs a tiny tuple hash
        # and a dict lookup instead of rehashing the full fingerprint.
        rec.probe_static = {}
        for domain, governor in kernel.governors.items():
            policy = kernel.policies[domain]
            static = (
                type(governor).__name__,
                tuple(sorted(governor.__dict__.items())),
                tuple(policy.opps.frequencies_khz()),
                policy._cur_freq_hz,
                policy._user_min_hz, policy._user_max_hz,
                policy._thermal_max_hz,
                policy._last_util, policy._last_mean_util,
            )
            rec.probe_static[domain] = self._probe_intern.setdefault(
                static, len(self._probe_intern)
            )

        # Shared-schedule key: every fast member of a segment must agree on
        # platform layout, timer phasing, and DAQ position, so one set of
        # precomputed fire schedules serves the whole group.
        timers = []
        for domain in kernel.policies:
            timer = kernel._governor_timers[domain]
            timers.append((domain, timer.next_deadline, timer.period))
        for name in kernel.zones:
            timer = kernel._zone_timers[name]
            timers.append((name, timer.next_deadline, timer.period))
        timers.append((
            "record", sim._record_timer.next_deadline, sim._record_timer.period
        ))
        daq = sim.daq
        daq_part = (
            None if daq is None
            else (daq.sample_rate_hz, daq.noise_std_w, daq.next_sample_s)
        )
        rec.group_key = (sim.platform.name, tuple(timers), daq_part, len(cols))
        return rec

    # --------------------------------------------------------------- probe

    def _probe_quiescent(self, governor, policy, static: int, bi: float,
                         el: float, now: float) -> bool:
        """Would this governor evaluation leave the frequency unchanged?

        Runs the *real* governor object against a throwaway policy primed
        with the live utilisation window.  The probe's ``_last_raise_s``
        stays at its -1 construction default, so interactive-style
        down-dwell guards cannot mask a pending decrease: a guarded hold
        shows up as a (conservative) probe failure, never as a false
        quiescence.  Stock governors read nothing beyond what the key
        captures (``now`` only feeds guards the probe defuses), so results
        are cached across the whole batch; ``static`` is the interned id of
        the promotion-time fingerprint of every frozen input.
        """
        key = (static, bi, el)
        hit = self._probe_cache.get(key)
        if hit is not None:
            return hit
        probe = DvfsPolicy(policy.name, policy.opps, initial_freq_hz=policy.cur_freq_hz)
        probe._user_min_hz = policy._user_min_hz
        probe._user_max_hz = policy._user_max_hz
        probe._thermal_max_hz = policy._thermal_max_hz
        probe._busy_integral_s = bi
        probe._elapsed_s = el
        probe._last_util = policy._last_util
        probe._last_mean_util = policy._last_mean_util
        governor.update(probe, now)
        # Bitwise on purpose: any movement at all disqualifies the fire.
        quiescent = probe._cur_freq_hz == policy._cur_freq_hz  # repro-lint: disable=R401
        self._probe_cache[key] = quiescent
        return quiescent

    # ------------------------------------------------------- the fast loop

    def _run_fast(self, fast: list, scalar: list, k0: int, n: int) -> None:
        dt = self._dt
        sim0 = fast[0].sim
        kernel0 = sim0.kernel
        model0 = sim0.thermal
        model_rail_index = {r: i for i, r in enumerate(model0.rail_names)}

        with self._ph_sync:
            state = np.empty((len(fast), len(model0.node_names)))
            for s, rec in enumerate(fast):
                rec.row = s
                rec.sim.thermal.adopt_state(state[s])
            lin = np.stack([rec.lin_init for rec in fast])
            lin_rate = np.stack([rec.lin_rate for rec in fast])
            ema_rails = list(kernel0.power_sensors)
            ema = np.array([
                [rec.sim.kernel.power_sensors[r]._ema_w for r in ema_rails]
                for rec in fast
            ])
            ema_alpha = [
                1.0 - math.exp(-dt / kernel0.power_sensors[r]._tau)
                for r in ema_rails
            ]
            entries = fast[0].rail_consts
            n_entries = len(entries)
            ent_rail = [e[0] for e in entries]
            ent_node = [e[7] for e in entries]
            ent_dyn = [
                np.array([rec.rail_consts[e][1] for rec in fast])
                for e in range(n_entries)
            ]
            ent_kappa = [
                np.array([rec.rail_consts[e][2] for rec in fast])
                for e in range(n_entries)
            ]
            ent_negbeta = [
                np.array([rec.rail_consts[e][3] for rec in fast])
                for e in range(n_entries)
            ]
            ent_vvr = [
                np.array([rec.rail_consts[e][4] for rec in fast])
                for e in range(n_entries)
            ]
            ent_lscale = [
                np.array([rec.rail_consts[e][5] for rec in fast])
                for e in range(n_entries)
            ]
            ent_powered = [
                np.array([rec.rail_consts[e][6] for rec in fast], dtype=bool)
                for e in range(n_entries)
            ]
            ent_all_powered = [bool(p.all()) for p in ent_powered]
            rail_order = list(dict.fromkeys(ent_rail))
            board_w = sim0.platform.board_power_w
            energy_rails = list(rail_order)
            if board_w > 0.0:
                energy_rails.append(BOARD_RAIL)
            energy = np.array([
                [rec.sim.energy._energy_j.get(r, 0.0) for r in energy_rails]
                for rec in fast
            ])
            gov_fires = {
                domain: _FireSchedule(
                    kernel0._governor_timers[domain].next_deadline,
                    kernel0._governor_timers[domain].period, k0, n, dt,
                )
                for domain in kernel0.policies
            }
            zone_fires = {
                name: _FireSchedule(
                    kernel0._zone_timers[name].next_deadline,
                    kernel0._zone_timers[name].period, k0, n, dt,
                )
                for name in kernel0.zones
            }
            record_sched = _FireSchedule(
                sim0._record_timer.next_deadline,
                sim0._record_timer.period, k0, n, dt,
            )
            record_fires = record_sched.fires
            event_ticks = set().union(
                record_fires,
                *(s.fires for s in gov_fires.values()),
                *(s.fires for s in zone_fires.values()),
            )
            daq0 = sim0.daq
            daq_starts = daq_counts = daq_next = batt_buf = None
            if daq0 is not None:
                daq_starts, daq_counts, daq_next = _daq_schedule(
                    daq0.next_sample_s, daq0.sample_rate_hz, k0, n, dt
                )
                batt_buf = np.empty((n, len(fast)))
            # Per-scenario discrete thermal systems, unpacked for a buffered
            # in-place update.  The arithmetic is exactly
            # ThermalModel.step_in_place's (two dgemv calls and two
            # elementwise adds; ``wd * ambient`` is constant all segment),
            # but preallocated buffers avoid three temporaries per step.
            therm = []
            for rec in fast:
                model = rec.sim.thermal
                therm.append((
                    model._ad, model._bd, model._wd * model._ambient_k,
                    state[rec.row],
                ))
            t_buf1 = np.empty(len(model0.node_names))
            t_buf2 = np.empty(len(model0.node_names))

        def sync_rec(rec: _FastSim, j_done: int) -> None:
            """Write accumulators through local tick ``j_done`` (exclusive)
            back into the scenario's live objects."""
            sim = rec.sim
            i = rec.row
            for c, (kind, handle, _init, _rate) in enumerate(rec.lin_cols):
                value = float(lin[i, c])
                if kind == "bi":
                    handle._busy_integral_s = value
                elif kind == "el":
                    handle._elapsed_s = value
                elif kind == "tis":
                    handle[0]._time_in_state[handle[1]] = value
                elif kind == "dwell":
                    handle._idle_dwell_s = value
                elif kind == "resid":
                    handle[0]._residency_s[handle[1]] = value
                elif kind == "task_cs":
                    handle[0].core_seconds[handle[1]] = value
                elif kind == "task_cyc":
                    handle[0].cycles_by_cluster[handle[1]] = value
                else:  # energy_t
                    handle._elapsed_s = value
            for r, rail in enumerate(ema_rails):
                sim.kernel.power_sensors[rail]._ema_w = float(ema[i, r])
            for r, rail in enumerate(energy_rails):
                sim.energy._energy_j[rail] = float(energy[i, r])
            if rec.pending_steps:
                sim._m_steps.inc(float(rec.pending_steps))
                rec.pending_steps = 0
            # Every governor fire on a tick this record stayed fast for was
            # absorbed (a failed probe demotes at that very tick), so the
            # update counters follow straight from the schedules.  Absorbed
            # fires never polled the real timers either; replay the
            # deadlines they would have reached.  (Demotion paths adjust the
            # current tick's absorbed fires on top of this.)
            for domain, sched in gov_fires.items():
                count = sched.count_before(j_done)
                if count:
                    sim.kernel._m_gov_updates[domain].inc(float(count))
                timer = sim.kernel._governor_timers[domain]
                timer._next_deadline = sched.deadline_before(j_done)
            for name, sched in zone_fires.items():
                timer = sim.kernel._zone_timers[name]
                timer._next_deadline = sched.deadline_before(j_done)
            sim._record_timer._next_deadline = record_sched.deadline_before(
                j_done
            )
            if daq0 is not None and sim.daq is not None and j_done > 0:
                sampled = daq_counts[:j_done] > 0
                sim.daq.extend(
                    daq_starts[:j_done][sampled].tolist(),
                    daq_counts[:j_done][sampled].tolist(),
                    batt_buf[:j_done, i][sampled].tolist(),
                    float(daq_next[j_done - 1]),
                )

        live = list(fast)
        live_rows = np.array([rec.row for rec in live])
        # One probe can stand in for the whole batch on a governor fire when
        # every member shares the same frozen fingerprint AND the same live
        # utilisation window — the common case for a same-workload sweep.
        bi_col0 = fast[0].bi_col
        el_col0 = fast[0].el_col
        gov_uniform = all(
            len({rec.probe_static[d] for rec in fast}) == 1
            for d in kernel0.policies
        )

        def handle_events(j: int, k: int, now: float) -> list:
            """Absorb due governor fires, run due zone polls, verify the
            frozen operating point.  Demoted scenarios finish tick ``k``
            through the real scalar code; returns their Simulations."""
            nonlocal live, live_rows
            due_domains = [d for d, s in gov_fires.items() if j in s.fires]
            due_zones = [z for z, s in zone_fires.items() if j in s.fires]
            gov_done = not due_domains
            if due_domains and gov_uniform:
                # Vectorized pre-pass: if one probe per domain proves the
                # shared window quiescent, zero every member's window with
                # two fancy-indexed stores and skip the per-member loop.
                kernel = live[0].sim.kernel
                quiescent = True
                for domain in due_domains:
                    bi_vec = lin[live_rows, bi_col0[domain]]
                    el_vec = lin[live_rows, el_col0[domain]]
                    if (bi_vec != bi_vec[0]).any() or (el_vec != el_vec[0]).any():
                        quiescent = False
                        break
                    if not self._probe_quiescent(
                        kernel.governors[domain], kernel.policies[domain],
                        live[0].probe_static[domain],
                        float(bi_vec[0]), float(el_vec[0]), now,
                    ):
                        quiescent = False
                        break
                if quiescent:
                    for domain in due_domains:
                        lin[live_rows, bi_col0[domain]] = 0.0
                        lin[live_rows, el_col0[domain]] = 0.0
                    gov_done = True
                    if not due_zones:
                        return []
            survivors = []
            demoted = []
            for rec in live:
                sim = rec.sim
                sim.clock.seek(k)
                kernel = sim.kernel
                # 0 = stay fast, 1 = run the whole tick scalar, 2 = the
                # governor/zone phases already ran — complete with the rest.
                demote = 0
                absorbed = due_domains
                if not gov_done:
                    absorbed = []
                    for domain in due_domains:
                        policy = kernel.policies[domain]
                        bi = float(lin[rec.row, rec.bi_col[domain]])
                        el = float(lin[rec.row, rec.el_col[domain]])
                        if not self._probe_quiescent(
                            kernel.governors[domain], policy,
                            rec.probe_static[domain], bi, el, now,
                        ):
                            demote = 1
                            break
                        # Absorbed: the evaluation consumed the utilisation
                        # window and left the frequency alone.
                        lin[rec.row, rec.bi_col[domain]] = 0.0
                        lin[rec.row, rec.el_col[domain]] = 0.0
                        absorbed.append(domain)
                if demote == 0 and due_zones:
                    for name in due_zones:
                        zone = kernel.zones[name]
                        if zone.governor is not None:
                            with kernel.spans.span(
                                "thermal.zone_poll", zone=name
                            ):
                                zone.poll(now)
                        else:
                            zone.poll(now)
                    for domain, policy in kernel.policies.items():
                        if policy.cur_freq_hz != rec.freqs[domain]:  # repro-lint: disable=R401
                            demote = 2
                            break
                    if demote == 0:
                        for device in kernel.cooling_devices:
                            if device.cur_state != kernel._cooling_states.get(
                                device.name
                            ):
                                demote = 2
                                break
                if demote == 0:
                    survivors.append(rec)
                    continue
                sync_rec(rec, j)
                sim.thermal.detach_state()
                # sync_rec counted and re-armed fires on ticks < j only; the
                # fires absorbed at this very tick are accounted here.
                for domain in absorbed:
                    kernel._m_gov_updates[domain].inc()
                    timer = kernel._governor_timers[domain]
                    timer._next_deadline = gov_fires[domain].deadline_after(j)
                if demote == 1:
                    # The failing domain (and any after it) is still due, so
                    # the scalar step fires it for real.
                    sim.step()
                else:
                    # Governor and zone phases ran above; the zone timers
                    # must sit past this tick before the remaining phases.
                    for name in due_zones:
                        timer = kernel._zone_timers[name]
                        timer._next_deadline = zone_fires[name].deadline_after(j)
                    kernel._phase_daemons(now)
                    kres = kernel._phase_work(now, dt)
                    sim._dispatch(kres.completed_cpu_tags, gpu=False, now_s=now)
                    sim._dispatch(kres.gpu.completed_tags, gpu=True, now_s=now)
                    sim._finish_tick(now, dt, kres)
                demoted.append(sim)
            if demoted:
                self.stats["demotions"] += len(demoted)
                self.stats["scalar_ticks"] += len(demoted)
                live = survivors
                live_rows = np.array([rec.row for rec in live])
            return demoted

        p_mat = np.zeros((len(fast), len(model_rail_index)))
        if board_w > 0.0:
            p_mat[:, model_rail_index[BOARD_RAIL]] = board_w
        for j in range(n):
            with self._ph_step:
                k = k0 + j
                now = k * dt
                newly_scalar: list = []
                if live and j in event_ticks:
                    with self._ph_kernel:
                        newly_scalar = handle_events(j, k, now)
                if live:
                    with self._ph_assemble:
                        rail_vecs = {}
                        for e in range(n_entries):
                            temp = state[:, ent_node[e]]
                            arg = ent_negbeta[e] / temp
                            exp = np.array([math.exp(v) for v in arg.tolist()])
                            leak = ent_kappa[e] * temp * temp * exp * ent_vvr[e]
                            leak = leak * ent_lscale[e]
                            total = ent_dyn[e] + leak
                            if not ent_all_powered[e]:
                                total = np.where(ent_powered[e], total, 0.0)
                            rail_vecs[ent_rail[e]] = total
                            p_mat[:, model_rail_index[ent_rail[e]]] = total
                        battery = None
                        for rail in rail_order:
                            battery = (
                                rail_vecs[rail] if battery is None
                                else battery + rail_vecs[rail]
                            )
                        if board_w > 0.0:
                            battery = battery + board_w
                    with self._ph_thermal:
                        for rec in live:
                            ad, bd, wd_amb, row = therm[rec.row]
                            np.dot(ad, row, out=t_buf1)
                            np.dot(bd, p_mat[rec.row], out=t_buf2)
                            np.add(t_buf1, t_buf2, out=t_buf1)
                            np.add(t_buf1, wd_amb, out=row)
                    with self._ph_assemble:
                        for r, rail in enumerate(ema_rails):
                            col = ema[:, r]
                            ema[:, r] = col + ema_alpha[r] * (
                                rail_vecs[rail] - col
                            )
                        for r, rail in enumerate(energy_rails):
                            if rail in rail_vecs:
                                energy[:, r] = energy[:, r] + rail_vecs[rail] * dt
                            else:
                                energy[:, r] = energy[:, r] + board_w * dt
                        lin += lin_rate
                        if daq0 is not None:
                            batt_buf[j] = battery
                        for rec in live:
                            rec.pending_steps += 1
                    if j in record_fires:
                        with self._ph_record:
                            for rec in live:
                                sim = rec.sim
                                sim.clock.seek(k)
                                watts = {
                                    rail: float(rail_vecs[rail][rec.row])
                                    for rail in rail_order
                                }
                                if board_w > 0.0:
                                    watts[BOARD_RAIL] = board_w
                                sim._record(
                                    now, rec.kres, watts,
                                    float(battery[rec.row]),
                                )
                self.stats["fast_ticks"] += len(live)
                self.stats["scalar_ticks"] += len(scalar)
                for sim in scalar:
                    sim.step()
                scalar.extend(newly_scalar)

        with self._ph_sync:
            for rec in live:
                sync_rec(rec, n)
                rec.sim.thermal.detach_state()
                rec.sim.clock.seek(k0 + n)
