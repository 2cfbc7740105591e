"""Property-based tests of the scheduler and OPP tables (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.scheduler import (
    Scheduler,
    _lone_grant,
    _water_fill,
    _weighted_water_fill,
)
from repro.kernel.task import nice_to_weight
from repro.soc.components import ClusterSpec, LeakageParams
from repro.soc.opp import OppTable


@given(
    capacity=st.floats(0.0, 1e9),
    ceilings=st.lists(st.floats(0.0, 1e8), min_size=0, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_water_fill_conserves_and_caps(capacity, ceilings):
    grants = _water_fill(capacity, ceilings)
    assert len(grants) == len(ceilings)
    # Never exceeds capacity or any ceiling.
    assert sum(grants) <= capacity + 1e-6
    for grant, ceiling in zip(grants, ceilings):
        assert 0.0 <= grant <= ceiling + 1e-6
    # Work-conserving: either capacity or every ceiling is exhausted.
    slack = capacity - sum(grants)
    if slack > 1e-6:
        assert sum(grants) == pytest.approx(sum(ceilings), rel=1e-9, abs=1e-6)


@given(
    capacity=st.floats(1.0, 1e6),
    ceilings=st.lists(st.floats(1.0, 1e6), min_size=2, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_water_fill_fairness(capacity, ceilings):
    """No consumer with unmet demand receives less than another's grant."""
    grants = _water_fill(capacity, ceilings)
    for i, (grant_i, ceil_i) in enumerate(zip(grants, ceilings)):
        if grant_i < ceil_i - 1e-6:  # consumer i still wanted more
            assert grant_i >= max(grants) - 1e-6


@st.composite
def freq_ladders(draw):
    n = draw(st.integers(2, 12))
    freqs = sorted(draw(st.sets(st.integers(100, 3000), min_size=n, max_size=n)))
    v0 = draw(st.floats(0.5, 0.9))
    v1 = draw(st.floats(1.0, 1.4))
    pairs = [
        (f * 1e6, v0 + (v1 - v0) * i / (len(freqs) - 1))
        for i, f in enumerate(freqs)
    ]
    return OppTable.from_pairs(pairs)


@given(table=freq_ladders(), freq=st.floats(50e6, 4000e6))
@settings(max_examples=200, deadline=None)
def test_opp_floor_ceil_bracket(table, freq):
    floor = table.floor(freq).freq_hz
    ceil = table.ceil(freq).freq_hz
    assert floor <= ceil
    if table.min_freq_hz <= freq <= table.max_freq_hz:
        assert floor <= freq + 0.5
        assert ceil + 0.5 >= freq


@given(table=freq_ladders())
@settings(max_examples=100, deadline=None)
def test_opp_voltage_monotone(table):
    volts = [p.voltage_v for p in table]
    assert all(b >= a for a, b in zip(volts, volts[1:]))


@given(
    n_tasks=st.integers(0, 6),
    freq_mhz=st.integers(200, 2000),
    dt=st.floats(0.001, 0.1),
)
@settings(max_examples=100, deadline=None)
def test_scheduler_busy_cores_bounded(n_tasks, freq_mhz, dt):
    opps = OppTable.from_pairs([(200e6, 0.9), (2000e6, 1.3)])
    leak = LeakageParams(kappa_w_per_k2=1e-4, beta_k=1650.0)
    spec = ClusterSpec("c", "t", 4, opps, 1e-10, leak, ipc=1.5)
    sched = Scheduler({"c": spec})
    for i in range(n_tasks):
        sched.spawn(f"t{i}", "c", unbounded=True)
    usage = sched.run_tick({"c": freq_mhz * 1e6}, dt).usage["c"]
    assert 0.0 <= usage.busy_cores <= 4.0 + 1e-9
    assert usage.busy_cores == pytest.approx(min(n_tasks, 4), abs=1e-6)
    assert 0.0 <= usage.max_core_load <= 1.0


@given(
    works=st.lists(st.floats(1e4, 1e7), min_size=1, max_size=5),
    freq_mhz=st.integers(200, 2000),
)
@settings(max_examples=100, deadline=None)
def test_scheduler_work_conservation(works, freq_mhz):
    """Total consumed cycles equals min(total backlog, capacity)."""
    opps = OppTable.from_pairs([(200e6, 0.9), (2000e6, 1.3)])
    leak = LeakageParams(kappa_w_per_k2=1e-4, beta_k=1650.0)
    spec = ClusterSpec("c", "t", 4, opps, 1e-10, leak, ipc=1.0)
    sched = Scheduler({"c": spec})
    for i, cycles in enumerate(works):
        task = sched.spawn(f"t{i}", "c")
        task.add_work(cycles)
    usage = sched.run_tick({"c": freq_mhz * 1e6}, 0.01).usage["c"]
    per_core = usage.capacity_cycles / 4
    expected = sum(min(w, per_core) for w in works)
    expected = min(expected, usage.capacity_cycles)
    assert usage.used_cycles == pytest.approx(expected, rel=1e-9)


@st.composite
def lone_fills(draw):
    """(capacity, ceiling) pairs around every branch of a one-task fill."""
    capacity = draw(
        st.one_of(st.just(0.0), st.floats(0.0, 2e-12), st.floats(0.0, 1e10))
    )
    ceiling = draw(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 1e-12),
            st.floats(0.0, 1e10),
            # Above capacity, at it, and within the fill's 1e-12 slack.
            st.floats(1.0, 10.0).map(lambda f: capacity * f),
            st.floats(-2e-12, 2e-12).map(lambda d: max(capacity + d, 0.0)),
        )
    )
    return capacity, ceiling


@given(fill=lone_fills(), nice=st.integers(-5, 5))
@settings(max_examples=300, deadline=None)
def test_lone_grant_is_the_water_fill_bit_for_bit(fill, nice):
    capacity, ceiling = fill
    weight = nice_to_weight(nice)
    expected = _weighted_water_fill(capacity, [ceiling], [weight])[0]
    assert _lone_grant(capacity, ceiling, weight).hex() == expected.hex()


@given(
    nice=st.integers(-5, 5),
    quota=st.floats(1e-3, 1.0),
    unbounded=st.booleans(),
    backlog=st.one_of(st.floats(1e-13, 1e-12), st.floats(1e-13, 1e8)),
    n_threads=st.integers(1, 6),
    freq_hz=st.sampled_from([0.0, 200e6, 2000e6]),
)
@settings(max_examples=200, deadline=None)
def test_scheduler_lone_task_matches_the_water_fill(
    nice, quota, unbounded, backlog, n_threads, freq_hz
):
    """A cluster's only runnable task gets exactly the water-fill grant."""
    opps = OppTable.from_pairs([(200e6, 0.9), (2000e6, 1.3)])
    leak = LeakageParams(kappa_w_per_k2=1e-4, beta_k=1650.0)
    spec = ClusterSpec("c", "t", 4, opps, 1e-10, leak, ipc=1.5)
    sched = Scheduler({"c": spec})
    task = sched.spawn("t", "c", n_threads=n_threads, unbounded=unbounded, nice=nice)
    task.set_cpu_quota(quota)
    task.add_work(backlog)
    dt = 0.01
    capacity = spec.capacity_cycles(freq_hz, dt)
    ceiling = task.demand_cycles(capacity / spec.n_cores)
    (grant,) = _weighted_water_fill(capacity, [ceiling], [task.weight])
    usage = sched.run_tick({"c": freq_hz}, dt).usage["c"]
    if grant > 0.0:
        assert usage.per_task_cycles == {task.pid: grant}
        assert usage.used_cycles.hex() == grant.hex()
    else:
        assert usage.per_task_cycles == {}
        assert usage.used_cycles == 0.0
