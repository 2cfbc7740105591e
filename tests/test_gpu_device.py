"""GPU FIFO device."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulingError
from repro.kernel.gpu import GpuDevice


def test_submit_and_complete():
    gpu = GpuDevice()
    gpu.submit("game", 1e6, tag=("game", 1))
    result = gpu.run_tick(200e6, 0.01)  # capacity 2e6
    assert result.completed_tags == [("game", 1)]
    assert result.busy_fraction == pytest.approx(0.5)


def test_fifo_order():
    gpu = GpuDevice()
    gpu.submit("a", 1e6, tag="f1")
    gpu.submit("a", 1e6, tag="f2")
    result = gpu.run_tick(150e6, 0.01)  # capacity 1.5e6: f1 done, f2 half
    assert result.completed_tags == ["f1"]
    assert gpu.backlog_cycles == pytest.approx(0.5e6)


def test_busy_fraction_saturates():
    gpu = GpuDevice()
    gpu.submit("a", 1e9)
    result = gpu.run_tick(100e6, 0.01)
    assert result.busy_fraction == pytest.approx(1.0)


def test_idle_device():
    gpu = GpuDevice()
    result = gpu.run_tick(100e6, 0.01)
    assert result.busy_fraction == 0.0
    assert result.completed_tags == []


def test_owner_accounting():
    gpu = GpuDevice()
    gpu.submit("a", 1e6)
    gpu.submit("b", 1e6)
    result = gpu.run_tick(200e6, 0.01)
    assert result.owner_cycles["a"] == pytest.approx(1e6)
    assert result.owner_cycles["b"] == pytest.approx(1e6)


def test_queue_depth():
    gpu = GpuDevice()
    gpu.submit("a", 1e6)
    gpu.submit("a", 1e6)
    assert gpu.queue_depth == 2


def test_invalid_submit():
    gpu = GpuDevice()
    with pytest.raises(SchedulingError):
        gpu.submit("a", 0.0)


def test_invalid_dt():
    gpu = GpuDevice()
    with pytest.raises(SchedulingError):
        gpu.run_tick(100e6, 0.0)


def _reference_run_tick(gpu, freq_hz, dt_s):
    """The fair/FIFO loops as they stood before the one-owner drain."""
    capacity = freq_hz * dt_s
    remaining = capacity
    completed = []
    owner_cycles = {}
    if gpu.scheduling == "fifo":
        for owner in list(gpu._queues):
            remaining -= gpu._drain_owner(owner, remaining, completed, owner_cycles)
            if remaining <= 1e-9:
                break
    else:
        while remaining > 1e-9:
            pending = [o for o, q in gpu._queues.items() if q]
            if not pending:
                break
            share = remaining / len(pending)
            used_this_round = 0.0
            for owner in pending:
                used_this_round += gpu._drain_owner(
                    owner, share, completed, owner_cycles
                )
            if used_this_round <= 1e-9:
                break
            remaining -= used_this_round
    for owner in [o for o, q in gpu._queues.items() if not q]:
        del gpu._queues[owner]
    busy = 0.0 if capacity <= 0.0 else (capacity - remaining) / capacity
    return min(busy, 1.0), completed, owner_cycles


def _queue_state(gpu):
    return [
        (owner, [(job.cycles.hex(), job.tag) for job in queue])
        for owner, queue in gpu._queues.items()
    ]


@given(
    scheduling=st.sampled_from(["fair", "fifo"]),
    freq_hz=st.sampled_from([0.0, 1e-9, 100e6, 600e6]),
    ticks=st.lists(
        st.lists(
            st.one_of(
                st.floats(1e-12, 1e-9),  # jobs that are already dust
                st.floats(1.0, 1e7),
                # Within 1e-9 of a tick's capacity (1e6 at 100 MHz).
                st.floats(-2e-9, 2e-9).map(lambda d: 1e6 + d),
            ),
            max_size=4,
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=300, deadline=None)
def test_one_owner_tick_matches_the_reference_loops(scheduling, freq_hz, ticks):
    gpu = GpuDevice(scheduling=scheduling)
    ref = GpuDevice(scheduling=scheduling)
    n = 0
    for jobs in ticks:
        for cycles in jobs:
            gpu.submit("app", cycles, tag=n)
            ref.submit("app", cycles, tag=n)
            n += 1
        result = gpu.run_tick(freq_hz, 0.01)
        busy, completed, owner_cycles = _reference_run_tick(ref, freq_hz, 0.01)
        assert result.busy_fraction.hex() == busy.hex()
        assert result.completed_tags == completed
        assert {o: c.hex() for o, c in result.owner_cycles.items()} == {
            o: c.hex() for o, c in owner_cycles.items()
        }
        assert _queue_state(gpu) == _queue_state(ref)
