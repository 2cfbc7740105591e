"""Deferred DAQ capture equals per-tick capture, bit for bit.

``PowerDaq.capture`` records each window as ``(first, count, watts)`` and
builds the samples, drawing their noise in one block, on the first read.
The oracle below is the per-tick arithmetic it replaced: build each
window's sample times and noise as it is captured.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.daq import PowerDaq
from repro.sim.rng import RngRegistry


class PerTickDaq:
    """The per-tick capture: each window's samples built when captured."""

    def __init__(self, rng, sample_rate_hz, noise_std_w):
        self._rng = rng
        self._rate = sample_rate_hz
        self._noise = noise_std_w
        self._chunks = []
        self._time_chunks = []
        self._next_sample_s = 0.0

    def capture(self, start_s, dt_s, power_w):
        end_s = start_s + dt_s
        period = 1.0 / self._rate
        if self._next_sample_s < start_s:
            self._next_sample_s = start_s
        n = int((end_s - self._next_sample_s) / period) + 1
        if self._next_sample_s >= end_s:
            n = 0
        if n <= 0:
            return
        times = self._next_sample_s + period * np.arange(n)
        times = times[times < end_s - 1e-12]
        n = times.size
        if n == 0:
            return
        samples = np.full(n, power_w)
        if self._noise > 0.0:
            samples = samples + self._rng.normal(0.0, self._noise, size=n)
        self._chunks.append(samples)
        self._time_chunks.append(times)
        self._next_sample_s = float(times[-1]) + period

    def samples(self):
        if not self._chunks:
            return np.empty(0), np.empty(0)
        return np.concatenate(self._time_chunks), np.concatenate(self._chunks)


def pair(seed, rate_hz, noise_w):
    deferred = PowerDaq(
        RngRegistry(seed).stream("daq"), sample_rate_hz=rate_hz, noise_std_w=noise_w
    )
    oracle = PerTickDaq(RngRegistry(seed).stream("daq"), rate_hz, noise_w)
    return deferred, oracle


def assert_same(deferred, oracle):
    times, watts = deferred.samples()
    want_times, want_watts = oracle.samples()
    assert times.dtype == want_times.dtype and watts.dtype == want_watts.dtype
    assert times.tobytes() == want_times.tobytes()
    assert watts.tobytes() == want_watts.tobytes()
    assert deferred.next_sample_s == oracle._next_sample_s


ticks = st.lists(
    st.tuples(
        st.sampled_from([0.01, 0.005, 0.0123, 0.1]),
        st.floats(0.0, 12.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=0,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rate_hz=st.sampled_from([1000.0, 300.0, 7.0, 44.1, 1.0]),
    noise_w=st.sampled_from([0.0, 0.02, 0.5]),
    steps=ticks,
    reads=st.sets(st.integers(0, 59), max_size=4),
)
def test_deferred_capture_matches_per_tick(seed, rate_hz, noise_w, steps, reads):
    deferred, oracle = pair(seed, rate_hz, noise_w)
    now = 0.0
    for i, (dt, watts) in enumerate(steps):
        deferred.capture(now, dt, watts)
        oracle.capture(now, dt, watts)
        if i in reads:
            # A read mid-run builds (and draws) what is pending; the run
            # then resumes on the same stream.
            assert_same(deferred, oracle)
        now += dt
    assert_same(deferred, oracle)


@pytest.mark.parametrize("rate_hz", [300.0, 7.0])
def test_rates_that_do_not_divide_the_step(rate_hz):
    deferred, oracle = pair(5, rate_hz, 0.02)
    for k in range(400):
        deferred.capture(k * 0.01, 0.01, 1.0 + 0.001 * k)
        oracle.capture(k * 0.01, 0.01, 1.0 + 0.001 * k)
    assert_same(deferred, oracle)
    assert deferred.mean_power_w() == float(oracle.samples()[1].mean())


def test_empty_windows_keep_the_clamp():
    # 7 Hz against 10 ms ticks: most windows hold no sample, and the next
    # sample time still follows the window start.
    deferred, oracle = pair(1, 7.0, 0.02)
    for k in range(10):
        deferred.capture(1.0 + k * 0.01, 0.01, 2.0)
        oracle.capture(1.0 + k * 0.01, 0.01, 2.0)
        assert deferred.next_sample_s == oracle._next_sample_s
    assert_same(deferred, oracle)


def test_edge_filter_drops_a_sample_at_the_window_end():
    # A sample landing within 1e-12 s of the window's end belongs to the
    # next window.
    deferred, oracle = pair(2, 1000.0, 0.02)
    start, dt = 0.0, 0.003 + 5e-13
    deferred.capture(start, dt, 1.5)
    oracle.capture(start, dt, 1.5)
    times, _ = deferred.samples()
    assert times.size == 3
    assert_same(deferred, oracle)
    deferred.capture(start + dt, 0.01, 1.5)
    oracle.capture(start + dt, 0.01, 1.5)
    assert_same(deferred, oracle)


def test_reads_return_copies():
    deferred, _ = pair(3, 1000.0, 0.02)
    deferred.capture(0.0, 0.01, 1.0)
    times, watts = deferred.samples()
    watts[:] = -1.0
    assert deferred.mean_power_w() > 0.0
    assert deferred.samples()[0].tobytes() == times.tobytes()
