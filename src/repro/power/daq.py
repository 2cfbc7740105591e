"""External power measurement: the National Instruments DAQ of Section III.

The paper measures the Nexus 6P's battery power with an NI PXIe-4081 at
1 kHz.  The simulated instrument supersamples the simulator's zero-order-held
battery power with additive Gaussian noise.  Samples are retained so the
analysis layer can compute means/energies exactly the way one would from a
real capture.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CalibrationError, ConfigurationError


def sample_window(
    next_sample_s: float, start_s: float, dt_s: float, period_s: float
) -> tuple[float, int, float]:
    """Where the samples of the window ``[start_s, start_s + dt_s)`` fall.

    ``next_sample_s`` is the instrument's next sample time.  Returns
    ``(first_s, count, next_s)``: the window's samples are
    ``first_s + period_s * k`` for ``k < count``, and ``next_s`` is the
    instrument's next sample time after the window (the clamped start when
    the window holds no sample).
    """
    end_s = start_s + dt_s
    first = next_sample_s if next_sample_s >= start_s else start_s
    if first >= end_s:
        return first, 0, first
    count = int((end_s - first) / period_s) + 1
    # Keep only samples strictly inside the window (with an edge margin).
    limit = end_s - 1e-12
    while count > 0 and first + period_s * (count - 1) >= limit:
        count -= 1
    if count == 0:
        return first, 0, first
    return first, count, first + period_s * (count - 1) + period_s


class PowerDaq:
    """1 kHz (configurable) power sampler with Gaussian measurement noise.

    A capture records each window as ``(first sample time, count, watts)``.
    The samples, and their noise, are built on the first read
    (:meth:`samples`, :meth:`mean_power_w`, :meth:`energy_j`): the noise of
    all windows captured since the last read is drawn as one block from the
    instrument's generator.  Nothing else draws from that generator, so
    the values are bit for bit those of drawing each window's noise as it
    is captured.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        sample_rate_hz: float = 1000.0,
        noise_std_w: float = 0.02,
    ) -> None:
        if sample_rate_hz <= 0.0:
            raise ConfigurationError("DAQ sample rate must be positive")
        if noise_std_w < 0.0:
            raise ConfigurationError("DAQ noise std must be non-negative")
        self._rng = rng
        self._rate = sample_rate_hz
        self._period = 1.0 / sample_rate_hz
        self._noise = noise_std_w
        self._next_sample_s = 0.0
        # Windows captured since the last read.
        self._starts: list[float] = []
        self._counts: list[int] = []
        self._watts: list[float] = []
        # Samples built so far.
        self._times_built = np.empty(0)
        self._watts_built = np.empty(0)

    @property
    def sample_rate_hz(self) -> float:
        """Configured sampling rate."""
        return self._rate

    @property
    def noise_std_w(self) -> float:
        """Standard deviation of the additive measurement noise."""
        return self._noise

    @property
    def next_sample_s(self) -> float:
        """Time of the next sample the instrument takes."""
        return self._next_sample_s

    def capture(self, start_s: float, dt_s: float, power_w: float) -> None:
        """Record the samples falling inside ``[start_s, start_s + dt_s)``.

        The simulator holds ``power_w`` constant over the tick (ZOH), so all
        samples in the window share the mean and differ only by noise.
        """
        first, count, self._next_sample_s = sample_window(
            self._next_sample_s, start_s, dt_s, self._period
        )
        if count:
            self._starts.append(first)
            self._counts.append(count)
            self._watts.append(power_w)

    def extend(self, starts, counts, watts, next_sample_s: float) -> None:
        """Record many captured windows at once (each with ``count >= 1``).

        The batch stepper's form of repeated :meth:`capture` calls, whose
        windows it lays out with :func:`sample_window`.
        """
        self._starts.extend(starts)
        self._counts.extend(counts)
        self._watts.extend(watts)
        self._next_sample_s = next_sample_s

    def _built(self) -> tuple[np.ndarray, np.ndarray]:
        """Build the pending windows' samples; the (internal) sample arrays."""
        if self._counts:
            counts = np.array(self._counts)
            total = int(counts.sum())
            offsets = np.repeat(np.cumsum(counts) - counts, counts)
            times = np.repeat(np.array(self._starts), counts) + self._period * (
                np.arange(total) - offsets
            )
            watts = np.repeat(np.array(self._watts, dtype=float), counts)
            if self._noise > 0.0:
                watts = watts + self._rng.normal(0.0, self._noise, size=total)
            self._times_built = np.concatenate((self._times_built, times))
            self._watts_built = np.concatenate((self._watts_built, watts))
            self._starts.clear()
            self._counts.clear()
            self._watts.clear()
        return self._times_built, self._watts_built

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """All captured ``(times, watts)`` so far."""
        times, watts = self._built()
        return times.copy(), watts.copy()

    def mean_power_w(self, start_s: float | None = None, end_s: float | None = None) -> float:
        """Average measured power over a window (whole capture by default).

        Raises :class:`~repro.errors.CalibrationError` when the capture (or
        the requested window) is empty — a degenerate capture can never
        support a calibration-grade mean.
        """
        times, watts = self._built()
        if times.size == 0:
            raise CalibrationError("DAQ has captured no samples")
        mask = np.ones(times.size, dtype=bool)
        if start_s is not None:
            mask &= times >= start_s
        if end_s is not None:
            mask &= times < end_s
        if not mask.any():
            raise CalibrationError("DAQ window contains no samples")
        return float(watts[mask].mean())

    def energy_j(self) -> float:
        """Integrated energy of the capture (trapezoidal).

        Raises :class:`~repro.errors.CalibrationError` on empty or
        single-sample captures: the trapezoid rule has no interval to
        integrate, and silently returning 0 J would poison energy fits.
        """
        times, watts = self._built()
        if times.size < 2:
            raise CalibrationError(
                "need at least two DAQ samples to integrate energy"
            )
        return float(np.trapezoid(watts, times))
