"""Fixed-step simulation clock.

Every component in the simulator advances in lock-step under a single
:class:`Clock`.  The step size is fixed at construction; periodic activities
(governor invocations, sensor sampling) are expressed with
:class:`PeriodicTimer`, which tolerates periods that are not exact multiples
of the step by firing on the first tick at or after each deadline.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError, SimulationError


def ticks_for_duration(duration_s: float, dt_s: float) -> int:
    """Whole ticks covering ``duration_s`` at step ``dt_s``.

    This is the integer form of the engine's historical float loop
    (``while now < end - 1e-9``) evaluated from a tick boundary: the count
    depends only on the duration, never on how much float dust the current
    time has accumulated, so arbitrarily long runs can be sliced into
    back-to-back ``run()`` calls without gaining or losing ticks.
    """
    if dt_s <= 0.0:
        raise ConfigurationError(f"clock step must be positive, got {dt_s}")
    return max(0, math.ceil((duration_s - 1e-9) / dt_s))


class Clock:
    """Monotonic fixed-step simulation time source.

    Parameters
    ----------
    dt:
        Step size in seconds.  Must be positive.

    ``now`` is the current simulation time in seconds, ``tick * dt``.  It is
    stored in ``_now`` by :meth:`advance` and :meth:`seek`, the only two
    places the tick changes, rather than recomputed on every read, because
    every layer of a step reads it.
    """

    def __init__(self, dt: float = 0.01) -> None:
        if dt <= 0.0:
            raise ConfigurationError(f"clock step must be positive, got {dt}")
        self._dt = float(dt)
        self._tick = 0
        self._now = 0.0

    @property
    def dt(self) -> float:
        """Step size in seconds."""
        return self._dt

    @property
    def tick(self) -> int:
        """Number of completed steps since construction."""
        return self._tick

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance(self) -> float:
        """Advance one step and return the new time."""
        self._tick += 1
        self._now = self._tick * self._dt
        return self._now

    def seek(self, tick: int) -> None:
        """Set the completed-step count directly.

        For steppers that run a scenario's ticks outside its own
        :meth:`~repro.sim.engine.Simulation.step` and must leave the clock
        where those steps would have.
        """
        self._tick = tick
        self._now = tick * self._dt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(dt={self._dt}, now={self.now:.3f})"


class PeriodicTimer:
    """Fires at a fixed period against a :class:`Clock`.

    The timer fires on the first ``poll`` whose clock time has reached the
    next deadline.  Deadlines never drift: they are multiples of ``period``
    offset by ``phase``.
    """

    def __init__(self, clock: Clock, period: float, phase: float = 0.0) -> None:
        if period <= 0.0:
            raise ConfigurationError(f"timer period must be positive, got {period}")
        if phase < 0.0:
            raise ConfigurationError(f"timer phase must be non-negative, got {phase}")
        self._clock = clock
        self._period = float(period)
        self._next_deadline = float(phase)

    @property
    def period(self) -> float:
        """Firing period in seconds."""
        return self._period

    @property
    def next_deadline(self) -> float:
        """Simulation time of the next pending fire."""
        return self._next_deadline

    def poll(self) -> bool:
        """Return True exactly once per elapsed period.

        Must be called at least once per clock step; skipping steps would
        make the timer fire late (but never more than once per poll).
        """
        now = self._clock._now
        if now + 1e-12 < self._next_deadline:
            return False
        # Catch up without firing multiple times for one poll.
        while self._next_deadline <= now + 1e-12:
            self._next_deadline += self._period
        return True

    def reset(self, phase: float | None = None) -> None:
        """Re-arm the timer; by default the next fire is one period away."""
        if phase is None:
            self._next_deadline = self._clock.now + self._period
        else:
            if phase < self._clock.now:
                raise SimulationError(
                    f"cannot reset timer into the past (now={self._clock.now}, phase={phase})"
                )
            self._next_deadline = float(phase)
