"""DVFS policy objects (cpufreq policies and the GPU devfreq policy).

A :class:`DvfsPolicy` owns the current frequency of one frequency domain
(with its OPP index and kHz value, kept in step on every change), the user
min/max limits, the *thermal* cap imposed by cooling devices, the
``time_in_state`` residency accounting that the paper's Figures 2/4/6 are
built from, and the utilisation window its governor consumes.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.soc.opp import OppTable


class DvfsPolicy:
    """Frequency-domain state: current OPP, limits, residency, utilisation."""

    def __init__(
        self,
        name: str,
        opps: OppTable,
        initial_freq_hz: float | None = None,
    ) -> None:
        self.name = name
        self.opps = opps
        self._user_min_hz = opps.min_freq_hz
        self._user_max_hz = opps.max_freq_hz
        self._thermal_max_hz = opps.max_freq_hz
        start = opps.max_freq_hz if initial_freq_hz is None else initial_freq_hz
        self._cur_index = opps.floor_index(opps.clamp(start))
        self._cur_freq_hz = opps[self._cur_index].freq_hz
        self._khz = opps.frequencies_khz()
        self._cur_khz = self._khz[self._cur_index]
        self._time_in_state: dict[int, float] = {khz: 0.0 for khz in self._khz}
        self._total_transitions = 0
        self._transitions: dict[tuple[int, int], int] = {}
        self._busy_integral_s = 0.0
        self._elapsed_s = 0.0
        self._last_util = 0.0
        self._last_mean_util = 0.0
        self._boost_until_s = -1.0
        self._last_raise_s = -1.0

    # -------------------------------------------------------------- limits

    @property
    def cur_freq_hz(self) -> float:
        """Current operating frequency."""
        return self._cur_freq_hz

    @property
    def cur_index(self) -> int:
        """Index of the current OPP in :attr:`opps`."""
        return self._cur_index

    @property
    def cur_khz(self) -> int:
        """Current frequency in kHz, the ``time_in_state`` key."""
        return self._cur_khz

    @property
    def user_min_hz(self) -> float:
        """scaling_min_freq."""
        return self._user_min_hz

    @property
    def user_max_hz(self) -> float:
        """scaling_max_freq."""
        return self._user_max_hz

    @property
    def thermal_max_hz(self) -> float:
        """Cap currently imposed by cooling devices."""
        return self._thermal_max_hz

    @property
    def effective_max_hz(self) -> float:
        """Lowest of the user and thermal caps."""
        return min(self._user_max_hz, self._thermal_max_hz)

    def set_user_limits(self, min_hz: float, max_hz: float) -> None:
        """Set scaling_min_freq / scaling_max_freq."""
        if min_hz > max_hz:
            raise ConfigurationError(
                f"policy {self.name!r}: min {min_hz} above max {max_hz}"
            )
        self._user_min_hz = self.opps.clamp(min_hz)
        self._user_max_hz = self.opps.clamp(max_hz)
        self._reclamp()

    def set_thermal_max(self, max_hz: float) -> None:
        """Apply a cooling-device cap (use table max to lift it)."""
        self._thermal_max_hz = self.opps.clamp(max_hz)
        self._reclamp()

    def _reclamp(self) -> None:
        index = self._cur_index
        if self._cur_freq_hz > self.effective_max_hz:
            index = self.opps.floor_index(self.effective_max_hz)
        if self.opps[index].freq_hz < self._user_min_hz:
            index = self.opps.ceil_index(self._user_min_hz)
        self._commit(index)

    def _commit(self, index: int) -> None:
        """Record and apply a change to the OPP at ``index``."""
        khz = self._khz[index]
        if index != self._cur_index:
            self._total_transitions += 1
            key = (self._cur_khz, khz)
            self._transitions[key] = self._transitions.get(key, 0) + 1
        self._cur_index = index
        self._cur_freq_hz = self.opps[index].freq_hz
        self._cur_khz = khz

    def set_target(self, freq_hz: float, now_s: float | None = None) -> float:
        """Request a frequency; it is clamped to limits and snapped to an OPP.

        Returns the frequency actually set.  ``now_s`` lets the policy track
        when the frequency was last raised (used by interactive-style
        hysteresis).
        """
        clamped = min(max(freq_hz, self._user_min_hz), self.effective_max_hz)
        # Snap up so a demand between OPPs is satisfied, then re-clamp.
        index = self.opps.ceil_index(clamped)
        if self.opps[index].freq_hz > self.effective_max_hz:
            index = self.opps.floor_index(self.effective_max_hz)
        if now_s is not None and index > self._cur_index:
            self._last_raise_s = now_s
        self._commit(index)
        return self._cur_freq_hz

    @property
    def last_raise_s(self) -> float:
        """Time of the most recent frequency increase (-1 if never)."""
        return self._last_raise_s

    # --------------------------------------------------------- accounting

    def account(
        self, dt_s: float, busy_fraction: float, mean_util: float | None = None
    ) -> None:
        """Record one tick of residency and utilisation at the current OPP.

        ``busy_fraction`` is what per-CPU governors react to (the busiest
        core); ``mean_util`` is the whole-domain average used for power
        estimation (defaults to ``busy_fraction`` for single-unit domains).
        """
        khz = self._cur_khz
        self._time_in_state[khz] = self._time_in_state.get(khz, 0.0) + dt_s
        self._busy_integral_s += busy_fraction * dt_s
        self._elapsed_s += dt_s
        self._last_util = busy_fraction
        self._last_mean_util = busy_fraction if mean_util is None else mean_util

    def take_utilization(self) -> float:
        """Average busy fraction since the last call (and reset the window)."""
        if self._elapsed_s <= 0.0:
            return self._last_util
        util = self._busy_integral_s / self._elapsed_s
        self._busy_integral_s = 0.0
        self._elapsed_s = 0.0
        return util

    @property
    def last_util(self) -> float:
        """Busy fraction of the most recent accounted tick (busiest core)."""
        return self._last_util

    @property
    def last_mean_util(self) -> float:
        """Whole-domain mean utilisation of the most recent tick."""
        return self._last_mean_util

    @property
    def time_in_state(self) -> dict[int, float]:
        """Seconds spent at each frequency, keyed by kHz (sysfs format)."""
        return dict(self._time_in_state)

    def reset_time_in_state(self) -> None:
        """Zero the residency counters (e.g. at measurement start)."""
        for khz in self._time_in_state:
            self._time_in_state[khz] = 0.0

    @property
    def total_transitions(self) -> int:
        """Number of frequency changes so far (cpufreq stats/total_trans)."""
        return self._total_transitions

    @property
    def transitions(self) -> dict[tuple[int, int], int]:
        """(from_khz, to_khz) -> count, the devfreq trans_stat matrix."""
        return dict(self._transitions)

    # -------------------------------------------------------------- boost

    def notify_input(self, now_s: float, duration_s: float = 0.5) -> None:
        """Signal a user-input event (interactive governor boost)."""
        self._boost_until_s = max(self._boost_until_s, now_s + duration_s)

    def boosted(self, now_s: float) -> bool:
        """Whether an input boost is currently active."""
        return now_s < self._boost_until_s
