"""On-board rail power sensors (INA231-style).

The Odroid-XU3 exposes four TI INA231 current/power monitors (big cluster,
LITTLE cluster, GPU, memory).  The device averages over a conversion window
and quantises; software reads it over I2C via sysfs.  We model that as an
exponential moving average of the true rail power plus multiplicative
measurement noise, which is what the paper's proposed governor consumes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError


class RailPowerSensor:
    """EMA-averaged, noisy power reading for one rail."""

    def __init__(
        self,
        rail: str,
        rng: np.random.Generator,
        averaging_tau_s: float = 0.1,
        noise_rel: float = 0.01,
        quantum_w: float = 0.001,
    ) -> None:
        if averaging_tau_s <= 0.0:
            raise ConfigurationError(f"sensor {rail!r}: averaging tau must be > 0")
        if noise_rel < 0.0 or quantum_w < 0.0:
            raise ConfigurationError(f"sensor {rail!r}: negative noise/quantum")
        self.rail = rail
        self._rng = rng
        self._tau = averaging_tau_s
        self._noise_rel = noise_rel
        self._quantum = quantum_w
        self._ema_w: float | None = None
        self._alpha_dt = 0.0  # the step ``_alpha`` was computed for
        self._alpha = 0.0

    def update(self, power_w: float, dt_s: float) -> None:
        """Feed one tick of true rail power into the averaging window."""
        if power_w < 0.0:
            raise ConfigurationError(f"sensor {self.rail!r}: negative power")
        if self._ema_w is None:
            self._ema_w = power_w
            return
        if dt_s != self._alpha_dt:  # repro-lint: disable=R401
            self._alpha = 1.0 - math.exp(-dt_s / self._tau)
            self._alpha_dt = dt_s
        self._ema_w += self._alpha * (power_w - self._ema_w)

    def read_w(self) -> float:
        """One measurement in watts (0.0 before the first update)."""
        if self._ema_w is None:
            return 0.0
        value = self._ema_w
        if self._noise_rel > 0.0:
            value *= 1.0 + self._rng.normal(0.0, self._noise_rel)
        if self._quantum > 0.0:
            value = round(value / self._quantum) * self._quantum
        return max(value, 0.0)
