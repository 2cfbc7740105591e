"""State-space thermal simulation with exact linear-step discretisation.

The linear RC dynamics are discretised once with the matrix exponential
(zero-order hold on the power inputs), so the integration is exact for the
linear part at any step size.  Temperature-dependent leakage enters through
the power inputs recomputed every step by the engine, i.e. the nonlinearity
is handled explicitly — accurate for steps far below the thermal time
constants (milliseconds vs. tens of seconds) and able to reproduce genuine
thermal runaway.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from scipy.linalg import expm

from repro.errors import ConfigurationError, SimulationError
from repro.thermal.rc_network import ThermalNetworkSpec


class ThermalModel:
    """Discrete-time simulator for a :class:`ThermalNetworkSpec`.

    Parameters
    ----------
    spec:
        The network description.
    dt_s:
        Fixed step size in seconds.
    ambient_k:
        Ambient temperature in kelvin (changeable at runtime).
    initial_k:
        Initial temperature of every node; defaults to the ambient.
    integrator:
        ``"zoh"`` (default) discretises with the matrix exponential — exact
        for the linear dynamics under zero-order-held power inputs at any
        step size.  ``"euler"`` uses the explicit forward-Euler update
        ``Ad = I + A·dt``; it is first-order accurate and only offered as a
        reference stepper for convergence testing.
    """

    INTEGRATORS = ("zoh", "euler")

    def __init__(
        self,
        spec: ThermalNetworkSpec,
        dt_s: float,
        ambient_k: float = 298.15,
        initial_k: float | None = None,
        integrator: str = "zoh",
    ) -> None:
        if dt_s <= 0.0:
            raise ConfigurationError(f"thermal step must be positive, got {dt_s}")
        if integrator not in self.INTEGRATORS:
            raise ConfigurationError(
                f"unknown thermal integrator {integrator!r}; "
                f"choose from {self.INTEGRATORS}"
            )
        self._integrator = integrator
        self._base_spec = spec
        self._dt = float(dt_s)
        self._ambient_k = float(ambient_k)
        self._nodes = spec.node_names
        self._rails = spec.rail_names
        self._node_index = {name: i for i, name in enumerate(self._nodes)}
        self._rail_index = {name: i for i, name in enumerate(self._rails)}
        self._ambient_scale = 1.0
        self._configure(spec)

        start = self._ambient_k if initial_k is None else float(initial_k)
        self._state = np.full(len(self._nodes), start, dtype=float)

    def _configure(self, spec) -> None:
        """(Re)discretise the network; node temperatures are untouched."""
        self._spec = spec
        a_mat, b_mat, w_vec = spec.build_matrices()
        self._a = a_mat
        self._b = b_mat
        self._w = w_vec
        try:
            a_inv = np.linalg.inv(a_mat)
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError(
                "thermal network has no path to ambient (A is singular)"
            ) from exc
        # Hurwitz check at build time: every continuous-time eigenvalue must
        # sit strictly in the left half-plane, otherwise the network is not
        # passive and no discretisation of it is trustworthy.
        eigenvalues = np.linalg.eigvals(a_mat)
        self._slowest_pole = max(ev.real for ev in eigenvalues)
        if self._slowest_pole >= 0.0:
            raise ConfigurationError(
                "thermal network is not passive (A is not Hurwitz: "
                f"max Re(eig) = {self._slowest_pole:g})"
            )
        if self._integrator == "euler":
            self._ad = np.eye(len(self._nodes)) + a_mat * self._dt
            self._bd = b_mat * self._dt
            self._wd = w_vec * self._dt
        else:
            self._ad = expm(a_mat * self._dt)
            gain = a_inv @ (self._ad - np.eye(len(self._nodes)))
            self._bd = gain @ b_mat
            self._wd = gain @ w_vec
        self._a_inv = a_inv
        self._wd_ambient = self._wd * self._ambient_k
        self._buf_a = np.empty(len(self._nodes))
        self._buf_b = np.empty(len(self._nodes))

    @property
    def dt_s(self) -> float:
        """Step size in seconds."""
        return self._dt

    @property
    def integrator(self) -> str:
        """Discretisation mode: ``"zoh"`` or ``"euler"``."""
        return self._integrator

    @property
    def discrete_system(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The discretised ``(Ad, Bd, wd)`` of ``T' = Ad·T + Bd·P + wd·T_amb``.

        These are the live arrays (not copies): callers such as
        :class:`repro.sim.batch.BatchSimulation` compare and reuse them
        across stacked scenarios but must not mutate them.
        """
        return self._ad, self._bd, self._wd

    def adopt_state(self, row: np.ndarray) -> None:
        """Rebind the node-temperature vector to externally owned storage.

        ``row`` (shape ``(n_nodes,)``, typically a row view of a stacked
        ``(N, nodes)`` batch state) receives the current temperatures and
        becomes the live state: sensors attached to this model keep reading
        current values while a batch stepper updates the row in place.
        """
        if row.shape != self._state.shape:
            raise SimulationError(
                f"state shape mismatch: {row.shape} != {self._state.shape}"
            )
        row[:] = self._state
        self._state = row

    def detach_state(self) -> None:
        """Give the model back its own state storage (undoes adopt_state)."""
        self._state = self._state.copy()

    @property
    def node_names(self) -> tuple[str, ...]:
        """State-vector node order."""
        return self._nodes

    @property
    def rail_names(self) -> tuple[str, ...]:
        """Power-input rail order."""
        return self._rails

    @property
    def ambient_k(self) -> float:
        """Current ambient temperature in kelvin."""
        return self._ambient_k

    def set_ambient(self, ambient_k: float) -> None:
        """Change the ambient temperature (takes effect next step)."""
        self._ambient_k = float(ambient_k)
        self._wd_ambient = self._wd * self._ambient_k

    @property
    def ambient_conductance_scale(self) -> float:
        """Current multiplier on every node-to-ambient conductance."""
        return self._ambient_scale

    def set_ambient_conductance_scale(self, scale: float) -> None:
        """Scale every node-to-ambient link and re-discretise the network.

        Models degraded convection at runtime — a fan stopping, blocked
        case vents — while preserving the node temperatures.  ``scale=1``
        restores the as-built network.  The rebuild is exact: the matrix
        exponential is recomputed from the scaled continuous-time network,
        so integration accuracy is unchanged.
        """
        if scale <= 0.0:
            raise ConfigurationError(
                f"ambient conductance scale must be positive, got {scale}"
            )
        from dataclasses import replace

        from repro.thermal.rc_network import AMBIENT

        links = tuple(
            replace(link, conductance_w_per_k=link.conductance_w_per_k * scale)
            if AMBIENT in (link.node_a, link.node_b) else link
            for link in self._base_spec.links
        )
        self._ambient_scale = float(scale)
        self._configure(replace(self._base_spec, links=links))

    def set_state(self, temps_k: Mapping[str, float]) -> None:
        """Overwrite node temperatures (e.g. to start a warm device)."""
        for name, value in temps_k.items():
            self._state[self._index(name)] = float(value)

    def _index(self, node: str) -> int:
        try:
            return self._node_index[node]
        except KeyError:
            raise SimulationError(
                f"unknown thermal node {node!r}; nodes: {list(self._nodes)}"
            ) from None

    def _power_vector(self, rail_powers: Mapping[str, float]) -> np.ndarray:
        p = np.zeros(len(self._rails))
        for rail, watts in rail_powers.items():
            idx = self._rail_index.get(rail)
            if idx is None:
                raise SimulationError(
                    f"unknown power rail {rail!r}; rails: {list(self._rails)}"
                )
            if watts < 0.0:
                raise SimulationError(f"rail {rail!r}: negative power {watts}")
            p[idx] = watts
        return p

    def step(self, rail_powers: Mapping[str, float]) -> None:
        """Advance one step with the given per-rail powers held constant."""
        self.step_in_place(self._power_vector(rail_powers))

    def step_in_place(self, p: np.ndarray) -> None:
        """Advance one step from a prebuilt power vector, updating in place.

        ``T' = Ad·T + Bd·p + wd·T_amb``, evaluated in that order into
        preallocated buffers.  The engine's hot path: ``p`` is already in
        :attr:`rail_names` order (no dict mapping, no validation — the
        caller checks its rails once and its powers every tick) and the
        state array object is preserved so external row views stay live.
        """
        np.dot(self._ad, self._state, out=self._buf_a)
        np.dot(self._bd, p, out=self._buf_b)
        np.add(self._buf_a, self._buf_b, out=self._buf_a)
        np.add(self._buf_a, self._wd_ambient, out=self._state)

    def temperature_k(self, node: str) -> float:
        """Current temperature of ``node`` in kelvin."""
        return float(self._state[self._index(node)])

    def temperature_list(self) -> list[float]:
        """Current node temperatures in kelvin, in :attr:`node_names` order."""
        return self._state.tolist()

    def temperatures_k(self) -> dict[str, float]:
        """Current temperature of every node in kelvin."""
        return {name: float(self._state[i]) for name, i in self._node_index.items()}

    def max_temperature_k(self) -> float:
        """Hottest node temperature in kelvin."""
        return float(self._state.max())

    def steady_state_k(self, rail_powers: Mapping[str, float]) -> dict[str, float]:
        """Steady-state temperatures for constant powers (linear part only).

        Leakage feedback is *not* iterated here; callers who need the
        self-consistent fixed point should use :mod:`repro.core.fixed_point`.
        """
        p = self._power_vector(rail_powers)
        t_ss = -self._a_inv @ (self._b @ p + self._w * self._ambient_k)
        return {name: float(t_ss[i]) for name, i in self._node_index.items()}

    def dc_gain(self, node: str, rail: str) -> float:
        """Steady-state kelvin-per-watt from ``rail`` to ``node``.

        This is the effective thermal resistance the lumped analysis uses.
        """
        gain = -self._a_inv @ self._b
        ridx = self._rail_index.get(rail)
        if ridx is None:
            raise SimulationError(f"unknown power rail {rail!r}")
        return float(gain[self._index(node), ridx])

    def dominant_time_constant_s(self) -> float:
        """Slowest thermal time constant (seconds)."""
        slowest = self._slowest_pole
        if slowest >= 0.0:  # pragma: no cover - _configure rejects these
            raise SimulationError("thermal network is not passive (unstable A)")
        return -1.0 / slowest
