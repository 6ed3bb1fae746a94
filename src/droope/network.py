"""Static network model and power-flow initialization.

Everything here is phasor-domain and per-unit on the system MVA base.  The
admittance matrix uses the conventional signs: diagonal entries are the sum
of connected branch admittances, off-diagonals the negated branch
admittance.  Loads are constant power and enter the power flow as fixed
P, Q at their bus.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import PowerFlowError, ScenarioError, TopologyError

log = logging.getLogger(__name__)


class BusKind(str, Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"
    DEVICE = "device"  # generator bus; behaves as PV in the power flow


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    voltage_setpoint: float | None = None
    base_kv: float = 18.0

    def __post_init__(self):
        if self.voltage_setpoint is not None and self.voltage_setpoint <= 0:
            raise ScenarioError(f"bus {self.id}: voltage_setpoint must be > 0")
        if self.base_kv <= 0:
            raise ScenarioError(f"bus {self.id}: base_kv must be > 0")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    reactance: float
    resistance: float = 0.0

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ScenarioError(f"branch {self.from_bus}-{self.to_bus}: from == to")
        if self.reactance <= 0:
            raise ScenarioError(
                f"branch {self.from_bus}-{self.to_bus}: reactance must be > 0")
        if self.resistance < 0:
            raise ScenarioError(
                f"branch {self.from_bus}-{self.to_bus}: resistance must be >= 0")

    @property
    def impedance(self) -> complex:
        return complex(self.resistance, self.reactance)


@dataclass(frozen=True)
class ConstantPowerLoad:
    bus: int
    p: float  # pu MW consumed, system base
    q: float  # pu Mvar consumed, system base (negative = leading pf)


@dataclass(frozen=True)
class PerUnitBases:
    system_mva: float
    base_rad_per_s: float = 377.0

    def __post_init__(self):
        if self.system_mva <= 0 or self.base_rad_per_s <= 0:
            raise ScenarioError("per-unit bases must be > 0")


@dataclass(frozen=True)
class NetworkModel:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    loads: tuple[ConstantPowerLoad, ...]
    bases: PerUnitBases

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ScenarioError("duplicate bus ids")
        slacks = [b for b in self.buses if b.kind is BusKind.SLACK]
        if len(slacks) != 1:
            raise ScenarioError(f"exactly one slack bus required, got {len(slacks)}")
        known = set(ids)
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise ScenarioError(f"branch {br.from_bus}-{br.to_bus}: unknown bus")
        for ld in self.loads:
            if ld.bus not in known:
                raise ScenarioError(f"load at unknown bus {ld.bus}")

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def bus_index(self, bus_id: int) -> int:
        for i, b in enumerate(self.buses):
            if b.id == bus_id:
                return i
        raise ScenarioError(f"unknown bus id {bus_id}")

    @property
    def slack_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.kind is BusKind.SLACK)

    def load_vector(self) -> np.ndarray:
        """Complex consumed power per bus index (system pu)."""
        s = np.zeros(self.n_bus, dtype=complex)
        for ld in self.loads:
            s[self.bus_index(ld.bus)] += complex(ld.p, ld.q)
        return s


def build_admittance(network: NetworkModel) -> np.ndarray:
    """Assemble the complex bus admittance matrix (pu siemens, system base).

    Raises TopologyError if the branch graph does not connect all buses.
    """
    n = network.n_bus
    y = np.zeros((n, n), dtype=complex)
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for br in network.branches:
        f = network.bus_index(br.from_bus)
        t = network.bus_index(br.to_bus)
        yb = 1.0 / br.impedance
        y[f, f] += yb
        y[t, t] += yb
        y[f, t] -= yb
        y[t, f] -= yb
        adj[f].add(t)
        adj[t].add(f)
    # connectivity from bus 0
    seen = {0}
    stack = [0]
    while stack:
        for m in adj[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    if len(seen) != n:
        missing = sorted(network.buses[i].id for i in range(n) if i not in seen)
        raise TopologyError(f"network is disconnected; unreachable buses {missing}")
    return y


def power_injections(ybus: np.ndarray, v: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Complex power injected into the network at each bus for (V, theta)."""
    vph = v * np.exp(1j * theta)
    return vph * np.conj(ybus @ vph)


@dataclass(frozen=True)
class PowerFlowSolution:
    v: np.ndarray          # pu magnitude per bus index
    theta: np.ndarray      # rad per bus index
    injections: dict[int, complex]  # bus id -> net device injection, system pu
    mismatch: float
    iterations: int


def solve_power_flow(
    network: NetworkModel,
    dispatch: dict[int, float],
    tol: float = 1e-8,
    max_iter: int = 50,
) -> PowerFlowSolution:
    """Newton-Raphson AC power flow from a flat start.

    ``dispatch`` maps generator bus id to active-power injection (system pu).
    Generator buses (kinds slack/pv/device) hold their voltage setpoint; the
    slack bus additionally pins its angle to zero and absorbs the residual
    P, Q.  Convergence is the infinity norm of the power mismatch < ``tol``.
    """
    n = network.n_bus
    ybus = build_admittance(network)
    kinds = [b.kind for b in network.buses]
    slack = network.slack_index

    gen_like = {BusKind.SLACK, BusKind.PV, BusKind.DEVICE}
    pq = [i for i in range(n) if kinds[i] is BusKind.PQ]
    non_slack = [i for i in range(n) if i != slack]

    v = np.ones(n)
    for i, b in enumerate(network.buses):
        if b.kind in gen_like:
            if b.voltage_setpoint is None:
                raise ScenarioError(f"bus {b.id}: generator bus needs voltage_setpoint")
            v[i] = b.voltage_setpoint
    theta = np.zeros(n)

    s_load = network.load_vector()
    s_spec = -s_load.copy()
    for bus_id, p in dispatch.items():
        i = network.bus_index(bus_id)
        if kinds[i] not in gen_like:
            raise ScenarioError(f"bus {bus_id}: dispatch target on non-generator bus")
        s_spec[i] += p

    def mismatch_vec(v, theta):
        ds = s_spec - power_injections(ybus, v, theta)
        return np.concatenate([ds.real[non_slack], ds.imag[pq]])

    f = mismatch_vec(v, theta)
    it = 0
    while np.max(np.abs(f)) >= tol:
        if it >= max_iter:
            raise PowerFlowError(
                f"power flow diverged: mismatch {np.max(np.abs(f)):.3e} pu "
                f"after {it} iterations",
                mismatch=float(np.max(np.abs(f))), iterations=it)
        vph = v * np.exp(1j * theta)
        ibus = ybus @ vph
        dv = np.diag(vph)
        dvn = np.diag(vph / v)
        di = np.diag(ibus)
        ds_dva = 1j * dv @ np.conj(di - ybus @ dv)
        ds_dvm = dv @ np.conj(ybus @ dvn) + np.conj(di) @ dvn
        jac = np.block([
            [ds_dva.real[np.ix_(non_slack, non_slack)],
             ds_dvm.real[np.ix_(non_slack, pq)]],
            [ds_dva.imag[np.ix_(pq, non_slack)],
             ds_dvm.imag[np.ix_(pq, pq)]],
        ])
        dx = np.linalg.solve(jac, f)
        theta[non_slack] += dx[:len(non_slack)]
        v[pq] += dx[len(non_slack):]
        f = mismatch_vec(v, theta)
        it += 1

    s_calc = power_injections(ybus, v, theta)
    injections = {}
    for i, b in enumerate(network.buses):
        if b.kind in gen_like:
            injections[b.id] = complex(s_calc[i] + s_load[i])
    log.debug("power flow converged in %d iterations, mismatch %.3e pu",
              it, float(np.max(np.abs(f))))
    return PowerFlowSolution(v=v, theta=theta, injections=injections,
                             mismatch=float(np.max(np.abs(f))), iterations=it)

