"""Scenario definition, validation, JSON round-trip and built-in systems.

A scenario bundles a network, a set of device descriptors with dispatch,
scheduled events and simulation settings.  JSON is the on-disk encoding;
loading resolves every default so a load -> serialize -> load round trip
is an identity.  Unknown keys are rejected with field-labelled errors.

Built-in names (``load_scenario`` resolves them before touching the
filesystem):

* ``3bus-caseA`` / ``3bus-caseB`` / ``3bus-caseC`` -- two-device system,
  exponential-droop inverter dispatched at 0.05 / 0.50 / 0.95 device pu,
  10% load step.
* ``3bus-sharing`` -- case-A dispatch, 50% load step, secondary
  power-sharing controller enabled.
* ``9bus-caseA`` / ``9bus-caseB`` / ``9bus-caseC`` -- three-generator mesh
  network with all synchronous machines, two static-droop inverters, or
  two exponential-droop inverters with power sharing.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .devices import (GfmDevice, GfmDroopEParams, GfmStaticParams,
                      PowerSharingSpec, SgDevice, SgParams)
from .errors import ScenarioError
from .network import (Branch, Bus, BusKind, ConstantPowerLoad, NetworkModel,
                      PerUnitBases)
from .system import PowerSystemDae
from .timedomain import Event

# device kind -> its parameter class
_PARAM_CLASSES = {"sg": SgParams, GfmDroopEParams.kind: GfmDroopEParams,
                 GfmStaticParams.kind: GfmStaticParams}
GEN_BUS_KINDS = (BusKind.SLACK, BusKind.PV, BusKind.DEVICE)


@dataclass(frozen=True)
class DeviceSpec:
    name: str
    bus: int
    kind: str                      # sg | gfm_droop_e | gfm_static
    params: object                 # SgParams | GfmDroopEParams | GfmStaticParams
    p_set: float | None = None     # device pu dispatch; None only at the slack
    power_sharing: PowerSharingSpec = PowerSharingSpec()


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.001
    t_end: float = 20.0
    rocof_window: float = 0.1

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0 or self.rocof_window <= 0:
            raise ScenarioError("sim: dt, t_end and rocof_window must be > 0")


@dataclass(frozen=True)
class Scenario:
    name: str
    network: NetworkModel
    devices: tuple[DeviceSpec, ...]
    events: tuple[Event, ...] = ()
    sim: SimConfig = SimConfig()
    f_nominal_hz: float = 60.0
    description: str = ""
    notes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            raise ScenarioError("duplicate device names")
        slack_idx = self.network.slack_index
        slack_id = self.network.buses[slack_idx].id
        seen_buses = set()
        for i, d in enumerate(self.devices):
            where = f"devices[{i}] ({d.name})"
            if d.kind not in _PARAM_CLASSES:
                raise ScenarioError(f"{where}: unknown kind {d.kind!r}")
            try:
                b = self.network.buses[self.network.bus_index(d.bus)]
            except ScenarioError:
                raise ScenarioError(f"{where}: unknown bus {d.bus}")
            if b.kind not in GEN_BUS_KINDS:
                raise ScenarioError(f"{where}: bus {d.bus} is not a generator bus")
            if d.bus in seen_buses:
                raise ScenarioError(f"{where}: second device on bus {d.bus}")
            seen_buses.add(d.bus)
            if d.bus == slack_id:
                if d.p_set is not None:
                    raise ScenarioError(
                        f"{where}: slack device takes its dispatch from the "
                        f"power flow; p_set must be null")
            elif d.p_set is None:
                raise ScenarioError(f"{where}: non-slack device needs p_set")
            if not isinstance(d.params, _PARAM_CLASSES[d.kind]):
                raise ScenarioError(f"{where}: {d.kind} device needs "
                                    f"{_PARAM_CLASSES[d.kind].__name__}")
        gen_buses = {b.id for b in self.network.buses if b.kind in GEN_BUS_KINDS}
        if gen_buses - seen_buses:
            raise ScenarioError(
                f"generator buses without a device: {sorted(gen_buses - seen_buses)}")
        for i, ev in enumerate(self.events):
            if ev.kind == "load_step":
                self.network.bus_index(ev.bus)
            elif ev.kind == "release_dynamics":
                if ev.t != 0.0:
                    raise ScenarioError(
                        f"events[{i}]: release_dynamics only supported at t=0")
            else:
                raise ScenarioError(f"events[{i}]: unschedulable kind {ev.kind!r}")

    # -- model construction ------------------------------------------------

    def build_dae(self) -> PowerSystemDae:
        """Fresh device wrappers bound to the network (safe to mutate)."""
        omega = self.network.bases.base_rad_per_s
        devs = []
        for d in self.devices:
            if d.kind == "sg":
                params = replace(d.params, omega_s=omega)
                devs.append(SgDevice(d.name, d.bus, params))
            else:
                params = replace(d.params, omega_b=omega, omega_set=omega,
                                 p_set=0.0 if d.p_set is None else d.p_set)
                devs.append(GfmDevice(d.name, d.bus, params, d.power_sharing))
        return PowerSystemDae(self.network, devs, f_nominal_hz=self.f_nominal_hz)

    def dispatch_map(self) -> dict[int, float]:
        """Active-power injection (system pu) per non-slack device bus."""
        s_sys = self.network.bases.system_mva
        return {d.bus: d.p_set * d.params.rating_mva / s_sys
                for d in self.devices if d.p_set is not None}

    def with_gfm_dispatch(self, p_set: float) -> "Scenario":
        """Copy with every grid-forming device dispatched at ``p_set``."""
        devs = tuple(
            replace(d, p_set=p_set) if d.kind.startswith("gfm") else d
            for d in self.devices)
        return replace(self, devices=devs)

    def device(self, name: str) -> DeviceSpec:
        for d in self.devices:
            if d.name == name:
                return d
        raise ScenarioError(f"no device named {name!r}")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "f_nominal_hz": self.f_nominal_hz,
            "base": {
                "system_mva": self.network.bases.system_mva,
                "omega_rad_per_s": self.network.bases.base_rad_per_s,
            },
            "buses": [
                {"id": b.id, "kind": b.kind.value,
                 "voltage_setpoint": b.voltage_setpoint, "base_kv": b.base_kv}
                for b in self.network.buses],
            "branches": [
                {"from": br.from_bus, "to": br.to_bus, "x": br.reactance,
                 "r": br.resistance}
                for br in self.network.branches],
            "loads": [
                {"bus": ld.bus, "p": ld.p, "q": ld.q}
                for ld in self.network.loads],
            "devices": [
                {"name": d.name, "bus": d.bus, "kind": d.kind,
                 "p_set": d.p_set,
                 "params": dataclasses.asdict(d.params),
                 "power_sharing": dataclasses.asdict(d.power_sharing)}
                for d in self.devices],
            "events": [
                {"t": ev.t, "kind": ev.kind, "bus": ev.bus,
                 "dp": ev.dp, "dq": ev.dq}
                for ev in self.events],
            "sim": dataclasses.asdict(self.sim),
            "notes": dict(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


# ---------------------------------------------------------------------------
# strict dict -> Scenario construction
# ---------------------------------------------------------------------------

def _check_keys(d: dict, where: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()):
    if not isinstance(d, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ScenarioError(f"{where}: missing keys {missing}")


def _number(d: dict, key: str, where: str, default=None):
    if key not in d or d[key] is None:
        if default is not None:
            return default
        raise ScenarioError(f"{where}.{key}: required number missing")
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _params_from_dict(cls, d: dict, where: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - names
    if unknown:
        raise ScenarioError(f"{where}: unknown parameter keys {sorted(unknown)}")
    try:
        return cls(**d)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}")


def scenario_from_dict(data: dict) -> Scenario:
    _check_keys(data, "scenario",
                required=("name", "base", "buses", "branches", "loads",
                          "devices"),
                optional=("description", "f_nominal_hz", "events", "sim",
                          "notes"))
    base = data["base"]
    _check_keys(base, "base", ("system_mva",), ("omega_rad_per_s",))

    buses = []
    for i, b in enumerate(data["buses"]):
        where = f"buses[{i}]"
        _check_keys(b, where, ("id", "kind"), ("voltage_setpoint", "base_kv"))
        try:
            kind = BusKind(b["kind"])
        except ValueError:
            raise ScenarioError(f"{where}.kind: unknown kind {b['kind']!r}")
        vset = b.get("voltage_setpoint")
        if vset is not None:
            vset = _number(b, "voltage_setpoint", where)
        try:
            buses.append(Bus(id=int(b["id"]), kind=kind, voltage_setpoint=vset,
                             base_kv=_number(b, "base_kv", where, default=18.0)))
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}")

    branches = []
    for i, br in enumerate(data["branches"]):
        where = f"branches[{i}]"
        _check_keys(br, where, ("from", "to", "x"), ("r",))
        try:
            branches.append(Branch(from_bus=int(br["from"]), to_bus=int(br["to"]),
                                   reactance=_number(br, "x", where),
                                   resistance=_number(br, "r", where, default=0.0)))
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}")

    loads = []
    for i, ld in enumerate(data["loads"]):
        where = f"loads[{i}]"
        _check_keys(ld, where, ("bus", "p", "q"))
        loads.append(ConstantPowerLoad(bus=int(ld["bus"]),
                                       p=_number(ld, "p", where),
                                       q=_number(ld, "q", where)))

    devices = []
    for i, d in enumerate(data["devices"]):
        where = f"devices[{i}]"
        _check_keys(d, where, ("name", "bus", "kind"),
                    ("p_set", "params", "power_sharing"))
        kind = d["kind"]
        if kind not in _PARAM_CLASSES:
            raise ScenarioError(f"{where}.kind: unknown kind {kind!r}")
        params = _params_from_dict(_PARAM_CLASSES[kind], d.get("params", {}),
                                   f"{where}.params")
        ps = d.get("power_sharing", {})
        _check_keys(ps, f"{where}.power_sharing", (),
                    ("enabled", "k", "eps_p", "eps_dp", "d_static"))
        sharing = PowerSharingSpec(
            enabled=bool(ps.get("enabled", False)),
            k=_number(ps, "k", f"{where}.power_sharing", default=0.3),
            eps_p=_number(ps, "eps_p", f"{where}.power_sharing", default=0.01),
            eps_dp=_number(ps, "eps_dp", f"{where}.power_sharing", default=0.001),
            d_static=_number(ps, "d_static", f"{where}.power_sharing",
                             default=0.05))
        p_set = d.get("p_set")
        if p_set is not None:
            p_set = _number(d, "p_set", where)
        devices.append(DeviceSpec(name=str(d["name"]), bus=int(d["bus"]),
                                  kind=kind, params=params, p_set=p_set,
                                  power_sharing=sharing))

    events = []
    for i, ev in enumerate(data.get("events", [])):
        where = f"events[{i}]"
        _check_keys(ev, where, ("t", "kind"), ("bus", "dp", "dq"))
        events.append(Event(t=_number(ev, "t", where), kind=str(ev["kind"]),
                            bus=None if ev.get("bus") is None else int(ev["bus"]),
                            dp=_number(ev, "dp", where, default=0.0),
                            dq=_number(ev, "dq", where, default=0.0)))

    sim_d = data.get("sim", {})
    _check_keys(sim_d, "sim", (), ("dt", "t_end", "rocof_window"))
    sim = SimConfig(dt=_number(sim_d, "dt", "sim", default=0.001),
                    t_end=_number(sim_d, "t_end", "sim", default=20.0),
                    rocof_window=_number(sim_d, "rocof_window", "sim",
                                         default=0.1))

    notes = data.get("notes", {})
    if not isinstance(notes, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in notes.items()):
        raise ScenarioError("notes: expected an object of strings")

    bases = PerUnitBases(
        system_mva=_number(base, "system_mva", "base"),
        base_rad_per_s=_number(base, "omega_rad_per_s", "base", default=377.0))
    try:
        network = NetworkModel(buses=tuple(buses), branches=tuple(branches),
                               loads=tuple(loads), bases=bases)
        return Scenario(name=str(data["name"]), network=network,
                        devices=tuple(devices), events=tuple(events), sim=sim,
                        f_nominal_hz=_number(data, "f_nominal_hz", "scenario",
                                             default=60.0),
                        description=str(data.get("description", "")),
                        notes=tuple(sorted(notes.items())))
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc))


def load_scenario(source) -> Scenario:
    """Load a scenario by built-in name or JSON file path."""
    if isinstance(source, str) and source in BUILTINS:
        return BUILTINS[source]()
    path = Path(source)
    if not path.exists():
        raise ScenarioError(
            f"{source!r} is neither a built-in scenario {sorted(BUILTINS)} "
            f"nor an existing file")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}")
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

_EMT_DOC_NOTES = (
    ("coupling_impedance", "Series impedance between the constant-voltage "
                           "source and the device bus: r=0.01, x=0.30 device "
                           "pu, i.e. the converter- and grid-side filter "
                           "inductors of the output stage in series."),
    ("emt_model", "Switching-level inverter constants retained for "
                  "documentation only (the reduced-order model does not use "
                  "them): Lf=0.15 pu, Rf=0.005 pu, Cf=2.5 pu, Rcap=0.005 pu, "
                  "current PI ki=1.19 kp=0.73 G=1.0, "
                  "voltage PI ki=1.16 kp=0.52 G=1.0."),
    ("load_power_factor", "The bus-2 load consumes 0.75 pu MW at 0.95 "
                          "leading power factor, encoded as q = -0.25 pu "
                          "(consumption-positive sign convention)."),
)

# Built-in inverters couple through both output-stage inductors.
_GFM_X, _GFM_R = 0.30, 0.01


def _three_bus(name: str, gfm_p_set: float, events: tuple[Event, ...],
               description: str, sharing: bool = False,
               t_end: float = 20.0) -> Scenario:
    network = NetworkModel(
        buses=(
            Bus(id=1, kind=BusKind.SLACK, voltage_setpoint=1.02, base_kv=18.0),
            Bus(id=2, kind=BusKind.PQ, base_kv=18.0),
            Bus(id=3, kind=BusKind.DEVICE, voltage_setpoint=1.02, base_kv=18.0),
        ),
        branches=(
            Branch(from_bus=1, to_bus=2, reactance=0.05),
            Branch(from_bus=2, to_bus=3, reactance=0.05),
        ),
        loads=(ConstantPowerLoad(bus=2, p=0.75, q=-0.25),),
        bases=PerUnitBases(system_mva=100.0, base_rad_per_s=377.0))
    devices = (
        DeviceSpec(name="sg1", bus=1, kind="sg",
                   params=SgParams(rating_mva=100.0)),
        DeviceSpec(name="gfm3", bus=3, kind="gfm_droop_e",
                   params=GfmDroopEParams(rating_mva=50.0, p_set=gfm_p_set,
                                          x_gfm=_GFM_X, r_gfm=_GFM_R),
                   p_set=gfm_p_set,
                   power_sharing=PowerSharingSpec(enabled=sharing)),
    )
    return Scenario(name=name, network=network, devices=devices, events=events,
                    sim=SimConfig(dt=0.001, t_end=t_end, rocof_window=0.1),
                    description=description, notes=_EMT_DOC_NOTES)


def _three_bus_case(name: str, p_set: float) -> Scenario:
    events = (Event(t=1.0, kind="load_step", bus=2, dp=0.075, dq=0.025),)
    return _three_bus(
        name, p_set, events,
        description=(f"Two-device radial system; exponential-droop inverter "
                     f"dispatched at {p_set} device pu, 10% load step "
                     f"(7.5 MW, 2.5 Mvar) at t=1s."))


def _three_bus_sharing() -> Scenario:
    events = (Event(t=1.0, kind="load_step", bus=2, dp=0.375, dq=0.0),)
    return _three_bus(
        "3bus-sharing", 0.05, events,
        description=("Case-A dispatch with a 50% (37.5 MW) load step and the "
                     "secondary power-sharing controller enabled."),
        sharing=True, t_end=25.0)


def _nine_bus(name: str, gen_kinds: tuple[str, str, str],
              description: str) -> Scenario:
    buses = (
        Bus(id=1, kind=BusKind.DEVICE, voltage_setpoint=1.040, base_kv=18.0),
        Bus(id=2, kind=BusKind.SLACK, voltage_setpoint=1.025, base_kv=18.0),
        Bus(id=3, kind=BusKind.DEVICE, voltage_setpoint=1.025, base_kv=18.0),
        Bus(id=4, kind=BusKind.PQ, base_kv=230.0),
        Bus(id=5, kind=BusKind.PQ, base_kv=230.0),
        Bus(id=6, kind=BusKind.PQ, base_kv=230.0),
        Bus(id=7, kind=BusKind.PQ, base_kv=230.0),
        Bus(id=8, kind=BusKind.PQ, base_kv=230.0),
        Bus(id=9, kind=BusKind.PQ, base_kv=230.0),
    )
    branches = (
        Branch(from_bus=1, to_bus=4, reactance=0.0576),
        Branch(from_bus=2, to_bus=7, reactance=0.0625),
        Branch(from_bus=3, to_bus=9, reactance=0.0586),
        Branch(from_bus=4, to_bus=5, reactance=0.085, resistance=0.010),
        Branch(from_bus=4, to_bus=6, reactance=0.092, resistance=0.017),
        Branch(from_bus=5, to_bus=7, reactance=0.161, resistance=0.032),
        Branch(from_bus=6, to_bus=9, reactance=0.170, resistance=0.039),
        Branch(from_bus=7, to_bus=8, reactance=0.072, resistance=0.0085),
        Branch(from_bus=8, to_bus=9, reactance=0.1008, resistance=0.0119),
    )
    loads = (ConstantPowerLoad(bus=5, p=1.25, q=0.50),
             ConstantPowerLoad(bus=6, p=0.90, q=0.30),
             ConstantPowerLoad(bus=8, p=1.00, q=0.35))
    dispatch = {1: 0.715 / 2.0, 2: None, 3: 0.85 / 2.0}  # device pu, 200 MVA units
    devices = []
    for gen, kind in zip((1, 2, 3), gen_kinds):
        name_g = f"gen{gen}"
        p_set = dispatch[gen]
        if kind == "sg":
            spec = DeviceSpec(name=name_g, bus=gen, kind="sg",
                              params=SgParams(rating_mva=200.0), p_set=p_set)
        elif kind == "gfm_static":
            spec = DeviceSpec(name=name_g, bus=gen, kind="gfm_static",
                              params=GfmStaticParams(rating_mva=200.0,
                                                     p_set=p_set,
                                                     x_gfm=_GFM_X, r_gfm=_GFM_R),
                              p_set=p_set)
        else:
            spec = DeviceSpec(name=name_g, bus=gen, kind="gfm_droop_e",
                              params=GfmDroopEParams(rating_mva=200.0,
                                                     p_set=p_set,
                                                     x_gfm=_GFM_X, r_gfm=_GFM_R),
                              p_set=p_set,
                              power_sharing=PowerSharingSpec(enabled=True))
        devices.append(spec)
    network = NetworkModel(
        buses=buses, branches=branches, loads=loads,
        bases=PerUnitBases(system_mva=100.0, base_rad_per_s=377.0))
    events = (Event(t=1.0, kind="load_step", bus=6, dp=0.315, dq=0.115),)
    return Scenario(name=name, network=network, devices=tuple(devices),
                    events=events,
                    sim=SimConfig(dt=0.001, t_end=40.0, rocof_window=0.1),
                    description=description,
                    notes=(("load_step", "10% of total system load "
                            "(31.5 MW, 11.5 Mvar) applied at bus 6."),))


BUILTINS = {
    "3bus-caseA": lambda: _three_bus_case("3bus-caseA", 0.05),
    "3bus-caseB": lambda: _three_bus_case("3bus-caseB", 0.50),
    "3bus-caseC": lambda: _three_bus_case("3bus-caseC", 0.95),
    "3bus-sharing": _three_bus_sharing,
    "9bus-caseA": lambda: _nine_bus(
        "9bus-caseA", ("sg", "sg", "sg"),
        "Mesh network, three synchronous generators."),
    "9bus-caseB": lambda: _nine_bus(
        "9bus-caseB", ("gfm_static", "sg", "gfm_static"),
        "Generators 1 and 3 replaced by static-droop inverters."),
    "9bus-caseC": lambda: _nine_bus(
        "9bus-caseC", ("gfm_droop_e", "sg", "gfm_droop_e"),
        "Generators 1 and 3 replaced by exponential-droop inverters with "
        "power sharing."),
}
