"""Scenario definition, validation, JSON round-trip and built-in systems.

A scenario bundles a network, a set of device descriptors with dispatch,
scheduled events and simulation settings.  JSON is the on-disk encoding;
loading resolves every default so a load -> serialize -> load round trip
is an identity.  Each record is read and written from its dataclass fields
(``_decode``/``_encode``), so its defaults live only on the dataclass.
Loading is strict, and every error is a ``ScenarioError`` naming the path
of the offending value (``devices[1].params.x_gfm: ...``):

* unknown keys are rejected, and a field without a default is required;
* a ``float`` field takes a finite JSON number (not a bool, ``NaN`` or
  ``Infinity``), an ``int`` field a JSON integer, a ``bool`` field
  ``true``/``false`` and a ``str`` field a string; a field that may be
  ``None`` also takes ``null``.

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
import math
import types
import typing
from dataclasses import MISSING, dataclass, replace
from enum import Enum
from pathlib import Path

from .devices import (GfmDevice, GfmDroopEParams, GfmStaticParams,
                      PowerSharingSpec, SgDevice, SgParams)
from .errors import ScenarioError
from .network import (Branch, Bus, BusKind, ConstantPowerLoad, NetworkModel,
                      PerUnitBases)
from .system import PowerSystemDae

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
class Event:
    t: float
    kind: str                  # load_step | release_dynamics | gate_armed
    bus: int | None = None
    dp: float = 0.0            # system pu
    dq: float = 0.0
    device: str | None = None


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.001
    t_end: float = 20.0
    rocof_window: float = 0.1

    def __post_init__(self):
        if not all(0 < v < math.inf
                   for v in (self.dt, self.t_end, self.rocof_window)):
            raise ScenarioError(
                "SimConfig requires finite dt, t_end and rocof_window > 0")


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
            elif d.kind == GfmDroopEParams.kind and not 0.0 <= d.p_set <= 1.0:
                raise ScenarioError(f"{where}: exponential-droop dispatch "
                                    f"p_set={d.p_set} must lie in [0, 1]")
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
        """Fresh device wrappers bound to the network (safe to mutate);
        they share the scenario's frozen parameter records."""
        omega = self.network.bases.base_rad_per_s
        devs = [SgDevice(d.name, d.bus, d.params, omega) if d.kind == "sg"
                else GfmDevice(d.name, d.bus, d.params, omega, d.p_set,
                               d.power_sharing)
                for d in self.devices]
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
        return {"name": self.name, "description": self.description,
                "f_nominal_hz": self.f_nominal_hz, **_encode(self.network),
                "devices": _encode(self.devices),
                "events": _encode(self.events), "sim": _encode(self.sim),
                "notes": dict(self.notes)}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


# ---------------------------------------------------------------------------
# JSON records from and to dataclasses
# ---------------------------------------------------------------------------

# JSON key -> field name, in JSON key order, of the records whose keys are
# not their fields in field order.  The top-level object holds the network's
# keys; an event's ``device`` is set only on logged events.
_KEYS = {
    NetworkModel: {"base": "bases", "buses": "buses", "branches": "branches",
                   "loads": "loads"},
    PerUnitBases: {"system_mva": "system_mva",
                   "omega_rad_per_s": "base_rad_per_s"},
    Branch: {"from": "from_bus", "to": "to_bus", "x": "reactance",
             "r": "resistance"},
    Event: {k: k for k in ("t", "kind", "bus", "dp", "dq")},
    DeviceSpec: {k: k for k in ("name", "bus", "kind", "p_set", "params",
                                "power_sharing")},
}
_EXPECTED = {float: "a finite number", int: "an integer",
             bool: "true or false", str: "a string"}


def _json_keys(cls) -> dict[str, str]:
    return _KEYS.get(cls) or {f.name: f.name for f in dataclasses.fields(cls)}


def _decode(cls, obj, where: str, **given):
    """Record ``cls`` from the JSON object ``obj`` found at path ``where``
    (empty at the top level); the fields in ``given`` are not read."""
    label = where or "scenario"
    if not isinstance(obj, dict):
        raise ScenarioError(f"{label}: expected an object, got {obj!r}")
    keys = {k: name for k, name in _json_keys(cls).items() if name not in given}
    unknown = set(obj) - set(keys)
    if unknown:
        raise ScenarioError(f"{label}: unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    required = {f.name for f in dataclasses.fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    values = dict(given)
    for key, name in keys.items():
        path = f"{where}.{key}" if where else key
        if cls is DeviceSpec and name == "params":  # absent: kind's defaults
            if values["kind"] not in _PARAM_CLASSES:
                raise ScenarioError(
                    f"{where}.kind: unknown kind {values['kind']!r}")
            values[name] = _decode(_PARAM_CLASSES[values["kind"]],
                                   obj.get(key, {}), path)
        elif key in obj:
            values[name] = _value(hints[name], obj[key], path)
        elif name in required:
            raise ScenarioError(f"{label}: missing key {key!r}")
    try:
        return cls(**values)
    except (ScenarioError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}" if where else str(exc)) from None


def _value(tp, v, where: str):
    """The JSON value ``v`` at path ``where`` checked against and converted
    to the field type ``tp``."""
    if isinstance(tp, types.UnionType):                  # X | None
        return None if v is None else _value(typing.get_args(tp)[0], v, where)
    if typing.get_origin(tp) is tuple:                   # tuple[X, ...]
        if not isinstance(v, list):
            raise ScenarioError(f"{where}: expected a list, got {v!r}")
        item = typing.get_args(tp)[0]
        return tuple(_value(item, x, f"{where}[{i}]") for i, x in enumerate(v))
    if dataclasses.is_dataclass(tp):
        return _decode(tp, v, where)
    if issubclass(tp, Enum):
        try:
            return tp(v)
        except (TypeError, ValueError):
            raise ScenarioError(f"{where}: unknown kind {v!r}") from None
    if tp is float and type(v) is int and abs(v) < 1e308:
        v = float(v)                                     # a JSON integer
    if (isinstance(v, tp) and isinstance(v, bool) == (tp is bool)
            and (tp is not float or math.isfinite(v))):
        return tp(v)
    raise ScenarioError(f"{where}: expected {_EXPECTED[tp]}, got {v!r}")


def _encode(value):
    """JSON form of a record, a tuple of records or a field value."""
    if dataclasses.is_dataclass(value):
        return {key: _encode(getattr(value, name))
                for key, name in _json_keys(type(value)).items()}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value


def scenario_from_dict(data: dict) -> Scenario:
    """Scenario from its JSON object; the inverse of ``Scenario.to_dict``."""
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario: expected an object, got {data!r}")
    net_keys = _json_keys(NetworkModel)
    network = _decode(NetworkModel,
                      {k: v for k, v in data.items() if k in net_keys}, "")
    notes = data.get("notes", {})
    if not isinstance(notes, dict):
        raise ScenarioError(f"notes: expected an object, got {notes!r}")
    for key, text in notes.items():
        _value(str, text, f"notes.{key}")
    rest = {k: v for k, v in data.items() if k not in net_keys and k != "notes"}
    return _decode(Scenario, rest, "", network=network,
                   notes=tuple(sorted(notes.items())))


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
                   params=GfmDroopEParams(rating_mva=50.0, x_gfm=_GFM_X,
                                          r_gfm=_GFM_R),
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
                                                     x_gfm=_GFM_X, r_gfm=_GFM_R),
                              p_set=p_set)
        else:
            spec = DeviceSpec(name=name_g, bus=gen, kind="gfm_droop_e",
                              params=GfmDroopEParams(rating_mva=200.0,
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
