"""The benchmark's workloads: built-in scenarios run as a library user would.

A round runs every operation of a workload once: one time-domain case
(run, trace CSV, statistics, as ``droope simulate`` does) or one dispatch
sweep, which attempts one point per grid dispatch.  Calls go through
droope's module attributes so the traced run's hooks see them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from droope import metrics, network, scenario, smallsignal, timedomain
from droope.errors import DroopeError

import checks

# 0.01 .. 0.99 in steps of 0.01, the paper's stability sweep.
SWEEP_GRID = np.round(np.arange(1, 100) * 0.01, 10)
# Dispatches where the sum of eigenvalues is checked against trace(a_sys).
TRACE_CHECK_DISPATCHES = (0.1, 0.5, 0.9)


@dataclass
class Round:
    """Counts and checked outputs of one operation or a whole round."""
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)

    def add(self, other: "Round") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.outputs.update(other.outputs)


def frequency_stats(trace, scen):
    """Statistics as ``droope simulate`` computes them by default: the
    machine speed on two-device systems, the rating-weighted frequency on
    larger ones."""
    event_t = trace.first_event_time() or 0.0
    if len(scen.devices) > 2:
        series = metrics.weighted_frequency(
            [trace.device_frequency(d.name) for d in scen.devices],
            [d.params.rating_mva for d in scen.devices])
    else:
        sg = next(d.name for d in scen.devices if d.kind == "sg")
        series = trace.device_frequency(sg)
    return metrics.compute_frequency_stats(trace.t, series, event_t,
                                           trace.rocof_window)


class TimeDomain:
    """Full-length load-step cases: run, write the trace CSV, compute stats."""

    def __init__(self, cases, faults_fn):
        self.cases = cases
        self.faults_fn = faults_fn

    def load(self) -> dict:
        return {name: scenario.load_scenario(name) for name in self.cases}

    def operations(self, scens, out_dir: Path, span):
        return [partial(self.simulate, name, scen, out_dir, span)
                for name, scen in scens.items()]

    @staticmethod
    def simulate(name, scen, out_dir: Path, span) -> Round:
        try:
            trace = timedomain.run_case(scen)
        except DroopeError:
            return Round(attempted=1, failed=1)
        trace.to_csv(out_dir / f"{name}_trace.csv")
        with span("metrics.stats"):
            st = frequency_stats(trace, scen)
        (out_dir / f"{name}_stats.json").write_text(json.dumps({
            "case": name, "nadir_hz": st.nadir,
            "nadir_time_s": st.nadir_time,
            "peak_rocof_hz_per_s": st.peak_rocof,
            "settling_hz": st.settling}, indent=2) + "\n")
        return Round(attempted=1,
                     outputs={name: checks.summarize(trace, st.nadir)})

    def faults(self, rnd: Round, scens) -> list[str]:
        missing = [n for n in self.cases if n not in rnd.outputs]
        if missing:
            return [f"cases failed: {missing}"]
        return self.faults_fn(rnd.outputs, scens)


class EigSweep:
    """Dispatch sweeps with mode tracking; no time stepping."""

    # scenario -> (highest dispatch allowed to fail, local-mode band)
    cases = {
        "3bus-caseA": (None, (0.3, 0.5)),
        # Release fails at 0.01..0.05 on every run (find_equilibrium stalls
        # just above its tolerance); those points count as failed.
        "9bus-caseC": (0.05, None),
    }

    def load(self) -> dict:
        return {name: scenario.load_scenario(name) for name in self.cases}

    def operations(self, scens, out_dir: Path, span):
        return [partial(self.sweep, name, scen) for name, scen in scens.items()]

    @staticmethod
    def sweep(name, scen) -> Round:
        sweep = smallsignal.dispatch_sweep(scen, SWEEP_GRID)
        return Round(attempted=len(SWEEP_GRID), failed=len(sweep.failures),
                     outputs={name: sweep})

    def faults(self, rnd: Round, scens) -> list[str]:
        faults = []
        for name, (max_failed, band) in self.cases.items():
            sweep = rnd.outputs[name]
            faults += checks.sweep_faults(name, sweep, SWEEP_GRID, max_failed,
                                          transition_band=band)
            a_sys = {p: separate_a_sys(scens[name], p)
                     for p in TRACE_CHECK_DISPATCHES}
            faults += checks.trace_identity_faults(name, sweep, a_sys)
        return faults


def separate_a_sys(scen, p_set: float) -> np.ndarray:
    """State matrix at one dispatch from its own power flow, release and
    linearization, apart from the sweep."""
    scen = scen.with_gfm_dispatch(p_set)
    dae = scen.build_dae()
    pf = network.solve_power_flow(scen.network, scen.dispatch_map())
    state = timedomain.release_dynamics(dae, pf)
    return smallsignal.linearize(dae, state.x, state.y, with_inputs=False).a_sys


def coverage_probe(out_dir: Path, span) -> None:
    """A short, fixed run that reaches every hooked function: 3bus-sharing
    cut at 1.5 s (its load step is at 1 s) through the same operation as the
    time-domain workloads, and a three-point sweep of 3bus-caseA.  A traced
    run takes from it the per-layer metrics its workload never fires."""
    out_dir.mkdir(parents=True, exist_ok=True)
    scen = scenario.load_scenario("3bus-sharing")
    scen = dataclasses.replace(scen, sim=dataclasses.replace(scen.sim,
                                                             t_end=1.5))
    TimeDomain.simulate(scen.name, scen, out_dir, span)
    smallsignal.dispatch_sweep(scenario.load_scenario("3bus-caseA"),
                               np.array(TRACE_CHECK_DISPATCHES))


WORKLOADS = {
    "loadstep": TimeDomain(("3bus-caseA", "3bus-caseB", "3bus-caseC"),
                           checks.loadstep_faults),
    "sharing": TimeDomain(("3bus-sharing", "9bus-caseC"),
                          checks.sharing_faults),
    "eig-sweep": EigSweep(),
}
