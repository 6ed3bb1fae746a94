"""Batch command-line front end.

Subcommands: ``powerflow``, ``simulate``, ``eig-sweep``, ``droop-curve``
and ``report``.  Outputs are plot-ready CSV (full double precision, LF
line endings) plus markdown tables; identical inputs produce bitwise
identical files.  Exit codes: 0 success, 2 input error, 3 numeric failure.
Set ``DROOPE_LOG`` to DEBUG/INFO/WARNING for verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import metrics
from .devices import droop_e_offset
from .errors import DroopeError, ScenarioError
from .metrics import (FrequencyStats, aggregate_inertia,
                      compute_frequency_stats, headroom_csv,
                      headroom_markdown, headroom_table)
from .network import solve_power_flow
from .scenario import BUILTINS, Scenario, load_scenario
from .smallsignal import dispatch_sweep, write_modal_csv
from .timedomain import SimulationTrace, run_case

log = logging.getLogger("droope")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _scenario_overrides(args, scen: Scenario) -> Scenario:
    import dataclasses
    sim = scen.sim
    if getattr(args, "dt", None):
        sim = dataclasses.replace(sim, dt=args.dt)
    if getattr(args, "t_end", None):
        sim = dataclasses.replace(sim, t_end=args.t_end)
    if getattr(args, "rocof_window", None):
        sim = dataclasses.replace(sim, rocof_window=args.rocof_window)
    return dataclasses.replace(scen, sim=sim)


def _frequency_source(scen: Scenario) -> str:
    """Default statistics source: single-machine speed on small systems,
    rating-weighted frequency on multi-generator systems."""
    return "weighted" if len(scen.devices) > 2 else "sg"


def _stats_from_trace(trace: SimulationTrace, scen: Scenario,
                      source: str) -> FrequencyStats:
    event_t = trace.first_event_time() or 0.0
    if source == "sg":
        sg = [d.name for d in scen.devices if d.kind == "sg"]
        if not sg:
            raise ScenarioError("no synchronous generator for sg statistics")
        series = trace.device_frequency(sg[0])
    else:
        mva = [d.params.rating_mva for d in scen.devices]
        series = metrics.weighted_frequency(
            [trace.device_frequency(d.name) for d in scen.devices], mva)
    return compute_frequency_stats(trace.t, series, event_t,
                                   trace.rocof_window)


def _stats_payload(name: str, st: FrequencyStats, source: str) -> dict:
    return {
        "case": name,
        "nadir_hz": st.nadir,
        "nadir_time_s": st.nadir_time,
        "peak_rocof_hz_per_s": st.peak_rocof,
        "settling_hz": st.settling,
        "window_s": st.window,
        "settled_flat": st.settled_flat,
        "source": source,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_powerflow(args) -> int:
    scen = load_scenario(args.scenario)
    pf = solve_power_flow(scen.network, scen.dispatch_map())
    print(f"power flow for {scen.name}: converged in {pf.iterations} "
          f"iterations, mismatch {pf.mismatch:.3e} pu")
    print(f"{'bus':>4} {'V (pu)':>12} {'theta (rad)':>14}")
    for i, b in enumerate(scen.network.buses):
        print(f"{b.id:>4} {pf.v[i]:>12.8f} {pf.theta[i]:>14.8f}")
    print(f"{'device bus':>10} {'P (pu sys)':>12} {'Q (pu sys)':>12}")
    for bus_id, s in sorted(pf.injections.items()):
        print(f"{bus_id:>10} {s.real:>12.8f} {s.imag:>12.8f}")
    return 0


def cmd_simulate(args) -> int:
    scen = _scenario_overrides(args, load_scenario(args.scenario))
    trace = run_case(scen)
    out = _out_dir(args)
    trace_path = out / f"{scen.name}_trace.csv"
    trace.to_csv(trace_path)
    source = args.freq_source or _frequency_source(scen)
    st = _stats_from_trace(trace, scen, source)
    payload = _stats_payload(scen.name, st, source)
    stats_path = out / f"{scen.name}_stats.json"
    stats_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"trace written to {trace_path}")
    return 0


def cmd_eig_sweep(args) -> int:
    scen = load_scenario(args.scenario)
    grid = np.round(np.arange(args.start, args.stop + 0.5 * args.step,
                              args.step), 12)
    sweep = dispatch_sweep(scen, grid, jobs=args.jobs)
    for p, msg in sweep.failures:
        print(f"  point failed at p_set={p}: {msg}", file=sys.stderr)
    if not sweep.points:
        print("no dispatch point succeeded", file=sys.stderr)
        return 1
    out = _out_dir(args)
    path = out / f"{scen.name}_modes.csv"
    write_modal_csv(sweep, path)
    n_unstable = 0
    for mr in sweep.points:
        n_unstable += sum(1 for i in mr.physical_indices()
                          if mr.eigenvalues[i].real >= 0)
    print(f"{len(sweep.points)} dispatch points, "
          f"{sweep.points[0].eigenvalues.size} modes "
          f"each, {n_unstable} unstable physical eigenvalues")
    print(f"modal data written to {path}")
    return 0


def cmd_droop_curve(args) -> int:
    scen = load_scenario(args.scenario)
    gfm = [d for d in scen.devices if d.kind == "gfm_droop_e"]
    if not gfm:
        raise ScenarioError("scenario has no exponential-droop device")
    params = gfm[0].params
    f_nom = scen.f_nominal_hz
    psets = [float(p) for p in args.pset.split(",")]
    out = _out_dir(args)
    path = out / f"{scen.name}_droop_curve.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("p_set,p,f_droop_e_hz,f_static5_hz,below_ufls_59hz\n")
        for p_set in psets:
            for p in np.round(np.arange(0.0, 1.0 + 1e-9, 0.005), 10):
                f_e = f_nom + droop_e_offset(
                    p_set, p, params.alpha, params.beta,
                    params.omega_b) / (2 * math.pi)
                f_s = f_nom - f_nom * 0.05 * (p - p_set)
                fh.write(",".join([
                    repr(p_set), repr(float(p)), repr(float(f_e)),
                    repr(float(f_s)), "1" if f_e < 59.0 else "0"]) + "\n")
    print(f"droop curve data written to {path}")
    return 0


def _case_stats(name: str, source: str) -> tuple[str, FrequencyStats, float]:
    scen = load_scenario(name)
    trace = run_case(scen)
    st = _stats_from_trace(trace, scen, source)
    inertia = aggregate_inertia(
        [d.params.h if d.kind == "sg" else 0.0 for d in scen.devices],
        [d.params.rating_mva for d in scen.devices])
    return name, st, inertia


def cmd_report(args) -> int:
    wanted = [t.strip().upper() for t in args.tables.split(",")]
    unknown = set(wanted) - {"I", "V", "VII"}
    if unknown:
        raise ScenarioError(f"unknown tables {sorted(unknown)}; pick from I,V,VII")
    out = _out_dir(args)
    jobs = max(1, args.jobs)

    if "I" in wanted:
        rows = headroom_table(p_set=0.2, delta_f_hz=[0.25, 0.50, 0.75])
        (out / "table_I.md").write_text(headroom_markdown(rows))
        (out / "table_I.csv").write_text(headroom_csv(rows))
        print(f"table I written to {out / 'table_I.md'}")

    for table, cases, source, label, layout in (
            ("V", ["3bus-caseA", "3bus-caseB", "3bus-caseC"], "sg",
             "synchronous-machine", metrics.TABLE_V),
            ("VII", ["9bus-caseA", "9bus-caseB", "9bus-caseC"], "weighted",
             "rating-weighted", metrics.TABLE_VII)):
        if table not in wanted:
            continue
        md, csv = metrics.case_table(_run_cases(cases, source, jobs), label,
                                     layout)
        (out / f"table_{table}.md").write_text(md)
        (out / f"table_{table}.csv").write_text(csv)
        print(f"table {table} written to {out / f'table_{table}.md'}")
    return 0


def _run_cases(cases, source, jobs):
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(_case_stats, c, source) for c in cases]
            return [f.result() for f in futs]
    return [_case_stats(c, source) for c in cases]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droope",
        description="Power-system dynamics and small-signal studies for "
                    "grid-forming inverters with exponential droop.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True,
                           help=f"path to a scenario JSON or one of "
                                f"{sorted(BUILTINS)}")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for independent runs")

    p = sub.add_parser("powerflow", help="solve and print the power flow")
    p.add_argument("--scenario", required=True)
    p.set_defaults(fn=cmd_powerflow)

    p = sub.add_parser("simulate",
                       help="time-domain run; writes trace CSV and statistics")
    common(p)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--rocof-window", dest="rocof_window", type=float,
                   default=None)
    p.add_argument("--freq-source", choices=("sg", "weighted"), default=None,
                   help="statistics source (default: sg speed on two-device "
                        "systems, rating-weighted elsewhere)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("eig-sweep",
                       help="eigenvalues over a grid of inverter dispatches")
    common(p)
    p.add_argument("--from", dest="start", type=float, default=0.01)
    p.add_argument("--to", dest="stop", type=float, default=0.99)
    p.add_argument("--step", type=float, default=0.01)
    p.set_defaults(fn=cmd_eig_sweep)

    p = sub.add_parser("droop-curve",
                       help="frequency-power curve data with the 59 Hz "
                            "load-shed annotation")
    common(p)
    p.add_argument("--pset", default="0.2,0.73",
                   help="comma-separated dispatch values")
    p.set_defaults(fn=cmd_droop_curve)

    p = sub.add_parser("report", help="regenerate the study tables")
    common(p, scenario=False)
    p.add_argument("--tables", default="I,V,VII",
                   help="comma-separated subset of I,V,VII")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("DROOPE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, OSError, ValueError) as exc:
        _emit_error("input", exc)
        return 2
    except DroopeError as exc:
        _emit_error("numeric", exc)
        return 3


def _emit_error(kind: str, exc: Exception) -> None:
    print(json.dumps({"error": {"kind": kind, "type": type(exc).__name__,
                                "message": str(exc)}}),
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
