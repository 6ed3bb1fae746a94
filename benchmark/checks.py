"""Correctness checks on the outputs of each workload.

Every check is either computed apart from the program (an analytic steady
state, a reference value from the paper) or is a property the method must
have (finite values, power balance, conjugate eigenvalue pairs, trace
identity).  Each function returns a list of fault messages; an empty list
means the outputs pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

BALANCE_TOL = 1e-6          # system pu, every recorded step
SETTLED_TOL_HZ = 1e-5       # analytic load-step steady state
SHARING_TOL_HZ = 1e-4       # static-droop frequency after power sharing
SHARING_PU_TOL = 1e-4       # device-pu pickup on the 5 % droop share
COMMON_HZ_TOL = 1e-6        # units of one island end at one frequency
EQUAL_PICKUP_TOL = 1e-5     # equal ratings and droops: equal pickup
NADIR_REF_HZ = {"3bus-caseA": 59.93, "3bus-caseB": 59.82, "3bus-caseC": 59.70}
NADIR_REF_TOL_HZ = 0.1
REAL_TOL = 1e-6             # |Im| below this counts as a real eigenvalue
DATUM_TOL = 1e-5            # |lambda| of the angle-datum mode
TRACE_REL_TOL = 1e-8        # sum of eigenvalues against trace(a_sys)


@dataclass
class CaseSummary:
    """What the checks read from one time-domain run."""
    name: str
    final_hz: dict[str, float]
    pickup_pu: dict[str, float]     # device pu, last sample minus first
    max_p_pu: dict[str, float]      # device pu
    nadir_hz: float                 # from the run's frequency statistics
    nonfinite: int                  # non-finite values anywhere in the trace
    worst_balance: float            # max |power balance residual|, system pu


def summarize(trace, nadir_hz: float) -> CaseSummary:
    arrays = (trace.t, trace.freq_hz, trace.p_dev, trace.p_sys, trace.v,
              trace.theta, trace.balance_residual)
    nonfinite = sum(int(np.size(a) - np.count_nonzero(np.isfinite(a)))
                    for a in arrays)
    names = list(trace.dev_names)
    return CaseSummary(
        name=trace.name,
        final_hz={n: float(trace.freq_hz[-1, k]) for k, n in enumerate(names)},
        pickup_pu={n: float(trace.p_dev[-1, k] - trace.p_dev[0, k])
                   for k, n in enumerate(names)},
        max_p_pu={n: float(np.max(trace.p_dev[:, k]))
                  for k, n in enumerate(names)},
        nadir_hz=float(nadir_hz),
        nonfinite=nonfinite,
        worst_balance=float(np.max(np.abs(trace.balance_residual))))


def trace_faults(s: CaseSummary) -> list[str]:
    faults = []
    if s.nonfinite:
        faults.append(f"{s.name}: {s.nonfinite} non-finite trace values")
    if not s.worst_balance < BALANCE_TOL:
        faults.append(f"{s.name}: power balance residual {s.worst_balance:.3e}"
                      f" >= {BALANCE_TOL:g} pu")
    return faults


# ---------------------------------------------------------------------------
# load-step cases (Table V)
# ---------------------------------------------------------------------------

def loadstep_settled_hz(scen) -> float:
    """Analytic post-step frequency of a lossless SG + droop-e system.

    The governor picks up ``-dw / (w_b R)`` machine pu and the inverter
    ``p - p_set`` device pu with ``dw = w_b alpha (e^(beta p_set) -
    e^(beta p))``; on a lossless network the two, on the system base,
    take up the whole active-power step; a bracketed root solve gives ``p``.
    """
    sg = next(d for d in scen.devices if d.kind == "sg")
    gfm = next(d for d in scen.devices if d.kind == "gfm_droop_e")
    step = sum(ev.dp for ev in scen.events if ev.kind == "load_step")
    base = scen.network.bases.system_mva
    w_b = scen.network.bases.base_rad_per_s
    a, b, p0 = gfm.params.alpha, gfm.params.beta, gfm.p_set
    sg_share = sg.params.rating_mva / base
    gfm_share = gfm.params.rating_mva / base

    def dw(p):
        return w_b * a * (math.exp(b * p0) - math.exp(b * p))

    def imbalance(p):
        return (sg_share * -dw(p) / (w_b * sg.params.d_droop)
                + gfm_share * (p - p0) - step)

    p = brentq(imbalance, p0, p0 + 2.0 * step / gfm_share, xtol=1e-14)
    return scen.f_nominal_hz + dw(p) / (2.0 * math.pi)


def loadstep_faults(summaries: dict[str, CaseSummary], scenarios) -> list[str]:
    faults = []
    for name, s in summaries.items():
        faults += trace_faults(s)
        expected = loadstep_settled_hz(scenarios[name])
        for dev, f in s.final_hz.items():
            if not abs(f - expected) < SETTLED_TOL_HZ:
                faults.append(f"{name}: {dev} ends at {f:.9f} Hz, analytic "
                              f"steady state {expected:.9f} Hz")
        ref = NADIR_REF_HZ[name]
        if not abs(s.nadir_hz - ref) <= NADIR_REF_TOL_HZ:
            faults.append(f"{name}: nadir {s.nadir_hz:.4f} Hz, paper {ref} Hz")
    nadirs = [summaries[n].nadir_hz for n in NADIR_REF_HZ if n in summaries]
    if len(nadirs) == len(NADIR_REF_HZ) and not nadirs[0] > nadirs[1] > nadirs[2]:
        faults.append(f"nadir ordering A > B > C broken: {nadirs}")
    if "3bus-caseC" in summaries:
        p_max = summaries["3bus-caseC"].max_p_pu["gfm3"]
        if not p_max <= 1.0:
            faults.append(f"3bus-caseC: inverter output peaks at {p_max:.6f} "
                          f"pu > 1.0")
    return faults


# ---------------------------------------------------------------------------
# secondary-control power sharing
# ---------------------------------------------------------------------------

def static_share(scen) -> tuple[float, float]:
    """(device-pu pickup, frequency) on the common static-droop line.

    Units with one static droop ``d`` share a step ``dp`` (system pu) in
    proportion to rating, so each picks up ``dp * S_base / sum(S)`` of its
    own rating and the frequency falls by ``w_b d`` times that.  Network
    losses are ignored: exact on the lossless 3-bus system.
    """
    step = sum(ev.dp for ev in scen.events if ev.kind == "load_step")
    rating = sum(d.params.rating_mva for d in scen.devices)
    share = step * scen.network.bases.system_mva / rating
    d_static = next(d.power_sharing.d_static for d in scen.devices
                    if d.power_sharing.enabled)
    w_b = scen.network.bases.base_rad_per_s
    return share, scen.f_nominal_hz - w_b * d_static * share / (2 * math.pi)


def sharing_faults(summaries: dict[str, CaseSummary], scenarios) -> list[str]:
    faults = []
    for s in summaries.values():
        faults += trace_faults(s)
    s = summaries.get("3bus-sharing")
    if s is not None:
        share, f_eq = static_share(scenarios["3bus-sharing"])
        for dev, f in s.final_hz.items():
            if not abs(f - f_eq) < SHARING_TOL_HZ:
                faults.append(f"3bus-sharing: {dev} ends at {f:.7f} Hz, "
                              f"static-droop frequency {f_eq:.7f} Hz")
        for dev, dp in s.pickup_pu.items():
            if not abs(dp - share) < SHARING_PU_TOL:
                faults.append(f"3bus-sharing: {dev} picks up {dp:.6f} pu, "
                              f"5 % droop share {share:.6f} pu")
    s = summaries.get("9bus-caseC")
    if s is not None:
        f = list(s.final_hz.values())
        if not max(f) - min(f) < COMMON_HZ_TOL:
            faults.append(f"9bus-caseC: units end at different frequencies {f}")
        dp = list(s.pickup_pu.values())
        if not max(dp) - min(dp) < EQUAL_PICKUP_TOL:
            faults.append(f"9bus-caseC: unequal device-pu pickup {dp}")
    return faults


# ---------------------------------------------------------------------------
# dispatch sweep (small-signal stability)
# ---------------------------------------------------------------------------

def _conjugate_closed(lam: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(lam))))
    tol = 1e-9 * scale
    upper = np.sort_complex(lam[lam.imag > tol])
    lower = np.sort_complex(np.conj(lam[lam.imag < -tol]))
    return len(upper) == len(lower) and bool(
        np.all(np.abs(upper - lower) <= tol))


def point_faults(p: float, mr) -> list[str]:
    lam = mr.eigenvalues
    faults = []
    near_zero = int(np.sum(np.abs(lam) < DATUM_TOL))
    if mr.reference_index is None:
        faults.append(f"p={p}: no angle-datum mode flagged")
    elif near_zero != 1 or abs(lam[mr.reference_index]) >= DATUM_TOL:
        faults.append(f"p={p}: {near_zero} eigenvalues at the origin, flagged "
                      f"datum mode {lam[mr.reference_index]}")
    phys = lam[mr.physical_indices()]
    if not np.all(np.isfinite(lam)):
        faults.append(f"p={p}: non-finite eigenvalues")
    elif np.any(phys.real >= 0):
        faults.append(f"p={p}: unstable physical eigenvalues "
                      f"{phys[phys.real >= 0]}")
    if not _conjugate_closed(lam):
        faults.append(f"p={p}: eigenvalues not in conjugate pairs")
    return faults


def local_mode_transition(sweep, device: str) -> float | None:
    """Dispatch where the device's local mode turns oscillatory.

    The local mode is the real physical mode with the largest participation
    of the device's states at the first dispatch; it is followed along the
    sweep's mode tracks.  Returns None unless it is real at every dispatch
    up to the transition and complex at every dispatch after it.
    """
    mr0 = sweep.points[0]
    rows = [k for k, lbl in enumerate(mr0.state_labels)
            if lbl.startswith(device + ".")]
    real = [i for i in mr0.physical_indices()
            if abs(mr0.eigenvalues[i].imag) < REAL_TOL]
    if not rows or not real:
        return None
    local = max(real, key=lambda i: float(np.sum(mr0.participation[rows, i])))
    track = int(sweep.track_ids[0][local])
    osc = np.abs(sweep.track_eigenvalues(track).imag) >= REAL_TOL
    if not osc.any():
        return None
    first = int(np.argmax(osc))
    if not osc[first:].all():
        return None
    return float(sweep.dispatches[first])


def sweep_faults(name: str, sweep, grid, max_failed_dispatch: float | None,
                 transition_band=None, device: str = "gfm3") -> list[str]:
    """Checks on one dispatch sweep.

    ``max_failed_dispatch`` is the highest dispatch at which a point may
    fail (a known fault of the release at low 9-bus dispatch); None means
    no point may fail.  ``transition_band`` bounds where the device's local
    mode turns from real to complex.
    """
    faults = []
    if len(sweep.points) + len(sweep.failures) != len(grid):
        faults.append(f"{name}: {len(sweep.points)} points + "
                      f"{len(sweep.failures)} failures != {len(grid)} attempted")
    for p, msg in sweep.failures:
        if max_failed_dispatch is None or p > max_failed_dispatch:
            faults.append(f"{name}: point p={p} failed: {msg}")
    for p, mr in zip(sweep.dispatches, sweep.points):
        faults += [f"{name}: {f}" for f in point_faults(float(p), mr)]
    if transition_band is not None and sweep.points:
        lo, hi = transition_band
        at = local_mode_transition(sweep, device)
        if at is None or not lo <= at <= hi:
            faults.append(f"{name}: {device} local mode turns complex at "
                          f"{at}, outside [{lo}, {hi}]")
    return faults


def trace_identity_faults(name: str, sweep, a_sys: dict[float, np.ndarray]
                          ) -> list[str]:
    """Sum of each point's eigenvalues against trace(a_sys) of a separate
    linearization at the same dispatch."""
    faults = []
    by_p = {round(float(p), 10): mr for p, mr in
            zip(sweep.dispatches, sweep.points)}
    for p, a in a_sys.items():
        mr = by_p.get(round(p, 10))
        if mr is None:
            faults.append(f"{name}: no sweep point at p={p}")
            continue
        total = complex(np.sum(mr.eigenvalues))
        tol = TRACE_REL_TOL * (1.0 + float(np.sum(np.abs(mr.eigenvalues))))
        if not abs(total - np.trace(a)) <= tol:
            faults.append(f"{name}: p={p}: sum of eigenvalues {total:.10g} "
                          f"!= trace(a_sys) {np.trace(a):.10g}")
    return faults
