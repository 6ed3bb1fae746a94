"""Linearization, eigenanalysis and dispatch sweeps.

The nonlinear DAE is linearized by its analytic Jacobian
(``PowerSystemDae.jacobian``) into the blocks f_x, f_y, g_x, g_y;
eliminating the algebraic variables gives the reduced state matrix
``a_sys = f_x - f_y g_y^-1 g_x``, and the set-point columns f_u, g_u give
``b = f_u - f_y g_y^-1 g_u``.

Because device and bus angles are absolute, the model carries an exact
one-dimensional symmetry (shifting every angle together changes nothing),
so ``a_sys`` always owns one eigenvalue at the origin.  That mode is the
angle datum, not a physical oscillation; it is detected from its
eigenvector (pure angle content) and flagged so stability assessments can
exclude it.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .errors import DroopeError, NumericError, ScenarioError
from .network import solve_power_flow
from .system import PowerSystemDae
from .timedomain import release_dynamics

log = logging.getLogger(__name__)

_REFERENCE_EIG_TOL = 1e-3
_REFERENCE_OVERLAP = 0.5


@dataclass(frozen=True)
class LinearizationResult:
    f_x: np.ndarray
    f_y: np.ndarray
    g_x: np.ndarray
    g_y: np.ndarray
    a_sys: np.ndarray
    state_labels: tuple[str, ...]
    alg_labels: tuple[str, ...]
    b_matrix: np.ndarray | None = None
    input_labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class ModalResult:
    eigenvalues: np.ndarray         # complex, descending |Re| not enforced
    damping: np.ndarray             # zeta per mode
    participation: np.ndarray       # |p_ki|, columns sum to 1 (nan if defective)
    right: np.ndarray
    left: np.ndarray
    state_labels: tuple[str, ...]
    dispatch: float | None = None
    reference_index: int | None = None
    defective: tuple[int, ...] = ()

    def physical_indices(self) -> list[int]:
        return [i for i in range(len(self.eigenvalues))
                if i != self.reference_index]

    def top_states(self, mode: int, count: int = 3) -> list[str]:
        """Up to ``count`` states by falling participation in ``mode``;
        states that do not participate are left out."""
        col = self.participation[:, mode]
        if np.any(np.isnan(col)):
            return []
        order = np.argsort(col)[::-1][:count]
        return [self.state_labels[k] for k in order if col[k] > 0]


def linearize(dae: PowerSystemDae, x0, y0,
              with_inputs: bool = True) -> LinearizationResult:
    """Jacobian blocks, the reduced state matrix and the input matrix.

    ``(x0, y0)`` must be an equilibrium (see ``find_equilibrium``).  The
    inputs are the device set-points ``dae.input_labels``.  Raises
    NumericError naming the offending pivot if the algebraic block is
    singular at the point.
    """
    fnorm = np.max(np.abs(dae.f(x0, y0)))
    if fnorm > 1e-6:
        raise DroopeError(
            f"linearize called off-equilibrium (max|dx/dt| = {fnorm:.3e})")
    n_x = dae.n_x
    jac = dae.jacobian(x0, y0)
    f_x, f_y = jac[:n_x, :n_x], jac[:n_x, n_x:]
    g_x, g_y = jac[n_x:, :n_x], jac[n_x:, n_x:]

    lu, piv = scipy.linalg.lu_factor(g_y)
    diag = np.abs(np.diag(lu))
    if np.min(diag) < 1e-12 * max(1.0, np.max(diag)):
        bad = dae.y_labels[int(np.argmin(diag))]
        raise NumericError(f"algebraic Jacobian is singular near pivot {bad!r}")
    a_sys = f_x - f_y @ scipy.linalg.lu_solve((lu, piv), g_x)

    b_matrix, input_labels = None, ()
    if with_inputs:
        jac_u = dae.input_jacobian(x0, y0)
        b_matrix = jac_u[:n_x] - f_y @ scipy.linalg.lu_solve((lu, piv),
                                                             jac_u[n_x:])
        input_labels = dae.input_labels
    return LinearizationResult(
        f_x=f_x, f_y=f_y, g_x=g_x, g_y=g_y, a_sys=a_sys,
        state_labels=tuple(dae.x_labels), alg_labels=tuple(dae.y_labels),
        b_matrix=b_matrix, input_labels=tuple(input_labels))


def participation_factors(right: np.ndarray, left: np.ndarray):
    """Normalized participation magnitudes from right/left eigenvectors.

    Column i is ``|right[k,i] * conj(left[k,i])|`` scaled to sum to one.
    Modes whose left/right product is numerically zero (defective
    eigenspace) get a NaN column and are reported in the second return
    value.
    """
    raw = np.abs(right * np.conj(left))
    sums = raw.sum(axis=0)
    scale = np.linalg.norm(right, axis=0) * np.linalg.norm(left, axis=0)
    defective = tuple(int(i) for i in np.where(sums < 1e-10 * scale)[0])
    p = raw / np.where(sums == 0.0, 1.0, sums)
    for i in defective:
        p[:, i] = np.nan
    return p, defective


def eigen_decompose(a_sys: np.ndarray, state_labels=None,
                    dispatch: float | None = None,
                    residual_tol: float = 1e-9) -> ModalResult:
    """Full eigensolution with damping ratios and participation factors.

    Uses the LAPACK Hessenberg/QR path via scipy; every eigenpair is
    verified to ``|A v - lambda v| < residual_tol`` with unit-norm
    eigenvectors, otherwise NumericError carries the matrix.
    """
    if not np.all(np.isfinite(a_sys)):
        raise NumericError("state matrix contains non-finite entries")
    vals, vl, vr = scipy.linalg.eig(a_sys, left=True, right=True)
    vr = vr / np.linalg.norm(vr, axis=0, keepdims=True)
    vl = vl / np.linalg.norm(vl, axis=0, keepdims=True)
    res = np.linalg.norm(a_sys @ vr - vr * vals[None, :], axis=0)
    if np.max(res) > residual_tol:
        raise NumericError(
            f"eigen residual {np.max(res):.3e} exceeds {residual_tol:.1e}; "
            f"matrix:\n{np.array_str(a_sys, precision=6)}")

    mag = np.abs(vals)
    damping = np.where(mag > 0, -vals.real / np.where(mag > 0, mag, 1.0), 0.0)
    participation, defective = participation_factors(vr, vl)
    labels = (tuple(state_labels) if state_labels is not None
              else tuple(f"x{i}" for i in range(a_sys.shape[0])))
    ref = _reference_mode(vals, vr, labels)
    return ModalResult(eigenvalues=vals, damping=damping.real,
                       participation=participation, right=vr, left=vl,
                       state_labels=labels, dispatch=dispatch,
                       reference_index=ref, defective=defective)


def _reference_mode(vals, vr, labels) -> int | None:
    """Locate the angle-datum mode: tiny eigenvalue, pure angle content."""
    mask = np.array([lbl.endswith(".delta") for lbl in labels], dtype=float)
    if mask.sum() == 0:
        return None
    w = mask / np.linalg.norm(mask)
    best, best_ov = None, 0.0
    for i in range(len(vals)):
        if np.abs(vals[i]) > _REFERENCE_EIG_TOL:
            continue
        ov = float(np.abs(np.vdot(vr[:, i], w)))
        if ov > best_ov:
            best, best_ov = i, ov
    return best if best is not None and best_ov > _REFERENCE_OVERLAP else None


# ---------------------------------------------------------------------------
# dispatch sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    dispatches: np.ndarray
    points: list[ModalResult]
    track_ids: list[np.ndarray]     # per point: track id of each mode index
    failures: list[tuple[float, str]]

    @property
    def n_tracks(self) -> int:
        return len(self.points[0].eigenvalues) if self.points else 0

    def track_eigenvalues(self, track: int) -> np.ndarray:
        out = np.full(len(self.points), np.nan + 0j, dtype=complex)
        for j, (mr, ids) in enumerate(zip(self.points, self.track_ids)):
            hit = np.where(ids == track)[0]
            if hit.size:
                out[j] = mr.eigenvalues[hit[0]]
        return out

    def track_damping(self, track: int) -> np.ndarray:
        lam = self.track_eigenvalues(track)
        mag = np.abs(lam)
        return np.where(mag > 0, -lam.real / np.where(mag > 0, mag, 1.0), 0.0)

    def reference_track(self) -> int | None:
        for mr, ids in zip(self.points, self.track_ids):
            if mr.reference_index is not None:
                return int(ids[mr.reference_index])
        return None


def modal_point(scenario, p_set: float) -> ModalResult:
    """Power flow, release and eigensolution at one GFM dispatch."""
    scen = scenario.with_gfm_dispatch(p_set)
    dae = scen.build_dae()
    pf = solve_power_flow(scen.network, scen.dispatch_map())
    state = release_dynamics(dae, pf)
    lin = linearize(dae, state.x, state.y, with_inputs=False)
    return eigen_decompose(lin.a_sys, state_labels=lin.state_labels,
                           dispatch=p_set)


def _attempt(scenario, p_set: float) -> ModalResult | str:
    """``modal_point`` at one sweep dispatch, or the text of its failure."""
    try:
        return modal_point(scenario, p_set)
    except DroopeError as exc:
        return f"{type(exc).__name__}: {exc}"


def dispatch_sweep(scenario, p_grid=None, jobs: int = 1) -> SweepResult:
    """Modal results over a grid of GFM dispatches with mode tracking.

    Modes are matched between consecutive grid points by right-eigenvector
    overlap (Hungarian assignment on |<v_i, v_j>|), which follows
    trajectories through crossings.  A point that fails (power flow,
    release) is skipped and recorded as ``(p_set, "<ErrorClass>: message")``.
    ``jobs > 1`` evaluates the points in that many worker processes.
    Raises ScenarioError naming the first dispatch outside [0, 1].
    """
    if p_grid is None:
        p_grid = np.round(np.arange(1, 100) * 0.01, 10)
    p_grid = np.asarray(p_grid, dtype=float)
    for p in p_grid:
        if not 0.0 <= p <= 1.0:
            raise ScenarioError(f"sweep dispatch p_set={p} lies outside [0, 1]")

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_attempt, repeat(scenario), p_grid))
    else:
        outcomes = list(map(_attempt, repeat(scenario), p_grid))
    dispatches, points, failures = [], [], []
    for p, out in zip(p_grid, outcomes):
        if isinstance(out, str):
            log.warning("sweep point p_set=%s failed: %s", p, out)
            failures.append((float(p), out))
        else:
            dispatches.append(p)
            points.append(out)

    track_ids: list[np.ndarray] = []
    prev = None
    for mr in points:
        n = len(mr.eigenvalues)
        if prev is None:
            ids = np.arange(n)
        else:
            prev_mr, prev_ids = prev
            overlap = np.abs(prev_mr.right.conj().T @ mr.right)
            row, col = linear_sum_assignment(-overlap)
            ids = np.empty(n, dtype=int)
            ids[col] = prev_ids[row]
        track_ids.append(ids)
        prev = (mr, ids)
    return SweepResult(dispatches=np.array(dispatches), points=points,
                       track_ids=track_ids, failures=failures)


def participation_share(mr: ModalResult, mode: int, labels) -> float:
    """Summed participation of the given state labels in one mode."""
    idx = [i for i, lbl in enumerate(mr.state_labels) if lbl in labels]
    col = mr.participation[idx, mode]
    return float(np.nansum(col))


def find_real_to_complex_track(sweep: SweepResult, gfm_labels) -> int:
    """Track of the local device mode that bifurcates from real to complex.

    Among non-reference tracks that are purely real at the first dispatch
    and complex at the last, picks the one with the largest participation
    of the given device states at the first dispatch.
    """
    ref = sweep.reference_track()
    mr0 = sweep.points[0]
    best, best_share = None, -1.0
    for tid in range(sweep.n_tracks):
        if tid == ref:
            continue
        lam = sweep.track_eigenvalues(tid)
        if abs(lam[0].imag) > 1e-6 or abs(lam[-1].imag) < 1e-6:
            continue
        mode0 = int(np.where(sweep.track_ids[0] == tid)[0][0])
        share = participation_share(mr0, mode0, gfm_labels)
        if share > best_share:
            best, best_share = tid, share
    if best is None:
        raise NumericError("no real-to-complex device mode found in the sweep")
    return best


def find_oscillatory_band_track(sweep: SweepResult, gfm_labels,
                                band=(0.1, 1.0)) -> int:
    """Track oscillatory at every dispatch inside the frequency band.

    Ties (several in-band oscillatory tracks, e.g. an exciter mode) are
    broken by the average participation of the given device states.
    Returns the positive-frequency member of the conjugate pair.
    """
    best, best_share = None, -1.0
    for tid in range(sweep.n_tracks):
        lam = sweep.track_eigenvalues(tid)
        f = np.abs(lam.imag) / (2.0 * np.pi)
        if not np.all((f >= band[0]) & (f <= band[1])):
            continue
        if lam[0].imag <= 0:
            continue
        shares = [participation_share(mr, int(np.where(ids == tid)[0][0]),
                                      gfm_labels)
                  for mr, ids in zip(sweep.points, sweep.track_ids)]
        share = float(np.mean(shares))
        if share > best_share:
            best, best_share = tid, share
    if best is None:
        raise NumericError("no in-band oscillatory mode found in the sweep")
    return best


def write_modal_csv(sweep: SweepResult, path) -> None:
    """One row per (dispatch, mode): eigenvalue, damping, top participants."""
    with open(path, "w", newline="\n") as fh:
        fh.write("p_set,track,re,im,zeta,freq_hz,is_reference,"
                 "state1,state2,state3\n")
        ref = sweep.reference_track()
        for p, mr, ids in zip(sweep.dispatches, sweep.points, sweep.track_ids):
            order = np.argsort(ids)
            for i in order:
                lam = mr.eigenvalues[i]
                top = mr.top_states(i, 3)
                top += [""] * (3 - len(top))
                fh.write(",".join([
                    repr(float(p)), str(int(ids[i])),
                    repr(float(lam.real)), repr(float(lam.imag)),
                    repr(float(mr.damping[i])),
                    repr(float(abs(lam.imag) / (2 * np.pi))),
                    "1" if ids[i] == ref else "0",
                    *top]) + "\n")
