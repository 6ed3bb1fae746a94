"""Post-processing metrics: nadir, windowed ROCOF, weighted frequency,
aggregate inertia and the droop-law headroom comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .devices import droop_e_offset


@dataclass(frozen=True)
class FrequencyStats:
    nadir: float          # Hz
    nadir_time: float     # s
    peak_rocof: float     # Hz/s
    settling: float       # Hz
    window: float         # s
    settled_flat: bool = True


def peak_rocof(f: np.ndarray, window_s: float, dt: float) -> float:
    """Peak sliding-window rate of change of a uniformly sampled Hz series.

    Computes ``max_t |f(t + T_w) - f(t)| / T_w``; adding a constant to the
    series leaves the result unchanged.
    """
    if window_s <= 0:
        raise ValueError("window must be > 0")
    w = int(round(window_s / dt))
    f = np.asarray(f, dtype=float)
    if w < 1 or len(f) <= w:
        raise ValueError(
            f"series of {len(f)} samples does not span the {window_s}s window")
    return float(np.max(np.abs(f[w:] - f[:-w])) / (w * dt))


def weighted_frequency(freqs, mva) -> np.ndarray:
    """MVA-weighted average of aligned per-device frequency series."""
    cols = [np.asarray(f, dtype=float) for f in freqs]
    n = len(cols[0])
    if any(len(c) != n for c in cols):
        raise ValueError("frequency series lengths differ")
    mva = np.asarray(mva, dtype=float)
    if len(mva) != len(cols):
        raise ValueError("one rating per series required")
    return sum(w * c for w, c in zip(mva, cols)) / mva.sum()


def aggregate_inertia(h, s) -> float:
    """Rating-weighted average inertia constant (s); GFM devices carry 0 s."""
    h = np.asarray(h, dtype=float)
    s = np.asarray(s, dtype=float)
    if h.size == 0:
        raise ValueError("aggregate inertia of an empty device set")
    if np.any(s <= 0):
        raise ValueError("ratings must be positive")
    return float(np.sum(h * s) / np.sum(s))


@dataclass(frozen=True)
class HeadroomRow:
    delta_f_hz: float
    dp_droop_e: float        # read at the dispatch-curve resolution
    dp_static: float
    dp_diff: float
    dp_droop_e_exact: float  # analytic root of the exponential law
    clamped: bool = False


def headroom_table(p_set: float, delta_f_hz, alpha: float = 0.002,
                   beta: float = 3.0, d_static: float = 0.05,
                   omega_b: float = 377.0,
                   curve_resolution: float = 0.01) -> list[HeadroomRow]:
    """Power delivered per frequency deviation: exponential vs static droop.

    For each deviation the exact dispatch at which the exponential curve
    reaches ``-2*pi*delta_f`` is found by a monotone root solve
    (``dp_droop_e_exact``).  The tabulated ``dp_droop_e`` reads that
    crossing off the frequency-power curve sampled every
    ``curve_resolution`` pu of dispatch, i.e. the first curve sample at
    which the deviation is reached.  The static column is the analytic
    ``delta_f / (60 * d_static)``.  Deviations beyond the device range
    (dispatch would exceed 1 pu) are clamped and flagged.
    """
    rows = []
    for df in np.atleast_1d(np.asarray(delta_f_hz, dtype=float)):
        if df < 0:
            raise ValueError("frequency deviations must be >= 0")
        target = -2.0 * math.pi * df
        clamped = False
        if droop_e_offset(p_set, 1.0, alpha, beta, omega_b) > target:
            p_root, clamped = 1.0, True
        elif df == 0.0:
            p_root = p_set
        else:
            p_root = brentq(
                lambda p: droop_e_offset(p_set, p, alpha, beta, omega_b) - target,
                p_set, 1.0, xtol=1e-14)
        grid = curve_resolution
        p_grid = math.ceil((p_root - 1e-9) / grid) * grid
        dp_e = p_grid - p_set
        dp_s = df / (60.0 * d_static)
        rows.append(HeadroomRow(
            delta_f_hz=float(df), dp_droop_e=dp_e, dp_static=dp_s,
            dp_diff=dp_e - dp_s, dp_droop_e_exact=p_root - p_set,
            clamped=clamped))
    return rows


def compute_frequency_stats(t: np.ndarray, f: np.ndarray, event_time: float,
                            window_s: float, settle_frac: float = 0.05,
                            flat_tol: float = 1e-3) -> FrequencyStats:
    """Nadir, peak windowed ROCOF and settling value of one Hz series.

    The nadir search starts at the disturbance time; the settling value is
    the mean of the final ``settle_frac`` of the trace, with a peak-to-peak
    flatness check reported via ``settled_flat``.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    dt = t[1] - t[0]
    post = t >= event_time
    if not np.any(post):
        raise ValueError("event time beyond the end of the trace")
    fp = f[post]
    i_min = int(np.argmin(fp))
    nadir = float(fp[i_min])
    nadir_time = float(t[post][i_min])
    tail = f[t >= t[-1] - settle_frac * (t[-1] - t[0])]
    settling = float(np.mean(tail))
    flat = bool(np.ptp(tail) < flat_tol)
    return FrequencyStats(nadir=nadir, nadir_time=nadir_time,
                          peak_rocof=peak_rocof(f[post], window_s, dt),
                          settling=settling, window=window_s,
                          settled_flat=flat)


# ---------------------------------------------------------------------------
# table emitters
# ---------------------------------------------------------------------------

def headroom_markdown(rows: list[HeadroomRow]) -> str:
    lines = ["| df (Hz) | dp droop-e (pu) | dp static (pu) | dp diff (pu) |",
             "|---|---|---|---|"]
    for r in rows:
        lines.append(f"| {r.delta_f_hz:.2f} | {r.dp_droop_e:.2f} "
                     f"| {r.dp_static:.2f} | {r.dp_diff:.2f} |")
    return "\n".join(lines) + "\n"


def headroom_csv(rows: list[HeadroomRow]) -> str:
    out = ["delta_f_hz,dp_droop_e,dp_static,dp_diff,dp_droop_e_exact,clamped"]
    for r in rows:
        out.append(",".join([
            repr(r.delta_f_hz), repr(r.dp_droop_e), repr(r.dp_static),
            repr(r.dp_diff), repr(r.dp_droop_e_exact),
            "1" if r.clamped else "0"]))
    return "\n".join(out) + "\n"


def _case_values(case: str, st: FrequencyStats, inertia_s: float) -> dict:
    """One table row by CSV column name."""
    return {"case": case, "nadir_hz": st.nadir, "nadir_time_s": st.nadir_time,
            "peak_rocof_hz_per_s": st.peak_rocof, "settling_hz": st.settling,
            "window_s": st.window, "inertia_s": round(inertia_s, 1)}


# markdown header and number format of the columns a markdown table shows
_MARKDOWN_COLUMNS = {
    "case": ("Case", ""), "nadir_hz": ("Nadir (Hz)", ".2f"),
    "peak_rocof_hz_per_s": ("ROCOF (Hz/s)", ".2f"),
    "settling_hz": ("Settling (Hz)", ".2f"), "inertia_s": ("Inertia (s)", ".1f"),
}

# (markdown columns, CSV columns) of the report's statistics tables
TABLE_V = (("case", "nadir_hz", "peak_rocof_hz_per_s", "settling_hz"),
           ("case", "nadir_hz", "nadir_time_s", "peak_rocof_hz_per_s",
            "settling_hz", "window_s"))
TABLE_VII = (("case", "nadir_hz", "peak_rocof_hz_per_s", "inertia_s"),
             ("case", "nadir_hz", "peak_rocof_hz_per_s", "settling_hz",
              "inertia_s"))


def case_table(rows: list[tuple[str, FrequencyStats, float]], source: str,
               layout) -> tuple[str, str]:
    """Markdown and CSV text of a per-case statistics table.

    ``rows`` holds ``(case, FrequencyStats, inertia_s)`` and ``layout`` is
    ``(markdown columns, CSV columns)``, e.g. ``TABLE_V``.  The CSV writes
    every number as its ``repr`` and ends each row with ``source``.
    """
    md_cols, csv_cols = layout
    md = [f"Frequency statistics from the {source} frequency.", "",
          "| " + " | ".join(_MARKDOWN_COLUMNS[c][0] for c in md_cols) + " |",
          "|" + "---|" * len(md_cols)]
    csv = [",".join(csv_cols + ("source",))]
    for row in rows:
        vals = _case_values(*row)
        md.append("| " + " | ".join(format(vals[c], _MARKDOWN_COLUMNS[c][1])
                                    for c in md_cols) + " |")
        csv.append(",".join([vals[c] if c == "case" else repr(vals[c])
                             for c in csv_cols] + [source]))
    return "\n".join(md) + "\n", "\n".join(csv) + "\n"
