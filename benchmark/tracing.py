"""Span tracing of droope's public functions, installed from outside the package.

Each hook replaces one public callable with a wrapper that records a span:
its name, its duration and the span that called it.  Self time is the
duration minus the part covered by child spans.  A sharing round makes
about 1.5 million spans, so they are kept in memory aggregated per
(parent, name) pair rather than one record each; the aggregate is what the
per-layer metrics and the written span summary are computed from.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (span name, module, attribute).  "Class.method" patches the class; a
# plain function is replaced in every droope module that binds it, so calls
# through ``from .x import fn`` copies are seen too.  A target that does not
# exist is skipped and its metrics are reported absent.
HOOKS = (
    ("scenario.load", "droope.scenario", "load_scenario"),
    ("scenario.build_dae", "droope.scenario", "Scenario.build_dae"),
    ("network.power_flow", "droope.network", "solve_power_flow"),
    ("system.f", "droope.system", "PowerSystemDae.f"),
    ("system.g", "droope.system", "PowerSystemDae.g"),
    ("system.frequencies", "droope.system",
     "PowerSystemDae.device_frequencies_hz"),
    ("system.powers", "droope.system", "PowerSystemDae.device_powers"),
    ("system.balance", "droope.system",
     "PowerSystemDae.power_balance_residual"),
    ("system.find_equilibrium", "droope.system", "find_equilibrium"),
    ("devices.sharing_update", "droope.devices",
     "GfmDevice.update_power_sharing"),
    ("timedomain.run_case", "droope.timedomain", "run_case"),
    ("timedomain.release", "droope.timedomain", "release_dynamics"),
    ("timedomain.step", "droope.timedomain", "TrapezoidalStepper.step"),
    ("timedomain.lu_factor", "droope.timedomain", "lu_factor"),
    ("timedomain.lu_solve", "droope.timedomain", "lu_solve"),
    ("timedomain.to_csv", "droope.timedomain", "SimulationTrace.to_csv"),
    ("smallsignal.sweep", "droope.smallsignal", "dispatch_sweep"),
    ("smallsignal.point", "droope.smallsignal", "modal_point"),
    ("smallsignal.linearize", "droope.smallsignal", "linearize"),
    ("smallsignal.eigen", "droope.smallsignal", "eigen_decompose"),
)


class Tracer:
    """Aggregated span records plus the hooks that produce them."""

    def __init__(self):
        self.spans: dict[tuple[str | None, str], list] = {}
        self.power_flow_iterations = 0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _close(self, frame, parent, dur):
        key = (parent[0] if parent is not None else None, frame[0])
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        if parent is not None:
            parent[1] += dur

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        stack = self._stack
        frame = [name, 0.0]
        parent = stack[-1] if stack else None
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            self._close(frame, parent, dur)

    def wrap(self, name: str, fn):
        stack, close, clock = self._stack, self._close, time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                close(frame, parent, dur)

        return traced

    # -- hooks ----------------------------------------------------------------

    def install(self) -> None:
        for name, module, attr in HOOKS:
            mod = sys.modules.get(module)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            if name == "network.power_flow":
                wrapper = self._count_iterations(wrapper)
            if owner_name:
                self._patch(owner, member, wrapper)
                continue
            for mod_name, m in list(sys.modules.items()):
                if mod_name != "droope" and not mod_name.startswith("droope."):
                    continue
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _count_iterations(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.power_flow_iterations += result.iterations
            return result
        return counted

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- summaries ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total s, self s] over all parents."""
        out: dict[str, list] = {}
        for (_, name), (count, total, own) in self.spans.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += count
            rec[1] += total
            rec[2] += own
        return out

    def calls_under(self, name: str, parent: str) -> int:
        rec = self.spans.get((parent, name))
        return rec[0] if rec else 0

    def summary(self) -> list[dict]:
        return [{"parent": parent, "name": name, "calls": c,
                 "total_s": t, "self_s": s}
                for (parent, name), (c, t, s) in sorted(
                    self.spans.items(), key=lambda kv: -kv[1][1])]


def layer_metrics(tr: Tracer, rounds: int):
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Returns ({metric: (value, unit)}, [absent metric names]).  Times are
    means per call; counts are per round.  A metric whose hook never fired
    is absent, never reported as 0.
    """
    tot = tr.totals()
    out: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def mean(name, scale, field=1):
        rec = tot[name]
        return rec[field] / rec[0] * scale

    def put(metric, unit, needs, value_fn):
        value = value_fn() if all(n in tot for n in needs) else 0
        if value:
            out[metric] = (value, unit)
        else:
            absent.append(metric)

    steps = tot.get("timedomain.step", [0])[0]
    put("timedomain.step_us", "us", ["timedomain.step"],
        lambda: mean("timedomain.step", 1e6))
    put("timedomain.step_self_us", "us", ["timedomain.step"],
        lambda: mean("timedomain.step", 1e6, field=2))
    put("timedomain.newton_per_step", "1/step",
        ["timedomain.step", "timedomain.lu_solve"],
        lambda: tr.calls_under("timedomain.lu_solve", "timedomain.step") / steps)
    put("timedomain.jac_refreshes", "count", ["timedomain.lu_factor"],
        lambda: tot["timedomain.lu_factor"][0] / rounds)
    put("timedomain.lu_solve_us", "us", ["timedomain.lu_solve"],
        lambda: mean("timedomain.lu_solve", 1e6))
    put("timedomain.release_ms", "ms", ["timedomain.release"],
        lambda: mean("timedomain.release", 1e3))
    put("timedomain.to_csv_s", "s", ["timedomain.to_csv"],
        lambda: mean("timedomain.to_csv", 1.0))
    put("system.f_us", "us", ["system.f"], lambda: mean("system.f", 1e6))
    put("system.g_us", "us", ["system.g"], lambda: mean("system.g", 1e6))
    put("system.f_per_step", "1/step", ["timedomain.step", "system.f"],
        lambda: tr.calls_under("system.f", "timedomain.step") / steps)
    put("system.g_per_step", "1/step", ["timedomain.step", "system.g"],
        lambda: tr.calls_under("system.g", "timedomain.step") / steps)
    observe = ("system.frequencies", "system.powers", "system.balance")
    put("system.observe_us", "us", observe,
        lambda: sum(tot[n][1] for n in observe)
        / tot["system.balance"][0] * 1e6)
    put("system.find_equilibrium_ms", "ms", ["system.find_equilibrium"],
        lambda: mean("system.find_equilibrium", 1e3))
    put("system.find_equilibrium_calls", "count", ["system.find_equilibrium"],
        lambda: tot["system.find_equilibrium"][0] / rounds)
    put("devices.sharing_update_us", "us", ["devices.sharing_update"],
        lambda: mean("devices.sharing_update", 1e6))
    put("devices.sharing_update_calls", "count", ["devices.sharing_update"],
        lambda: tot["devices.sharing_update"][0] / rounds)
    put("network.power_flow_ms", "ms", ["network.power_flow"],
        lambda: mean("network.power_flow", 1e3))
    put("network.power_flow_iters", "count", ["network.power_flow"],
        lambda: tr.power_flow_iterations / tot["network.power_flow"][0])
    put("smallsignal.point_ms", "ms", ["smallsignal.point"],
        lambda: mean("smallsignal.point", 1e3))
    put("smallsignal.linearize_ms", "ms", ["smallsignal.linearize"],
        lambda: mean("smallsignal.linearize", 1e3))
    put("smallsignal.eigen_ms", "ms", ["smallsignal.eigen"],
        lambda: mean("smallsignal.eigen", 1e3))
    # Mode tracking is dispatch_sweep's own work once its points are solved.
    put("smallsignal.tracking_ms", "ms", ["smallsignal.sweep"],
        lambda: mean("smallsignal.sweep", 1e3, field=2))
    put("metrics.stats_ms", "ms", ["metrics.stats"],
        lambda: mean("metrics.stats", 1e3))
    put("scenario.load_ms", "ms", ["scenario.load"],
        lambda: mean("scenario.load", 1e3))
    put("scenario.build_dae_ms", "ms", ["scenario.build_dae"],
        lambda: mean("scenario.build_dae", 1e3))
    return out, absent
