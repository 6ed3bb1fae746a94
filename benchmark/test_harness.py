"""The tracer's span accounting and hooks, and the speed probe's cleanup.

    python3 -m pytest benchmark/test_harness.py
"""

import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from droope.system import PowerSystemDae  # noqa: E402


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.02))

    def outer_fn():
        inner()
        inner()
        time.sleep(0.01)

    tr.wrap("outer", outer_fn)()
    (o_calls, o_total, o_self) = tr.spans[(None, "outer")]
    (i_calls, i_total, i_self) = tr.spans[("outer", "inner")]
    assert (o_calls, i_calls) == (1, 2)
    assert i_self == i_total
    assert abs(o_self - (o_total - i_total)) < 1e-9
    assert tr.calls_under("inner", "outer") == 2


def test_hooks_are_removed_and_unfired_metrics_absent():
    original = PowerSystemDae.f
    tr = tracing.Tracer()
    tr.install()
    assert PowerSystemDae.f is not original
    tr.uninstall()
    assert PowerSystemDae.f is original
    metrics, absent = tracing.layer_metrics(tr, rounds=1)
    assert metrics == {}
    assert "timedomain.step_us" in absent and "system.f_us" in absent


def test_coverage_probe_fires_every_hook(tmp_path):
    tr = tracing.Tracer()
    tr.install()
    try:
        workloads.coverage_probe(tmp_path, tr.span)
    finally:
        tr.uninstall()
    metrics, absent = tracing.layer_metrics(tr, rounds=1)
    assert absent == []
    # With the four process-level figures run.py adds, these are exactly
    # the per-layer metrics BENCHMARK.json names.
    manifest = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    process = {"process.import_s", "process.cpu_s", "process.raw_wall_s",
               "trace.overhead_s"}
    assert set(metrics) | process == {m["name"] for m in manifest["per_layer"]}


def test_speed_probe_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibration.SpeedProbe(period=0.05) as probe:
        probe.sample()
        time.sleep(0.2)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.kernel_s) >= 2
    assert probe.spent >= sum(probe.kernel_s) - 1e-12
    assert probe.mean_since(0) > 0
