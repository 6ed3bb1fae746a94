"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload loadstep --seed 1 --seconds 10 --trace 0

Imports droope from ``src/`` of the checkout this file sits in, loads the
workload's built-in scenarios, then runs whole rounds of the workload until
``--seconds`` have passed (at least one round).  The outputs of the last
round are checked.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
gives the end-to-end metrics; ``--trace 1`` gives the per-layer metrics
from hooks around droope's public functions, after the same rounds run
once untraced so the tracing overhead can be reported; a layer the
workload never reaches is measured on a short coverage probe.  ``wall_s`` is
scaled to a reference machine speed (see calibration.py).  The inputs are
the built-in scenarios, so ``--seed`` changes nothing.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time.

    Falls back to the time since this module began running where /proc is
    not available or disagrees.
    """
    fallback = time.perf_counter() - _START
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = (time.clock_gettime(time.CLOCK_BOOTTIME)
               - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return age if fallback <= age < fallback + 5.0 else fallback


def no_span(name):
    return nullcontext()


@dataclass
class Rounds:
    """Per-round wall, wall at reference speed and CPU time, kernel excluded."""
    raw: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    last: object = None


def run_rounds(workload, scens, out_dir, seconds, span, probe, rounds):
    """Whole rounds until ``seconds`` have passed, at least one.

    The probe's kernel is also timed after every operation, its time is
    taken out of the operation's wall and CPU time, and the wall is scaled
    by the mean kernel time from the sample before the operation to the one
    after it.
    """
    import calibration
    import workloads

    deadline = time.perf_counter() + seconds
    while True:
        raw = scaled = cpu = 0.0
        rnd = workloads.Round()
        for op in workload.operations(scens, out_dir, span):
            first = len(probe.kernel_s) - 1
            spent = probe.spent
            t0, c0 = time.perf_counter(), time.process_time()
            rnd.add(op())
            probe.sample()
            spent = probe.spent - spent
            dt = time.perf_counter() - t0 - spent
            cpu += time.process_time() - c0 - spent
            raw += dt
            scaled += dt * calibration.REFERENCE_S / probe.mean_since(first)
        rounds.raw.append(raw)
        rounds.scaled.append(scaled)
        rounds.cpu.append(cpu)
        rounds.attempted += rnd.attempted
        rounds.failed += rnd.failed
        rounds.last = rnd
        if time.perf_counter() >= deadline:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("loadstep", "sharing", "eig-sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "droope" / "__init__.py").is_file():
        print(f"benchmark: no droope package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import droope
    import_s = time.perf_counter() - t0
    if Path(droope.__file__).resolve().parent != SRC / "droope":
        print(f"benchmark: imported droope from {droope.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import calibration
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    scens = workload.load()
    if tracer:
        tracer.uninstall()
    setup_s = process_age()

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    plain = Rounds()
    probe = calibration.SpeedProbe()
    with probe:
        probe.sample()
        run_rounds(workload, scens, out_dir, args.seconds, no_span, probe,
                   plain)
    traced = Rounds()
    if tracer:
        # Outside its context the probe samples only between operations, so
        # no kernel run falls inside a span.
        tracer.install()
        run_rounds(workload, scens, out_dir, args.seconds, tracer.span, probe,
                   traced)
        tracer.uninstall()
    last = traced.last or plain.last

    faults = workload.faults(last, scens)
    for fault in faults:
        print(f"FAULT {fault}", file=sys.stderr)
    print(f"{args.workload}: {len(plain.raw)} round(s), wall "
          + ", ".join(f"{w:.3f}" for w in plain.raw) + " s, at reference "
          "speed " + ", ".join(f"{w:.3f}" for w in plain.scaled) + " s; "
          f"set-up {setup_s:.3f} s; "
          f"kernel mean {1e3 * probe.mean_since(0):.2f} ms, reference "
          f"{1e3 * calibration.REFERENCE_S:.2f} ms")
    if tracer:
        print(f"traced: {len(traced.raw)} round(s), wall "
              + ", ".join(f"{w:.3f}" for w in traced.raw) + " s, at "
              "reference speed "
              + ", ".join(f"{w:.3f}" for w in traced.scaled) + " s")

    if tracer:
        metrics, absent = tracing.layer_metrics(tracer, len(traced.raw))
        if absent:
            cover = tracing.Tracer()
            cover.install()
            workloads.coverage_probe(out_dir / "probe", cover.span)
            cover.uninstall()
            probed, _ = tracing.layer_metrics(cover, 1)
            filled = [m for m in absent if m in probed]
            metrics.update((m, probed[m]) for m in filled)
            absent = [m for m in absent if m not in probed]
            print("from the coverage probe (never fired by the workload): "
                  + (", ".join(filled) or "none"))
        metrics["process.import_s"] = (import_s, "s")
        metrics["process.cpu_s"] = (statistics.median(plain.cpu), "s")
        metrics["process.raw_wall_s"] = (statistics.median(plain.raw), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced.scaled)
                                       - statistics.median(plain.scaled), "s")
        if absent:
            print("absent (hook never fired): " + ", ".join(absent),
                  file=sys.stderr)
        (out_dir / "spans.json").write_text(
            json.dumps(tracer.summary(), indent=1) + "\n")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": (statistics.median(plain.scaled), "s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_mb, "MB")}

    print(json.dumps({
        "correct": not faults,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
