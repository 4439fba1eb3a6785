"""One measured process of the benchmark (spawned by ``run.py``).

Prints one JSON line.  With ``--setup-only`` it stops where the first
timed op would start and reports only its set-up time.  Otherwise it runs
whole units of the workload until ``--seconds`` have passed (or exactly
``--units`` units, which is how the traced run repeats the untraced run's
work), checks every unit against the goldens and reports raw measurements;
``run.py`` turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np


#: Fewest timed ops a run ends with: p90 then has ten ops beyond it.
MIN_TIMED_OPS = 100
#: Calibration chunks timed after set-up (one more runs after every op).
SETUP_CHUNKS = 30


def calibrate(chunks: int = 1) -> float:
    """Seconds one chunk of a fixed loop takes now (mean over ``chunks``).

    A chunk is dict updates and small NumPy ops, a few milliseconds.  The
    loop is the benchmark's own code, the same kind of work the simulator
    does, and no change to the package can alter it; how long it takes
    tracks the shared host's current speed, which ``run.py`` divides out of
    every timing.
    """
    t = time.perf_counter()
    for _ in range(chunks):
        d: dict = {}
        for i in range(10000):
            d[i & 1023] = d.get(i & 1023, 0) + (i >> 2)
        a = np.arange(4096, dtype=np.float32)
        for _ in range(100):
            a = np.where(a > 100, a * 0.5, a + 1.0)
    return (time.perf_counter() - t) / chunks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--units", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="wall-clock time the parent spawned this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent

    import tracer as tracing
    import workloads

    import repro.gpu.fused as fused
    import repro.gpu.vectorized as vectorized

    # The untraced run probes host speed after every op (outside the op's
    # timing and the unit's); the traced run does not, so the probe never
    # lands in a layer's self time.
    tr = tracing.Tracer(spans=bool(args.trace),
                        calibrate=None if args.trace else calibrate)
    missing = tracing.install(tr)
    wl = workloads.WORKLOADS[args.workload](args.seed, root, tr)
    setup_s = time.time() - args.t0
    setup_cal_s = calibrate(SETUP_CHUNKS)
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s, "setup_cal_s": setup_cal_s}))
        return 0

    # Units run until --seconds have elapsed and at least MIN_TIMED_OPS
    # simulated ops were timed (so ten lie beyond p90).  Each op's host
    # speed is the mean of the probes just before and just after it; a
    # unit's is the op-time-weighted mean over its ops.
    start = tracing.perf()
    units = []
    cal_prev = calibrate()
    while True:
        if args.units:
            if len(units) >= args.units:
                break
        elif (units and tracing.perf() - start >= args.seconds
              and sum(n for u in units for k, n in u["op_kinds"].items()
                      if k != "elided") >= MIN_TIMED_OPS):
            break
        t, first, probe_s = tracing.perf(), len(tr.ops), tr.cal_s
        cycles = tr.counts["gpu.sim_cycles.n"]
        wl.run_unit(len(units))
        unit_s = tracing.perf() - t - (tr.cal_s - probe_s)
        ops = tr.ops[first:]
        unit = {
            "s": unit_s,
            "sim_cycles": tr.counts["gpu.sim_cycles.n"] - cycles,
            "op_kinds": _tally(kind for kind, _dt, _r in ops),
            "op_ms": {kind: [dt * 1e3 for k, dt, _r in ops if k == kind]
                      for kind in {k for k, _dt, _r in ops}},
        }
        if tr.calibrate is not None:
            after = tr.op_cal[first:]
            op_cal = [(b + a) / 2 for b, a in zip([cal_prev] + after, after)]
            unit["op_cal"] = {kind: [c for (k, _dt, _r), c in zip(ops, op_cal)
                                     if k == kind] for kind in unit["op_ms"]}
            busy = sum(dt for _k, dt, _r in ops)
            unit["cal_s"] = (sum(dt * c for (_k, dt, _r), c in zip(ops, op_cal))
                             / busy if busy else cal_prev)
            cal_prev = after[-1] if after else cal_prev
        units.append(unit)
    wl.close()

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_cal_s": setup_cal_s,
        "wall_s": sum(u["s"] for u in units),
        "units": units,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "mismatches": wl.mismatches,
        "op_kinds": _tally(kind for kind, _dt, _r in tr.ops),
        "counts": dict(tr.counts),
        "cache_stats": wl.cache_stats,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "toggles": {name: probe() for name, probe in (
            ("fusion", getattr(fused, "fusion_enabled", None)),
            ("vector", getattr(vectorized, "vector_enabled", None)),
            ("fault_window", getattr(fused, "fault_window_enabled", None)),
        ) if probe is not None},
        "missing_targets": missing,
    }
    if args.trace:
        out["self"] = tracing.self_times(tr.spans)
        out["inclusive"] = tracing.inclusive_times(tr.spans)
        out["covered_s"] = tracing.top_level_seconds(tr.spans)
        out["campaign_setup_s"] = tracing.campaign_setup_seconds(tr.spans)
        out["spans"] = len(tr.spans)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "op"],
                 "spans": tr.spans}))
    print(json.dumps(out))
    return 0


def _tally(kinds) -> dict:
    out: dict = {}
    for kind in kinds:
        out[kind] = out.get(kind, 0) + 1
    return out


if __name__ == "__main__":
    sys.exit(main())
