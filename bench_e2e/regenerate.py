"""Regenerate the benchmark's correctness goldens with the reference interpreter.

    python3 bench_e2e/regenerate.py [--only campaign|fuzz|tables]

Run from the repository root.  The goldens come from the reference
interpreter (``REPRO_FUSION=0 REPRO_FAULT_WINDOW=0 REPRO_VECTOR=0``), the
independent oracle every fast engine must match bit for bit, so a
benchmark run on the default engines checks the fast paths against it.

What is written to ``bench_e2e/goldens/``:

* ``campaign.json`` — a pool of :data:`POOL` entries, each one campaign
  seed per cell of ``workloads.CAMPAIGN_CELLS`` with every trial's
  ``(outcome, fired, description, cycles, bucket)``.  Seeds are scanned
  in order and kept only when the campaign has the cell's fixed
  composition (:data:`COMPOSITION`), so every pool entry is the same
  amount of work and the benchmark seed changes which faults run, not
  how many fire or hang.
* ``fuzz.json`` — :data:`FUZZ_PROGRAMS` generator programs with each
  oracle run's ``(label, status, cycles, memory digest, detections)``,
  packed into :data:`FUZZ_BLOCKS` blocks of equal size and, by their
  measured cost on the default engines, nearly equal work, so any block
  is as much work as any other.
* ``tables.md`` / ``tables.json`` — the EXPERIMENTS document rendered over
  ``workloads.TABLE_KERNELS``, and its cell count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

os.environ.update(REPRO_FUSION="0", REPRO_FAULT_WINDOW="0", REPRO_VECTOR="0")
for _key in ("REPRO_COMPILE_CACHE", "REPRO_CACHE", "REPRO_WORKERS"):
    os.environ.pop(_key, None)
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer, install  # noqa: E402

POOL = 8
#: Per cell: which trial kind has a fixed count in every pool entry.
COMPOSITION = {
    ("FWT", "intra-lds", "lds"): ("fired", 8),
    ("DWT", "inter", "vgpr"): ("hang", 1),
}
FUZZ_PROGRAMS = 120
FUZZ_BLOCKS = 10


def _campaign_trials(cell, seed: int, tmp: str) -> list:
    from repro.faults.campaign import run_campaign
    from repro.kernels.suite import make_benchmark
    from repro.orchestrator import read_journal

    ab, variant, target, trials = cell
    path = os.path.join(tmp, "golden.jsonl")
    if os.path.exists(path):
        os.unlink(path)
    run_campaign(lambda: make_benchmark(ab, workloads.SMALL), variant, target,
                 trials=trials, seed=seed, scale=workloads.SMALL, workers=1,
                 journal=path)
    _meta, entries = read_journal(path)
    got = sorted((e for e in entries if e["kind"] == "trial"),
                 key=lambda e: e["index"])
    return [workloads.trial_key(e) for e in got]


def _matches(cell, trials: list) -> bool:
    rule = COMPOSITION.get(cell[:3])
    if rule is None:
        return True
    kind, count = rule
    if kind == "fired":
        return sum(t[1] for t in trials) == count
    return sum(t[0] == "hang" for t in trials) == count


def regenerate_campaign() -> dict:
    from repro.gpu.fused import fault_window, fusion

    pool = []
    with tempfile.TemporaryDirectory() as tmp:
        for j in range(POOL):
            cells = []
            for i, cell in enumerate(workloads.CAMPAIGN_CELLS):
                seed = 100_000 * (i + 1) + 1_000 * j
                # Screen candidate seeds on the fast engines (identical
                # outcomes by contract), then record the kept one on the
                # reference interpreter.
                while True:
                    with fusion(True), fault_window(True):
                        if _matches(cell, _campaign_trials(cell, seed, tmp)):
                            break
                    seed += 1
                trials = _campaign_trials(cell, seed, tmp)
                if not _matches(cell, trials):
                    raise SystemExit(f"{cell} seed {seed}: fast and reference "
                                     "engines disagree on the composition")
                if any(t[0] == "infra_error" for t in trials):
                    raise SystemExit(f"{cell} seed {seed}: infra_error trial")
                cells.append({"seed": seed, "trials": trials})
                print(f"campaign pool[{j}] {'/'.join(cell[:3])} seed={seed}",
                      flush=True)
            pool.append({"cells": cells})
    return {"cells": [list(c) for c in workloads.CAMPAIGN_CELLS], "pool": pool}


def _fast_cost(pseed: int) -> float:
    """Median wall seconds of one oracle check on the default fast engines."""
    from repro.compiler.cache import default_cache
    from repro.fuzz import check_program, generate_program
    from repro.gpu.fused import fault_window, fusion

    times = []
    with fusion(True), fault_window(True):
        for _ in range(3):
            default_cache().clear()
            t = time.perf_counter()
            check_program(generate_program(pseed))
            times.append(time.perf_counter() - t)
    return sorted(times)[1]


def regenerate_fuzz() -> dict:
    from repro.fuzz import check_program, generate_program

    programs, cost = {}, {}
    for pseed in range(FUZZ_PROGRAMS):
        report = check_program(generate_program(pseed))
        if report.errors:
            raise SystemExit(f"fuzz program {pseed}: {report.errors[0]}")
        programs[str(pseed)] = {
            "digest": report.digest,
            "runs": [workloads.run_key(r) for r in report.runs],
        }
        cost[pseed] = _fast_cost(pseed)
    # Longest-processing-time packing: every block gets the same number of
    # programs and, as nearly as the measured costs allow, the same work.
    size = FUZZ_PROGRAMS // FUZZ_BLOCKS
    blocks = [[] for _ in range(FUZZ_BLOCKS)]
    totals = [0.0] * FUZZ_BLOCKS
    for pseed in sorted(cost, key=cost.get, reverse=True):
        b = min((b for b in range(FUZZ_BLOCKS) if len(blocks[b]) < size),
                key=lambda b: totals[b])
        blocks[b].append(pseed)
        totals[b] += cost[pseed]
    print("fuzz block seconds:", " ".join(f"{t:.2f}" for t in totals))
    return {"blocks": [sorted(b) for b in blocks], "programs": programs}


def regenerate_tables() -> tuple:
    from repro.eval.experiments_md import generate
    from repro.eval.harness import Harness

    tracer = Tracer(spans=False)
    install(tracer)
    workloads.trim_tables()
    doc = generate(Harness(scale=workloads.SMALL, cache_path="", workers=1))
    records = [rec for kind, _dt, rec in tracer.ops if kind == "cell"]
    bad = [r.key() for r in records if not r.verified or r.detections]
    if bad:
        raise SystemExit(f"tables: unverified or detecting cells: {bad}")
    return doc, {"cells": len(records), "kernels": list(workloads.TABLE_KERNELS)}


def _write(name: str, payload) -> None:
    path = workloads.GOLDENS / name
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload, indent=0) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=("campaign", "fuzz", "tables"))
    args = ap.parse_args(argv)
    workloads.GOLDENS.mkdir(exist_ok=True)
    if args.only in (None, "campaign"):
        _write("campaign.json", regenerate_campaign())
    if args.only in (None, "fuzz"):
        _write("fuzz.json", regenerate_fuzz())
    if args.only in (None, "tables"):
        doc, meta = regenerate_tables()
        _write("tables.md", doc)
        _write("tables.json", meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
