"""Performance microbenchmarks — the standing ``BENCH_*.json`` trajectory.

``python -m repro.bench`` measures the hot paths this repo's evaluation
machinery lives on and writes ``BENCH_7.json``:

* **interp** — simulated cycles/sec of the wavefront interpreter on an
  ALU-dense kernel, reference per-instruction dispatch vs the
  block-fused executors (:mod:`repro.gpu.fused`), with a bitwise
  output/cycle-count cross-check;
* **vector** — the vectorized run-ahead engine
  (:mod:`repro.gpu.vectorized`) vs the fused baseline on a
  multi-workgroup dispatch: all resident wavefronts batched through
  stacked ``(waves, lanes)`` closures, cross-checked bitwise- and
  cycle-identical against both other engines;
* **campaign** — fault-campaign trials/sec, the pre-PR-5 shape (full
  recompile + host-reference recomputation per trial) vs the current
  compile-once/cached path;
* **faults** — the same campaign configuration with fault-window
  execution (:mod:`repro.gpu.fused` + ``FaultEnvelope`` elision, see
  DESIGN.md §15) toggled off vs on, cross-checking every trial record
  field between the two fault paths;
* **compile** — cold vs warm ``compile_kernel`` latency through the
  content-addressed cache (:mod:`repro.compiler.cache`);
* **equivalence** — the correctness guard: the committed fuzz corpus
  and the small benchmark suite replayed fused vs reference, asserting
  bit-identical memory, cycles, and counters.

Speedups are *recorded*, not gated: wall-clock assertions would make CI
flaky, so the only failing condition is a correctness divergence
(non-zero exit).  The perf trajectory lives in the committed
``BENCH_5.json`` and its successors.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from ..compiler import cache as compile_cache
from ..compiler.pipeline import compile_kernel
from ..faults.campaign import draw_plans, execute_trial, golden_run
from ..gpu import fused, vectorized
from ..gpu.counters import BusyTracker
from ..ir.builder import KernelBuilder
from ..ir.types import DType
from ..kernels.suite import SMALL_SUITE, make_benchmark
from ..runtime.api import Session

SCHEMA = 1
BENCH_ID = 7
SECTIONS = ("interp", "vector", "campaign", "faults", "compile",
            "equivalence")

#: Acceptance targets recorded alongside the measurements (ISSUE 5/8).
INTERP_TARGET = 2.0
CAMPAIGN_TARGET = 3.0
VECTOR_TARGET = 10.0
FAULTS_TARGET = 5.0

#: BENCH_6.json's measured ``campaign.cached_trials_per_sec`` — the
#: pre-fault-window throughput the ``faults`` section is gated against
#: (ISSUE 10 asks for 5x over this pinned number, not over a same-run
#: re-measurement, so the comparison can't drift with box speed).
BENCH6_CAMPAIGN_RATE = 99.84


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _counters_dict(counters) -> Dict[str, object]:
    out = {}
    for k, v in vars(counters).items():
        out[k] = v.total if isinstance(v, BusyTracker) else v
    return out


def _same_counters(a, b) -> bool:
    da, db = _counters_dict(a), _counters_dict(b)
    if da.keys() != db.keys():
        return False
    for k in da:
        va, vb = da[k], db[k]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if not np.array_equal(va, vb):
                return False
        elif va != vb:
            return False
    return True


def build_alu_dense(chain: int = 40, iters: int = 32, nitems: int = 256,
                    local_size: int = 64):
    """A compute-bound kernel: long straight-line FMA runs in a loop.

    This is the shape block fusion targets — the memory system is idle
    and wall-clock is dominated by per-instruction interpreter dispatch.
    """
    kb = KernelBuilder("bench_alu_dense")
    out = kb.buffer_param("out", DType.F32)
    gid = kb.global_id(0)
    x = kb.var(DType.F32, kb.u2f(gid))
    with kb.for_range(0, iters):
        for _ in range(chain):
            kb.set(x, kb.add(kb.mul(x, kb.const(1.0001, DType.F32)),
                             kb.const(0.5, DType.F32)))
    kb.store(out, gid, x)
    kernel = kb.finish()
    kernel.metadata.update({
        "local_size": (local_size, 1, 1),
        "global_size": (nitems, 1, 1),
        "buffer_nelems": {"out": nitems},
    })
    return kernel


# ---------------------------------------------------------------------------
# interp
# ---------------------------------------------------------------------------


def bench_interp(quick: bool = False) -> Dict:
    """Interpreter throughput: reference dispatch vs fused executors."""
    chain, iters, reps = (40, 16, 2) if quick else (40, 32, 4)
    compiled = compile_kernel(build_alu_dense(chain, iters), "original",
                              cache=False)

    def one(on: bool):
        with fused.fusion(on):
            elapsed = 0.0
            cycles = 0.0
            output = None
            for _ in range(reps + 1):          # first rep is warm-up
                session = Session()
                buf = session.zeros("out", 256, np.float32)
                t0 = time.perf_counter()
                result = session.launch(compiled, 256, 64, {"out": buf})
                dt = time.perf_counter() - t0
                if output is None:
                    output = session.download(buf)
                    continue
                elapsed += dt
                cycles += result.cycles
            return cycles / elapsed, output, result.cycles

    ref_rate, ref_out, ref_cycles = one(False)
    fused_rate, fused_out, fused_cycles = one(True)
    bitwise = bool(np.array_equal(ref_out, fused_out)
                   and ref_cycles == fused_cycles)
    speedup = fused_rate / ref_rate
    return {
        "kernel": "bench_alu_dense",
        "reference_cycles_per_sec": round(ref_rate),
        "fused_cycles_per_sec": round(fused_rate),
        "speedup": round(speedup, 3),
        "target_speedup": INTERP_TARGET,
        "meets_target": speedup >= INTERP_TARGET,
        "bitwise_identical": bitwise,
    }


# ---------------------------------------------------------------------------
# vector
# ---------------------------------------------------------------------------


def bench_vector(quick: bool = False) -> Dict:
    """Vectorized run-ahead engine vs the fused baseline (BENCH_6).

    A multi-workgroup dispatch (32 work-groups of 256 work-items — 128
    resident wavefronts) of the ALU-dense kernel: the geometry where the
    vectorized engine's convoys are widest.  All three engines must be
    bitwise- and cycle-identical; the recorded speedup is over the PR-5
    fused baseline, with the reference interpreter rate alongside.
    """
    chain, iters, nitems, reps = (64, 32, 4096, 2) if quick \
        else (64, 32, 8192, 3)
    local_size = 256
    compiled = compile_kernel(
        build_alu_dense(chain, iters, nitems=nitems, local_size=local_size),
        "original", cache=False)

    def one(fusion_on: bool, vector_on: bool):
        with fused.fusion(fusion_on), vectorized.vector(vector_on):
            elapsed = 0.0
            cycles = 0.0
            output = None
            for _ in range(reps + 1):          # first rep is warm-up
                session = Session()
                buf = session.zeros("out", nitems, np.float32)
                t0 = time.perf_counter()
                result = session.launch(compiled, nitems, local_size,
                                        {"out": buf})
                dt = time.perf_counter() - t0
                if output is None:
                    output = session.download(buf)
                    continue
                elapsed += dt
                cycles += result.cycles
            return cycles / elapsed, output, result.cycles, result.engine_kind

    ref_rate, ref_out, ref_cycles, _ = one(False, False)
    fused_rate, fused_out, fused_cycles, _ = one(True, False)
    vec_rate, vec_out, vec_cycles, vec_engine = one(True, True)
    bitwise = bool(
        np.array_equal(ref_out, fused_out)
        and np.array_equal(ref_out, vec_out)
        and ref_cycles == fused_cycles == vec_cycles
        and vec_engine == "vectorized")
    speedup = vec_rate / fused_rate
    return {
        "kernel": "bench_alu_dense",
        "dispatch": f"{nitems}x{local_size}",
        "workgroups": nitems // local_size,
        "wavefronts": nitems // 64,
        "reference_cycles_per_sec": round(ref_rate),
        "fused_cycles_per_sec": round(fused_rate),
        "vectorized_cycles_per_sec": round(vec_rate),
        "speedup": round(speedup, 3),
        "speedup_vs_reference": round(vec_rate / ref_rate, 3),
        "target_speedup": VECTOR_TARGET,
        "meets_target": speedup >= VECTOR_TARGET,
        "bitwise_identical": bitwise,
    }


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


def bench_campaign(quick: bool = False) -> Dict:
    """Fault-campaign trials/sec: per-trial recompile vs compile-once.

    The probe is DWT-Haar at a reduced problem size — a realistic
    campaign configuration (short trials, many of them) where the
    pre-PR-5 loop's fixed per-trial costs (full recompile with lint +
    TV, host-reference recomputation) dominate the simulated run.
    """
    from ..kernels.dwt_haar import DwtHaar1D

    trials = 3 if quick else 8
    variant, target = "intra+lds", "vgpr"
    make_bench = lambda: DwtHaar1D(n=256, local_size=64)  # noqa: E731

    probe = make_bench()
    budget = golden_run(probe, probe.compile(variant)).budget
    plans = draw_plans(11, trials, target, max_instr=20)

    def baseline() -> tuple:
        """The pre-PR-5 trial loop: recompile + fresh oracle per trial."""
        t0 = time.perf_counter()
        outcomes = []
        for i, plan in enumerate(plans):
            bench = make_bench()
            compiled = bench.compile(variant, cache=False)
            rec = execute_trial(bench, compiled, plan, budget, index=i)
            outcomes.append(rec.outcome)
        return trials / (time.perf_counter() - t0), outcomes

    def cached() -> tuple:
        """The current loop: compile once, shared golden reference."""
        t0 = time.perf_counter()
        probe2 = make_bench()
        compiled = probe2.compile(variant)
        reference = {k: v.copy() for k, v in probe2.reference().items()}
        outcomes = []
        for i, plan in enumerate(plans):
            bench = make_bench()
            rec = execute_trial(bench, compiled, plan, budget, index=i,
                                reference=reference)
            outcomes.append(rec.outcome)
        return trials / (time.perf_counter() - t0), outcomes

    base_rate, base_outcomes = baseline()
    cached_rate, cached_outcomes = cached()
    speedup = cached_rate / base_rate
    return {
        "benchmark": "DWT/n256", "variant": variant, "fault_target": target,
        "trials": trials,
        "baseline_trials_per_sec": round(base_rate, 3),
        "cached_trials_per_sec": round(cached_rate, 3),
        "speedup": round(speedup, 3),
        "target_speedup": CAMPAIGN_TARGET,
        "meets_target": speedup >= CAMPAIGN_TARGET,
        "outcomes_identical": base_outcomes == cached_outcomes,
        "outcomes": cached_outcomes,
    }


# ---------------------------------------------------------------------------
# faults (fault-window execution)
# ---------------------------------------------------------------------------


def bench_faults(quick: bool = False) -> Dict:
    """Fault-window trials/sec: interpreter fault path vs window+elision.

    The headline rates run the *same workload BENCH_6's campaign section
    measured* — DWT-Haar n=256, intra+lds, vgpr, the first ``trials``
    plans of ``draw_plans(11, ..., max_instr=20)`` — so
    ``speedup_vs_bench6`` compares identical trial-by-trial work against
    the pinned pre-fault-window rate.  A larger seeded ``sweep`` is
    reported alongside it because elision is a per-plan property and
    small prefixes of the plan stream can be elision-lucky (the BENCH_6
    eight elide 7/8; the 120-plan sweep sits near the distribution's
    50%).  The off lane pins the PR-9 behaviour
    (``fused.fault_window(False)``: hooked launches run the reference
    interpreter, no elision); the on lane runs the DESIGN.md §15 fast
    path.  Every sweep record field except the ``engine`` tag must agree
    between lanes — that bit feeds ``report_correct`` and the CI gate.
    Rates are best-of-``reps`` (noise on shared runners only ever slows
    a rep down).
    """
    from ..kernels.dwt_haar import DwtHaar1D

    trials, sweep_trials, reps = (3, 24, 1) if quick else (8, 120, 3)
    variant, target = "intra+lds", "vgpr"
    make_bench = lambda: DwtHaar1D(n=256, local_size=64)  # noqa: E731

    probe = make_bench()
    compiled = probe.compile(variant)
    envelope = golden_run(probe, compiled)
    plans = draw_plans(11, sweep_trials, target, max_instr=20)

    def lane(window: bool, subset, lane_reps: int) -> tuple:
        best, records = 0.0, []
        with fused.fault_window(window):
            for _ in range(lane_reps):
                t0 = time.perf_counter()
                records = []
                for i, plan in enumerate(subset):
                    bench = make_bench()
                    records.append(execute_trial(
                        bench, compiled, plan, envelope.budget, index=i,
                        reference=envelope.reference,
                        envelope=envelope if window else None))
                best = max(best, len(subset) / (time.perf_counter() - t0))
        return best, records

    # Identity over the full sweep, then rates on both workloads.
    sweep_ref_rate, sweep_ref = lane(False, plans, 1)
    sweep_win_rate, sweep_win = lane(True, plans, reps)
    ref_rate, _ = lane(False, plans[:trials], reps)
    win_rate, win_records = lane(True, plans[:trials], reps)

    def fields(rec) -> tuple:
        return (rec.outcome, rec.fired, rec.description, rec.cycles,
                rec.error, rec.bucket)

    identical = all(fields(a) == fields(b)
                    for a, b in zip(sweep_ref, sweep_win))
    speedup = win_rate / BENCH6_CAMPAIGN_RATE
    return {
        "benchmark": "DWT/n256", "variant": variant, "fault_target": target,
        "trials": trials, "reps": reps,
        "reference_trials_per_sec": round(ref_rate, 3),
        "window_trials_per_sec": round(win_rate, 3),
        "bench6_campaign_rate": BENCH6_CAMPAIGN_RATE,
        "speedup_vs_bench6": round(speedup, 3),
        "target_speedup": FAULTS_TARGET,
        "meets_target": speedup >= FAULTS_TARGET,
        "elided": sum(1 for r in win_records if r.engine == "elided"),
        "fired": sum(1 for r in win_records if r.fired),
        "outcomes_identical": identical,
        "outcomes": [r.outcome for r in win_records],
        "sweep": {
            "trials": sweep_trials,
            "reference_trials_per_sec": round(sweep_ref_rate, 3),
            "window_trials_per_sec": round(sweep_win_rate, 3),
            "speedup_vs_bench6": round(
                sweep_win_rate / BENCH6_CAMPAIGN_RATE, 3),
            "elided": sum(1 for r in sweep_win if r.engine == "elided"),
            "fired": sum(1 for r in sweep_win if r.fired),
        },
    }


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def bench_compile(quick: bool = False) -> Dict:
    """Cold vs warm compile latency through the content-addressed cache."""
    cold_reps, warm_reps = (1, 10) if quick else (3, 50)
    bench = make_benchmark("FWT", "small")
    variant = "intra+lds"

    t0 = time.perf_counter()
    for _ in range(cold_reps):
        compile_kernel(bench.build(), variant, cache=False)
    cold_ms = (time.perf_counter() - t0) / cold_reps * 1e3

    private = compile_cache.CompileCache()
    compile_kernel(bench.build(), variant, cache=private)    # store
    t0 = time.perf_counter()
    for _ in range(warm_reps):
        compile_kernel(bench.build(), variant, cache=private)
    warm_ms = (time.perf_counter() - t0) / warm_reps * 1e3

    return {
        "benchmark": "FWT/small", "variant": variant,
        "cold_ms": round(cold_ms, 3),
        "warm_ms": round(warm_ms, 4),
        "speedup": round(cold_ms / warm_ms, 1),
        "cache_stats": private.stats.as_dict(),
    }


# ---------------------------------------------------------------------------
# equivalence (the correctness guard)
# ---------------------------------------------------------------------------


def bench_equivalence(quick: bool = False) -> Dict:
    """Fused vs reference bitwise equivalence over corpus + suite."""
    from ..fuzz.corpus import edge_programs
    from ..fuzz.oracle import RunSpec, run_program

    divergences: List[str] = []

    if quick:
        specs = [RunSpec("original"), RunSpec("intra+lds", optimize=True),
                 RunSpec("inter")]
    else:
        specs = [RunSpec(v, optimize=o)
                 for v in ("original", "intra+lds", "intra-lds", "inter")
                 for o in (False, True)]

    corpus_runs = 0
    for prog in edge_programs():
        for spec in specs:
            with fused.fusion(False):
                ref = run_program(prog, spec, cycle_budget=50_000_000)
            with fused.fusion(True):
                fzd = run_program(prog, spec, cycle_budget=50_000_000)
            corpus_runs += 1
            where = f"corpus/{prog.name}/{spec.label}"
            if ref.status != fzd.status:
                divergences.append(f"{where}: status {ref.status} vs {fzd.status}")
                continue
            if ref.status != "ok":
                continue
            if ref.cycles != fzd.cycles:
                divergences.append(f"{where}: cycles {ref.cycles} vs {fzd.cycles}")
            if ref.detections != fzd.detections:
                divergences.append(f"{where}: detections differ")
            for name in ref.memory:
                if not np.array_equal(
                        ref.memory[name].view(np.uint8),
                        fzd.memory[name].view(np.uint8)):
                    divergences.append(f"{where}: memory {name!r} differs")

    suite_runs = 0
    suite_kernels = ["FWT", "MM"] if quick else sorted(SMALL_SUITE)
    for abbrev in suite_kernels:
        for variant in ("original", "intra+lds", "intra-lds", "inter"):
            def run_once(on: bool):
                with fused.fusion(on):
                    b = make_benchmark(abbrev, "small")
                    compiled = b.compile(variant)
                    return b.run(Session(), compiled)

            ref, fzd = run_once(False), run_once(True)
            suite_runs += 1
            where = f"suite/{abbrev}/{variant}"
            if ref.cycles != fzd.cycles:
                divergences.append(f"{where}: cycles differ")
            for name in ref.outputs:
                if not np.array_equal(ref.outputs[name], fzd.outputs[name]):
                    divergences.append(f"{where}: output {name!r} differs")
            if not _same_counters(ref.merged_counters(),
                                  fzd.merged_counters()):
                divergences.append(f"{where}: counters differ")

    return {
        "corpus_configs": corpus_runs,
        "suite_configs": suite_runs,
        "divergences": divergences,
        "bitwise_identical": not divergences,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

_SECTION_FNS = {
    "interp": bench_interp,
    "vector": bench_vector,
    "campaign": bench_campaign,
    "faults": bench_faults,
    "compile": bench_compile,
    "equivalence": bench_equivalence,
}


def run_bench(quick: bool = False,
              only: Optional[List[str]] = None) -> Dict:
    """Run the selected sections and assemble the report."""
    names = [s for s in SECTIONS if not only or s in only]
    report = {
        "schema": SCHEMA,
        "bench": BENCH_ID,
        "quick": quick,
        "python": sys.version.split()[0],
        "sections": {},
    }
    for name in names:
        t0 = time.perf_counter()
        report["sections"][name] = _SECTION_FNS[name](quick=quick)
        report["sections"][name]["wall_s"] = round(
            time.perf_counter() - t0, 2)
    report["correct"] = report_correct(report)
    return report


def report_correct(report: Dict) -> bool:
    """The CI gate: every correctness cross-check in the report holds."""
    sections = report.get("sections", {})
    eq = sections.get("equivalence")
    if eq is not None and not eq.get("bitwise_identical"):
        return False
    interp = sections.get("interp")
    if interp is not None and not interp.get("bitwise_identical"):
        return False
    vec = sections.get("vector")
    if vec is not None and not vec.get("bitwise_identical"):
        return False
    camp = sections.get("campaign")
    if camp is not None and not camp.get("outcomes_identical"):
        return False
    flt = sections.get("faults")
    if flt is not None and not flt.get("outcomes_identical"):
        return False
    return True


def format_report(report: Dict) -> str:
    lines = [f"repro.bench (BENCH_{report['bench']}, "
             f"{'quick' if report['quick'] else 'full'})"]
    s = report["sections"]
    if "interp" in s:
        i = s["interp"]
        lines.append(
            f"  interp      {i['reference_cycles_per_sec']:>12,} -> "
            f"{i['fused_cycles_per_sec']:>12,} sim cycles/s   "
            f"{i['speedup']:.2f}x (target {i['target_speedup']}x)  "
            f"bitwise={'ok' if i['bitwise_identical'] else 'DIVERGED'}")
    if "vector" in s:
        v = s["vector"]
        lines.append(
            f"  vector      {v['fused_cycles_per_sec']:>12,} -> "
            f"{v['vectorized_cycles_per_sec']:>12,} sim cycles/s   "
            f"{v['speedup']:.2f}x (target {v['target_speedup']}x)  "
            f"bitwise={'ok' if v['bitwise_identical'] else 'DIVERGED'}")
    if "campaign" in s:
        c = s["campaign"]
        lines.append(
            f"  campaign    {c['baseline_trials_per_sec']:>12.2f} -> "
            f"{c['cached_trials_per_sec']:>12.2f} trials/s       "
            f"{c['speedup']:.2f}x (target {c['target_speedup']}x)  "
            f"outcomes={'ok' if c['outcomes_identical'] else 'DIVERGED'}")
    if "faults" in s:
        f = s["faults"]
        lines.append(
            f"  faults      {f['reference_trials_per_sec']:>12.2f} -> "
            f"{f['window_trials_per_sec']:>12.2f} trials/s       "
            f"{f['speedup_vs_bench6']:.2f}x vs BENCH_6 "
            f"(target {f['target_speedup']}x)  "
            f"outcomes={'ok' if f['outcomes_identical'] else 'DIVERGED'}  "
            f"elided={f['elided']}/{f['trials']}")
    if "compile" in s:
        c = s["compile"]
        lines.append(
            f"  compile     {c['cold_ms']:>10.1f}ms cold -> "
            f"{c['warm_ms']:.3f}ms warm   {c['speedup']:.0f}x")
    if "equivalence" in s:
        e = s["equivalence"]
        status = "bitwise identical" if e["bitwise_identical"] else (
            f"{len(e['divergences'])} DIVERGENCES")
        lines.append(
            f"  equivalence {e['corpus_configs']} corpus + "
            f"{e['suite_configs']} suite configs: {status}")
        for d in e["divergences"][:20]:
            lines.append(f"    ! {d}")
    lines.append(f"  correct: {report['correct']}")
    return "\n".join(lines)


def write_report(report: Dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
