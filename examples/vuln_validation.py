#!/usr/bin/env python
"""Static vulnerability predictions vs measured fault outcomes, and the
coverage-vs-overhead frontier selective RMT opens up.

Two experiments over one benchmark:

1. **Validation** — run a fixed-seed fault campaign on the unprotected
   kernel, join each fired trial to the static priority bucket of the
   register it flipped, and report per-bucket SDC rates plus the
   Spearman rank correlation (the ACE/AVF analysis predicts outcomes
   iff higher buckets corrupt more often).

2. **Frontier** — compile selective builds covering 25/50/75/100% of
   the exit priority mass, measure fault coverage
   ``detected / (detected + sdc)`` and cycle overhead vs the original,
   and print them beside the paper's all-or-nothing variants
   (intra+lds / intra-lds / inter).  The paper's Figure 2 trades the
   whole sphere of replication at once; selective RMT samples the
   interior of that trade-off.

Run:  python examples/vuln_validation.py [--benchmark FWT] [--trials 120]
"""

import argparse

from repro.compiler.pipeline import compile_kernel
from repro.compiler.passes.rmt_selective import (
    SelectiveOptions,
    SelectiveRmtPass,
)
from repro.faults import (
    draw_plans, execute_trial, golden_run, validate_predictions)
from repro.kernels.suite import make_benchmark
from repro.runtime import Session

STOCK_VARIANTS = ("intra+lds", "intra-lds", "inter")
FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def fault_stats(bench, compiled, trials, seed, max_instr, envelope):
    """(coverage, detected, sdc) for vgpr faults on one compiled build."""
    detected = sdc = 0
    for plan in draw_plans(seed, trials, "vgpr", max_instr=max_instr):
        outcome = execute_trial(bench, compiled, plan,
                                cycle_budget=envelope.budget,
                                reference=envelope.reference,
                                envelope=envelope).outcome
        detected += outcome == "detected"
        sdc += outcome == "sdc"
    exposed = detected + sdc
    return (detected / exposed if exposed else None), detected, sdc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="FWT")
    parser.add_argument("--scale", default="small",
                        choices=["small", "paper"])
    parser.add_argument("--trials", type=int, default=120,
                        help="validation trials per target (default: 120)")
    parser.add_argument("--frontier-trials", type=int, default=32,
                        help="fault trials per frontier point (default: 32)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--max-instr", type=int, default=40)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    # -- 1. static predictions vs fault outcomes ------------------------
    print(f"== validation: {args.benchmark} static buckets vs "
          f"injected-fault outcomes ==")
    report = validate_predictions(
        args.benchmark, trials=args.trials, seed=args.seed,
        scale=args.scale, workers=args.workers, max_instr=args.max_instr)
    print(report.summary())
    for b, (rate, n) in sorted(report.sdc_rates.items()):
        print(f"  bucket {b}: SDC rate {rate:5.1%} over {n} fired trials")

    # -- 2. the coverage-vs-overhead frontier ---------------------------
    print(f"\n== frontier: selective priority mass vs the all-or-nothing "
          f"variants ({args.benchmark}) ==")
    bench = make_benchmark(args.benchmark, scale=args.scale)
    base_cycles = bench.run(Session(), bench.compile("original")).cycles

    header = f"{'build':16s} {'coverage':>9s} {'overhead':>9s} " \
             f"{'detected':>9s} {'sdc':>5s}"
    print(header)
    print("-" * len(header))

    def row(label, compiled):
        # Same golden run as run_campaign: its watchdog budget makes a
        # fault that corrupts a loop bound classify as a hang instead of
        # stalling the experiment.
        envelope = golden_run(bench, compiled)
        cycles = envelope.cycles
        coverage, detected, sdc = fault_stats(
            bench, compiled, args.frontier_trials, args.seed, args.max_instr,
            envelope)
        cov = f"{coverage:9.1%}" if coverage is not None else f"{'n/a':>9s}"
        print(f"{label:16s} {cov} {cycles / base_cycles:8.2f}x "
              f"{detected:9d} {sdc:5d}")

    for frac in FRACTIONS:
        compiled = compile_kernel(
            bench.build(), variant="selective",
            rmt_pass=SelectiveRmtPass(SelectiveOptions(
                source="priority", threshold=frac)))
        row(f"selective@{int(frac * 100)}%", compiled)
    for variant in STOCK_VARIANTS:
        row(variant, bench.compile(variant))

    print("\ncoverage = detected / (detected + sdc) over vgpr fault "
          "trials; masked trials are excluded.\noverhead = unfaulted "
          "cycles vs the original build.")


if __name__ == "__main__":
    main()
