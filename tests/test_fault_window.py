"""Fault-window execution (DESIGN.md §15) pinning tests.

The contract under test: with fault-window execution enabled, a fault
campaign's per-trial records are **bit-identical** to the reference
interpreter fault path — same outcomes, same descriptions, same cycle
counts, same error codes — while the engine actually runs the fused
fast path (dropping to per-instruction stepping only inside the victim
wave's trigger window) and synthesizes records for trials that provably
cannot fire.  A seeded sweep crosses benchmarks (including multi-launch
FWT, whose victim ordinals live in later launches), RMT variants
(including a selective partial-SoR build), and all three fault targets.
"""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_kernel
from repro.faults.campaign import draw_plans, execute_trial, golden_run
from repro.faults.injector import FaultHook, FaultPlan, random_plan
from repro.gpu import fused, vectorized
from repro.gpu.schedule import ReorderScheduler
from repro.kernels.suite import make_benchmark
from repro.runtime.api import Session


def _compile(bench, variant):
    if variant == "selective":
        from repro.compiler.passes.rmt_selective import (
            SelectiveOptions,
            SelectiveRmtPass,
        )

        return compile_kernel(
            bench.build(), "selective",
            rmt_pass=SelectiveRmtPass(
                SelectiveOptions(source="priority", threshold=0.5)))
    return bench.compile(variant)


#: FWT (small) performs 12 launches of 64 waves each; drawing victim
#: ordinals up to 96 puts some trials in the *second* launch, pinning
#: the device's running ordinal base.  The small single-dispatch
#: benchmarks keep the campaign default (8), which already overshoots
#: their 4 waves enough to exercise no-fire elision.
_MAX_WAVE = {"FWT": 96}


def _campaign(abbrev, variant, target, trials, seed, window):
    """One serial trial loop, returning (records, envelope)."""
    probe = make_benchmark(abbrev, "small")
    compiled = _compile(probe, variant)
    with fused.fault_window(window):
        envelope = golden_run(probe, compiled)
        plans = draw_plans(seed, trials, target, max_instr=25,
                           max_wave=_MAX_WAVE.get(abbrev, 8))
        records = []
        for i, plan in enumerate(plans):
            bench = make_benchmark(abbrev, "small")
            records.append(execute_trial(
                bench, compiled, plan, envelope.budget, index=i,
                reference=envelope.reference,
                envelope=envelope if window else None))
    return records, envelope


def _fields(rec):
    """Every record field that must not depend on the execution path.

    ``engine`` is deliberately excluded: it names which path produced
    the record (path metadata, not an outcome).
    """
    return (rec.index, rec.outcome, rec.fired, rec.description,
            rec.cycles, rec.error, rec.bucket, rec.plan)


# ---------------------------------------------------------------------------
# Seeded identity sweep: window path vs interpreter path
# ---------------------------------------------------------------------------


#: benchmark x variant x target corpus.  FWT is multi-launch (12
#: launches x 32 waves), so victim ordinals land in later launches and
#: pin the cross-launch ordinal-base continuity; DWT is the bench/
#: campaign workhorse; NB is a tiny single-group dispatch.
SWEEP = [
    ("FWT", "original", "vgpr"),
    ("FWT", "intra-lds", "vgpr"),
    ("FWT", "intra+lds", "vgpr"),
    ("FWT", "intra+lds", "sgpr"),
    ("FWT", "intra+lds", "lds"),
    ("FWT", "inter", "vgpr"),
    ("FWT", "selective", "vgpr"),
    ("DWT", "original", "lds"),
    ("DWT", "intra+lds", "vgpr"),
    ("DWT", "intra+lds", "sgpr"),
    ("DWT", "inter", "lds"),
    ("DWT", "selective", "sgpr"),
    ("NB", "intra+lds", "vgpr"),
    ("NB", "intra-lds", "lds"),
    ("NB", "selective", "lds"),
]


@pytest.mark.parametrize("abbrev,variant,target", SWEEP,
                         ids=[f"{a}-{v}-{t}" for a, v, t in SWEEP])
def test_window_records_bit_identical_to_interpreter(abbrev, variant, target):
    ref, _ = _campaign(abbrev, variant, target, trials=6, seed=11,
                       window=False)
    win, env = _campaign(abbrev, variant, target, trials=6, seed=11,
                         window=True)
    assert [_fields(r) for r in ref] == [_fields(r) for r in win]
    # Elision must agree exactly with the envelope's reachability bound,
    # and a trial the envelope admits must really have fired.
    for r_ref, r_win in zip(ref, win):
        if r_win.engine == "elided":
            assert not env.can_fire(r_win.plan)
            assert not r_ref.fired
        else:
            assert env.can_fire(r_win.plan) or not r_win.fired


def test_sweep_covers_cross_launch_ordinals():
    """FWT's plan stream must include victims beyond the first launch —
    otherwise the sweep would never exercise the device's running
    ordinal base."""
    probe = make_benchmark("FWT", "small")
    compiled = probe.compile("intra+lds")
    session = Session()
    probe.run(session, compiled)
    launches = session.device.stats.launch_results
    assert len(launches) > 1
    first = launches[0].waves_launched
    plans = draw_plans(11, 6, "vgpr", max_instr=25,
                       max_wave=_MAX_WAVE["FWT"])
    total = sum(r.waves_launched for r in launches)
    assert any(first <= p.wave_ordinal < total for p in plans), (
        "seed 11 no longer reaches a later-launch ordinal; pick another")


# ---------------------------------------------------------------------------
# Engine routing
# ---------------------------------------------------------------------------


def test_reorder_scheduler_with_hook_forces_standard_engine():
    bench = make_benchmark("FWT", "small")
    compiled = bench.compile("intra+lds")
    plan = FaultPlan("vgpr", 0, 3, 12, 9, 0)
    hook = FaultHook(plan, scalar_reg_ids=compiled.uniformity.uniform_regs)
    with vectorized.vector(True):
        res = bench.run(Session(scheduler=ReorderScheduler("reverse")),
                        compiled, fault_hook=hook)
    assert all(l.engine_kind == "standard" for l in res.launches)


def test_controlled_scheduler_with_hook_forces_standard_engine():
    from repro.mc.controlled import ControlledScheduler

    bench = make_benchmark("NB", "small")
    compiled = bench.compile("original")
    plan = FaultPlan("vgpr", 0, 3, 12, 9, 0)
    hook = FaultHook(plan, scalar_reg_ids=compiled.uniformity.uniform_regs)
    with vectorized.vector(True):
        res = bench.run(Session(scheduler=ControlledScheduler()),
                        compiled, fault_hook=hook)
    assert all(l.engine_kind == "standard" for l in res.launches)


def test_plain_callable_hook_keeps_reference_interpreter():
    """A hook without ``supports_window`` observes every instruction, so
    it must see exactly ``sum(wave_instrs)`` calls."""
    bench = make_benchmark("NB", "small")
    compiled = bench.compile("original")
    calls = []
    session = Session()
    res = bench.run(session, compiled,
                    fault_hook=lambda wave, instr: calls.append(1))
    total = sum(n for l in session.device.stats.launch_results
                for n in l.wave_instrs)
    assert len(calls) == total > 0
    assert all(l.engine_kind == "standard" for l in res.launches)


def test_window_disabled_records_standard_engine():
    recs, _ = _campaign("NB", "intra+lds", "vgpr", trials=4, seed=3,
                        window=False)
    assert all(r.engine == "standard" for r in recs)


# ---------------------------------------------------------------------------
# FaultHook memory regression (satellite: unbounded per-wave state)
# ---------------------------------------------------------------------------


def test_hook_state_does_not_grow_with_waves():
    """The hook used to key private state by wave identity, which grew
    without bound across a campaign's thousands of launches.  Ordinal
    stamping moved wave identity into the engine; the hook must now hold
    no collection that grows as more waves run through it."""
    bench = make_benchmark("FWT", "small")
    compiled = bench.compile("intra+lds")
    # Victim ordinal far beyond the dispatch: the hook stays armed (and
    # observing) for the whole run, the worst case for retained state.
    plan = FaultPlan("vgpr", 10_000, 3, 12, 9, 0)
    hook = FaultHook(plan, scalar_reg_ids=compiled.uniformity.uniform_regs)

    def sizes():
        return {k: len(v) for k, v in vars(hook).items()
                if isinstance(v, (dict, list, set))}

    with fused.fault_window(False):
        bench.run(Session(), compiled, fault_hook=hook)
        first = sizes()
        for _ in range(3):
            bench.run(Session(), compiled, fault_hook=hook)
        assert sizes() == first


# ---------------------------------------------------------------------------
# Batched plan generation (satellite: vectorized SeedSequence draws)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["vgpr", "sgpr", "lds"])
def test_draw_plan_batch_matches_per_trial_streams(target):
    from repro.faults.planner import draw_plan_batch
    from repro.orchestrator.seeding import trial_rng

    for seed, trials, mw, mi in [(11, 40, 8, 20), (1234, 17, 16, 120),
                                 (0, 1, 4, 10)]:
        got = draw_plan_batch(seed, trials, target, max_wave=mw,
                              max_instr=mi)
        want = [random_plan(trial_rng(seed, i), target, max_wave=mw,
                            max_instr=mi) for i in range(trials)]
        assert got == want, (seed, trials, target)


def test_draw_plans_prefix_stability():
    """Plan *i* depends only on (seed, i): a longer draw is a superset."""
    assert draw_plans(11, 8, "vgpr") == draw_plans(11, 32, "vgpr")[:8]


# ---------------------------------------------------------------------------
# Toggle plumbing
# ---------------------------------------------------------------------------


def test_fault_window_toggle_default_on_and_context():
    assert fused.fault_window_enabled()
    with fused.fault_window(False):
        assert not fused.fault_window_enabled()
        with fused.fault_window(True):
            assert fused.fault_window_enabled()
        assert not fused.fault_window_enabled()
    assert fused.fault_window_enabled()
