"""Golden launch-tape replay (DESIGN.md §16) pinning tests.

The contract under test: a fault trial whose launch starts from the
golden run's exact device state, while its upset cannot fire during
that launch, may return the golden launch's recorded result instead of
simulating it — and the trial's record stays bit-identical to the
reference configuration (``REPRO_FAULT_WINDOW=0``), which simulates
every launch.  Replay must never engage where the launch is not a
deterministic function of the recorded state: diverged memory or
caches, a live victim, a non-default scheduler, a plain callable hook,
the window disabled, or a watchdog the recorded launch would trip.
"""

import numpy as np
import pytest

from repro.faults.campaign import (
    TrialRecord,
    draw_plans,
    execute_trial,
    golden_run,
    run_campaign,
)
from repro.faults.injector import FaultHook, FaultPlan
from repro.gpu import fused
from repro.gpu.config import HD7790
from repro.gpu.engine import SimulationError
from repro.gpu.memory import CacheModel, DeviceBuffer, GlobalMemory
from repro.gpu.schedule import ReorderScheduler
from repro.kernels.bitonic_sort import BitonicSort
from repro.kernels.fast_walsh import FastWalshTransform
from repro.kernels.floyd_warshall import FloydWarshall
from repro.kernels.suite import make_benchmark
from repro.orchestrator import read_journal
from repro.runtime.api import Session
from tests.test_fault_window import _fields


#: Multi-launch benchmarks: BitS (45 launches), FWT (10) and FW (16).
#: These instances are smaller than the suite's "small" scale, which
#: keeps the reference configuration (every launch of every trial
#: simulated) affordable and puts only a few waves in each launch, so
#: victims up to ordinal 64 sit in launches past the first and the
#: launches before them replay too.  The inter rows are the slowest: a
#: hang runs to the watchdog budget in both configurations.
SWEEP_BENCH = {
    "BitS": lambda: BitonicSort(n=512, local_size=128),
    "FWT": lambda: FastWalshTransform(n=1024, local_size=128),
    "FW": lambda: FloydWarshall(n=16, local_size=128),
}


def _trials(make_bench, target, window, envelope, compiled,
            trials=8, seed=11):
    plans = draw_plans(seed, trials, target, max_wave=64, max_instr=25)
    with fused.fault_window(window):
        return [execute_trial(make_bench(), compiled, plan, envelope.budget,
                              index=i, reference=envelope.reference,
                              envelope=envelope)
                for i, plan in enumerate(plans)]


# ---------------------------------------------------------------------------
# Identity sweep: replay vs the reference configuration
# ---------------------------------------------------------------------------

SWEEP = [
    pytest.param(ab, variant, target,
                 marks=[pytest.mark.slow] if variant == "inter" else [],
                 id=f"{ab}-{variant}-{target}")
    for ab in SWEEP_BENCH
    for variant in ("original", "intra+lds", "intra-lds", "inter")
    for target in ("vgpr", "lds")
]


@pytest.mark.parametrize("abbrev,variant,target", SWEEP)
def test_replay_records_bit_identical_to_reference(abbrev, variant, target):
    make_bench = SWEEP_BENCH[abbrev]
    probe = make_bench()
    compiled = probe.compile(variant)
    envelope = golden_run(probe, compiled)
    ref = _trials(make_bench, target, False, envelope, compiled)
    rep = _trials(make_bench, target, True, envelope, compiled)
    assert [_fields(r) for r in ref] == [_fields(r) for r in rep]
    assert all(r.replayed == 0 for r in ref)
    launches = len(envelope.tape.entries)
    for r in rep:
        if r.engine != "elided" and r.outcome != "hang":
            assert r.simulated + r.replayed == launches
    assert sum(r.replayed for r in rep) > 0


# ---------------------------------------------------------------------------
# Where replay engages and where it must not
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fwt():
    """FWT/original: 12 launches of 32 waves, no RMT to mask upsets."""
    probe = make_benchmark("FWT", "small")
    compiled = probe.compile("original")
    return compiled, golden_run(probe, compiled)


def _run(compiled, envelope, hook, session=None):
    session = session or Session.with_cycle_budget(envelope.budget)
    session.device.replay_from(envelope.tape)
    make_benchmark("FWT", "small").run(session, compiled, fault_hook=hook)
    return [r.engine_kind for r in session.device.stats.launch_results]


def _hook(compiled, plan):
    return FaultHook(plan, scalar_reg_ids=compiled.uniformity.uniform_regs)


#: A plan whose upset in launch 0 corrupts global memory for good.
SDC_PLAN = FaultPlan("vgpr", 5, 3, 0, 44, 21)


def test_sdc_flip_replays_no_later_launch(fwt):
    compiled, envelope = fwt
    rec = execute_trial(make_benchmark("FWT", "small"), compiled, SDC_PLAN,
                        envelope.budget, reference=envelope.reference,
                        envelope=envelope)
    assert rec.fired and rec.outcome == "sdc"
    assert (rec.simulated, rec.replayed) == (12, 0)


def test_victim_in_later_launch_replays_the_launches_before_it(fwt):
    compiled, envelope = fwt
    plan = FaultPlan("vgpr", 3 * 32 + 5, 3, 0, 44, 21)
    hook = _hook(compiled, plan)
    kinds = _run(compiled, envelope, hook)
    assert hook.fired
    assert kinds[:3] == ["replayed"] * 3
    assert kinds[3] != "replayed"


def test_unfired_victim_out_of_range_replays_everything(fwt):
    compiled, envelope = fwt
    hook = _hook(compiled, FaultPlan("vgpr", 10_000, 3, 0, 44, 21))
    assert _run(compiled, envelope, hook) == ["replayed"] * 12
    assert not hook.fired


def _inert_hook(compiled):
    return _hook(compiled, FaultPlan("vgpr", 10_000, 3, 0, 44, 21))


def test_reorder_scheduler_replays_nothing(fwt):
    compiled, envelope = fwt
    session = Session(scheduler=ReorderScheduler("reverse"))
    kinds = _run(compiled, envelope, _inert_hook(compiled), session)
    assert "replayed" not in kinds


def test_plain_callable_hook_replays_nothing(fwt):
    compiled, envelope = fwt
    kinds = _run(compiled, envelope, lambda wave, instr: None)
    assert kinds == ["standard"] * 12


def test_window_disabled_replays_nothing(fwt):
    compiled, envelope = fwt
    with fused.fault_window(False):
        kinds = _run(compiled, envelope, _inert_hook(compiled))
    assert "replayed" not in kinds


def test_budget_below_golden_end_replays_nothing(fwt):
    compiled, envelope = fwt
    first = envelope.tape.entries[0]
    budget = first.clock + first.result.cycles - 1
    session = Session.with_cycle_budget(budget)
    with pytest.raises(SimulationError):
        _run(compiled, envelope, _inert_hook(compiled), session)
    assert session.device.stats.launch_results == []


def test_diverged_cache_blocks_replay(fwt):
    """Memory, clock and ordinals equal the golden run's but one L2 line
    is extra: the cache image is part of the state, so launch 0 runs."""
    compiled, envelope = fwt
    session = Session.with_cycle_budget(envelope.budget)
    session.device.l2.access(1 << 30, write=False)
    kinds = _run(compiled, envelope, _inert_hook(compiled), session)
    assert kinds[0] != "replayed"


def test_tape_from_other_config_is_ignored(fwt):
    compiled, envelope = fwt
    session = Session(config=HD7790.with_(num_cus=6))
    kinds = _run(compiled, envelope, _inert_hook(compiled), session)
    assert "replayed" not in kinds


def test_replayed_launch_leaves_golden_state(fwt):
    """After replaying every launch the device holds the golden run's
    outputs, caches, clock and ordinals."""
    compiled, envelope = fwt
    golden = Session()
    golden_out = make_benchmark("FWT", "small").run(golden, compiled)
    trial = Session.with_cycle_budget(envelope.budget)
    trial.device.replay_from(envelope.tape)
    out = make_benchmark("FWT", "small").run(
        trial, compiled, fault_hook=_inert_hook(compiled))
    np.testing.assert_array_equal(out.outputs["arr"],
                                  golden_out.outputs["arr"])
    assert trial.device.clock == golden.device.clock
    assert trial.device._wave_ordinals == golden.device._wave_ordinals
    for a, b in zip(trial.device._caches(), golden.device._caches()):
        assert a.snapshot() == b.snapshot()
    for a, b in zip(trial.device.stats.launch_results,
                    golden.device.stats.launch_results):
        assert (a.cycles, a.wave_instrs, a.events_processed) == \
               (b.cycles, b.wave_instrs, b.events_processed)


def test_tape_shares_unchanged_images(fwt):
    _compiled, envelope = fwt
    entries = envelope.tape.entries
    for prev, cur in zip(entries, entries[1:]):
        assert cur.caches is prev.post_caches
        assert cur.buffers[0][2] is prev.post_buffers["arr"]


# ---------------------------------------------------------------------------
# Route record and journals
# ---------------------------------------------------------------------------


def test_old_journal_records_load_zero_launch_counts():
    rec = TrialRecord(index=3, outcome="masked", simulated=4, replayed=8)
    doc = rec.to_json()
    assert TrialRecord.from_json(doc) == rec
    del doc["simulated"], doc["replayed"]
    old = TrialRecord.from_json(doc)
    assert (old.simulated, old.replayed) == (0, 0)


def test_parallel_journal_equals_serial(tmp_path):
    def journal(workers):
        path = tmp_path / f"w{workers}.jsonl"
        result = run_campaign(lambda: make_benchmark("FWT", "small"),
                              "intra+lds", "vgpr", trials=8, seed=3,
                              max_instr=20, max_wave=96, workers=workers,
                              journal=str(path))
        _meta, entries = read_journal(str(path))
        trials = sorted((e for e in entries if e["kind"] == "trial"),
                        key=lambda e: e["index"])
        return result, trials

    serial, serial_trials = journal(1)
    sharded, sharded_trials = journal(2)
    assert serial_trials == sharded_trials
    assert serial.to_json() == sharded.to_json()
    assert serial.replayed_launches > 0


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def test_cache_snapshot_restore_roundtrip():
    rng = np.random.default_rng(0)
    cache = CacheModel(4096, 64, 4)
    for line in rng.integers(0, 400, 300).tolist():
        cache.access(line, write=bool(line % 3))
    state = cache.snapshot()
    other = CacheModel(4096, 64, 4)
    assert not other.matches(state)
    other.restore(state)
    assert other.matches(state) and other.snapshot() == state
    for line in rng.integers(0, 400, 100).tolist():
        assert cache.access(line, write=True) == other.access(line, write=True)
    assert cache.snapshot() == other.snapshot()


@pytest.mark.parametrize("op", ["add", "or", "max", "xchg", "cmpxchg"])
def test_atomic_unique_lanes_match_lane_loop(op):
    """The one-shot RMW for distinct indices equals the lane loop it
    replaces (forced here through dtype-mismatched operands, which keep
    the loop even when the caller vouches the lanes are distinct)."""
    rng = np.random.default_rng(1)
    init = rng.integers(0, 1 << 20, 64).astype(np.uint32)
    idx = rng.permutation(64)[:40].astype(np.int64)
    vals = rng.integers(0, 1 << 20, 40).astype(np.uint32)
    cmps = init[idx].copy()
    cmps[::3] += 1
    mem = GlobalMemory()
    fast = mem.alloc("fast", init)
    old_fast = mem.atomic(op, fast, idx, vals, cmps, distinct=True)
    slow = mem.alloc("slow", init)
    old_slow = mem.atomic(op, slow, idx, vals.astype(np.int64),
                          cmps.astype(np.int64), distinct=True)
    np.testing.assert_array_equal(fast.data, slow.data)
    np.testing.assert_array_equal(old_fast, old_slow.astype(np.uint32))


def test_atomic_duplicate_lanes_serialize():
    buf = DeviceBuffer("c", np.zeros(2, dtype=np.uint32), 0x1000)
    old = GlobalMemory().atomic("add", buf, np.array([0, 0, 1, 0]),
                                np.ones(4, dtype=np.uint32))
    assert old.tolist() == [0, 1, 0, 2]
    assert buf.data.tolist() == [3, 1]
