"""Livelock proof (DESIGN.md §17) pinning tests.

Under fault-window execution a hooked launch whose upset has fired ends
with a ``livelock:`` :class:`SimulationError` as soon as every live wave
is provably stuck in a spin loop (or parked at a barrier nobody else can
reach), instead of simulating to the watchdog.  Campaign records must
not change: a hang is a hang either way.  The planted kernels pin both
directions: real livelocks are proven early, and anything that can
still make progress (a late release, a changing register, memory that
moves, an upset that has not fired) is not.
"""

import re

import numpy as np
import pytest

from repro.faults.campaign import run_campaign
from repro.faults.injector import FaultHook, FaultPlan
from repro.gpu import fused
from repro.gpu.config import HD7790
from repro.gpu.device import Device
from repro.gpu.engine import SimulationError
from repro.ir import DType, KernelBuilder
from repro.kernels.suite import make_benchmark
from repro.runtime.api import Session

_ROUTE = ("engine", "simulated", "replayed")


def _campaign(seed, window):
    with fused.fault_window(window):
        return run_campaign(lambda: make_benchmark("DWT", "small"), "inter",
                            "vgpr", trials=12, seed=seed, max_instr=100,
                            scale="small")


def _identity(rec):
    return {k: v for k, v in rec.to_json().items() if k not in _ROUTE}


# ---------------------------------------------------------------------------
# Campaign identity: proof on vs the reference configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [
    300000,
    pytest.param(301000, marks=pytest.mark.slow),
    pytest.param(303000, marks=pytest.mark.slow),
])
def test_campaign_records_match_window_off(seed):
    on, off = _campaign(seed, True), _campaign(seed, False)
    assert on.outcomes["hang"] == 1
    assert [_identity(r) for r in on.records] == [
        _identity(r) for r in off.records]
    # The hung launch is counted and named on both paths.
    assert on.simulated_launches == off.simulated_launches == 12
    (hang,) = [r for r in on.records if r.outcome == "hang"]
    assert (hang.engine, hang.simulated) == ("standard", 1)

    # With the window on the hang ends through the proof, well before the
    # budget the reference path simulates to.
    probe = make_benchmark("DWT", "small")
    compiled = probe.compile("inter")
    hook = FaultHook(hang.plan,
                     scalar_reg_ids=compiled.uniformity.uniform_regs)
    session = Session.with_cycle_budget(2_500_000)
    with fused.fault_window(True):
        with pytest.raises(SimulationError, match=r"^livelock: waves \d+"):
            probe.run(session, compiled, fault_hook=hook)


# ---------------------------------------------------------------------------
# Planted kernels
# ---------------------------------------------------------------------------

#: Watchdog horizon of the planted launches.
_BUDGET = 200_000


def _junk_prologue(b):
    """Two instructions whose only effect is a register the hook can flip
    (trigger 2 on wave 0) without touching anything the kernel uses."""
    junk = b.const(7, DType.U32)
    b.add(junk, junk)


def _mutual_wait():
    """Group 0 waits for flag[0], group 1 for flag[1]; each would set the
    other's flag only after its own wait ends: a deadlock."""
    b = KernelBuilder("mutual_wait")
    flag = b.buffer_param("flag", DType.U32)
    out = b.buffer_param("out", DType.U32)
    _junk_prologue(b)
    grp = b.group_id(0)
    with b.loop() as lp:
        f = b.atomic("add", flag, grp, 0)
        lp.break_unless(b.eq(f, 0))
    b.atomic("xchg", flag, b.sub(1, grp), 1, want_old=False)
    b.store(out, b.global_id(0), 1)
    return b.finish()


def _hook(trigger=2):
    return FaultHook(FaultPlan(target="vgpr", wave_ordinal=0,
                               trigger_instr=trigger, bit=3, lane=5,
                               victim_index=0))


def _launch(kernel, hook=None, n_flags=2, groups=2, budget=_BUDGET):
    dev = Device(HD7790.with_(max_cycles=budget))
    flag = dev.alloc_zeros("flag", n_flags, np.uint32)
    out = dev.alloc_zeros("out", 64 * groups, np.uint32)
    res = dev.launch(kernel, 64 * groups, 64, {"flag": flag, "out": out},
                     fault_hook=hook)
    return res, dev.read_buffer(out)


def test_mutual_wait_is_proven_early():
    hook = _hook()
    with pytest.raises(SimulationError, match="^livelock: ") as err:
        _launch(_mutual_wait(), hook, budget=2_000_000)
    assert hook.fired
    msg = str(err.value)
    assert "waves 0 (group 0), 1 (group 1)" in msg
    assert "mutual_wait" in msg
    t = float(re.search(r"from t=(\d+)", msg).group(1))
    assert t < 20_000


def test_window_off_keeps_the_watchdog():
    with fused.fault_window(False):
        with pytest.raises(SimulationError, match="^watchdog"):
            _launch(_mutual_wait(), _hook())


def test_unhooked_deadlock_keeps_the_watchdog():
    with pytest.raises(SimulationError, match="^watchdog"):
        _launch(_mutual_wait())


def test_unfired_victim_is_not_proven():
    hook = _hook(trigger=10**9)
    with pytest.raises(SimulationError, match="^watchdog"):
        _launch(_mutual_wait(), hook)
    assert not hook.fired


def test_late_release_completes_identically():
    """Group 1 spins unchanged for a long time while group 0 computes
    (its loop counter changes every iteration), then gets released."""
    b = KernelBuilder("late_release")
    flag = b.buffer_param("flag", DType.U32)
    out = b.buffer_param("out", DType.U32)
    _junk_prologue(b)
    grp = b.group_id(0)
    acc = b.var(DType.U32, 0)
    with b.if_(b.eq(grp, 0)):
        with b.for_range(0, 3000) as i:
            b.set(acc, b.add(b.mul(acc, 3), i))
        b.atomic("xchg", flag, 0, 1, want_old=False)
    with b.if_(b.eq(grp, 1)):
        with b.loop() as lp:
            f = b.atomic("add", flag, 0, 0)
            lp.break_unless(b.eq(f, 0))
    b.store(out, b.global_id(0), b.add(acc, grp))
    k = b.finish()

    runs = {}
    for window in (True, False):
        hook = _hook()
        with fused.fault_window(window):
            res, out = _launch(k, hook, n_flags=1, budget=2_000_000)
        assert hook.fired
        runs[window] = (res.cycles, out.tolist())
    assert runs[True] == runs[False]


@pytest.mark.parametrize("space", ["global", "lds"])
def test_write_then_barrier_releases_the_spinner(space):
    """Wave 1 spins unchanged on a word while wave 0 computes; wave 0 then
    writes the word and parks at the barrier.  The write moves the
    epoch, so the spinner's mark is stale and nothing is proven."""
    b = KernelBuilder(f"release_{space}")
    flag = b.buffer_param("flag", DType.U32)
    out = b.buffer_param("out", DType.U32)
    lds = b.local_alloc("word", DType.U32, 1)
    _junk_prologue(b)
    acc = b.var(DType.U32, 0)
    with b.if_(b.lt(b.local_id(0), 64)):
        with b.for_range(0, 3000) as i:
            b.set(acc, b.add(b.mul(acc, 3), i))
        if space == "lds":
            b.store_local(lds, 0, 5)
        else:
            b.store(flag, 0, 5)
    with b.if_(b.ge(b.local_id(0), 64)):
        with b.loop() as lp:
            if space == "lds":
                f = b.load_local(lds, 0)
            else:
                f = b.atomic("add", flag, 0, 0)
            lp.break_unless(b.eq(f, 0))
    b.barrier()
    b.store(out, b.global_id(0), b.add(acc, 1))
    k = b.finish()
    k.metadata["local_size"] = 128

    runs = {}
    for window in (True, False):
        hook = _hook()
        dev = Device(HD7790.with_(max_cycles=2_000_000))
        fb = dev.alloc_zeros("flag", 1, np.uint32)
        ob = dev.alloc_zeros("out", 128, np.uint32)
        with fused.fault_window(window):
            res = dev.launch(k, 128, 128, {"flag": fb, "out": ob},
                             fault_hook=hook)
        assert hook.fired
        runs[window] = (res.cycles, dev.read_buffer(ob).tolist())
    assert runs[True] == runs[False]


@pytest.mark.parametrize("trigger", range(30, 40))
def test_upset_inside_a_stuck_loop_is_not_proven(trigger):
    """The upset flips a register the spin loop reads but never writes,
    so its effect shows only at the next condition; states compared
    across the flip would look unchanged.  The proof only compares
    back-edges taken after the hook fired, and the loop exits."""
    b = KernelBuilder("flip_exit")
    flag = b.buffer_param("flag", DType.U32)
    out = b.buffer_param("out", DType.U32)
    gate = b.var(DType.U32, 0)
    with b.loop() as lp:
        f = b.atomic("add", flag, 0, 0)
        lp.break_unless(b.pand(b.eq(f, 0), b.eq(gate, 0)))
        b.and_(gate, 0)
    b.store(out, b.global_id(0), 1)
    k = b.finish()
    hook = FaultHook(
        FaultPlan(target="sgpr", wave_ordinal=0, trigger_instr=trigger,
                  bit=0, lane=0, victim_index=0),
        scalar_reg_ids={id(gate)})
    _res, got = _launch(k, hook, n_flags=1, groups=1)
    assert hook.fired
    assert (got == 1).all()


def test_changing_register_is_not_proven():
    b = KernelBuilder("counting_spin")
    flag = b.buffer_param("flag", DType.U32)
    out = b.buffer_param("out", DType.U32)
    _junk_prologue(b)
    polls = b.var(DType.U32, 0)
    with b.loop() as lp:
        f = b.atomic("add", flag, 0, 0)
        lp.break_unless(b.eq(f, 0))
        b.set(polls, b.add(polls, 1))
    b.store(out, b.global_id(0), polls)
    hook = _hook()
    with pytest.raises(SimulationError, match="^watchdog"):
        _launch(b.finish(), hook, n_flags=1, groups=1)
    assert hook.fired


def test_ping_pong_on_the_polled_word_is_not_proven():
    """Each iteration leaves memory and registers as they were, but the
    word changes twice in between: the epoch moves, so no proof."""
    b = KernelBuilder("ping_pong")
    flag = b.buffer_param("flag", DType.U32)
    out = b.buffer_param("out", DType.U32)
    _junk_prologue(b)
    with b.loop() as lp:
        f = b.atomic("add", flag, 0, 0)
        lp.break_unless(b.eq(f, 0))
        b.atomic("add", flag, 0, 1, want_old=False)
        b.atomic("add", flag, 0, 0xFFFFFFFF, want_old=False)
    b.store(out, b.global_id(0), 1)
    hook = _hook()
    with pytest.raises(SimulationError, match="^watchdog"):
        _launch(b.finish(), hook, n_flags=1, groups=1)
    assert hook.fired


def test_spin_with_a_barrier_is_not_proven():
    """Loops holding a barrier are never marked stuck (the proof does not
    track which barrier a spinning wave will arrive at next)."""
    b = KernelBuilder("barrier_spin")
    flag = b.buffer_param("flag", DType.U32)
    out = b.buffer_param("out", DType.U32)
    _junk_prologue(b)
    with b.loop() as lp:
        f = b.atomic("add", flag, 0, 0)
        lp.break_unless(b.eq(f, 0))
        b.barrier()
    b.store(out, b.global_id(0), 1)
    k = b.finish()
    k.metadata["local_size"] = 128
    hook = _hook()
    dev = Device(HD7790.with_(max_cycles=_BUDGET))
    fb = dev.alloc_zeros("flag", 1, np.uint32)
    ob = dev.alloc_zeros("out", 128, np.uint32)
    with pytest.raises(SimulationError, match="^watchdog"):
        dev.launch(k, 128, 128, {"flag": fb, "out": ob}, fault_hook=hook)
    assert hook.fired


def test_hooked_wild_store_wraps_into_the_buffer():
    b = KernelBuilder("wild_store")
    out = b.buffer_param("out", DType.U32)
    gid = b.global_id(0)
    b.store(out, b.add(gid, 64), b.add(gid, 1))
    k = b.finish()
    dev = Device()
    ob = dev.alloc_zeros("out", 64, np.uint32)
    hook = FaultHook(FaultPlan(target="vgpr", wave_ordinal=9,
                               trigger_instr=1, bit=0, lane=0,
                               victim_index=0))
    dev.launch(k, 64, 64, {"out": ob}, fault_hook=hook)
    np.testing.assert_array_equal(dev.read_buffer(ob), np.arange(1, 65))
