"""Dead-upset finishing (DESIGN.md §20) pinning tests.

The contract under test: when a fault trial's launch starts from the
golden run's exact recorded state and the upset lands in a register no
instruction can read again, the device may stop simulating and finish
the launch from the recorded golden launch, and every trial record stays
identical to the reference configuration (``REPRO_FAULT_WINDOW=0``).
The proof is :class:`~repro.faults.injector.ReadHorizon`, so the planted
kernels below pin each of its rules: SIMT order puts the else-arm in the
then-arm's future, loops restart at their outermost header, conditions
are reads and writes never kill.
"""

import numpy as np
import pytest

from repro.faults.campaign import draw_plans, execute_trial, golden_run
from repro.faults.injector import (
    FaultHook,
    FaultPlan,
    ReadHorizon,
    read_horizon,
)
from repro.gpu import fused
from repro.gpu.config import HD7790
from repro.gpu.device import Device
from repro.ir.core import (
    Alu,
    AtomicGlobal,
    Barrier,
    BufferParam,
    Cmp,
    Const,
    If,
    Instr,
    LoadGlobal,
    LoadLocal,
    LoadParam,
    LocalAlloc,
    PredOp,
    ReportError,
    ScalarParam,
    Select,
    SpecialId,
    StoreGlobal,
    StoreLocal,
    Swizzle,
    VReg,
    While,
)
from repro.ir.types import DType
from repro.kernels.fast_walsh import FastWalshTransform
from repro.kernels.suite import make_benchmark
from repro.runtime.api import Session
from tests.test_fault_window import _fields


def _regs(*names):
    return [VReg(n, DType.U32) for n in names]


# ---------------------------------------------------------------------------
# (a) The proof is only as sound as ``sources()``
# ---------------------------------------------------------------------------


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _one_of_each():
    """One instance of every instruction class, optional operands set."""
    d, a, b, c = _regs("d", "a", "b", "c")
    p = VReg("p", DType.PRED)
    buf = BufferParam("buf", DType.U32)
    lds = LocalAlloc("lds", DType.U32, 64)
    return [
        Const(d, 1),
        LoadParam(d, ScalarParam("s", DType.U32)),
        SpecialId(d, "global_id", 0),
        Alu("add", d, a, b),
        Alu("not", d, a),
        Cmp("lt", p, a, b),
        PredOp("and", p, p, VReg("q", DType.PRED)),
        Select(d, p, a, b),
        LoadGlobal(d, buf, a),
        StoreGlobal(buf, a, b),
        LoadLocal(d, lds, a),
        StoreLocal(lds, a, b),
        AtomicGlobal("cmpxchg", d, buf, a, b, c),
        AtomicGlobal("add", None, buf, a, b),
        Barrier(),
        Swizzle(d, a, 0x1F, 0, 1),
        ReportError(3),
    ]


def test_every_register_slot_outside_dests_is_a_source():
    instrs = _one_of_each()
    assert {type(i) for i in instrs} == set(_subclasses(Instr))
    for ins in instrs:
        slots = [getattr(ins, s) for s in type(ins).__slots__]
        regs = {id(r) for r in slots if isinstance(r, VReg)}
        dests = {id(r) for r in ins.dests()}
        assert regs - dests <= {id(r) for r in ins.sources()}, ins


# ---------------------------------------------------------------------------
# (b) Planted kernels: the SIMT-order rules
# ---------------------------------------------------------------------------


def test_else_arm_read_is_live_at_a_then_arm_flip():
    x, y, z, w = _regs("x", "y", "z", "w")
    p = VReg("p", DType.PRED)
    then_i, else_i, after = Const(y, 1), Alu("mov", z, x), Const(w, 2)
    h = ReadHorizon([Const(x, 5), If(p, [then_i], [else_i]), after])
    assert not h.dead(id(x), then_i)
    assert not h.dead(id(x), else_i)
    assert h.dead(id(x), after)
    # The else-arm runs after the then-arm, never before it.
    assert h.dead(id(y), else_i)


def test_read_before_an_enclosing_loop_is_dead_inside_it():
    x, i, y = _regs("x", "i", "y")
    p = VReg("p", DType.PRED)
    use, inner = Alu("mov", y, x), Const(i, 0)
    h = ReadHorizon([Const(x, 5), use,
                     While([Cmp("lt", p, i, i)], p, [inner])])
    assert not h.dead(id(x), use)
    assert h.dead(id(x), inner)


def test_read_earlier_in_the_loop_body_is_live_across_the_back_edge():
    x, y, z, i = _regs("x", "y", "z", "i")
    p = VReg("p", DType.PRED)
    read, later, after = Alu("mov", y, x), Const(z, 1), Const(i, 2)
    h = ReadHorizon([Const(x, 5),
                     While([Cmp("lt", p, i, i)], p, [read, later]), after])
    assert not h.dead(id(x), later)
    assert h.dead(id(x), after)


def test_condition_reads_count():
    x, y, i = _regs("x", "y", "i")
    p, q = VReg("p", DType.PRED), VReg("q", DType.PRED)
    before_if, in_then = Const(x, 0), Const(y, 1)
    before_loop, body, after = Const(i, 0), Const(y, 2), Const(y, 3)
    h = ReadHorizon([before_if, If(p, [in_then]), before_loop,
                     While([Const(x, 1)], q, [body]), after])
    assert not h.dead(id(p), before_if)
    assert h.dead(id(p), in_then)
    assert not h.dead(id(q), body)
    assert h.dead(id(q), after)


def test_nested_loops_restart_at_the_outermost_header():
    x, y, i = _regs("x", "y", "i")
    p, q = VReg("p", DType.PRED), VReg("q", DType.PRED)
    inner_i, after = Const(y, 1), Const(y, 2)
    inner = While([Cmp("lt", q, i, i)], q, [inner_i])
    outer = While([Cmp("lt", p, i, i)], p, [Alu("mov", y, x), inner])
    h = ReadHorizon([Const(x, 5), outer, after])
    assert not h.dead(id(x), inner_i)
    assert h.dead(id(x), after)


def test_writes_never_kill():
    """A masked write keeps the inactive lanes' upset values, so a
    register rewritten before its next read is still live."""
    x, y = _regs("x", "y")
    flip_at, rewrite = Const(y, 0), Const(x, 9)
    h = ReadHorizon([Const(x, 5), flip_at, rewrite, Alu("mov", y, x)])
    assert not h.dead(id(x), flip_at)


def test_unknown_instruction_and_unread_register():
    x, y = _regs("x", "y")
    body = [Const(x, 5), Const(y, 0)]
    h = ReadHorizon(body)
    assert h.dead(id(x), body[1])
    assert not h.dead(id(x), Const(y, 0))


def _branch_kernel(else_reads_x):
    """Lanes 0-31 take the then-arm, 32-63 the else-arm, which stores
    ``x`` (or a constant) to ``out``."""
    from repro.ir import KernelBuilder

    b = KernelBuilder("branch_" + ("x" if else_reads_x else "c"))
    out = b.buffer_param("out", DType.U32)
    x = b.const(5, DType.U32)
    gid = b.global_id(0)
    with b.if_else(b.lt(gid, 32)) as orelse:
        b.store(out, gid, b.const(1, DType.U32))
        with orelse():
            b.store(out, gid, x if else_reads_x else b.const(5, DType.U32))
    return b.finish()


@pytest.mark.parametrize("else_reads_x", [True, False])
def test_planted_then_arm_flip_end_to_end(else_reads_x):
    """The flip lands in ``x`` at the then-arm's first instruction (a
    ``const``, so the hook falls back to a resident register).  When
    the else-arm stores ``x`` the launch must run to the end and show
    the corruption; otherwise it finishes from the tape."""
    kernel = _branch_kernel(else_reads_x)
    assert read_horizon(kernel) is read_horizon(kernel)

    def launch(device, hook=None):
        out = device.alloc_zeros("out", 64, np.uint32)
        res = device.launch(kernel, 64, 64, {"out": out}, fault_hook=hook)
        return res, device.read_buffer(out)

    golden = Device(HD7790)
    tape = golden.record_tape()
    _res, want = launch(golden)
    # Instructions 1-4 are x, gid, 32 and the compare; x is the first
    # register the wave materialised, so victim_index 0 picks it.
    hook = FaultHook(FaultPlan("vgpr", 0, 5, 2, 40, 0))
    trial = Device(HD7790)
    trial.replay_from(tape)
    res, got = launch(trial, hook)
    assert hook.fired
    if else_reads_x:
        assert res.engine_kind == "standard"
        assert got[40] == want[40] ^ 4
        assert np.array_equal(np.delete(got, 40), np.delete(want, 40))
    else:
        assert res.engine_kind == "dead-upset"
        assert np.array_equal(got, want)
    assert trial.clock == golden.clock


# ---------------------------------------------------------------------------
# (c) Identity sweep against the reference fault path
# ---------------------------------------------------------------------------

SWEEP_BENCH = {
    "DWT": lambda: make_benchmark("DWT", "small"),
    # Ten launches of 16 waves: victims up to ordinal 64 sit in the
    # first four launches, so finishing one also replays the rest.
    "FWT": lambda: FastWalshTransform(n=1024, local_size=128),
}

SWEEP = [
    ("DWT", "intra+lds", "vgpr", 1, 8),
    ("DWT", "intra+lds", "sgpr", 1, 8),
    ("DWT", "inter", "vgpr", 1, 8),
    ("DWT", "inter", "sgpr", 1, 8),
    ("FWT", "intra+lds", "vgpr", 2, 64),
    ("FWT", "intra+lds", "sgpr", 2, 64),
]


def _trials(make_bench, compiled, envelope, target, seed, max_wave, window):
    plans = draw_plans(seed, 8, target, max_wave=max_wave,
                       max_instr=100 if max_wave == 8 else 25)
    with fused.fault_window(window):
        return [execute_trial(make_bench(), compiled, plan, envelope.budget,
                              index=i, reference=envelope.reference,
                              envelope=envelope)
                for i, plan in enumerate(plans)]


@pytest.mark.parametrize("abbrev,variant,target,seed,max_wave", SWEEP,
                         ids=[f"{a}-{v}-{t}" for a, v, t, _s, _w in SWEEP])
def test_records_identical_to_reference(abbrev, variant, target, seed,
                                        max_wave):
    make_bench = SWEEP_BENCH[abbrev]
    probe = make_bench()
    compiled = probe.compile(variant)
    envelope = golden_run(probe, compiled)
    args = (make_bench, compiled, envelope, target, seed, max_wave)
    on, off = _trials(*args, True), _trials(*args, False)
    assert [_fields(r) for r in on] == [_fields(r) for r in off]
    dead = [r for r in on if r.engine == "dead-upset"]
    assert dead
    launches = len(envelope.tape.entries)
    for r in dead:
        assert r.fired and r.outcome == "masked"
        # The stopped launch ran up to the fire: it counts as simulated.
        assert r.simulated >= 1 and r.simulated + r.replayed == launches


# ---------------------------------------------------------------------------
# (d) A diverged pre-state simulates the whole launch
# ---------------------------------------------------------------------------


def test_diverged_cache_simulates_the_whole_launch():
    probe = make_benchmark("DWT", "small")
    compiled = probe.compile("intra+lds")
    envelope = golden_run(probe, compiled)
    # Trial 7 of seed 1 ends as a dead upset from the golden state.
    plan = draw_plans(1, 8, "vgpr", max_wave=8, max_instr=100)[7]
    rec = execute_trial(make_benchmark("DWT", "small"), compiled, plan,
                        envelope.budget, reference=envelope.reference,
                        envelope=envelope)
    assert rec.engine == "dead-upset"

    def run(session):
        session.device.replay_from(envelope.tape)
        hook = FaultHook(plan,
                         scalar_reg_ids=compiled.uniformity.uniform_regs)
        make_benchmark("DWT", "small").run(session, compiled,
                                           fault_hook=hook)
        assert hook.fired
        return [r.engine_kind for r in session.device.stats.launch_results]

    assert run(Session.with_cycle_budget(envelope.budget)) == ["dead-upset"]
    session = Session.with_cycle_budget(envelope.budget)
    session.device.l2.access(1 << 30, write=False)
    assert run(session) == ["standard"]
