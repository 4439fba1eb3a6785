"""Byte-level mask tests and the full-mask memory path (DESIGN.md §19).

The fused walker tests exec masks by their bytes instead of numpy
reductions, and runs every memory instruction whose mask has all 64
lanes active without lane gathers.  These tests pin both to the
reference interpreter's gather path: the byte identities against numpy
on random (also non-canonical) bool masks, ``_exec_instr``'s two paths
request by request, whole launches of every memory instruction kind
under full, partial and empty masks, and a fault whose trigger lands on
a full-mask memory instruction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultHook, FaultPlan
from repro.gpu import Device, HD7790, fused
from repro.gpu.counters import BusyTracker
from repro.gpu.engine import Engine
from repro.gpu.memory import DeviceBuffer
from repro.gpu.wavefront import (
    WAVE,
    _NO_LANES,
    ErrorReq,
    GlobalReq,
    GroupState,
    LaunchContext,
    LdsReq,
    Wavefront,
)
from repro.ir.core import (
    Alu,
    AtomicGlobal,
    Barrier,
    BufferParam,
    Cmp,
    Const,
    If,
    Kernel,
    LoadGlobal,
    LoadLocal,
    ReportError,
    SpecialId,
    StoreGlobal,
    StoreLocal,
    While,
)
from repro.ir.types import DType

U32, I32, F32, PRED = DType.U32, DType.I32, DType.F32, DType.PRED


# ---------------------------------------------------------------------------
# Byte identities
# ---------------------------------------------------------------------------


def _bool_mask(raw):
    """A 64-lane bool mask over arbitrary bytes (non-canonical > 1)."""
    return np.array(raw, dtype=np.uint8).view(bool)


_MASK_BYTES = st.lists(
    st.one_of(st.just(0), st.just(1), st.integers(0, 255)),
    min_size=WAVE, max_size=WAVE)


@settings(max_examples=300, deadline=None)
@given(raw=_MASK_BYTES)
def test_byte_tests_match_numpy(raw):
    m = _bool_mask(raw)
    lanes = m.tobytes()
    assert (lanes != _NO_LANES) == bool(m.any())
    assert (0 not in lanes) == bool(m.all())
    assert WAVE - lanes.count(0) == int(m.sum())
    # The walker derives branch masks with & and ~, which canonicalize.
    other = _bool_mask(raw[::-1])
    for derived in (m & other, m & ~other):
        assert (derived.tobytes() != _NO_LANES) == bool(derived.any())
        assert WAVE - derived.tobytes().count(0) == int(derived.sum())


def test_byte_tests_on_edge_masks():
    assert np.zeros(WAVE, bool).tobytes() == _NO_LANES
    assert 0 not in _bool_mask([0x80] * WAVE).tobytes()
    assert 0 in _bool_mask([1] * 63 + [0]).tobytes()


# ---------------------------------------------------------------------------
# _exec_instr: full path vs gather path, request by request
# ---------------------------------------------------------------------------

_SRC = BufferParam("src", I32)
_ACC = BufferParam("acc", U32)


def _unit_wave():
    k = Kernel("unit")
    tile = k.add_local("tile", I32, 64)
    ctx = LaunchContext(
        k, (64, 1, 1), (64, 1, 1),
        {"src": DeviceBuffer("src", np.zeros(128, np.int32), 0x1000),
         "acc": DeviceBuffer("acc", np.zeros(128, np.uint32), 0x2000)},
        {}, config=HD7790)
    wave = Wavefront(ctx, GroupState(ctx, 0), 0)
    lanes = np.arange(WAVE)
    operands = {}
    for name, dtype, values in [
            ("ix", U32, (lanes * 5) & 63), ("fv", F32, lanes * -1.75 + 3),
            ("iv", I32, lanes * -37 + 500), ("cmp", U32, lanes % 3)]:
        reg = operands[name] = k.new_reg(dtype, name)
        wave.regs[id(reg)] = values.astype(dtype.np_dtype)
    wave.group.lds["tile"][:] = lanes * -11 + 100
    instrs = _unit_instrs(k, tile, **operands)
    wave.names = {id(r): r.name for ins in instrs.values()
                  for r in (*ins.sources(), *ins.dests())}
    return wave, instrs


def _unit_instrs(k, tile, ix, fv, iv, cmp):
    """Every memory instruction kind, with dtype-casting destinations
    (registered on first write, after the operands)."""
    return {
        "LoadLocal": LoadLocal(k.new_reg(F32), tile, ix),
        "StoreLocal": StoreLocal(tile, ix, fv),
        "LoadGlobal": LoadGlobal(k.new_reg(F32), _SRC, ix),
        "StoreGlobal": StoreGlobal(_SRC, ix, fv),
        "AtomicGlobal": AtomicGlobal("add", k.new_reg(F32), _ACC, ix, iv),
        "AtomicGlobal-nodst": AtomicGlobal("or", None, _ACC, ix, cmp),
        "AtomicGlobal-cmp": AtomicGlobal("cmpxchg", k.new_reg(I32), _ACC,
                                         ix, fv, cmp),
        "ReportError": ReportError(7),
    }


def _arr_sig(a):
    return None if a is None else (a.dtype.str, a.tobytes())


def _drive(wave, instr, mask, full):
    """Run one ``_exec_instr`` to completion; the requests it yields."""
    gen = wave._exec_instr(instr, mask, full)
    sigs, send = [], None
    while True:
        try:
            req = gen.send(send)
        except StopIteration:
            break
        send = None
        if isinstance(req, LdsReq):
            sigs.append(("lds", req.op, req.passes, req.active))
        elif isinstance(req, ErrorReq):
            sigs.append(("error", req.code, req.lanes))
        elif isinstance(req, GlobalReq):
            sigs.append(("global", req.op, req.buf.name, req.atomic_op,
                         _arr_sig(req.indices), _arr_sig(req.values),
                         _arr_sig(req.compares)))
            if req.op in ("load", "atomic"):
                # The engine returns the buffer's (I32/U32) words.
                send = (np.arange(req.indices.size) * -9 + 4).astype(
                    req.buf.data.dtype)
        else:
            sigs.append(type(req).__name__)
    return sigs


def _state(wave):
    """Registers (by name, in materialization order), LDS, counts."""
    return ([(wave.names[rid], _arr_sig(a)) for rid, a in wave.regs.items()],
            wave.group.lds["tile"].tobytes(), wave.dyn_instrs)


_MASKS = {
    "full": [1] * WAVE,
    "full-noncanonical": [1, 2, 0x80, 255] * 16,
    "partial": [1, 0, 1, 1] * 16,
    "partial-noncanonical": [0, 3, 0, 0x40] * 16,
    "one-lane": [0] * 63 + [1],
    "empty": [0] * WAVE,
}


@pytest.mark.parametrize("kind", list(_unit_wave()[1]))
@pytest.mark.parametrize("mask_name", list(_MASKS))
def test_exec_instr_full_path_matches_gather_path(kind, mask_name):
    mask = _bool_mask(_MASKS[mask_name])
    full = 0 not in mask.tobytes()
    runs = []
    for use_full in ([False, True] if full else [False]):
        wave, instrs = _unit_wave()
        instr = instrs[kind]
        runs.append((_drive(wave, instr, mask, use_full), _state(wave)))
    reqs, _state0 = runs[0]
    # The gather path reports the mask's active lanes, counted by numpy.
    lanes = int(mask.sum())
    for sig in reqs:
        if sig[0] == "lds":
            assert sig[3] == lanes
        elif sig[0] == "error":
            assert sig[2] == lanes
    if not lanes:
        assert reqs == []
    # The full path is request-for-request and bit-for-bit the same,
    # register materialization order included.
    assert all(run == runs[0] for run in runs[1:])


# ---------------------------------------------------------------------------
# Whole launches: fused walker vs reference interpreter
# ---------------------------------------------------------------------------

KINDS = ["LoadLocal", "StoreLocal", "LoadGlobal", "StoreGlobal",
         "AtomicGlobal", "ReportError"]
MASK_KINDS = ["full", "partial", "empty"]


class _Prog:
    """A kernel under construction: fresh registers, one body list."""

    def __init__(self, name):
        self.k = Kernel(name)
        self.body = self.k.body

    def reg(self, dtype):
        return self.k.new_reg(dtype)

    def const(self, value, dtype, out):
        r = self.reg(dtype)
        out.append(Const(r, value))
        return r

    def alu(self, op, a, b, out, dtype=None):
        r = self.reg(dtype or a.dtype)
        out.append(Alu(op, r, a, b))
        return r


def _mask_kernel(kind, mask_kind):
    """``kind`` under ``mask_kind``: once in an ``If`` region, then in a
    loop whose first two iterations keep the region's mask and later
    ones shed lanes.  Destinations convert dtypes; results land in
    buffers through full-mask stores at the end."""
    p = _Prog(f"mask_{kind}_{mask_kind}")
    src, outf, outi = (BufferParam("src", I32), BufferParam("outf", F32),
                       BufferParam("outi", I32))
    acc = BufferParam("acc", U32)
    p.k.params += [src, outf, outi, acc]
    # 65 words: a wrapped wild index lands on another word.
    tile = p.k.add_local("tile", I32, 65)
    b = p.body
    gid, lid = p.reg(U32), p.reg(U32)
    b += [SpecialId(gid, "global_id", 0), SpecialId(lid, "local_id", 0)]
    # Full-mask prologue: tile[lid] = gid * 3 - 70 (I32), and
    # fv = gid + 0.75 (F32).
    seed = p.alu("bitcast_i32", p.alu("mul", gid, p.const(3, U32, b), b),
                 None, b, I32)
    b.append(StoreLocal(tile, lid, p.alu("add", seed,
                                         p.const(-70, I32, b), b)))
    b.append(Barrier())
    fv = p.alu("add", p.alu("u2f", gid, None, b, F32),
               p.const(0.75, F32, b), b)
    pred = p.reg(PRED)
    if mask_kind == "full":
        b.append(Cmp("lt", pred, lid, p.const(64, U32, b)))
    elif mask_kind == "partial":
        b.append(Cmp("ne", pred, p.alu("and", lid, p.const(3, U32, b), b),
                     p.const(0, U32, b)))
    else:
        b.append(Cmp("gt", pred, lid, p.const(4096, U32, b)))
    dst_f, dst_i = p.reg(F32), p.reg(I32)

    def region(i, out):
        ix = p.alu("and", p.alu("add", p.alu("mul", lid, p.const(5, U32, out),
                                               out), i, out),
                   p.const(63, U32, out), out)
        gix = p.alu("and", p.alu("add", gid, i, out),
                    p.const(127, U32, out), out)
        if kind == "LoadLocal":
            out.append(LoadLocal(dst_f, tile, ix))
        elif kind == "StoreLocal":
            out.append(StoreLocal(tile, ix, fv))
        elif kind == "LoadGlobal":
            out.append(LoadGlobal(dst_f, src, gix))
            out.append(LoadGlobal(dst_i, src, ix))
        elif kind == "StoreGlobal":
            out.append(StoreGlobal(outi, gix, fv))
            # The stored register changes right after the store.
            out.append(Alu("add", fv, fv, p.const(1.5, F32, out)))
        elif kind == "AtomicGlobal":
            lane8 = p.alu("and", lid, p.const(7, U32, out), out)
            out.append(AtomicGlobal("add", dst_f, acc, lane8,
                                    p.const(3, U32, out)))
            out.append(AtomicGlobal("add", None, acc, gix, lid))
            out.append(AtomicGlobal("cmpxchg", dst_i, acc, gix,
                                    p.alu("add", gid, p.const(9, U32, out),
                                          out),
                                    p.alu("and", gid, p.const(3, U32, out),
                                          out)))
        else:
            out.append(ReportError(7))

    then = []
    i = p.const(0, U32, then)
    region(i, then)
    cond_block, loop_body = [], []
    lim = p.alu("add", p.alu("and", lid, p.const(7, U32, cond_block),
                             cond_block),
                p.const(2, U32, cond_block), cond_block)
    go = p.reg(PRED)
    cond_block.append(Cmp("lt", go, i, lim))
    region(i, loop_body)
    loop_body.append(Alu("add", i, i, p.const(1, U32, loop_body)))
    then.append(While(cond_block, go, loop_body))
    b.append(If(pred, then))
    # Full-mask epilogue: publish every result.
    b.append(Barrier())
    b.append(StoreGlobal(outf, gid, dst_f))
    tile_back = p.reg(I32)
    b.append(LoadLocal(tile_back, tile, lid))
    b.append(StoreGlobal(outi, p.alu("add", gid, p.const(128, U32, b), b),
                         p.alu("add", dst_i, tile_back, b)))
    return p.k


def _norm_counters(counters):
    return {k: (v.total if isinstance(v, BusyTracker) else v)
            for k, v in vars(counters).items()}


def _launch(kernel, fusion_on, fault_hook=None, window=True):
    """One launch on a fresh device; outputs, timing and wave state."""
    waves = []
    real_spawn = Engine._spawn_wave

    def spawn(self, ctx, group, wave_idx):
        wave = real_spawn(self, ctx, group, wave_idx)
        waves.append(wave)
        return wave

    dev = Device()
    bufs = {
        "src": dev.alloc("src", (np.arange(128) * -37 + 900).astype(np.int32)),
        "outf": dev.alloc_zeros("outf", 128, np.float32),
        "outi": dev.alloc_zeros("outi", 256, np.int32),
        "acc": dev.alloc("acc", (np.arange(128) * 5).astype(np.uint32)),
    }
    Engine._spawn_wave = spawn
    try:
        with fused.fusion(fusion_on), fused.fault_window(window):
            result = dev.launch(kernel, 128, 64, bufs, fault_hook=fault_hook)
    finally:
        Engine._spawn_wave = real_spawn
    return {
        "outputs": {n: dev.read_buffer(buf).tobytes() for n, buf in bufs.items()},
        "cycles": result.cycles,
        "counters": _norm_counters(result.counters),
        "detections": result.detections,
        "wave_instrs": result.wave_instrs,
        "oob_events": result.oob_events,
        "regs": sorted((w.ordinal, [(rid, _arr_sig(a))
                                    for rid, a in w.regs.items()])
                       for w in waves),
    }


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mask_kind", MASK_KINDS)
def test_fused_memory_paths_match_reference(kind, mask_kind):
    kernel = _mask_kernel(kind, mask_kind)
    ref = _launch(kernel, fusion_on=False)
    got = _launch(kernel, fusion_on=True)
    assert got == ref
    if kind == "ReportError":
        # Each wave reports once per region pass with the lanes active
        # there: the If's mask, then per loop trip the lanes still
        # looping ((lid & 7) + 2 trips each).
        lid = np.arange(WAVE)
        region = {"full": lid < 64, "partial": (lid & 3) != 0,
                  "empty": lid > 4096}[mask_kind]
        trips = [region] + [region & ((lid & 7) + 2 > i) for i in range(9)]
        want = [int(m.sum()) for m in trips if m.any()] * 2
        assert sorted(n for _t, _c, n in ref["detections"]) == sorted(want)


# ---------------------------------------------------------------------------
# A fault whose trigger lands on a full-mask memory instruction
# ---------------------------------------------------------------------------


class _RecordingHook(FaultHook):
    """Records the instruction the upset fired on."""

    fired_on = None

    def _flip_register(self, wave, instr):
        self.fired_on = type(instr).__name__
        super()._flip_register(wave, instr)


def _trigger_at(kernel, cls):
    """The victim wave's dynamic count at its first ``cls`` instruction
    executed with every lane active, found on the reference path."""
    seen = []

    def probe(wave, instr):
        if wave.ordinal == 0 and isinstance(instr, cls) and not seen:
            seen.append(wave.dyn_instrs)

    with fused.fusion(False):
        Device().launch(kernel, 128, 64, _probe_buffers(), fault_hook=probe)
    return seen[0]


def _probe_buffers():
    dev = Device()
    return {
        "src": dev.alloc("src", np.arange(128, dtype=np.int32)),
        "outf": dev.alloc_zeros("outf", 128, np.float32),
        "outi": dev.alloc_zeros("outi", 256, np.int32),
        "acc": dev.alloc_zeros("acc", 128, np.uint32),
    }


@pytest.mark.parametrize("kind,victim,bit", [
    # The stored value's lane 20, an exponent bit: a wrong word reaches
    # memory (no other lane's store overwrites it).
    ("StoreGlobal", 1, 24),
    # The LDS index's lane 20, bit 31: a wild access that wraps.
    ("LoadLocal", 0, 31),
])
def test_fault_on_full_mask_memory_instruction(kind, victim, bit):
    kernel = _mask_kernel(kind, "full")
    cls = {"StoreGlobal": StoreGlobal, "LoadLocal": LoadLocal}[kind]
    trigger = _trigger_at(kernel, cls)
    runs = {}
    for window in (True, False):
        hook = _RecordingHook(FaultPlan(target="vgpr", wave_ordinal=0,
                                        trigger_instr=trigger, bit=bit,
                                        lane=20, victim_index=victim))
        runs[window] = (_launch(kernel, fusion_on=True, fault_hook=hook,
                                window=window), hook.fired_on,
                        hook.record.description)
    assert runs[True][1] == cls.__name__
    assert runs[True] == runs[False]
    if kind == "StoreGlobal":
        golden = _launch(kernel, fusion_on=True)
        assert runs[True][0]["outputs"] != golden["outputs"]
    assert runs[True][0]["oob_events"] == (1 if kind == "LoadLocal" else 0)
