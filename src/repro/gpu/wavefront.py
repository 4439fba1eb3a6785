"""Lockstep wavefront interpreter.

Each wavefront executes the kernel IR 64 lanes at a time over numpy
vectors, maintaining a SIMT execution mask through structured control
flow.  The interpreter is a generator: it performs functional computation
locally and *yields* timed resource requests (:class:`ExecReq`,
:class:`LdsReq`, :class:`GlobalReq`, :class:`BarrierReq`, ...) that the
timing engine satisfies; for loads and atomics the engine sends the data
back into the generator, so global-memory effects are applied in global
time order — which is what makes the Inter-Group RMT handshake protocols
(two-tier locks, atomic polling) causally consistent in simulation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.core import (
    Alu,
    AtomicGlobal,
    Barrier,
    Cmp,
    Const,
    If,
    Instr,
    Kernel,
    LoadGlobal,
    LoadLocal,
    LoadParam,
    PredOp,
    ReportError,
    Select,
    SpecialId,
    Stmt,
    StoreGlobal,
    StoreLocal,
    Swizzle,
    VReg,
    While,
)
from ..ir.core import TRANSCENDENTAL_OPS
from ..ir.types import DType
from .memory import DeviceBuffer, bank_passes, lds_pattern

WAVE = 64
_LANES = np.arange(WAVE)
#: ``mask.tobytes()`` of an empty exec mask.  Masks are 64-byte bool
#: vectors, so on ``mask.tobytes()`` ``any`` is ``!= _NO_LANES``,
#: ``all`` is ``0 not in``, and the active-lane count is
#: ``WAVE - .count(0)``: exact for any non-zero byte, and far cheaper
#: than numpy's reductions (DESIGN.md §19).
_NO_LANES = bytes(WAVE)

#: Side-effect-free instruction classes executed on the interpreter's
#: fast path (no generator round-trip, timing batched into one ExecReq).
_PURE_OPS = frozenset(
    {Alu, Const, Cmp, PredOp, Select, SpecialId, LoadParam, Swizzle}
)

#: A loop made purely of batched ALU work never reaches a natural yield
#: point, so without a periodic flush the timing engine — and therefore
#: the cycle-budget watchdog — would never see time advance (a host-side
#: livelock on e.g. a fault-corrupted loop bound).  Flushing is timing-
#: neutral (ExecReq accounting is additive), so only pathological spin
#: loops ever hit this threshold.
_SPIN_FLUSH_CYCLES = 4096


# ---------------------------------------------------------------------------
# Requests yielded to the timing engine
# ---------------------------------------------------------------------------


class ExecReq:
    """Batched ALU work: VALU issue cycles + scalar-unit cycles."""

    __slots__ = ("valu_cycles", "salu_cycles", "n_valu", "n_salu", "n_branch", "n_div_branch")

    def __init__(self, valu_cycles=0, salu_cycles=0, n_valu=0, n_salu=0,
                 n_branch=0, n_div_branch=0):
        self.valu_cycles = valu_cycles
        self.salu_cycles = salu_cycles
        self.n_valu = n_valu
        self.n_salu = n_salu
        self.n_branch = n_branch
        self.n_div_branch = n_div_branch


class LdsReq:
    """A wavefront LDS access (already applied functionally)."""

    __slots__ = ("op", "passes", "active")

    def __init__(self, op: str, passes: int, active: int):
        self.op = op            # 'load' | 'store'
        self.passes = passes    # serialized bank-conflict passes
        self.active = active


class GlobalReq:
    """A vector global-memory operation, applied by the engine."""

    __slots__ = ("op", "buf", "indices", "values", "compares", "atomic_op")

    def __init__(self, op, buf, indices, values=None, compares=None, atomic_op=None):
        self.op = op            # 'load' | 'store' | 'atomic'
        self.buf = buf          # DeviceBuffer
        self.indices = indices  # int64 element indices (active lanes only)
        self.values = values
        self.compares = compares
        self.atomic_op = atomic_op


class BarrierReq:
    """Work-group barrier."""

    __slots__ = ()


class ErrorReq:
    """RMT detection event raised by ``report_error``."""

    __slots__ = ("code", "lanes")

    def __init__(self, code: int, lanes: int):
        self.code = code
        self.lanes = lanes


# ---------------------------------------------------------------------------
# Launch / group context
# ---------------------------------------------------------------------------


class LaunchContext:
    """Immutable per-launch state shared by all wavefronts."""

    def __init__(
        self,
        kernel: Kernel,
        global_size: Tuple[int, int, int],
        local_size: Tuple[int, int, int],
        buffers: Dict[str, DeviceBuffer],
        scalars: Dict[str, object],
        scalar_instrs: Optional[set] = None,
        config=None,
    ):
        self.kernel = kernel
        self.global_size = global_size
        self.local_size = local_size
        self.buffers = buffers
        self.scalars = scalars
        self.scalar_instrs = scalar_instrs or set()
        self.config = config
        #: optional fault-injection hook: fn(wave, instr) -> None
        self.fault_hook: Optional[Callable] = None
        #: True when the hook supports the window query API and the
        #: launch should use fault-window execution (fused fast path with
        #: per-instruction stepping only near the victim's trigger).
        #: Plain callable hooks keep the reference per-instruction path.
        self.fault_window: bool = False
        #: the livelock proof of a fault-window launch
        #: (:class:`repro.gpu.fused.LivelockProof`), or None when unarmed
        self.livelock = None
        #: True when the device can finish this launch from its golden
        #: tape entry: a register upset that no instruction reads again
        #: then raises :class:`repro.gpu.engine.UpsetMasked` (DESIGN.md §20)
        self.dead_upset: bool = False
        #: per-launch cache of broadcast immediates (shared by all waves)
        self.broadcast_cache: Dict[int, np.ndarray] = {}
        #: per-launch memo of vector-access lane analyses, keyed by the
        #: shift-normalised index vector (DESIGN.md §18)
        self.access_patterns: Dict[tuple, object] = {}
        #: wild global and LDS accesses wrapped under a fault hook
        self.oob_events = 0
        #: lowered fused program (see :mod:`repro.gpu.fused`), or None to
        #: interpret per-instruction
        self.fused = None
        #: per-launch aggregate ExecReq cost per fused block (id -> tuple);
        #: launch-scoped because scalar-unit placement varies per compile
        self.fused_costs: Dict[int, tuple] = {}
        for d in range(3):
            if global_size[d] % local_size[d] != 0:
                raise ValueError(
                    f"global size {global_size} not divisible by local {local_size}"
                )
        self.num_groups = tuple(global_size[d] // local_size[d] for d in range(3))
        self.flat_local = local_size[0] * local_size[1] * local_size[2]
        self.total_groups = self.num_groups[0] * self.num_groups[1] * self.num_groups[2]

    def group_coords(self, flat_group: int) -> Tuple[int, int, int]:
        gx = flat_group % self.num_groups[0]
        gy = (flat_group // self.num_groups[0]) % self.num_groups[1]
        gz = flat_group // (self.num_groups[0] * self.num_groups[1])
        return (gx, gy, gz)


class GroupState:
    """Mutable per-work-group state: LDS contents and barrier bookkeeping."""

    def __init__(self, ctx: LaunchContext, flat_group: int):
        self.ctx = ctx
        self.flat_group = flat_group
        self.coords = ctx.group_coords(flat_group)
        self.lds: Dict[str, np.ndarray] = {
            alloc.name: np.zeros(alloc.nelems, dtype=alloc.dtype.np_dtype)
            for alloc in ctx.kernel.locals
        }
        self.n_waves = -(-ctx.flat_local // WAVE)
        self.waves_done = 0
        self.barrier_waiting: List = []


# ---------------------------------------------------------------------------
# Wavefront
# ---------------------------------------------------------------------------


class Wavefront:
    """One 64-lane wavefront's functional state and interpreter."""

    def __init__(self, ctx: LaunchContext, group: GroupState, wave_idx: int):
        self.ctx = ctx
        self.group = group
        self.wave_idx = wave_idx
        self.regs: Dict[int, np.ndarray] = {}
        self.dyn_instrs = 0
        # assigned by the engine at dispatch:
        self.cu = -1
        self.simd = -1
        self.gen = None
        #: execution-start ordinal, stamped by the timing engine the
        #: first time this wave is popped from the event queue (the same
        #: numbering the fault hook historically derived from first-call
        #: order).  -1 until stamped.
        self.ordinal = -1
        #: the per-instruction hook this wave actually calls.  Set by
        #: ``run()``: the launch hook on the reference path; on the
        #: fault-window path only the victim wave keeps it (the hook is
        #: a guaranteed no-op for every other wave, so skipping the
        #: calls is observationally identical and much cheaper).
        self._ihook: Optional[Callable] = None
        # precompute lane IDs
        flat_lid = wave_idx * WAVE + _LANES
        self.active0 = flat_lid < ctx.flat_local
        lx, ly, _lz = ctx.local_size
        self.lid = (
            (flat_lid % lx).astype(np.uint32),
            ((flat_lid // lx) % ly).astype(np.uint32),
            (flat_lid // (lx * ly)).astype(np.uint32),
        )
        gx, gy, gz = group.coords
        self.gid = (
            (gx * lx + self.lid[0]).astype(np.uint32),
            (gy * ly + self.lid[1]).astype(np.uint32),
            (gz * ctx.local_size[2] + self.lid[2]).astype(np.uint32),
        )
        # pending batched ALU work
        self._pend = ExecReq()

    # -- register access ----------------------------------------------------

    def read(self, reg: VReg) -> np.ndarray:
        arr = self.regs.get(id(reg))
        if arr is None:
            arr = np.zeros(WAVE, dtype=reg.dtype.np_dtype)
            self.regs[id(reg)] = arr
        return arr

    def write(self, reg: VReg, values: np.ndarray, mask: np.ndarray) -> None:
        arr = self.read(reg)
        if values.dtype != arr.dtype:
            values = values.astype(arr.dtype)
        np.copyto(arr, values, where=mask)

    # -- interpreter ---------------------------------------------------------

    def run(self):
        """Generator executing the whole kernel body.

        When the launch carries a lowered program (``ctx.fused``),
        straight-line pure-op runs execute through the block-fused
        executors in :mod:`repro.gpu.fused` — bitwise and timing
        identical, just without per-instruction dispatch.

        Hooked launches come in two flavours.  A *window-capable* hook
        (``ctx.fault_window``, see :class:`repro.faults.injector
        .FaultHook`) names one victim wave and one trigger watermark, so
        every wave runs the fused walker; only the unfired victim passes
        it the hook, and it drops to per-instruction stepping only when
        a block could cross the watermark.  Non-victim waves never call
        the hook at all.  A plain callable hook needs to observe every
        instruction and keeps the reference interpreter.

        The generator body first executes at the first ``send`` — after
        the engine popped (and therefore ordinal-stamped) the wave — so
        the victim test below always sees the final ordinal.
        """
        ctx = self.ctx
        hook = ctx.fault_hook
        window = hook is not None and ctx.fault_window
        if window and hook.window(self) is None:
            # The hook is a no-op for every wave but the unfired victim
            # (the victim test is pure in the stamped ordinal).
            hook = None
        self._ihook = hook
        mask = self.active0.copy()
        if ctx.fused is not None and (hook is None or window):
            yield from self._exec_fused(ctx.fused.items, mask,
                                        0 not in mask.tobytes(), hook)
        else:
            yield from self._exec_body(ctx.kernel.body, mask)
        if self._has_pending():
            yield self._flush()

    def _has_pending(self) -> bool:
        p = self._pend
        return p.valu_cycles or p.salu_cycles or p.n_branch

    def _flush(self) -> ExecReq:
        req = self._pend
        self._pend = ExecReq()
        return req

    def _exec_body(self, body: Sequence[Stmt], mask: np.ndarray):
        cfg = self.ctx.config
        hook = self._ihook
        exec_pure = self._exec_pure
        for stmt in body:
            cls = stmt.__class__
            if cls in _PURE_OPS:
                # Hot path: straight-line ALU work executes without the
                # per-instruction generator round-trip.
                self.dyn_instrs += 1
                if hook is not None:
                    hook(self, stmt)
                exec_pure(stmt, mask)
            elif isinstance(stmt, If):
                cond = self.read(stmt.cond)
                then_mask = mask & cond
                inv_mask = mask & ~cond
                t_any = then_mask.tobytes() != _NO_LANES
                i_any = inv_mask.tobytes() != _NO_LANES
                self._pend.n_branch += 1
                self._pend.valu_cycles += cfg.branch_cycles
                if t_any and i_any:
                    self._pend.n_div_branch += 1
                if t_any:
                    yield from self._exec_body(stmt.then_body, then_mask)
                if stmt.else_body and i_any:
                    yield from self._exec_body(stmt.else_body, inv_mask)
            elif isinstance(stmt, While):
                live = mask.copy()
                while True:
                    yield from self._exec_body(stmt.cond_block, live)
                    cond = self.read(stmt.cond)
                    live &= cond
                    self._pend.n_branch += 1
                    self._pend.valu_cycles += cfg.branch_cycles
                    lanes = live.tobytes()
                    if lanes == _NO_LANES:
                        break
                    if 0 in lanes and mask.tobytes() != _NO_LANES:
                        self._pend.n_div_branch += 1
                    yield from self._exec_body(stmt.body, live)
                    if (self._pend.valu_cycles + self._pend.salu_cycles
                            > _SPIN_FLUSH_CYCLES):
                        yield self._flush()
            else:
                yield from self._exec_instr(stmt, mask)

    # -- instruction semantics -------------------------------------------

    def _exec_pure(self, instr: Instr, mask: np.ndarray) -> None:
        """Execute one side-effect-free instruction (no timing yield)."""
        cls = instr.__class__
        if cls is Alu:
            self._do_alu(instr, mask)
            self._charge_alu(instr, in_trans=instr.op in TRANSCENDENTAL_OPS)
            return
        if cls is Cmp:
            a = self.read(instr.a)
            b = self.read(instr.b)
            res = _CMP_FUNCS[instr.op](a, b)
            self.write(instr.dst, res, mask)
        elif cls is Const or cls is LoadParam:
            self.write(instr.dst, self._broadcast_value(instr), mask)
        elif cls is PredOp:
            a = self.read(instr.a)
            if instr.op == "not":
                res = ~a
            else:
                b = self.read(instr.b)
                res = {"and": a & b, "or": a | b, "xor": a ^ b}[instr.op]
            self.write(instr.dst, res, mask)
        elif cls is Select:
            pred = self.read(instr.pred)
            res = np.where(pred, self.read(instr.a), self.read(instr.b))
            self.write(instr.dst, res, mask)
        elif cls is SpecialId:
            self.write(instr.dst, self._special_value(instr), mask)
        else:  # Swizzle
            src = self.read(instr.src)
            src_lanes = (((_LANES & instr.and_mask) | instr.or_mask) ^ instr.xor_mask) % WAVE
            self.write(instr.dst, src[src_lanes], mask)
        self._charge_alu(instr)

    def _broadcast_value(self, instr) -> np.ndarray:
        """Cached 64-lane broadcast of a Const/LoadParam value."""
        cache = self.ctx.broadcast_cache
        arr = cache.get(id(instr))
        if arr is None:
            if instr.__class__ is Const:
                value = instr.value
            else:
                value = self.ctx.scalars[instr.param.name]
            arr = np.full(WAVE, value, dtype=instr.dst.dtype.np_dtype)
            arr.flags.writeable = False
            cache[id(instr)] = arr
        return arr

    def _exec_instr(self, instr: Instr, mask: np.ndarray, full: bool = False):
        """Execute one non-pure instruction, yielding its requests.

        ``full`` vouches that every lane of ``mask`` is active: operands
        are then read without ``[mask]`` gathers and results written
        with one in-place cast, ``dst[:] = data``, which converts
        exactly like ``out[mask] = data``.  Store and atomic operands
        may then alias a register: the engine consumes them in
        ``_do_global`` before this wave resumes.
        """
        self.dyn_instrs += 1
        hook = self._ihook
        if hook is not None:
            hook(self, instr)
        cls = type(instr)
        if not (full or cls is Barrier):
            lanes = WAVE - mask.tobytes().count(0)
            if not lanes:
                return
        else:
            lanes = WAVE

        # Dispatch ordered by dynamic frequency (LDS traffic and barriers
        # dominate the non-pure stream of every LDS-blocked kernel).
        if cls is LoadLocal:
            arr = self.group.lds[instr.lds.name]
            idx = self.read(instr.index)
            idx = (idx if full else idx[mask]).astype(np.int64)
            idx, passes = self._lds_access(instr.lds.name, arr.size, idx)
            self._put(instr.dst, arr[idx], mask, full)
            if self._has_pending():
                yield self._flush()
            yield LdsReq("load", passes, lanes)
        elif cls is StoreLocal:
            arr = self.group.lds[instr.lds.name]
            idx = self.read(instr.index)
            idx = (idx if full else idx[mask]).astype(np.int64)
            idx, passes = self._lds_access(instr.lds.name, arr.size, idx)
            vals = self.read(instr.value)
            arr[idx] = (vals if full else vals[mask]).astype(arr.dtype)
            if self.ctx.livelock is not None:
                self.ctx.livelock.epoch += 1
            if self._has_pending():
                yield self._flush()
            yield LdsReq("store", passes, lanes)
        elif cls is Barrier:
            if self._has_pending():
                yield self._flush()
            yield BarrierReq()
        elif cls is LoadGlobal:
            buf = self.ctx.buffers[instr.buf.name]
            idx = self.read(instr.index)
            idx = (idx if full else idx[mask]).astype(np.int64)
            if self._has_pending():
                yield self._flush()
            op = "sload" if id(instr) in self.ctx.scalar_instrs else "load"
            data = yield GlobalReq(op, buf, idx)
            self._put(instr.dst, data, mask, full)
        elif cls is StoreGlobal:
            buf = self.ctx.buffers[instr.buf.name]
            idx = self.read(instr.index)
            idx = (idx if full else idx[mask]).astype(np.int64)
            vals = self.read(instr.value)
            if not full:
                vals = vals[mask]
            if self._has_pending():
                yield self._flush()
            yield GlobalReq("store", buf, idx, vals)
        elif cls is AtomicGlobal:
            buf = self.ctx.buffers[instr.buf.name]
            idx = self.read(instr.index)
            idx = (idx if full else idx[mask]).astype(np.int64)
            vals = self.read(instr.value)
            cmps = None if instr.compare is None else self.read(instr.compare)
            if not full:
                vals = vals[mask]
                cmps = None if cmps is None else cmps[mask]
            if self._has_pending():
                yield self._flush()
            old = yield GlobalReq("atomic", buf, idx, vals, cmps, instr.op)
            if instr.dst is not None:
                self._put(instr.dst, old, mask, full)
        elif cls is ReportError:
            if self._has_pending():
                yield self._flush()
            yield ErrorReq(instr.code, lanes)
        else:  # pragma: no cover
            raise TypeError(f"unknown instruction {instr!r}")

    def _put(self, dst: VReg, data: np.ndarray, mask: np.ndarray,
             full: bool) -> None:
        """Write active-lane ``data`` into ``dst``, cast to its dtype."""
        if full:
            self.read(dst)[:] = data
        else:
            out = np.zeros(WAVE, dtype=dst.dtype.np_dtype)
            out[mask] = data
            self.write(dst, out, mask)

    def _charge_alu(self, instr: Instr, in_trans: bool = False) -> None:
        cfg = self.ctx.config
        if id(instr) in self.ctx.scalar_instrs:
            self._pend.salu_cycles += cfg.salu_latency
            self._pend.n_salu += 1
        elif in_trans:
            self._pend.valu_cycles += cfg.trans_issue_cycles
            self._pend.n_valu += 1
        else:
            self._pend.valu_cycles += cfg.valu_issue_cycles
            self._pend.n_valu += 1

    def _special_value(self, instr: SpecialId) -> np.ndarray:
        d = instr.dim
        kind = instr.kind
        if kind == "global_id":
            return self.gid[d]
        if kind == "local_id":
            return self.lid[d]
        if kind == "group_id":
            return np.full(WAVE, self.group.coords[d], dtype=np.uint32)
        if kind == "global_size":
            return np.full(WAVE, self.ctx.global_size[d], dtype=np.uint32)
        if kind == "local_size":
            return np.full(WAVE, self.ctx.local_size[d], dtype=np.uint32)
        if kind == "num_groups":
            return np.full(WAVE, self.ctx.num_groups[d], dtype=np.uint32)
        raise ValueError(kind)  # pragma: no cover

    def _lds_access(self, name: str, size: int,
                    idx: np.ndarray) -> Tuple[np.ndarray, int]:
        """Bounds-check an LDS access; return its indices and bank passes.

        The lane analysis comes from the launch's access memo (DESIGN.md
        §18).  Bank passes are computed only after the check or the
        wrap, so a wild index never sizes an allocation.
        """
        ctx = self.ctx
        memo = ctx.access_patterns
        banks = ctx.config.lds_banks
        i0, pat = lds_pattern(memo, idx, banks)
        if i0 + pat.lo < 0 or i0 + pat.hi >= size:
            if ctx.fault_hook is None:
                raise IndexError(
                    f"out-of-bounds LDS access to {name!r}: "
                    f"indices in [{i0 + pat.lo}, {i0 + pat.hi}], size {size}"
                )
            # Wild LDS access caused by an injected upset: wrap it the
            # way the hardware's address masking would.
            ctx.oob_events += 1
            idx = idx % size
            i0, pat = lds_pattern(memo, idx, banks)
        if pat.passes is None:
            pat.passes = bank_passes(idx, banks)
        return idx, pat.passes


# ---------------------------------------------------------------------------
# ALU semantics
# ---------------------------------------------------------------------------


def _shift_amount(b: np.ndarray) -> np.ndarray:
    amount = (b.view(np.uint32) if b.dtype != np.uint32 else b) & np.uint32(31)
    return amount.astype(np.uint8)  # avoid int64 promotion in mixed shifts


_CMP_FUNCS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def _trunc_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype == np.float32:
        return a / b
    safe_b = np.where(b == 0, 1, b)
    q = np.trunc(a.astype(np.float64) / safe_b.astype(np.float64))
    return np.where(b == 0, 0, q).astype(a.dtype)


def _trunc_rem(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    q = _trunc_div(a, b)
    if a.dtype == np.float32:
        return a - np.trunc(q) * b
    return (a - q * b).astype(a.dtype)


class _AluSemantics:
    """Dispatch table for ALU opcodes over numpy lane vectors."""

    @staticmethod
    def apply(op: str, a: np.ndarray, b: Optional[np.ndarray]) -> np.ndarray:
        fn = _ALU_FUNCS.get(op)
        if fn is None:  # pragma: no cover - guarded at build time
            raise ValueError(f"unknown ALU op {op!r}")
        return fn(a) if b is None else fn(a, b)


_ALU_FUNCS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _trunc_div,
    "rem": _trunc_rem,
    "min": np.minimum,
    "max": np.maximum,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: (a.view(np.uint32) << _shift_amount(b)).view(a.dtype),
    "shr": lambda a, b: (a.view(np.uint32) >> _shift_amount(b)).view(a.dtype),
    "ashr": lambda a, b: (a.view(np.int32) >> _shift_amount(b)).view(a.dtype),
    "pow": lambda a, b: np.power(a, b),
    "neg": lambda a: -a if a.dtype != np.uint32 else (~a + np.uint32(1)),
    "not": lambda a: ~a,
    "abs": np.abs,
    "sqrt": lambda a: np.sqrt(a),
    "rsqrt": lambda a: (1.0 / np.sqrt(a)).astype(np.float32),
    "exp": lambda a: np.exp(a),
    "log": lambda a: np.log(a),
    "sin": lambda a: np.sin(a),
    "cos": lambda a: np.cos(a),
    "floor": np.floor,
    "f2i": lambda a: np.clip(np.nan_to_num(a), -2**31, 2**31 - 1).astype(np.int32),
    "f2u": lambda a: np.clip(np.nan_to_num(a), 0, 2**32 - 1).astype(np.uint32),
    "i2f": lambda a: a.astype(np.float32),
    "u2f": lambda a: a.astype(np.float32),
    "bitcast_u32": lambda a: a.view(np.uint32) if a.dtype != np.bool_ else a.astype(np.uint32),
    "bitcast_i32": lambda a: a.view(np.int32) if a.dtype != np.bool_ else a.astype(np.int32),
    "bitcast_f32": lambda a: a.view(np.float32),
    "mov": lambda a: a,
}


def _do_alu(self: Wavefront, instr: Alu, mask: np.ndarray) -> None:
    a = self.read(instr.a)
    b = None if instr.b is None else self.read(instr.b)
    res = _AluSemantics.apply(instr.op, a, b)
    self.write(instr.dst, res, mask)


Wavefront._do_alu = _do_alu
