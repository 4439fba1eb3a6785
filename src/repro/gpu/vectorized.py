"""Vectorized multi-wavefront engine: run-ahead over stacked registers.

The fused lane (:mod:`repro.gpu.fused`) removed per-instruction dispatch
but still executes every straight-line block once *per wavefront*, on
64-lane vectors — so a 64-wave dispatch pays the numpy call overhead of
each block 64 times.  This module batches those executions: all resident
wavefronts of a dispatch share one *stacked register file* (one
``(capacity, WAVE)`` array per virtual register, one row per wave slot),
and a whole-CU's worth of waves parked at the same program point execute
each :class:`~repro.gpu.fused.FusedBlock` through a single 2-D closure
over ``(n_waves, 64)`` arrays.

**Why this preserves bitwise and cycle identity.**  The timing engine is
not changed at all — :class:`VecEngine` inherits the event loop, every
resource model, and all counter accounting from
:class:`~repro.gpu.engine.Engine`.  What changes is *when the functional
work between two engine events is computed*.  The engine computes a
continuation's resume value (load data, atomic old value) at the moment
it processes the request — *before* pushing ``(ready, seq, wave,
result)`` onto the event queue.  From that push onward, the wave's next
functional segment is fully determined:

* pure blocks touch only the wave's private registers;
* global-memory effects are never applied by the wave — it only *yields*
  ``GlobalReq``/``BarrierReq``/... which the unchanged engine applies in
  pop order, exactly as before;
* LDS accesses are applied functionally at walker time (as in the
  reference interpreter); their order against *other* waves of the group
  may shift within a barrier interval, which is observable only for
  intra-interval LDS races — and the compile pipeline's lds-race lint
  proves compiled kernels race-free, so the early application is
  value-identical.

So the coordinator may *run ahead*: the :class:`EventScheduler
<repro.gpu.schedule.EventScheduler>` reports every push, and when the
engine pops a continuation whose next request has not been computed yet,
the coordinator fast-forwards **all** staged waves one segment each,
round by round, executing each shared block once over the stacked rows
of every wave parked at it.  The request each wave would have yielded is
cached and handed to the engine at its pop — the engine observes the
identical request sequence, so cycles, counters, event counts, memory
effects, and detections are identical by construction (pinned by
``tests/test_vectorized_equivalence.py`` and the schedule-identity
goldens).

**When the engine falls back.**  The device routes a launch here only
when the global toggle is on (``REPRO_VECTOR`` / :func:`vector`) and
the requested scheduler declares ``supports_vectorized`` (the default
time-ordered/FIFO order does; adversarial and model-checking
schedulers do not, so ``repro.mc`` keeps the standard engine).
Fault-hooked launches are admitted only in fault-window mode under the
default scheduler with no group redispatch: the victim wave's *group*
is then statically predictable from the plan's ordinal, and
:meth:`VecEngine._spawn_wave` carves that one group out as reference
:class:`~repro.gpu.wavefront.Wavefront` objects (whose per-wave
register dicts the flip machinery depends on) while every other group
runs stacked.  Plain callable hooks observe every instruction of the
reference interpreter and always fall back.
``LaunchResult.engine_kind`` records which engine ran, making the
fallback provable in tests.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, List, Optional

import numpy as np

from ..ir.core import (
    Alu,
    Cmp,
    Const,
    LoadParam,
    PredOp,
    Select,
    SpecialId,
    Swizzle,
    VReg,
)
from .engine import Engine, SimulationError
from .fused import (
    _INFIX_ALU,
    _INFIX_CMP,
    FusedBlock,
    LoweredIf,
    LoweredWhile,
    _block_costs,
    lower_kernel,
    make_closure,
)
from .schedule import DefaultScheduler, EventScheduler
from .wavefront import (
    _ALU_FUNCS,
    _LANES,
    _SPIN_FLUSH_CYCLES,
    WAVE,
    Wavefront,
)

# ---------------------------------------------------------------------------
# Global enable switch (opt-in, mirroring REPRO_FUSION)
# ---------------------------------------------------------------------------

_enabled = os.environ.get("REPRO_VECTOR", "0").lower() in ("1", "true", "on")


def vector_enabled() -> bool:
    """Whether eligible launches run on the vectorized engine."""
    return _enabled


def set_vector_enabled(on: bool) -> None:
    global _enabled
    _enabled = bool(on)


@contextlib.contextmanager
def vector(on: bool):
    """Temporarily force the vectorized engine on or off."""
    prev = _enabled
    set_vector_enabled(on)
    try:
        yield
    finally:
        set_vector_enabled(prev)


# ---------------------------------------------------------------------------
# Stacked register store
# ---------------------------------------------------------------------------


class VecStore:
    """One ``(capacity, WAVE)`` array per virtual register, row per wave.

    Rows are recycled as waves complete, so capacity tracks *resident*
    waves (bounded by occupancy), not the dispatch size.  Views are
    never cached by callers — :meth:`row` re-indexes on every call — so
    growth (which reallocates) is safe between block executions.
    """

    def __init__(self):
        self.capacity = 0
        self.arrays: Dict[int, np.ndarray] = {}
        self.free: List[int] = []
        self.dirty: set = set()

    def alloc(self) -> int:
        if not self.free:
            grow = max(16, self.capacity)
            for rid, arr in self.arrays.items():
                self.arrays[rid] = np.concatenate(
                    [arr, np.zeros((grow, WAVE), arr.dtype)])
            self.free.extend(
                range(self.capacity + grow - 1, self.capacity - 1, -1))
            self.capacity += grow
        slot = self.free.pop()
        if slot in self.dirty:
            # A recycled row must present the lazily-zeroed register
            # semantics of a fresh Wavefront.
            self.dirty.discard(slot)
            for arr in self.arrays.values():
                arr[slot] = 0
        return slot

    def release(self, slot: int) -> None:
        self.dirty.add(slot)
        self.free.append(slot)

    def ensure(self, rid: int, dt) -> np.ndarray:
        arr = self.arrays.get(rid)
        if arr is None:
            arr = self.arrays[rid] = np.zeros((self.capacity, WAVE), dt)
        return arr

    def row(self, rid: int, dt, slot: int) -> np.ndarray:
        return self.ensure(rid, dt)[slot]


def _gather(store: VecStore, rid: int, dt, rows: np.ndarray) -> np.ndarray:
    return store.ensure(rid, dt)[rows]


def _scatter(store: VecStore, rid: int, dt, rows: np.ndarray, vals) -> None:
    store.ensure(rid, dt)[rows] = vals


# ---------------------------------------------------------------------------
# Block liveness
# ---------------------------------------------------------------------------

#: Pseudo-owner marking a register as referenced outside any fused block
#: (If/While conditions, memory-op operands) — always store-resident.
_EXTERNAL = 0

_REG_ATTRS = ("dst", "a", "b", "pred", "src", "index", "value", "compare")


def _instr_regs(ins):
    for attr in _REG_ATTRS:
        v = getattr(ins, attr, None)
        if isinstance(v, VReg):
            yield v


def _collect_refs(items, refs: Dict[int, set]) -> None:
    """Map register id -> set of referencing owners (block ids/_EXTERNAL).

    A register written by block B lives purely in B's locals unless some
    *other* owner references it — then the block must scatter it back to
    the store (and gather it when partially-masked writes need the
    previous values).  This is what makes long FMA chains cheap: their
    temporaries never touch the stacked store at all.
    """
    for item in items:
        cls = item.__class__
        if cls is FusedBlock:
            bid = id(item)
            for ins in item.instrs:
                for r in _instr_regs(ins):
                    refs.setdefault(id(r), set()).add(bid)
        elif cls is LoweredIf:
            refs.setdefault(id(item.cond), set()).add(_EXTERNAL)
            _collect_refs(item.then_items, refs)
            _collect_refs(item.else_items, refs)
        elif cls is LoweredWhile:
            refs.setdefault(id(item.cond), set()).add(_EXTERNAL)
            _collect_refs(item.cond_items, refs)
            _collect_refs(item.body_items, refs)
        else:
            for r in _instr_regs(item):
                refs.setdefault(id(r), set()).add(_EXTERNAL)


# ---------------------------------------------------------------------------
# 2-D code generation
# ---------------------------------------------------------------------------


def _codegen2d(instrs, full_mask: bool, refs: Dict[int, set], bid: int):
    """Compile one pure-op run into ``fn(store, rows, masks, waves)``.

    The 2-D twin of :func:`repro.gpu.fused._codegen`: registers a block
    *reads first* are gathered once into ``(k, WAVE)`` arrays (``rows``
    selects the k wave slots), the block's updates run full-array, and
    registers that escape the block (referenced by another block, a
    branch condition, or a memory op — per ``refs``) or carry values
    across executions (read-before-written here) scatter back at the
    end.  Everything else is block-local and never touches the store.

    Two variants exist per block: ``full_mask=True`` assumes every lane
    of every wave is active (writes are plain rebindings — no masked
    copyto, no gathers for write-first registers), which is the common
    convergent case; the general variant replicates the reference
    masked-write semantics exactly.  Elementwise numpy ops are
    per-element bit-deterministic regardless of array shape, so both
    variants match the 1-D path bitwise.  As there, register ids are
    ``R<n>`` names bound from ``env``, so equal block shapes share one
    code object.
    """
    env: Dict[str, object] = {
        "_cp": np.copyto, "_where": np.where, "_stack": np.stack,
        "_gat": _gather, "_sca": _scatter, "_zeros": np.zeros,
    }
    reg_names: Dict[int, str] = {}
    reg_dts: Dict[int, str] = {}
    reg_rn: Dict[int, str] = {}
    read_first: set = set()
    written: List[int] = []
    prologue: List[str] = []
    lines: List[str] = []

    def escapes(rid: int) -> bool:
        return bool(refs.get(rid, set()) - {bid})

    def declare(reg, is_read: bool) -> str:
        rid = id(reg)
        n = len(reg_names)
        nm = f"g{n}"
        dt = f"d{n}"
        reg_names[rid] = nm
        reg_dts[rid] = dt
        rn = reg_rn[rid] = f"R{n}"
        env[dt] = reg.dtype.np_dtype
        env[rn] = rid
        if is_read:
            read_first.add(rid)
            prologue.append(f"    {nm} = _gat(store, {rn}, {dt}, rows)")
        elif not full_mask:
            # Write-first under a partial mask: masked copyto needs the
            # previous values for inactive lanes — real ones if the
            # register escapes, placeholders if it is block-local.
            if escapes(rid):
                prologue.append(f"    {nm} = _gat(store, {rn}, {dt}, rows)")
            else:
                prologue.append(
                    f"    {nm} = _zeros((rows.shape[0], {WAVE}), {dt})")
        return nm

    def rref(reg) -> str:
        nm = reg_names.get(id(reg))
        return nm if nm is not None else declare(reg, is_read=True)

    def wref(reg) -> str:
        rid = id(reg)
        nm = reg_names.get(rid)
        if nm is None:
            nm = declare(reg, is_read=False)
        if rid not in written:
            written.append(rid)
        return nm

    def emit(dst, expr: str, checked: bool = True) -> None:
        dn = wref(dst)
        dt = reg_dts[id(dst)]
        if full_mask:
            lines.append(f"    {dn} = {expr}")
            if checked:
                lines.append(
                    f"    if {dn}.dtype != {dt}: {dn} = {dn}.astype({dt})")
        else:
            lines.append(f"    _v = {expr}")
            if checked:
                lines.append(f"    if _v.dtype != {dt}: _v = _v.astype({dt})")
            lines.append(f"    _cp({dn}, _v, where=masks)")

    for k, ins in enumerate(instrs):
        cls = ins.__class__
        if cls is Alu:
            a = rref(ins.a)
            if ins.b is None:
                if ins.op == "mov":
                    emit(ins.dst, a)
                elif ins.op == "not":
                    emit(ins.dst, f"~{a}")
                else:
                    env[f"f{k}"] = _ALU_FUNCS[ins.op]
                    emit(ins.dst, f"f{k}({a})")
            else:
                b = rref(ins.b)
                infix = _INFIX_ALU.get(ins.op)
                if infix is not None:
                    emit(ins.dst, f"({a} {infix} {b})")
                else:
                    env[f"f{k}"] = _ALU_FUNCS[ins.op]
                    emit(ins.dst, f"f{k}({a}, {b})")
        elif cls is Cmp:
            a, b = rref(ins.a), rref(ins.b)
            emit(ins.dst, f"({a} {_INFIX_CMP[ins.op]} {b})")
        elif cls is Const:
            arr = np.full(WAVE, ins.value, dtype=ins.dst.dtype.np_dtype)
            arr.flags.writeable = False
            env[f"C{k}"] = arr
            emit(ins.dst, f"C{k}", checked=False)
        elif cls is LoadParam:
            env[f"i{k}"] = ins
            emit(ins.dst, f"waves[0]._broadcast_value(i{k})", checked=False)
        elif cls is PredOp:
            a = rref(ins.a)
            if ins.op == "not":
                emit(ins.dst, f"~{a}")
            else:
                b = rref(ins.b)
                emit(ins.dst, f"({a} {_INFIX_ALU[ins.op]} {b})")
        elif cls is Select:
            p, a, b = rref(ins.pred), rref(ins.a), rref(ins.b)
            emit(ins.dst, f"_where({p}, {a}, {b})")
        elif cls is SpecialId:
            env[f"i{k}"] = ins
            emit(ins.dst, f"_stack([_w._special_value(i{k}) for _w in waves])")
        elif cls is Swizzle:
            src_lanes = (
                ((_LANES & ins.and_mask) | ins.or_mask) ^ ins.xor_mask
            ) % WAVE
            env[f"L{k}"] = src_lanes
            # ``...`` keeps the index on the lane axis whether the bound
            # name is a stacked (k, WAVE) array or a (WAVE,) broadcast.
            emit(ins.dst, f"{rref(ins.src)}[..., L{k}]")
        else:  # pragma: no cover - lowering only collects _PURE_OPS
            raise TypeError(f"cannot vectorize {ins!r}")

    epilogue = [
        f"    _sca(store, {reg_rn[rid]}, {reg_dts[rid]}, rows, {reg_names[rid]})"
        for rid in written
        if escapes(rid) or rid in read_first
    ]
    return make_closure("_vec", "store, rows, masks, waves",
                        prologue + lines + epilogue, env, "<vec>")


def _vec_info(kernel, prog) -> Dict[str, object]:
    """Per-kernel memo: register cross-references + compiled 2-D closures.

    Like ``kernel._fused_program``, keyed to the kernel instance (block
    ids are stable because the lowered program is memoized there too);
    the compile cache strips it before pickling.
    """
    info = getattr(kernel, "_vec_fns", None)
    if info is None:
        refs: Dict[int, set] = {}
        _collect_refs(prog.items, refs)
        info = kernel._vec_fns = {"refs": refs, "fns": {}}
    return info


# ---------------------------------------------------------------------------
# Run-ahead wavefront
# ---------------------------------------------------------------------------

#: ``wave._next`` states: no cached continuation / walker exhausted.
_PENDING = object()
_DONE = object()


class VecWave(Wavefront):
    """A wavefront whose registers live in the shared stacked store.

    Control flow runs through an explicit walker generator that yields
    ``(FusedBlock, mask)`` tuples for pure blocks — executed by the
    coordinator, possibly batched with other waves — and raw engine
    requests for everything else (memory ops, barriers, detections),
    reusing the reference ``_exec_instr`` verbatim so non-pure semantics
    cannot drift.
    """

    def __init__(self, ctx, group, wave_idx: int, coord: "_Coordinator"):
        super().__init__(ctx, group, wave_idx)
        self._coord = coord
        self._vstore = coord.store
        self._slot = coord.store.alloc()
        self._walker = self._vrun()
        self._next = _PENDING

    def read(self, reg) -> np.ndarray:
        # Row views are re-indexed on every call (never cached) so store
        # growth cannot invalidate them; zeros-on-first-touch semantics
        # match the reference lazy register creation.
        return self._vstore.row(id(reg), reg.dtype.np_dtype, self._slot)

    # ``write`` is inherited: it calls ``read`` and masked-copies into
    # the row view, which writes through to the stacked array.

    def _vrun(self):
        yield from self._walk(self._coord.prog.items, self.active0.copy())
        if self._has_pending():
            yield self._flush()

    def _walk(self, items, mask: np.ndarray):
        """Mirror of ``fused._exec_fused`` with deferred block execution.

        Branch/loop accounting (``n_branch``/``n_div_branch``/
        ``branch_cycles`` and the ``_SPIN_FLUSH_CYCLES`` back-edge
        flush) is replicated line for line — any edit here must be made
        in lockstep with ``_exec_body``/``_exec_fused``.
        """
        cfg = self.ctx.config
        for item in items:
            cls = item.__class__
            if cls is FusedBlock:
                yield (item, mask)
            elif cls is LoweredIf:
                cond = self.read(item.cond)
                then_mask = mask & cond
                inv_mask = mask & ~cond
                t_any = bool(then_mask.any())
                i_any = bool(inv_mask.any())
                self._pend.n_branch += 1
                self._pend.valu_cycles += cfg.branch_cycles
                if t_any and i_any:
                    self._pend.n_div_branch += 1
                if t_any:
                    yield from self._walk(item.then_items, then_mask)
                if item.has_else and i_any:
                    yield from self._walk(item.else_items, inv_mask)
            elif cls is LoweredWhile:
                live = mask.copy()
                while True:
                    yield from self._walk(item.cond_items, live)
                    cond = self.read(item.cond)
                    live &= cond
                    self._pend.n_branch += 1
                    self._pend.valu_cycles += cfg.branch_cycles
                    if not live.any():
                        break
                    if not live.all() and mask.any():
                        self._pend.n_div_branch += 1
                    yield from self._walk(item.body_items, live)
                    if (self._pend.valu_cycles + self._pend.salu_cycles
                            > _SPIN_FLUSH_CYCLES):
                        yield self._flush()
            else:
                yield from self._exec_instr(item, mask)


class _VecDriver:
    """Generator-protocol adapter the engine drives via ``gen.send``.

    Returns the wave's cached next request when run-ahead already
    computed it; otherwise triggers a batched advance of every staged
    wave (including this one) first.
    """

    __slots__ = ("wave",)

    def __init__(self, wave: VecWave):
        self.wave = wave

    def send(self, sendval):
        wave = self.wave
        nxt = wave._next
        if nxt is _PENDING:
            wave._coord.advance()
            nxt = wave._next
            if nxt is _PENDING:  # pragma: no cover - engine invariant
                raise SimulationError(
                    "vectorized: popped wave has no staged continuation")
        if nxt is _DONE:
            raise StopIteration
        wave._next = _PENDING
        return nxt


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _Coordinator:
    """Per-launch run-ahead state: staged waves + stacked store.

    ``staged`` holds ``(wave, sendval)`` for every continuation pushed
    onto the event queue whose functional segment has not run yet; the
    engine's resume value is final at push time, so each entry can be
    advanced at any moment before its pop.  :meth:`advance` drains the
    whole set in lockstep rounds, batching same-block waves through one
    2-D closure call.
    """

    def __init__(self, kernel):
        self.store = VecStore()
        self.prog = lower_kernel(kernel)
        info = _vec_info(kernel, self.prog)
        self.refs = info["refs"]
        self.fns = info["fns"]
        self.staged: List[tuple] = []

    def on_push(self, entry: tuple) -> None:
        # entry = (time, seq, wave, sendval) — the engine's event tuple.
        # Fault-window launches mix in reference Wavefronts (the victim
        # group); those run real generators driven by the engine and are
        # never staged for run-ahead.
        if isinstance(entry[2], VecWave):
            self.staged.append((entry[2], entry[3]))

    def advance(self) -> None:
        staged = self.staged
        if not staged:
            return
        self.staged = []
        groups: Dict[int, tuple] = {}
        for wave, sendval in staged:
            self._step(wave, sendval, groups)
        while groups:
            current, groups = groups, {}
            for block, entries in current.values():
                self._run_block(block, entries)
                for wave, _mask in entries:
                    self._step(wave, None, groups)

    def _step(self, wave: VecWave, sendval, groups: Dict[int, tuple]) -> None:
        try:
            item = wave._walker.send(sendval)
        except StopIteration:
            wave._next = _DONE
            self.store.release(wave._slot)
            return
        if type(item) is tuple:
            block, mask = item
            g = groups.get(id(block))
            if g is None:
                groups[id(block)] = (block, [(wave, mask)])
            else:
                g[1].append((wave, mask))
        else:
            wave._next = item

    def _run_block(self, block: FusedBlock, entries: List[tuple]) -> None:
        bid = id(block)
        waves = [w for w, _m in entries]
        rows = np.array([w._slot for w in waves], dtype=np.intp)
        masks = np.stack([m for _w, m in entries])
        full = bool(masks.all())
        key = (bid, full)
        fn = self.fns.get(key)
        if fn is None:
            fn = self.fns[key] = _codegen2d(
                block.instrs, full, self.refs, bid)
        fn(self.store, rows, masks, waves)
        # Aggregate cost accounting, identical to FusedBlock.execute.
        ctx = waves[0].ctx
        costs = ctx.fused_costs
        c = costs.get(bid)
        if c is None:
            c = costs[bid] = _block_costs(block.instrs, ctx)
        n = block.n
        for w in waves:
            w.dyn_instrs += n
            p = w._pend
            p.valu_cycles += c[0]
            p.salu_cycles += c[1]
            p.n_valu += c[2]
            p.n_salu += c[3]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class VecEngine(Engine):
    """The timing engine with run-ahead functional execution.

    Every timing decision — resource next-free times, event ordering,
    barrier release, counters, watchdogs — is inherited unchanged; only
    wave spawning (stacked-store :class:`VecWave`) and the scheduler
    (wrapped in an :class:`~repro.gpu.schedule.EventScheduler` that
    feeds the coordinator) differ.
    """

    def _make_scheduler(self, ctx):
        inner = self.scheduler if self.scheduler is not None else DefaultScheduler()
        if not getattr(inner, "supports_vectorized", False):
            raise SimulationError(
                f"scheduler {type(inner).__name__} does not support the "
                f"vectorized engine (the device should have fallen back)")
        self._coord = _Coordinator(ctx.kernel)
        return EventScheduler(inner, sink=self._coord.on_push)

    def _spawn_wave(self, ctx, group, wave_idx: int):
        if group.flat_group == self._victim_group:
            # The victim's whole group runs as reference wavefronts:
            # FaultHook._flip_register walks the wave's private ``regs``
            # dict (contents *and* insertion order), which the stacked
            # store cannot reproduce.  Non-victim groups never call the
            # hook, so stacking them is observationally identical.
            wave = Wavefront(ctx, group, wave_idx)
            wave.gen = wave.run()
            return wave
        wave = VecWave(ctx, group, wave_idx, self._coord)
        wave.gen = _VecDriver(wave)
        return wave

    def _abandon(self, ctx) -> None:
        super()._abandon(ctx)
        # A VecWave's walker is a second wave <-> generator cycle, and
        # staged continuations reach back from the coordinator.
        for wave in self._live:
            if isinstance(wave, VecWave):
                wave._walker = None
        coord = getattr(self, "_coord", None)
        if coord is not None:
            coord.staged = []

    def run(self, ctx, resources):
        hook = ctx.fault_hook
        if hook is not None and not ctx.fault_window:
            raise SimulationError(
                "vectorized engine cannot run non-window fault-hook "
                "launches (the device should have fallen back)")
        self._victim_group = None
        if hook is not None:
            # Under the default scheduler with no group redispatch
            # (guaranteed by the device's routing), execution-start
            # ordinals follow wave-stagger order: ordinal = base +
            # wave_idx * total_groups + flat_group.  That pins the
            # victim's group at spawn time.
            rel = hook.plan.wave_ordinal - self._ordinal_base
            n_waves = (ctx.flat_local + WAVE - 1) // WAVE
            if 0 <= rel < ctx.total_groups * n_waves:
                self._victim_group = rel % ctx.total_groups
        result = super().run(ctx, resources)
        result.engine_kind = "vectorized"
        return result
