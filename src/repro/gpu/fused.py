"""Block-fused kernel executors.

The reference interpreter in :mod:`repro.gpu.wavefront` dispatches every
instruction through an ``isinstance`` chain and a pair of method calls —
fine for correctness work, but the dominant Python hot path once fault
campaigns and fuzz sweeps run thousands of launches.  This module lowers
a compiled kernel's statement tree once per kernel: every maximal
straight-line run of side-effect-free instructions (``_PURE_OPS``) is
compiled from generated source (:func:`make_closure`) into a single
*fused block executor* that evaluates the whole run over the 64-lane numpy
vectors with no per-instruction dispatch, then charges one aggregate
cost into the pending :class:`~repro.gpu.wavefront.ExecReq`.

Timing neutrality is by construction:

* the reference path charges each pure instruction into the *pending*
  ``ExecReq`` and only yields at a non-pure boundary (memory op,
  barrier, loop back-edge, spin-flush) — exactly the block boundaries
  of the lowered tree, so the aggregate charge observed by the timing
  engine at every yield point is identical;
* all per-instruction cycle costs are integers, so summing them per
  block is exact;
* branch accounting (``n_branch``/``n_div_branch``/``branch_cycles``)
  and the ``_SPIN_FLUSH_CYCLES`` back-edge flush are replicated verbatim
  in :func:`_exec_fused`.

Fault injection needs to observe (and corrupt) state *between*
instructions — but a :class:`~repro.faults.injector.FaultHook` names
exactly one victim wave and one dynamic trigger watermark, so almost
all of a hooked launch is provably hook-free.  *Fault-window execution*
(on by default, ``REPRO_FAULT_WINDOW`` to disable) exploits that: every
wave runs the one fused walker, :func:`_exec_fused`, tracking its
dynamic instruction count block-at-a-time.  Only the unfired victim
passes the walker its hook, and only when one of its blocks could cross
the trigger watermark does execution drop to per-instruction stepping —
calling the hook exactly where the reference interpreter would — before
resuming fused blocks.  Outcomes, injection records, cycles, and
counters are bit-identical to the reference fault path, pinned by
``tests/test_fault_window.py``'s seeded identity sweep.  Plain callable
hooks (no ``supports_window`` attribute) still force the reference
interpreter.  Bitwise equivalence of the fault-free paths is pinned by
``tests/test_fused_equivalence.py`` and guarded in CI by
``python -m repro.bench --quick``.

The walker carries a cached all-lanes flag, so all-active blocks and
memory instructions skip masked writes and lane gathers, and tests
masks by their bytes instead of numpy reductions (DESIGN.md §19).

Fault-window launches also arm the *livelock proof*
(:class:`LivelockProof`, DESIGN.md §17): once the upset has fired, a
launch that provably can never finish ends with a ``livelock:``
:class:`~repro.gpu.engine.SimulationError` instead of running to the
watchdog.
"""

from __future__ import annotations

import contextlib
import os
import types
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.core import (
    Alu,
    Barrier,
    Cmp,
    Const,
    If,
    Instr,
    Kernel,
    LoadParam,
    PredOp,
    Select,
    SpecialId,
    Stmt,
    Swizzle,
    While,
    walk_instrs,
)
from ..ir.core import TRANSCENDENTAL_OPS
from .wavefront import (
    _ALU_FUNCS,
    _CMP_FUNCS,
    _LANES,
    _NO_LANES,
    _PURE_OPS,
    _SPIN_FLUSH_CYCLES,
    WAVE,
    Wavefront,
)

# ---------------------------------------------------------------------------
# Global enable switch
# ---------------------------------------------------------------------------

_enabled = os.environ.get("REPRO_FUSION", "1").lower() not in ("0", "false", "off")


def fusion_enabled() -> bool:
    """Whether launches lower kernels to fused executors by default."""
    return _enabled


def set_fusion_enabled(on: bool) -> None:
    global _enabled
    _enabled = bool(on)


@contextlib.contextmanager
def fusion(on: bool):
    """Temporarily force fusion on or off (tests, benchmarks)."""
    prev = _enabled
    set_fusion_enabled(on)
    try:
        yield
    finally:
        set_fusion_enabled(prev)


_window_enabled = os.environ.get(
    "REPRO_FAULT_WINDOW", "1").lower() not in ("0", "false", "off")


def fault_window_enabled() -> bool:
    """Whether window-capable fault hooks use fault-window execution."""
    return _window_enabled


def set_fault_window_enabled(on: bool) -> None:
    global _window_enabled
    _window_enabled = bool(on)


@contextlib.contextmanager
def fault_window(on: bool):
    """Temporarily force fault-window execution on or off."""
    prev = _window_enabled
    set_fault_window_enabled(on)
    try:
        yield
    finally:
        set_fault_window_enabled(prev)


# ---------------------------------------------------------------------------
# Lowered statement tree
# ---------------------------------------------------------------------------


#: Binary ALU/predicate opcodes rendered as infix operators in generated
#: source (everything else calls the shared semantic function table).
_INFIX_ALU = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}
_INFIX_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


class FusedBlock:
    """One straight-line run of pure instructions, compiled to a closure.

    ``fn(wave, mask)`` performs every register update of the run (masked
    writes, dtype casts, lazy register materialisation) with the same
    observable semantics as the reference ``_exec_pure`` loop;
    ``fn_full`` is its all-lanes-active variant (plain local rebinding
    with one write-back per register instead of a masked copyto per
    instruction).  Each is generated on first use: many blocks only
    ever run under one kind of mask.  Cycle accounting is aggregated
    per launch context in :meth:`execute`.
    """

    __slots__ = ("instrs", "n", "_fn", "_fn_full", "label")

    def __init__(self, instrs: Sequence[Instr], label: str):
        self.instrs = tuple(instrs)
        self.n = len(self.instrs)
        self.label = label
        self._fn = self._fn_full = None

    @property
    def fn(self):
        if self._fn is None:
            self._fn = _codegen(self.instrs)
        return self._fn

    @property
    def fn_full(self):
        if self._fn_full is None:
            self._fn_full = _codegen(self.instrs, full_mask=True)
        return self._fn_full

    def execute(self, wave: Wavefront, mask: np.ndarray, full: bool) -> None:
        wave.dyn_instrs += self.n
        fn = self._fn_full if full else self._fn
        if fn is None:
            fn = self.fn_full if full else self.fn
        fn(wave, mask)
        costs = wave.ctx.fused_costs
        c = costs.get(id(self))
        if c is None:
            c = costs[id(self)] = _block_costs(self.instrs, wave.ctx)
        p = wave._pend
        p.valu_cycles += c[0]
        p.salu_cycles += c[1]
        p.n_valu += c[2]
        p.n_salu += c[3]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FusedBlock {self.label} n={self.n}>"


class LoweredIf:
    """Structured branch over lowered bodies."""

    __slots__ = ("cond", "then_items", "else_items", "has_else")

    def __init__(self, cond, then_items, else_items, has_else):
        self.cond = cond
        self.then_items = then_items
        self.else_items = else_items
        self.has_else = has_else


class LoweredWhile:
    """Structured loop over lowered condition/body item lists.

    ``writes`` holds the ids of every register the loop's condition and
    body (nested code included) can write, or ``None`` when the loop
    holds a barrier: the livelock proof never marks such a loop stuck.
    """

    __slots__ = ("cond_items", "cond", "body_items", "writes")

    def __init__(self, cond_items, cond, body_items, writes):
        self.cond_items = cond_items
        self.cond = cond
        self.body_items = body_items
        self.writes = writes


def _loop_writes(loop: While) -> Optional[Tuple[int, ...]]:
    instrs = list(walk_instrs([loop]))
    if any(ins.__class__ is Barrier for ins in instrs):
        return None
    return tuple(dict.fromkeys(id(r) for ins in instrs for r in ins.dests()))


class LivelockProof:
    """Proves that a fault-window launch can never finish (DESIGN.md §17).

    ``epoch`` is the launch's write epoch: the engine bumps it for every
    global store and every atomic that changed a word, the wavefront for
    every LDS store, so two equal readings bracket a stretch in which
    global memory and LDS did not change.

    :meth:`back_edge` runs at each back-edge of one loop instance.  When
    the loop's ``live`` mask and every register it can write are bitwise
    equal to the previous back-edge, the epoch did not move in between
    and the hook had already fired there, the next iteration repeats the
    last one exactly for as long as the epoch holds: registers the loop
    does not write cannot change inside it, and its reads see the same
    memory.  The wave is then *stuck* at that epoch.

    The engine raises once every live wave is stuck at the current epoch
    or parked at a barrier: no wave can write, reach a barrier or finish
    again, so the launch could only run into the watchdog.
    """

    __slots__ = ("hook", "epoch", "stuck", "stuck_epoch")

    def __init__(self, hook):
        self.hook = hook
        self.epoch = 0
        #: waves proven stuck at ``stuck_epoch``
        self.stuck: set = set()
        self.stuck_epoch = -1

    def back_edge(self, wave: Wavefront, loop: LoweredWhile,
                  live: np.ndarray, prev):
        """Check one loop instance; returns the state for its next back-edge."""
        if loop.writes is None or not self.hook.fired:
            return None
        epoch = self.epoch
        if prev is None or prev[0] != epoch:
            return (epoch, None)
        regs = wave.regs
        state = (live.tobytes(),
                 *[regs[r].tobytes() if r in regs else None
                   for r in loop.writes])
        if state == prev[1]:
            if self.stuck_epoch != epoch:
                self.stuck_epoch = epoch
                self.stuck = set()
            self.stuck.add(wave)
        else:
            self.stuck.discard(wave)
        return (epoch, state)

    def describe(self, parked: int, t: float) -> str:
        waves = ", ".join(
            f"{w.ordinal} (group {w.group.flat_group})"
            for w in sorted(self.stuck, key=lambda w: w.ordinal))
        return (f"livelock: waves {waves} spin on unchanged memory "
                f"from t={t:.0f}"
                + (f", {parked} parked at barriers" if parked else ""))


class FusedProgram:
    """The lowered form of one kernel body."""

    __slots__ = ("items", "n_blocks", "n_fused_instrs")

    def __init__(self, items):
        self.items = items
        blocks = list(self._walk_blocks(items))
        self.n_blocks = len(blocks)
        self.n_fused_instrs = sum(b.n for b in blocks)

    @staticmethod
    def _walk_blocks(items):
        for item in items:
            if isinstance(item, FusedBlock):
                yield item
            elif isinstance(item, LoweredIf):
                yield from FusedProgram._walk_blocks(item.then_items)
                yield from FusedProgram._walk_blocks(item.else_items)
            elif isinstance(item, LoweredWhile):
                yield from FusedProgram._walk_blocks(item.cond_items)
                yield from FusedProgram._walk_blocks(item.body_items)


def _block_costs(instrs: Sequence[Instr], ctx) -> Tuple[int, int, int, int]:
    """Aggregate ExecReq contribution, mirroring ``_charge_alu``."""
    cfg = ctx.config
    scalar = ctx.scalar_instrs
    vc = sc = nv = ns = 0
    for instr in instrs:
        if id(instr) in scalar:
            sc += cfg.salu_latency
            ns += 1
        elif instr.__class__ is Alu and instr.op in TRANSCENDENTAL_OPS:
            vc += cfg.trans_issue_cycles
            nv += 1
        else:
            vc += cfg.valu_issue_cycles
            nv += 1
    return vc, sc, nv, ns


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


#: Generated source text -> code object of the function it defines.  The
#: values are weak: an entry lives exactly as long as some closure built
#: from it, so the memo never outgrows the lowered kernels still alive.
_CODE_MEMO: "weakref.WeakValueDictionary[str, types.CodeType]" = (
    weakref.WeakValueDictionary())

#: Generated functions look up no globals: every name arrives in ``_env``.
_NO_GLOBALS: Dict[str, object] = {}


def make_closure(name: str, params: str, body: List[str],
                 env: Dict[str, object], filename: str):
    """``def name(params)`` running ``body`` with ``env``'s names as locals.

    Generated code names every per-block value (register ids, constants,
    dtypes, semantic functions, helpers) through ``env``, so the source
    text depends only on the block's shape and structurally equal blocks
    of any kernel share one code object.  The values arrive as one
    defaulted ``_env`` argument, unpacked into locals on entry: globals
    would differ per block, and a shared code object run under many
    globals dictionaries keeps missing the interpreter's per-instruction
    global-lookup caches, which slowed suite launches by 1-2%.
    """
    src = "\n".join([f"def {name}({params}, _env=None):",
                     f"    {', '.join(env)}, = _env", *body])
    code = _CODE_MEMO.get(src)
    if code is None:
        module = compile(src, filename, "exec")
        code = next(c for c in module.co_consts
                    if isinstance(c, types.CodeType))
        _CODE_MEMO[src] = code
    return types.FunctionType(code, _NO_GLOBALS, name, (tuple(env.values()),))


def _codegen(instrs: Sequence[Instr], full_mask: bool = False):
    """Compile one pure-op run into a ``fn(wave, mask)`` closure.

    Registers are fetched once into locals (they are mutated in place by
    masked ``np.copyto``, so the locals stay valid across the block);
    every write replicates the reference ``Wavefront.write`` semantics:
    cast to the destination dtype when needed, then masked copy.

    With ``full_mask=True`` the closure assumes every lane is active and
    writes become plain local rebindings, with a single unmasked
    write-back per register at the end of the block.  Write-backs are
    emitted in first-write order, which makes them alias-safe: a local
    can only alias another register's backing array via an assignment
    made *before* that register's first in-block write, so the aliased
    array is always flushed after its reader.  Register materialisation
    order (hence ``wave.regs`` dict insertion order, which fault
    injection's register enumeration depends on) is first-reference
    order in both variants, identical to the reference interpreter.
    Register ids enter the source as ``R<n>`` names bound from ``env``,
    never as literals (see :func:`make_closure`).
    """
    env: Dict[str, object] = {"_cp": np.copyto, "_zeros": np.zeros,
                              "_where": np.where}
    reg_names: Dict[int, str] = {}
    reg_dts: Dict[int, str] = {}
    prologue: List[str] = []
    lines: List[str] = []
    written: List[str] = []
    written_seen: set = set()

    def rname(reg) -> str:
        rid = id(reg)
        nm = reg_names.get(rid)
        if nm is None:
            n = len(reg_names)
            nm, dt = f"r{n}", f"d{n}"
            reg_names[rid] = nm
            reg_dts[rid] = dt
            env[dt] = reg.dtype.np_dtype
            env[f"R{n}"] = rid
            # Inline fetch-or-create (mirrors ``Wavefront.read``).
            nms = f"g{nm} = {nm}" if full_mask else nm
            prologue.append(f"    {nms} = regs.get(R{n})")
            prologue.append(f"    if {nm} is None: {nms} = regs[R{n}] = "
                            f"_zeros({WAVE}, {dt})")
        return nm

    def emit(dst, expr: str, checked: bool = True) -> None:
        dn = rname(dst)
        dt = reg_dts[id(dst)]
        lines.append(f"    _v = {expr}")
        if checked:
            lines.append(f"    if _v.dtype != {dt}: _v = _v.astype({dt})")
        if full_mask:
            lines.append(f"    {dn} = _v")
            if dn not in written_seen:
                written_seen.add(dn)
                written.append(dn)
        else:
            lines.append(f"    _cp({dn}, _v, where=mask)")

    for k, ins in enumerate(instrs):
        cls = ins.__class__
        if cls is Alu:
            a = rname(ins.a)
            if ins.b is None:
                if ins.op == "mov":
                    emit(ins.dst, a)
                elif ins.op == "not":
                    emit(ins.dst, f"~{a}")
                else:
                    env[f"f{k}"] = _ALU_FUNCS[ins.op]
                    emit(ins.dst, f"f{k}({a})")
            else:
                b = rname(ins.b)
                infix = _INFIX_ALU.get(ins.op)
                if infix is not None:
                    emit(ins.dst, f"({a} {infix} {b})")
                else:
                    env[f"f{k}"] = _ALU_FUNCS[ins.op]
                    emit(ins.dst, f"f{k}({a}, {b})")
        elif cls is Cmp:
            a, b = rname(ins.a), rname(ins.b)
            emit(ins.dst, f"({a} {_INFIX_CMP[ins.op]} {b})")
        elif cls is Const:
            # A Const broadcast depends only on the instruction, so the
            # 64-lane vector is materialised once at codegen time.
            arr = np.full(WAVE, ins.value, dtype=ins.dst.dtype.np_dtype)
            arr.flags.writeable = False
            env[f"C{k}"] = arr
            emit(ins.dst, f"C{k}", checked=False)
        elif cls is LoadParam:
            # LoadParam depends on the launch's scalar bindings; the
            # per-launch broadcast cache keeps it to one np.full.
            env[f"i{k}"] = ins
            emit(ins.dst, f"wave._broadcast_value(i{k})", checked=False)
        elif cls is PredOp:
            a = rname(ins.a)
            if ins.op == "not":
                emit(ins.dst, f"~{a}")
            else:
                b = rname(ins.b)
                emit(ins.dst, f"({a} {_INFIX_ALU[ins.op]} {b})")
        elif cls is Select:
            p, a, b = rname(ins.pred), rname(ins.a), rname(ins.b)
            emit(ins.dst, f"_where({p}, {a}, {b})")
        elif cls is SpecialId:
            env[f"i{k}"] = ins
            emit(ins.dst, f"wave._special_value(i{k})")
        elif cls is Swizzle:
            src_lanes = (
                ((_LANES & ins.and_mask) | ins.or_mask) ^ ins.xor_mask
            ) % WAVE
            env[f"L{k}"] = src_lanes
            emit(ins.dst, f"{rname(ins.src)}[L{k}]")
        else:  # pragma: no cover - lowering only collects _PURE_OPS
            raise TypeError(f"cannot fuse {ins!r}")

    epilogue = [f"    g{nm}[:] = {nm}" for nm in written] if full_mask else []
    return make_closure("_fused", "wave, mask",
                        ["    regs = wave.regs"] + prologue + lines + epilogue,
                        env, "<fused>")


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _lower_body(body: Sequence[Stmt], label: str) -> List[object]:
    items: List[object] = []
    run: List[Instr] = []

    def flush() -> None:
        if run:
            items.append(FusedBlock(run, f"{label}#{len(items)}"))
            run.clear()

    for stmt in body:
        cls = stmt.__class__
        if cls in _PURE_OPS:
            run.append(stmt)
        elif cls is If:
            flush()
            items.append(
                LoweredIf(
                    stmt.cond,
                    _lower_body(stmt.then_body, label),
                    _lower_body(stmt.else_body, label),
                    bool(stmt.else_body),
                )
            )
        elif cls is While:
            flush()
            items.append(
                LoweredWhile(
                    _lower_body(stmt.cond_block, label),
                    stmt.cond,
                    _lower_body(stmt.body, label),
                    _loop_writes(stmt),
                )
            )
        else:
            flush()
            items.append(stmt)
    flush()
    return items


def lower_kernel(kernel: Kernel) -> FusedProgram:
    """Lower (and memoize on the kernel object) one kernel body.

    The lowered program is keyed to the kernel *instance*: compiler
    passes clone kernels before mutating them, so a compiled kernel's
    body is stable for its lifetime and the memo stays valid.
    """
    cached = getattr(kernel, "_fused_program", None)
    if cached is None:
        cached = FusedProgram(_lower_body(kernel.body, kernel.name))
        kernel._fused_program = cached
    return cached


def maybe_lower(kernel: Kernel):
    """Lower ``kernel`` if fusion is globally enabled, else ``None``."""
    if not _enabled:
        return None
    return lower_kernel(kernel)


# ---------------------------------------------------------------------------
# Fused interpreter loop (attached to Wavefront)
# ---------------------------------------------------------------------------


def _exec_fused(self: Wavefront, items, mask: np.ndarray, full: bool, hook):
    """Lowered-tree twin of ``Wavefront._exec_body`` (timing-identical).

    ``full`` caches whether every lane of ``mask`` is active, so blocks
    and memory instructions take their all-lanes variants without a
    per-item reduction; it is recomputed only where the mask itself
    changes (branch splits, loop back-edges).  Masks are 64-byte bool
    vectors, so emptiness and fullness are byte tests (DESIGN.md §19).

    ``hook`` is the fault hook of an unfired victim wave, else ``None``.
    With a hook, each :class:`FusedBlock` first asks it for the wave's
    trigger watermark: a block that completes strictly below it (or any
    block once ``window()`` is ``None``) runs as one closure; a block
    that could cross it is stepped with the reference sequence
    ``dyn_instrs += 1; hook(...); _exec_pure(...)``, so the flip lands
    at the same dynamic point, against the same register file, as the
    reference interpreter; its per-instruction charges sum to the
    block's aggregate cost, so timing is identical either way.
    Non-pure instructions consult ``self._ihook`` in ``_exec_instr``.
    """
    cfg = self.ctx.config
    for item in items:
        cls = item.__class__
        if cls is FusedBlock:
            if hook is not None:
                w = hook.window(self)
                if w is not None and self.dyn_instrs + item.n >= w:
                    for ins in item.instrs:
                        self.dyn_instrs += 1
                        hook(self, ins)
                        self._exec_pure(ins, mask)
                    continue
            item.execute(self, mask, full)
        elif cls is LoweredIf:
            cond = self.read(item.cond)
            then_mask = mask & cond
            inv_mask = mask & ~cond
            t_any = then_mask.tobytes() != _NO_LANES
            i_any = inv_mask.tobytes() != _NO_LANES
            self._pend.n_branch += 1
            self._pend.valu_cycles += cfg.branch_cycles
            if t_any and i_any:
                self._pend.n_div_branch += 1
            if t_any:
                # then_mask == mask when the else side is empty.
                yield from self._exec_fused(item.then_items, then_mask,
                                            full and not i_any, hook)
            if item.has_else and i_any:
                yield from self._exec_fused(item.else_items, inv_mask,
                                            full and not t_any, hook)
        elif cls is LoweredWhile:
            live = mask.copy()
            l_full = full
            proof, spin = self.ctx.livelock, None
            while True:
                yield from self._exec_fused(item.cond_items, live, l_full,
                                            hook)
                cond = self.read(item.cond)
                live &= cond
                self._pend.n_branch += 1
                self._pend.valu_cycles += cfg.branch_cycles
                lanes = live.tobytes()
                if lanes == _NO_LANES:
                    break
                l_full = 0 not in lanes
                if not l_full and (full or mask.tobytes() != _NO_LANES):
                    self._pend.n_div_branch += 1
                yield from self._exec_fused(item.body_items, live, l_full,
                                            hook)
                if proof is not None:
                    spin = proof.back_edge(self, item, live, spin)
                if (self._pend.valu_cycles + self._pend.salu_cycles
                        > _SPIN_FLUSH_CYCLES):
                    yield self._flush()
        else:
            yield from self._exec_instr(item, mask, full)


Wavefront._exec_fused = _exec_fused
