"""Transient-fault (SEU) injection into simulated GPU state.

The paper argues coverage from the sphere of replication; simulation
lets us *test* it.  An injection plan picks one dynamic point in one
wavefront and flips one bit in a chosen structure:

* ``vgpr`` — one lane of one live vector register (inside every SoR);
* ``sgpr`` — a wavefront-uniform register, flipped across all lanes,
  modelling an SRF upset shared by an Intra-Group redundant pair
  (outside the Intra-Group SoR, inside the Inter-Group SoR);
* ``lds``  — one word of the work-group's LDS (inside the SoR only for
  Intra-Group+LDS and Inter-Group).

Outcomes are classified against the benchmark's oracle: ``masked``
(architecturally invisible), ``detected`` (the RMT output comparison
flagged it), or ``sdc`` (silent data corruption — wrong output, no flag).

Wave identity is the engine-stamped creation ordinal (``wave.ordinal``,
assigned by the timing engine the first time a wavefront is popped from
the event queue — the order the old hook observed first-executed waves
in, so plans target the same victims as before).  The hook therefore
keeps **no** per-wave state: earlier revisions pinned ``id(wave)`` keys
alive with strong references to every wavefront ever seen, which made
long multi-launch campaigns accumulate dead waves without bound.

``window()`` is the fast-path query API: the fused fault-window
executor (:mod:`repro.gpu.fused`) asks each wave for its trigger
watermark and only drops to per-instruction stepping when a fused
block could cross it; non-victim waves always get ``None`` and never
leave the block-fused fast path.

:class:`ReadHorizon` proves a register flip dead: when the launch
context is armed for it, a flip into a register no instruction reads
again raises :class:`~repro.gpu.engine.UpsetMasked` and the device
finishes the launch from its golden tape entry (DESIGN.md §20).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

import numpy as np

from ..gpu.engine import UpsetMasked
from ..ir.core import If, Kernel, Stmt, While

TARGETS = ("vgpr", "sgpr", "lds")


@dataclass
class FaultPlan:
    """One single-event-upset to inject during a run."""

    target: str                 # 'vgpr' | 'sgpr' | 'lds'
    wave_ordinal: int           # n-th wavefront created during the run
    trigger_instr: int          # dynamic instruction count within that wave
    bit: int                    # bit position to flip (0..31)
    lane: int                   # lane for vgpr faults (0..63)
    victim_index: int           # register / LDS word selector

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown fault target {self.target!r}")


@dataclass
class InjectionRecord:
    """What the hook actually did (for reporting and debugging).

    ``bucket`` is the static protection-priority quartile of the victim
    register (see :mod:`repro.compiler.analysis.vulnerability`), stamped
    at flip time when the hook was given a bucket map — so campaign
    records join fault outcomes to static predictions without re-running
    the analysis per worker.  ``-1`` means unknown (no map supplied, or
    an LDS fault, which has no per-register bucket).
    """

    fired: bool = False
    description: str = ""
    bucket: int = -1


class ReadHorizon:
    """Where each register is read for the last time (DESIGN.md §20).

    One walk numbers the statements of a kernel body in SIMT execution
    order: an ``If``'s condition, its then-arm, then its else-arm (a
    wave runs both arms, so the else-arm lies in the then-arm's
    future); a ``While``'s condition block, its condition, then its
    body.  ``last_read`` maps a register id to its last read position
    (``If``/``While`` conditions count as reads), ``start`` an
    instruction id to its own position, or to the first position of
    its outermost enclosing ``While``, whose every position the wave
    may reach again.  Writes never kill: a masked write leaves the
    inactive lanes' values in place.
    """

    __slots__ = ("start", "last_read", "_pos")

    def __init__(self, body: Sequence[Stmt]):
        self.start: Dict[int, int] = {}
        self.last_read: Dict[int, int] = {}
        self._pos = 0
        self._walk(body, None)

    def _walk(self, body: Sequence[Stmt], loop: Optional[int]) -> None:
        start, last = self.start, self.last_read
        for stmt in body:
            cls = stmt.__class__
            if cls is If:
                last[id(stmt.cond)] = self._pos
                self._pos += 1
                self._walk(stmt.then_body, loop)
                self._walk(stmt.else_body, loop)
            elif cls is While:
                outer = self._pos if loop is None else loop
                self._walk(stmt.cond_block, outer)
                last[id(stmt.cond)] = self._pos
                self._pos += 1
                self._walk(stmt.body, outer)
            else:
                pos = self._pos
                self._pos += 1
                # An instruction object placed twice keeps its earliest
                # start: an earlier start is the more conservative one.
                at = pos if loop is None else loop
                if start.get(id(stmt), at) >= at:
                    start[id(stmt)] = at
                for src in stmt.sources():
                    last[id(src)] = pos

    def dead(self, rid: int, instr) -> bool:
        """True when no read of register ``rid`` can follow the moment
        just before ``instr`` executes (unknown instructions: never)."""
        return self.last_read.get(rid, -1) < self.start.get(id(instr), -1)


def read_horizon(kernel: Kernel) -> ReadHorizon:
    """The :class:`ReadHorizon` of ``kernel``, memoized on the instance
    the way :func:`repro.gpu.fused.lower_kernel` memoizes its lowering."""
    cached = getattr(kernel, "_read_horizon", None)
    if cached is None:
        cached = kernel._read_horizon = ReadHorizon(kernel.body)
    return cached


class FaultHook:
    """Callable installed as the launch context's per-instruction hook."""

    #: Declares the window query API: the device may run fused (and,
    #: where the geometry allows, vectorized) executors around this hook
    #: instead of forcing the reference interpreter.  Plain callables
    #: (ad-hoc test hooks, the model checker's marker probes) lack the
    #: attribute and always get the per-instruction reference path.
    supports_window = True

    def __init__(self, plan: FaultPlan, scalar_reg_ids: Optional[Set[int]] = None,
                 priority_buckets: Optional[Dict[int, int]] = None):
        self.plan = plan
        self.scalar_reg_ids = scalar_reg_ids or set()
        self.priority_buckets = priority_buckets or {}
        self.record = InjectionRecord()

    @property
    def fired(self) -> bool:
        return self.record.fired

    def window(self, wave) -> Optional[int]:
        """Trigger watermark for ``wave``, or ``None`` off the victim.

        Returns the plan's ``trigger_instr`` only while the upset is
        still pending *and* ``wave`` is the victim (by engine-stamped
        creation ordinal).  A fused executor may run any block whose
        instructions all complete strictly below the watermark without
        consulting the hook; ``None`` means the whole wave is safe.
        """
        if self.record.fired or wave.ordinal != self.plan.wave_ordinal:
            return None
        return self.plan.trigger_instr

    def inert(self, ordinal_base: int, waves: int) -> bool:
        """True when this hook cannot fire during a launch whose waves
        take ordinals ``[ordinal_base, ordinal_base + waves)``: the upset
        already fired, or its victim belongs to another launch.  Such a
        launch is unobservable to the hook, which is what lets the device
        replay a recorded fault-free launch in its place."""
        return (self.record.fired
                or not ordinal_base <= self.plan.wave_ordinal
                < ordinal_base + waves)

    def __call__(self, wave, instr) -> None:
        if self.record.fired:
            return
        plan = self.plan
        if wave.ordinal != plan.wave_ordinal:
            return
        if wave.dyn_instrs < plan.trigger_instr:
            return
        if plan.target == "lds":
            self._flip_lds(wave)
        else:
            self._flip_register(wave, instr)

    # -- flips -----------------------------------------------------------

    def _flip_register(self, wave, instr) -> None:
        plan = self.plan
        want_scalar = plan.target == "sgpr"

        def eligible(rid: int) -> bool:
            return (rid in self.scalar_reg_ids) == want_scalar

        # Prefer an operand of the instruction about to execute — a live
        # value, the way an SEU matters — falling back to any resident
        # register of the right class.
        candidates = [
            id(src) for src in instr.sources()
            if id(src) in wave.regs and eligible(id(src))
        ]
        if not candidates:
            candidates = [rid for rid in wave.regs if eligible(rid)]
        if not candidates:
            return
        rid = candidates[plan.victim_index % len(candidates)]
        arr = wave.regs[rid]
        if arr.dtype == np.bool_:
            if plan.target == "sgpr":
                arr[:] = ~arr
            else:
                arr[plan.lane] = not arr[plan.lane]
        else:
            view = arr.view(np.uint32)
            mask = np.uint32(1 << (plan.bit & 31))
            if plan.target == "sgpr":
                # A scalar-register upset corrupts the value every lane of
                # the wavefront observes.
                view ^= mask
            else:
                view[plan.lane] ^= mask
        self.record.fired = True
        self.record.bucket = self.priority_buckets.get(rid, -1)
        self.record.description = (
            f"{plan.target} flip bit {plan.bit} wave {plan.wave_ordinal} "
            f"@instr {plan.trigger_instr}"
        )
        # An operand of ``instr`` is always live; a fallback victim may
        # never be read again, and then the launch is the golden one.
        ctx = wave.ctx
        if ctx.dead_upset and read_horizon(ctx.kernel).dead(rid, instr):
            raise UpsetMasked(self.record.description)

    def _flip_lds(self, wave) -> None:
        plan = self.plan
        arrays = list(wave.group.lds.values())
        if not arrays:
            return
        arr = arrays[plan.victim_index % len(arrays)]
        if arr.size == 0:
            return
        word = plan.lane % arr.size
        view = arr.view(np.uint32) if arr.dtype != np.bool_ else None
        if view is None:
            return
        view[word] ^= np.uint32(1 << (plan.bit & 31))
        self.record.fired = True
        self.record.description = (
            f"lds flip bit {plan.bit} word {word} wave {plan.wave_ordinal} "
            f"@instr {plan.trigger_instr}"
        )


def random_plan(rng: np.random.Generator, target: str,
                max_wave: int = 16, max_instr: int = 120) -> FaultPlan:
    """Draw a random injection plan (for campaigns)."""
    return FaultPlan(
        target=target,
        wave_ordinal=int(rng.integers(0, max_wave)),
        trigger_instr=int(rng.integers(1, max_instr)),
        bit=int(rng.integers(0, 32)),
        lane=int(rng.integers(0, 64)),
        victim_index=int(rng.integers(0, 64)),
    )
