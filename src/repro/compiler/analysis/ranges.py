"""Interval (value-range) abstract interpreter over the structured IR.

Computes, for every integer virtual register, a conservative interval of
the *mathematical* value it can hold, and records the interval of every
memory-access index together with a snapshot of the whole environment at
the access point.  Two clients build on it:

* the **OOB lint** (:mod:`..lint.oob`), which flags accesses whose index
  interval provably (or possibly) leaves the allocation;
* the **translation validator** (:mod:`..tv`), which uses the interval of
  the pre-offset index of a remapped +LDS access to prove that the two
  replica halves of a doubled allocation are disjoint.

Design notes:

* Bounds are ints or ``None`` (±∞).  Arithmetic is over mathematical
  integers — no 32-bit wrap clamping.  A u32 subtraction that can
  underflow therefore yields a negative lower bound, which downstream
  reads as "the machine value may wrap to a huge index": sound for
  bounds checking in both directions.  Re-anchoring operations (``and``
  with a non-negative mask, ``rem`` by a known-positive divisor of a
  non-negative value) return machine-exact non-negative intervals.
* Loops use the classic **directional widening**: a bound that moved
  between iterations widens to ±∞, a stable bound is kept.  This is what
  lets a halving loop (``stride >>= 1`` from ``ls/2``) retain its upper
  bound while the lower bound is re-sharpened by the loop guard.  A
  loop still moving after 10 iterations forgets every register it
  wrote (back to the type's default interval): keeping the last
  iteration's state would under-approximate.
* Joins and loop comparisons are *sparse* (:mod:`.sparse_env`): they
  visit only the registers an arm or iteration wrote or refined.
* Branch conditions **refine** intervals in each arm (and in loop
  bodies / after loop exit) through the conjunctive predicate tree, with
  constraints killed when a mentioned register is reassigned (the IR is
  not SSA).
* ``sub(max(x, y), y)`` is recognized as ``max(x - y, 0)`` — needed for
  the PrefixSum partner-index idiom — guarded by a version check so the
  rewrite only fires when ``y`` was not reassigned in between.

Work-item ID intrinsics take their bounds from ``metadata['local_size']``
and ``metadata['global_size']`` when present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...ir.core import (
    Alu,
    AtomicGlobal,
    Cmp,
    Const,
    If,
    Instr,
    Kernel,
    LoadGlobal,
    LoadLocal,
    LoadParam,
    PredOp,
    Select,
    SpecialId,
    Stmt,
    StoreGlobal,
    StoreLocal,
    VReg,
    While,
)
from ...ir.types import DType
from .sparse_env import SparseEnv

_INT = (DType.U32, DType.I32)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


class Interval:
    """Closed integer interval; a ``None`` bound means unbounded."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Optional[int], hi: Optional[int]):
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def const(v: int) -> "Interval":
        return Interval(v, v)

    @staticmethod
    def nonneg() -> "Interval":
        return Interval(0, None)

    # -- predicates --------------------------------------------------------

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def within(self, lo: int, hi: int) -> bool:
        """Provably ``lo <= value <= hi``?"""
        return (
            self.lo is not None and self.hi is not None
            and self.lo >= lo and self.hi <= hi
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"

    # -- lattice -----------------------------------------------------------

    def hull(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        """Directional widening: drop only the bound that moved."""
        lo = (
            self.lo
            if self.lo is not None and newer.lo is not None and newer.lo >= self.lo
            else None
        )
        hi = (
            self.hi
            if self.hi is not None and newer.hi is not None and newer.hi <= self.hi
            else None
        )
        return Interval(lo, hi)

    def clamp_lo(self, lo: Optional[int]) -> "Interval":
        if lo is None:
            return self
        new_lo = lo if self.lo is None else max(self.lo, lo)
        return Interval(new_lo, self.hi)

    def clamp_hi(self, hi: Optional[int]) -> "Interval":
        if hi is None:
            return self
        new_hi = hi if self.hi is None else min(self.hi, hi)
        return Interval(self.lo, new_hi)


def _default(reg: VReg) -> Interval:
    """Interval for a register we know nothing about but its type."""
    # An opaque u32 value that nothing has wrapped is a machine value in
    # [0, 2^32); anchoring it at >= 0 is what keeps later subtraction
    # results honest about possible underflow.
    if reg.dtype is DType.U32:
        return Interval.nonneg()
    return Interval.top()


# -- bound-aware arithmetic helpers -----------------------------------------


def _addb(a: Optional[int], b: Optional[int]) -> Optional[int]:
    return None if a is None or b is None else a + b


def _iv_add(a: Interval, b: Interval) -> Interval:
    return Interval(_addb(a.lo, b.lo), _addb(a.hi, b.hi))


def _iv_sub(a: Interval, b: Interval) -> Interval:
    return Interval(
        None if a.lo is None or b.hi is None else a.lo - b.hi,
        None if a.hi is None or b.lo is None else a.hi - b.lo,
    )


def _iv_neg(a: Interval) -> Interval:
    return Interval(
        None if a.hi is None else -a.hi,
        None if a.lo is None else -a.lo,
    )


_INF = float("inf")


def _iv_mul(a: Interval, b: Interval) -> Interval:
    def ext(v: Optional[int], sign: float) -> float:
        return sign * _INF if v is None else v

    def mulx(x: float, y: float) -> float:
        if x == 0 or y == 0:
            return 0.0
        return x * y

    corners = [
        mulx(ext(a.lo, -1), ext(b.lo, -1)),
        mulx(ext(a.lo, -1), ext(b.hi, +1)),
        mulx(ext(a.hi, +1), ext(b.lo, -1)),
        mulx(ext(a.hi, +1), ext(b.hi, +1)),
    ]
    lo, hi = min(corners), max(corners)
    return Interval(
        None if lo == -_INF else int(lo),
        None if hi == _INF else int(hi),
    )


def _iv_minmax(a: Interval, b: Interval, is_max: bool) -> Interval:
    pick = max if is_max else min

    def bound(x: Optional[int], y: Optional[int], unbounded_wins: bool) -> Optional[int]:
        if x is None or y is None:
            if unbounded_wins:
                return None
            return y if x is None else x
        return pick(x, y)

    # For max: lo = max(a.lo, b.lo) (a None lo loses), hi = max(a.hi, b.hi)
    # (a None hi wins); dually for min.
    return Interval(
        bound(a.lo, b.lo, unbounded_wins=not is_max),
        bound(a.hi, b.hi, unbounded_wins=is_max),
    )


def _iv_div(a: Interval, b: Interval) -> Interval:
    # Only the non-negative / known-positive case matters for indexing.
    if a.lo is None or a.lo < 0 or b.lo is None or b.lo < 1:
        return Interval.top()
    lo = 0 if b.hi is None else a.lo // b.hi
    hi = None if a.hi is None else a.hi // b.lo
    return Interval(lo, hi)


def _iv_rem(a: Interval, b: Interval) -> Interval:
    if b.lo is None or b.lo < 1:
        return Interval.top()
    hi = None if b.hi is None else b.hi - 1
    if a.lo is not None and a.lo >= 0:
        # Machine-exact re-anchor even when b is unbounded above: the
        # result also never exceeds the dividend.
        return Interval(0, hi if a.hi is None else (a.hi if hi is None else min(a.hi, hi)))
    return Interval(None if hi is None else -hi, hi)


def _pow2_cover(v: int) -> int:
    """Smallest ``2**k - 1`` covering ``v``."""
    return (1 << v.bit_length()) - 1


class _Evaluator:
    """Structured walk computing per-register intervals and access records."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        #: intervals (``env``) and predicate trees (``penv``) by id(reg)
        self.s = SparseEnv()
        #: id(reg) -> ids of the predicate trees that may mention it; never
        #: pruned, so a kill re-checks the mention before dropping a tree.
        self.mentions: Dict[int, set] = {}
        self.regs: Dict[int, VReg] = {}
        #: Monotonic per-register assignment counters; never rolled back,
        #: so a cross-register fact recorded at version v is conservatively
        #: invalidated by *any* later reassignment (joins included).
        self.versions: Dict[int, int] = {}
        #: id(dst of ``max``) -> (id(operand), operand version) for the
        #: ``sub(max(x, y), y) >= 0`` rewrite.
        self.maxinfo: Dict[int, List[Tuple[int, int]]] = {}
        self.accesses: List["AccessRange"] = []
        self.local_size = _norm_shape(kernel.metadata.get("local_size"))
        self.global_size = _norm_shape(kernel.metadata.get("global_size"))
        bn = kernel.metadata.get("buffer_nelems") or {}
        self.buffer_nelems: Dict[str, int] = dict(bn)

    # -- environment -------------------------------------------------------

    def _get(self, reg: VReg) -> Interval:
        iv = self.s.env.get(id(reg))
        return _default(reg) if iv is None else iv

    def _assign(self, dst: VReg, iv: Interval) -> None:
        rid = id(dst)
        self.regs[rid] = dst
        self.s.set(rid, iv)
        self.versions[rid] = self.versions.get(rid, 0) + 1
        self.maxinfo.pop(rid, None)
        # Kill predicate trees mentioning the reassigned register: their
        # constraints described the old value.
        penv = self.s.penv
        for pid in self.mentions.get(rid, ()):
            mention = penv.get(pid)
            if mention is not None and rid in mention[1]:
                self.s.set_pred(pid, None)

    def _set_pred(self, pid: int, mention) -> None:
        self.s.set_pred(pid, mention)
        if mention is not None:
            for rid in mention[1]:
                self.mentions.setdefault(rid, set()).add(pid)

    # -- driver ------------------------------------------------------------

    def run(self) -> List["AccessRange"]:
        self._eval_body(self.kernel.body, record=True)
        return self.accesses

    def _eval_body(self, body: List[Stmt], record: bool) -> None:
        for stmt in body:
            if isinstance(stmt, If):
                self._eval_if(stmt, record)
            elif isinstance(stmt, While):
                self._eval_while(stmt, record)
            else:
                self._eval_instr(stmt, record)

    def _eval_if(self, stmt: If, record: bool) -> None:
        s = self.s
        outer = s.open()
        self._refine(stmt.cond, True)
        self._eval_body(stmt.then_body, record)
        then_log = s.close(outer)
        then_vals = {rid: (s.env.get(rid), s.penv.get(rid)) for rid in then_log}
        s.undo(then_log)
        s.open()
        self._refine(stmt.cond, False)
        self._eval_body(stmt.else_body, record)
        else_log = s.close(outer)

        # Join only what an arm wrote; every other register holds the
        # same object in both arms.  Both logs are now part of ``outer``.
        env, penv = s.env, s.penv
        for rid in then_log.keys() | else_log.keys():
            tv, tp = then_vals.get(rid) or s.entry(rid, else_log)
            ev = env.get(rid)
            if tv is not ev and tv is not None:
                # Defined only in else (tv None): uses are guarded.
                env[rid] = tv if ev is None else tv.hull(ev)
            if penv.get(rid) is not tp:
                penv[rid] = None

    def _eval_while(self, stmt: While, record: bool) -> None:
        s = self.s
        outer = s.open()  # collects every register the loop writes
        env, penv = s.env, s.penv
        for _ in range(10):
            loop_log = s.open()
            self._eval_body(stmt.cond_block, record=False)
            self._refine(stmt.cond, True)
            self._eval_body(stmt.body, record=False)
            # Compare and widen only what this iteration wrote.
            it_log = s.close(loop_log)
            changed = False
            for rid in it_log:
                old, old_p = s.entry(rid, it_log)
                new = env.get(rid)
                if old is None:
                    changed = changed or new is not None
                elif new is None or new is old or old == new:
                    env[rid] = old
                else:
                    w = old.widen(new)
                    env[rid] = w
                    changed = changed or w != old
                if old_p is not penv.get(rid):
                    penv[rid] = None
                    changed = changed or old_p is not None
            if not changed:
                break
        else:
            # No fixpoint within the cap: a register the loop writes may
            # still be moving, so forget everything it wrote.
            for rid in s.log:
                reg = self.regs.get(rid)
                if reg is None:
                    env.pop(rid, None)
                else:
                    env[rid] = _default(reg)
                penv[rid] = None
        # Final recording pass over the widened fixpoint.
        self._eval_body(stmt.cond_block, record)
        loop_log = s.open()
        self._refine(stmt.cond, True)
        self._eval_body(stmt.body, record)
        # Post-loop state: the loop exits from after the condition block
        # with the condition false.
        s.undo(s.close(loop_log))
        s.close(outer)
        self._refine(stmt.cond, False)

    # -- branch refinement -------------------------------------------------

    _NEGATE = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "le": "gt", "gt": "le"}

    def _refine(self, cond: VReg, polarity: bool) -> None:
        mention = self.s.penv.get(id(cond))
        if mention is None:
            return
        put = self.s.set
        for op, ra, rb in self._prims(mention[0], polarity):
            a = self._get(ra)
            b = self._get(rb)
            if op == "eq":
                meet = a.clamp_lo(b.lo).clamp_hi(b.hi)
                put(id(ra), meet)
                put(id(rb), b.clamp_lo(a.lo).clamp_hi(a.hi))
            elif op == "lt":
                put(id(ra), a.clamp_hi(None if b.hi is None else b.hi - 1))
                put(id(rb), b.clamp_lo(None if a.lo is None else a.lo + 1))
            elif op == "le":
                put(id(ra), a.clamp_hi(b.hi))
                put(id(rb), b.clamp_lo(a.lo))
            elif op == "gt":
                put(id(ra), a.clamp_lo(None if b.lo is None else b.lo + 1))
                put(id(rb), b.clamp_hi(None if a.hi is None else a.hi - 1))
            elif op == "ge":
                put(id(ra), a.clamp_lo(b.lo))
                put(id(rb), b.clamp_hi(a.hi))
            # "ne" carries no interval fact.

    def _prims(self, tree, polarity: bool) -> List[Tuple[str, VReg, VReg]]:
        """Conjunctive comparison facts implied by a predicate tree."""
        if tree is None:
            return []
        kind = tree[0]
        if kind == "cmp":
            _, op, ra, rb = tree
            if not polarity:
                op = self._NEGATE[op]
            return [(op, ra, rb)]
        if kind == "and":
            if polarity:
                return self._prims(tree[1], True) + self._prims(tree[2], True)
            return []
        if kind == "or":
            if not polarity:
                return self._prims(tree[1], False) + self._prims(tree[2], False)
            return []
        if kind == "not":
            return self._prims(tree[1], not polarity)
        return []

    # -- instructions ------------------------------------------------------

    def _eval_instr(self, instr: Instr, record: bool) -> None:
        for r in (*instr.dests(), *instr.sources()):
            self.regs.setdefault(id(r), r)

        if record:
            self._record(instr)

        if isinstance(instr, Cmp):
            tree = ("cmp", instr.op, instr.a, instr.b)
            mset = frozenset((id(instr.a), id(instr.b)))
            self._assign(instr.dst, Interval.top())
            self._set_pred(id(instr.dst), (tree, mset))
            return
        penv = self.s.penv
        if isinstance(instr, PredOp):
            a = penv.get(id(instr.a))
            b = penv.get(id(instr.b)) if instr.b is not None else None
            self._assign(instr.dst, Interval.top())
            if instr.op == "not" and a is not None:
                self._set_pred(id(instr.dst), (("not", a[0]), a[1]))
            elif instr.op in ("and", "or") and a is not None and b is not None:
                self._set_pred(
                    id(instr.dst), ((instr.op, a[0], b[0]), a[1] | b[1]))
            else:
                self._set_pred(id(instr.dst), None)
            return

        dests = instr.dests()
        if not dests:
            return
        dst = dests[0]
        self._assign(dst, self._value(instr, dst))
        if isinstance(instr, Alu) and instr.op == "mov":
            self._set_pred(id(dst), penv.get(id(instr.a)))
        else:
            self._set_pred(id(dst), None)
        if isinstance(instr, Alu) and instr.op == "max" and instr.b is not None:
            # Registered after _assign so the dst-kill does not erase it.
            self.maxinfo[id(dst)] = [
                (id(instr.a), self.versions.get(id(instr.a), 0)),
                (id(instr.b), self.versions.get(id(instr.b), 0)),
            ]

    def _value(self, instr: Instr, dst: VReg) -> Interval:
        if isinstance(instr, Const):
            if dst.dtype in _INT and isinstance(instr.value, (int, bool)):
                return Interval.const(int(instr.value))
            return _default(dst)
        if isinstance(instr, LoadParam):
            return _default(dst)
        if isinstance(instr, SpecialId):
            return self._special(instr)
        if isinstance(instr, Alu):
            return self._alu(instr, dst)
        if isinstance(instr, Select):
            if dst.dtype not in _INT:
                return _default(dst)
            return self._get(instr.a).hull(self._get(instr.b))
        # Loads, atomics, swizzles: opaque values of the dest's type.
        return _default(dst)

    def _special(self, instr: SpecialId) -> Interval:
        kind, dim = instr.kind, instr.dim
        ls = self.local_size
        gs = self.global_size
        if kind == "local_id":
            return Interval(0, ls[dim] - 1) if ls else Interval.nonneg()
        if kind == "local_size":
            return Interval.const(ls[dim]) if ls else Interval(1, None)
        if kind == "global_id":
            return Interval(0, gs[dim] - 1) if gs else Interval.nonneg()
        if kind == "global_size":
            return Interval.const(gs[dim]) if gs else Interval(1, None)
        ng = None
        if ls and gs and ls[dim] and gs[dim] % ls[dim] == 0:
            ng = gs[dim] // ls[dim]
        if kind == "num_groups":
            return Interval.const(ng) if ng else Interval(1, None)
        if kind == "group_id":
            return Interval(0, ng - 1) if ng else Interval.nonneg()
        return Interval.nonneg()

    def _alu(self, instr: Alu, dst: VReg) -> Interval:
        op = instr.op
        if dst.dtype not in _INT and op not in ("mov",):
            return _default(dst)
        a = self._get(instr.a)
        if instr.b is None:
            if op in ("mov", "bitcast_u32", "bitcast_i32"):
                if op != "mov" and instr.a.dtype not in _INT:
                    return _default(dst)
                return a
            if op == "neg":
                return _iv_neg(a)
            if op == "abs":
                if a.lo is not None and a.lo >= 0:
                    return a
                hi_mag = None
                if a.lo is not None and a.hi is not None:
                    hi_mag = max(abs(a.lo), abs(a.hi))
                return Interval(0, hi_mag)
            return _default(dst)
        b = self._get(instr.b)
        if op == "add":
            return _iv_add(a, b)
        if op == "sub":
            out = _iv_sub(a, b)
            if self._is_max_with(instr.a, instr.b):
                # sub(max(x, y), y) == max(x - y, 0).
                out = out.clamp_lo(0)
            return out
        if op == "mul":
            return _iv_mul(a, b)
        if op == "div":
            return _iv_div(a, b)
        if op == "rem":
            return _iv_rem(a, b)
        if op == "min":
            return _iv_minmax(a, b, is_max=False)
        if op == "max":
            return _iv_minmax(a, b, is_max=True)
        if op == "and":
            # Masking re-anchors: the machine result is within the mask.
            masks = []
            if b.is_bounded and b.lo >= 0:
                masks.append(_pow2_cover(b.hi))
            if a.is_bounded and a.lo >= 0:
                masks.append(_pow2_cover(a.hi))
            if masks:
                return Interval(0, min(masks))
            return Interval.top()
        if op in ("or", "xor"):
            if (a.is_bounded and a.lo >= 0 and b.is_bounded and b.lo >= 0):
                return Interval(0, max(_pow2_cover(a.hi), _pow2_cover(b.hi)))
            return Interval.top()
        if op == "shl":
            if b.is_bounded and b.lo == b.hi and 0 <= b.lo <= 31:
                return _iv_mul(a, Interval.const(1 << b.lo))
            return Interval.top()
        if op in ("shr", "ashr"):
            if (
                b.is_bounded and b.lo == b.hi and 0 <= b.lo <= 31
                and a.lo is not None and a.lo >= 0
            ):
                return Interval(a.lo >> b.lo, None if a.hi is None else a.hi >> b.lo)
            return Interval.top()
        return Interval.top()

    # -- the sub(max(x, y), y) special case --------------------------------

    def _is_max_with(self, a: VReg, b: VReg) -> bool:
        for rid, version in self.maxinfo.get(id(a), ()):  # operands of the max
            if rid == id(b) and self.versions.get(rid, 0) == version:
                return True
        return False

    # -- access recording --------------------------------------------------

    def _record(self, instr: Instr) -> None:
        if isinstance(instr, (LoadLocal, StoreLocal)):
            kind = "store_local" if isinstance(instr, StoreLocal) else "load_local"
            self._add_access(instr, kind, instr.lds.name, instr.lds.nelems, instr.index)
        elif isinstance(instr, (LoadGlobal, StoreGlobal)):
            kind = "store_global" if isinstance(instr, StoreGlobal) else "load_global"
            self._add_access(
                instr, kind, instr.buf.name,
                self.buffer_nelems.get(instr.buf.name), instr.index,
            )
        elif isinstance(instr, AtomicGlobal):
            self._add_access(
                instr, "atomic_global", instr.buf.name,
                self.buffer_nelems.get(instr.buf.name), instr.index,
            )

    def _add_access(
        self, instr: Instr, kind: str, target: str,
        nelems: Optional[int], index: VReg,
    ) -> None:
        env = {rid: iv for rid, iv in self.s.env.items()
               if iv.lo is not None or iv.hi is not None}  # not top
        self.accesses.append(
            AccessRange(
                instr=instr,
                kind=kind,
                target=target,
                nelems=nelems,
                index=self._get(index),
                env=env,
            )
        )


def _norm_shape(shape) -> Optional[Tuple[int, int, int]]:
    if shape is None:
        return None
    if isinstance(shape, int):
        shape = (shape,)
    t = tuple(int(x) for x in shape) + (1,) * (3 - len(shape))
    return t[:3]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class AccessRange:
    """One memory access with its index interval and environment snapshot."""

    instr: Instr
    kind: str                  # load_local / store_local / load_global / ...
    target: str                # allocation or buffer name
    nelems: Optional[int]      # allocation size, when statically known
    index: Interval
    env: Dict[int, Interval] = field(repr=False)

    def interval_of(self, reg: VReg) -> Interval:
        """Interval of any register as of this access point."""
        iv = self.env.get(id(reg))
        return _default(reg) if iv is None else iv


@dataclass
class RangeAnalysis:
    """Value-range analysis results for one kernel."""

    kernel: Kernel
    accesses: List[AccessRange]
    by_instr: Dict[int, AccessRange]

    def access_for(self, instr: Instr) -> Optional[AccessRange]:
        return self.by_instr.get(id(instr))

    def interval_at(self, instr: Instr, reg: VReg) -> Interval:
        """Interval of ``reg`` at the program point of access ``instr``."""
        acc = self.by_instr.get(id(instr))
        return _default(reg) if acc is None else acc.interval_of(reg)


def analyze_ranges(kernel: Kernel) -> RangeAnalysis:
    """Run the interval interpreter over one kernel."""
    ev = _Evaluator(kernel)
    accesses = ev.run()
    return RangeAnalysis(
        kernel=kernel,
        accesses=accesses,
        by_instr={id(a.instr): a for a in accesses},
    )


# ---------------------------------------------------------------------------
# Fault-transfer widths (logical-masking proofs)
# ---------------------------------------------------------------------------

#: A corrupted value whose downstream influence is at most this many bits
#: is treated as logically masked (not-ACE) by the vulnerability analysis:
#: it matches the width of a hardware-masked shift count, the narrowest
#: structure the paper's SoR argument ever leaves unprotected.
MASK_BITS = 5


def _popcount32(v: int) -> int:
    return bin(v & 0xFFFFFFFF).count("1")


def _const_arm(reg: VReg, const_of: Dict[int, int]) -> Optional[int]:
    v = const_of.get(id(reg))
    return v if isinstance(v, int) and v >= 0 else None


def _clamp_width(bound: int, arm: int) -> int:
    return max(bound, arm).bit_length()


def fault_transfer_width(
    instr: Instr,
    src: VReg,
    const_of: Dict[int, int],
    pred_defs: Optional[Dict[int, Cmp]] = None,
) -> int:
    """Bits of ``instr``'s result a corrupted ``src`` operand can influence.

    Returns an upper bound in ``0..32``.  ``const_of`` maps ``id(reg)`` of
    single-definition registers to their known integer constant;
    ``pred_defs`` maps ``id(pred reg)`` to its unique defining :class:`Cmp`.
    The proved narrowings are exactly the paper's logical-masking idioms:

    * ``and`` with a constant mask — popcount of the mask;
    * ``min`` with a non-negative constant ``C`` — ``C.bit_length()``
      (the corrupted value can only lower the result or pin it at ``C``);
    * ``rem`` by a constant divisor ``C > 0`` on the dividend side —
      ``(C - 1).bit_length()``;
    * the *count* operand of a shift — the machine reads 5 bits;
    * compare-then-clamp ``Select`` idioms (``p = lt(x, K); select(p, x,
      K)`` and its ``gt``/``ge`` mirror), for both the data operand and
      the predicate operand — flipping either still yields a value
      bounded by the clamp constants.

    Everything else conservatively transfers the full 32 bits.
    """
    pred_defs = pred_defs or {}
    if isinstance(instr, Alu) and instr.b is not None:
        op = instr.op
        other = instr.b if instr.a is src else instr.a
        if op == "and":
            mask = const_of.get(id(other))
            if isinstance(mask, int):
                return _popcount32(mask)
        elif op == "min":
            c = _const_arm(other, const_of)
            if c is not None:
                return min(32, c.bit_length())
        elif op == "rem" and instr.a is src:
            c = const_of.get(id(instr.b))
            if isinstance(c, int) and c > 0:
                return min(32, (c - 1).bit_length())
        elif op in ("shl", "shr", "ashr") and instr.b is src and instr.a is not src:
            return MASK_BITS
        return 32
    if isinstance(instr, Select):
        width = _select_clamp_width(instr, src, const_of, pred_defs)
        if width is not None:
            return width
    return 32


def _select_clamp_width(
    instr: Select,
    src: VReg,
    const_of: Dict[int, int],
    pred_defs: Dict[int, Cmp],
) -> Optional[int]:
    """Width through a compare-then-clamp ``Select``, or ``None``."""
    cmp = pred_defs.get(id(instr.pred))
    if cmp is None:
        return None
    # Canonical clamp: p = lt/le(x, K); select(p, x, K') — true keeps x
    # (already bounded by K), false yields the constant arm.
    if cmp.op in ("lt", "le"):
        bound = _const_arm(cmp.b, const_of)
        arm = _const_arm(instr.b, const_of)
        if bound is not None and arm is not None and cmp.a is instr.a:
            if src is instr.a or src is instr.pred:
                return min(32, _clamp_width(bound, arm))
    # Mirror: p = gt/ge(x, K); select(p, K', x).
    if cmp.op in ("gt", "ge"):
        bound = _const_arm(cmp.b, const_of)
        arm = _const_arm(instr.a, const_of)
        if bound is not None and arm is not None and cmp.a is instr.b:
            if src is instr.b or src is instr.pred:
                return min(32, _clamp_width(bound, arm))
    # Degenerate: both value arms constant — the pred can only pick
    # between two known-bounded values.
    if src is instr.pred:
        a = _const_arm(instr.a, const_of)
        b = _const_arm(instr.b, const_of)
        if a is not None and b is not None:
            return min(32, max(a, b).bit_length())
    return None
