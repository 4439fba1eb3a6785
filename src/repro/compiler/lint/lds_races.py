"""LDS race detector.

Flags ``StoreLocal``/``LoadLocal`` pairs that can touch the same LDS
element from different work-items with no intervening barrier.  Three
ingredients:

1. **Barrier intervals** from the dataflow framework: two accesses can
   only be interleaved by different wavefronts if some "last barrier"
   state is common to both.
2. **Symbolic index evaluation** (:mod:`.symbolic`): each access's index
   is abstracted as an affine expression over thread symbols (raw local
   IDs, the halved pair ID, the replica parity bit) and opaque uniform
   symbols, with branch/loop guards collected as linear constraints.
3. **A conflict prover** that understands the RMT invariants — replica
   halves under Intra-Group +LDS are private per parity, a redundant
   pair occupies adjacent lanes of one wavefront (lockstep, hence never
   racing), and work-groups of at most one wavefront cannot race at all.

Provable conflicts come with a concrete two-work-item witness and are
errors; indices the abstraction cannot see through (data-dependent
scatters) are reported as warnings only, so they do not fail compilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...ir.core import (
    Alu,
    Cmp,
    Const,
    If,
    Instr,
    LoadLocal,
    LoadParam,
    LocalAlloc,
    PredOp,
    SpecialId,
    Stmt,
    StoreLocal,
    VReg,
    While,
)
from ...ir.types import DType
from ..analysis.dataflow import barrier_free_path
from ..analysis.sparse_env import MISSING, SparseEnv
from .diagnostics import ERROR, WARNING, Diagnostic
from .engine import WAVEFRONT, LintContext
from .symbolic import (
    HID,
    PAR,
    RACE,
    SAFE,
    Affine,
    Constraint,
    ThreadModel,
    classify_conflict,
    lid_sym,
    negate_op,
)

_CHECKER = "lds-race"

#: Compiler-internal LDS (RMT communication/broadcast buffers) keeps this
#: prefix; it is analyzed like any other allocation — the prover's
#: lockstep-pair and pinning rules discharge it without special-casing.
_RMT_PREFIX = "__rmt_"


@dataclass
class _Access:
    instr: Instr
    alloc: LocalAlloc
    is_store: bool
    expr: Optional[Affine]
    guards: Tuple[Constraint, ...]


# ---------------------------------------------------------------------------
# Abstract evaluator
# ---------------------------------------------------------------------------

_AFFINE_INT = (DType.U32, DType.I32)


class _Evaluator:
    """Structured walk computing affine index expressions per access.

    Loops are handled by widening: registers mutated anywhere in a loop
    are replaced with fresh opaque symbols (uniform ones when the
    uniformity analysis proves them wavefront-uniform) before a final
    recording pass, so all facts hold for *every* iteration.  When the
    10-iteration cap is reached first, every register the loop wrote
    is widened.  Joins are sparse (:mod:`..analysis.sparse_env`).
    """

    def __init__(self, ctx: LintContext):
        self.ctx = ctx
        #: affine values (``env``) and predicate trees (``penv``) by id(reg)
        self.s = SparseEnv()
        self.regs: Dict[int, VReg] = {}
        self.nonneg: Dict[Tuple, bool] = {}
        self.accesses: List[_Access] = []
        self._opaque_counter = 0
        ls = ctx.local_size
        self.local_size = ls

    # -- symbols -----------------------------------------------------------

    def _opaque(self, reg: VReg) -> Optional[Affine]:
        """Fresh symbol for a value we cannot see through."""
        if not self.ctx.uniformity.is_uniform(reg):
            return None  # varies per work-item: unknown (TOP)
        self._opaque_counter += 1
        key = ("u", id(reg), self._opaque_counter)
        self.nonneg[key] = reg.dtype is DType.U32
        return Affine.sym(key)

    def _named_uniform(self, key: Tuple, nonneg: bool = True) -> Affine:
        self.nonneg[key] = nonneg
        return Affine.sym(key)

    def _forget(self, rids) -> None:
        """Replace each register's value with a fresh opaque symbol."""
        for rid in rids:
            reg = self.regs.get(rid)
            self.s.set(rid, self._opaque(reg) if reg is not None else None)
            self.s.set_pred(rid, None)

    # -- driver ------------------------------------------------------------

    def run(self) -> List[_Access]:
        self._eval_body(self.ctx.kernel.body, (), record=True)
        return self.accesses

    def _eval_body(
        self, body: List[Stmt], guards: Tuple[Constraint, ...], record: bool
    ) -> None:
        for stmt in body:
            if isinstance(stmt, If):
                self._eval_if(stmt, guards, record)
            elif isinstance(stmt, While):
                self._eval_while(stmt, guards, record)
            else:
                self._eval_instr(stmt, guards, record)

    def _eval_if(self, stmt: If, guards: Tuple[Constraint, ...], record: bool) -> None:
        s = self.s
        then_g = guards + tuple(self._prims(s.penv.get(id(stmt.cond)), True))
        else_g = guards + tuple(self._prims(s.penv.get(id(stmt.cond)), False))
        outer = s.open()
        self._eval_body(stmt.then_body, then_g, record)
        then_log = s.close(outer)
        then_vals = {rid: (s.env.get(rid), s.penv.get(rid)) for rid in then_log}
        s.undo(then_log)
        s.open()
        self._eval_body(stmt.else_body, else_g, record)
        else_log = s.close(outer)

        def aeq(x: Optional[Affine], y: Optional[Affine]) -> bool:
            return x is y or (
                x is not None and y is not None and x == y
            )

        # Join: keep values the arms agree on; a register assigned in only
        # one arm keeps that arm's value (its uses are themselves guarded —
        # the undef checker owns the unguarded-use case); disagreeing
        # reassignments widen to an opaque symbol.  Only registers an arm
        # wrote can disagree.
        env, penv = s.env, s.penv
        for rid in then_log.keys() | else_log.keys():
            pre, pre_p = s.entry(rid, then_log, else_log)
            tv, tp = then_vals.get(rid) or (pre, pre_p)
            ev = env.get(rid)
            if aeq(tv, ev):
                env[rid] = tv
            elif aeq(ev, pre):
                env[rid] = tv
            elif aeq(tv, pre):
                env[rid] = ev
            else:
                reg = self.regs.get(rid)
                env[rid] = self._opaque(reg) if reg is not None else None
            if penv.get(rid) is not tp:
                penv[rid] = None

    def _eval_while(
        self, stmt: While, guards: Tuple[Constraint, ...], record: bool
    ) -> None:
        s = self.s
        outer = s.open()  # collects every register the loop writes
        env, penv = s.env, s.penv
        widened: set = set()
        for _ in range(10):
            loop_log = s.open()
            self._eval_body(stmt.cond_block, guards, record=False)
            body_g = guards + tuple(self._prims(penv.get(id(stmt.cond)), True))
            self._eval_body(stmt.body, body_g, record=False)
            # Only what this iteration wrote can have changed.
            it_log = s.close(loop_log)
            changed = set()
            for rid, (old, old_p) in it_log.items():
                if rid in env:
                    val = env[rid]
                    if old is MISSING or (old is not val and old != val):
                        changed.add(rid)
                if (None if old_p is MISSING else old_p) is not penv.get(rid):
                    changed.add(rid)
            s.undo(it_log)
            if changed <= widened:
                break
            widened |= changed
            self._forget(widened)
        else:
            # No fixpoint within the cap: a register the loop writes may
            # still be moving, so every one of them becomes opaque.
            widened |= s.log.keys()
            self._forget(widened)
        # Final recording pass over the widened state.
        self._eval_body(stmt.cond_block, guards, record)
        body_g = guards + tuple(self._prims(penv.get(id(stmt.cond)), True))
        self._eval_body(stmt.body, body_g, record)
        # Post-loop state: anything loop-mutated is unknown again.
        self._forget(widened)
        s.close(outer)

    # -- instructions ------------------------------------------------------

    def _note(self, reg: VReg) -> None:
        self.regs[id(reg)] = reg

    def _eval_instr(
        self, instr: Instr, guards: Tuple[Constraint, ...], record: bool
    ) -> None:
        for r in (*instr.dests(), *instr.sources()):
            self._note(r)

        env = self.s.env
        if isinstance(instr, (StoreLocal, LoadLocal)) and record:
            self.accesses.append(
                _Access(
                    instr=instr,
                    alloc=instr.lds,
                    is_store=isinstance(instr, StoreLocal),
                    expr=env.get(id(instr.index)),
                    guards=guards,
                )
            )

        dests = instr.dests()
        if not dests:
            return
        dst = dests[0]
        rid = id(dst)

        if isinstance(instr, Cmp):
            a = env.get(id(instr.a))
            b = env.get(id(instr.b))
            self.s.set_pred(rid, (
                ("cmp", instr.op, a, b) if a is not None and b is not None else None
            ))
            self.s.set(rid, None)
            return
        if isinstance(instr, PredOp):
            penv = self.s.penv
            a = penv.get(id(instr.a))
            b = penv.get(id(instr.b)) if instr.b is not None else None
            self.s.set_pred(rid, (instr.op, a, b))
            self.s.set(rid, None)
            return

        self.s.set(rid, self._eval_value(instr, dst))
        if isinstance(instr, Alu) and instr.op == "mov":
            # Predicate moves forward the predicate tree too.
            self.s.set_pred(rid, self.s.penv.get(id(instr.a)))
        else:
            self.s.set_pred(rid, None)

    def _eval_value(self, instr: Instr, dst: VReg) -> Optional[Affine]:
        if isinstance(instr, Const):
            if dst.dtype in _AFFINE_INT and isinstance(
                instr.value, (int, bool, np.integer)
            ):
                return Affine.constant(int(instr.value))
            return self._opaque(dst)
        if isinstance(instr, LoadParam):
            return self._named_uniform(
                ("param", instr.param.name), nonneg=dst.dtype is DType.U32
            )
        if isinstance(instr, SpecialId):
            return self._special(instr)
        if isinstance(instr, Alu):
            return self._alu(instr, dst)
        return self._opaque(dst)

    def _special(self, instr: SpecialId) -> Optional[Affine]:
        kind, dim = instr.kind, instr.dim
        ls = self.local_size
        if kind == "local_id":
            return Affine.sym(lid_sym(dim))
        if kind == "local_size":
            if ls is not None:
                return Affine.constant(ls[dim])
            return self._named_uniform(("sid", kind, dim))
        if kind == "global_id":
            # global_id = group_id * local_size + local_id; with a known
            # local size the group term stays exact, which is what lets
            # parity/half extraction (& 1, >> 1) see through it.
            lid = Affine.sym(lid_sym(dim))
            if ls is not None:
                grp = self._named_uniform(("sid", "group_id", dim))
                return lid.add(grp.scale(ls[dim]))
            return lid.add(self._named_uniform(("gbase", dim)))
        return self._named_uniform(("sid", kind, dim))

    def _alu(self, instr: Alu, dst: VReg) -> Optional[Affine]:
        op = instr.op
        env = self.s.env
        a = env.get(id(instr.a))
        if op in ("mov", "bitcast_u32", "bitcast_i32"):
            if op != "mov" and instr.a.dtype not in _AFFINE_INT:
                return self._opaque(dst)
            return a if a is not None else self._opaque(dst)
        if instr.b is None:
            if op == "neg" and a is not None:
                return a.scale(-1)
            return self._opaque(dst)
        b = env.get(id(instr.b))
        if a is None or b is None:
            return self._opaque(dst)
        if op == "add":
            return a.add(b)
        if op == "sub":
            return a.sub(b)
        if op == "mul":
            if b.is_const():
                return a.scale(b.const)
            if a.is_const():
                return b.scale(a.const)
            if not a.thread_terms() and not b.thread_terms():
                return self._opaque(dst)
            return None
        # The engine masks shift counts with `& 31` (hardware semantics);
        # mirror that here — a raw negative count would throw in Python.
        if op == "shl" and b.is_const():
            return a.scale(1 << (b.const & 31))
        if op == "shr" and b.is_const():
            return self._shr(a, b.const & 31, dst)
        if op == "and" and (b.is_const() and b.const == 1 or a.is_const() and a.const == 1):
            other = a if (b.is_const() and b.const == 1) else b
            return self._low_bit(other, dst)
        return self._opaque(dst)

    def _shr(self, a: Affine, k: int, dst: VReg) -> Optional[Affine]:
        if a.is_const() and a.const >= 0:
            return Affine.constant(a.const >> k)
        if not a.thread_terms():
            return self._opaque(dst)
        # The pair-ID halving: (lid0 + even·uniform) >> 1 = (lid0 >> 1) +
        # half the uniform part — exact because lid0 < local_size keeps the
        # sum carry-free.
        tt = a.thread_terms()
        if k == 1 and tt == {lid_sym(0): 1}:
            rest = a.drop(lid_sym(0))
            if rest.const % 2 == 0 and all(c % 2 == 0 for c in rest.terms.values()):
                halved = Affine(
                    {s: c // 2 for s, c in rest.terms.items()}, rest.const // 2
                )
                return Affine.sym(HID).add(halved)
        return None

    def _low_bit(self, a: Affine, dst: VReg) -> Optional[Affine]:
        if a.is_const():
            return Affine.constant(a.const & 1)
        if not a.thread_terms():
            return self._opaque(dst)
        tt = a.thread_terms()
        if tt == {lid_sym(0): 1}:
            rest = a.drop(lid_sym(0))
            if rest.const % 2 == 0 and all(c % 2 == 0 for c in rest.terms.values()):
                return Affine.sym(PAR)
        return None

    # -- predicates --------------------------------------------------------

    def _prims(self, pred, polarity: bool) -> List[Constraint]:
        """Conjunctive linear facts implied by a predicate's truth value."""
        if pred is None:
            return []
        kind = pred[0]
        if kind == "cmp":
            _, op, a, b = pred
            if a is None or b is None:
                return []
            if not polarity:
                op = negate_op(op)
            return [(op, a.sub(b))]
        if kind == "and":
            _, p, q = pred
            if polarity:
                return self._prims(p, True) + self._prims(q, True)
            return []  # ¬(p ∧ q) is a disjunction: no conjunctive fact
        if kind == "or":
            _, p, q = pred
            if not polarity:
                return self._prims(p, False) + self._prims(q, False)
            return []
        if kind == "not":
            return self._prims(pred[1], not polarity)
        return []


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------


def _fmt_expr(expr: Optional[Affine]) -> str:
    return "<unknown>" if expr is None else repr(expr)


def check_lds_races(ctx: LintContext) -> List[Diagnostic]:
    kernel = ctx.kernel
    if not kernel.locals:
        return []
    ev = _Evaluator(ctx)
    accesses = ev.run()
    if not accesses:
        return []

    model = ThreadModel(
        local_size=ctx.local_size, wavefront=WAVEFRONT, nonneg=ev.nonneg
    )
    rmt = kernel.metadata.get("rmt") or {}
    lds_doubled = rmt.get("flavor") == "intra" and rmt.get("include_lds", False)

    by_alloc: Dict[str, List[_Access]] = {}
    for acc in accesses:
        by_alloc.setdefault(acc.alloc.name, []).append(acc)

    diags: List[Diagnostic] = []
    reported = set()
    for name, accs in by_alloc.items():
        replica_half = None
        if lds_doubled and not name.startswith(_RMT_PREFIX):
            replica_half = accs[0].alloc.nelems // 2
        for i, a in enumerate(accs):
            for b in accs[i:]:
                if not (a.is_store or b.is_store):
                    continue
                if not ctx.intervals.may_share_interval(a.instr, b.instr):
                    continue
                if not (
                    barrier_free_path(ctx.cfg, a.instr, b.instr)
                    or barrier_free_path(ctx.cfg, b.instr, a.instr)
                ):
                    # Every execution order crosses a barrier: the loop
                    # store / post-loop read pattern.
                    continue
                store, other = (a, b) if a.is_store else (b, a)
                verdict, detail = classify_conflict(
                    model,
                    store.expr,
                    store.guards,
                    other.expr,
                    other.guards,
                    replica_half=replica_half,
                )
                if verdict == SAFE:
                    continue
                key = (id(a.instr), id(b.instr))
                if key in reported:
                    continue
                reported.add(key)
                what = "store" if other.is_store else "load"
                where = (
                    f"store {name}[{_fmt_expr(store.expr)}] at "
                    f"{ctx.loc(store.instr)} vs {what} "
                    f"{name}[{_fmt_expr(other.expr)}] at {ctx.loc(other.instr)} "
                    "with no intervening barrier"
                )
                if verdict == RACE:
                    wa, wb = detail
                    diags.append(
                        ctx.diag(
                            _CHECKER,
                            ERROR,
                            store.instr,
                            f"LDS race: {where}; witness: work-items "
                            f"{wa} and {wb} collide across wavefronts",
                        )
                    )
                else:
                    diags.append(
                        ctx.diag(
                            _CHECKER,
                            WARNING,
                            store.instr,
                            f"possible LDS race: {where} ({detail})",
                        )
                    )
    return diags
