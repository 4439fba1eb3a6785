"""Per-compile translation validation of the RMT transformations.

``validate_compile(original, transformed)`` discharges the obligation
list of :mod:`repro.compiler.tv.obligations` for one concrete kernel
pair, in the style of Alive2: rather than trusting the pass, every
compile carries its own proof.  The checks are purely structural and
static — no execution — and build on three facts about this pipeline:

* the pass manager clones statements but **shares register objects**
  between the original and transformed kernels, and the cleanup
  optimizer rewrites definitions (never uses), so a transformed operand
  that descends from original computation is *literally* an original
  register object reachable through a transformed-side copy chain;
* the RMT passes re-emit sphere-of-replication exits (stores, atomics)
  in original program order, so user effects correspond 1:1 by walk
  position;
* replica-divergent values are only ever derived from the parity of the
  replica-identity source, which the pair-value lattice of
  :mod:`repro.compiler.tv.uniform` tracks precisely.

Obligations that hinge on interval reasoning (+LDS disjointness) lean on
:mod:`repro.compiler.analysis.ranges`; when an index cannot be bounded
the obligation degrades to ``unproven`` — never to a spurious rejection.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ...ir.core import (
    Alu,
    AtomicGlobal,
    Barrier,
    If,
    Instr,
    Kernel,
    LoadLocal,
    ReportError,
    Stmt,
    StoreGlobal,
    StoreLocal,
    VReg,
    While,
    walk_instrs,
)
from ..lint.engine import LintContext
from ..lint.diagnostics import ERROR
from ..lint.sor_coverage import (
    _COPY_OPS,
    _Defs,
    _has_replica_offset,
    check_sor_coverage,
)
from .obligations import FAILED, OBLIGATIONS, UNPROVEN, TvError, TvReport, TvWitness
from .uniform import PAR, TAINT, PairValueAnalysis

_RMT_PREFIX = "__rmt_"

#: What each harness variant must have produced (flavor, include_lds,
#: fast_comm); ``None`` entries are unconstrained, a ``None`` value means
#: the variant performs no RMT transformation at all.
_VARIANT_EXPECT: Dict[str, Optional[Tuple]] = {
    "original": None,
    "intra+lds": ("intra", True, False),
    "intra-lds": ("intra", False, False),
    "intra+lds_fast": ("intra", True, True),
    "intra-lds_fast": ("intra", False, True),
    "inter": ("inter", None, None),
}

#: Guard context: innermost-last tuple of (condition register, "if" |
#: "while").  A while condition guards both its cond_block and body —
#: replicas disagreeing on it would disagree on iteration *count*.
Guards = Tuple[Tuple[VReg, str], ...]


def _norm_shape(value) -> Optional[Tuple[int, int, int]]:
    if value is None:
        return None
    if isinstance(value, int):
        value = (value, 1, 1)
    v = tuple(int(x) for x in value) + (1, 1)
    return v[:3]


def _describe(instr: Instr) -> str:
    if isinstance(instr, StoreGlobal):
        return f"store_global {instr.buf.name}"
    if isinstance(instr, AtomicGlobal):
        return f"atomic_{instr.op} {instr.buf.name}"
    if isinstance(instr, StoreLocal):
        return f"store_local {instr.lds.name}"
    if isinstance(instr, LoadLocal):
        return f"load_local {instr.lds.name}"
    if isinstance(instr, ReportError):
        return f"report_error({instr.code})"
    if isinstance(instr, Barrier):
        return "barrier"
    return type(instr).__name__.lower()


class _Shape:
    """Program-order skeleton of one kernel: the ordered barrier/effect
    stream, the control conditions, and every leaf instruction with its
    guard context."""

    def __init__(self, kernel: Kernel, identity: bool):
        self.events: List[Tuple[str, Instr, Guards]] = []  # 'barrier'|'effect'
        self.conds: List[Tuple[VReg, str]] = []
        self.leaves: List[Tuple[Instr, Guards]] = []
        self.guards_of: Dict[int, Guards] = {}
        self._identity = identity
        self._walk(kernel.body, ())

    def _walk(self, body: Sequence[Stmt], guards: Guards) -> None:
        for stmt in body:
            if isinstance(stmt, If):
                self.conds.append((stmt.cond, "if"))
                inner = guards + ((stmt.cond, "if"),)
                self._walk(stmt.then_body, inner)
                self._walk(stmt.else_body, inner)
            elif isinstance(stmt, While):
                self.conds.append((stmt.cond, "while"))
                inner = guards + ((stmt.cond, "while"),)
                self._walk(stmt.cond_block, inner)
                self._walk(stmt.body, inner)
            else:
                self.guards_of[id(stmt)] = guards
                self.leaves.append((stmt, guards))
                if isinstance(stmt, Barrier):
                    self.events.append(("barrier", stmt, guards))
                elif self._is_user_effect(stmt):
                    self.events.append(("effect", stmt, guards))

    def _is_user_effect(self, stmt: Instr) -> bool:
        if isinstance(stmt, (StoreGlobal, AtomicGlobal)):
            return not stmt.buf.name.startswith(_RMT_PREFIX)
        if isinstance(stmt, StoreLocal):
            return not stmt.lds.name.startswith(_RMT_PREFIX)
        if isinstance(stmt, ReportError):
            # Pass-inserted mismatch handlers are legitimate new
            # report_errors under RMT; under an identity compile any new
            # one is a planted cry-wolf.
            return self._identity
        return False

    @property
    def effects(self) -> List[Tuple[Instr, Guards]]:
        return [(i, g) for kind, i, g in self.events if kind == "effect"]


class _Validator:
    def __init__(
        self,
        original: Kernel,
        transformed: Kernel,
        variant: Optional[str],
        context: Optional[LintContext] = None,
    ):
        self.original = original
        self.transformed = transformed
        self.variant = variant
        self.ctxO = LintContext(original)
        self.ctxT = context if context is not None else LintContext(transformed)
        self.rmt = transformed.metadata.get("rmt") or None
        self.mode = self.rmt.get("flavor") if self.rmt else "identity"
        self.include_lds = bool(self.rmt.get("include_lds")) if self.rmt else False
        self.defsO = _Defs(original)
        self.defsT = _Defs(transformed)
        self.orig_regs = self._collect_orig_regs()
        identity = self.mode == "identity"
        self.shapeO = _Shape(original, identity)
        self.shapeT = _Shape(transformed, identity)
        self.pairs: Optional[PairValueAnalysis] = None
        if self.mode in ("intra", "inter"):
            self.pairs = PairValueAnalysis(transformed, self.mode, self.defsT)
        self.report = TvReport(
            original=original.name,
            transformed=transformed.name,
            variant=variant,
            mode=self.mode,
            obligations={name: "proved" for name in OBLIGATIONS},
        )

    def _collect_orig_regs(self) -> set:
        regs = set()
        for instr in walk_instrs(self.original.body):
            for r in instr.dests():
                regs.add(id(r))
            for r in instr.sources():
                regs.add(id(r))
        return regs

    # -- witness plumbing ---------------------------------------------------

    def _witness(
        self,
        obligation: str,
        status: str,
        message: str,
        instr: Optional[Instr] = None,
        original: Optional[Instr] = None,
        loc: Optional[str] = None,
    ) -> None:
        self.report.witnesses.append(TvWitness(
            obligation=obligation,
            status=status,
            kernel=self.transformed.name,
            loc=loc if loc is not None else (
                self.ctxT.loc(instr) if instr is not None else "<kernel>"),
            message=message,
            original_loc=self.ctxO.loc(original) if original is not None else "",
        ))
        current = self.report.obligations[obligation]
        if status == FAILED or current == "proved":
            self.report.obligations[obligation] = status

    def _skip(self, obligation: str) -> None:
        self.report.obligations[obligation] = "skipped"

    def _guard_flaw(self, guards: Guards) -> Optional[str]:
        """FAILED if some guard is provably replica-divergent (parity),
        UNPROVEN if some guard cannot be classified, else None."""
        assert self.pairs is not None
        worst = None
        for reg, _kind in guards:
            c = self.pairs.of(reg)
            if c == PAR:
                return FAILED
            if c == TAINT:
                worst = UNPROVEN
        return worst

    # -- anchors ------------------------------------------------------------

    def _anchor_t(self, reg: Optional[VReg]) -> Optional[VReg]:
        """Resolve a transformed-side operand to its original-kernel root:
        strip transformed copy chains down to an original register, then
        follow the *original* definition chain (the optimizer rewrites
        defs, never uses, so this sees through CSE/folding)."""
        if reg is None:
            return None
        cur = reg
        for _ in range(64):
            if id(cur) in self.orig_regs:
                root, _ = self.defsO.resolve(cur)
                return root
            d = self.defsT.single(cur)
            if isinstance(d, Alu) and d.op in _COPY_OPS and d.b is None:
                cur = d.a
                continue
            return None
        return None

    def _anchor_o(self, reg: Optional[VReg]) -> Optional[VReg]:
        if reg is None:
            return None
        root, _ = self.defsO.resolve(reg)
        return root

    # -- the obligations ----------------------------------------------------

    def run(self) -> TvReport:
        self._check_metadata()
        self._check_control_skeleton()
        self._check_effects()
        self._check_barriers()
        self._check_output_comparison()
        self._check_atomic_forwarding()
        self._check_replica_completeness()
        self._check_lds_disjointness()
        return self.report

    # metadata ---------------------------------------------------------------

    def _check_metadata(self) -> None:
        ob = "metadata"
        meta_loc = "<metadata>"
        expect = _VARIANT_EXPECT.get(self.variant) if self.variant else None
        if self.variant in _VARIANT_EXPECT:
            if expect is None and self.rmt is not None:
                self._witness(ob, FAILED, loc=meta_loc, message=(
                    f"variant {self.variant!r} must not transform, but the "
                    "kernel carries metadata['rmt']"))
            if expect is not None:
                if self.rmt is None:
                    self._witness(ob, FAILED, loc=meta_loc, message=(
                        f"variant {self.variant!r} requires an RMT transform "
                        "but the kernel carries no metadata['rmt']"))
                else:
                    flavor, lds, fast = expect
                    if self.rmt.get("flavor") != flavor:
                        self._witness(ob, FAILED, loc=meta_loc, message=(
                            f"variant {self.variant!r} expects flavor "
                            f"{flavor!r}, got {self.rmt.get('flavor')!r}"))
                    if lds is not None and bool(
                            self.rmt.get("include_lds")) is not lds:
                        self._witness(ob, FAILED, loc=meta_loc, message=(
                            f"variant {self.variant!r} expects include_lds="
                            f"{lds}, got {self.rmt.get('include_lds')!r}"))
                    if fast is not None and bool(
                            self.rmt.get("fast_comm")) is not fast:
                        self._witness(ob, FAILED, loc=meta_loc, message=(
                            f"variant {self.variant!r} expects fast_comm="
                            f"{fast}, got {self.rmt.get('fast_comm')!r}"))

        lsO = _norm_shape(self.original.metadata.get("local_size"))
        lsT = _norm_shape(self.transformed.metadata.get("local_size"))
        gsO = _norm_shape(self.original.metadata.get("global_size"))
        gsT = _norm_shape(self.transformed.metadata.get("global_size"))
        if self.mode == "intra":
            if lsO is not None:
                want = (lsO[0] * 2, lsO[1], lsO[2])
                if lsT != want:
                    self._witness(ob, FAILED, loc=meta_loc, message=(
                        "Intra-Group RMT must double local_size along dim 0: "
                        f"expected {want}, got {lsT}"))
            if gsO is not None:
                want = (gsO[0] * 2, gsO[1], gsO[2])
                if gsT != want:
                    self._witness(ob, FAILED, loc=meta_loc, message=(
                        "Intra-Group RMT must double global_size along dim 0: "
                        f"expected {want}, got {gsT}"))
        elif self.mode == "inter":
            if lsO is not None and lsT != lsO:
                self._witness(ob, FAILED, loc=meta_loc, message=(
                    "Inter-Group RMT must leave local_size unchanged: "
                    f"expected {lsO}, got {lsT}"))
            if gsO is not None:
                want = (gsO[0] * 2, gsO[1], gsO[2])
                if gsT != want:
                    self._witness(ob, FAILED, loc=meta_loc, message=(
                        "Inter-Group RMT must double global_size along dim 0 "
                        f"(doubled groups): expected {want}, got {gsT}"))
        else:
            if lsT != lsO:
                self._witness(ob, FAILED, loc=meta_loc, message=(
                    f"identity compile changed local_size: {lsO} -> {lsT}"))
            if gsT != gsO:
                self._witness(ob, FAILED, loc=meta_loc, message=(
                    f"identity compile changed global_size: {gsO} -> {gsT}"))

    # control skeleton -------------------------------------------------------

    def _cond_loc(self, reg: VReg) -> Optional[Instr]:
        return self.defsT.single(reg)

    def _check_control_skeleton(self) -> None:
        ob = "control-skeleton"
        o_counts = Counter(id(reg) for reg, _ in self.shapeO.conds)
        t_counts: Counter = Counter()
        for reg, kind in self.shapeT.conds:
            if id(reg) in self.orig_regs:
                t_counts[id(reg)] += 1
                if o_counts[id(reg)] == 0:
                    self._witness(
                        ob, FAILED, instr=self._cond_loc(reg),
                        message=(f"transformed {kind} tests original register "
                                 f"{reg!r}, which guards no control flow in "
                                 "the original kernel"))
                elif t_counts[id(reg)] > o_counts[id(reg)]:
                    self._witness(
                        ob, FAILED, instr=self._cond_loc(reg),
                        message=(f"original condition {reg!r} guards more "
                                 f"{kind}s in the transformed kernel than in "
                                 "the original (duplicated control flow)"))
            elif self.mode == "identity":
                self._witness(
                    ob, FAILED, instr=self._cond_loc(reg),
                    message=(f"identity compile introduced a new {kind} "
                             f"condition {reg!r} absent from the original "
                             "kernel"))

    # effect correspondence --------------------------------------------------

    def _check_effects(self) -> None:
        ob = "effect-correspondence"
        effO = self.shapeO.effects
        effT = self.shapeT.effects
        for i in range(min(len(effO), len(effT))):
            o, _go = effO[i]
            t, _gt = effT[i]
            self._match_effect(ob, o, t)
        if len(effT) > len(effO):
            extra, _ = effT[len(effO)]
            self._witness(ob, FAILED, instr=extra, message=(
                f"transformed kernel has {len(effT) - len(effO)} extra user "
                f"effect(s), first: {_describe(extra)}"))
        elif len(effO) > len(effT):
            missing, _ = effO[len(effT)]
            self._witness(
                ob, FAILED, original=missing, loc="<end>",
                message=(f"transformed kernel dropped {len(effO) - len(effT)} "
                         f"user effect(s), first: {_describe(missing)}"))

    def _match_effect(self, ob: str, o: Instr, t: Instr) -> None:
        if type(o) is not type(t):
            self._witness(ob, FAILED, instr=t, original=o, message=(
                f"effect kind changed: original {_describe(o)}, "
                f"transformed {_describe(t)}"))
            return
        if isinstance(o, StoreGlobal):
            if o.buf.name != t.buf.name:
                self._witness(ob, FAILED, instr=t, original=o, message=(
                    f"store retargeted: {_describe(o)} became {_describe(t)}"))
                return
            self._match_operand(ob, o, t, "index", o.index, t.index)
            self._match_operand(ob, o, t, "value", o.value, t.value)
        elif isinstance(o, AtomicGlobal):
            if o.buf.name != t.buf.name or o.op != t.op:
                self._witness(ob, FAILED, instr=t, original=o, message=(
                    f"atomic changed: {_describe(o)} became {_describe(t)}"))
                return
            self._match_operand(ob, o, t, "index", o.index, t.index)
            self._match_operand(ob, o, t, "value", o.value, t.value)
            if (o.compare is None) != (t.compare is None):
                self._witness(ob, FAILED, instr=t, original=o, message=(
                    f"{_describe(t)}: compare operand "
                    f"{'dropped' if t.compare is None else 'introduced'}"))
            elif o.compare is not None:
                self._match_operand(ob, o, t, "compare", o.compare, t.compare)
        elif isinstance(o, StoreLocal):
            if o.lds.name != t.lds.name:
                self._witness(ob, FAILED, instr=t, original=o, message=(
                    f"local store retargeted: {_describe(o)} became "
                    f"{_describe(t)}"))
                return
            self._match_operand(ob, o, t, "value", o.value, t.value)
            if self.mode == "intra" and self.include_lds:
                self._match_remapped_index(ob, o, t)
            else:
                self._match_operand(ob, o, t, "index", o.index, t.index)
        elif isinstance(o, ReportError):
            if o.code != t.code:
                self._witness(ob, FAILED, instr=t, original=o, message=(
                    f"report_error code changed: {o.code} -> {t.code}"))

    def _match_operand(
        self, ob: str, o: Instr, t: Instr, which: str,
        o_reg: VReg, t_reg: VReg,
    ) -> None:
        want = self._anchor_o(o_reg)
        got = self._anchor_t(t_reg)
        if got is None:
            self._witness(ob, FAILED, instr=t, original=o, message=(
                f"{_describe(t)}: {which} operand {t_reg!r} does not descend "
                "from any original-kernel value (expected "
                f"{want!r} through copies)"))
        elif got is not want:
            self._witness(ob, FAILED, instr=t, original=o, message=(
                f"{_describe(t)}: {which} operand resolves to {got!r}, but "
                f"the original instruction uses {want!r}"))

    def _match_remapped_index(self, ob: str, o: StoreLocal, t: StoreLocal) -> None:
        """+LDS: transformed index must be ``original_index + parity*half``."""
        half = t.lds.nelems // 2
        if not _has_replica_offset(self.defsT, t.index, half, 0):
            self._witness(ob, FAILED, instr=t, original=o, message=(
                f"{_describe(t)}: index lacks the `parity * {half}` replica "
                "offset required under +LDS"))
            return
        base = self._lds_base(t.index, half)
        if base is None:
            self._witness(ob, UNPROVEN, instr=t, original=o, message=(
                f"{_describe(t)}: cannot isolate the replica-offset base of "
                "the remapped index"))
            return
        self._match_operand(ob, o, t, "index base", o.index, base)

    # barrier alignment ------------------------------------------------------

    @staticmethod
    def _event_tag(kind: str, instr: Instr) -> Tuple:
        if kind == "barrier":
            return ("barrier",)
        return ("effect", type(instr).__name__, _describe(instr))

    def _check_barriers(self) -> None:
        ob = "barrier-alignment"
        evO = list(self.shapeO.events)
        evT = list(self.shapeT.events)
        if self.mode == "inter" and evT and evT[0][0] == "barrier":
            # The ticket-broadcast barrier of the prologue: new, but
            # replica-uniform and before any user effect, so harmless.
            evT = evT[1:]
        for i in range(min(len(evO), len(evT))):
            ko, io, _ = evO[i]
            kt, it, _ = evT[i]
            if self._event_tag(ko, io) != self._event_tag(kt, it):
                self._witness(ob, FAILED, instr=it, original=io, message=(
                    "barrier/effect interleaving diverged: original has "
                    f"{_describe(io)} at position {i}, transformed has "
                    f"{_describe(it)}"))
                break
        else:
            if len(evO) != len(evT):
                self._witness(ob, FAILED, loc="<end>", message=(
                    f"barrier/effect stream length changed: {len(evO)} "
                    f"event(s) originally, {len(evT)} after the transform"))
        if self.pairs is not None:
            for kind, instr, guards in self.shapeT.events:
                if kind != "barrier":
                    continue
                flaw = self._guard_flaw(guards)
                if flaw == FAILED:
                    self._witness(ob, FAILED, instr=instr, message=(
                        "barrier is guarded by a replica-divergent (parity) "
                        "condition: the two replicas would not both reach it"))
                elif flaw == UNPROVEN:
                    self._witness(ob, UNPROVEN, instr=instr, message=(
                        "cannot prove both replicas reach this barrier: a "
                        "guard condition has unknown replica parity"))

    # output comparison ------------------------------------------------------

    def _check_output_comparison(self) -> None:
        ob = "output-comparison"
        if self.mode == "identity":
            self._skip(ob)
            return
        # The compile's lint run has usually checked coverage already.
        diags = self.ctxT.results.get("sor-coverage")
        if diags is None:
            diags = check_sor_coverage(self.ctxT)
        for diag in diags:
            if diag.severity == ERROR:
                self._witness(ob, FAILED, loc=diag.loc, message=diag.message)

    # atomic forwarding ------------------------------------------------------

    def _check_atomic_forwarding(self) -> None:
        ob = "atomic-forwarding"
        if self.mode == "identity":
            self._skip(ob)
            return
        used_in_o = set()
        for instr in walk_instrs(self.original.body):
            for s in instr.sources():
                used_in_o.add(id(s))
        for o, _g in self.shapeO.effects:
            if not isinstance(o, AtomicGlobal) or o.dst is None:
                continue
            if id(o.dst) not in used_in_o:
                continue  # result never observed; DCE may drop forwarding
            defs = self.defsT.by_reg.get(id(o.dst), [])
            if not defs:
                self._witness(ob, UNPROVEN, original=o, loc="<end>", message=(
                    f"result of {_describe(o)} is used by the original kernel "
                    "but never defined in the transformed kernel (forwarding "
                    "eliminated?)"))
                continue
            for d in defs:
                guards = self.shapeT.guards_of.get(id(d), ())
                flaw = self._guard_flaw(guards)
                if flaw == FAILED:
                    self._witness(ob, FAILED, instr=d, original=o, message=(
                        f"forwarded result of {_describe(o)} is defined under "
                        "a replica-divergent guard: one replica would miss it"))
                elif flaw == UNPROVEN:
                    self._witness(ob, UNPROVEN, instr=d, original=o, message=(
                        f"cannot prove both replicas receive the result of "
                        f"{_describe(o)}: a guard has unknown replica parity"))

    # replica completeness ---------------------------------------------------

    def _check_replica_completeness(self) -> None:
        ob = "replica-completeness"
        if self.mode == "identity":
            self._skip(ob)
            return
        partial = bool(self.rmt and self.rmt.get("partial"))
        node_guards = uses_at = None
        if partial:
            node_guards, uses_at = self._node_enclosures()
        for instr, guards in self.shapeT.leaves:
            touched = [d for d in instr.dests() if id(d) in self.orig_regs]
            if not touched:
                continue
            flaw = self._guard_flaw(guards)
            if flaw == FAILED and partial and self._single_replica_ok(
                    instr, touched, node_guards, uses_at):
                continue
            if flaw == FAILED:
                self._witness(ob, FAILED, instr=instr, message=(
                    f"definition of replicated value {touched[0]!r} is "
                    "guarded by a replica-divergent (parity) condition: only "
                    "one replica would compute it"))
            elif flaw == UNPROVEN:
                self._witness(ob, UNPROVEN, instr=instr, message=(
                    f"cannot prove both replicas compute {touched[0]!r}: a "
                    "guard condition has unknown replica parity"))

    def _node_enclosures(self):
        """Node-identity guard chains and per-use enclosures.

        ``Guards`` tuples key by condition *register*, which cannot tell
        two distinct ``If`` statements sharing one condition apart (every
        consumer guard tests the same parity register).  The partial-SoR
        acceptance below needs to know whether a use sits inside one
        specific guard node, so this walk records chains of
        ``(id(node), cond, kind)`` and, for every register, the chain of
        node ids enclosing each of its uses (a control condition counts
        as a use at the node's own position).
        """
        node_guards: Dict[int, Tuple] = {}
        uses_at: Dict[int, List[Tuple[int, ...]]] = {}

        def walk(body: Sequence[Stmt], chain: Tuple) -> None:
            ids = tuple(nid for nid, _cond, _kind in chain)
            for stmt in body:
                if isinstance(stmt, If):
                    uses_at.setdefault(id(stmt.cond), []).append(ids)
                    inner = chain + ((id(stmt), stmt.cond, "if"),)
                    walk(stmt.then_body, inner)
                    walk(stmt.else_body, inner)
                elif isinstance(stmt, While):
                    uses_at.setdefault(id(stmt.cond), []).append(ids)
                    inner = chain + ((id(stmt), stmt.cond, "while"),)
                    walk(stmt.cond_block, inner)
                    walk(stmt.body, inner)
                else:
                    node_guards[id(stmt)] = chain
                    for s in stmt.sources():
                        uses_at.setdefault(id(s), []).append(ids)

        walk(self.transformed.body, ())
        return node_guards, uses_at

    def _single_replica_ok(self, instr, touched, node_guards, uses_at) -> bool:
        """Partial-SoR acceptance for a parity-guarded definition.

        Under a declared partial sphere of replication, the selective
        pass sinks computation feeding only an unprotected exit into
        that exit's consumer guard — a *deliberate* single-replica
        region.  Such a definition is sound iff every parity guard
        above it is an ``If`` (a parity-divergent loop would diverge
        iteration counts) and every use of the defined register stays
        inside that same guard node, so no dual-replica code ever
        observes the single-replica value.
        """
        chain = node_guards.get(id(instr))
        if chain is None or self.pairs is None:
            return False
        par_nodes = [(nid, kind) for nid, cond, kind in chain
                     if self.pairs.of(cond) == PAR]
        if not par_nodes or any(kind != "if" for _nid, kind in par_nodes):
            return False
        for nid, _kind in par_nodes:
            for reg in touched:
                for enclosure in uses_at.get(id(reg), ()):
                    if nid not in enclosure:
                        return False
        return True

    # LDS disjointness -------------------------------------------------------

    def _user_allocs(self, kernel: Kernel) -> Dict[str, int]:
        return {a.name: a.nelems for a in kernel.locals
                if not a.name.startswith(_RMT_PREFIX)}

    def _lds_base(self, index: VReg, half: int) -> Optional[VReg]:
        root, _ = self.defsT.resolve(index)
        d = self.defsT.single(root)
        if isinstance(d, Alu) and d.op == "add" and d.b is not None:
            for off, base in ((d.a, d.b), (d.b, d.a)):
                if self._is_replica_offset_term(off, half):
                    return base
        return None

    def _is_replica_offset_term(self, reg: VReg, half: int) -> bool:
        root, _ = self.defsT.resolve(reg)
        d = self.defsT.single(root)
        if isinstance(d, Alu) and d.op == "mul" and d.b is not None:
            for p, s in ((d.a, d.b), (d.b, d.a)):
                if (self.defsT.is_parity_of_id(p)
                        and self.defsT.const_value(s) == half):
                    return True
        return False

    def _check_lds_disjointness(self) -> None:
        ob = "lds-disjointness"
        allocsO = self._user_allocs(self.original)
        allocsT = self._user_allocs(self.transformed)
        if not (self.mode == "intra" and self.include_lds):
            if allocsT != allocsO:
                self._witness(ob, FAILED, loc="<locals>", message=(
                    f"user LDS allocations changed under {self.mode} "
                    f"(must stay identical): {allocsO} -> {allocsT}"))
            if not allocsO:
                self._skip(ob)
            return

        for name, nelems in allocsT.items():
            want = allocsO.get(name)
            if want is None:
                self._witness(ob, FAILED, loc="<locals>", message=(
                    f"+LDS transform introduced unknown allocation {name!r}"))
            elif nelems != want * 2:
                self._witness(ob, FAILED, loc="<locals>", message=(
                    f"+LDS transform must double allocation {name!r}: "
                    f"expected {want * 2} elements, got {nelems}"))
        for name in allocsO:
            if name not in allocsT:
                self._witness(ob, FAILED, loc="<locals>", message=(
                    f"+LDS transform dropped allocation {name!r}"))

        for instr, _guards in self.shapeT.leaves:
            if not isinstance(instr, (StoreLocal, LoadLocal)):
                continue
            if instr.lds.name.startswith(_RMT_PREFIX):
                continue
            half = instr.lds.nelems // 2
            if not _has_replica_offset(self.defsT, instr.index, half, 0):
                self._witness(ob, FAILED, instr=instr, message=(
                    f"{_describe(instr)}: index lacks the `parity * {half}` "
                    "replica offset, so the two replicas would share one "
                    "copy of the data"))
                continue
            base = self._lds_base(instr.index, half)
            if base is None:
                self._witness(ob, UNPROVEN, instr=instr, message=(
                    f"{_describe(instr)}: cannot isolate the base term of "
                    "the remapped index to bound it"))
                continue
            iv = self.ctxT.ranges.interval_at(instr, base)
            if iv.lo is not None and iv.hi is not None and 0 <= iv.lo and iv.hi < half:
                continue  # base in [0, half): replica halves are disjoint
            if iv.lo is not None and iv.lo >= half:
                self._witness(ob, FAILED, instr=instr, message=(
                    f"{_describe(instr)}: replica base index {iv} lies "
                    f"entirely outside its half [0, {half}): replica 0 "
                    "provably reaches replica 1's copy"))
            else:
                self._witness(ob, UNPROVEN, instr=instr, message=(
                    f"{_describe(instr)}: replica base index {iv} cannot be "
                    f"proved to stay inside [0, {half})"))


def validate_compile(
    original: Kernel,
    transformed: Kernel,
    variant: Optional[str] = None,
    raise_on_failure: bool = True,
    context: Optional[LintContext] = None,
) -> TvReport:
    """Statically certify one compile against the simulation relation.

    Returns the full :class:`TvReport`.  With ``raise_on_failure`` (the
    default), a report containing any ``failed`` witness raises
    :class:`TvError`; ``unproven`` witnesses never raise — they mark the
    compile as not-certified (``report.ok`` is False) without rejecting
    it, so analysis imprecision cannot break a correct build.

    ``context`` is a :class:`~repro.compiler.lint.LintContext` already
    built for ``transformed`` (the compile's lint run); its CFG and
    value ranges are reused instead of recomputed.
    """
    if context is not None and context.kernel is not transformed:
        raise ValueError("validate_compile: context is for another kernel")
    report = _Validator(original, transformed, variant, context).run()
    if raise_on_failure and report.failures:
        raise TvError(report)
    return report
