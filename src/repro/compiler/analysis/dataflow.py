"""Kernel IR dataflow framework: CFG lowering and classic analyses.

The structured IR (:class:`~repro.ir.core.If`/:class:`~repro.ir.core.While`
trees) is convenient for the RMT transformation passes, but the lint
checkers need path-sensitive facts — which definitions reach a use, which
statements a barrier separates, what dominates what.  This module lowers
a kernel body into an explicit control-flow graph and implements the
standard dataflow analyses on it:

* **dominators** — iterative bit-vector dataflow (entry dominates all);
* **reaching definitions** — forward *may* analysis over def sites;
* **liveness** — backward *may* analysis over virtual registers;
* **definite assignment** — forward *must* analysis (the dominance-based
  undefined-register check is built on it);
* **barrier intervals** — forward *may* "last barrier executed" analysis,
  the synchronization skeleton the LDS race detector works from.

Bit sets are Python ints (one bit per block/def/register), which keeps
the fixpoints cheap even for the transformed suite kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ...ir.core import Barrier, If, Instr, Kernel, Stmt, VReg, While

# ---------------------------------------------------------------------------
# Statement locations
# ---------------------------------------------------------------------------


class Loc:
    """Structured-IR path of a statement, for human-readable diagnostics.

    Rendered like ``body[4].then[1].while.body[0]`` — stable across
    clones of the same kernel, unlike ``id()``-based handles.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Tuple[str, ...] = ()):
        self.steps = steps

    def child(self, step: str) -> "Loc":
        return Loc(self.steps + (step,))

    def __str__(self) -> str:
        return ".".join(self.steps) if self.steps else "<entry>"

    def __repr__(self) -> str:
        return f"Loc({self})"


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------


@dataclass
class BasicBlock:
    """Straight-line run of instructions plus an optional condition use.

    ``cond`` (with ``cond_loc``) marks a block whose out-edges are the
    taken/not-taken successors of a structured branch; it is a *use* of
    the register, not an instruction.
    """

    bid: int
    instrs: List[Tuple[Instr, Loc]] = field(default_factory=list)
    cond: Optional[VReg] = None
    cond_loc: Optional[Loc] = None
    preds: List[int] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)


class CFG:
    """Explicit control-flow graph for one kernel body."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.blocks: List[BasicBlock] = []
        self.entry = self._new_block().bid
        exit_of_body = self._lower_body(kernel.body, self.entry, Loc(("body",)))
        self.exit = self._new_block().bid
        self._edge(exit_of_body, self.exit)
        #: id(instr) -> Loc for every lowered instruction.
        self.locs: Dict[int, Loc] = {
            id(instr): loc for b in self.blocks for instr, loc in b.instrs
        }
        self._positions: Optional[Dict[int, Tuple[int, int]]] = None
        self._barriers: Optional[List[List[int]]] = None

    # -- construction -------------------------------------------------------

    def _new_block(self) -> BasicBlock:
        b = BasicBlock(len(self.blocks))
        self.blocks.append(b)
        return b

    def _edge(self, src: int, dst: int) -> None:
        self.blocks[src].succs.append(dst)
        self.blocks[dst].preds.append(src)

    def _lower_body(self, body: Sequence[Stmt], cur: int, loc: Loc) -> int:
        """Append ``body`` starting in block ``cur``; return the exit block."""
        for i, stmt in enumerate(body):
            at = loc.child(f"[{i}]")
            if isinstance(stmt, If):
                head = self.blocks[cur]
                head.cond = stmt.cond
                head.cond_loc = at.child("if")
                then_entry = self._new_block().bid
                self._edge(cur, then_entry)
                then_exit = self._lower_body(stmt.then_body, then_entry, at.child("then"))
                join = self._new_block().bid
                self._edge(then_exit, join)
                if stmt.else_body:
                    else_entry = self._new_block().bid
                    self._edge(cur, else_entry)
                    else_exit = self._lower_body(
                        stmt.else_body, else_entry, at.child("else")
                    )
                    self._edge(else_exit, join)
                else:
                    self._edge(cur, join)
                cur = join
            elif isinstance(stmt, While):
                cond_entry = self._new_block().bid
                self._edge(cur, cond_entry)
                cond_exit = self._lower_body(
                    stmt.cond_block, cond_entry, at.child("cond")
                )
                test = self.blocks[cond_exit]
                test.cond = stmt.cond
                test.cond_loc = at.child("while")
                body_entry = self._new_block().bid
                self._edge(cond_exit, body_entry)
                body_exit = self._lower_body(stmt.body, body_entry, at.child("body"))
                self._edge(body_exit, cond_entry)  # back edge
                after = self._new_block().bid
                self._edge(cond_exit, after)
                cur = after
            else:
                self.blocks[cur].instrs.append((stmt, at))
        return cur

    # -- conveniences --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.blocks)

    def iter_instrs(self) -> Iterator[Tuple[int, Instr, Loc]]:
        """Yield (block id, instruction, location) in block order."""
        for b in self.blocks:
            for instr, loc in b.instrs:
                yield b.bid, instr, loc

    def positions(self) -> Tuple[Dict[int, Tuple[int, int]], List[List[int]]]:
        """``id(instr) -> (block id, index)`` and, per block, the sorted
        indices of its barriers; built on first use."""
        if self._positions is None:
            where: Dict[int, Tuple[int, int]] = {}
            barriers: List[List[int]] = []
            for bid, block in enumerate(self.blocks):
                bars = []
                for idx, (instr, _loc) in enumerate(block.instrs):
                    where[id(instr)] = (bid, idx)
                    if isinstance(instr, Barrier):
                        bars.append(idx)
                barriers.append(bars)
            self._positions, self._barriers = where, barriers
        return self._positions, self._barriers

    def rpo(self) -> List[int]:
        """Reverse postorder from the entry block."""
        seen = [False] * len(self.blocks)
        order: List[int] = []

        stack: List[Tuple[int, int]] = [(self.entry, 0)]
        seen[self.entry] = True
        while stack:
            bid, next_succ = stack[-1]
            succs = self.blocks[bid].succs
            if next_succ < len(succs):
                stack[-1] = (bid, next_succ + 1)
                s = succs[next_succ]
                if not seen[s]:
                    seen[s] = True
                    stack.append((s, 0))
            else:
                order.append(bid)
                stack.pop()
        order.reverse()
        return order


def build_cfg(kernel: Kernel) -> CFG:
    """Lower a kernel's structured body into an explicit CFG."""
    return CFG(kernel)


# ---------------------------------------------------------------------------
# Dominators
# ---------------------------------------------------------------------------


def compute_dominators(cfg: CFG) -> List[int]:
    """Per-block dominator sets as bit masks (bit b => block b dominates).

    Iterative bit-vector formulation: DOM(entry) = {entry};
    DOM(b) = {b} | AND over preds.  Unreachable blocks keep the full set.
    """
    n = len(cfg.blocks)
    full = (1 << n) - 1
    dom = [full] * n
    dom[cfg.entry] = 1 << cfg.entry
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for bid in order:
            if bid == cfg.entry:
                continue
            preds = cfg.blocks[bid].preds
            acc = full
            for p in preds:
                acc &= dom[p]
            acc |= 1 << bid
            if acc != dom[bid]:
                dom[bid] = acc
                changed = True
    return dom


def dominates(dom: List[int], a: int, b: int) -> bool:
    """Does block ``a`` dominate block ``b``?"""
    return bool(dom[b] >> a & 1)


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefSite:
    """One static definition of a register."""

    index: int          # global def-site number (bit position)
    reg: VReg
    instr: Instr
    block: int
    loc: Loc


@dataclass
class ReachingDefs:
    """Reaching-definition sets at block boundaries plus per-use lookup."""

    sites: List[DefSite]
    block_in: List[int]
    block_out: List[int]
    #: id(instr) -> bit mask of def sites reaching just before the instr.
    before_instr: Dict[int, int]
    _by_reg: Dict[int, int]

    def defs_of(self, mask: int, reg: VReg) -> List[DefSite]:
        """Def sites of ``reg`` present in a reaching mask."""
        m = mask & self._by_reg.get(id(reg), 0)
        out = []
        while m:
            low = m & -m
            out.append(self.sites[low.bit_length() - 1])
            m ^= low
        return out

    def reaching(self, instr: Instr, reg: VReg) -> List[DefSite]:
        """Def sites of ``reg`` reaching just before ``instr``."""
        return self.defs_of(self.before_instr.get(id(instr), 0), reg)


def reaching_definitions(cfg: CFG) -> ReachingDefs:
    """Forward may-analysis: which definitions reach each program point."""
    sites: List[DefSite] = []
    by_reg: Dict[int, int] = {}
    gen: List[int] = [0] * len(cfg.blocks)
    kill_regs: List[Set[int]] = [set() for _ in cfg.blocks]
    for bid, instr, loc in cfg.iter_instrs():
        for dst in instr.dests():
            site = DefSite(len(sites), dst, instr, bid, loc)
            sites.append(site)
            by_reg[id(dst)] = by_reg.get(id(dst), 0) | (1 << site.index)

    # Per-block gen/kill: later defs of the same register kill earlier ones.
    site_iter = iter(sites)
    per_block_sites: List[List[DefSite]] = [[] for _ in cfg.blocks]
    for s in site_iter:
        per_block_sites[s.block].append(s)
    for bid, block_sites in enumerate(per_block_sites):
        g = 0
        for s in block_sites:
            g = (g & ~by_reg[id(s.reg)]) | (1 << s.index)
            kill_regs[bid].add(id(s.reg))
        gen[bid] = g

    n = len(cfg.blocks)
    block_in = [0] * n
    block_out = [0] * n
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for bid in order:
            acc = 0
            for p in cfg.blocks[bid].preds:
                acc |= block_out[p]
            kill = 0
            for rid in kill_regs[bid]:
                kill |= by_reg[rid]
            out = (acc & ~kill) | gen[bid]
            if acc != block_in[bid] or out != block_out[bid]:
                block_in[bid] = acc
                block_out[bid] = out
                changed = True

    before_instr: Dict[int, int] = {}
    for b in cfg.blocks:
        cur = block_in[b.bid]
        for instr, _loc in b.instrs:
            before_instr[id(instr)] = cur
            for dst in instr.dests():
                site_mask = by_reg[id(dst)]
                # The def site belonging to *this* instr generates.
                mine = 0
                for s in per_block_sites[b.bid]:
                    if s.instr is instr and s.reg is dst:
                        mine |= 1 << s.index
                cur = (cur & ~site_mask) | mine
    return ReachingDefs(sites, block_in, block_out, before_instr, by_reg)


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------


@dataclass
class Liveness:
    """Live-register sets at block boundaries."""

    regs: List[VReg]
    live_in: List[int]
    live_out: List[int]
    _index: Dict[int, int]

    def regs_in(self, bid: int) -> List[VReg]:
        return self._unpack(self.live_in[bid])

    def regs_out(self, bid: int) -> List[VReg]:
        return self._unpack(self.live_out[bid])

    def max_live(self) -> int:
        """Peak simultaneous live registers over block boundaries."""
        return max(
            (bin(m).count("1") for m in self.live_in + self.live_out), default=0
        )

    def _unpack(self, mask: int) -> List[VReg]:
        out = []
        while mask:
            low = mask & -mask
            out.append(self.regs[low.bit_length() - 1])
            mask ^= low
        return out


def liveness(cfg: CFG) -> Liveness:
    """Backward may-analysis: registers whose values may still be read."""
    regs: List[VReg] = []
    index: Dict[int, int] = {}

    def idx(reg: VReg) -> int:
        i = index.get(id(reg))
        if i is None:
            i = len(regs)
            index[id(reg)] = i
            regs.append(reg)
        return i

    n = len(cfg.blocks)
    use = [0] * n       # upward-exposed uses
    defmask = [0] * n
    for b in cfg.blocks:
        u = d = 0
        for instr, _loc in b.instrs:
            for src in instr.sources():
                bit = 1 << idx(src)
                if not d & bit:
                    u |= bit
            for dst in instr.dests():
                d |= 1 << idx(dst)
        if b.cond is not None:
            bit = 1 << idx(b.cond)
            if not d & bit:
                u |= bit
        use[b.bid] = u
        defmask[b.bid] = d

    live_in = [0] * n
    live_out = [0] * n
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for bid in reversed(order):
            out = 0
            for s in cfg.blocks[bid].succs:
                out |= live_in[s]
            inn = use[bid] | (out & ~defmask[bid])
            if out != live_out[bid] or inn != live_in[bid]:
                live_out[bid] = out
                live_in[bid] = inn
                changed = True
    return Liveness(regs, live_in, live_out, index)


# ---------------------------------------------------------------------------
# Definite assignment (must-defined)
# ---------------------------------------------------------------------------


@dataclass
class DefiniteAssignment:
    """Forward must-analysis results: registers defined on *every* path."""

    regs: List[VReg]
    block_in: List[int]
    _index: Dict[int, int]
    #: (instr id, reg) pairs read before any definition is guaranteed.
    violations: List[Tuple[Instr, VReg, Loc]]
    #: cond-use violations: (block id, reg, loc).
    cond_violations: List[Tuple[int, VReg, Loc]]

    def is_definite_at_entry(self, bid: int, reg: VReg) -> bool:
        i = self._index.get(id(reg))
        return i is not None and bool(self.block_in[bid] >> i & 1)


def definite_assignment(cfg: CFG) -> DefiniteAssignment:
    """Find reads not dominated by a definition on every incoming path.

    This is the precise replacement for the verifier's program-order
    heuristic: a register defined only in one arm of an ``If`` (or only
    in a ``While`` body, which may run zero times) is *not* definitely
    assigned afterwards.
    """
    regs: List[VReg] = []
    index: Dict[int, int] = {}

    def idx(reg: VReg) -> int:
        i = index.get(id(reg))
        if i is None:
            i = len(regs)
            index[id(reg)] = i
            regs.append(reg)
        return i

    # Pre-intern every register so the universe mask is stable.
    for _bid, instr, _loc in cfg.iter_instrs():
        for r in (*instr.dests(), *instr.sources()):
            idx(r)
    for b in cfg.blocks:
        if b.cond is not None:
            idx(b.cond)

    n = len(cfg.blocks)
    full = (1 << len(regs)) - 1 if regs else 0
    defmask = [0] * n
    for b in cfg.blocks:
        d = 0
        for instr, _loc in b.instrs:
            for dst in instr.dests():
                d |= 1 << index[id(dst)]
        defmask[b.bid] = d

    block_in = [full] * n
    block_in[cfg.entry] = 0
    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for bid in order:
            if bid == cfg.entry:
                continue
            preds = cfg.blocks[bid].preds
            if not preds:
                continue
            acc = full
            for p in preds:
                acc &= block_in[p] | defmask[p]
            if acc != block_in[bid]:
                block_in[bid] = acc
                changed = True

    violations: List[Tuple[Instr, VReg, Loc]] = []
    cond_violations: List[Tuple[int, VReg, Loc]] = []
    for b in cfg.blocks:
        cur = block_in[b.bid]
        for instr, loc in b.instrs:
            for src in instr.sources():
                if not cur >> index[id(src)] & 1:
                    violations.append((instr, src, loc))
            for dst in instr.dests():
                cur |= 1 << index[id(dst)]
        if b.cond is not None and not cur >> index[id(b.cond)] & 1:
            cond_violations.append((b.bid, b.cond, b.cond_loc or Loc()))
    return DefiniteAssignment(regs, block_in, index, violations, cond_violations)


# ---------------------------------------------------------------------------
# Barrier intervals
# ---------------------------------------------------------------------------

#: Pseudo-barrier id for "kernel entry" (no barrier executed yet).
ENTRY_BARRIER = -1


@dataclass
class BarrierIntervals:
    """"Last barrier executed" sets — the synchronization skeleton.

    Two statements can be interleaved by different wavefronts of a
    work-group iff some barrier (or kernel entry) appears in both of
    their last-barrier sets: there is then an execution where no barrier
    separates them.
    """

    #: barrier instruction id -> dense barrier index.
    barrier_ids: Dict[int, int]
    #: id(instr) -> frozenset of barrier indices (ENTRY_BARRIER for entry).
    before_instr: Dict[int, frozenset]

    def may_share_interval(self, a: Instr, b: Instr) -> bool:
        sa = self.before_instr.get(id(a))
        sb = self.before_instr.get(id(b))
        if sa is None or sb is None:
            return True  # unknown statements: be conservative
        return bool(sa & sb)


def barrier_intervals(cfg: CFG) -> BarrierIntervals:
    """Forward may-analysis of which barrier was most recently executed."""
    barrier_ids: Dict[int, int] = {}
    for _bid, instr, _loc in cfg.iter_instrs():
        if isinstance(instr, Barrier):
            barrier_ids[id(instr)] = len(barrier_ids)

    n = len(cfg.blocks)
    block_in: List[Set[int]] = [set() for _ in range(n)]
    block_in[cfg.entry] = {ENTRY_BARRIER}

    def transfer(bid: int, inset: Set[int]) -> Set[int]:
        cur = inset
        for instr, _loc in cfg.blocks[bid].instrs:
            if isinstance(instr, Barrier):
                cur = {barrier_ids[id(instr)]}
        return cur

    order = cfg.rpo()
    changed = True
    while changed:
        changed = False
        for bid in order:
            if bid != cfg.entry:
                acc: Set[int] = set()
                for p in cfg.blocks[bid].preds:
                    acc |= transfer(p, block_in[p])
                if acc != block_in[bid]:
                    block_in[bid] = acc
                    changed = True

    before_instr: Dict[int, frozenset] = {}
    for b in cfg.blocks:
        cur = set(block_in[b.bid])
        for instr, _loc in b.instrs:
            before_instr[id(instr)] = frozenset(cur)
            if isinstance(instr, Barrier):
                cur = {barrier_ids[id(instr)]}
    return BarrierIntervals(barrier_ids, before_instr)


def barrier_free_path(cfg: CFG, a: Instr, b: Instr) -> bool:
    """Is there a CFG path from ``a`` to ``b`` crossing no barrier?

    This is the precise form of the interval question: two dynamic
    instances of ``a`` and ``b`` can fall in the same barrier interval
    iff such a path exists in *some* direction (or ``a is b``).  Unlike
    the last-barrier-set approximation it distinguishes barrier
    *instances*: a loop-body store followed by the loop's trailing
    barrier cannot race with a read after the loop, even though both
    sit "after" the same static barrier.
    """
    if a is b:
        return True
    where, barriers = cfg.positions()
    if id(a) not in where or id(b) not in where:
        return True  # unknown statements: be conservative
    bid_a, ia = where[id(a)]
    bid_b, ib = where[id(b)]

    def clear(bid: int, start: int, stop: Optional[int]) -> bool:
        """No barrier at an index in ``[start, stop)`` of block ``bid``."""
        return not any(start <= i and (stop is None or i < stop)
                       for i in barriers[bid])

    if bid_a == bid_b and ia < ib and clear(bid_a, ia + 1, ib):
        return True
    # Can we leave a's block past its remaining instructions?
    if not clear(bid_a, ia + 1, None):
        return False
    work = list(cfg.blocks[bid_a].succs)
    seen: Set[int] = set()
    while work:
        bid = work.pop()
        if bid in seen:
            continue
        seen.add(bid)
        if bid == bid_b and clear(bid, 0, ib):
            return True
        if clear(bid, 0, None):
            work.extend(cfg.blocks[bid].succs)
    return False
