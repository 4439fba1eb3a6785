"""Sparse joins in the abstract interpreters.

The range interpreter (:mod:`repro.compiler.analysis.ranges`) and the
LDS-race symbolic evaluator (:mod:`repro.compiler.lint.lds_races`) join
only the registers a branch arm or loop iteration wrote.  That must not
change a single result, so the *analysis digest* below pins every
``AccessRange`` (index interval plus non-top environment) and every
LDS-race ``_Access`` (affine index plus guards) over the fuzz corpus and
the suite kernels under every RMT variant.  The pinned file was generated
from the dense-join implementation; regenerate it only for an intended
analysis change (TESTING.md §1):

    PYTHONPATH=src python tests/test_analysis_sparse.py --regenerate

Register ids and opaque-symbol counters differ between processes, so the
digest names registers by their first appearance in instruction walk
order and opaque symbols by their first appearance in the access list.
"""

from __future__ import annotations

import glob
import hashlib
import importlib.util
import json
import os
import sys
from functools import lru_cache

import pytest

from repro.compiler.analysis.ranges import Interval, analyze_ranges
from repro.compiler.lint.engine import LintContext
from repro.compiler.lint.lds_races import _Evaluator as LdsEvaluator
from repro.compiler.pipeline import RMT_VARIANTS, compile_kernel
from repro.ir import DType, KernelBuilder
from repro.ir.core import If, StoreGlobal, StoreLocal, While, walk_instrs, walk_stmts

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_FILE = os.path.join(HERE, "data", "analysis_digest.json")
CORPUS_DIR = os.path.join(HERE, "corpus")


# ---------------------------------------------------------------------------
# The kernel set
# ---------------------------------------------------------------------------


def _corpus_programs():
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        spec = importlib.util.spec_from_file_location(f"_corpus_{name}", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        yield name, mod.make_program()


def digest_kernels():
    """Yield ``(label, transformed kernel)`` for every pinned kernel."""
    from repro.fuzz.oracle import RunSpec, default_runs
    from repro.kernels.suite import all_abbrevs, make_benchmark

    specs = [RunSpec("original", optimize=False)] + default_runs()
    for name, prog in _corpus_programs():
        for spec in specs:
            opt = "O1" if spec.optimize else "O0"
            compiled = compile_kernel(
                prog.build(), spec.variant, optimize=spec.optimize,
                lint=False, validate=False, cache=False)
            yield f"corpus/{name}/{spec.variant}/{opt}", compiled.kernel
    for abbrev in all_abbrevs():
        kernel = make_benchmark(abbrev, scale="small").build()
        for variant in RMT_VARIANTS:
            compiled = compile_kernel(kernel, variant, lint=False,
                                      validate=False, cache=False)
            yield f"suite/{abbrev}/{variant}", compiled.kernel


# ---------------------------------------------------------------------------
# Canonical digest
# ---------------------------------------------------------------------------


def _reg_index(kernel):
    """``id(reg) -> rank`` by first appearance in instruction walk order."""
    order = {}
    for stmt in walk_stmts(kernel.body):
        regs = [stmt.cond] if isinstance(stmt, (If, While)) else [
            *stmt.dests(), *stmt.sources()]
        for r in regs:
            order.setdefault(id(r), len(order))
    return order


def _iv(iv: Interval):
    return (iv.lo, iv.hi)


def analysis_digest(kernel) -> str:
    """Canonical hash of both interpreters' results on one kernel."""
    regs = _reg_index(kernel)
    where = {id(ins): k for k, ins in enumerate(walk_instrs(kernel.body))}

    ranges = []
    for acc in analyze_ranges(kernel).accesses:
        env = sorted((regs[rid], _iv(iv)) for rid, iv in acc.env.items())
        ranges.append((where[id(acc.instr)], acc.kind, acc.target,
                       acc.nelems, _iv(acc.index), env))

    opaque = {}

    def sym(s):
        if s[0] == "u":  # ("u", id(reg), counter): a fresh opaque symbol
            return ("u", regs[s[1]], opaque.setdefault(s[1:], len(opaque)))
        return s

    def aff(a):
        if a is None:
            return None
        return (sorted((sym(s), c) for s, c in a.terms.items()), a.const)

    lds = []
    if kernel.locals:
        for acc in LdsEvaluator(LintContext(kernel)).run():
            lds.append((where[id(acc.instr)], acc.alloc.name, acc.is_store,
                        aff(acc.expr), [(op, aff(d)) for op, d in acc.guards]))
    blob = repr((ranges, lds)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@lru_cache(maxsize=None)
def _pinned():
    with open(DIGEST_FILE) as fh:
        return json.load(fh)


def test_analysis_digest_matches_pinned():
    pinned = _pinned()
    got = {label: analysis_digest(k) for label, k in digest_kernels()}
    assert set(got) == set(pinned), "kernel set changed: regenerate on purpose"
    changed = sorted(label for label in got if got[label] != pinned[label])
    assert not changed, f"analysis results changed on {changed}"


# ---------------------------------------------------------------------------
# Join rules on registers only one arm, or both arms, wrote
# ---------------------------------------------------------------------------


def _join_kernel(else_value):
    """``u = 0; if (n < 5) u = 4 [else u = else_value]; scratch[lid + u]``."""
    b = KernelBuilder("join")
    n = b.scalar_param("n", DType.U32)
    scratch = b.local_alloc("scratch", DType.U32, 256)
    lid = b.local_id(0)
    u = b.var(DType.U32, 0, hint="u")
    with b.if_else(b.lt(n, 5)) as orelse:
        b.set(u, 4)
        if else_value is not None:
            with orelse():
                b.set(u, else_value)
    b.store_local(scratch, b.add(lid, u), lid)
    k = b.finish()
    k.metadata["local_size"] = (128, 1, 1)
    return k


def _only_access(kernel):
    (acc,) = LdsEvaluator(LintContext(kernel)).run()
    return acc.expr


def test_lds_join_keeps_a_one_armed_assignment():
    expr = _only_access(_join_kernel(None))
    assert expr.terms == {("lid", 0): 1} and expr.const == 4


def test_lds_join_of_disagreeing_arms_is_opaque():
    expr = _only_access(_join_kernel(8))
    # ``n`` is uniform, so ``u`` becomes one fresh uniform symbol.
    (sym,) = [s for s in expr.terms if s != ("lid", 0)]
    assert sym[0] == "u" and expr.const == 0


def test_ranges_join_hulls_both_arms():
    k = _join_kernel(8)
    store = _store(k)
    assert analyze_ranges(k).access_for(store).index == Interval(4, 135)


# ---------------------------------------------------------------------------
# Widening cap: a loop that never reaches a fixpoint in 10 iterations
# ---------------------------------------------------------------------------


def _shift_chain_kernel(n: int, lds: bool):
    """``a[k] = a[k-1]; a[0] += 1`` over ``n`` loop-carried registers.

    Each iteration moves the growing value one register down the chain,
    so the last register is still 0 after ten widening rounds when
    ``n > 10``, yet it reaches ``40 - n`` at run time.
    """
    b = KernelBuilder(f"shift_chain_{n}")
    out = b.buffer_param("out", DType.U32)
    scratch = b.local_alloc("scratch", DType.U32, 64) if lds else None
    lid = b.local_id(0)
    a = [b.var(DType.U32, 0, hint=f"a{k}") for k in range(n)]
    with b.for_range(0, 40):
        for k in range(n - 1, 0, -1):
            b.set(a[k], a[k - 1])
        b.set(a[0], b.add(a[0], 1))
        if lds:
            b.store_local(scratch, a[n - 1], lid)
        else:
            b.store(out, a[n - 1], lid)
    k = b.finish()
    k.metadata["local_size"] = (64, 1, 1)
    k.metadata["global_size"] = (64, 1, 1)
    k.metadata["buffer_nelems"] = {"out": 64}
    return k


def _store(kernel):
    return next(i for i in walk_instrs(kernel.body)
                if isinstance(i, (StoreGlobal, StoreLocal)))


@pytest.mark.parametrize("n", [4, 10, 11, 12, 14])
def test_ranges_widening_cap_is_sound(n):
    k = _shift_chain_kernel(n, lds=False)
    iv = analyze_ranges(k).access_for(_store(k)).index
    # The stored index takes every value 0 .. 40 - n at run time.
    assert iv.lo is not None and iv.lo <= 0
    assert iv.hi is None or iv.hi >= 40 - n


@pytest.mark.parametrize("n", [4, 14])
def test_lds_widening_cap_is_sound(n):
    k = _shift_chain_kernel(n, lds=True)
    (acc,) = LdsEvaluator(LintContext(k)).run()
    # The index is loop-carried: it must not be a constant.
    assert acc.expr is None or not acc.expr.is_const()


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_analysis_sparse.py --regenerate")
    digests = {label: analysis_digest(k) for label, k in digest_kernels()}
    with open(DIGEST_FILE, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(digests)} kernel digests to {DIGEST_FILE}")
