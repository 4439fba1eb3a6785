"""Content-addressed closures for fused and vectorized blocks.

Both codegens (:func:`repro.gpu.fused._codegen`,
:func:`repro.gpu.vectorized._codegen2d`) name register ids, constants,
dtypes and semantic functions through each block's bound environment,
so blocks of equal shape produce equal source text and share one code object
through :func:`repro.gpu.fused.make_closure`.  The memo holds code
objects weakly: it must not keep a code object alive once every kernel
built from it is gone.
"""

import gc
import weakref

import numpy as np

from repro.compiler.pipeline import compile_kernel
from repro.gpu import fused, vectorized
from repro.ir.builder import KernelBuilder
from repro.ir.types import DType
from repro.runtime.api import Session

N = 256


def _shape_kernel(c: int, dtype: DType, name: str):
    """``out[gid] = (x + c) * x`` with ``x`` the global id as ``dtype``.

    The barrier splits the pure code into two blocks, so the second one
    reads registers the first one wrote (gathered and scattered by the
    vectorized engine).
    """
    b = KernelBuilder(name)
    out = b.buffer_param("out", dtype)
    gid = b.global_id(0)
    x = b.bitcast(gid, dtype)
    b.barrier()
    b.store(out, gid, b.mul(b.add(x, c), x))
    return compile_kernel(b.finish(), "original", cache=False)


def _unique_shape_kernel(name: str):
    """A pure run no other test lowers: an xor/shift chain of odd length."""
    b = KernelBuilder(name)
    out = b.buffer_param("out", DType.U32)
    gid = b.global_id(0)
    x = gid
    for k in range(13):
        x = b.shr(b.xor(x, 1000 + k), 1) if k % 3 else b.or_(x, k)
    b.store(out, gid, x)
    return compile_kernel(b.finish(), "original", cache=False)


def _expected(c: int, dtype: DType) -> np.ndarray:
    x = np.arange(N, dtype=np.int64)
    return ((x + c) * x).astype(dtype.np_dtype)


def _launch(compiled, dtype: DType, vector: bool):
    with vectorized.vector(vector):
        session = Session()
        out = session.zeros("out", N, dtype.np_dtype)
        result = session.launch(compiled, N, 64, {"out": out})
    assert result.engine_kind == ("vectorized" if vector else "standard")
    return session.download(out)


def _blocks(compiled):
    program = fused.lower_kernel(compiled.kernel)
    return list(fused.FusedProgram._walk_blocks(program.items))


def _memo_keys(code):
    return [src for src, c in fused._CODE_MEMO.items() if c is code]


def test_fused_blocks_of_equal_shape_share_code():
    # Different kernels, register ids, constants and dtypes; one shape.
    ka = _shape_kernel(3, DType.U32, "shape_u32")
    kb = _shape_kernel(-5, DType.I32, "shape_i32")
    blocks_a, blocks_b = _blocks(ka), _blocks(kb)
    assert len(blocks_a) == len(blocks_b) == 2
    pairs = list(zip(blocks_a, blocks_b))
    for ba, bb in pairs:
        assert ba.fn.__code__ is bb.fn.__code__
        assert ba.fn.__defaults__[0] is not bb.fn.__defaults__[0]
    # Each block still computes its own result.
    np.testing.assert_array_equal(_launch(ka, DType.U32, False),
                                  _expected(3, DType.U32))
    np.testing.assert_array_equal(_launch(kb, DType.I32, False),
                                  _expected(-5, DType.I32))
    # The all-lanes variants built during the launches are shared too.
    for ba, bb in pairs:
        assert ba.fn_full is not None and bb.fn_full is not None
        assert ba.fn_full.__code__ is bb.fn_full.__code__
        assert ba.fn_full.__code__ is not ba.fn.__code__


def test_fused_code_memo_is_weak():
    compiled = _unique_shape_kernel("weak_fused")
    (block,) = _blocks(compiled)
    ref = weakref.ref(block.fn.__code__)
    keys = _memo_keys(ref())
    assert len(keys) == 1
    del compiled, block
    gc.collect()
    assert ref() is None
    assert keys[0] not in fused._CODE_MEMO


def _vec_codes(compiled):
    """``{(block index, full_mask): code}`` of the compiled 2-D closures."""
    order = {id(b): k for k, b in enumerate(_blocks(compiled))}
    fns = compiled.kernel._vec_fns["fns"]
    return {(order[bid], full): fn.__code__ for (bid, full), fn in fns.items()}


def test_vectorized_blocks_of_equal_shape_share_code():
    ka = _shape_kernel(3, DType.U32, "vshape_u32")
    kb = _shape_kernel(-5, DType.I32, "vshape_i32")
    np.testing.assert_array_equal(_launch(ka, DType.U32, True),
                                  _expected(3, DType.U32))
    np.testing.assert_array_equal(_launch(kb, DType.I32, True),
                                  _expected(-5, DType.I32))
    ca, cb = _vec_codes(ka), _vec_codes(kb)
    assert {k for k, _full in ca} == {0, 1} and ca.keys() == cb.keys()
    for key in ca:
        assert ca[key] is cb[key]


def test_vectorized_code_memo_is_weak():
    compiled = _unique_shape_kernel("weak_vec")
    _launch(compiled, DType.U32, True)
    refs = [weakref.ref(code) for code in _vec_codes(compiled).values()]
    keys = [k for r in refs for k in _memo_keys(r())]
    assert refs and len(keys) == len(refs)
    del compiled
    gc.collect()
    assert all(r() is None for r in refs)
    assert not any(k in fused._CODE_MEMO for k in keys)
