"""Property-based tests (hypothesis) for core invariants.

The headline property is the RMT soundness contract: for randomly
generated elementwise kernels, every RMT variant produces bit-identical
output to the original and raises no spurious detections.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import RMT_VARIANTS, compile_kernel
from repro.eval.ecc import secded_check_bits
from repro.gpu.counters import BusyTracker
from repro.gpu.memory import CacheModel
from repro.ir import DType, KernelBuilder
from repro.ir.types import bitcast_from_u32, bitcast_to_u32
from repro.runtime import Session

# ---------------------------------------------------------------------------
# Random elementwise kernel programs
# ---------------------------------------------------------------------------

_UNARY = ["neg", "abs", "not"]
_BINARY = ["add", "sub", "mul", "min", "max", "and", "or", "xor"]


@st.composite
def programs(draw):
    """A short random u32 expression DAG over the loaded input."""
    n_ops = draw(st.integers(min_value=1, max_value=8))
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()):
            ops.append(("bin", draw(st.sampled_from(_BINARY)),
                        draw(st.integers(0, 2**16))))
        else:
            ops.append(("un", draw(st.sampled_from(_UNARY)), None))
    return ops


def _build_kernel(ops):
    b = KernelBuilder("prop")
    a = b.buffer_param("a", DType.U32)
    out = b.buffer_param("out", DType.U32)
    gid = b.global_id(0)
    v = b.load(a, gid)
    for kind, op, imm in ops:
        if kind == "bin":
            v = getattr(b, {"and": "and_", "or": "or_"}.get(op, op))(v, imm)
        else:
            v = getattr(b, {"not": "not_"}.get(op, op))(v)
    b.store(out, gid, v)
    k = b.finish()
    k.metadata["local_size"] = (64, 1, 1)
    return k


def _execute(kernel, variant, data):
    compiled = compile_kernel(kernel, variant)
    s = Session()
    ab = s.upload("a", data)
    ob = s.zeros("out", data.size, np.uint32)
    res = s.launch(compiled, data.size, 64, {"a": ab, "out": ob})
    return s.download(ob), res


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=programs(), seed=st.integers(0, 2**31 - 1))
def test_rmt_variants_preserve_semantics(ops, seed):
    """Original and every RMT flavor compute identical results."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2**32, size=128, dtype=np.uint32)
    kernel = _build_kernel(ops)
    expected, base = _execute(kernel, "original", data)
    for variant in RMT_VARIANTS:
        if variant == "original":
            continue
        got, res = _execute(_build_kernel(ops), variant, data)
        np.testing.assert_array_equal(got, expected, err_msg=variant)
        assert not res.detections, f"{variant}: spurious detection"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**31), min_size=1, max_size=64))
def test_bitcast_u32_roundtrip(values):
    arr = np.array(values, dtype=np.uint32)
    back = bitcast_to_u32(bitcast_from_u32(arr, DType.F32))
    np.testing.assert_array_equal(back, arr)


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.tuples(st.floats(0, 1e6), st.floats(0, 1e4)), min_size=1, max_size=60,
))
def test_busy_tracker_windows_sum_to_total(intervals):
    t = BusyTracker(window_cycles=1000)
    for start, dur in intervals:
        t.add(start, start + dur)
    assert sum(t.windows.values()) == pytest.approx(t.total, rel=1e-9, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=200),
    st.integers(1, 8),
)
def test_cache_never_exceeds_capacity(accesses, ways):
    c = CacheModel(8 * 64 * ways, 64, ways)  # 8 sets
    for line in accesses:
        c.access(line, write=bool(line % 2))
    for s in c._sets:
        assert len(s) <= ways
    # re-access of the most recent line is always a hit
    hit, _ = c.access(accesses[-1])
    assert hit


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4096))
def test_secded_hamming_bound(data_bits):
    r = secded_check_bits(data_bits) - 1  # drop the DED parity bit
    assert 2 ** r >= data_bits + r + 1
    assert 2 ** (r - 1) < data_bits + (r - 1) + 1


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    lanes=st.lists(st.integers(0, 63), min_size=1, max_size=64, unique=True),
    seed=st.integers(0, 2**31 - 1),
)
def test_lds_scatter_gather_roundtrip(lanes, seed):
    """Random LDS permutation writes/reads are exact."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(64).astype(np.uint32)

    b = KernelBuilder("k")
    pidx = b.buffer_param("perm", DType.U32)
    out = b.buffer_param("out", DType.U32)
    lds = b.local_alloc("t", DType.U32, 64)
    gid = b.global_id(0)
    lid = b.local_id(0)
    target = b.load(pidx, lid)
    b.store_local(lds, target, lid)
    b.barrier()
    b.store(out, gid, b.load_local(lds, lid))
    k = b.finish()

    s = Session()
    pb = s.upload("perm", perm)
    ob = s.zeros("out", 64, np.uint32)
    compiled = compile_kernel(k, "original")
    s.launch(compiled, 64, 64, {"perm": pb, "out": ob})
    got = s.download(ob)
    inverse = np.empty(64, dtype=np.uint32)
    inverse[perm] = np.arange(64, dtype=np.uint32)
    np.testing.assert_array_equal(got, inverse)
