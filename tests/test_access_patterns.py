"""The per-launch access-pattern memo (DESIGN.md §18).

Every vector memory access's lane analysis — bounds, coalesced lines,
LDS bank passes, atomic lane distinctness — comes from one memo keyed
by the shift-normalised index vector.  These tests pin the memo to a
direct recomputation, keep wild (bit-31-flipped) indices from sizing
any allocation, and check that no memo state crosses a launch.
"""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultHook, FaultPlan
from repro.gpu import Device, HD7790
from repro.gpu.engine import Engine
from repro.gpu.memory import DeviceBuffer, global_pattern
from repro.gpu.wavefront import GroupState, LaunchContext, Wavefront
from repro.ir import DType, KernelBuilder

_ELEM_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: lane vectors: wide scatter, or a narrow pool so lanes repeat
_LANES = st.one_of(
    st.lists(st.integers(-2**20, 2**20), min_size=1, max_size=64),
    st.lists(st.integers(0, 7), min_size=1, max_size=64),
)


def _direct_global(idx, base, eb, lb):
    return (int(idx.min()), int(idx.max()),
            np.unique((base + idx * eb) // lb).tolist(),
            np.unique(idx).size == idx.size)


def _memo_global(memo, buf, idx, lb):
    i0, line0, pat = global_pattern(memo, buf, idx, lb)
    return (i0 + pat.lo, i0 + pat.hi, [line0 + x for x in pat.lines],
            pat.distinct)


@settings(max_examples=150, deadline=None)
@given(lanes=_LANES, misalign=st.integers(0, 255),
       shift=st.integers(-2**20, 2**20))
def test_global_pattern_matches_direct(lanes, misalign, shift):
    # One memo serves every element and line size, as one launch's memo
    # serves every buffer: the key must tell them apart.
    base = 0x1000 + misalign
    memo = {}
    idx = np.array(lanes, dtype=np.int64)
    moved = idx + shift
    for eb, lb in itertools.product(_ELEM_DTYPES, [32, 64, 128]):
        buf = DeviceBuffer("b", np.zeros(1, dtype=_ELEM_DTYPES[eb]), base)
        want = _direct_global(idx, base, eb, lb)
        assert _memo_global(memo, buf, idx, lb) == want
        # A uniform shift reuses the entry whenever lane 0 keeps its
        # offset within the line, and is exact either way.
        before = len(memo)
        assert (_memo_global(memo, buf, moved, lb)
                == _direct_global(moved, base, eb, lb))
        assert len(memo) - before == (0 if (shift * eb) % lb == 0 else 1)
        # A hit returns the stored analysis, not a recomputation.
        assert _memo_global(memo, buf, idx, lb) == want


def _wave(memo, banks):
    """A wave whose launch context uses ``memo`` and ``banks`` banks."""
    b = KernelBuilder("memo_probe")
    kernel = b.finish()
    kernel.metadata["local_size"] = (64, 1, 1)
    ctx = LaunchContext(kernel, (64, 1, 1), (64, 1, 1), {}, {},
                        config=replace(HD7790, lds_banks=banks))
    ctx.access_patterns = memo
    return Wavefront(ctx, GroupState(ctx, 0), 0)


def _direct_passes(idx, banks):
    distinct = np.flatnonzero(np.bincount(idx))
    return int(np.bincount(distinct % banks).max())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lanes=st.one_of(
           st.lists(st.integers(0, 4095), min_size=1, max_size=64),
           st.lists(st.integers(0, 7), min_size=1, max_size=64)),
       shift=st.integers(0, 4096))
def test_lds_pattern_matches_direct(lanes, shift):
    memo = {}
    size = 8192
    idx = np.array(lanes, dtype=np.int64)
    moved = idx + shift
    for banks in (32, 16):
        wave = _wave(memo, banks)
        got_idx, passes = wave._lds_access("t", size, idx)
        assert got_idx is idx
        assert passes == _direct_passes(idx, banks)
        # The shifted access hits the entry the first one filled: banks
        # permute cyclically under a uniform shift, so the count holds.
        assert wave._lds_access("t", size, moved)[1] == _direct_passes(moved, banks)
    assert len(memo) == 2


# ---------------------------------------------------------------------------
# Wild indices: bit 31 flipped
# ---------------------------------------------------------------------------

_LDS_WORDS = 40
_OUT_WORDS = 100
_FLIP_LANE = 5


def _wild_kernel(dtype: DType, with_lds: bool):
    """Lane ``_FLIP_LANE``'s index has bit 31 set: huge positive as U32,
    huge negative as I32.  Every other lane stays in bounds."""
    b = KernelBuilder(f"wild_{dtype.name}_{int(with_lds)}")
    out = b.buffer_param("out", DType.U32)
    acc = b.buffer_param("acc", DType.U32)
    gid = b.global_id(0)
    flipped = b.xor(gid, b.const(0x80000000, DType.U32))
    wild = b.select(b.eq(gid, _FLIP_LANE), flipped, gid)
    if dtype is DType.I32:
        wild = b.bitcast(wild, DType.I32)
    if with_lds:
        tile = b.local_alloc("tile", DType.U32, _LDS_WORDS)
        b.store_local(tile, wild, b.add(gid, 1))
        b.barrier()
        value = b.load_local(tile, wild)
    else:
        value = b.add(gid, 1)
    b.store(out, wild, value)
    b.atomic("add", acc, wild, 1, want_old=False)
    k = b.finish()
    k.metadata["local_size"] = (64, 1, 1)
    return k


def _wild_indices(dtype: DType) -> np.ndarray:
    idx = np.arange(64, dtype=np.int64)
    idx[_FLIP_LANE] = (_FLIP_LANE | 0x80000000 if dtype is DType.U32
                       else _FLIP_LANE - 0x80000000)
    return idx


def _inert_hook() -> FaultHook:
    """A window-capable hook whose victim never runs: it only switches
    the launch into fault mode, where wild accesses wrap."""
    return FaultHook(FaultPlan(target="vgpr", wave_ordinal=10**6,
                               trigger_instr=0, bit=31, lane=0,
                               victim_index=0))


@pytest.fixture
def span_guard(monkeypatch):
    """Fail any ``bincount`` sized by a wild index instead of running
    it (which would allocate gigabytes)."""
    real = np.bincount

    def bincount(x, *args, **kwargs):
        x = np.asarray(x)
        assert not x.size or int(x.max()) < 1 << 16, "span-sized bincount"
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", bincount)


@pytest.mark.parametrize("dtype", [DType.U32, DType.I32], ids=["U32", "I32"])
@pytest.mark.parametrize("hook_kind", ["fault_hook", "plain"])
def test_wild_indices_wrap_under_hook(span_guard, dtype, hook_kind):
    hook = _inert_hook() if hook_kind == "fault_hook" else (lambda w, i: None)
    dev = Device()
    out = dev.alloc_zeros("out", _OUT_WORDS, np.uint32)
    acc = dev.alloc_zeros("acc", _OUT_WORDS, np.uint32)
    tracemalloc.start()
    try:
        result = dev.launch(_wild_kernel(dtype, with_lds=True), 64, 64,
                            {"out": out, "acc": acc}, fault_hook=hook)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    # One wrapped request each for the LDS store and load, the global
    # store and the atomic.
    assert result.oob_events == 4

    idx = _wild_indices(dtype)
    tile = np.zeros(_LDS_WORDS, dtype=np.uint32)
    tile[idx % _LDS_WORDS] = np.arange(1, 65, dtype=np.uint32)
    want_out = np.zeros(_OUT_WORDS, dtype=np.uint32)
    want_out[idx % _OUT_WORDS] = tile[idx % _LDS_WORDS]
    want_acc = np.bincount(idx % _OUT_WORDS,
                           minlength=_OUT_WORDS).astype(np.uint32)
    np.testing.assert_array_equal(dev.read_buffer(out), want_out)
    np.testing.assert_array_equal(dev.read_buffer(acc), want_acc)


@pytest.mark.parametrize("dtype", [DType.U32, DType.I32], ids=["U32", "I32"])
def test_wild_indices_raise_without_hook(span_guard, dtype):
    idx = _wild_indices(dtype)
    lo, hi = int(idx.min()), int(idx.max())
    dev = Device()
    bufs = {"out": dev.alloc_zeros("out", _OUT_WORDS, np.uint32),
            "acc": dev.alloc_zeros("acc", _OUT_WORDS, np.uint32)}
    with pytest.raises(IndexError) as err:
        dev.launch(_wild_kernel(dtype, with_lds=True), 64, 64, bufs)
    assert str(err.value) == (
        f"out-of-bounds LDS access to 'tile': indices in [{lo}, {hi}], "
        f"size {_LDS_WORDS}")
    with pytest.raises(IndexError) as err:
        dev.launch(_wild_kernel(dtype, with_lds=False), 64, 64, bufs)
    assert str(err.value) == (
        f"out-of-bounds access to buffer 'out': indices in [{lo}, {hi}], "
        f"size {_OUT_WORDS}")


# ---------------------------------------------------------------------------
# Scope: one memo per launch
# ---------------------------------------------------------------------------


def _lds_stream_kernel():
    b = KernelBuilder("memo_scope")
    src = b.buffer_param("src", DType.U32)
    out = b.buffer_param("out", DType.U32)
    tile = b.local_alloc("tile", DType.U32, 64)
    gid = b.global_id(0)
    lid = b.local_id(0)
    b.store_local(tile, lid, b.load(src, gid))
    b.barrier()
    b.store(out, gid, b.load_local(tile, b.sub(63, lid)))
    k = b.finish()
    k.metadata["local_size"] = (64, 1, 1)
    return k


def test_launches_never_share_memo_state(monkeypatch):
    contexts = []
    real_run = Engine.run

    def run(self, ctx, resources):
        contexts.append((ctx, dict(ctx.access_patterns)))
        return real_run(self, ctx, resources)

    monkeypatch.setattr(Engine, "run", run)
    dev = Device()
    src = dev.alloc("src", np.arange(256, dtype=np.uint32))
    out = dev.alloc_zeros("out", 256, np.uint32)
    k = _lds_stream_kernel()
    for _ in range(2):
        dev.launch(k, 256, 64, {"src": src, "out": out})
    (first, first_at_start), (second, second_at_start) = contexts
    assert first_at_start == {} and second_at_start == {}
    assert first.access_patterns is not second.access_patterns
    # Same kernel, same patterns: equal keys, but every entry is the
    # second launch's own object.
    assert first.access_patterns.keys() == second.access_patterns.keys()
    assert first.access_patterns
    ids = {id(v) for v in first.access_patterns.values()}
    assert not ids & {id(v) for v in second.access_patterns.values()}
    np.testing.assert_array_equal(
        dev.read_buffer(out),
        np.arange(256, dtype=np.uint32).reshape(4, 64)[:, ::-1].reshape(-1))
