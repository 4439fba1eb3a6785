"""Timing-engine behavioural tests: latency hiding, contention, barriers,
atomic ordering, watchdogs, detection events."""

import numpy as np
import pytest

from repro.gpu import Device, GpuConfig, HD7790, KernelResources, SimulationError
from repro.ir import DType, KernelBuilder


def _streaming_kernel(loads=1, alu_chain=0):
    b = KernelBuilder("stream")
    a = b.buffer_param("a", DType.F32)
    out = b.buffer_param("out", DType.F32)
    gid = b.global_id(0)
    acc = b.var(DType.F32, 0.0)
    for i in range(loads):
        b.set(acc, b.add(acc, b.load(a, gid)))
    for _ in range(alu_chain):
        b.set(acc, b.add(acc, 1.0))
    b.store(out, gid, acc)
    return b.finish()


def _launch(kernel, n=4096, local=64, config=HD7790, resources=None):
    dev = Device(config)
    ab = dev.alloc("a", np.ones(n, dtype=np.float32))
    ob = dev.alloc_zeros("out", n, np.float32)
    res = dev.launch(kernel, n, local, {"a": ab, "out": ob}, resources=resources)
    return dev, res


class TestLatencyHiding:
    def test_more_waves_hide_memory_latency(self):
        """The same total work finishes faster with more resident waves."""
        k = _streaming_kernel(loads=4)
        _, busy = _launch(k, n=16384)
        # One group per CU only (cap via resources):
        capped = KernelResources(32, 32, 0, groups_per_cu_cap=1)
        _, starved = _launch(k, n=16384, resources=capped)
        assert starved.cycles > busy.cycles * 1.5

    def test_alu_hides_behind_memory(self):
        """Adding ALU work to a memory-bound kernel barely changes runtime."""
        _, lean = _launch(_streaming_kernel(loads=4, alu_chain=0), n=16384)
        _, fat = _launch(_streaming_kernel(loads=4, alu_chain=12), n=16384)
        assert fat.cycles < lean.cycles * 1.35

    def test_compute_bound_scales_with_alu(self):
        _, short = _launch(_streaming_kernel(loads=1, alu_chain=16), n=16384)
        _, long_ = _launch(_streaming_kernel(loads=1, alu_chain=160), n=16384)
        assert long_.cycles > short.cycles * 2.0


class TestContention:
    def test_runtime_scales_with_items_when_saturated(self):
        k = _streaming_kernel(loads=2)
        _, small = _launch(k, n=16384)
        _, large = _launch(k, n=65536)
        ratio = large.cycles / small.cycles
        assert 2.0 < ratio < 8.0

    def test_dram_bandwidth_limits_streaming(self):
        slow_cfg = HD7790.with_(dram_bytes_per_cycle=8.0)
        k = _streaming_kernel(loads=2)
        _, fast = _launch(k, n=32768)
        _, slow = _launch(k, n=32768, config=slow_cfg)
        assert slow.cycles > fast.cycles * 1.5


class TestBarriers:
    def test_barrier_orders_lds_between_waves(self):
        """Wave 1 writes, all waves barrier, wave 0 reads wave 1's data."""
        b = KernelBuilder("k")
        out = b.buffer_param("out", DType.U32)
        lds = b.local_alloc("tile", DType.U32, 128)
        gid = b.global_id(0)
        lid = b.local_id(0)
        b.store_local(lds, lid, b.add(lid, 100))
        b.barrier()
        partner = b.rem(b.add(lid, 64), 128)
        b.store(out, gid, b.load_local(lds, partner))
        k = b.finish()
        dev = Device()
        ob = dev.alloc_zeros("out", 128, np.uint32)
        dev.launch(k, 128, 128, {"out": ob})
        got = dev.read_buffer(ob)
        expected = (np.arange(128) + 64) % 128 + 100
        np.testing.assert_array_equal(got, expected)

    def test_barrier_deadlock_detected(self):
        """A barrier reached by only some waves trips the deadlock check."""
        b = KernelBuilder("k")
        out = b.buffer_param("out", DType.U32)
        gid = b.global_id(0)
        lid = b.local_id(0)
        first_wave = b.lt(lid, 64)
        with b.if_(first_wave):
            b.barrier()
        b.store(out, gid, lid)
        k = b.finish()
        dev = Device()
        ob = dev.alloc_zeros("out", 128, np.uint32)
        with pytest.raises(SimulationError, match="deadlock"):
            dev.launch(k, 128, 128, {"out": ob})


class TestAtomics:
    def test_atomic_counter_unique_tickets(self):
        b = KernelBuilder("k")
        ctr = b.buffer_param("ctr", DType.U32)
        out = b.buffer_param("out", DType.U32)
        gid = b.global_id(0)
        ticket = b.atomic("add", ctr, 0, 1)
        b.store(out, gid, ticket)
        k = b.finish()
        dev = Device()
        cb = dev.alloc_zeros("ctr", 1, np.uint32)
        ob = dev.alloc_zeros("out", 256, np.uint32)
        dev.launch(k, 256, 64, {"ctr": cb, "out": ob})
        got = np.sort(dev.read_buffer(ob))
        np.testing.assert_array_equal(got, np.arange(256))
        assert dev.read_buffer(cb)[0] == 256

    def test_same_address_atomics_serialize_in_time(self):
        cfg = HD7790
        b = KernelBuilder("k")
        ctr = b.buffer_param("ctr", DType.U32)
        out = b.buffer_param("out", DType.U32)
        b.atomic("add", ctr, 0, 1, want_old=False)
        b.store(out, b.global_id(0), 1)
        k = b.finish()

        def run(n):
            dev = Device(cfg)
            cb = dev.alloc_zeros("ctr", 1, np.uint32)
            ob = dev.alloc_zeros("out", n, np.uint32)
            return dev.launch(k, n, 64, {"ctr": cb, "out": ob}).cycles

        # 16x the same-address atomics must stretch runtime superlinearly
        # versus the equivalent amount of plain work.
        assert run(4096) > run(256) * 4

    def test_spin_on_flag_completes(self):
        """Producer wave releases a consumer wave spinning on a flag."""
        b = KernelBuilder("k")
        flag = b.buffer_param("flag", DType.U32)
        out = b.buffer_param("out", DType.U32)
        gid = b.global_id(0)
        grp = b.group_id(0)
        is_producer = b.eq(grp, 0)
        with b.if_(is_producer):
            b.atomic("xchg", flag, 0, 1, want_old=False)
        is_consumer = b.eq(grp, 1)
        with b.if_(is_consumer):
            with b.loop() as lp:
                f = b.atomic("add", flag, 0, 0)
                lp.break_unless(b.ne(f, 1))
        b.store(out, gid, 1)
        k = b.finish()
        dev = Device()
        fb = dev.alloc_zeros("flag", 1, np.uint32)
        ob = dev.alloc_zeros("out", 128, np.uint32)
        res = dev.launch(k, 128, 64, {"flag": fb, "out": ob})
        assert (dev.read_buffer(ob) == 1).all()
        assert res.cycles > 0


class TestDetectionEvents:
    def test_report_error_recorded(self):
        b = KernelBuilder("k")
        out = b.buffer_param("out", DType.U32)
        gid = b.global_id(0)
        with b.if_(b.lt(gid, 3)):
            b.report_error(9)
        b.store(out, gid, gid)
        k = b.finish()
        dev = Device()
        ob = dev.alloc_zeros("out", 64, np.uint32)
        res = dev.launch(k, 64, 64, {"out": ob})
        assert res.detected
        assert len(res.detections) == 1
        _t, code, lanes = res.detections[0]
        assert code == 9 and lanes == 3

    def test_no_error_no_detection(self):
        k = _streaming_kernel()
        _, res = _launch(k, n=256)
        assert not res.detected


class TestWatchdog:
    def test_runaway_spin_trips_watchdog(self):
        cfg = HD7790.with_(max_cycles=200_000)
        b = KernelBuilder("k")
        flag = b.buffer_param("flag", DType.U32)
        out = b.buffer_param("out", DType.U32)
        with b.loop() as lp:
            f = b.atomic("add", flag, 0, 0)
            lp.break_unless(b.eq(f, 0))  # flag stays 0: spins forever
        b.store(out, b.global_id(0), 1)
        k = b.finish()
        dev = Device(cfg)
        fb = dev.alloc_zeros("flag", 1, np.uint32)
        ob = dev.alloc_zeros("out", 64, np.uint32)
        with pytest.raises(SimulationError, match="watchdog"):
            dev.launch(k, 64, 64, {"flag": fb, "out": ob})

    def test_launches_leave_numpy_error_state_alone(self):
        """Wave interpreters used to enter ``np.errstate`` inside their
        generators: interleaved exits leaked "ignore" to the caller, and
        generators abandoned by an aborted launch reset the state from a
        GC finalizer, which can segfault CPython 3.11.  The error state
        is now the caller's after every launch, completed or aborted,
        and no wave generator holds an ``errstate`` context."""
        import gc

        cfg = HD7790.with_(max_cycles=20_000)
        b = KernelBuilder("k")
        flag = b.buffer_param("flag", DType.U32)
        with b.loop() as lp:
            f = b.atomic("add", flag, 0, 0)
            lp.break_unless(b.eq(f, 0))
        spin = b.finish()
        with np.errstate(all="warn"):
            before = np.geterr()
            _launch(_streaming_kernel(alu_chain=4), n=1024, local=128)
            assert np.geterr() == before
            dev = Device(cfg)
            fb = dev.alloc_zeros("flag", 1, np.uint32)
            with pytest.raises(SimulationError):
                dev.launch(spin, 256, 64, {"flag": fb})
            assert np.geterr() == before
            gc.collect()
            assert np.geterr() == before

    def test_aborted_launches_do_not_crash_the_interpreter(self):
        """Aborted launches under an eager cyclic GC, interleaved with
        ``errstate`` entries: this segfaulted CPython 3.11 within the
        first few launches while wave generators held ``errstate``."""
        import os
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        script = textwrap.dedent("""
            import gc
            import numpy as np
            from repro.gpu import Device, HD7790, SimulationError
            from repro.ir import DType, KernelBuilder

            b = KernelBuilder("k")
            flag = b.buffer_param("flag", DType.U32)
            with b.loop() as lp:
                lp.break_unless(b.eq(b.atomic("add", flag, 0, 0), 0))
            spin = b.finish()
            gc.set_threshold(1, 1, 1)
            for _ in range(100):
                dev = Device(HD7790.with_(max_cycles=3_000))
                fb = dev.alloc_zeros("flag", 1, np.uint32)
                try:
                    dev.launch(spin, 512, 64, {"flag": fb})
                except SimulationError:
                    pass
                for _ in range(50):
                    with np.errstate(all="ignore"):
                        pass
            print("ok")
        """)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "ok"


    @pytest.mark.parametrize("path", ["watchdog", "vectorized", "livelock"])
    def test_aborted_launch_frees_waves_by_refcount(self, path, monkeypatch):
        """Wave 1 parks at a barrier wave 0 never reaches, and wave 0
        spins forever.  Once the error is caught no reference cycle may
        keep a wave alive: suspended generators, barrier lists and the
        livelock proof's stuck set are all dropped on the way out."""
        import gc
        import weakref

        from repro.faults.injector import FaultHook, FaultPlan
        from repro.gpu import fused, vectorized
        from repro.gpu.wavefront import Wavefront

        b = KernelBuilder("k")
        flag = b.buffer_param("flag", DType.U32)
        b.add(b.const(7, DType.U32), 1)
        with b.if_(b.ge(b.local_id(0), 64)):
            b.barrier()
        with b.loop() as lp:
            lp.break_unless(b.eq(b.atomic("add", flag, 0, 0), 0))
        spin = b.finish()

        waves = []
        init = Wavefront.__init__

        def record(self, *args):
            init(self, *args)
            waves.append(weakref.ref(self))

        monkeypatch.setattr(Wavefront, "__init__", record)
        hook = None
        if path == "livelock":
            hook = FaultHook(FaultPlan("vgpr", 0, 2, 3, 5, 0))
        gc.collect()
        gc.disable()
        try:
            dev = Device(HD7790.with_(max_cycles=20_000))
            fb = dev.alloc_zeros("flag", 1, np.uint32)
            with vectorized.vector(path == "vectorized"), \
                    fused.fault_window(True):
                try:
                    dev.launch(spin, 128, 128, {"flag": fb},
                               fault_hook=hook)
                except SimulationError as err:
                    assert str(err).startswith(
                        "livelock" if path == "livelock" else "watchdog")
                else:
                    pytest.fail("the launch should hang")
            assert len(waves) == 2
            assert [w() for w in waves] == [None, None]
        finally:
            gc.enable()


class TestSchedulingAccounting:
    def test_groups_and_waves_counted(self):
        k = _streaming_kernel()
        _, res = _launch(k, n=1024, local=128)
        assert res.groups_launched == 8
        assert res.waves_launched == 16

    def test_under_utilization_leaves_cus_idle(self):
        """Fewer groups than CUs: doubling groups costs little extra time."""
        k = _streaming_kernel(loads=1, alu_chain=64)
        _, four = _launch(k, n=4 * 64, local=64)
        _, eight = _launch(k, n=8 * 64, local=64)
        assert eight.cycles < four.cycles * 1.3
