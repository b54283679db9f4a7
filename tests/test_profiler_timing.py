"""Unit coverage for the cycle profiler and the wall-clock timing helpers.

``WarpProfile``/``KernelProfile`` are the accounting substrate every
simulated timing in the repository is derived from, so their arithmetic
(charging, merging, stall attribution, fault scaling) is pinned here
directly; :mod:`repro.utils.timing` is the real-time counterpart used by
the bench harness.
"""

from __future__ import annotations

import pytest

from repro.gpu.profiler import KernelProfile, WarpProfile
from repro.utils.timing import Stopwatch, format_ms


# ---------------------------------------------------------------------------
# WarpProfile
# ---------------------------------------------------------------------------
class TestWarpProfile:
    def test_charges_accumulate_into_cycle_classes(self):
        p = WarpProfile()
        p.charge_compute(10.0)
        p.charge_sync(2.5)
        p.charge_memory(8.0, segments=3, regions=1)
        assert p.compute_cycles == 10.0
        assert p.sync_cycles == 2.5
        assert p.mem_cycles == 8.0
        assert p.stall_long == 8.0  # memory cycles are StallLong
        assert p.mem_segments == 3
        assert p.region_misses == 1
        assert p.cycles == pytest.approx(20.5)

    def test_lockstep_charges_slowest_lane(self):
        p = WarpProfile()
        p.charge_lockstep([1.0, 7.0, 3.0])
        assert p.compute_cycles == 7.0
        p.charge_lockstep([])  # empty warp step is free
        assert p.compute_cycles == 7.0

    def test_idle_wait_charges_only_idle_lanes(self):
        p = WarpProfile()
        p.charge_idle_wait(iteration_cycles=4.0, busy=30, total=32)
        assert p.stall_wait == pytest.approx(8.0)  # 2 idle lanes × 4 cycles
        p.charge_idle_wait(iteration_cycles=4.0, busy=32, total=32)
        assert p.stall_wait == pytest.approx(8.0)  # full warp adds nothing

    def test_warp_efficiency(self):
        p = WarpProfile()
        assert p.warp_efficiency == 1.0  # no iterations recorded yet
        p.note_lanes(busy=24, total=32)
        p.note_lanes(busy=8, total=32)
        assert p.warp_efficiency == pytest.approx(32 / 64)
        assert p.iterations == 2

    def test_merge_sums_every_counter(self):
        a = WarpProfile()
        a.charge_compute(1.0)
        a.charge_memory(2.0, segments=1, regions=1)
        a.note_lanes(busy=16, total=32)
        b = WarpProfile()
        b.charge_compute(3.0)
        b.charge_sync(4.0)
        b.charge_idle_wait(2.0, busy=31, total=32)
        b.note_lanes(busy=32, total=32)
        merged = a.merge(b)
        assert merged is a
        assert a.compute_cycles == 4.0
        assert a.sync_cycles == 4.0
        assert a.mem_cycles == 2.0
        assert a.stall_wait == pytest.approx(2.0)
        assert a.lane_busy == 48 and a.lane_total == 64
        assert a.iterations == 2


# ---------------------------------------------------------------------------
# KernelProfile
# ---------------------------------------------------------------------------
class TestKernelProfile:
    def _warp(self, compute: float, busy: int = 32) -> WarpProfile:
        p = WarpProfile()
        p.charge_compute(compute)
        p.note_lanes(busy=busy, total=32)
        return p

    def test_add_warp_accumulates(self):
        k = KernelProfile()
        k.add_warp(self._warp(5.0), samples=64, valid=16)
        k.add_warp(self._warp(7.0), samples=64, valid=48)
        assert k.n_warps == 2
        assert k.n_samples == 128
        assert k.n_valid_samples == 64
        assert k.total_cycles == pytest.approx(12.0)
        assert k.valid_ratio == pytest.approx(0.5)

    def test_valid_ratio_of_empty_kernel(self):
        assert KernelProfile().valid_ratio == 0.0

    def test_merge_folds_kernels(self):
        a, b = KernelProfile(), KernelProfile()
        a.add_warp(self._warp(5.0), samples=32, valid=8)
        b.add_warp(self._warp(1.0), samples=32, valid=32)
        b.add_warp(self._warp(2.0), samples=32, valid=0)
        a.merge(b)
        assert a.n_warps == 3
        assert a.n_samples == 96
        assert a.n_valid_samples == 40
        assert a.total_cycles == pytest.approx(8.0)

    def test_stall_summary_normalises_per_iteration(self):
        k = KernelProfile()
        w = WarpProfile()
        w.charge_memory(10.0, segments=1, regions=0)
        w.charge_idle_wait(5.0, busy=16, total=32)
        w.note_lanes(busy=16, total=32)
        w.note_lanes(busy=32, total=32)
        k.add_warp(w, samples=64, valid=64)
        summary = k.stall_summary()
        assert summary["stall_long_per_iter"] == pytest.approx(5.0)
        assert summary["stall_wait_per_iter"] == pytest.approx(40.0)
        assert summary["warp_efficiency"] == pytest.approx(48 / 64)

    def test_stall_summary_of_empty_kernel(self):
        summary = KernelProfile().stall_summary()
        assert summary["stall_long_per_iter"] == 0.0
        assert summary["stall_wait_per_iter"] == 0.0
        assert summary["warp_efficiency"] == 1.0


# ---------------------------------------------------------------------------
# utils.timing
# ---------------------------------------------------------------------------
class TestFormatMs:
    def test_unit_selection(self):
        assert format_ms(0.5) == "500.0us"
        assert format_ms(1.0) == "1.0ms"
        assert format_ms(999.9) == "999.9ms"
        assert format_ms(1000.0) == "1.00s"
        assert format_ms(0.0) == "0.0us"

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            format_ms(-1.0)


class TestStopwatch:
    def test_lap_before_start_raises(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            sw.lap("x")
        with pytest.raises(RuntimeError):
            sw.elapsed_ms()

    def test_laps_are_monotone_and_named(self):
        sw = Stopwatch().start()
        first = sw.lap("build")
        second = sw.lap("run")
        assert first >= 0.0 and second >= 0.0
        assert set(sw.laps) == {"build", "run"}
        assert sw.total_ms() == pytest.approx(first + second)

    def test_same_name_accumulates(self):
        sw = Stopwatch().start()
        a = sw.lap("round")
        b = sw.lap("round")
        assert sw.laps["round"] == pytest.approx(a + b)
        assert len(sw.laps) == 1

    def test_lap_resets_the_clock(self):
        sw = Stopwatch().start()
        sw.lap("first")
        # After a lap the reference point moves: elapsed restarts near zero
        # and is never negative (perf_counter is monotonic).
        assert 0.0 <= sw.elapsed_ms() < 1000.0

    def test_elapsed_does_not_record(self):
        sw = Stopwatch().start()
        _ = sw.elapsed_ms()
        assert sw.laps == {}
