import json
import os

import numpy as np
import pytest

from wavehop import (
    MorletParams,
    SynthSpec,
    bench_single,
    cwth_strided,
    extrapolate_dataset,
    make_scale_grid,
    reports_to_jsonl,
    synthesize,
)
from wavehop import bench as bench_module
from wavehop.bench import BenchReport, bench_env, summarize
from wavehop.wavelet import plan_for, schedule

PARAMS = MorletParams()


def small_workload():
    signal = synthesize(SynthSpec("white_noise", 8192, 16_000.0, seed=0))
    grid = make_scale_grid(200.0, 6000.0, 8, 16_000.0, PARAMS)
    return signal, grid


class TestSummarize:
    def test_median_of_five_is_third_smallest(self):
        median, best = summarize([5.0, 1.0, 3.0, 2.0, 4.0])
        assert median == 3.0
        assert best == 1.0

    def test_even_count_averages(self):
        median, best = summarize([4.0, 1.0, 2.0, 3.0])
        assert median == 2.5
        assert best == 1.0


class TestBenchSingle:
    def test_reports_shape_and_reference(self):
        signal, grid = small_workload()
        reports = bench_single(signal, grid, PARAMS, hop=64, reps=3)
        by_method = {r.method: r for r in reports}
        assert set(by_method) == {"cwt_fft", "cwth_strided"}
        full = by_method["cwt_fft"]
        assert full.speedup_vs_full == 1.0
        assert full.hop == 1
        for report in reports:
            assert report.signal_length == 8192
            assert report.scale_count == 8
            assert report.repetitions == 3
            assert report.median_seconds > 0
            assert report.min_seconds <= report.median_seconds
            assert report.speedup_vs_full > 0
        assert by_method["cwth_strided"].hop == 64

    def test_optional_methods(self):
        signal, grid = small_workload()
        reports = bench_single(
            signal, grid, PARAMS, hop=64, reps=3,
            include_decimate=True, include_dwt=True,
        )
        methods = [r.method for r in reports]
        assert methods == ["cwt_fft", "cwth_strided", "cwth_decimate", "dwt"]

    def test_timed_calls_alternate_between_methods(self, monkeypatch):
        calls = []
        methods = ["cwt_fft", "cwth_strided", "cwth_decimate", "dwt_decompose"]
        for name in methods:
            monkeypatch.setattr(bench_module, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        signal, grid = small_workload()
        reports = bench_single(signal, grid, PARAMS, hop=64, reps=3,
                               include_decimate=True, include_dwt=True)
        # a warm-up of every method first, then the timed calls round-robin
        assert calls == methods * (1 + 3)
        assert [r.repetitions for r in reports] == [3] * 4

    def test_rejects_too_few_reps(self):
        signal, grid = small_workload()
        with pytest.raises(ValueError):
            bench_single(signal, grid, PARAMS, hop=64, reps=2)

    def test_timing_does_not_perturb_results(self):
        signal, grid = small_workload()
        before = cwth_strided(signal, grid, PARAMS, 64).values
        bench_single(signal, grid, PARAMS, hop=64, reps=3)
        after = cwth_strided(signal, grid, PARAMS, 64).values
        np.testing.assert_array_equal(before, after)

    def test_hop_one_speedup_stays_near_unity(self):
        signal = synthesize(SynthSpec("white_noise", 65_536, 16_000.0, seed=1))
        grid = make_scale_grid(100.0, 7000.0, 24, 16_000.0, PARAMS)
        reports = bench_single(signal, grid, PARAMS, hop=1, reps=5)
        strided = next(r for r in reports if r.method == "cwth_strided")
        assert 0.5 <= strided.speedup_vs_full <= 2.0


class TestPredictions:
    def test_modelled_methods_carry_the_model_seconds(self):
        signal, grid = small_workload()
        reports = bench_single(signal, grid, PARAMS, hop=64, reps=3, include_dwt=True)
        by_method = {r.method: r for r in reports}
        widths = plan_for(PARAMS, grid).widths
        assert by_method["cwt_fft"].predicted_seconds == schedule(8192, widths, 1).seconds
        assert by_method["cwth_strided"].predicted_seconds == schedule(8192, widths, 64).seconds
        assert by_method["dwt"].predicted_seconds is None

    def test_env_names_versions_cpus_and_threads(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        env = bench_env(3)
        assert env["numpy"] == np.__version__
        assert env["cpu_count"] == os.cpu_count()
        assert env["thread_env"]["OMP_NUM_THREADS"] == "1"
        assert env["thread_env"]["MKL_NUM_THREADS"] is None
        assert env["threads"] == 3


class TestJsonOutput:
    def test_field_names_exact(self):
        report = BenchReport("cwt_fft", 100, 4, 1, 3, 0.5, 0.4, 1.0)
        decoded = json.loads(report.to_json())
        assert list(decoded) == [
            "method",
            "signal_length",
            "scale_count",
            "hop",
            "repetitions",
            "median_seconds",
            "min_seconds",
            "speedup_vs_full",
            "predicted_seconds",
        ]

    def test_jsonl_one_object_per_line(self):
        signal, grid = small_workload()
        reports = bench_single(signal, grid, PARAMS, hop=32, reps=3)
        lines = reports_to_jsonl(reports).strip().split("\n")
        assert len(lines) == len(reports)
        for line, report in zip(lines, reports):
            assert json.loads(line)["method"] == report.method


class TestExtrapolate:
    def test_dataset_scale_arithmetic(self):
        report = BenchReport("cwth_strided", 160_000, 64, 128, 5, 0.15, 0.14, 50.0)
        hours = extrapolate_dataset(report, 54_507)
        assert hours == pytest.approx(0.15 * 54_507 / 3600.0, rel=1e-15)
        assert hours == pytest.approx(2.27, abs=0.005)

    def test_single_file(self):
        report = BenchReport("cwt_fft", 100, 4, 1, 3, 0.5, 0.4, 1.0)
        assert extrapolate_dataset(report, 1) == 0.5 / 3600.0

    def test_rejects_zero_files(self):
        report = BenchReport("cwt_fft", 100, 4, 1, 3, 0.5, 0.4, 1.0)
        with pytest.raises(ValueError):
            extrapolate_dataset(report, 0)


class TestSpeedupMonotonicity:
    @staticmethod
    def _sweep(signal, grid):
        speedups = []
        for hop in (1, 8, 32, 128):
            reports = bench_single(signal, grid, PARAMS, hop=hop, reps=5)
            strided = next(r for r in reports if r.method == "cwth_strided")
            speedups.append(strided.speedup_vs_full)
        return speedups

    def test_speedup_non_decreasing_in_hop(self):
        signal = synthesize(SynthSpec("white_noise", 160_000, 16_000.0, seed=2))
        grid = make_scale_grid(20.0, 0.45 * 16_000.0, 64, 16_000.0, PARAMS)
        speedups = self._sweep(signal, grid)
        if not all(a <= b for a, b in zip(speedups, speedups[1:])):
            # one retry: contention bursts on shared runners can skew a
            # single bench call by more than the gap between hops
            speedups = self._sweep(signal, grid)
        assert all(a <= b for a, b in zip(speedups, speedups[1:])), speedups
