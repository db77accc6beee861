import gc
import math
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len  # the oracle; the package itself must not import SciPy

from wavehop import (
    CoefficientMatrix,
    CoefficientOverflow,
    InvalidCount,
    InvalidHop,
    InvalidParameter,
    InvalidRange,
    InvalidScale,
    MorletParams,
    ScaleGrid,
    SignalBuffer,
    SynthSpec,
    cwt_direct,
    cwt_fft,
    cwth_decimate,
    cwth_strided,
    decimate,
    make_scale_grid,
    sample_wavelet,
    scale_to_frequency,
    synthesize,
)
from wavehop import _kernels, wavelet
from wavehop.cli import run_cli
from wavehop.wavelet import clear_plan_cache, plan_for, schedule
from testutil import assert_rel_close, child_env, write_reference_wav

PARAMS = MorletParams()
# the grids of wavebench's corpus_scan (desk scale) and hop_sweep workloads
DESK_GRID = make_scale_grid(20.0, 7200.0, 64, 16_000.0)
SWEEP_GRID = make_scale_grid(20.0, 7200.0, 8, 16_000.0)


def noise(n, seed, rate=16_000.0):
    rng = np.random.default_rng(seed)
    return SignalBuffer(rng.standard_normal(n), rate)


def scatter_cwt_oracle(signal, grid, params):
    """Brute-force transform with the loops nested the other way round:

    every sample scatters its contribution into all translations whose
    window covers it, instead of each translation gathering a window.
    """
    x = signal.samples
    n_samples = x.size
    out = np.zeros((grid.count, n_samples), dtype=np.complex128)
    for row, scale in enumerate(grid.scales):
        taps = sample_wavelet(params, scale)
        half = taps.size // 2
        for n in range(n_samples):
            if x[n] == 0.0:
                continue
            for j in range(taps.size):
                b = n - (j - half)
                if 0 <= b < n_samples:
                    out[row, b] += x[n] * taps[j]
    return out


class TestMakeScaleGrid:
    def test_single_scale(self):
        grid = make_scale_grid(1000.0, 1000.0, 1, 16_000.0, PARAMS)
        np.testing.assert_array_equal(grid.scales, [16.0])

    def test_geometric_spacing(self):
        grid = make_scale_grid(20.0, 8000.0 - 1e-9, 64, 16_001.0, PARAMS)
        freqs = PARAMS.center_frequency * 16_001.0 / grid.scales
        ratios = freqs[1:] / freqs[:-1]
        expected = (20.0 / (8000.0 - 1e-9)) ** (1.0 / 63.0)
        # scales ascend, so adjacent frequencies shrink by this constant factor
        np.testing.assert_allclose(ratios, expected, rtol=1e-12)
        assert np.all(np.diff(grid.scales) > 0)

    def test_range_errors(self):
        with pytest.raises(InvalidRange):
            make_scale_grid(2000.0, 1000.0, 8, 16_000.0, PARAMS)
        with pytest.raises(InvalidRange):
            make_scale_grid(0.0, 1000.0, 8, 16_000.0, PARAMS)
        with pytest.raises(InvalidRange):
            make_scale_grid(100.0, 8000.0, 8, 16_000.0, PARAMS)  # fmax not < rate/2

    def test_count_errors(self):
        with pytest.raises(InvalidCount):
            make_scale_grid(100.0, 200.0, 0, 16_000.0, PARAMS)
        with pytest.raises(InvalidCount):
            make_scale_grid(100.0, 200.0, 1, 16_000.0, PARAMS)

    @pytest.mark.parametrize("params", [MorletParams(center_frequency=1e-300),
                                        MorletParams(bandwidth=1e-300),
                                        MorletParams(center_frequency=0.08)])
    def test_wavelet_within_a_sample_of_its_centre_is_refused(self, params):
        with pytest.raises(InvalidScale):
            make_scale_grid(20.0, 7200.0, 8, 16_000.0, params)

    def test_wavelet_reaching_one_sample_is_kept(self):
        # the narrowest scale, 0.1 * 16 000 / 7 200, reaches 1.15 samples a side
        grid = make_scale_grid(20.0, 7200.0, 8, 16_000.0, MorletParams(center_frequency=0.1))
        assert sample_wavelet(MorletParams(center_frequency=0.1), grid.scales[0]).size == 5


class TestSampleWavelet:
    def test_center_tap_closed_form(self):
        for scale in (1.0, 4.0, 37.5):
            taps = sample_wavelet(PARAMS, scale)
            center = taps.size // 2
            expected = (math.pi * PARAMS.bandwidth) ** -0.5 / math.sqrt(scale)
            assert taps[center] == pytest.approx(expected, rel=1e-15)
            assert taps[center].imag == 0.0

    def test_center_tap_ratio_follows_normalization(self):
        a1, a2 = 5.0, 45.0
        c1 = abs(sample_wavelet(PARAMS, a1)[sample_wavelet(PARAMS, a1).size // 2])
        c2 = abs(sample_wavelet(PARAMS, a2)[sample_wavelet(PARAMS, a2).size // 2])
        assert c1 / c2 == pytest.approx(math.sqrt(a2 / a1), rel=1e-12)

    def test_magnitude_symmetry(self):
        taps = sample_wavelet(PARAMS, 9.3)
        mags = np.abs(taps)
        np.testing.assert_array_equal(mags, mags[::-1])

    def test_odd_length_and_support(self):
        params = MorletParams(support_radius=6.0)
        for scale in (1.0, 2.5, 80.0):
            taps = sample_wavelet(params, scale)
            assert taps.size % 2 == 1
            half = taps.size // 2
            assert half == math.ceil(6.0 * scale * math.sqrt(params.bandwidth / 2.0))

    def test_edge_taps_negligible(self):
        taps = sample_wavelet(PARAMS, 12.0)
        # support_radius=6 keeps taps out to 6 envelope widths, so the
        # edge tap is at most exp(-18) of the center tap
        assert abs(taps[0]) <= math.exp(-18.0) * np.abs(taps).max()

    def test_invalid_scale(self):
        with pytest.raises(InvalidScale):
            sample_wavelet(PARAMS, 0.0)
        with pytest.raises(InvalidScale):
            sample_wavelet(PARAMS, -3.0)
        with pytest.raises(InvalidScale):
            sample_wavelet(PARAMS, float("nan"))


    def test_scale_past_the_tap_cap_is_refused_before_allocating(self):
        widest = wavelet.MAX_HALF_WIDTH / (PARAMS.support_radius * math.sqrt(PARAMS.bandwidth / 2))
        assert sample_wavelet(PARAMS, widest * (1 - 1e-9)).size <= 2 * wavelet.MAX_HALF_WIDTH + 1
        for scale in (widest * (1 + 1e-9), 1e300):
            tracemalloc.start()
            try:
                with pytest.raises(InvalidScale):
                    sample_wavelet(PARAMS, scale)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**16

    @pytest.mark.parametrize("params,scale", [(PARAMS, 1e-300),
                                              (MorletParams(bandwidth=1e-300), 1e-10)])
    def test_vanishing_scale_samples_its_far_taps_as_zeros(self, params, scale):
        # t * t, or t * t / bandwidth, would overflow; this suite turns warnings into errors
        taps = sample_wavelet(params, scale)
        assert taps.size == 3
        np.testing.assert_array_equal(taps[[0, 2]], 0.0)
        expected = (math.pi * params.bandwidth) ** -0.5 / math.sqrt(scale)
        assert taps[1] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("bandwidth", [0.5, 1.5, 4.0])
    @pytest.mark.parametrize("scale", [0.3, 1.0, 9.3, 80.0, 2500.0])
    def test_taps_equal_the_closed_form_bit_for_bit(self, bandwidth, scale):
        params = MorletParams(center_frequency=1.3, bandwidth=bandwidth)
        half = math.ceil(params.support_radius * scale * math.sqrt(bandwidth / 2.0))
        t = np.arange(-half, half + 1) / scale
        envelope = (math.pi * bandwidth) ** -0.5 * np.exp(-(t * t) / bandwidth)
        expected = envelope * np.exp(2j * np.pi * params.center_frequency * t) / math.sqrt(scale)
        np.testing.assert_array_equal(sample_wavelet(params, scale), expected)

    @pytest.mark.parametrize("field", ["center_frequency", "bandwidth", "support_radius"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters_are_refused(self, field, value):
        with pytest.raises(InvalidParameter):
            MorletParams(**{field: value})


class TestScaleToFrequency:
    def test_closed_form(self):
        assert scale_to_frequency(16.0, PARAMS, 16_000.0) == 1000.0

    def test_grid_round_trip(self):
        grid = make_scale_grid(440.0, 440.0, 1, 16_000.0, PARAMS)
        assert scale_to_frequency(grid.scales[0], PARAMS, 16_000.0) == pytest.approx(
            440.0, rel=1e-15
        )

    def test_strictly_decreasing_in_scale(self):
        scales = np.geomspace(2.0, 500.0, 20)
        freqs = [scale_to_frequency(a, PARAMS, 16_000.0) for a in scales]
        assert all(f1 > f2 for f1, f2 in zip(freqs, freqs[1:]))

    def test_invalid(self):
        with pytest.raises(InvalidScale):
            scale_to_frequency(-1.0, PARAMS, 16_000.0)


class TestCwtDirect:
    def test_zero_signal(self):
        grid = make_scale_grid(500.0, 4000.0, 5, 16_000.0, PARAMS)
        out = cwt_direct(SignalBuffer(np.zeros(128), 16_000.0), grid, PARAMS)
        assert np.all(out.values == 0)

    def test_impulse_sifts_the_wavelet(self):
        grid = make_scale_grid(500.0, 4000.0, 5, 16_000.0, PARAMS)
        n0 = 300
        sig = synthesize(SynthSpec("impulse", 600, 16_000.0, position=n0))
        out = cwt_direct(sig, grid, PARAMS)
        for row, scale in enumerate(grid.scales):
            taps = sample_wavelet(PARAMS, scale)
            center = taps.size // 2
            assert out.values[row, n0] == taps[center]
            # the whole row is the reversed tap sequence around n0
            for b in (n0 - 7, n0 + 3):
                assert out.values[row, b] == taps[center + n0 - b]

    def test_matches_scatter_oracle(self):
        sig = noise(256, seed=11)
        grid = make_scale_grid(800.0, 4000.0, 6, 16_000.0, PARAMS)
        expected = scatter_cwt_oracle(sig, grid, PARAMS)
        out = cwt_direct(sig, grid, PARAMS)
        assert_rel_close(out.values, expected, 1e-12)

    def test_metadata(self):
        grid = make_scale_grid(500.0, 4000.0, 4, 16_000.0, PARAMS)
        out = cwt_direct(noise(64, seed=2), grid, PARAMS)
        assert out.hop == 1
        assert out.source_rate == 16_000.0
        assert out.columns == 64
        assert out.rows == 4


class TestCwtFft:
    def test_matches_direct(self):
        self.check_matches_direct(1024, has_direct_row=False)

    def test_matches_direct_with_direct_rows(self):
        # cwt_fft routes its rows as cwth_strided does at hop 1: on this grid, the narrowest
        # goes direct at 12 200 samples and none at 1 024
        self.check_matches_direct(12_200, has_direct_row=True)

    @staticmethod
    def check_matches_direct(n, has_direct_row):
        sig = noise(n, seed=5)
        grid = make_scale_grid(200.0, 6000.0, 16, 16_000.0, PARAMS)
        routes = schedule(n, plan_for(PARAMS, grid).widths, 1).routes
        assert (not all(routes)) == has_direct_row
        reference = cwt_direct(sig, grid, PARAMS)
        fast = cwt_fft(sig, grid, PARAMS)
        assert_rel_close(fast.values, reference.values, 1e-9)

    def test_zero_signal(self):
        grid = make_scale_grid(500.0, 4000.0, 3, 16_000.0, PARAMS)
        out = cwt_fft(SignalBuffer(np.zeros(256), 16_000.0), grid, PARAMS)
        assert_rel_close(out.values, np.zeros_like(out.values), 1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        grid = make_scale_grid(300.0, 5000.0, 8, 16_000.0, PARAMS)
        x = noise(512, seed=7)
        y = noise(512, seed=8)
        alpha, beta = rng.uniform(-1, 1, 2)
        combined = SignalBuffer(alpha * x.samples + beta * y.samples, 16_000.0)
        lhs = cwt_fft(combined, grid, PARAMS).values
        rhs = alpha * cwt_fft(x, grid, PARAMS).values + beta * cwt_fft(y, grid, PARAMS).values
        assert_rel_close(lhs, rhs, 1e-9)

    def test_threaded_rows_identical(self):
        sig = noise(2048, seed=9)
        grid = make_scale_grid(100.0, 7000.0, 12, 16_000.0, PARAMS)
        single = cwt_fft(sig, grid, PARAMS, threads=1)
        multi = cwt_fft(sig, grid, PARAMS, threads=4)
        np.testing.assert_array_equal(single.values, multi.values)

    def test_shift_covariance_in_the_interior(self):
        sig = noise(2048, seed=10)
        grid = make_scale_grid(1000.0, 6000.0, 8, 16_000.0, PARAMS)
        shift = 64
        shifted = SignalBuffer(
            np.concatenate([np.zeros(shift), sig.samples[:-shift]]), 16_000.0
        )
        base = cwt_fft(sig, grid, PARAMS).values
        moved = cwt_fft(shifted, grid, PARAMS).values
        widest = max(
            sample_wavelet(PARAMS, s).size for s in grid.scales
        )
        margin = widest + shift
        assert_rel_close(
            moved[:, margin: 2048 - margin],
            base[:, margin - shift: 2048 - margin - shift],
            1e-9,
        )


class TestCwthStrided:
    def test_hop_one_equals_full(self):
        sig = noise(2048, seed=12)
        grid = make_scale_grid(100.0, 7000.0, 10, 16_000.0, PARAMS)
        full = cwt_fft(sig, grid, PARAMS)
        hopped = cwth_strided(sig, grid, PARAMS, 1)
        assert hopped.values.shape == full.values.shape
        assert_rel_close(hopped.values, full.values, 1e-12)

    @pytest.mark.parametrize("hop", [1, 2, 7, 128])
    def test_columns_equal_subsampled_full(self, hop):
        sig = noise(4096, seed=13)
        grid = make_scale_grid(60.0, 7000.0, 12, 16_000.0, PARAMS)
        full = cwt_fft(sig, grid, PARAMS)
        hopped = cwth_strided(sig, grid, PARAMS, hop)
        assert hopped.columns == math.ceil(4096 / hop)
        assert_rel_close(hopped.values, full.values[:, ::hop], 1e-9)

    def test_paper_scale_frame_count(self):
        sig = noise(160_000, seed=14)
        grid = make_scale_grid(500.0, 4000.0, 4, 16_000.0, PARAMS)
        out = cwth_strided(sig, grid, PARAMS, 128)
        assert out.columns == 1250
        assert out.hop == 128
        assert out.source_rate == 16_000.0

    def test_linearity(self):
        grid = make_scale_grid(300.0, 5000.0, 6, 16_000.0, PARAMS)
        x = noise(1500, seed=15)
        y = noise(1500, seed=16)
        combined = SignalBuffer(0.3 * x.samples - 0.7 * y.samples, 16_000.0)
        lhs = cwth_strided(combined, grid, PARAMS, 32).values
        rhs = (
            0.3 * cwth_strided(x, grid, PARAMS, 32).values
            - 0.7 * cwth_strided(y, grid, PARAMS, 32).values
        )
        assert_rel_close(lhs, rhs, 1e-9)

    def test_threaded_rows_identical(self):
        sig = noise(8192, seed=17)
        grid = make_scale_grid(100.0, 7000.0, 12, 16_000.0, PARAMS)
        single = cwth_strided(sig, grid, PARAMS, 64, threads=1)
        multi = cwth_strided(sig, grid, PARAMS, 64, threads=3)
        np.testing.assert_array_equal(single.values, multi.values)

    def test_invalid_hop(self):
        grid = make_scale_grid(500.0, 4000.0, 3, 16_000.0, PARAMS)
        with pytest.raises(InvalidHop):
            cwth_strided(noise(100, seed=0), grid, PARAMS, 0)


@pytest.fixture
def recorded_pools(monkeypatch):
    """Weak references to every row pool the transforms build, from an empty pool cache."""
    pools = []

    class Recorded(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(weakref.ref(self))

    monkeypatch.setattr(wavelet, "ThreadPoolExecutor", Recorded)
    wavelet._pool.cache_clear()
    yield pools
    wavelet._pool.cache_clear()


class TestRowPool:
    def test_one_thread_builds_no_pool(self, recorded_pools):
        cwth_strided(noise(8192, seed=50), SWEEP_GRID, PARAMS, 8, threads=1)
        assert recorded_pools == []

    def test_successive_calls_share_one_pool(self, recorded_pools):
        sig = noise(8192, seed=51)
        for _ in range(2):
            cwth_strided(sig, SWEEP_GRID, PARAMS, 8, threads=2)
        assert len(recorded_pools) == 1

    def test_another_thread_count_drops_the_pool(self, recorded_pools):
        sig = noise(8192, seed=52)
        cwth_strided(sig, SWEEP_GRID, PARAMS, 8, threads=2)
        workers = list(recorded_pools[0]()._threads)
        assert workers
        cwth_strided(sig, SWEEP_GRID, PARAMS, 8, threads=3)
        gc.collect()
        assert [ref() is not None for ref in recorded_pools] == [False, True]
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)

    def test_concurrent_calls_at_changing_thread_counts(self):
        # callers that swap the cached pool under one another still get every row
        sig = noise(4096, seed=55)
        want = cwth_strided(sig, SWEEP_GRID, PARAMS, 8).values
        errors = []

        def worker(offset):
            try:
                for k in range(6):
                    threads = 2 + (offset + k) % 2
                    got = cwth_strided(sig, SWEEP_GRID, PARAMS, 8, threads=threads).values
                    if not np.array_equal(got, want):
                        errors.append(f"coefficients moved at threads={threads}")
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert errors == []

    def test_forked_child_runs_rows_on_a_pool_of_its_own(self):
        # the grandchild is killed by its alarm if it waits on its parent's pool threads
        script = textwrap.dedent("""
            import os, signal, sys
            import numpy as np
            from wavehop import SignalBuffer, cwth_strided, make_scale_grid
            grid = make_scale_grid(100.0, 7000.0, 12, 16000.0)
            sig = SignalBuffer(np.random.default_rng(53).standard_normal(8192), 16000.0)
            want = cwth_strided(sig, grid, hop=64, threads=2).values
            pid = os.fork()
            if pid == 0:
                signal.alarm(30)
                got = cwth_strided(sig, grid, hop=64, threads=2).values
                os._exit(0 if np.array_equal(got, want) else 3)
            sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
        child = subprocess.run([sys.executable, "-c", script], env=child_env(),
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr


class TestKernelCalls:
    """Each direct kernel call has the form wavebench's traced hook unpacks."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("transform", [
        lambda sig, threads: cwth_strided(sig, SWEEP_GRID, PARAMS, 128, threads=threads),
        lambda sig, threads: cwt_fft(sig, SWEEP_GRID, PARAMS, threads=threads),
        lambda sig, threads: cwth_decimate(sig, SWEEP_GRID, PARAMS, 4, True, threads=threads),
    ], ids=["cwth_strided", "cwt_fft", "cwth_decimate"])
    def test_five_positional_arguments(self, monkeypatch, transform, threads):
        calls = []
        kernel = _kernels.strided_correlate

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(_kernels, "strided_correlate", recorded)
        transform(noise(20_000, seed=54), threads)
        assert calls
        for args, kwargs in calls:
            assert len(args) == 5 and kwargs == {}
            _, taps_re, taps_im, hop, frames = args
            assert isinstance(taps_re, np.ndarray) and taps_re.ndim == 1
            assert taps_im is None or (taps_im.ndim == 1 and taps_im.shape == taps_re.shape)
            assert isinstance(hop, int) and hop >= 1
            assert isinstance(frames, int) and frames >= 1


def tap_counts(grid):
    return [sample_wavelet(PARAMS, s).size for s in grid.scales]


class TestRouting:
    def test_desk_grid_routes_every_row_direct(self, monkeypatch):
        assert schedule(160_000, tap_counts(DESK_GRID), 128).routes == (False,) * 64
        calls = []
        kernel = _kernels.strided_correlate

        def counted(*args):
            calls.append(args[3])
            return kernel(*args)

        monkeypatch.setattr(_kernels, "strided_correlate", counted)
        cwth_strided(noise(160_000, seed=30), DESK_GRID, PARAMS, 128)
        assert calls == [128] * 64

    def test_no_class_holds_a_direct_row(self):
        # n = 320 000 at hop 8 on the sweep grid: the four narrowest rows go direct
        sched = schedule(320_000, tap_counts(SWEEP_GRID), 8)
        assert sched.routes.count(False) == 4
        assert all(sched.routes[row] for cls in sched.classes for row in cls.rows)

    @pytest.mark.parametrize("n", [2_000, 320_000])
    def test_hop_one_routes_long_rows_spectral(self, n):
        widths = tap_counts(SWEEP_GRID)
        routes = list(schedule(n, widths, 1).routes)
        # at hop 1 the direct kernel can only win on the shortest rows
        assert routes == sorted(routes)
        assert all(spectral for spectral, w in zip(routes, widths) if w >= 127)
        sig = noise(n, seed=31)
        full = cwt_fft(sig, SWEEP_GRID, PARAMS).values
        hopped = cwth_strided(sig, SWEEP_GRID, PARAMS, 1).values
        # a spectral row at hop 1 is cwt_fft's row, bit for bit
        np.testing.assert_array_equal(hopped[routes], full[routes])
        assert_rel_close(hopped, full, 1e-12)

    @pytest.mark.parametrize("hop", [1, 8, 32, 128])
    def test_repeat_calls_are_bit_identical(self, hop):
        sig = noise(20_000, seed=32)
        first = cwth_strided(sig, SWEEP_GRID, PARAMS, hop).values
        second = cwth_strided(sig, SWEEP_GRID, PARAMS, hop).values
        np.testing.assert_array_equal(first, second)

    def test_prime_hop_makes_the_fft_dearer(self):
        assert _kernels.fft_seconds(127 * 2592) > 2 * _kernels.fft_seconds(128 * 2592)

    def test_hop_far_beyond_the_signal_is_sized_by_the_signal(self):
        sig = noise(1_000, seed=33)
        grid = make_scale_grid(500.0, 4000.0, 4, 16_000.0)
        at_n = cwth_strided(sig, grid, PARAMS, 1_000).values  # builds the plan first
        tracemalloc.start()
        try:
            far = cwth_strided(sig, grid, PARAMS, 2**22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert far.hop == 2**22 and far.columns == 1
        assert_rel_close(far.values, at_n, 1e-12)
        assert peak < 2**20  # a padding sized by the hop would alone take 64 MiB


# the lengths and hops of the speedup surface that ``wavehop bench`` sweeps
SURFACE_LENGTHS = (2_000, 8_000, 25_000, 80_000, 160_000, 320_000)
SURFACE_HOPS = (1, 2, 4, 8, 32, 128, 512)


@pytest.mark.parametrize("grid", [SWEEP_GRID, DESK_GRID], ids=["sweep", "desk"])
class TestCostModel:
    """Timing-free checks of the seconds model over the speedup surface."""

    def test_strided_is_never_priced_above_cwt_fft(self, grid):
        widths = tap_counts(grid)
        for n in SURFACE_LENGTHS:
            full = schedule(n, widths, 1).seconds  # cwt_fft
            for hop in SURFACE_HOPS:
                assert schedule(n, widths, hop).seconds <= full, (n, hop)

    def test_routes_are_never_priced_above_every_row_spectral(self, grid):
        # all rows direct, and all rows in one single-block class, are both
        # schedules the shortest-path pass weighs, at any hop
        widths = tap_counts(grid)
        for n in SURFACE_LENGTHS:
            reach = tuple(min(w, 2 * n - 1) for w in widths)
            for hop in SURFACE_HOPS:
                sched = schedule(n, widths, hop)
                assert sched.seconds <= sum(sched.direct_s) * (1 + 1e-12), (n, hop)
                one = wavelet.class_options(n, max(reach) // 2, sched.hop)[0]
                assert one.blocks == 1 and one.block_len >= n + max(reach) // 2
                spectral = one.spectra_seconds() + len(reach) * one.row_seconds(sched.hop)
                assert sched.seconds <= spectral * (1 + 1e-12), (n, hop)

    def test_seconds_are_the_explained_rows_and_class_spectra(self, grid):
        plan = plan_for(PARAMS, grid)
        for n in SURFACE_LENGTHS:
            for hop in SURFACE_HOPS:
                sched = schedule(n, plan.widths, hop)
                records = plan.explain(n, hop)
                assert [r["route"] == "spectral" for r in records] == list(sched.routes)
                spectral = {r["class"] for r in records if r["route"] == "spectral"}
                rebuilt = sum(r["spectral_s"] if r["route"] == "spectral" else r["direct_s"]
                              for r in records)
                rebuilt += sum(sched.classes[index].spectra_seconds() for index in spectral)
                assert math.isclose(sched.seconds, rebuilt, rel_tol=1e-12), (n, hop)

    def test_layout_is_never_priced_above_one_block(self, grid):
        # the classes partition exactly the spectral rows, each in a layout its pad may take
        widths = tap_counts(grid)
        for n in SURFACE_LENGTHS:
            reach = tuple(min(w, 2 * n - 1) for w in widths)
            for hop in SURFACE_HOPS:
                sched = schedule(n, widths, hop)
                spectral = [row for row, route in enumerate(sched.routes) if route]
                assert sorted(row for cls in sched.classes for row in cls.rows) == spectral
                for cls in sched.classes:
                    assert cls.pad == max(reach[row] for row in cls.rows) // 2, (n, hop)
                    shapes = [(o.block_len, o.step, o.blocks)
                              for o in wavelet.class_options(n, cls.pad, sched.hop)]
                    assert (cls.block_len, cls.step, cls.blocks) in shapes, (n, hop)


def plan_cache_size():
    return wavelet._build_plan.cache_info().currsize


@pytest.fixture
def cold_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.mark.usefixtures("cold_cache")
class TestPlanCache:
    @pytest.mark.parametrize("hop", [1, 8, 32, 128])
    def test_cached_call_equals_cold_call(self, hop):
        sig = noise(20_000, seed=40)
        cwth_strided(sig, SWEEP_GRID, PARAMS, hop)
        cached = cwth_strided(sig, SWEEP_GRID, PARAMS, hop).values
        cached_full = cwt_fft(sig, SWEEP_GRID, PARAMS).values
        clear_plan_cache()
        cold = cwth_strided(sig, SWEEP_GRID, PARAMS, hop).values
        clear_plan_cache()
        cold_full = cwt_fft(sig, SWEEP_GRID, PARAMS).values
        np.testing.assert_array_equal(cached, cold)
        np.testing.assert_array_equal(cached_full, cold_full)

    def test_key_is_the_parameter_values_and_scales(self):
        params = MorletParams()
        plan = plan_for(params, SWEEP_GRID)
        assert plan_for(MorletParams(), ScaleGrid(SWEEP_GRID.scales.copy())) is plan
        params.bandwidth = 2.0
        mutated = plan_for(params, SWEEP_GRID)
        assert mutated is not plan
        np.testing.assert_array_equal(
            mutated.taps[3][0], sample_wavelet(MorletParams(bandwidth=2.0), SWEEP_GRID.scales[3]).real
        )
        other = plan_for(PARAMS, ScaleGrid(SWEEP_GRID.scales * 1.5))
        assert other is not plan and other.widths != plan.widths

    def test_mutated_params_change_the_coefficients(self):
        sig = noise(5_000, seed=41)
        params = MorletParams()
        before = cwth_strided(sig, SWEEP_GRID, params, 8).values
        params.bandwidth = 2.5
        after = cwth_strided(sig, SWEEP_GRID, params, 8).values
        want = cwth_strided(sig, SWEEP_GRID, MorletParams(bandwidth=2.5), 8).values
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, want)

    def test_cache_never_exceeds_its_bound(self):
        grids = [make_scale_grid(100.0 + 10 * i, 4000.0, 3, 16_000.0) for i in range(20)]
        for grid in grids:
            plan_for(PARAMS, grid)
            assert plan_cache_size() <= wavelet.PLAN_CACHE_SIZE
        assert plan_cache_size() == wavelet.PLAN_CACHE_SIZE
        # least recently used go first: touching the oldest survivor keeps it
        oldest = grids[-wavelet.PLAN_CACHE_SIZE]
        kept = plan_for(PARAMS, oldest)
        plan_for(PARAMS, grids[0])
        assert plan_for(PARAMS, oldest) is kept

    def test_taps_are_sampled_only_on_the_first_call(self, monkeypatch):
        calls = []
        original = wavelet.sample_wavelet

        def counted(params, scale):
            calls.append(scale)
            return original(params, scale)

        monkeypatch.setattr(wavelet, "sample_wavelet", counted)
        sig = noise(4_000, seed=42)
        cwth_strided(sig, SWEEP_GRID, PARAMS, 32)
        assert len(calls) == SWEEP_GRID.count
        cwth_strided(sig, SWEEP_GRID, PARAMS, 32)
        cwt_fft(sig, SWEEP_GRID, PARAMS)
        assert len(calls) == SWEEP_GRID.count

    def test_concurrent_lookups_keep_the_bound_and_the_keys(self):
        grids = [make_scale_grid(100.0 + 10 * i, 4000.0, 3, 16_000.0) for i in range(12)]
        errors = []

        def worker(offset):
            try:
                for k in range(60):
                    grid = grids[(offset + k) % len(grids)]
                    plan = plan_for(PARAMS, grid)
                    if not np.array_equal(plan.scales, grid.scales):
                        errors.append("plan of another grid")
                    if plan_cache_size() > wavelet.PLAN_CACHE_SIZE:
                        errors.append("bound exceeded")
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert plan_cache_size() == wavelet.PLAN_CACHE_SIZE

    def test_cached_arrays_are_read_only(self):
        plan = plan_for(PARAMS, SWEEP_GRID)
        taps_re, taps_im = plan.taps[0]
        for array in (plan.scales, taps_re, taps_im):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_threaded_scan_of_identical_files_is_byte_identical(self, tmp_path):
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        samples = np.random.default_rng(43).integers(-20_000, 20_000, 6_000, dtype=np.int16)
        for i in range(6):
            write_reference_wav(in_dir / f"f{i}.wav", samples, 16_000)
        base = ["--hop", "16", "--scales", "6", "--fmin", "200", "--fmax", "6000"]
        assert run_cli(["scan", str(in_dir), "--out-dir", str(tmp_path / "t"),
                        "--threads", "2"] + base) == 0
        clear_plan_cache()
        assert run_cli(["scan", str(in_dir), "--out-dir", str(tmp_path / "s")] + base) == 0
        blobs = {(tmp_path / d / f"f{i}.scg1").read_bytes() for d in "ts" for i in range(6)}
        assert len(blobs) == 1


class TestExplain:
    @pytest.mark.parametrize("grid,n,hop", [(DESK_GRID, 160_000, 128), (DESK_GRID, 160_000, 1),
                                            (SWEEP_GRID, 2_000, 1), (SWEEP_GRID, 320_000, 8)])
    def test_routes_match_the_router(self, grid, n, hop):
        records = plan_for(PARAMS, grid).explain(n, hop)
        widths = tap_counts(grid)
        routes = list(schedule(n, widths, hop).routes)
        assert [r["route"] == "spectral" for r in records] == routes
        assert [r["taps"] for r in records] == widths
        assert [r["scale"] for r in records] == list(grid.scales)
        if grid is DESK_GRID and hop == 128:
            assert not any(routes)
        frames = -(-n // hop)
        # a lag of n or more meets no sample, so rows are priced on at most 2n - 1 taps
        reach = tuple(min(w, 2 * n - 1) for w in widths)
        classes = schedule(n, widths, hop).classes
        for row, record in enumerate(records):
            assert record["direct_s"] == _kernels.direct_seconds(reach[row], hop, frames)
            if record["route"] == "direct":  # a direct row has no class
                fields = [record[k] for k in ("spectral_s", "block_len", "blocks", "class")]
                assert fields == [None] * 4
                continue
            cls = classes[record["class"]]
            assert row in cls.rows
            assert (record["block_len"], record["blocks"]) == (cls.block_len, cls.blocks)
            assert record["spectral_s"] == _kernels.spectral_seconds(cls.block_len, hop, cls.blocks)


class TestCwthDecimate:
    def test_hop_one_equals_full(self):
        sig = noise(1024, seed=18)
        grid = make_scale_grid(100.0, 7000.0, 8, 16_000.0, PARAMS)
        full = cwt_fft(sig, grid, PARAMS)
        out = cwth_decimate(sig, grid, PARAMS, 1)
        np.testing.assert_array_equal(out.values, full.values)

    def test_equals_transform_of_decimated_signal(self):
        sig = noise(4000, seed=19)
        grid = make_scale_grid(50.0, 800.0, 6, 16_000.0, PARAMS)
        out = cwth_decimate(sig, grid, PARAMS, 4)
        inner = cwt_fft(decimate(sig, 4), grid, PARAMS)
        np.testing.assert_array_equal(out.values, inner.values)
        assert out.columns == math.ceil(4000 / 4)
        assert out.hop == 4
        assert out.source_rate == 4000.0

    def test_sine_peaks_at_expected_row(self):
        sig = synthesize(SynthSpec("sine", 8192, 16_000.0, frequency=1000.0))
        grid = make_scale_grid(100.0, 3500.0, 32, 8000.0, PARAMS)
        out = cwth_decimate(sig, grid, PARAMS, 2)
        power = np.mean(np.abs(out.values) ** 2, axis=1)
        peak_freq = scale_to_frequency(grid.scales[int(np.argmax(power))], PARAMS, 8000.0)
        grid_freqs = PARAMS.center_frequency * 8000.0 / grid.scales
        closest = grid_freqs[np.argmin(np.abs(grid_freqs - 1000.0))]
        assert peak_freq == pytest.approx(closest, rel=1e-12)

    def test_distinct_from_strided(self):
        # 6 kHz content folds to DC after decimation by 128 but is fully
        # visible to the strided path; the two operators must disagree
        sig = synthesize(SynthSpec("sine", 16_384, 16_000.0, frequency=6000.0))
        grid = make_scale_grid(10.0, 50.0, 6, 16_000.0, PARAMS)
        strided = cwth_strided(sig, grid, PARAMS, 128)
        decimated = cwth_decimate(sig, grid, PARAMS, 128)
        assert strided.values.shape == decimated.values.shape
        assert not np.allclose(strided.values, decimated.values, rtol=1e-3, atol=1e-9)


class TestLinearityOfAllPaths:
    @pytest.mark.parametrize(
        "transform",
        [
            lambda sig, grid: cwt_direct(sig, grid, PARAMS).values,
            lambda sig, grid: cwt_fft(sig, grid, PARAMS).values,
            lambda sig, grid: cwth_strided(sig, grid, PARAMS, 16).values,
            lambda sig, grid: cwth_decimate(sig, grid, PARAMS, 16).values,
        ],
        ids=["direct", "fft", "strided", "decimate"],
    )
    def test_linear_combination(self, transform):
        rng = np.random.default_rng(20)
        grid = make_scale_grid(800.0, 4000.0, 5, 16_000.0, PARAMS)
        x = noise(400, seed=21)
        y = noise(400, seed=22)
        alpha, beta = rng.uniform(-1, 1, 2)
        combined = SignalBuffer(alpha * x.samples + beta * y.samples, 16_000.0)
        lhs = transform(combined, grid)
        rhs = alpha * transform(x, grid) + beta * transform(y, grid)
        assert_rel_close(lhs, rhs, 1e-9)


class TestImpulseNormalization:
    def test_peak_magnitude_tracks_inverse_sqrt_scale(self):
        n = 4096
        sig = synthesize(SynthSpec("impulse", n, 16_000.0, position=n // 2))
        grid = make_scale_grid(500.0, 6000.0, 16, 16_000.0, PARAMS)
        out = cwt_fft(sig, grid, PARAMS)
        peaks = np.abs(out.values).max(axis=1)
        expected = (math.pi * PARAMS.bandwidth) ** -0.5 / np.sqrt(grid.scales)
        assert_rel_close(peaks, expected, 1e-6)


class TestOverflow:
    def test_samples_that_could_overflow_are_refused_before_any_work(self):
        grid = ScaleGrid([4.0, 40.0])
        peak = _kernels.SAFE_PEAK / plan_for(PARAMS, grid).gain
        x = np.zeros(300)
        x[7] = -peak * 1.01
        for hop in (1, 8):
            with pytest.raises(CoefficientOverflow):
                cwth_strided(SignalBuffer(x, 16_000.0), grid, PARAMS, hop)
        x[7] = -peak * 0.99
        assert np.isfinite(cwth_strided(SignalBuffer(x, 16_000.0), grid, PARAMS, 1).values).all()


class TestNextFastLen:
    """The block lengths ``class_options`` takes equal SciPy's, so no layout moves."""

    def test_every_target_to_70000(self):
        targets = range(1, 70_001)
        assert [wavelet._next_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]

    @settings(max_examples=500, deadline=None)
    @given(target=st.integers(1, 2**32))
    def test_drawn_targets_up_to_the_table_end(self, target):
        assert wavelet._next_fast_len(target) == next_fast_len(target)

    @pytest.mark.parametrize("target", [wavelet.SMOOTH_LIMIT + 1, 5 * 10**9, 3**21 + 1, 2**40 + 3])
    def test_targets_past_the_table(self, target):
        assert target > wavelet.SMOOTH_LIMIT
        assert wavelet._next_fast_len(target) == next_fast_len(target)


class TestCoefficientMatrix:
    def test_row_count_must_match_grid(self):
        grid = ScaleGrid([1.0, 2.0])
        with pytest.raises(ValueError):
            CoefficientMatrix(np.zeros((3, 4), complex), 1, 16_000.0, grid)

    def test_invalid_hop(self):
        grid = ScaleGrid([1.0, 2.0])
        with pytest.raises(InvalidHop):
            CoefficientMatrix(np.zeros((2, 4), complex), 0, 16_000.0, grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ScaleGrid([2.0, 1.0])
        with pytest.raises(ValueError):
            ScaleGrid([-1.0, 1.0])
        with pytest.raises(ValueError):
            ScaleGrid([])

    @pytest.mark.parametrize("scales", [[2.0, 1.0], [-1.0, 1.0], [0.0], [], [[1.0, 2.0]],
                                        [1.0, math.inf], [math.inf, math.inf], [math.nan]])
    def test_bad_grid_is_invalid_scale(self, scales):
        with pytest.raises(InvalidScale):
            ScaleGrid(scales)
