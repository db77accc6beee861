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
from wavehop.bench import bench_single
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

    def test_scales_past_the_largest_double_are_refused_without_a_warning(self):
        # rate / fmin overflows; warnings are errors in this suite
        with pytest.raises(InvalidScale, match="finite"):
            make_scale_grid(1e-300, 1.0, 4, 1e300, PARAMS)

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


# not whole numbers >= 1, of every type a caller might pass
BAD_COUNTS = [None, math.nan, math.inf, -math.inf, 0, -3, 2.5, "2", 1j, np.float64(2.5)]
BAD_IDS = [repr(value) for value in BAD_COUNTS]


class TestIntegerArguments:
    """A bad ``hop`` or ``threads`` ends in a typed error before any work, whatever its type."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("work began before the arguments were checked")

        monkeypatch.setattr(wavelet.CwtPlan, "execute", work)
        monkeypatch.setattr(_kernels, "strided_correlate", work)

    @pytest.mark.parametrize("hop", BAD_COUNTS, ids=BAD_IDS)
    def test_bad_hop_is_invalid_hop(self, hop, no_work):
        sig, grid = noise(300, seed=70), SWEEP_GRID
        calls = [lambda: cwth_strided(sig, grid, PARAMS, hop),
                 lambda: cwth_decimate(sig, grid, PARAMS, hop),
                 lambda: cwth_decimate(sig, grid, PARAMS, hop, anti_alias=True),
                 lambda: decimate(sig, hop), lambda: decimate(sig, hop, anti_alias=True),
                 lambda: bench_single(sig, grid, PARAMS, hop, reps=3)]
        for call in calls:
            with pytest.raises(InvalidHop, match="hop must be an integer >= 1"):
                call()

    @pytest.mark.parametrize("threads", BAD_COUNTS, ids=BAD_IDS)
    def test_bad_threads_is_invalid_parameter(self, threads, no_work):
        sig, grid = noise(300, seed=71), SWEEP_GRID
        calls = [lambda: cwth_strided(sig, grid, PARAMS, 8, threads=threads),
                 lambda: cwt_fft(sig, grid, PARAMS, threads=threads),
                 lambda: cwth_decimate(sig, grid, PARAMS, 4, True, threads=threads),
                 lambda: bench_single(sig, grid, PARAMS, 8, reps=3, threads=threads)]
        for call in calls:
            with pytest.raises(InvalidParameter, match="threads must be an integer >= 1"):
                call()

    @pytest.mark.parametrize("value", BAD_COUNTS, ids=BAD_IDS)
    def test_schedule_and_the_plan_check_their_own_arguments(self, value, monkeypatch):
        """``schedule``, ``CwtPlan.explain`` and ``CwtPlan.execute`` refuse a bad length, hop or
        thread count before they schedule anything."""
        def work(*args, **kwargs):
            raise AssertionError("scheduling began before the arguments were checked")

        plan, x = plan_for(PARAMS, SWEEP_GRID), noise(1_000, seed=73).samples
        monkeypatch.setattr(wavelet, "_schedule", work)
        checks = [(InvalidHop, "hop", lambda: schedule(1_000, plan.widths, value)),
                  (InvalidHop, "hop", lambda: plan.explain(1_000, value)),
                  (InvalidHop, "hop", lambda: plan.execute(x, value)),
                  (InvalidParameter, "n", lambda: schedule(value, plan.widths, 8)),
                  (InvalidParameter, "n", lambda: plan.explain(value, 8)),
                  (InvalidParameter, "n", lambda: plan.execute(np.zeros(0), 8)),
                  (InvalidParameter, "threads", lambda: plan.execute(x, 8, value))]
        for error, name, call in checks:
            with pytest.raises(error, match=f"^{name} must be an integer >= 1"):
                call()

    def test_any_whole_thread_count_gives_the_same_bytes(self):
        sig = noise(20_000, seed=72)
        for call in (lambda threads: cwth_strided(sig, DESK_GRID, PARAMS, 32, threads=threads),
                     lambda threads: cwt_fft(sig, SWEEP_GRID, PARAMS, threads=threads),
                     lambda threads: cwth_decimate(sig, DESK_GRID, PARAMS, 4, True,
                                                   threads=threads)):
            first = call(1).values.tobytes()
            assert all(call(threads).values.tobytes() == first for threads in (2, np.int64(3)))


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
    """Each direct kernel call has the form its callers and wavebench's traced hook unpack:
    ``stacked_correlate(xpad, stack, frames)`` for a transform's stacks of direct rows, and
    ``strided_correlate(xpad, taps_re, taps_im, hop, frames)`` for ``decimate``'s FIR."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("transform,filtered", [
        (lambda sig, threads: cwth_strided(sig, SWEEP_GRID, PARAMS, 128, threads=threads), False),
        (lambda sig, threads: cwt_fft(sig, SWEEP_GRID, PARAMS, threads=threads), False),
        (lambda sig, threads: cwth_decimate(sig, SWEEP_GRID, PARAMS, 4, True, threads=threads),
         True),
    ], ids=["cwth_strided", "cwt_fft", "cwth_decimate"])
    def test_five_positional_arguments(self, monkeypatch, transform, filtered, threads):
        calls = {"strided_correlate": [], "stacked_correlate": []}
        for name, recorded in calls.items():
            def record(*args, _kernel=getattr(_kernels, name), _calls=recorded, **kwargs):
                _calls.append((args, kwargs))
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(_kernels, name, record)
        transform(noise(20_000, seed=54), threads)
        # the sweep grid has direct rows at hop 128 and at hop 1 on 20 000 samples, and
        # decimate's FIR is a stack of one row
        assert calls["stacked_correlate"]
        # decimate's anti-alias FIR is the one caller of the five-argument form
        assert bool(calls["strided_correlate"]) == filtered
        for args, kwargs in calls["strided_correlate"]:
            assert len(args) == 5 and kwargs == {}
            _, taps_re, taps_im, hop, frames = args
            assert isinstance(taps_re, np.ndarray) and taps_re.ndim == 1
            assert taps_im is None or (taps_im.ndim == 1 and taps_im.shape == taps_re.shape)
            assert isinstance(hop, int) and hop >= 1
            assert isinstance(frames, int) and frames >= 1
        for args, kwargs in calls["stacked_correlate"]:
            assert len(args) == 3 and kwargs == {}
            _, stack, frames = args
            assert isinstance(stack, _kernels.Stack) and len(stack.leads) >= 1
            assert isinstance(stack.hop, int) and stack.hop >= 1
            assert isinstance(frames, int) and frames >= 1


def tap_counts(grid):
    return [sample_wavelet(PARAMS, s).size for s in grid.scales]


class TestRouting:
    def test_desk_grid_routes_the_widest_rows_to_one_band(self, monkeypatch):
        sched = schedule(160_000, tap_counts(DESK_GRID), 128)
        direct = sched.routes.count(False)
        assert 32 < direct < 64 and sched.routes == (False,) * direct + (True,) * (64 - direct)
        (cls,) = sched.classes
        assert cls.rows == tuple(range(direct, 64)) and cls.execution == "band"
        assert wavelet._holds(cls, 128)
        assert cls.block_len == 25_088 and cls.blocks == 10
        calls = []
        kernel = _kernels.stacked_correlate

        def counted(*args):
            calls.append(args[1])
            return kernel(*args)

        monkeypatch.setattr(_kernels, "stacked_correlate", counted)
        cwth_strided(noise(160_000, seed=30), DESK_GRID, PARAMS, 128)
        # one call per stack, which together hold every direct row once, in fewer calls than rows
        assert [stack.hop for stack in calls] == [128] * len(sched.stacks)
        assert [len(stack.leads) for stack in calls] == list(map(len, sched.stacks))
        assert sorted(row for rows in sched.stacks for row in rows) == list(range(direct))
        assert len(calls) < direct

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
                spectral = (_kernels.fft_seconds(one.block_len, one.blocks) + len(reach)
                            * _kernels.spectral_seconds(one.block_len, sched.hop, one.blocks))
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
                rebuilt += sum(_kernels.fft_seconds(cls.block_len, cls.blocks)
                               for cls in map(sched.classes.__getitem__, spectral))
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

    def test_stacks_cut_to_a_short_signal_are_not_held(self, held, monkeypatch):
        """A stack whose hop or taps ``reach`` cut serves signals that short alone."""
        plan = plan_for(PARAMS, SWEEP_GRID)
        built, stack_taps = [], _kernels.stack_taps

        def counted(taps, hop):
            built.append(len(taps))
            return stack_taps(taps, hop)

        monkeypatch.setattr(_kernels, "stack_taps", counted)
        cwth_strided(noise(100, seed=43), SWEEP_GRID, PARAMS, 128)  # hop 128 cut to 100
        assert held.entries == {} and built
        assert {r["held"] for r in plan.explain(100, 128)} == {False}
        # at 1 000 samples the rows past 1 999 taps are cut: they take a stack of their own,
        # which is not held, and the others' stack is
        sched = schedule(1_000, plan.widths, 128)
        assert sched.stacks == ((0, 1, 2, 3, 4, 5), (6, 7)) and sched.widths[5] == plan.widths[5]
        cwth_strided(noise(1_000, seed=44), SWEEP_GRID, PARAMS, 128)
        assert [key[2] for key in held_stacks(held)] == [sched.stacks[0]]
        assert [r["held"] for r in plan.explain(1_000, 128)] == [True] * 6 + [False] * 2
        # nothing is cut at 20 000 samples: its one stack is held, and a second call builds none
        sched = schedule(20_000, plan.widths, 128)
        assert sched.stacks == (tuple(range(8)),)
        cwth_strided(noise(20_000, seed=45), SWEEP_GRID, PARAMS, 128)
        count = len(built)
        cwth_strided(noise(20_000, seed=45), SWEEP_GRID, PARAMS, 128)
        assert len(built) == count
        assert [key[2] for key in held_stacks(held)] == [(0, 1, 2, 3, 4, 5), tuple(range(8))]

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


def band_classes_of(sched):
    return [cls for cls in sched.classes if cls.execution == "band"]


@pytest.fixture
def held(monkeypatch):
    """A fresh, empty store of held layouts, as large as the package's."""
    store = wavelet.HeldLayouts(wavelet.HELD_BYTES)
    monkeypatch.setattr(wavelet, "held_layouts", store)
    return store


def held_stacks(store):
    """The keys of the stacked taps ``store`` holds, least recently used first."""
    return [key for key, value in store.entries.items() if isinstance(value, _kernels.Stack)]


def held_kernels(store, execution):
    """The keys of the kernels of classes of this execution that ``store`` holds, least recently
    used first: a class's key ends in its (block length, execution)."""
    return [key for key in store.entries if key[3] is not None and key[3][1] == execution]


class TestBandExecution:
    def test_held_kernels_stay_within_their_budget_and_drop_the_least_recent(self):
        store = wavelet.HeldLayouts(3 * 800)
        one = lambda: np.zeros(100)  # noqa: E731  - 800 bytes
        for key in "abc":
            store.get(key, one)
        assert store.get("a", lambda: pytest.fail("a is held")) is store.entries["a"]
        store.get("d", one)  # b is now the least recently used
        assert list(store.entries) == ["c", "a", "d"] and store.bytes == 3 * 800
        store.get("e", lambda: np.zeros(200))  # 1 600 bytes: c and a go
        assert list(store.entries) == ["d", "e"] and store.bytes == 2_400
        huge = store.get("f", lambda: np.zeros(400))  # past the budget: returned, not held
        assert huge.size == 400 and "f" not in store.entries and store.bytes == 2_400

    def test_plans_share_one_budget(self, monkeypatch):
        # four-row plans, as wavebench builds to check a transform against cwt_fft
        store = wavelet.HeldLayouts(2 << 20)
        monkeypatch.setattr(wavelet, "held_layouts", store)
        sig = noise(20_000, seed=60)
        keys = []
        for first in range(40, 64, 4):
            grid = ScaleGrid(DESK_GRID.scales[first:first + 4])
            (cls,) = band_classes_of(schedule(20_000, tap_counts(grid), 32))
            assert wavelet._holds(cls, 32)
            values = cwth_strided(sig, grid, PARAMS, 32).values
            keys.append((plan_for(PARAMS, grid).serial, 32, cls.rows, (cls.block_len, "band")))
            assert keys[-1] in store.entries and store.bytes <= store.budget
            assert store.bytes == sum(kernels.nbytes for kernels in store.entries.values())
            assert_rel_close(values, cwt_fft(sig, grid, PARAMS).values[:, ::32], 1e-9)
        # the latest calls' kernels are held, the earliest dropped
        bands = held_kernels(store, "band")
        assert bands == keys[-len(bands):] and len(bands) < 6

    def test_repeat_calls_reuse_the_held_kernels(self, held, monkeypatch):
        sig = noise(160_000, seed=61)
        first = cwth_strided(sig, DESK_GRID, PARAMS, 128).values
        (key,) = held_kernels(held, "band")
        kernels = held.entries[key]
        (cls,) = schedule(160_000, tap_counts(DESK_GRID), 128).classes
        assert kernels.shape == (25_088 // 128, 128, len(cls.rows)) and not kernels.flags.writeable
        monkeypatch.setattr(wavelet, "_band_kernels", lambda *args: pytest.fail("laid out again"))
        np.testing.assert_array_equal(cwth_strided(sig, DESK_GRID, PARAMS, 128).values, first)

    def test_only_a_layout_fixed_apart_from_the_signal_holds_kernels(self):
        # a single block's block_len follows n; the factor layouts' do not
        for width in sorted(set(tap_counts(DESK_GRID))):
            for n in SURFACE_LENGTHS:
                for hop in SURFACE_HOPS:
                    options = wavelet.class_options(n, min(width, 2 * n - 1) // 2, hop)
                    holds = [wavelet._holds(cls, hop) for cls in options]
                    assert holds == [False] + [True] * (len(options) - 1), (width, n, hop)
        # and such a layout, and only such a one, holds its class's kernels, in either execution
        for grid in (SWEEP_GRID, DESK_GRID):
            plan = plan_for(PARAMS, grid)
            for n in SURFACE_LENGTHS:
                for hop in SURFACE_HOPS:
                    sched = schedule(n, plan.widths, hop)
                    for cls in sched.classes:
                        whole = sched.hop == hop and all(
                            sched.widths[row] == plan.widths[row] for row in cls.rows)
                        key = plan._held_key(sched, hop, cls.rows, cls)
                        assert (key is not None) is (whole and wavelet._holds(cls, sched.hop))
                        assert key is None or key[3] == (cls.block_len, cls.execution)

    @pytest.mark.parametrize("n", [2_000, 8_000])
    @pytest.mark.parametrize("hop", [8, 32])
    def test_short_signals_on_the_sweep_grid_take_no_band(self, n, hop):
        # bands of 3-5 rows in 2-3 blocks, which fits of the band constants in the units of the
        # other routes take here, ran 0.81-0.88x the rows and stacks they replaced
        assert band_classes_of(schedule(n, tap_counts(SWEEP_GRID), hop)) == []

    def test_a_single_block_band_class_holds_nothing(self, held, monkeypatch):
        n, hop = 3_000, 8
        sig = noise(n, seed=62)
        widths = tap_counts(SWEEP_GRID)
        sched = schedule(n, widths, hop)
        one = wavelet.class_options(n, max(sched.widths) // 2, hop)[0]
        assert one.blocks == 1 and one.block_len >= n
        band = one._replace(rows=tuple(range(len(widths))), execution="band")
        forced = sched._replace(classes=(band,), routes=(True,) * len(widths), stacks=())
        monkeypatch.setattr(wavelet, "schedule", lambda *args: forced)
        values = cwth_strided(sig, SWEEP_GRID, PARAMS, hop).values
        assert held.entries == {} and held.bytes == 0
        records = plan_for(PARAMS, SWEEP_GRID).explain(n, hop)
        assert {(r["execution"], r["held"]) for r in records} == {("band", False)}
        monkeypatch.undo()
        assert_rel_close(values, cwt_fft(sig, SWEEP_GRID, PARAMS).values[:, ::hop], 1e-9)

    def test_threads_give_the_same_bytes_in_chunks_fixed_by_size(self, monkeypatch):
        # chunks of a few bins, so the pool maps over many
        monkeypatch.setattr(wavelet, "BAND_CHUNK_BYTES", 1 << 15)
        sig = noise(160_000, seed=63)
        assert band_classes_of(schedule(160_000, tap_counts(DESK_GRID), 128))
        first = cwth_strided(sig, DESK_GRID, PARAMS, 128).values
        for threads in (2, 3, 4, 1):
            again = cwth_strided(sig, DESK_GRID, PARAMS, 128, threads=threads).values
            assert again.tobytes() == first.tobytes(), threads

    @pytest.mark.parametrize("hop", [1, 2, 8, 32, 128])
    def test_block_rows_divide_by_a_power_of_two_hop_exactly(self, hop):
        """The 1/hop in the kernels is exact there: a row is ``ifft(fold) / hop``, bit for bit."""
        n, rng = 20_000, np.random.default_rng(64)
        x = rng.standard_normal(n)
        taps = [tuple(rng.standard_normal((2, width))) for width in (301, 673)]
        for cls in wavelet.class_options(n, 336, hop):
            cls = cls._replace(rows=(0, 1))
            spectra = wavelet._block_spectra(x, cls)
            unscaled = wavelet._kernel_spectra(cls, taps, 1)
            for kernel, scaled in zip(unscaled, wavelet._kernel_spectra(cls, taps, hop)):
                out = np.empty(-(-n // hop), dtype=np.complex128)
                wavelet._block_row(out, spectra, cls, scaled, hop)
                folded = (kernel * spectra).reshape(cls.blocks, hop, -1).sum(axis=1)
                outputs = np.fft.ifft(folded, axis=-1)[:, :cls.step // hop] / hop
                np.testing.assert_array_equal(out, outputs.reshape(-1)[:out.size])


class TestHeldLayouts:
    """Stacked taps and band kernels are held in one store, under one byte budget."""

    def test_both_kinds_share_one_budget_and_one_order(self):
        stack = _kernels.stack_taps([(np.ones(100), np.ones(100))], 8)
        band = np.zeros(stack.nbytes // 16, dtype=np.complex128)
        assert band.nbytes == stack.nbytes
        store = wavelet.HeldLayouts(2 * stack.nbytes)
        store.get("stack", lambda: stack)
        store.get("band", lambda: band)
        store.get("other stack", lambda: stack)  # the stack is the least recently used: it goes
        assert list(store.entries) == ["band", "other stack"] and store.bytes == 2 * stack.nbytes
        store.get("stack", lambda: stack)  # and now the band
        assert list(store.entries) == ["other stack", "stack"] and store.bytes == 2 * stack.nbytes

    def test_a_desk_call_holds_its_stacks_then_its_band(self, held, monkeypatch):
        sig = noise(160_000, seed=66)
        values = cwth_strided(sig, DESK_GRID, PARAMS, 128).values
        sched = schedule(160_000, tap_counts(DESK_GRID), 128)
        (cls,) = band_classes_of(sched)
        serial = plan_for(PARAMS, DESK_GRID).serial
        stacks = [(serial, 128, rows, None) for rows in sched.stacks]
        assert list(held.entries) == stacks + [(serial, 128, cls.rows, (cls.block_len, "band"))]
        assert held.bytes == sum(value.nbytes for value in held.entries.values())
        # a byte short of that: the band, held last, drops the least recently used stack
        store = wavelet.HeldLayouts(held.bytes - 1)
        monkeypatch.setattr(wavelet, "held_layouts", store)
        np.testing.assert_array_equal(cwth_strided(sig, DESK_GRID, PARAMS, 128).values, values)
        assert list(store.entries) == list(held.entries)[1:] and store.bytes <= store.budget

    def test_an_entry_larger_than_the_budget_is_returned_and_not_held(self, held, monkeypatch):
        sig = noise(160_000, seed=67)
        values = cwth_strided(sig, DESK_GRID, PARAMS, 128).values
        (key,) = held_kernels(held, "band")
        store = wavelet.HeldLayouts(held.entries[key].nbytes - 1)
        monkeypatch.setattr(wavelet, "held_layouts", store)
        np.testing.assert_array_equal(cwth_strided(sig, DESK_GRID, PARAMS, 128).values, values)
        assert held_kernels(store, "band") == []
        assert len(held_stacks(store)) == len(schedule(160_000, tap_counts(DESK_GRID), 128).stacks)

    def test_clear_plan_cache_drops_held_stacks_as_well(self, held):
        cwth_strided(noise(20_000, seed=68), SWEEP_GRID, PARAMS, 128)
        assert held_stacks(held) and held_kernels(held, "band") == []
        clear_plan_cache()
        assert held.entries == {} and held.bytes == 0


def forced_class(monkeypatch, n, hop, cls):
    """Make ``schedule`` lay out every call as ``cls``, holding every row of the sweep grid."""
    sched = schedule(n, tap_counts(SWEEP_GRID), hop)
    forced = sched._replace(classes=(cls._replace(rows=tuple(range(SWEEP_GRID.count))),),
                            routes=(True,) * SWEEP_GRID.count, stacks=())
    monkeypatch.setattr(wavelet, "schedule", lambda *args: forced)


def counted_builds(monkeypatch, name):
    """The ``cls.rows`` of each call of the kernel builder ``name``, as it is made."""
    built, build = [], getattr(wavelet, name)

    def counted(cls, taps, hop):
        built.append(cls.rows)
        return build(cls, taps, hop)

    monkeypatch.setattr(wavelet, name, counted)
    return built


BUILDERS = {"row": "_kernel_spectra", "band": "_band_kernels"}


class TestOneKernelRule:
    """A class's kernels are held wherever its layout is fixed apart from the signal, and built
    in the call wherever the layout follows the signal, in either execution."""

    def test_a_row_class_of_a_fixed_layout_builds_its_kernels_once(self, held, monkeypatch):
        # 8 scales at hop 1: rows 6 and 7 take a row class of blocks of 33 264 at both lengths
        plan = plan_for(PARAMS, SWEEP_GRID)
        for n in (44_450, 137_973):
            (cls,) = [cls for cls in schedule(n, plan.widths, 1).classes if cls.rows == (6, 7)]
            assert (cls.block_len, cls.execution) == (33_264, "row") and wavelet._holds(cls, 1)
        built = counted_builds(monkeypatch, "_kernel_spectra")
        sig = noise(137_973, seed=69)
        cwt_fft(noise(44_450, seed=69), SWEEP_GRID, PARAMS)
        values = cwt_fft(sig, SWEEP_GRID, PARAMS).values
        again = cwt_fft(sig, SWEEP_GRID, PARAMS).values
        assert built.count((6, 7)) == 1 and again.tobytes() == values.tobytes()
        key = (plan.serial, 1, (6, 7), (33_264, "row"))
        assert key in held_kernels(held, "row") and not held.entries[key].flags.writeable
        # and the held kernels give the bits that kernels built in the call give
        held.clear()
        monkeypatch.setattr(wavelet, "_holds", lambda cls, hop: False)
        assert cwt_fft(sig, SWEEP_GRID, PARAMS).values.tobytes() == values.tobytes()
        assert held_kernels(held, "row") == []

    @pytest.mark.parametrize("execution", wavelet.EXECUTIONS)
    def test_a_single_block_builds_its_kernels_in_every_call(self, held, monkeypatch, execution):
        n, hop = 20_000, 8
        sig = noise(n, seed=70)
        one = wavelet.class_options(n, max(tap_counts(SWEEP_GRID)) // 2, hop)[0]
        assert one.blocks == 1 and not wavelet._holds(one, hop)
        forced_class(monkeypatch, n, hop, one._replace(execution=execution))
        built = counted_builds(monkeypatch, BUILDERS[execution])
        first = cwth_strided(sig, SWEEP_GRID, PARAMS, hop).values
        second = cwth_strided(sig, SWEEP_GRID, PARAMS, hop).values
        assert len(built) == 2 and held.entries == {}
        assert first.tobytes() == second.tobytes()
        records = plan_for(PARAMS, SWEEP_GRID).explain(n, hop)
        assert {(r["execution"], r["held"]) for r in records} == {(execution, False)}
        monkeypatch.undo()
        assert_rel_close(first, cwt_fft(sig, SWEEP_GRID, PARAMS).values[:, ::hop], 1e-9)

    def test_a_row_and_a_band_of_one_layout_are_two_entries(self, held, monkeypatch):
        n, hop = 20_000, 8
        sig = noise(n, seed=71)
        plan = plan_for(PARAMS, SWEEP_GRID)
        blocks = wavelet.class_options(n, max(plan.widths) // 2, hop)[1]
        assert blocks.blocks > 1 and wavelet._holds(blocks, hop)
        want = cwt_fft(sig, SWEEP_GRID, PARAMS).values[:, ::hop]
        held.clear()
        for execution in wavelet.EXECUTIONS:
            forced_class(monkeypatch, n, hop, blocks._replace(execution=execution))
            built = counted_builds(monkeypatch, BUILDERS[execution])
            for _ in range(2):
                assert_rel_close(cwth_strided(sig, SWEEP_GRID, PARAMS, hop).values, want, 1e-9)
            assert len(built) == 1
        rows = tuple(range(SWEEP_GRID.count))
        row, band = ((plan.serial, hop, rows, (blocks.block_len, execution))
                     for execution in wavelet.EXECUTIONS)
        assert list(held.entries) == [row, band]
        assert held.entries[row].shape == (len(rows), blocks.block_len)
        assert held.entries[band].shape == (blocks.block_len // hop, hop, len(rows))
        assert held.bytes == 2 * held.entries[row].nbytes


@pytest.fixture(scope="module")
def wide_and_narrow():
    """A signal, a grid of a 13-tap and a 209-tap row, and its direct transform."""
    sig, grid = noise(1_500, seed=72), ScaleGrid([1.0, 20.0])
    assert tap_counts(grid) == [13, 209]
    return sig, grid, cwt_direct(sig, grid, PARAMS).values


@pytest.mark.parametrize("execution", wavelet.EXECUTIONS)
@pytest.mark.parametrize("blocks", ["one", "several"])
@pytest.mark.parametrize("hop", [1, 2, 3, 8, 127])
def test_a_row_as_wide_as_its_class_matches_the_direct_transform(
        wide_and_narrow, monkeypatch, execution, blocks, hop):
    """The widest row of a class, whose first tap is the block's first sample (the kernel that
    once wrapped round the block's end), and the class's narrowest row, in either execution."""
    sig, grid, direct = wide_and_narrow
    n, widths = sig.samples.size, tap_counts(grid)
    options = wavelet.class_options(n, max(widths) // 2, hop)
    cls = options[0] if blocks == "one" else next(cls for cls in options if cls.blocks > 1)
    assert max(widths) == 2 * cls.pad + 1
    sched = schedule(n, widths, hop)
    forced = sched._replace(classes=(cls._replace(rows=(0, 1), execution=execution),),
                            routes=(True, True), stacks=())
    monkeypatch.setattr(wavelet, "schedule", lambda *args: forced)
    values = cwth_strided(sig, grid, PARAMS, hop).values
    for got, want in zip(values, direct[:, ::hop]):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
        if grid is DESK_GRID and hop == 128:  # the widest rows in one band, kernels held
            direct = routes.count(False)
            assert 32 < direct < 64 and routes == [False] * direct + [True] * (64 - direct)
            assert {(r["execution"], r["held"]) for r in records[direct:]} == {("band", True)}
        frames = -(-n // hop)
        # a lag of n or more meets no sample, so rows are priced on at most 2n - 1 taps
        reach = tuple(min(w, 2 * n - 1) for w in widths)
        sched = schedule(n, widths, hop)
        for row, record in enumerate(records):
            assert record["direct_s"] == _kernels.direct_seconds(reach[row], hop, frames)
            if record["route"] == "direct":  # a direct row has a stack and no class
                stack = sched.stacks[record["stack"]]
                assert row in stack
                fields = [record[k] for k in ("spectral_s", "block_len", "blocks", "class",
                                              "execution")]
                assert fields == [None] * 5
                # its stack is held unless ``reach`` cut its rows or the hop
                whole = sched.hop == hop and all(reach[r] == widths[r] for r in stack)
                assert record["held"] is whole
                continue
            assert record["stack"] is None
            cls = sched.classes[record["class"]]
            assert row in cls.rows
            assert (record["block_len"], record["blocks"]) == (cls.block_len, cls.blocks)
            # its class's kernels are held, in either execution, unless its layout follows the
            # signal or ``reach`` cut its rows or the hop
            whole = sched.hop == hop and all(reach[r] == widths[r] for r in cls.rows)
            held = whole and wavelet._holds(cls, sched.hop)
            assert (record["execution"], record["held"]) == (cls.execution, held)
            assert record["spectral_s"] == wavelet.class_row_seconds(cls, hop)


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

    @pytest.mark.parametrize("target", [2**32 + 1, 5 * 10**9, 3**21 + 1, 2**40 + 3])
    def test_targets_past_the_table(self, target):
        assert target > 2**32
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
