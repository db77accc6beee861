"""The scripts run by hand, checked for names the package no longer has and for their calls."""

import ast
import importlib.util
import itertools
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from wavehop import _kernels, wavelet

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
MODULES = {"_kernels": _kernels, "wavelet": wavelet}


def missing_names(path):
    """The ``_kernels.X`` and ``wavelet.X`` a script names that its module lacks."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in MODULES
                   and not hasattr(MODULES[node.value.id], node.attr)})


def test_calibration_script_names_only_what_exists():
    path = SCRIPTS / "calibrate_router.py"
    source = path.read_text()
    assert "_kernels." in source and "wavelet." in source
    assert missing_names(path) == []


def test_a_deleted_name_is_reported(tmp_path):
    stale = tmp_path / "stale.py"
    stale.write_text("from wavehop import _kernels, wavelet\n"
                     "paged = _kernels.PAGED_PRODUCTS + len(wavelet.class_options(1, 0, 1))\n")
    assert missing_names(stale) == ["_kernels.PAGED_PRODUCTS"]


def test_calibration_names_no_formula_of_the_model():
    """The terms come from ``_kernels``' term functions, never from the kernel's layout."""
    source = (SCRIPTS / "calibrate_router.py").read_text()
    for name in ("polyphase", "product_runs", "row_layout", "stack_shape", "reach",
                 "_large_prime_sum", "math."):
        assert name not in source


def load_calibration(monkeypatch):
    # the script pins the BLAS thread variables as it is imported; restore them afterwards
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    spec = importlib.util.spec_from_file_location("calibrate_router", SCRIPTS / "calibrate_router.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_fit_recovers_the_constants_from_the_seconds_they_predict(monkeypatch):
    """Seconds priced by ``_kernels`` itself, fitted on its own terms, give back its constants."""
    script = load_calibration(monkeypatch)
    direct = [(width, hop, -(-n // hop)) for n in script.LENGTHS for hop in script.HOPS
              for width in script.WIDTHS]
    classes = [(cls.block_len, hop, cls.blocks) for _, hop, cls in script.block_shapes()]
    ffts = {(length, count) for block_len, hop, blocks in classes
            for length, count in ((block_len, 1), (block_len, blocks), (block_len // hop, blocks))}
    fitted = script.fit([_kernels.direct_terms(*shape) for shape in direct],
                        [_kernels.direct_seconds(*shape) for shape in direct],
                        _kernels.DIRECT_CONSTANTS)
    fitted |= script.fit([_kernels.fft_terms(*shape) for shape in ffts],
                         [_kernels.fft_seconds(*shape) for shape in ffts], _kernels.FFT_CONSTANTS)
    bands = [(cls.block_len, hop, cls.blocks, rows) for _, hop, cls in script.block_shapes()
             for rows in script.BAND_ROWS]
    rows = [_kernels.spectral_seconds(*shape) for shape in classes]
    band = [_kernels.band_seconds(*shape) for shape in bands]
    # as the script prices a row's and a band's FFTs alone
    for name in _kernels.ROW_CONSTANTS + _kernels.BAND_CONSTANTS:
        monkeypatch.setattr(_kernels, name, 0.0)
    ffts_alone = [_kernels.spectral_seconds(*shape) for shape in classes]
    band_ffts = [_kernels.band_seconds(*shape) for shape in bands]
    monkeypatch.undo()
    fitted |= script.fit([_kernels.row_terms(block_len, blocks) for block_len, _, blocks in classes],
                         rows, _kernels.ROW_CONSTANTS,
                         target=[t - f for t, f in zip(rows, ffts_alone)])
    fitted |= script.fit([_kernels.band_terms(*shape) for shape in bands], band,
                         _kernels.BAND_CONSTANTS, target=[t - f for t, f in zip(band, band_ffts)])
    names = (_kernels.DIRECT_CONSTANTS + _kernels.FFT_CONSTANTS + _kernels.ROW_CONSTANTS
             + _kernels.BAND_CONSTANTS)
    assert list(fitted) == list(names)
    for name in names:
        assert abs(fitted[name] - getattr(_kernels, name)) <= 1e-9 * getattr(_kernels, name), name


def test_calibration_times_a_block_row_through_the_package(monkeypatch):
    script = load_calibration(monkeypatch)
    for n, hop, pad in ((50, 2, 3), (40, 1, 39)):
        for cls in wavelet.class_options(n, pad, hop):
            seconds = script.block_row_seconds(np.random.default_rng(0), n, hop, cls, reps=1)
            assert 0 < seconds < 1


def test_band_terms_are_in_the_order_band_seconds_prices_them(monkeypatch):
    """Each of ``BAND_CONSTANTS`` alone at 1 prices its own term of ``band_terms``."""
    shapes = [(25_088, 128, 10, 20), (1_350, 2, 236, 3), (9_856, 8, 3, 6)]
    for name in _kernels.BAND_CONSTANTS:
        monkeypatch.setattr(_kernels, name, 0.0)
    base = [_kernels.band_seconds(*shape) for shape in shapes]
    for index, name in enumerate(_kernels.BAND_CONSTANTS):
        monkeypatch.setattr(_kernels, name, 1.0)
        for shape, fft_seconds in zip(shapes, base):
            term = _kernels.band_terms(*shape)[index]
            assert math.isclose(_kernels.band_seconds(*shape) - fft_seconds, term, rel_tol=1e-12)
        monkeypatch.setattr(_kernels, name, 0.0)


def test_calibration_times_a_band_class_through_the_package(monkeypatch):
    script = load_calibration(monkeypatch)
    for n, hop, pad in ((50, 2, 3), (40, 1, 39), (3_000, 131, 20)):
        for cls in wavelet.class_options(n, pad, hop):
            seconds = script.band_class_seconds(np.random.default_rng(0), n, hop, cls, 3, reps=1)
            assert 0 < seconds < 1


def test_the_printed_block_is_in_one_set_of_units(monkeypatch, capsys):
    """Timings at twice the committed model's price print every constant at twice its value."""
    script = load_calibration(monkeypatch)
    names = (_kernels.DIRECT_CONSTANTS + _kernels.FFT_CONSTANTS + _kernels.ROW_CONSTANTS
             + _kernels.BAND_CONSTANTS)
    committed = {name: getattr(_kernels, name) for name in names}
    for name in names:  # the script writes them into _kernels; undo restores them
        monkeypatch.setattr(_kernels, name, committed[name])
    shapes = list(script.block_shapes())
    rows = {(n, hop, cls): 2 * _kernels.spectral_seconds(cls.block_len, hop, cls.blocks)
            for n, hop, cls in shapes}
    bands = {(n, hop, cls, count): 2 * _kernels.band_seconds(cls.block_len, hop, cls.blocks, count)
             for n, hop, cls in shapes for count in script.BAND_ROWS}

    def doubled(group):
        return lambda rng: {name: 2 * committed[name] for name in group}

    monkeypatch.setattr(script, "direct", doubled(_kernels.DIRECT_CONSTANTS))
    monkeypatch.setattr(script, "ffts", doubled(_kernels.FFT_CONSTANTS))
    monkeypatch.setattr(script, "block_row_seconds", lambda rng, n, hop, cls: rows[n, hop, cls])
    monkeypatch.setattr(script, "band_class_seconds",
                        lambda rng, n, hop, cls, count: bands[n, hop, cls, count])
    try:
        script.main()
    finally:
        monkeypatch.undo()
        _kernels._each_fft_seconds.cache_clear()
    printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                   if not line.startswith("#"))
    assert list(printed) == list(names)
    for name in names:
        assert math.isclose(float(printed[name]), 2 * committed[name], rel_tol=0.05), name


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPTS / "ab_pairs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_ab_pairs_alternate_which_side_goes_first():
    script = load_ab_pairs()
    assert script.pair_orders(4) == [("parent", "change"), ("change", "parent")] * 2
    calls = []

    def runner(side):
        calls.append(side)
        return {"corpus_scan.latency_p50_ms": float(len(calls))}

    runs = script.run_pairs(3, runner)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [r["corpus_scan.latency_p50_ms"] for r in runs["parent"]] == [1.0, 4.0, 5.0]
    assert [r["corpus_scan.latency_p50_ms"] for r in runs["change"]] == [2.0, 3.0, 6.0]


def test_ab_pairs_report_medians_wins_and_the_parents_iqr():
    script = load_ab_pairs()
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [12.0, 13.0, 10.0, 15.0, 16.0]
    # higher is better for throughput, lower for latency; an unknown metric is left out
    runs = {side: [{"corpus_scan.throughput_audio_x": value, "corpus_scan.latency_p50_ms": value,
                    "corpus_scan.unlisted": value} for value in values]
            for side, values in (("parent", parent), ("change", change))}
    better, seconds = script.benchmark()
    assert better["throughput_audio_x"] == "higher" and better["latency_p50_ms"] == "lower"
    assert seconds == json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    metrics = script.summarise(runs, better)
    assert set(metrics) == {"corpus_scan.throughput_audio_x", "corpus_scan.latency_p50_ms"}
    throughput = metrics["corpus_scan.throughput_audio_x"]
    assert (throughput["parent_median"], throughput["change_median"]) == (12.0, 13.0)
    assert throughput["wins"] == 4 and throughput["pairs"] == 5
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert throughput["parent_iqr"] == q3 - q1
    assert (throughput["parent"], throughput["change"]) == (parent, change)
    assert metrics["corpus_scan.latency_p50_ms"]["wins"] == 1  # lower is better


def test_ab_pairs_in_process_times_each_cell_in_alternating_pairs():
    script = load_ab_pairs()
    assert script.parse_cell("64,160000,128") == (64, 160_000, 128)
    calls, clock = [], itertools.count()

    def call(side, cell):
        def run():
            calls.append((side, cell))
            if (side, cell) == ("change", "b"):
                next(clock)  # a call that takes one reading of the stubbed clock longer
        return run

    cells = {side: {cell: call(side, cell) for cell in "ab"} for side in ("parent", "change")}
    # each reading of the clock is half a second past the last
    summary = script.time_cells(cells, 3, timer=lambda: next(clock) / 2)
    assert set(summary) == {"a.ms", "b.ms"}
    # one untimed call per side, then the pairs, which side goes first alternating
    assert calls[:8] == [("parent", "a"), ("change", "a"), ("parent", "a"), ("change", "a"),
                         ("change", "a"), ("parent", "a"), ("parent", "a"), ("change", "a")]
    a, b = summary["a.ms"], summary["b.ms"]
    assert a["parent"] == a["change"] == [500.0] * 3 and a["wins"] == 0 and a["pairs"] == 3
    assert b["parent"] == [500.0] * 3 and b["change"] == [1000.0] * 3 and b["wins"] == 0
    assert (b["parent_median"], b["change_median"], b["parent_iqr"]) == (500.0, 1000.0, 0.0)
    assert b["better"] == "lower"


def test_ab_pairs_loads_a_tree_s_package_under_its_own_name():
    script = load_ab_pairs()
    package = script.load_package(ROOT / "src" / "wavehop", "wavehop_under_test")
    try:
        assert package.__name__ == "wavehop_under_test" and package is not wavelet
        assert package.wavelet.__name__ == "wavehop_under_test.wavelet"
        assert package.wavelet.held_layouts is not wavelet.held_layouts
        call = script.cell_call(package, (8, 2_000, 128), seed=1)
        assert call().values.shape == (8, 16)
    finally:
        for name in [name for name in sys.modules if name.startswith("wavehop_under_test")]:
            del sys.modules[name]
