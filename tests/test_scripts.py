"""The scripts run by hand, checked for names the package no longer has and for their calls."""

import ast
import importlib.util
from pathlib import Path

import numpy as np

from wavehop import _kernels, wavelet

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
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
    rows = [_kernels.spectral_seconds(*shape) for shape in classes]
    for name in _kernels.ROW_CONSTANTS:  # as the script prices a row's FFTs alone
        monkeypatch.setattr(_kernels, name, 0.0)
    ffts_alone = [_kernels.spectral_seconds(*shape) for shape in classes]
    monkeypatch.undo()
    fitted |= script.fit([_kernels.row_terms(block_len, blocks) for block_len, _, blocks in classes],
                         rows, _kernels.ROW_CONSTANTS,
                         target=[t - f for t, f in zip(rows, ffts_alone)])
    names = _kernels.DIRECT_CONSTANTS + _kernels.FFT_CONSTANTS + _kernels.ROW_CONSTANTS
    assert list(fitted) == list(names)
    for name in names:
        assert abs(fitted[name] - getattr(_kernels, name)) <= 1e-9 * getattr(_kernels, name), name


def test_calibration_times_a_block_row_through_the_package(monkeypatch):
    script = load_calibration(monkeypatch)
    for n, hop, pad in ((50, 2, 3), (40, 1, 39)):
        for cls in wavelet.class_options(n, pad, hop):
            seconds = script.block_row_seconds(np.random.default_rng(0), n, hop, cls, reps=1)
            assert 0 < seconds < 1
