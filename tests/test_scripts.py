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


def test_calibration_times_a_block_row_through_the_package(monkeypatch):
    # the script pins the BLAS thread variables as it is imported; restore them afterwards
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    spec = importlib.util.spec_from_file_location("calibrate_router", SCRIPTS / "calibrate_router.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for n, hop, pad in ((50, 2, 3), (40, 1, 39)):
        for cls in wavelet.class_options(n, pad, hop):
            seconds = script.block_row_seconds(np.random.default_rng(0), n, hop, cls, reps=1)
            assert 0 < seconds < 1
