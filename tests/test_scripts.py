"""The scripts run by hand, checked for names the package no longer has."""

import ast
from pathlib import Path

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
