"""Public API: every name a module exports resolves."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import brlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(brlab.__path__, "brlab."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"


def test_cli_import_leaves_heavy_scipy_modules_out():
    # of scipy's subpackages, importing the CLI loads scipy.fft and
    # scipy.special only; the signal module (with the stats and interpolate
    # modules it pulls in) tripled the start-up time of every CLI call
    src = str(Path(brlab.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import brlab.cli; "
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats', 'scipy.interpolate', "
            "'scipy.ndimage') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
