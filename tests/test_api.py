"""Public API: every name a module exports resolves, and every definition
has a caller in the library."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from collections import Counter
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
    # SciPy's import was more than half of a CLI call's start-up: brlab runs
    # its transforms on numpy.fft and imports scipy.special inside the Bessel
    # factor, so the CLI, a domination trial, the weights and prop41 load no
    # SciPy module (decay may load scipy.special); the process pool is
    # imported only for more than one worker
    src = str(Path(brlab.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import brlab.cli\n"
            "from brlab.harness import (ExperimentConfig, _domination_trial, run_prop41, "
            "run_weights)\n"
            "cfg = ExperimentConfig(grid_n=128, trials=1, seed=7)\n"
            "assert _domination_trial((cfg, 0))[1] == 'ok'\n"
            "run_weights(cfg), run_prop41(cfg)\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy' "
            "or m == 'concurrent.futures.process'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def _uses(tree: ast.AST) -> set[str]:
    """Every name ``tree`` refers to: names, attributes and import aliases."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def test_every_definition_has_a_library_caller():
    # a module-level function or class that no other library statement names
    # lives for its tests alone; the names below pass without a caller: those
    # the acceptance criteria import, the three maximal operators, the field
    # format and the sidecar writers of the sparse collections and traces
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    exempt = {a.name for node in ast.walk(acceptance)
              if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("brlab")
              for a in node.names}
    exempt |= {"br_star", "br_starstar", "hl_maximal", "write_field", "read_field",
               "collection_to_csv", "trace_to_json"}
    definitions, refs = [], Counter()
    for path in sorted(Path(brlab.__file__).resolve().parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            uses = _uses(stmt)
            refs.update(uses)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                # a name used only inside its own definition has no caller
                definitions.append((f"{path.stem}.{stmt.name}", stmt.name, stmt.name in uses))
    orphans = [qual for qual, name, self_use in definitions
               if refs[name] == self_use and name not in exempt]
    assert not orphans, f"defined in src/brlab but called by no library code: {orphans}"
