"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Checks that each run is correct, that the last line carries exactly the
metrics BENCHMARK.json names with their units, that each metric is also
printed by name, that the tracer counts calls made through re-imported
names once, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_matches_definitions():
    assert (ROOT / "BENCHMARK.json").read_text() == run.spec_text()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, [l for l in lines if l.startswith("PROBLEM")]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for m in wanted:
        assert any(l.startswith(f"metric {m['name']} = ") and l.endswith(f" {m['unit']}")
                   for l in lines), m["name"]
    if trace == "0":
        assert all(e["value"] > 0 for e in result["metrics"].values())


def test_tracer_counts_each_call_once():
    run.import_brlab()
    from brlab import harness, maximal, multiplier, sparse
    from tracing import Tracer

    originals = (sparse.build_sparse, multiplier.truncated_symbol)
    cfg = harness.ExperimentConfig(grid_n=128, eps_min_exp=2, seed=7, trials=1)
    tracer = Tracer()
    tracer.install()
    try:
        assert harness.build_sparse is sparse.build_sparse is not originals[0]
        assert maximal.truncated_symbol is multiplier.truncated_symbol
        harness._domination_trial((cfg, 0))
    finally:
        tracer.restore()
    assert (harness.build_sparse, maximal.truncated_symbol) == originals
    spans = tracer.span_totals()
    for name in ("sparse.build_sparse", "sparse.sparse_form",
                 "sparse.bilinear_pairing", "harness.trial_fields", "sparse.verify"):
        assert spans[name]["calls"] == 1, name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "lab", "--seed", "7", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
