#!/usr/bin/env python3
"""Benchmark for brlab: domination sweeps at two grid sizes and the lab
experiments, timed end to end and, in a separate traced pass, per layer.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload dominate-1024 --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (the round runs once untraced and once traced; the difference is the
tracing overhead, and the two report digests must agree).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in both
modes in child processes and prints every metric by name.  ``--held-out``
replaces the seed by the held-out seed 11, on which later claims are
re-checked; the default seed 7 is the acceptance seed.  ``--write-spec``
rewrites ``BENCHMARK.json`` from the definitions below.

Runs are serial with FFT/BLAS threads pinned to 1.  The benchmark builds
nothing: it imports ``brlab`` from ``src/`` of the checkout it sits in and
refuses to run without it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

# numpy and scipy are imported only after main() has pinned these
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

RUN_SECONDS = 20
ACCEPTANCE_SEED = 7
HELD_OUT_SEED = 11
SETUP_REPEATS = 5

WORKLOAD_WHY = {
    "dominate-1024": "acceptance sweep grid: deep selection trees, time in br_star (tiled path), br_starstar and HL per node",
    "dominate-256": "shallow trees: fixed per-trial cost (fields, pairing, certificate) and the small-radius br_star path",
    "lab": "CLI experiments and field I/O: weights, multiplier and grid layers; bypasses maximal and sparse",
}

END_TO_END = [
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]

_SPAN_METRICS = [
    ("maximal.br_star", ("calls", "busy_s")),
    ("maximal.br_starstar", ("calls", "busy_s")),
    ("maximal.hl", ("calls", "busy_s")),
    ("sparse.exceptional_set", ("calls", "busy_s", "self_s")),
    ("sparse.build_sparse", ("busy_s",)),
    ("sparse.sparse_form", ("busy_s",)),
    ("sparse.bilinear_pairing", ("busy_s",)),
    ("sparse.verify", ("busy_s",)),
    ("grid.make_test_function", ("calls", "busy_s")),
    ("grid.mask_to_box", ("calls", "busy_s")),
    ("grid.cube_average", ("calls", "busy_s")),
    ("grid.write_field", ("busy_s",)),
    ("grid.read_field", ("busy_s",)),
    ("multiplier.apply_Sk", ("calls", "busy_s")),
    ("multiplier.apply_bochner_riesz", ("calls", "busy_s")),
    ("multiplier.kernel_profile", ("calls", "busy_s")),
    ("multiplier.symbols", ("calls", "busy_s")),
    ("weights.Weight.build", ("busy_s",)),
    ("weights.Weight.mins_maxs", ("busy_s",)),
    ("weights.characteristics", ("busy_s",)),
    ("weights.check_ap_rh_product", ("busy_s",)),
    ("weights.weighted_operator_ratio", ("busy_s",)),
    ("weights.vector_valued_norm", ("busy_s",)),
    ("indices.ExponentRecord.compute", ("busy_s",)),
    ("harness.trial_fields", ("busy_s",)),
    ("harness.run_prop41", ("busy_s", "self_s")),
    ("harness.run_prop42", ("busy_s", "self_s")),
    ("harness.run_decay", ("busy_s", "self_s")),
    ("harness.run_weights", ("busy_s", "self_s")),
    ("harness.run_vector_valued", ("busy_s", "self_s")),
    ("harness.Report.write", ("busy_s",)),
    ("cli.main", ("self_s",)),
]
_COUNT_METRICS = [
    ("process.peak_rss_mb", "MB", "lower"),
    ("sparse.nodes", "count", "lower"),
    ("sparse.floor_nodes", "count", "lower"),
    ("sparse.floor_node_frac", "ratio", "lower"),
    ("sparse.c_doublings", "count", "lower"),
    ("sparse.cubes_selected", "count", "lower"),
    ("grid.SampledField.constructs", "count", "lower"),
    ("grid.SampledField.bytes", "B", "lower"),
    ("grid.write_field.bytes", "B", "lower"),
    ("grid.read_field.bytes", "B", "lower"),
    ("harness.Report.write.bytes", "B", "lower"),
    ("weights.family_cubes", "count", "lower"),
    ("multiplier.symbol_cache.hits", "count", "higher"),
    ("multiplier.symbol_cache.misses", "count", "lower"),
]
_COUNT_NAMES = {name for name, _, _ in _COUNT_METRICS}
_KERNEL_SPANS = {
    "fft": ("maximal.br_star", "maximal.br_starstar", "maximal.hl",
            "multiplier.apply_bochner_riesz", "multiplier.apply_Sk"),
    "fftconvolve": ("maximal.br_star", "maximal.br_starstar", "maximal.hl"),
}
_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "points": "pts_computed"}


def per_layer_defs() -> list[tuple[str, str, str]]:
    defs = [(f"{span}.{kind}", _UNITS[kind], "lower")
            for span, kinds in _SPAN_METRICS for kind in kinds]
    defs += _COUNT_METRICS
    for kind, spans in _KERNEL_SPANS.items():
        defs += [(f"kernel.{kind}.calls", "count", "lower"),
                 (f"kernel.{kind}.points", "pts_computed", "lower")]
        defs += [(f"kernel.{kind}.in.{span}.points", "pts_computed", "lower")
                 for span in spans]
    defs.append(("trace.overhead_s", "s", "lower"))
    return defs


def spec_dict() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": why} for w, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_defs()],
    }


def spec_text() -> str:
    return json.dumps(spec_dict(), indent=2) + "\n"


# -- brlab import and environment ---------------------------------------------

class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_brlab():
    package = SRC / "brlab"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no brlab sources at {package}: run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import brlab
    if Path(brlab.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported brlab from {brlab.__file__}, not from {package}")


def code_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "src_hash": code_hash(SRC),
        "bench_hash": code_hash(BENCH_DIR),
    }


# -- measurements --------------------------------------------------------------

_SETUP_CHILD = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.configure({name!r}, {seed!r}, {seconds!r}, {tiny!r})
print(repr(time.monotonic()))
"""


def setup_seconds(name: str, seed: int, seconds: float, tiny: bool) -> float:
    """Fresh interpreter to brlab imported and the workload configured."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed,
                         seconds=seconds, tiny=tiny)
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"setup child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def run_round(wl, traced: bool = False):
    """One round with brlab's caches emptied; returns the result and, for a
    traced round, the tracer.  Span times leave out the probe's samples."""
    import workloads
    from tracing import Tracer

    workloads.reset_caches()
    OUT.mkdir(parents=True, exist_ok=True)
    probe = workloads.SpeedProbe(wl.probe_n)
    tracer = Tracer(lambda: time.perf_counter() - probe.busy_s) if traced else None
    if tracer is not None:
        tracer.install()
    try:
        with probe, tempfile.TemporaryDirectory(dir=OUT, prefix="round-") as tmp:
            return wl.run_round(Path(tmp), probe), tracer
    finally:
        if tracer is not None:
            tracer.restore()


def layer_metrics(tracer, overhead, peak_mb) -> dict[str, float]:
    from brlab import multiplier

    spans = tracer.span_totals()
    kernels = tracer.kernel_totals()
    counts = dict(tracer.counts)
    # the round started with emptied caches, so these are the round's own
    infos = [f.cache_info() for f in (multiplier.bochner_riesz_symbol,
                                      multiplier.truncated_symbol, multiplier.sk_symbol)]
    counts["multiplier.symbol_cache.hits"] = sum(i.hits for i in infos)
    counts["multiplier.symbol_cache.misses"] = sum(i.misses for i in infos)
    counts["process.peak_rss_mb"] = peak_mb
    nodes = counts.get("sparse.nodes", 0)
    counts["sparse.floor_node_frac"] = counts.get("sparse.floor_nodes", 0) / nodes if nodes else 0.0
    out = {}
    for name, unit, _ in per_layer_defs():
        if name == "trace.overhead_s":
            out[name] = overhead
        elif name.startswith("kernel."):
            key, kind = name[len("kernel."):].rsplit(".", 1)
            out[name] = kernels[key][kind] if key in kernels else 0
        elif name in _COUNT_NAMES:
            out[name] = counts.get(name, 0)
        else:
            span, kind = name.rsplit(".", 1)
            out[name] = spans[span][kind] if span in spans else 0
    return out


def check_digest_record(workload: str, seed: int, seconds: float, tiny: bool,
                        digest: str) -> str | None:
    """Every run of one source tree and benchmark with one op list must give
    one digest.  Returns a problem description, or None."""
    key = (f"{code_hash(SRC)}|{code_hash(BENCH_DIR)}|{workload}|seed={seed}"
           f"|seconds={seconds}|tiny={tiny}")
    path = OUT / "digests.json"
    OUT.mkdir(parents=True, exist_ok=True)
    record = json.loads(path.read_text()) if path.exists() else {}
    seen = record.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    if seen != digest:
        return f"digest {digest[:16]} differs from an earlier run's {seen[:16]}"
    return None


def _percentile_line(times: list[float]) -> list[str]:
    n = len(times)
    lines = [f"op_p50_s = {statistics.median(times):.6f} s (n = {n})"]
    if n >= 100:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
        lines.append(f"op_p90_s = {p90:.6f} s (n = {n}, {n - int(0.9 * n)} beyond)")
    else:
        lines.append(f"op_p90_s = n/a (n = {n} < 100)")
    return lines


def run_one(args) -> int:
    import workloads

    seed = HELD_OUT_SEED if args.held_out else args.seed
    wl = workloads.configure(args.workload, seed, args.seconds, args.tiny)
    env = environment(seed)
    print(f"workload {args.workload}  seed {seed}  seconds {args.seconds}  "
          f"trace {args.trace}{'  tiny' if args.tiny else ''}")
    print("env " + json.dumps(env, sort_keys=True))

    problems = []
    if args.trace == 0:
        setups = [setup_seconds(args.workload, seed, args.seconds, args.tiny)
                  for _ in range(1 if args.tiny else SETUP_REPEATS)]
        res, _ = run_round(wl)
        metrics = {"wall_s": res.scaled_wall_s, "setup_s": statistics.median(setups)}
        units = {n: u for n, u, _, _ in END_TO_END}
    else:
        res, _ = run_round(wl)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced, tracer = run_round(wl, traced=True)
        overhead = traced.scaled_wall_s - res.scaled_wall_s
        if traced.digest != res.digest:
            problems.append("traced digest differs from untraced digest")
        problems.extend(f"traced: {f}" for f in traced.failures)
        metrics = layer_metrics(tracer, overhead, peak_mb)
        units = {n: u for n, u, _ in per_layer_defs()}
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{seed}.json"
        trace_path.write_text(json.dumps({"env": env, "workload": args.workload,
                                          "spans": tracer.span_records(),
                                          "kernels": tracer.kernel_totals()}))
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        if tracer.missing:
            print(f"not traced, missing from this brlab: {', '.join(tracer.missing)}")
        print(f"tracing overhead: {overhead:.6f} s (traced {traced.scaled_wall_s:.6f} s"
              f" - untraced {res.scaled_wall_s:.6f} s; raw {traced.wall_s:.6f} s"
              f" - {res.wall_s:.6f} s)")

    problems.extend(res.failures)
    problem = check_digest_record(args.workload, seed, args.seconds, args.tiny, res.digest)
    if problem:
        problems.append(problem)

    print(f"digest sha256 {res.digest}")
    print(f"round: {res.attempted} ops, {res.wall_s:.6f} s, work {res.work:g} "
          f"(nominal {res.nominal_work:g}), machine slowdown {res.probe.slowdown:.4f} "
          f"from {len(res.probe.samples)} samples")
    failed = len(res.failures)
    print(f"ops_failed_frac = {failed / res.attempted:.6f} ({failed} of {res.attempted})")
    if args.workload != "lab":
        for line in _percentile_line(res.op_times):
            print(line)
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for p in problems:
        print(f"PROBLEM: {p}")
    result = {
        "correct": not problems,
        "attempted": res.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh child process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    digests: dict[str, set] = {}
    for name in WORKLOAD_WHY:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            argv += ["--held-out"] if args.held_out else []
            argv += ["--tiny"] if args.tiny else []
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{name} trace {trace} failed: {proc.stderr.strip()}")
            for line in lines[:-1]:
                print(f"[{name} trace {trace}] {line}")
                if line.startswith("digest sha256 "):
                    digests.setdefault(name, set()).add(line.split()[-1])
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
    for name, seen in digests.items():
        ok = len(seen) == 1
        combined["correct"] &= ok
        print(f"digest agreement {name}: {'ok' if ok else 'MISMATCH ' + ' '.join(sorted(seen))}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_WHY, "all"])
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use the held-out seed {HELD_OUT_SEED} instead of --seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny grids and op lists, for the smoke test")
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json from this file's definitions")
    args = parser.parse_args(argv)
    if args.write_spec:
        SPEC_PATH.write_text(spec_text())
        return 0
    if not args.workload:
        parser.error("--workload is required")
    try:
        import_brlab()
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
