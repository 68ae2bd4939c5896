"""Workloads of the brlab benchmark.

Each workload turns ``(seed, seconds)`` into a fixed list of operations
(ops) and runs it as one *round*.  The op list depends only on the seed,
the size derived from ``--seconds`` and the program's outputs, never on
timing, so two runs with the same arguments do the same work and must
produce the same report digest.

* ``dominate-1024``: ``harness._domination_trial`` at N = 1024, L = 16,
  ``eps_min_exp`` = 4 (the acceptance sweep's finest grid), trials 0, 1, 2,
  ... of the seed.  Trees have 1 to 42 selection nodes.
* ``dominate-256``: the same trial stream at N = 256, ``eps_min_exp`` = 2,
  where trees have 1 to 6 nodes and the fixed per-trial cost weighs more.

  Both run the trial stream until a fixed amount of *work* is done: a trial
  counts as its selection nodes plus its fixed cost expressed in nodes.  The
  round's wall time is scaled to the nominal work, so the reported time does
  not depend on which trees the seed happened to draw.
* ``lab``: in-process ``brlab.cli.main`` for weights, prop41, prop42, decay,
  vv and indices at their defaults (seeded with the workload seed), plus one
  ``write_field`` / ``read_field`` round trip of a default-grid field.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from brlab import cli, grid, harness

PROBE_INTERVAL_S = 0.05
# probe field side: FFT repetitions per sample, typical sample time inside
# rounds on a 2-core 2.1 GHz machine (sets the unit of the slowdown)
PROBE_FIELDS = {128: (4, 0.0023), 256: (1, 0.0024)}

# name: grid N, eps_min_exp, fixed cost of a trial in selection nodes, work
# units per second of --seconds.  The fixed costs are fits of trial time
# against node count on the seed commit: about 0.75 s + 0.35 s per node at
# N = 1024 and 0.04 s + 0.05 s per node at N = 256.
DOMINATE = {
    "dominate-1024": (1024, 4, 2, 3.5),
    "dominate-256": (256, 2, 1, 18),
}
LAB_PASS_S = 15             # seconds of --seconds per lab pass


@dataclass
class RoundResult:
    """Outcome of one round: per-op wall times, work done and the digest."""

    probe: "SpeedProbe"
    nominal_work: float         # units of work the round is sized for
    op_times: list[float] = field(default_factory=list)
    work: float = 0.0           # units of work done
    failures: list[str] = field(default_factory=list)
    digest: str = ""

    def op_start(self) -> tuple[float, float]:
        return time.perf_counter(), self.probe.busy_s

    def op_done(self, start: tuple[float, float]):
        """Record an op begun at ``start``, without the probe's samples."""
        t0, busy0 = start
        self.op_times.append(time.perf_counter() - t0 - (self.probe.busy_s - busy0))

    @property
    def attempted(self) -> int:
        return len(self.op_times)

    @property
    def wall_s(self) -> float:
        """Wall time of the ops, the probe's samples excluded."""
        return math.fsum(self.op_times)

    @property
    def scaled_wall_s(self) -> float:
        """Wall time scaled to the nominal work and to an unloaded machine."""
        return self.wall_s * self.nominal_work / self.work / self.probe.slowdown


# bound now, so a traced round does not count the reference FFTs
_rfftn, _irfftn = np.fft.rfftn, np.fft.irfftn


class SpeedProbe:
    """Measures how fast the machine runs, throughout a round.

    On a shared 2-core 2.1 GHz machine, one trial repeated back to back ran
    at two speeds about 1.6x apart, in phases of a few seconds, so the phase
    mix of a round moved its time by up to 25%.  Inside the
    ``with`` block a timer signal every ``PROBE_INTERVAL_S`` runs a fixed
    FFT-and-ufunc computation in the main thread, between bytecodes of
    whatever op is running; it does not involve brlab.  The mean sample over
    the field's typical sample time is the slowdown of the machine during the
    block.  Divided by it, trial times varied 2-4x less across repetitions
    than raw.  The field is as large as the workload's grid, up to 256, so
    that its working set reacts to contention as the workload's does.
    """

    def __init__(self, field_n: int):
        self.samples: list[float] = []
        self.busy_s = 0.0                   # time spent in samples so far
        self._reps, self._reference_s = PROBE_FIELDS[field_n]
        self._field = np.random.default_rng(0).standard_normal((field_n, field_n))
        self._busy = False
        self._reference_work()      # warm-up, not recorded

    def _reference_work(self):
        for k in range(self._reps):
            spec = _rfftn(self._field * (k + 1))
            back = _irfftn(spec * 0.5, s=self._field.shape, axes=(0, 1))
            float(np.sum(np.abs(back) ** 1.5))
        sum(i * i for i in range(2000))

    def _on_timer(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._reference_work()
        self.samples.append(time.perf_counter() - t0)
        self.busy_s += self.samples[-1]
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        if not self.samples:
            self._on_timer(None, None)
        return statistics.fmean(self.samples) / self._reference_s


def reset_caches():
    """Empty every ``functools.lru_cache`` in brlab, so each round pays the
    cache fills that a fresh CLI process pays, and collect garbage."""
    for name, mod in list(sys.modules.items()):
        if name == "brlab" or name.startswith("brlab."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    gc.collect()


class Dominate:
    """Domination trials 0, 1, 2, ... of one seed at one grid size, run until
    ``work`` units are done; a trial is its selection nodes plus
    ``trial_units``, its fixed cost in nodes."""

    def __init__(self, grid_n: int, eps_min_exp: int, seed: int,
                 trial_units: float, work: float):
        self.cfg = harness.ExperimentConfig(grid_l=16.0, grid_n=grid_n,
                                            eps_min_exp=eps_min_exp,
                                            seed=seed, trials=1)
        self.trial_units = trial_units
        self.work = work
        self.probe_n = min(grid_n, 256)

    def run_round(self, outdir: Path, probe: SpeedProbe) -> RoundResult:
        res = RoundResult(probe, self.work)
        rows = []
        trial = 0
        while res.work < self.work:
            start = res.op_start()
            try:
                row = harness._domination_trial((self.cfg, trial))
            except Exception as exc:  # a failed op is counted, not fatal
                res.op_done(start)
                res.failures.append(f"trial {trial}: {type(exc).__name__}: {exc}")
                res.work += 1 + self.trial_units
                trial += 1
                continue
            res.op_done(start)
            # row: trial, status, |pairing|, form, ratio, c_top, c_max, depth,
            #      n_cubes (one cube per selection node), certificate_valid, e_ratios
            nodes, valid, ratio = row[8], row[9], row[4]
            if not valid:
                res.failures.append(f"trial {trial}: certificate not valid")
            elif not math.isfinite(ratio):
                res.failures.append(f"trial {trial}: non-finite ratio {ratio!r}")
            res.work += nodes + self.trial_units
            rows.append(repr(row))
            trial += 1
        res.digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        return res


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


class Lab:
    """The CLI experiments at their defaults plus a field-file round trip."""

    probe_n = 128

    def __init__(self, seed: int, passes: int, tiny: bool):
        self.seed = seed
        self.passes = passes
        s = ["--seed", str(seed)]
        if tiny:
            small = {"weights": ["--grid-n", "32", "--grid-l", "4"],
                     "prop41": ["--grid-n", "256", "--grid-l", "32", "--trials", "1"],
                     "prop42": ["--grid-n", "256", "--grid-l", "32", "--trials", "1"],
                     "vv": ["--grid-n", "128"]}
            self.field_spec = grid.GridSpec(n=2, L=8.0, N=64)
        else:
            small = {}
            default = harness.ExperimentConfig()
            self.field_spec = grid.GridSpec(n=default.grid_dim, L=default.grid_l,
                                            N=default.grid_n)
        self.commands = [[cmd] + s + small.get(cmd, [])
                         for cmd in ("weights", "prop41", "prop42", "decay", "vv")]
        self.commands.append(["indices"])

    def _field_round_trip(self, outdir: Path) -> str | None:
        spec = self.field_spec
        f = grid.make_test_function(spec, "random_trig", seed=self.seed,
                                    window_radius=spec.L / 10.0)
        path = outdir / "field.txt"
        grid.write_field(f, path)
        back = grid.read_field(path)
        if back.spec != spec or not np.array_equal(back.values, f.values):
            return "field round trip changed the field"
        return None

    def _check_reports(self, outdir: Path) -> list[str]:
        problems = []
        for path in sorted(outdir.glob("*_summary.json")):
            summary = json.loads(path.read_text(encoding="utf-8"))
            if not _all_finite(summary):
                problems.append(f"{path.name}: non-finite value")
            if summary.get("product_inequality_all_hold") is False:
                problems.append(f"{path.name}: product inequality violated")
        return problems

    def run_round(self, outdir: Path, probe: SpeedProbe) -> RoundResult:
        res = RoundResult(probe, self.passes)
        for p in range(self.passes):
            pdir = outdir / f"pass{p}"
            pdir.mkdir(parents=True)
            for argv in self.commands:
                start = res.op_start()
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()) as err:
                        rc = cli.main(argv + ["--out", str(pdir)])
                    problem = None if rc == 0 else f"exit code {rc}: {err.getvalue().strip()}"
                except Exception as exc:
                    problem = f"{type(exc).__name__}: {exc}"
                res.op_done(start)
                if problem:
                    res.failures.append(f"{argv[0]}: {problem}")
            start = res.op_start()
            try:
                problem = self._field_round_trip(pdir)
            except Exception as exc:
                problem = f"{type(exc).__name__}: {exc}"
            res.op_done(start)
            if problem:
                res.failures.append(f"field: {problem}")
            res.work += 1
        res.failures.extend(self._check_reports(outdir / "pass0"))
        digest = hashlib.sha256()
        for path in sorted((outdir / "pass0").iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        passes = {hashlib.sha256(b"".join(p.read_bytes() for p in sorted(d.iterdir()))).digest()
                  for d in outdir.iterdir()}
        if len(passes) != 1:
            res.failures.append("lab passes of one round differ")
        res.digest = digest.hexdigest()
        return res


def configure(name: str, seed: int, seconds: float, tiny: bool = False):
    """Build a workload: its op list is fixed by (name, seed, seconds, tiny)."""
    if name in DOMINATE:
        grid_n, eps_min_exp, trial_units, per_s = DOMINATE[name]
        if tiny:
            grid_n, eps_min_exp = 128, 2
        return Dominate(grid_n, eps_min_exp, seed, trial_units,
                        max(1, round(per_s * seconds)))
    if name == "lab":
        return Lab(seed, max(1, int(seconds // LAB_PASS_S)), tiny)
    raise ValueError(f"unknown workload {name!r}")


