"""Experiment orchestration: domination sweeps, local-estimate ratio checks,
kernel-decay diagnostics, weighted and vector-valued sweeps.

Reports are deterministic: identical config + seed gives byte-identical CSV
(floats serialized with ``repr``, no timestamps), and domination trials draw
their randomness from ``master_seed XOR trial_index`` so they can run in any
order or in parallel and still merge deterministically.  Master seeds that
differ only in their low bits therefore share trial fields: seed 6 trial 1
and seed 7 trial 0 both draw from 7.  A ``prop41``/``prop42`` row seeds its
generator with the list ``[master_seed, -k, ..., trial]`` (its ball radius
and, for ``prop41``, its annulus in between), which numpy's ``SeedSequence``
hashes the same way on every Python.  The inputs of both are random
trigonometric sums, each evaluated on a box as the real part of one product
of per-axis phase tables (``grid._trig_sum``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import lru_cache
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import indices
from .grid import (Box, GridSpec, SampledField, _trig_sum, apply_symbol, lp_mean,
                   make_test_function, sum_of_squares)
from .maximal import MaximalConfig, ball_average, ball_points
from .multiplier import k_min, kernel_profile, sk_symbol
from .sparse import bilinear_pairing, build_sparse, sparse_form
from .weights import (
    Weight,
    check_ap_rh_product,
    checkerboard_weight,
    constant_weight,
    mixed_preset_report,
    power_weight,
    predicted_bound_report,
    random_smooth_weight,
    vector_valued_norm,
    weighted_operator_ratio,
)

__all__ = [
    "ExperimentConfig",
    "Report",
    "run_domination",
    "run_prop41",
    "run_prop42",
    "prop41_combos",
    "prop42_combos",
    "run_decay",
    "run_weights",
    "run_vector_valued",
    "fit_slope_vs_log2",
]

# annulus weight exponent in the tail sum: the estimate holds for any M
# with an M-dependent constant; M = 1 keeps the desk-scale constant
# readable because the superpolynomial kernel decay is preasymptotic at
# these annulus distances
M_DECAY = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid, exponents, trial counts and discretization knobs for one run."""

    grid_dim: int = 2
    grid_l: float = 16.0
    grid_n: int = 512               # samples per axis
    delta: float = 0.2
    p0: Fraction = Fraction(6, 5)
    q0: Fraction = Fraction(2)
    p: Fraction = Fraction(8, 5)
    q: Fraction = Fraction(5, 2)
    trials: int = 50
    seed: int = 0
    eps_min_exp: int = 2
    output_dir: str = "out"
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        try:
            self.spec()
        except ValueError as exc:
            raise ValueError(f"grid_dim, grid_l, grid_n: {exc}") from None
        # the exponent record of every report needs p0 in (1, 2) and p > 1;
        # q0 enters the sparse form through its dual and q is an l^q exponent
        if not 1 < self.p0 < 2:
            raise ValueError(f"p0 must lie in (1, 2), got {self.p0}")
        for key, value in (("p", self.p), ("q0", self.q0)):
            if not value > 1:
                raise ValueError(f"{key} must be > 1, got {value}")
        if not self.q >= 1:
            raise ValueError(f"q must be >= 1, got {self.q}")

    def spec(self) -> GridSpec:
        return GridSpec(n=self.grid_dim, L=self.grid_l, N=self.grid_n)

    def maximal_cfg(self) -> MaximalConfig:
        return MaximalConfig(p0=float(self.p0), q0=float(self.q0),
                             eps_min_exp=self.eps_min_exp)

    def with_file(self, path) -> "ExperimentConfig":
        """This config with the ``key = value`` lines of the file at ``path``
        applied on top; ``#`` starts a comment."""
        kwargs = {}
        fields = self.__dataclass_fields__
        for raw in Path(path).read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config lines must read 'key = value': {raw!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"unknown config key: {key}")
            target = fields[key].type
            if key in ("p0", "q0", "p", "q"):
                kwargs[key] = Fraction(value)
            elif target == "int":
                kwargs[key] = int(value)
            elif target == "float":
                kwargs[key] = float(value)
            else:
                kwargs[key] = value
        return replace(self, **kwargs)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


@dataclass
class Report:
    """Rows plus a recomputable summary, with fixed schema per experiment."""

    name: str
    columns: tuple[str, ...]
    rows: list[tuple] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match schema")
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, outdir) -> tuple[Path, Path]:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.name}_rows.csv"
        json_path = out / f"{self.name}_summary.json"
        csv_path.write_text(self.csv(), encoding="utf-8", newline="\n")
        json_path.write_text(json.dumps(self.summary, sort_keys=True, indent=2) + "\n",
                             encoding="utf-8", newline="\n")
        return csv_path, json_path


def _record_dict(cfg: ExperimentConfig) -> dict:
    """Exact exponent record echoed into every report summary."""
    provider = "dim2_solved" if cfg.grid_dim == 2 else "assume_conjecture"
    rec = indices.ExponentRecord.compute(cfg.grid_dim, cfg.p0, cfg.q0, cfg.p,
                                         cfg.q, provider=provider)
    return {k: v for k, v in rec.rows()}


def fit_slope_vs_log2(sizes, values) -> float:
    """Least-squares slope of ``values`` against ``log2(sizes)``."""
    return float(np.polyfit(np.log2(np.asarray(sizes, dtype=float)),
                            np.asarray(values, dtype=float), 1)[0])


# -- domination sweep ---------------------------------------------------------

def _trial_fields(cfg: ExperimentConfig, trial: int) -> tuple[SampledField, SampledField]:
    """Seeded (f, g) pair; parameters are drawn in physical units so the same
    seed gives the same continuum functions on every grid size.

    f mixes a windowed trigonometric background with a few sharp off-scale
    bumps placed deep inside the window: the spikes are what drive the
    level sets of the maximal operators, so the selection tree has depth.
    """
    spec = cfg.spec()
    rng = np.random.default_rng(cfg.seed ^ trial)
    quarter = spec.L / 8.0

    def draw(spiky: bool):
        radius = quarter * (0.5 + 0.4 * rng.random())
        center = (rng.random(spec.n) - 0.5) * (quarter - radius)
        out = make_test_function(
            spec, "random_trig", seed=int(rng.integers(2 ** 31)),
            center=center, window_radius=radius,
            num_modes=6, freq_max=2.0,
        )
        if spiky:
            for _ in range(int(rng.integers(1, 4))):
                # spikes stay a few cells wide on the coarsest sweep grid so
                # the discrete problem is the same one at every resolution
                r_spike = spec.L / 64.0 * (1.0 + 1.5 * rng.random())
                c_spike = center + (rng.random(spec.n) - 0.5) * radius / 2.0
                amp = float(3.0 + 12.0 * rng.random()) * (1 if rng.random() < 0.5 else -1)
                out = out + make_test_function(spec, "bump", center=c_spike,
                                               radius=r_spike, amp=amp)
        return out

    f = draw(spiky=True)
    g = draw(spiky=False)
    return f, g


def _domination_trial(args) -> tuple:
    cfg, trial = args
    f, g = _trial_fields(cfg, trial)
    p0f, q0f = float(cfg.p0), float(cfg.q0)
    q0_dual = q0f / (q0f - 1.0)
    coll, trace = build_sparse(f, g, cfg.delta, cfg.maximal_cfg())
    pairing = bilinear_pairing(f, g, cfg.delta)
    form = sparse_form(coll, f, g, p0f, q0_dual)
    valid = coll.verify()
    top = trace.nodes[0]
    e_ratios = ";".join(f"{n.cube.level}:{float(n.e_ratio)!r}" for n in trace.nodes)
    if form == 0.0:
        status, ratio = "degenerate", 0.0
    else:
        status, ratio = "ok", abs(pairing) / form
    return (trial, status, abs(pairing), form, ratio, top.c, trace.max_c,
            trace.depth, len(coll.cubes), valid, e_ratios)


def run_domination(cfg: ExperimentConfig) -> Report:
    """Per-trial sparse collections and the ratio |<B f, g>| / form."""
    below = cfg.delta <= float(indices.delta_bar_2(cfg.p0))
    columns = ("trial", "status", "pairing_abs", "sparse_form", "ratio",
               "c_top", "c_max", "depth", "n_cubes", "certificate_valid",
               "e_ratios", "below_critical")
    report = Report("dominate", columns)
    jobs = [(cfg, t) for t in range(cfg.trials)]
    workers = min(cfg.workers, os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that a serial run does not pay for its import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_domination_trial, jobs))
    else:
        results = [_domination_trial(j) for j in jobs]
    for row in results:
        report.rows.append(row + (below,))
    ratios = [r[4] for r in results if r[1] == "ok"]
    report.summary = {
        "experiment": "dominate",
        "grid_n": cfg.grid_n,
        "grid_l": cfg.grid_l,
        "delta": cfg.delta,
        "p0": str(cfg.p0),
        "q0": str(cfg.q0),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "exponent_record": _record_dict(cfg),
        "below_critical": below,
        "n_degenerate": sum(1 for r in results if r[1] == "degenerate"),
        "all_certificates_valid": all(r[9] for r in results),
        "max_ratio": max(ratios) if ratios else 0.0,
        "median_ratio": float(np.median(ratios)) if ratios else 0.0,
        "p95_ratio": float(np.quantile(ratios, 0.95)) if ratios else 0.0,
        "max_depth": max(r[7] for r in results),
        "max_c": max(r[6] for r in results),
    }
    return report


# -- localized estimates ------------------------------------------------------

def _annulus_box(spec: GridSpec, r_out: float) -> Box:
    return Box((-r_out,) * spec.n, (r_out,) * spec.n)


@lru_cache(maxsize=16)
def _annulus(spec: GridSpec, r_in: float, r_out: float) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices (row-major order) in the annulus's box of the points
    on and off the annulus ``r_in <= |x| < r_out``, shared by every field on
    it (read-only)."""
    r = np.sqrt(sum_of_squares(_annulus_box(spec, r_out).samples(spec)[1]))
    on = (r >= r_in) & (r < r_out)
    flats = np.flatnonzero(on), np.flatnonzero(~on)
    for flat in flats:
        flat.flags.writeable = False
    return flats


def _annulus_field(spec: GridSpec, r_in: float, r_out: float,
                   seed: int | list[int]) -> tuple[SampledField, np.ndarray]:
    """Random trigonometric sum (6 modes, frequencies below 1.5) on the
    annulus ``r_in <= |x| < r_out``: evaluated on the annulus's box, whose
    points off the annulus are then set to exact ``+0.0`` in place; with its
    values at the annulus's points, in row-major order.  ``seed`` is any seed that
    ``np.random.default_rng`` takes."""
    num_modes, freq_max = 6, 1.5
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((num_modes, spec.n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    freqs = dirs * (freq_max * rng.random(num_modes)[:, None])
    phases = rng.uniform(0.0, 2.0 * np.pi, num_modes)
    amps = rng.standard_normal(num_modes)
    box, (on, off) = _annulus_box(spec, r_out), _annulus(spec, r_in, r_out)
    block = _trig_sum(box.samples(spec)[1], freqs, phases, amps)
    np.put(block, off, 0.0)
    return SampledField(spec, block, support=box), block.take(on)


def _sk_ball_average(f: SampledField, k: int, delta: float, radius: float) -> float:
    """``ball_average(apply_Sk(f, k, delta), 0, radius, 2)``, with ``S_k f``
    computed only on the index box of the ball's points."""
    box, idx = ball_points(f.spec, 0.0, radius)
    vals = apply_symbol(f, sk_symbol(f.spec, int(k), float(delta)), box)
    return lp_mean(vals[idx], 2.0)


def _local_estimates(cfg: ExperimentConfig, name: str, columns: tuple[str, ...],
                     combos: list[tuple], lhs_rhs, **summary) -> Report:
    """Rows ``combo + (trial, lhs, rhs, ratio)`` for every combo and trial,
    with ``(lhs, rhs) = lhs_rhs(*combo, trial, rho)``; the ratio is 0 where
    rhs is 0, and the summary's ratio statistics skip those rows."""
    rho = float(indices.rho_n(cfg.p0, cfg.grid_dim)) + 0.05
    report = Report(name, columns)
    for combo in combos:
        for trial in range(cfg.trials):
            lhs, rhs = lhs_rhs(*combo, trial, rho)
            report.rows.append(combo + (trial, lhs, rhs, lhs / rhs if rhs > 0 else 0.0))
    ratios = [row[-1] for row in report.rows if row[-2] > 0]
    report.summary = {
        "experiment": name,
        "exponent_record": _record_dict(cfg),
        "grid_n": cfg.grid_n, "grid_l": cfg.grid_l,
        "delta": cfg.delta, "p0": str(cfg.p0), "rho": rho,
        "n_configs": len(report.rows),
        "max_ratio": max(ratios) if ratios else 0.0,
        "median_ratio": float(np.median(ratios)) if ratios else 0.0,
        **summary,
    }
    return report


def _admissible(name: str, combos: list[tuple]) -> list[tuple]:
    if not combos:
        raise ValueError(f"no admissible {name} configuration on this grid: enlarge L")
    return combos


def prop41_combos(spec: GridSpec) -> list[tuple[int, float, int]]:
    """The ``(k, r, j)`` that :func:`run_prop41` runs, ball radii ``r >= 1``
    with ``4r <= L/2``; ``ValueError`` when the grid has none."""
    combos = []
    r = 1.0
    while 4.0 * r <= spec.L / 2.0:
        for k in range(max(k_min(spec), math.ceil(-math.log2(r))), 1):
            j = 1
            while 2.0 ** (j + 1) * r <= spec.L / 2.0:
                combos.append((k, r, j))
                j += 1
        r *= 2.0
    return _admissible("prop41", combos)


def prop42_combos(spec: GridSpec) -> list[tuple[int, float]]:
    """The ``(k, eps)`` that :func:`run_prop42` runs, ball radii ``eps >= 1``
    with ``3 eps <= L/2``; ``ValueError`` when the grid has none."""
    combos = []
    eps = 1.0
    while 3.0 * eps <= spec.L / 2.0:
        for k in range(k_min(spec), min(0, math.floor(-math.log2(eps))) + 1):
            if 2.0 ** k * eps <= 1.0:
                combos.append((k, eps))
        eps *= 2.0
    return _admissible("prop42", combos)


def run_prop41(cfg: ExperimentConfig) -> Report:
    """Off-ball local estimate: at admissible (k, r), compare the local L^2
    average of the dyadic piece applied off 2B_r against the weighted sum of
    annulus averages (single-annulus inputs make one term active).

    Each input lives on the annulus ``2^j r <= |x| < 2^{j+1} r`` with
    ``j >= 1``, so it already vanishes on 2B_r and needs no mask."""
    spec = cfg.spec()

    def lhs_rhs(k, r, j, trial, rho):
        f, vals = _annulus_field(spec, 2.0 ** j * r, 2.0 ** (j + 1) * r,
                                 [cfg.seed, -k, int(r * 16), j, trial])
        lhs = _sk_ball_average(f, k, cfg.delta, r)
        # f vanishes on every annulus but its own: one tail term is active
        tail = 2.0 ** (-j * M_DECAY) * lp_mean(vals, float(cfg.p0))
        return lhs, 2.0 ** (-k * rho) * tail

    return _local_estimates(cfg, "prop41", ("k", "r", "j", "trial", "lhs", "rhs", "ratio"),
                            prop41_combos(spec), lhs_rhs, m_decay=M_DECAY)


def run_prop42(cfg: ExperimentConfig) -> Report:
    """Diagonal local estimate at unit-or-larger ball radii with 2^k eps <= 1."""
    spec = cfg.spec()

    def lhs_rhs(k, eps, trial, rho):
        rng = np.random.default_rng([cfg.seed, -k, int(eps), trial])
        f = make_test_function(
            spec, "random_trig", seed=int(rng.integers(2 ** 31)),
            window_radius=spec.L / 8.0 * 0.9, num_modes=6, freq_max=1.5,
        )
        # f * 1_{|x| <= 3 eps} on f's support box
        near = np.sqrt(sum_of_squares(f.support.samples(spec)[1])) <= 3.0 * eps
        local = SampledField(spec, f.take(f.block_ranges) * near, support=f.support)
        lhs = _sk_ball_average(local, k, cfg.delta, 2.0 * eps)
        return lhs, 2.0 ** (-k * rho) * ball_average(f, 0.0, 3.0 * eps, float(cfg.p0))

    return _local_estimates(cfg, "prop42", ("k", "eps", "trial", "lhs", "rhs", "ratio"),
                            prop42_combos(spec), lhs_rhs)


# -- kernel decay -------------------------------------------------------------

def decay_slopes(k: int, delta: float, n: int = 2) -> dict:
    """Envelope log-log slopes of the dyadic-piece kernel in two zones.

    Mid range [2, 2^{-k}/4]: curvature-driven, theoretical -(n-1)/2.  Far
    range: the superpolynomial regime driven by the cutoff smoothness; with
    the 1/100-width transitions its onset sits near 400 * 2^{-k}, so the
    slope is measured over [512, 2048] * 2^{-k} (inside the "sufficiently
    large" radii, well beyond 4 * 2^{-k}).  The kernel oscillates with
    period ~1, so each bin takes the max over a few periods.
    """
    out = {}
    for zone, lo, hi in (("mid", 2.0, 2.0 ** (-k) / 4.0),
                         ("far", 512.0 * 2.0 ** (-k), 2048.0 * 2.0 ** (-k))):
        if hi <= lo * 1.2:
            out[zone] = None
            continue
        edges = np.geomspace(lo, hi, 7)
        bins = []
        for b0, b1 in zip(edges[:-1], edges[1:]):
            if b1 - b0 <= 24.0:
                radii = np.arange(b0, b1, 0.25)
                if len(radii) < 4:
                    radii = np.linspace(b0, b1, 4)
            else:
                center = math.sqrt(b0 * b1)
                radii = center + np.linspace(0.0, 3.0, 13)
            vals = kernel_profile(k, delta, radii, n=n)
            bins.append((math.sqrt(b0 * b1), max(vals)))
        xs = np.log([b[0] for b in bins])
        ys = np.log([max(b[1], 1e-300) for b in bins])
        out[zone] = float(np.polyfit(xs, ys, 1)[0])
    return out


def run_decay(cfg: ExperimentConfig) -> Report:
    columns = ("k", "zone", "slope")
    report = Report("decay", columns)
    slopes = {}
    for k in (-4, -6, -8):
        zk = decay_slopes(k, cfg.delta, cfg.grid_dim)
        for zone, slope in zk.items():
            if slope is not None:
                report.rows.append((k, zone, slope))
        slopes[str(k)] = zk
    report.summary = {
        "experiment": "decay", "delta": cfg.delta, "dim": cfg.grid_dim,
        "slopes": slopes,
    }
    return report


# -- weighted and vector-valued sweeps ----------------------------------------

def _weight_presets(spec: GridSpec, seed: int) -> list[tuple[str, Weight]]:
    return [
        ("const", constant_weight(spec)),
        ("checker", checkerboard_weight(spec, 1.0, 2.0, block_px=max(2, spec.N // 16))),
        ("power+0.5", power_weight(spec, 0.5)),
        ("power-0.5", power_weight(spec, -0.5)),
        ("smooth_a", random_smooth_weight(spec, seed=seed)),
        ("smooth_b", random_smooth_weight(spec, seed=seed + 1, amplitude=1.5)),
    ]


def run_weights(cfg: ExperimentConfig) -> Report:
    """Characteristics, predicted bounds (exponents exact from ``indices``)
    and empirical weighted ratios per preset weight; plus the
    product-inequality check and the mixed preset with the exact A_inf."""
    spec = cfg.spec()
    p, p0 = float(cfg.p), float(cfg.p0)
    columns = ("weight_id", "p", "p0", "delta", "ApChar", "RHChar", "alpha",
               "predicted", "empirical_ratio")
    report = Report("weights", columns)
    fs = [make_test_function(spec, "random_trig", seed=cfg.seed ^ (101 + i),
                             window_radius=spec.L / 10.0, num_modes=5, freq_max=1.5)
          for i in range(3)]
    product_all_hold = True
    presets = _weight_presets(spec, cfg.seed)
    for wid, w in presets:
        pb = predicted_bound_report(w, cfg.p, cfg.p0, "below2")
        emp = max(weighted_operator_ratio(f, w, p, cfg.delta) for f in fs)
        report.rows.append((wid, p, p0, cfg.delta, pb.ap_char, pb.rh_char,
                            pb.alpha, pb.value, emp))
        for (qq, ss) in ((2.0, 2.0), (2.0, 1.5), (1.5, 2.0), (1.0, 2.0), (3.0, 1.25)):
            if not check_ap_rh_product(w, qq, ss).holds:
                product_all_hold = False
    mixed = mixed_preset_report(presets[4][1])
    report.summary = {
        "experiment": "weights",
        "exponent_record": _record_dict(cfg),
        "grid_n": cfg.grid_n, "grid_l": cfg.grid_l,
        "delta": cfg.delta, "p": str(cfg.p), "p0": str(cfg.p0),
        "product_inequality_all_hold": product_all_hold,
        "mixed_preset_value": mixed,
        "max_empirical_ratio": max(r[8] for r in report.rows),
    }
    return report


def run_vector_valued(cfg: ExperimentConfig) -> Report:
    spec = cfg.spec()
    p, q = float(cfg.p), float(cfg.q)
    rng = np.random.default_rng(cfg.seed)
    fs = []
    for i in range(16):
        radius = spec.L / 16.0 * (0.7 + 0.6 * rng.random())
        center = (rng.random(spec.n) - 0.5) * spec.L / 16.0
        fs.append(make_test_function(spec, "bump", seed=None, center=center,
                                     radius=radius, amp=float(rng.standard_normal())))
    rep = vector_valued_norm(fs, p, q, cfg.delta)
    admissible = indices.admissible_vv(cfg.p, cfg.q)
    columns = ("p", "q", "admissible", "n_fields", "input_norm", "output_norm", "ratio")
    report = Report("vv", columns)
    report.rows.append((p, q, admissible, len(fs), rep.input_norm,
                        rep.output_norm, rep.ratio))
    report.summary = {
        "experiment": "vv",
        "exponent_record": _record_dict(cfg),
        "grid_n": cfg.grid_n, "grid_l": cfg.grid_l, "delta": cfg.delta,
        "p": str(cfg.p), "q": str(cfg.q),
        "admissible": admissible, "ratio": rep.ratio,
    }
    return report
