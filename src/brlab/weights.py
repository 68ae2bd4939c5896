"""Muckenhoupt / reverse-Hoelder characteristics and weighted experiments.

Characteristics are suprema over a *fixed* finite cube family (every
grid-aligned dyadic cube plus a seeded sample of general axis-aligned
cubes), so they are certified lower bounds of the continuum quantities and
inequalities between them compare like with like.  A weight and all of its
powers ``Weight.pow(s)`` read one table of per-cube statistics of the base
field, which makes algebraic identities between characteristics (A_2
duality, the product inequality) hold to the last float.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import indices
from .grid import (
    BandSymbol,
    GridSpec,
    SampledField,
    _radius_sq_grid,
    apply_symbol,
    box_sums,
    doubling_table,
    freq_sq,
    lp_norm,
    prefix_sum,
)
from .multiplier import apply_bochner_riesz

__all__ = [
    "Weight",
    "ap_characteristic",
    "a1_characteristic",
    "ainf_characteristic",
    "rh_inf_characteristic",
    "rh_characteristic",
    "check_ap_rh_product",
    "ProductReport",
    "predicted_bound_report",
    "PredictedBound",
    "weighted_operator_ratio",
    "vector_valued_norm",
    "VectorValuedReport",
    "mixed_preset_report",
    "constant_weight",
    "checkerboard_weight",
    "power_weight",
    "random_smooth_weight",
]


class _CubeStats:
    """Per-cube statistics of a base field over its family, each computed on
    first use: the average of base^e keyed by e, of log(base), min and max."""

    def __init__(self, base: np.ndarray, fam_lo: np.ndarray, fam_side: np.ndarray):
        self.base, self.fam_lo, self.fam_side = base, fam_lo, fam_side
        self.avgs: dict[float, np.ndarray] = {}

    def avg(self, e: float) -> np.ndarray:
        if e not in self.avgs:
            self.avgs[e] = self._means(self.base ** e)
        return self.avgs[e]

    @cached_property
    def log_avg(self) -> np.ndarray:
        return self._means(np.log(self.base))

    @cached_property
    def mins(self) -> np.ndarray:
        return self._extremes(np.minimum)

    @cached_property
    def maxs(self) -> np.ndarray:
        return self._extremes(np.maximum)

    def _means(self, vals: np.ndarray) -> np.ndarray:
        lo = self.fam_lo.T
        sums = box_sums(prefix_sum(vals), lo, lo + self.fam_side)
        return sums / self.fam_side.astype(float) ** vals.ndim

    def _extremes(self, op) -> np.ndarray:
        """``op`` (``np.minimum`` or ``np.maximum``) over every family cube: a
        cube of side ``s`` reads its ``2^n`` corner windows at level
        ``floor(log2 s)`` of :func:`grid.doubling_table`, which cover it."""
        levels = doubling_table(self.base, op, int(self.fam_side.max()).bit_length())
        out = np.empty(len(self.fam_lo))
        for k, table in enumerate(levels):
            sel = (self.fam_side >> k) == 1
            lo, shift = self.fam_lo[sel].T, self.fam_side[sel] - (1 << k)
            corners = itertools.product((0, 1), repeat=self.base.ndim)
            out[sel] = reduce(op, (table[tuple(l + c * shift for l, c in zip(lo, corner))]
                                   for corner in corners))
        return out


class Weight:
    """Strictly positive field over a fixed cube family: the grid's dyadic cubes
    plus ``n_random`` general cubes drawn from ``family_seed``.  ``pow(s)`` is
    ``w^s`` on the same family and statistics; as ``x -> x^s`` is monotone, its
    extremes are the base's raised to ``s``, min and max swapping for ``s < 0``."""

    def __init__(self, field: SampledField, fam_lo: np.ndarray, fam_side: np.ndarray,
                 stats: _CubeStats | None = None, exp: float = 1.0):
        vals = field.values.real
        if np.any(vals <= 0) or np.any(field.values.imag != 0):
            raise ValueError("weights must be strictly positive real fields")
        self.field, self.spec = field, field.spec
        self.fam_lo, self.fam_side = fam_lo, fam_side
        self._stats = _CubeStats(vals, fam_lo, fam_side) if stats is None else stats
        self._exp = exp

    @classmethod
    def build(cls, field: SampledField, family_seed: int = 0,
              n_random: int = 10_000) -> "Weight":
        return cls(field, *_build_family(field.spec, family_seed, n_random))

    def pow(self, s: float) -> "Weight":
        e = self._exp * s
        fld = SampledField(self.spec, self._stats.base ** e)
        return Weight(fld, self.fam_lo, self.fam_side, self._stats, e)

    def _avgs(self, e: float) -> np.ndarray:
        """Average of (this weight)^e over every family cube."""
        return self._stats.avg(self._exp * e)

    @property
    def _mins(self) -> np.ndarray:
        return (self._stats.maxs if self._exp < 0 else self._stats.mins) ** self._exp

    @property
    def _maxs(self) -> np.ndarray:
        return (self._stats.mins if self._exp < 0 else self._stats.maxs) ** self._exp


@lru_cache(maxsize=8)
def _build_family(spec: GridSpec, seed: int, n_random: int):
    """Low corners and sides of the cube family, read-only and shared."""
    N, n = spec.N, spec.n
    sides = [N >> j for j in range(N.bit_length())]  # N, N/2, ..., 1
    # every dyadic cube of each side, corners in row-major order
    lo = [np.indices((N // s,) * n, dtype=np.int64).reshape(n, -1).T * s for s in sides]
    side = [np.full(len(corners), s, dtype=np.int64) for corners, s in zip(lo, sides)]
    rand_lo, rand_side = [], []
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        s = int(rng.integers(2, N // 2 + 1))
        rand_lo.append(rng.integers(0, N - s + 1, size=n))  # the stream of n scalar draws
        rand_side.append(s)
    lo.append(np.array(rand_lo, dtype=np.int64).reshape(-1, n))
    side.append(np.array(rand_side, dtype=np.int64))
    fam = np.concatenate(lo), np.concatenate(side)
    for arr in fam:
        arr.flags.writeable = False
    return fam


# -- characteristics ----------------------------------------------------------

def ap_characteristic(w: Weight, p: float) -> float:
    """``sup_B (avg_B w)(avg_B w^{1-p'})^{p-1}`` over the weight's family."""
    if p <= 1:
        raise ValueError("ap_characteristic needs p > 1; use a1_characteristic")
    return float(np.max(w._avgs(1.0) * w._avgs(-1.0 / (p - 1.0)) ** (p - 1.0)))


def a1_characteristic(w: Weight) -> float:
    """``sup_B (avg_B w) * (ess sup_B 1/w)``, grid min standing in for inf."""
    return float(np.max(w._avgs(1.0) / w._mins))


def rh_inf_characteristic(w: Weight) -> float:
    """``sup_B (ess sup_B w) / (avg_B w)``: the scale-invariant RH_infty constant."""
    return float(np.max(w._maxs / w._avgs(1.0)))


def rh_characteristic(w: Weight, s: float) -> float:
    """``sup_B (avg_B w^s)^{1/s} / (avg_B w)``."""
    if s <= 1:
        raise ValueError(f"reverse-Hoelder exponent must satisfy s > 1, got {s}")
    return float(np.max(w._avgs(s) ** (1.0 / s) / w._avgs(1.0)))


def ainf_characteristic(w: Weight) -> float:
    """``sup_B (avg_B w) exp(-avg_B log w)``: the limit of ``[w]_{A_p}`` as
    p -> infinity on the weight's family (Hruscev's A_inf constant)."""
    return float(np.max(w._avgs(1.0) * np.exp(-w._exp * w._stats.log_avg)))


def _char_any(w: Weight, p: float) -> float:
    return a1_characteristic(w) if p == 1 else ap_characteristic(w, p)


@dataclass(frozen=True)
class ProductReport:
    lhs: float
    rhs: float
    holds: bool


def check_ap_rh_product(w: Weight, q: float, s: float) -> ProductReport:
    """Product inequality ``[w^s]_{A_{1+s(q-1)}} <= ([w]_{A_q} [w]_{RH_s})^s``,
    both sides on the same cube family (per-cube algebra, so truncating the
    family cannot break it)."""
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    if s <= 1:
        raise ValueError(f"need s > 1, got {s}")
    lhs = _char_any(w.pow(s), 1.0 + s * (q - 1.0))
    rhs = (_char_any(w, q) * rh_characteristic(w, s)) ** s
    return ProductReport(lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-9)))


# -- predicted weighted-norm bounds -------------------------------------------

@dataclass(frozen=True)
class PredictedBound:
    value: float
    alpha: float
    ap_char: float
    rh_char: float


def predicted_bound_report(w: Weight, p, p0, side: str) -> PredictedBound:
    """Right-hand side ``([w]_{A_a} [w]_{RH_b})^alpha`` of the weighted bound
    with the constant set to 1; ``alpha`` and the indices ``a``, ``b`` come
    exactly from :mod:`indices` (``p``, ``p0`` are exact rationals)."""
    alpha = float(indices.alpha_exponent(p, p0, side))
    ap_idx, rh_idx = indices.weight_indices(p, p0, side)
    ap, rh = ap_characteristic(w, float(ap_idx)), rh_characteristic(w, float(rh_idx))
    return PredictedBound((ap * rh) ** alpha, alpha, ap, rh)


def weighted_operator_ratio(f: SampledField, w: Weight, p: float,
                            delta: float) -> float:
    """``||B f||_{L^p(w)} / ||f||_{L^p(w)}``: empirical lower bound on the
    weighted operator norm from one input."""
    denom = lp_norm(f, p, w.field)
    if denom == 0:
        raise ValueError("zero denominator: input has vanishing weighted norm")
    return lp_norm(apply_bochner_riesz(f, delta), p, w.field) / denom


@dataclass(frozen=True)
class VectorValuedReport:
    input_norm: float
    output_norm: float
    ratio: float


def vector_valued_norm(fs: list[SampledField], p: float, q: float,
                       delta: float) -> VectorValuedReport:
    """``|| (sum_i |h_i|^q)^{1/q} ||_p`` for the inputs and their images."""
    spec = fs[0].spec

    def lq_stack(fields):
        acc = np.zeros(spec.shape)
        for h in fields:
            acc += np.abs(h.values) ** q
        return SampledField(spec, acc ** (1.0 / q))

    inp = lp_norm(lq_stack(fs), p)
    out = lp_norm(lq_stack([apply_bochner_riesz(h, delta) for h in fs]), p)
    ratio = out / inp if inp > 0 else np.inf if out > 0 else 0.0
    return VectorValuedReport(inp, out, ratio)


def mixed_preset_report(w: Weight) -> float:
    """Mixed-characteristic preset ``[w^3]_{A_2}^{1/6} [w^3 + w^{-3}]_{A_inf}^{1/2}``,
    with the exact A_inf constant of :func:`ainf_characteristic`."""
    mix_vals = w.field.values.real ** 3 + w.field.values.real ** (-3)
    mix = Weight(SampledField(w.spec, mix_vals), w.fam_lo, w.fam_side)
    return (ap_characteristic(w.pow(3.0), 2.0) ** (1.0 / 6.0)
            * ainf_characteristic(mix) ** 0.5)


# -- weight presets ------------------------------------------------------------

def constant_weight(spec: GridSpec, c: float = 1.0, **kw) -> Weight:
    if c <= 0:
        raise ValueError("constant weight must be positive")
    return Weight.build(SampledField(spec, np.full(spec.shape, c)), **kw)


def checkerboard_weight(spec: GridSpec, low: float = 1.0, high: float = 2.0,
                        block_px: int = 8, **kw) -> Weight:
    idx = np.indices(spec.shape) // block_px
    parity = np.sum(idx, axis=0) % 2
    vals = np.where(parity == 0, low, high).astype(float)
    return Weight.build(SampledField(spec, vals), **kw)


def power_weight(spec: GridSpec, a: float, **kw) -> Weight:
    """``max(|x|, dx)^a``: the |x|^a weight regularized at the origin so it
    stays strictly positive and bounded on the grid."""
    r = np.sqrt(_radius_sq_grid(spec))
    vals = np.maximum(r, spec.dx) ** a
    return Weight.build(SampledField(spec, vals), **kw)


def random_smooth_weight(spec: GridSpec, seed: int = 0, amplitude: float = 1.0,
                         corr_px: int = 8, **kw) -> Weight:
    """``exp(amplitude * smoothed noise)``: strictly positive, rough but tame."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(spec.shape)
    gauss = np.exp(-freq_sq(spec) * (spec.L * corr_px / spec.N) ** 2 / 2.0)
    smooth = apply_symbol(SampledField(spec, noise), BandSymbol(gauss))
    smooth = smooth / max(np.abs(smooth).max(), 1e-12)
    return Weight.build(SampledField(spec, np.exp(amplitude * smooth)), **kw)
