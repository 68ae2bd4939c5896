"""Muckenhoupt / reverse-Hoelder characteristics and weighted experiments.

Characteristics are suprema over a *fixed* finite cube family (every
grid-aligned dyadic cube plus a seeded sample of general axis-aligned
cubes), so they are certified lower bounds of the continuum quantities and
inequalities between them compare like with like.  ``Weight.pow`` shares
the per-exponent average cache of its base weight, which makes algebraic
identities between characteristics (A_2 duality, the product inequality)
hold to the last float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d

from .grid import (
    GridSpec,
    SampledField,
    _radius_sq_grid,
    apply_symbol,
    box_sums,
    freq_sq,
    lp_norm,
    prefix_sum,
)
from .multiplier import apply_bochner_riesz

__all__ = [
    "Weight",
    "ap_characteristic",
    "a1_characteristic",
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


class Weight:
    """Strictly positive field with cached characteristic evaluations.

    The cube family is fixed at construction: all dyadic subdivisions of
    the grid, plus ``n_random`` general axis-aligned cubes drawn from
    ``family_seed``.  ``pow(s)`` returns the weight ``w^s`` sharing the
    same family and the same per-exponent average cache.
    """

    def __init__(self, field: SampledField, fam_lo: np.ndarray,
                 fam_side: np.ndarray, base_values: np.ndarray | None = None,
                 exp: float = 1.0, image_cache: dict | None = None):
        vals = field.values.real
        if np.any(vals <= 0) or np.any(field.values.imag != 0):
            raise ValueError("weights must be strictly positive real fields")
        self.field = field
        self.spec = field.spec
        self.fam_lo = fam_lo
        self.fam_side = fam_side
        self._base = vals if base_values is None else base_values
        self._exp = exp
        self._images = {} if image_cache is None else image_cache

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, field: SampledField, family_seed: int = 0,
              n_random: int = 10_000) -> "Weight":
        spec = field.spec
        fam_lo, fam_side = _build_family(spec, family_seed, n_random)
        return cls(field, fam_lo, fam_side)

    def pow(self, s: float) -> "Weight":
        vals = self._base ** (self._exp * s)
        fld = SampledField(self.spec, vals)
        return Weight(fld, self.fam_lo, self.fam_side, base_values=self._base,
                      exp=self._exp * s, image_cache=self._images)

    # -- per-cube primitives ----------------------------------------------

    def _avgs(self, e: float) -> np.ndarray:
        """Average of (this weight)^e over every family cube."""
        key = self._exp * e
        if key not in self._images:
            self._images[key] = prefix_sum(self._base ** key)
        lo = self.fam_lo.T
        sums = box_sums(self._images[key], lo, lo + self.fam_side)
        return sums / self.fam_side.astype(float) ** self.spec.n

    @cached_property
    def _mins(self) -> np.ndarray:
        """Min over every family cube, computed on first use."""
        return self._cube_extremes(minimum_filter1d)

    @cached_property
    def _maxs(self) -> np.ndarray:
        """Max over every family cube, computed on first use."""
        return self._cube_extremes(maximum_filter1d)

    def _cube_extremes(self, filt) -> np.ndarray:
        """``filt`` (a sliding min or max filter) over every family cube: per
        distinct side ``s``, filters over ``[lo, lo + s)`` on each axis, read
        at the low corners."""
        vals = self.field.values.real
        out = np.empty(len(self.fam_lo))
        for s in np.unique(self.fam_side).tolist():
            sel = self.fam_side == s
            box = vals
            for ax in range(self.spec.n):
                box = filt(box, s, axis=ax, origin=-(s // 2))
            out[sel] = box[tuple(self.fam_lo[sel].T)]
        return out


@lru_cache(maxsize=8)
def _build_family(spec: GridSpec, seed: int, n_random: int):
    """Low corners and sides of the cube family, read-only and shared."""
    N, n = spec.N, spec.n
    lo_list, side_list = [], []
    side = N
    while side >= 1:
        k = N // side
        for idx in itertools.product(range(k), repeat=n):
            lo_list.append([i * side for i in idx])
            side_list.append(side)
        side //= 2
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        s = int(rng.integers(2, N // 2 + 1))
        lo_list.append([int(rng.integers(0, N - s + 1)) for _ in range(n)])
        side_list.append(s)
    fam = np.asarray(lo_list, dtype=np.int64), np.asarray(side_list, dtype=np.int64)
    for arr in fam:
        arr.flags.writeable = False
    return fam


# -- characteristics ----------------------------------------------------------

def ap_characteristic(w: Weight, p: float) -> float:
    """``sup_B (avg_B w)(avg_B w^{1-p'})^{p-1}`` over the weight's family."""
    if p <= 1:
        raise ValueError("ap_characteristic needs p > 1; use a1_characteristic")
    avg_w = w._avgs(1.0)
    avg_dual = w._avgs(-1.0 / (p - 1.0))
    return float(np.max(avg_w * avg_dual ** (p - 1.0)))


def a1_characteristic(w: Weight) -> float:
    """``sup_B (avg_B w) * (ess sup_B 1/w)``, grid min standing in for inf."""
    avg_w = w._avgs(1.0)
    return float(np.max(avg_w / w._mins))


def rh_inf_characteristic(w: Weight) -> float:
    """``sup_B (ess sup_B w) / (avg_B w)``: the scale-invariant RH_infty constant."""
    avg_w = w._avgs(1.0)
    return float(np.max(w._maxs / avg_w))


def rh_characteristic(w: Weight, s: float) -> float:
    """``sup_B (avg_B w^s)^{1/s} / (avg_B w)``."""
    if s <= 1:
        raise ValueError(f"reverse-Hoelder exponent must satisfy s > 1, got {s}")
    avg_w = w._avgs(1.0)
    avg_s = w._avgs(s)
    return float(np.max(avg_s ** (1.0 / s) / avg_w))


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


def predicted_bound_report(w: Weight, p: float, p0: float,
                           side: str) -> PredictedBound:
    """Right-hand side of the weighted bound with the constant set to 1."""
    if side == "below2":
        if not p0 < p < 2:
            raise ValueError(f"side below2 admits p in ({p0}, 2), got {p}")
        alpha = max(1.0 / (p - p0), 1.0 / (2.0 - p))
        ap_idx = p / p0
        rh_idx = 2.0 / (2.0 - p)            # (2/p)'
    elif side == "above2":
        p0c = p0 / (p0 - 1.0)
        if not 2 < p < p0c:
            raise ValueError(f"side above2 admits p in (2, {p0c}), got {p}")
        alpha = max(1.0 / (p - 2.0), (p0c - 2.0) / (p0c - p))
        ap_idx = p / 2.0
        rh_idx = p0c / (p0c - 2.0)          # (p0'/2)'
    else:
        raise ValueError(f"side must be 'below2' or 'above2', got {side!r}")
    ap = ap_characteristic(w, ap_idx)
    rh = rh_characteristic(w, rh_idx)
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
    admissible: bool


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
    admissible = (1.2 <= p <= 6.0 and 1.2 <= q <= 6.0
                  and abs(1.0 / p - 1.0 / q) < 1.0 / 3.0)
    ratio = out / inp if inp > 0 else math.inf if out > 0 else 0.0
    return VectorValuedReport(inp, out, ratio, admissible)


def mixed_preset_report(w: Weight, ainf_p: float = 2.0 ** 10) -> float:
    """Mixed-characteristic preset: ``[w^3]_{A_2}^{1/6} [w^3 + w^{-3}]_{A_inf}^{1/2}``
    with A_inf approximated by A_p at a large p (documented approximation)."""
    w3 = w.pow(3.0)
    mix_vals = w.field.values.real ** 3 + w.field.values.real ** (-3)
    mix = Weight(SampledField(w.spec, mix_vals), w.fam_lo, w.fam_side)
    return (ap_characteristic(w3, 2.0) ** (1.0 / 6.0)
            * ap_characteristic(mix, ainf_p) ** 0.5)


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
    smooth = apply_symbol(noise, gauss)
    smooth = smooth / max(np.abs(smooth).max(), 1e-12)
    return Weight.build(SampledField(spec, np.exp(amplitude * smooth)), **kw)
