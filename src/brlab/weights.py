"""Muckenhoupt / reverse-Hoelder characteristics and weighted experiments.

Characteristics are suprema over a *fixed* finite cube family (every
grid-aligned dyadic cube plus a seeded sample of general axis-aligned
cubes), so they are certified lower bounds of the continuum quantities and
inequalities between them compare like with like.  The sample is the
32-bit word stream of NumPy's bounded integers, drawn in bulk.  A weight
and all of its powers ``Weight.pow(s)`` read one table of per-cube
statistics of the base field, which makes algebraic identities between
characteristics (A_2 duality, the product inequality) hold to the last
float; each statistic is a few flat gathers at corner indices that the
family computes once.
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


@dataclass(frozen=True, eq=False)
class _Family:
    """A cube family with the flat indices its statistics gather, read-only and
    shared by every weight on the grid.  It unpacks to ``lo, side``: the low
    corners and sides.  ``volume`` is each cube's volume; ``box_corners`` holds
    the ``2^n`` (sign, flat index) pairs of every cube's corners in the padded
    ``(N+1)^n`` prefix image, in :func:`itertools.product` order;
    ``levels[k]`` holds the cubes of side in ``[2^k, 2^{k+1})`` and the flat
    indices of their ``2^n`` corner windows in level ``k`` of
    :func:`grid.doubling_table`, of shape ``(N - 2^k + 1)^n``."""

    lo: np.ndarray
    side: np.ndarray
    volume: np.ndarray
    box_corners: tuple[tuple[int, np.ndarray], ...]
    levels: tuple[tuple[np.ndarray, tuple[np.ndarray, ...]], ...]

    def __iter__(self):
        return iter((self.lo, self.side))


class _CubeStats:
    """Per-cube statistics of a base field over its family, each computed on
    first use: the average of base^e keyed by e, of log(base), min and max."""

    def __init__(self, base: np.ndarray, family: _Family):
        self.base, self.family = base, family
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
        """Inclusion-exclusion on the prefix image, corner by corner."""
        flat = prefix_sum(vals).reshape(-1)
        total = 0
        for sign, idx in self.family.box_corners:
            total = total + sign * flat.take(idx)
        return total / self.family.volume

    def _extremes(self, op) -> np.ndarray:
        """``op`` (``np.minimum`` or ``np.maximum``) over every family cube: a
        cube of side ``s`` reads its ``2^n`` corner windows at level
        ``floor(log2 s)`` of :func:`grid.doubling_table`, which cover it."""
        fam = self.family
        out = np.empty(len(fam.side))
        tables = doubling_table(self.base, op, len(fam.levels))
        for (sel, corners), table in zip(fam.levels, tables):
            flat = table.reshape(-1)
            out[sel] = reduce(op, (flat.take(c) for c in corners))
        return out


class Weight:
    """Strictly positive field over a fixed cube family: the grid's dyadic cubes
    plus ``n_random`` general cubes drawn from ``family_seed``.  ``pow(s)`` is
    ``w^s`` on the same family and statistics; as ``x -> x^s`` is monotone, its
    extremes are the base's raised to ``s``, min and max swapping for ``s < 0``."""

    def __init__(self, field: SampledField, family: _Family,
                 stats: _CubeStats | None = None, exp: float = 1.0):
        vals = field.values.real
        if np.any(vals <= 0) or np.any(field.values.imag != 0):
            raise ValueError("weights must be strictly positive real fields")
        self.field, self.spec, self.family = field, field.spec, family
        self.fam_lo, self.fam_side = family
        self._stats = _CubeStats(vals, family) if stats is None else stats
        self._exp = exp

    @classmethod
    def build(cls, field: SampledField, family_seed: int = 0,
              n_random: int = 10_000) -> "Weight":
        return cls(field, _build_family(field.spec, family_seed, n_random))

    def pow(self, s: float) -> "Weight":
        e = self._exp * s
        fld = SampledField(self.spec, self._stats.base ** e)
        return Weight(fld, self.family, self._stats, e)

    def _avgs(self, e: float) -> np.ndarray:
        """Average of (this weight)^e over every family cube."""
        return self._stats.avg(self._exp * e)

    @property
    def _mins(self) -> np.ndarray:
        return (self._stats.maxs if self._exp < 0 else self._stats.mins) ** self._exp

    @property
    def _maxs(self) -> np.ndarray:
        return (self._stats.mins if self._exp < 0 else self._stats.maxs) ** self._exp


_WORD = 0xFFFFFFFF


def _random_cubes(N: int, n: int, seed: int, count: int):
    """Sides and low corners of ``count`` random cubes: cube ``i`` is the
    ``i``-th pass of ``s = rng.integers(2, N // 2 + 1)`` then
    ``rng.integers(0, N - s + 1, size=n)`` on ``rng = default_rng(seed)``,
    drawn in bulk (``N <= 2^32``).  NumPy takes each of these draws from the
    32-bit words of PCG64 (the low half of each 64-bit output, then the high
    half) by Lemire's multiply-shift: a word ``w`` gives ``(w * range) >> 32``
    unless its low product half falls below ``(2^32 - range) % range``, when
    the draw takes the next word.  One pass assumes no word is rejected; the
    cubes before the first rejected word are kept, and the pass restarts at
    the next cube with that word struck from the stream."""
    if count < 0:
        raise ValueError(f"n_random must be >= 0, got {count}")
    bitgen = np.random.default_rng(seed).bit_generator
    per = n + 1
    side, lo = np.empty(count, dtype=np.int64), np.empty((count, n), dtype=np.int64)
    words, done = np.empty(0, dtype=np.uint64), 0
    while done < count:
        need = (count - done) * per
        if len(words) < need:
            raw = bitgen.random_raw((need - len(words) + 1) // 2)
            words = np.concatenate([words, np.stack([raw & _WORD, raw >> 32], axis=1).ravel()])
        w = words[:need].reshape(-1, per)
        span = np.full_like(w, N // 2 - 1)
        s = 2 + (w[:, 0] * span[:, 0] >> 32)
        span[:, 1:] = (N + 1 - s)[:, None]
        prod = w * span
        rejected = np.flatnonzero((prod & _WORD) < (2**32 - span) % span)
        kept = len(w) if rejected.size == 0 else rejected[0] // per
        side[done:done + kept], lo[done:done + kept] = s[:kept], prod[:kept, 1:] >> 32
        done += kept
        words = np.delete(words[kept * per:], rejected[:1] - kept * per)
    return side, lo


@lru_cache(maxsize=8)
def _build_family(spec: GridSpec, seed: int, n_random: int) -> _Family:
    """The grid's dyadic cubes, corners in row-major order, side N down to 1,
    then ``n_random`` cubes of :func:`_random_cubes`; with their index tables."""
    N, n = spec.N, spec.n
    rand_side, rand_lo = _random_cubes(N, n, seed, n_random)
    sides = [N >> j for j in range(N.bit_length())]  # N, N/2, ..., 1
    lo = np.concatenate([np.indices((N // s,) * n, dtype=np.int64).reshape(n, -1).T * s
                         for s in sides] + [rand_lo])
    side = np.concatenate([np.full((N // s) ** n, s, dtype=np.int64) for s in sides]
                          + [rand_side])

    def flat_corners(lo_t, ext, width):
        # lo + c * ext in a (width,)^n table for c in product((1, 0)): the
        # high corner first, the order of inclusion-exclusion's signs below
        return tuple(np.ravel_multi_index([l + c * ext for l, c in zip(lo_t, corner)],
                                          (width,) * n)
                     for corner in itertools.product((1, 0), repeat=n))

    signs = [(-1) ** sum(bits) for bits in itertools.product((0, 1), repeat=n)]
    box_corners = tuple(zip(signs, flat_corners(lo.T, side, N + 1)))
    levels = []
    for k in range(N.bit_length()):
        sel = np.flatnonzero(side >> k == 1)
        levels.append((sel, flat_corners(lo.T[:, sel], side[sel] - (1 << k), N - (1 << k) + 1)))
    fam = _Family(lo, side, side.astype(float) ** n, box_corners, tuple(levels))
    for arr in (lo, side, fam.volume, *(idx for _, idx in box_corners),
                *(arr for sel, corners in levels for arr in (sel, *corners))):
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
    """``|| (sum_i |h_i|^q)^{1/q} ||_p`` for the inputs and their images.
    Each field adds ``|h|^q`` on its stored block only: off it ``|0|^q``
    would add an exact zero."""
    spec = fs[0].spec

    def lq_stack(fields):
        acc = np.zeros(spec.shape)
        for h in fields:
            box = tuple(slice(lo, hi) for lo, hi in h.block_ranges)
            acc[box] += np.abs(h.take(h.block_ranges)) ** q
        return SampledField(spec, acc ** (1.0 / q))

    inp = lp_norm(lq_stack(fs), p)
    out = lp_norm(lq_stack([apply_bochner_riesz(h, delta) for h in fs]), p)
    ratio = out / inp if inp > 0 else np.inf if out > 0 else 0.0
    return VectorValuedReport(inp, out, ratio)


def mixed_preset_report(w: Weight) -> float:
    """Mixed-characteristic preset ``[w^3]_{A_2}^{1/6} [w^3 + w^{-3}]_{A_inf}^{1/2}``,
    with the exact A_inf constant of :func:`ainf_characteristic`."""
    mix_vals = w.field.values.real ** 3 + w.field.values.real ** (-3)
    mix = Weight(SampledField(w.spec, mix_vals), w.family)
    return (ap_characteristic(w.pow(3.0), 2.0) ** (1.0 / 6.0)
            * ainf_characteristic(mix) ** 0.5)


# -- weight presets ------------------------------------------------------------

def constant_weight(spec: GridSpec, c: float = 1.0, **kw) -> Weight:
    if c <= 0:
        raise ValueError("constant weight must be positive")
    return Weight.build(SampledField(spec, np.full(spec.shape, c)), **kw)


def checkerboard_weight(spec: GridSpec, low: float = 1.0, high: float = 2.0,
                        block_px: int = 8, **kw) -> Weight:
    if block_px < 1:
        raise ValueError(f"block_px must be >= 1, got {block_px}")
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
