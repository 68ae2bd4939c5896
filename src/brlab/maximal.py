"""Discretized maximal operators that drive the stopping-time selection.

Three operators act on a field ``f``:

* ``hl_maximal``      -- L^{p0} Hardy-Littlewood maximal function over the
  dyadic radius set.
* ``br_starstar``     -- sup over radii ``eps`` and centers ``y`` near ``x``
  of local L^{q0} averages of the truncated multiplier applied to ``f``.
* ``br_star``         -- same, but the input is masked outside the ball
  ``B(c, 3 eps)`` first, ``c`` the center of x's tile (the off-diagonal /
  tail operator).

Discretization policy
---------------------
Only the radii are discretized: the continuum sup over ``eps > 0`` is
replaced by a finite dyadic radius set, which gives lower bounds of the
continuum operators.  For HL the gap is bounded: a radius ``r`` with
``2^m <= r < 2^{m+1}`` has ``B_r`` inside ``B_{2^{m+1}}``, so HL over every
integer radius in ``[2^eps_min_exp, N/4]`` is at most
``max_m (|B_{2^{m+1}}| / |B_{2^m}|)^{1/p0}`` (3.21 at ``p0 = 6/5``) times the
dyadic HL.  Measured with every integer radius on whole grids (N = 128 and
256), the dense over dyadic ratio reached 2.20 for HL and 2.40 for
``br_starstar`` (medians 1.04-1.10); with those radii for HL and
``br_starstar`` in the selection, 3 of 40 collections at N = 256 changed
(every certificate stayed valid, and one sparse form fell about 4.5x), so
the adaptive threshold constant does not absorb the gap in every trial.

The sup over centers ``|x - y| <= eps`` takes every lattice point of the
eps-ball: a grey dilation, the max over the ball's chords along the last
axis of running maxima, each of width ``2h + 1`` the max of two windows of
``grid.doubling_table`` (van Herk, Pattern Recognit. Lett. 13, 1992).  A
max is exact, so this is bitwise the max over every candidate.

The mask of ``br_star``
-----------------------
At radius ``eps`` the window is cut into tiles of side
``t = min(eps, window side)`` from its low corner, and ``x`` takes the mask
ball ``B(c, 3 eps)`` of its tile's center ``c``: the form of Lerner's local
grand maximal truncation, which masks ``1_{(3Q)^c}`` for the dyadic cube
``Q`` that holds ``x``.  As ``|x - c| <= (sqrt(n)/2) eps``, the triangle
inequality of the minimal-image metric gives what the sparse argument
needs.  Every averaging ball ``B(y, eps)`` with ``|y - x| <= eps`` lies in
``B(c, (2 + sqrt(n)/2) eps)``, at least ``(1 - sqrt(n)/2) eps > 0`` inside
the mask ball for ``n <= 3``, so the masked input stays that far from it;
and the mask ball lies between ``B(x, (3 - sqrt(n)/2) eps)`` and
``B(x, (3 + sqrt(n)/2) eps)``.

A tile whose mask ball holds every nonzero of f is covered (value 0), one
whose ball holds none is disjoint (the unmasked y-max), and any other is
partial.  The classes come from running counts of f's nonzeros along each
support row: a row at distance ``d`` from the center on the leading axes
meets the ball in an arc of half-width ``isqrt((3 eps)^2 - d^2)``, so a
tile costs one lookup per row instead of one distance per nonzero.  The
partial tiles of a radius run as one stack along a leading axis: f on each
center's mask-ball box cut to the ball, one ``_truncate`` onto the tiles
+- 2 eps (both boxes sit at fixed offsets from the center), subtracted
from the tiles' crops of ``B_eps f``, and one ``_y_max``.  Every product
and transform acts on the trailing axes, one tile at a time, so each tile
keeps the bits of its own call.

Truncated fields
----------------
``m_eps`` vanishes off the lines with ``|xi| < 1`` (``2L - 1`` of ``N`` per
axis), so ``B_eps`` of a source ``h`` on an index box, read on an index
box, is ``N^{-n} sum_{xi in band} m_eps(xi) h^(xi) exp(2 pi i xi.z / N)``:
a partial DFT onto the half band (``_band_spectrum``), the multiply and a
partial inverse (``_band_field``), one matrix product per axis each.  The
symbols are built on their band (``multiplier``), and ``_band_symbol``
reads ``m_eps`` there directly, its leading lines in ascending fft order;
the phase matrices gather one table of ``exp(+- 2 pi i k / N)`` per grid.
The cost follows the boxes times the band, not ``N^n``, and the N-periodic
phases read boxes longer than the grid too.  ``_g_window`` reuses the band
spectrum of ``f * 1_box`` at every radius.  One ``_y_max`` turns a
truncated field on a box ``+- 2 eps`` into its y-maxed ball L^{q0} means.
``br_star`` and ``br_starstar`` have no one-dimensional case (their tiles
and band products need a leading axis) and reject a line before any work;
``hl_maximal`` takes every dimension.

Every ball mean is a linear convolution over a periodically wrapped crop
of the window plus the radius, kept on the window (``_ball_mean_linear``,
one circular convolution at ``_next_fast_len`` of the crop): ``eps <= N/4``
keeps the ball's offsets distinct mod ``N``, so the crop gives exact torus
means even where it is wider than the grid and holds a grid point twice.

Balls
-----
Every ball is read from one chord table, ``_ball_rows(n, r2)``: the leading
offsets ``a`` with ``|a|^2 <= r2`` in C order and, for each, the half-width
``h = isqrt(r2 - |a|^2)`` of its chord ``{(a, j) : |j| <= h}`` along the
last axis.  The point count is the sum of ``2h + 1``, the y-max reads the
chords by level, and the ball's indicator on its index box (``ball_points``,
the partial tiles' mask balls) and its spectrum (the ball means) fill the
chords; no ``(2r + 1)^n`` grid of offsets is built.  Where ``2r + 1 > N``
(a mask ball ``B(c, 3 eps)`` from ``6 eps >= N`` on, or ``ball_points`` at a
large radius) the ball is cut to the window ``[-N/2, N/2)^n``, on which
each offset is its own minimal image: every grid point within ``r`` of the
center in the minimal-image torus metric, ties included, once.

Radius bounds
-------------
Each operator walks every radius in ascending order.  The certified upper
bounds below, each times ``1 + 1e-9`` to absorb the rounding of the FFT
means, serve only the brackets of ``decide``.  A ball mean of a density
never exceeds the density's total over the ball's point count, so the HL
bound at radius ``r`` is ``(sum |f|^p0 / |ball_r|)^(1/p0)``, the count
``|ball_r|`` read off the chord table.  The truncated symbol lies in
[0, 1], and discrete Parseval gives ``sum |B_eps h|^2 <= sum |h|^2 <=
sum |f|^2`` for ``f`` and for every masked restriction
``h = f 1_{B(c, 3 eps)^c}``; so for ``q0 == 2`` ``br_starstar`` and
``br_star`` share the bound
``l2 = (sum |f|^2 / |ball_eps|)^(1/2)``.  For ``q0 > 2``, Cauchy-Schwarz
also gives ``|B_eps h| <= ||K_eps||_2 ||f||_2`` pointwise, and
``mean |B_eps h|^q0 <= max |B_eps h|^(q0 - 2) mean |B_eps h|^2`` gives the
bound ``(||K_eps||_2 ||f||_2)^(1 - 2/q0) l2^(2/q0)``, with ``||K_eps||_2``
taken as its largest value over the radii from ``eps`` on, by discrete
Parseval from the symbol on its band.

Two sharper bounds read what a radius computes anyway.  ``br_starstar``'s
band bound puts ``sum |B_e f|^2``, which discrete Parseval reads off the
band spectrum of f, in place of ``sum |f|^2``, taken as its largest value
over the radii ``e >= eps``; the smaller of the two bounds applies.
``br_star``'s bound is 0 where every tile of the window is covered, and
then at every larger radius ``e >= 2 eps`` of the same window: a tile
center ``c'`` at ``e`` lies in some eps-tile, within ``(sqrt(n)/2) eps`` of
its center, so every nonzero of f lies within ``3 eps + (sqrt(n)/2) eps <=
6 eps <= 3 e`` of ``c'``; there ``_star_tiles`` returns zeros without
reading ``B_eps f``.  Every bound is nonincreasing in the radius, so the
bound of a radius covers every larger one.  Elementwise work on ``f``
itself (power sums, the row counts) runs on the support index box, outside
which the read of ``f`` is exactly 0.

A selection node needs only one thing of ``phi = star + starstar +
M_{p0}``: the first threshold ``t_k`` of its ladder with at most half the
window in ``{phi > t_k}``, and that set.  ``decide`` walks the radii once
for all three operators.  Before each radius it brackets every point's
final ``phi`` between the running sum ``lo`` and the running sum with each
accumulator raised to its bound, ``hi``, and takes the first ``k`` with at
most half the window in ``{lo > t_k}``; every earlier rung fails, as
``phi >= lo``.  It returns at the first radius where no point has
``lo <= t_k < hi``: first with the l2 bounds, then with the coverage and
band bounds.  Rounding is monotone, so the rung and the set, and with them
the whole selection node, are those of the full walk.

Windows
-------
``star_values``, ``starstar_values``, ``hl_values`` and ``decide`` take a
window (an index box) and return arrays of its shape, from window-shaped
accumulators and crops; the public operators pass the whole grid.
A selection node also passes its ``6Q`` box, and the engine then reads
``f * 1_{6Q}`` without building it: the support index box is the box's
sample ranges cut to f's support, the engine keeps a view of f's stored
block on it, and the reads that reach past it (HL's density crop and the
partial tiles' mask-ball boxes) go through ``grid._wrap_take``, exactly
+0.0 outside it.  No whole grid of f is built.  The public operators pass
no box; their whole-grid window takes boxes longer than the grid, through
the same products and ball means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (Box, GridSpec, SampledField, _cap, _irfftn, _next_fast_len, _rfftn,
                   _wrap_take, doubling_table, lp_mean, sum_of_squares)
from .multiplier import bochner_riesz_symbol, truncated_symbol

__all__ = [
    "MaximalConfig",
    "MaximalEngine",
    "hl_maximal",
    "br_star",
    "br_starstar",
    "ball_average",
    "ball_points",
]


_MARGIN = 1.0 + 1e-9  # radius bounds absorb the rounding of the FFT means


@dataclass(frozen=True)
class MaximalConfig:
    """Exponents and discretization parameters shared by the three maximal
    operators; the selection in ``sparse`` reads ``p0`` and ``q0`` from here.

    The radii are the only discretization: ``2^m`` grid pixels for every
    ``m >= eps_min_exp`` with ``2^m <= N/4``.  The candidate centers of a
    ball are every lattice point of the eps-ball.
    """

    p0: float = 1.2
    q0: float = 2.0
    eps_min_exp: int = 2

    def __post_init__(self):
        if not 1.0 < self.p0 < 2.0:
            raise ValueError(f"p0 must lie in (1, 2), got {self.p0}")
        if not 2.0 <= self.q0 <= 6.0:
            raise ValueError(f"q0 must lie in [2, 6], got {self.q0}")
        if self.eps_min_exp < 0:
            raise ValueError("eps_min_exp must be >= 0")

    def eps_px_list(self, spec: GridSpec) -> list[int]:
        radii = [2 ** m for m in range(self.eps_min_exp, spec.N.bit_length())
                 if 2 ** m <= spec.N // 4]
        if not radii:
            raise ValueError("empty radius set: grid too small for eps_min_exp")
        return radii


# -- ball geometry in grid pixels (minimal-image torus metric) ---------------

@lru_cache(maxsize=64)
def _ball_rows(n: int, r2: int) -> tuple[np.ndarray, np.ndarray]:
    """The lattice ball ``|a|^2 <= r2`` as chords along the last axis: its
    leading offsets ``a`` in C order, one row each, and each chord's
    half-width ``isqrt(r2 - |a|^2)``."""
    r = math.isqrt(r2)
    h2 = r2 - sum_of_squares([np.arange(-r, r + 1)] * (n - 1))
    rows = np.argwhere(h2 >= 0) - r
    # floor of a correctly rounded root: exact for h2 < 2^52
    half = np.sqrt(h2[h2 >= 0]).astype(np.int64)
    rows.flags.writeable = half.flags.writeable = False
    return rows, half


@lru_cache(maxsize=256)
def _ball_count(n: int, r_px: int) -> int:
    """The number of lattice points ``a`` of R^n with ``|a| <= r_px``."""
    return int(np.sum(2 * _ball_rows(n, r_px * r_px)[1] + 1))


@lru_cache(maxsize=64)
def _ball_chords(n: int, r_px: int) -> tuple:
    """The r-ball's chords by level: entry ``k`` pairs each half-width ``h``
    with ``floor(log2(2h + 1)) == k`` with the leading offsets ``a`` of its
    chords ``{(a, j) : |j| <= h}``, in C order."""
    rows, half = _ball_rows(n, r_px * r_px)
    leads: dict[int, list] = {}
    for a, h in zip(rows.tolist(), half.tolist()):
        leads.setdefault(h, []).append(tuple(a))
    return tuple(tuple((h, tuple(leads[h])) for h in sorted(leads)
                       if (2 * h + 1).bit_length() == k + 1)
                 for k in range((2 * r_px + 1).bit_length()))


@lru_cache(maxsize=16)
def _ball_box(n: int, r2: int, N: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The low corner of the index box spanned by the offsets ``|a|^2 <= r2``,
    and the ball's indicator on that box.  Where ``2 isqrt(r2) + 1 > N`` the
    ball is cut to the window ``[-N/2, N/2)^n``, on which each offset is its
    own minimal image: every grid point within ``sqrt(r2)`` of 0, once."""
    r = math.isqrt(r2)
    lo, hi = max(-r, -(N // 2)), min(r, N - N // 2 - 1)
    rows, half = _ball_rows(n, r2)
    keep = np.all((rows >= lo) & (rows <= hi), axis=1)
    mask = np.zeros((hi + 1 - lo,) * n, dtype=bool)
    mask[tuple((rows[keep] - lo).T)] = np.abs(np.arange(lo, hi + 1)) <= half[keep, None]
    mask.flags.writeable = False
    return (lo,) * n, mask


@lru_cache(maxsize=16)
def _ball_spectrum(n: int, r_px: int, N: int, shape: tuple[int, ...]) -> np.ndarray:
    """Half spectrum of the r-ball indicator on a periodic array of
    ``shape``, offset 0 at index 0."""
    lo, box = _ball_box(n, r_px * r_px, N)
    ball = np.zeros(shape)
    ball[tuple((i + l) % m for i, l, m in zip(np.nonzero(box), lo, shape))] = 1.0
    spec = _rfftn(ball)
    spec.flags.writeable = False
    return spec


def _ball_mean_linear(arr: np.ndarray, r_px: int, N: int, n: int | None = None) -> np.ndarray:
    """Mean of ``arr`` over the r-ball around each of its points at least
    ``r_px`` inside its edges, on its trailing ``n`` axes (default: all of
    them; leading axes stack independent arrays): an array ``2 r_px``
    shorter on each of those axes.

    One circular convolution with the ball at ``_next_fast_len`` of
    ``arr``'s shape: from those points the ball reaches no wrapped sample.
    """
    n = arr.ndim if n is None else n
    axes = tuple(range(arr.ndim - n, arr.ndim))
    fshape = tuple(_next_fast_len(arr.shape[a], True) for a in axes)
    conv = _irfftn(_rfftn(arr, fshape, axes) * _ball_spectrum(n, r_px, N, fshape), fshape, axes)
    conv = conv[(...,) + tuple(slice(r_px, arr.shape[a] - r_px) for a in axes)]
    return np.maximum(conv, 0.0) / _ball_count(n, r_px)


def _radius_bound(power_sum: float, n: int, r_px: int, p: float) -> float:
    """``(power_sum / |ball_r|)^(1/p)``: no L^p mean over an r-ball of a
    density whose grid total is at most ``power_sum`` can exceed it."""
    return (power_sum / _ball_count(n, r_px)) ** (1.0 / p)


def _trunc_eps(spec: GridSpec, eps_px: int) -> float:
    """Truncation parameter of the radius ``eps_px``.  Every ``eps <= 1``
    gives the untruncated symbol, so they all share the value 1."""
    return max(eps_px * spec.dx, 1.0)


@lru_cache(maxsize=32)
def _band_lines(spec: GridSpec, delta: float) -> tuple[tuple[int, ...], ...]:
    """Per axis, the frequencies (fft order, ascending) of the lines where the
    Bochner-Riesz symbol, and so each truncation, is nonzero: its band; the
    last axis keeps the half band ``xi <= N/2`` of a real source."""
    band = bochner_riesz_symbol(spec, delta).band
    return tuple(tuple(sorted(j % spec.N for j in range(*r))) for r in band)


@lru_cache(maxsize=64)
def _band_symbol(spec: GridSpec, delta: float, eps_px: int) -> np.ndarray:
    """The truncated symbol of radius ``eps_px`` on the half band grid, its
    lines in ``_band_lines`` order: the band's leading ranges ``(l, h)``
    rolled by ``l``, so that lines ``0 .. h - 1`` come first."""
    band = bochner_riesz_symbol(spec, delta).band
    sym = truncated_symbol(spec, delta, _trunc_eps(spec, eps_px)).take(band)
    sym = np.roll(sym, [l for l, _ in band[:-1]], tuple(range(spec.n - 1)))
    sym.flags.writeable = False
    return sym


def _line_weights(lines: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Per last-axis line of the half band, 2 where it stands for -xi too
    (every line but xi = 0, as the band is below N/4), else 1."""
    return np.where(np.array(lines[-1]) == 0, 1.0, 2.0)


@lru_cache(maxsize=16)
def _phase_table(N: int, sign: int) -> np.ndarray:
    """``exp(sign 2 pi i k / N)`` for ``k = 0 .. N - 1``."""
    table = np.exp(np.arange(N) * (sign * 2j * math.pi / N))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _phases(N: int, lines: tuple[int, ...], lo: int, hi: int, sign: int) -> np.ndarray:
    """``exp(sign 2 pi i u xi / N)`` for ``u`` in ``[lo, hi)`` (rows) and
    ``xi`` in ``lines`` (columns): ``_phase_table`` at ``u xi`` mod N."""
    turns = np.multiply.outer(np.arange(lo, hi), np.array(lines, dtype=np.int64)) % N
    out = _phase_table(N, sign)[turns]
    out.flags.writeable = False
    return out


# Real multiply-adds per BLAS call (a complex one counts 8): OpenBLAS 0.3.31
# kept products below 2^19 (2^16 complex) on the calling thread.  Its idle
# threads spin, which made a 2-process sweep 2.7x slower, and the thread
# count moved the last bits of the fields.
_BLAS_CALL = 1 << 18


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in blocks of ``a``'s rows of at most ``_BLAS_CALL``
    multiply-adds each."""
    (m, k), n, dtype = a.shape[-2:], b.shape[-1], np.result_type(a, b)
    rows = max(1, _BLAS_CALL // max(k * n * (8 if dtype.kind == "c" else 1), 1))
    if rows >= m:
        return a @ b
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n), dtype=dtype)
    for i in range(0, m, rows):
        np.matmul(a[..., i:i + rows, :], b, out=out[..., i:i + rows, :])
    return out


def _left_product(mat: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """``mat`` applied along ``axis`` of ``x``, the axes after it flattened."""
    shape = x.shape
    out = _matmul(mat, x.reshape(shape[:axis + 1] + (math.prod(shape[axis + 1:]),)))
    return out.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1:])


@lru_cache(maxsize=64)
def _kernel_l2(spec: GridSpec, delta: float, eps_px: int) -> float:
    """``||K_eps||_2`` of the truncated kernel at radius ``eps_px``, by
    discrete Parseval from its symbol on the half band."""
    sym = _band_symbol(spec, delta, eps_px)
    weights = _line_weights(_band_lines(spec, delta))
    return math.sqrt(float(np.sum(sym * sym * weights)) / spec.N ** spec.n)


Window = tuple[tuple[int, int], ...]


def _full_window(spec: GridSpec) -> Window:
    return tuple((0, spec.N) for _ in range(spec.n))


class MaximalEngine:
    """Evaluates the three maximal operators for one field, sharing the
    support index box and the coordinates of f's nonzeros."""

    def __init__(self, f: SampledField, delta: float, cfg: MaximalConfig,
                 box: Box | None = None):
        self.f = f
        self.spec = f.spec
        self.delta = float(delta)
        self.cfg = cfg
        self.eps_list = cfg.eps_px_list(f.spec)
        # f is read as f * 1_box: exactly zero outside the support index box,
        # where the sample ranges of the box and of f's support meet
        self._bounded = f.support is not None or box is not None
        at = f.block_ranges
        if box is not None:
            at = [_cap(r, s) for r, s in zip(at, box.index_ranges(f.spec))]
        self._at = tuple(at)
        self._fs = f.take(self._at)
        self._g: dict[tuple, np.ndarray] = {}
        self._classes: dict[tuple, tuple[np.ndarray, ...]] = {}

    def _f_take(self, box: Window) -> np.ndarray:
        """The read of f on the wrapped index box ``box``: exactly +0.0
        outside the support index box."""
        return _wrap_take(self._fs, box, self._at, self.spec.N)

    @cached_property
    def _row_counts(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The support rows (grid indices on every axis but the last) that
        hold a nonzero of f, and along each the running count of its
        nonzeros over the support index box's last range, from 0."""
        nz = self._fs != 0
        counts = np.zeros(nz.shape[:-1] + (nz.shape[-1] + 1,), dtype=np.int64)
        np.cumsum(nz, axis=-1, out=counts[..., 1:])
        rows = np.nonzero(counts[..., -1])
        return tuple(i + l for i, (l, _) in zip(rows, self._at)), counts[rows]

    def _nz_in_balls(self, centers: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Per row of ``centers``, whether B(center, r) holds every nonzero
        of f and whether it holds any (minimal-image metric, ties included).
        A support row at squared distance ``d2 <= r^2`` from the center on
        the leading axes meets the ball in the arc of half-width
        ``isqrt(r^2 - d2)`` around the center's last index (the whole row
        once ``2h + 1 >= N``), whose nonzeros are differences of the row's
        running counts, in two pieces where the arc crosses the seam."""
        N = self.spec.N
        lead, counts = self._row_counts
        rows, m = np.arange(len(counts)), counts.shape[1] - 1
        d2 = sum(np.minimum(d, N - d) ** 2
                 for d in ((i - c[:, None]) % N for i, c in zip(lead, centers.T)))
        h2 = r * r - d2
        # floor of a correctly rounded root: exact for h2 < 2^52
        h = np.sqrt(np.maximum(h2, 0)).astype(np.int64)
        s = (centers[:, -1:] - h - self._at[-1][0]) % N  # arc start, on the box's range
        e = s + np.minimum(2 * h + 1, N)
        arcs = (counts[rows, np.minimum(e, m)] - counts[rows, np.minimum(s, m)]
                + counts[rows, np.clip(e - N, 0, m)])
        held = np.where(h2 >= 0, arcs, 0).sum(axis=1)
        return held == counts[:, -1].sum(), held > 0

    # -- certified radius bounds ------------------------------------------

    @cached_property
    def _sq_sum(self) -> float:
        return float(np.sum(np.abs(self._fs) ** 2))

    @cached_property
    def _p0_sum(self) -> float:
        return float(np.sum(np.abs(self._fs) ** self.cfg.p0))

    def _q0_bound(self, eps_px: int, l2: float) -> float:
        """The bound of a truncated operator at radius ``eps_px`` and every
        larger one, given a bound ``l2`` of its ball L^2 means there
        (margin included)."""
        q0 = self.cfg.q0
        if q0 == 2.0:
            return l2 * _MARGIN
        k2 = max(_kernel_l2(self.spec, self.delta, e) for e in self.eps_list if e >= eps_px)
        return (k2 * math.sqrt(self._sq_sum)) ** (1.0 - 2.0 / q0) * l2 ** (2.0 / q0) * _MARGIN

    def _l2_bound(self, eps_px: int) -> float:
        """No value of either truncated operator at radius ``eps_px`` or any
        larger one exceeds this (margin included)."""
        return self._q0_bound(eps_px, _radius_bound(self._sq_sum, self.spec.n, eps_px, 2.0))

    @cached_property
    def _band_l2(self) -> dict[int, float]:
        """Per radius ``eps``, the largest over the radii ``e >= eps`` of
        ``(sum |B_e f|^2 / |ball_e|)^(1/2)``, the sums by discrete Parseval
        on the half band of ``_f_hat``: ``N^{-n} sum w |m_e f^|^2``, ``w``
        the line weights of ``_band_field``, both parts of a complex f."""
        n, N = self.spec.n, self.spec.N
        power = np.abs(self._f_hat) ** 2
        if np.iscomplexobj(self._fs):
            power = power[0] + power[1]
        power = power * _line_weights(_band_lines(self.spec, self.delta)) / N ** n
        out, top = {}, 0.0
        for e in reversed(self.eps_list):
            sq = float(np.sum(power * _band_symbol(self.spec, self.delta, e) ** 2))
            out[e] = top = max(top, _radius_bound(sq, n, e, 2.0))
        return out

    def _band_bound(self, eps_px: int) -> float:
        """No value of ``br_starstar`` at radius ``eps_px`` or any larger one
        exceeds this (margin included): the L^2 bound of ``_band_l2``."""
        return self._q0_bound(eps_px, self._band_l2[eps_px])

    def _star_bound(self, window: Window, eps_px: int) -> float:
        """No value of ``br_star`` on the window at radius ``eps_px`` or any
        larger one exceeds this: 0 where every tile is covered (module
        docstring, "Radius bounds"), else the l2 bound."""
        return 0.0 if self._tile_classes(window, eps_px)[2].all() else self._l2_bound(eps_px)

    def _hl_bound(self, r_px: int) -> float:
        """No L^{p0} ball mean of f at radius ``r_px`` or any larger one
        exceeds this (margin included)."""
        return _radius_bound(self._p0_sum, self.spec.n, r_px, self.cfg.p0) * _MARGIN

    # -- shared per-scale artifacts ------------------------------------

    def _band_spectrum(self, src: np.ndarray, slo: tuple[int, ...]) -> np.ndarray:
        """``sum_u src(u - slo) exp(-2 pi i xi.u / N)`` of a real ``src`` for
        ``xi`` on the half band grid, the last axis first, through real
        phases whose interleaved columns are the real and imaginary parts."""
        n, N, lines = self.spec.n, self.spec.N, _band_lines(self.spec, self.delta)
        last = _phases(N, lines[-1], slo[-1], slo[-1] + src.shape[-1], -1)
        x = _matmul(src, last.view(np.float64)).view(np.complex128)
        for a in range(n - 2, -1, -1):
            x = _left_product(_phases(N, lines[a], slo[a], slo[a] + src.shape[a - n], -1).T,
                              x, a - n)
        return x

    def _band_field(self, spectrum: np.ndarray, eps_px: int, zlo: tuple[int, ...],
                    zhi: tuple[int, ...]) -> np.ndarray:
        """The real ``N^{-n} sum_xi m_eps(xi) spectrum(xi) exp(2 pi i xi.z / N)``
        of a half-band spectrum on the wrapped index box ``[zlo, zhi)``."""
        n, N, lines = self.spec.n, self.spec.N, _band_lines(self.spec, self.delta)
        x = spectrum * (_band_symbol(self.spec, self.delta, eps_px) * _line_weights(lines)
                        / N ** n)
        for a in range(n - 1):
            x = _left_product(_phases(N, lines[a], zlo[a], zhi[a], 1), x, a - n)
        # Re(y e^{i t}) = (Re y, Im y) . (Re e^{-i t}, Im e^{-i t})
        last = _phases(N, lines[-1], zlo[-1], zhi[-1], -1)
        return _matmul(x.view(np.float64), last.view(np.float64).T)

    def _truncate(self, src: np.ndarray, slo: tuple[int, ...], eps_px: int,
                  zlo: tuple[int, ...], zhi: tuple[int, ...]) -> np.ndarray:
        """``B_eps`` of the field that is ``src`` on the index box of the grid
        starting at ``slo`` and zero elsewhere, on the wrapped index box
        ``[zlo, zhi)``.  Leading axes of ``src`` beyond the grid's ``n``
        stack sources that share the boxes; each runs its own products."""
        if np.iscomplexobj(src):  # B_eps keeps real fields real
            g = self._truncate(np.stack([src.real, src.imag]), slo, eps_px, zlo, zhi)
            return g[0] + 1j * g[1]
        return self._band_field(self._band_spectrum(src, slo), eps_px, zlo, zhi)

    @cached_property
    def _f_hat(self) -> np.ndarray:
        """The band spectrum of ``f * 1_box`` (of its two parts if complex)."""
        fs = np.stack([self._fs.real, self._fs.imag]) if np.iscomplexobj(self._fs) else self._fs
        return self._band_spectrum(fs, tuple(l for l, _ in self._at))

    def _g_window(self, eps_px: int, zlo: tuple[int, ...],
                  zhi: tuple[int, ...]) -> np.ndarray:
        """The truncated field ``B_eps f`` on the wrapped index box ``[zlo, zhi)``,
        read-only and computed once per engine: ``br_star`` and
        ``br_starstar`` read the same box at each radius."""
        key = (eps_px, zlo, zhi)
        if key not in self._g:
            g = self._band_field(self._f_hat, eps_px, zlo, zhi)
            g = g[0] + 1j * g[1] if np.iscomplexobj(self._fs) else g
            g.flags.writeable = False
            self._g[key] = g
        return self._g[key]

    @staticmethod
    def _expand(window: Window, pad: int) -> Window:
        return tuple((l - pad, h + pad) for l, h in window)

    def _y_max(self, g: np.ndarray, eps_px: int) -> np.ndarray:
        """max over every center y with |y - x| <= eps of the ball L^{q0}
        average of a truncated field ``g`` given on a box +- 2 eps, for x in
        that box: no candidate's ball reaches a sample outside ``g``.  Leading
        axes of ``g`` beyond the grid's ``n`` stack independent fields.  A
        chord of half-width ``h`` at leading offsets ``a`` reads the running
        max of width ``2h + 1`` of the averages from ``-h``, shifted by ``a``;
        the averages are at least +0.0, so the max may start from zeros."""
        n, N, q0 = self.spec.n, self.spec.N, self.cfg.q0
        avg = _ball_mean_linear(np.abs(g) ** q0, eps_px, N, n) ** (1.0 / q0)
        shape = tuple(m - 2 * eps_px for m in avg.shape[avg.ndim - n:])
        out, chords = np.zeros(avg.shape[:avg.ndim - n] + shape), _ball_chords(n, eps_px)
        for k, table in enumerate(doubling_table(avg, np.maximum, len(chords), (avg.ndim - 1,))):
            for h, leads in chords[k]:
                lo, hi = eps_px - h, eps_px + h + 1 - (1 << k)
                run = np.maximum(table[..., lo:lo + shape[-1]], table[..., hi:hi + shape[-1]])
                for a in leads:
                    sl = tuple(slice(eps_px + ai, eps_px + ai + m) for ai, m in zip(a, shape))
                    np.maximum(out, run[(...,) + sl + (slice(None),)], out=out)
        return out

    # -- one radius of each operator ---------------------------------------
    # Each step raises its accumulator in place.

    def _starstar_step(self, window: Window, eps_px: int, acc: np.ndarray) -> None:
        g = self._g_window(eps_px, *zip(*self._expand(window, 2 * eps_px)))
        np.maximum(acc, self._y_max(g, eps_px), out=acc)

    def _hl_step(self, window: Window, r_px: int, best: np.ndarray) -> None:
        """``best`` holds the running max of the ball means of ``|f|^p0``."""
        dens = np.abs(self._f_take(self._expand(window, r_px))) ** self.cfg.p0
        np.maximum(best, _ball_mean_linear(dens, r_px, self.spec.N), out=best)

    def _star_step(self, window: Window, eps_px: int, acc: np.ndarray) -> None:
        if not self._bounded:
            raise ValueError("br_star needs a compactly supported field "
                             "(declared support box missing)")
        np.maximum(acc, self._star_tiles(window, eps_px), out=acc)

    def _tile_classes(self, window: Window, eps_px: int) -> tuple[np.ndarray, ...]:
        """The tiles of the window at radius ``eps_px`` (tile side
        ``t = min(eps, window side)``, which divides the window's sides, all
        powers of two; their indices in C order), their centers, and per
        tile whether its mask ball ``B(c, 3 eps)`` holds every nonzero of f
        (covered) and whether it holds any; once per window and radius."""
        key = (window, eps_px)
        if key not in self._classes:
            t = tuple(min(eps_px, h - l) for l, h in window)
            tiles = np.indices(tuple((h - l) // s for (l, h), s in zip(window, t)))
            tiles = tiles.reshape(self.spec.n, -1).T
            centers = np.add([l for l, _ in window], tiles * t) + np.floor_divide(t, 2)
            self._classes[key] = (tiles, centers, *self._nz_in_balls(centers, 3 * eps_px))
        return self._classes[key]

    def _star_tiles(self, window: Window, eps_px: int) -> np.ndarray:
        """``br_star`` at one radius on the window, each point masked by the
        ball ``B(c, 3 eps)`` of its tile's center ``c`` (module docstring).
        ``B_eps f`` is read only if some tile is not covered."""
        n, N, mask_r, pad = self.spec.n, self.spec.N, 3 * eps_px, 2 * eps_px
        t = tuple(min(eps_px, h - l) for l, h in window)
        tiled = sum((((h - l) // s, s) for (l, h), s in zip(window, t)), ())
        order = (*range(0, 2 * n, 2), *range(1, 2 * n, 2))  # tile index..., offset...
        vals = np.zeros(tiled)
        tiles, centers, covered, touched = self._tile_classes(window, eps_px)
        partial, disjoint = touched & ~covered, ~touched
        if not covered.all():
            gwin = self._g_window(eps_px, *zip(*self._expand(window, pad)))
        if disjoint.any():
            idx = tuple(tiles[disjoint].T)
            avg = self._y_max(gwin, eps_px).reshape(tiled)
            vals.transpose(order)[idx] = avg.transpose(order)[idx]
        if partial.any():
            # f on each tile center's mask-ball box (one read of their union),
            # cut to the ball, and its B_eps on the tile +- 2 eps: both boxes
            # sit at fixed offsets from the center
            j, cs = tiles[partial], centers[partial]
            blo, ball = _ball_box(n, mask_r * mask_r, N)
            fu = self._f_take(tuple(zip(cs.min(axis=0) + blo,
                                        cs.max(axis=0) + blo + ball.shape)))
            every = tuple(slice(None, None, s) for s in t)
            src = sliding_window_view(fu, ball.shape)[every][tuple((j - j.min(axis=0)).T)]
            src[:, ~ball] = 0.0
            near = self._truncate(src, blo, eps_px, tuple(-(s // 2) - pad for s in t),
                                  tuple(s - s // 2 + pad for s in t))
            crops = sliding_window_view(gwin, tuple(s + 2 * pad for s in t))[every][tuple(j.T)]
            vals.transpose(order)[tuple(j.T)] = self._y_max(crops - near, eps_px)
        return vals.reshape(tuple(h - l for l, h in window))

    # -- the operators on a window ------------------------------------------

    def _walk(self, step, window: Window) -> np.ndarray:
        acc = np.zeros(tuple(h - l for l, h in window))
        for eps_px in self.eps_list:
            step(window, eps_px, acc)
        return acc

    def starstar_values(self, window: Window) -> np.ndarray:
        return self._walk(self._starstar_step, window)

    def hl_values(self, window: Window) -> np.ndarray:
        return self._walk(self._hl_step, window) ** (1.0 / self.cfg.p0)

    def star_values(self, window: Window) -> np.ndarray:
        return self._walk(self._star_step, window)

    def decide(self, window: Window, thresholds) -> tuple[int, np.ndarray | None]:
        """The first of the ascending ``thresholds`` ``t`` with at most half
        the points of the window where ``phi = star + starstar + M_{p0}`` of
        f, summed in that order, exceeds ``t``, as its index ``k`` and the
        mask ``phi > t``; ``len(thresholds)`` and None where there is none.
        Each comparison is that of the walk over every radius (module
        docstring, "Radius bounds").

        Before each radius, a point's running sum ``lo`` and the same sum
        with each accumulator raised to its bound, ``hi``, bracket its final
        value.  ``k`` is the first index with at most half the window in
        ``lo > t_k``: as ``phi >= lo``, every earlier threshold has more.
        Once no point has ``lo <= t_k < hi``, ``phi > t_k`` exactly where
        ``lo > t_k``, and the walk returns: first with the l2 bounds, which
        cost nothing, then with ``br_star``'s coverage bound and the band
        bound of ``br_starstar``, which read the tile classes and ``_f_hat``
        that the radius's steps need anyway.  After the last radius ``lo``
        is ``phi``.
        """
        inv_p0 = 1.0 / self.cfg.p0
        shape = tuple(h - l for l, h in window)
        star, starstar, best = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        for eps_px in [*self.eps_list, None]:
            hl = best ** inv_p0
            lo = star + starstar + hl
            k = next((k for k, t in enumerate(thresholds)
                      if np.count_nonzero(lo > t) <= lo.size // 2), len(thresholds))
            if k == len(thresholds) or eps_px is None:
                return k, None if k == len(thresholds) else lo > thresholds[k]
            t, hl_hi = thresholds[k], np.maximum(hl, self._hl_bound(eps_px))

            def decided(b_star: float, b_starstar: float) -> bool:
                hi = np.maximum(star, b_star) + np.maximum(starstar, b_starstar) + hl_hi
                return not np.any((lo <= t) & (t < hi))

            b = self._l2_bound(eps_px)
            if decided(b, b) or decided(self._star_bound(window, eps_px),
                                        min(b, self._band_bound(eps_px))):
                return k, lo > t
            self._star_step(window, eps_px, star)
            self._starstar_step(window, eps_px, starstar)
            self._hl_step(window, eps_px, best)


def hl_maximal(f: SampledField, cfg: MaximalConfig) -> SampledField:
    """L^{p0} Hardy-Littlewood maximal function at ``cfg.p0`` over the
    dyadic radius set."""
    eng = MaximalEngine(f, 0.0, cfg)
    return SampledField(f.spec, eng.hl_values(_full_window(f.spec)))


def _truncation_engine(f: SampledField, delta: float, cfg: MaximalConfig,
                       box: Box | None = None) -> MaximalEngine:
    """The engine of ``br_star``, ``br_starstar`` and the selection nodes
    (``sparse.exceptional_set``): the tiles and band products of the two
    truncated operators have no one-dimensional case, so a one-dimensional
    grid is rejected before any work."""
    if f.spec.n < 2:
        raise ValueError("br_star and br_starstar need grid dimension n >= 2, "
                         f"got n = {f.spec.n}")
    return MaximalEngine(f, delta, cfg, box=box)


def br_star(f: SampledField, delta: float, cfg: MaximalConfig) -> SampledField:
    """Masked (off-diagonal) maximal truncation of the multiplier."""
    eng = _truncation_engine(f, delta, cfg)
    return SampledField(f.spec, eng.star_values(_full_window(f.spec)))


def br_starstar(f: SampledField, delta: float, cfg: MaximalConfig) -> SampledField:
    """Unmasked maximal truncation of the multiplier."""
    eng = _truncation_engine(f, delta, cfg)
    return SampledField(f.spec, eng.starstar_values(_full_window(f.spec)))


def ball_points(spec: GridSpec, center, radius: float
                ) -> tuple[list[tuple[int, int]], tuple[np.ndarray, ...]]:
    """The grid points of the ball B(center, radius), the center rounded to
    the grid: every offset ``a`` with ``|a|^2 <= (radius / dx)^2`` (ties
    taken within 1e-9, as ``Box.index_ranges`` takes them), as the index box
    spanned by the offsets (ranges taken mod N, as ``grid.apply_symbol``
    reads them) and their indices inside that box, in C order: read-only
    arrays, shared by every ball of the same pixel radius."""
    if not 0 <= radius < math.inf:
        raise ValueError(f"ball radius must be finite and >= 0, got {radius}")
    c = np.broadcast_to(np.asarray(center, dtype=float), (spec.n,))
    c_px = np.round(c / spec.dx + spec.N // 2).astype(int)
    lo, shape, idx = _ball_index(spec.n, math.floor((radius / spec.dx) ** 2 + 1e-9), spec.N)
    return [(int(ci + l), int(ci + l + m)) for ci, l, m in zip(c_px, lo, shape)], idx


@lru_cache(maxsize=16)
def _ball_index(n: int, r2: int, N: int) -> tuple:
    """The low corner and shape of ``_ball_box(n, r2, N)``'s box and the
    indices of the ball's points in it, in C order (read-only)."""
    lo, ball = _ball_box(n, r2, N)
    idx = np.nonzero(ball)
    for a in idx:
        a.flags.writeable = False
    return lo, ball.shape, idx


def ball_average(f: SampledField, center, radius: float, p: float) -> float:
    """L^p average of f over the grid points of the ball B(center, radius)."""
    box, idx = ball_points(f.spec, center, radius)
    return lp_mean(f.take(box)[idx], p)
