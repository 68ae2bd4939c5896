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
continuum operators that the selection algorithm absorbs into its adaptive
threshold constant.  The sup over centers ``|x - y| <= eps`` takes every
lattice point of the eps-ball: a grey dilation, the max over the ball's
chords along the last axis of running maxima, each of width ``2h + 1``
the max of two windows of ``grid.doubling_table`` (van Herk, Pattern
Recognit. Lett. 13, 1992).  A max is exact, so this is bitwise the max
over every candidate.

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
partial; one broadcast pass over f's nonzeros sorts the tiles.  The
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
cost follows the boxes times the band, not ``N^n``, and the N-periodic
phases read boxes longer than the grid too.  ``_g_window`` reuses the band
spectrum of ``f * 1_box`` at every radius.  One ``_y_max`` turns a
truncated field on a box ``+- 2 eps`` into its y-maxed ball L^{q0} means.

Every ball mean is a linear convolution over a periodically wrapped crop
of the window plus the radius, kept on the window (``_ball_mean_linear``,
one circular convolution at ``next_fast_len`` of the crop): ``eps <= N/4``
keeps the ball's offsets distinct mod ``N``, so the crop gives exact torus
means even where it is wider than the grid and holds a grid point twice.
All ball geometry uses grid pixels with the minimal-image torus metric,
ties at the boundary included.

Radius bounds
-------------
Each operator walks its radii in ascending order and skips a radius whose
certified upper bound, times ``1 + 1e-9``, is at or below the minimum of
its running maximum over the window.  A ball mean of a density never
exceeds the density's total over the ball's point count, so the HL bound
at radius ``r`` is ``(sum |f|^p0 / |ball_r|)^(1/p0)``.  The truncated
symbol lies in [0, 1], and discrete Parseval gives
``sum |B_eps h|^2 <= sum |h|^2 <= sum |f|^2`` for ``f`` and for every
masked restriction ``h = f 1_{B(c, 3 eps)^c}``; so for ``q0 == 2``
``br_starstar`` and ``br_star`` share the bound
``l2 = (sum |f|^2 / |ball_eps|)^(1/2)``.  For ``q0 > 2``, Cauchy-Schwarz
also gives ``|B_eps h| <= ||K_eps||_2 ||f||_2`` pointwise, and
``mean |B_eps h|^q0 <= max |B_eps h|^(q0 - 2) mean |B_eps h|^2`` gives the
bound ``(||K_eps||_2 ||f||_2)^(1 - 2/q0) l2^(2/q0)``, with ``||K_eps||_2``
taken as its largest value over the radii from ``eps`` on.  Every bound
is then nonincreasing in the radius, so the bound of a radius covers every
larger one.  A skipped radius could not have changed ``np.maximum``, so
the outputs are bitwise those of the full walk; the margin absorbs the
rounding of the FFT means.  Elementwise work on ``f`` itself (power sums,
the nonzero scan) runs on the support index box, outside which the read
of ``f`` is exactly 0.

The selection needs only the comparisons ``phi > t`` of
``phi = star + starstar + M_{p0}`` with a ladder of thresholds ``t``.
``phi_values`` walks the radii once for all three operators.  Before each
radius it brackets every point's final ``phi`` between the running sum and
the running sum with each accumulator raised to its bound, and it returns
the running sum at the first radius where no threshold lies inside any
point's bracket.  Rounding is monotone, so every comparison, and with it
the whole selection node, is that of the full walk.

Windows
-------
``star_values``, ``starstar_values``, ``hl_values`` and ``phi_values`` take
a window (an index box) and return an array of its shape, from window-shaped
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
from scipy import fft

from .grid import (Box, GridSpec, SampledField, _band, _cap, _wrap_take, doubling_table,
                   lp_mean, sum_of_squares)
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

def _torus_dist(c: float | np.ndarray, lo: int, hi: int, N: int) -> np.ndarray:
    """Minimal-image distance from ``c`` (a number, or a column of them) of
    the indices ``lo .. hi - 1`` on an axis of ``N`` points."""
    m = (np.arange(lo, hi) - c) % N
    return np.minimum(m, N - m)


@lru_cache(maxsize=256)
def _ball_offsets(n: int, r_px: int, N: int) -> np.ndarray:
    """Integer offsets with torus distance <= r_px (ties included)."""
    lo, hi = (-r_px, r_px + 1) if 2 * r_px + 1 <= N else (-(N // 2), N - N // 2)
    mask = sum_of_squares([_torus_dist(0, lo, hi, N)] * n) <= r_px * r_px
    grids = np.meshgrid(*([np.arange(lo, hi)] * n), indexing="ij")
    out = np.stack([g[mask] for g in grids], axis=-1)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _ball_chords(n: int, r_px: int, N: int) -> tuple:
    """The r-ball (``r_px <= N/4``, so the plain ball) as chords along the
    last axis, by level: entry ``k`` pairs each half-width ``h`` with
    ``floor(log2(2h + 1)) == k`` with the leading offsets ``a`` of its
    chords ``{(a, j) : |j| <= h}``."""
    offs = _ball_offsets(n, r_px, N)
    # offsets run in C order, so a chord starts where the leading ones change
    first = np.r_[True, np.any(offs[1:, :-1] != offs[:-1, :-1], axis=1)]
    leads: dict[int, list] = {}
    for a, h in zip(offs[first, :-1].tolist(), (-offs[first, -1]).tolist()):
        leads.setdefault(h, []).append(tuple(a))
    return tuple(tuple((h, tuple(leads[h])) for h in sorted(leads)
                       if (2 * h + 1).bit_length() == k + 1)
                 for k in range((2 * r_px + 1).bit_length()))


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution of two arrays of equal rank at the points where the
    smaller input fits inside the larger (SciPy's ``mode="valid"``).

    Only axes where neither input has length 1 are transformed (none left:
    the plain product), by ``rfftn`` for real inputs and ``fftn`` for
    complex ones, each at ``next_fast_len`` of the larger input's length
    ``m``.  The circular product at the indices ``[k - 1, m - 1]`` (``k`` the
    smaller length) wraps nothing, so it is the linear one there
    (overlap-save).  The result shares no memory with the inputs.
    """
    axes = [i for i, (m, k) in enumerate(zip(a.shape, b.shape)) if m != 1 and k != 1]
    if not all(a.shape[i] >= b.shape[i] for i in axes):
        if not all(b.shape[i] >= a.shape[i] for i in axes):
            raise ValueError("the valid convolution needs one input at least as "
                             "large as the other on every axis")
        a, b = b, a
    if not axes:
        return a * b
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    fwd, inv = (fft.rfftn, fft.irfftn) if real else (fft.fftn, fft.ifftn)
    fshape = [fft.next_fast_len(a.shape[i], real) for i in axes]
    out = inv(fwd(a, fshape, axes=axes) * fwd(b, fshape, axes=axes), fshape, axes=axes)
    return out[tuple(slice(b.shape[i] - 1, a.shape[i]) if i in axes else slice(None)
                     for i in range(a.ndim))]


@lru_cache(maxsize=16)
def _ball_spectrum(n: int, r_px: int, N: int, shape: tuple[int, ...]) -> np.ndarray:
    """Half spectrum of the r-ball indicator on a periodic array of
    ``shape``, offset 0 at index 0."""
    ball = np.zeros(shape)
    ball[tuple((_ball_offsets(n, r_px, N) % shape).T)] = 1.0
    spec = fft.rfftn(ball)
    spec.flags.writeable = False
    return spec


def _ball_mean_linear(arr: np.ndarray, r_px: int, N: int, n: int | None = None) -> np.ndarray:
    """Mean of ``arr`` over the r-ball around each of its points at least
    ``r_px`` inside its edges, on its trailing ``n`` axes (default: all of
    them; leading axes stack independent arrays): an array ``2 r_px``
    shorter on each of those axes.

    One circular convolution with the ball at ``next_fast_len`` of
    ``arr``'s shape: from those points the ball reaches no wrapped sample.
    """
    n = arr.ndim if n is None else n
    axes = tuple(range(arr.ndim - n, arr.ndim))
    fshape = tuple(fft.next_fast_len(arr.shape[a], True) for a in axes)
    conv = fft.irfftn(fft.rfftn(arr, fshape, axes) * _ball_spectrum(n, r_px, N, fshape),
                      fshape, axes)
    conv = conv[(...,) + tuple(slice(r_px, arr.shape[a] - r_px) for a in axes)]
    return np.maximum(conv, 0.0) / len(_ball_offsets(n, r_px, N))


@lru_cache(maxsize=16)
def _ball_box(n: int, r_px: int, N: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The low corner of the index box spanned by the r-ball's offsets, and
    the ball's indicator on that box (its nonzeros in ``_ball_offsets``
    order)."""
    offs = _ball_offsets(n, r_px, N)
    lo = offs.min(axis=0)
    mask = np.zeros(tuple(offs.max(axis=0) + 1 - lo), dtype=bool)
    mask[tuple((offs - lo).T)] = True
    mask.flags.writeable = False
    return tuple(int(v) for v in lo), mask


def _radius_bound(power_sum: float, n: int, r_px: int, N: int, p: float) -> float:
    """``(power_sum / |ball_r|)^(1/p)``: no L^p mean over an r-ball of a
    density whose grid total is at most ``power_sum`` can exceed it."""
    return (power_sum / len(_ball_offsets(n, r_px, N))) ** (1.0 / p)


def _trunc_eps(spec: GridSpec, eps_px: int) -> float:
    """Truncation parameter of the radius ``eps_px``.  Every ``eps <= 1``
    gives the untruncated symbol, so they all share the value 1."""
    return max(eps_px * spec.dx, 1.0)


@lru_cache(maxsize=32)
def _band_lines(spec: GridSpec, delta: float) -> tuple[tuple[int, ...], ...]:
    """Per axis, the frequencies (fft order) of the lines where the
    Bochner-Riesz symbol, and so each truncation, is nonzero; the last axis
    keeps the half band ``xi <= N/2`` of a real source."""
    half = bochner_riesz_symbol(spec, delta)[..., : spec.N // 2 + 1]
    return tuple(tuple(idx.tolist()) for idx in _band(half))


@lru_cache(maxsize=64)
def _phases(N: int, lines: tuple[int, ...], lo: int, hi: int, sign: int) -> np.ndarray:
    """``exp(sign 2 pi i u xi / N)`` for ``u`` in ``[lo, hi)`` (rows) and
    ``xi`` in ``lines`` (columns), with ``u xi`` reduced mod N first."""
    turns = np.multiply.outer(np.arange(lo, hi), np.array(lines, dtype=np.int64)) % N
    out = np.exp(turns * (sign * 2j * math.pi / N))
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
    discrete Parseval from its symbol."""
    sym = truncated_symbol(spec, delta, _trunc_eps(spec, eps_px))
    return math.sqrt(float(np.sum(sym * sym)) / sym.size)


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
        at = f.support_ranges() or _full_window(f.spec)
        if box is not None:
            at = [_cap(r, s) for r, s in zip(at, box.index_ranges(f.spec))]
        self._at = tuple(at)
        self._fs = f.take(self._at)
        self._g: dict[tuple, np.ndarray] = {}

    def _f_take(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> np.ndarray:
        """The read of f on the wrapped index box ``[lo, hi)``: exactly +0.0
        outside the support index box."""
        return _wrap_take(self._fs, lo, hi, self._at, self.spec.N)

    @cached_property
    def _nz(self) -> tuple[np.ndarray, ...]:
        """Grid indices of f's nonzeros, one array per axis."""
        return tuple(idx + l for idx, (l, _) in zip(np.nonzero(self._fs), self._at))

    def _nz_in_balls(self, centers: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Per row of ``centers``, whether B(center, r) holds every nonzero
        of f and whether it holds any (minimal-image metric, ties included),
        in blocks of centers that bound the memory."""
        N, step = self.spec.N, max(1, (1 << 20) // max(self._nz[0].size, 1))
        flags = []
        for c in np.split(centers, range(step, len(centers), step)):
            inside = sum(np.take(_torus_dist(c[:, a, None], 0, N, N) ** 2, idx, axis=1)
                         for a, idx in enumerate(self._nz)) <= r * r
            flags.append((inside.all(axis=1), inside.any(axis=1)))
        return tuple(np.concatenate(f) for f in zip(*flags))

    # -- certified radius bounds ------------------------------------------

    @cached_property
    def _sq_sum(self) -> float:
        return float(np.sum(np.abs(self._fs) ** 2))

    @cached_property
    def _p0_sum(self) -> float:
        return float(np.sum(np.abs(self._fs) ** self.cfg.p0))

    def _l2_bound(self, eps_px: int) -> float:
        """No value of either truncated operator at radius ``eps_px`` or any
        larger one exceeds this (margin included)."""
        q0 = self.cfg.q0
        l2 = _radius_bound(self._sq_sum, self.spec.n, eps_px, self.spec.N, 2.0)
        if q0 == 2.0:
            return l2 * _MARGIN
        k2 = max(_kernel_l2(self.spec, self.delta, e) for e in self.eps_list if e >= eps_px)
        return (k2 * math.sqrt(self._sq_sum)) ** (1.0 - 2.0 / q0) * l2 ** (2.0 / q0) * _MARGIN

    def _hl_bound(self, r_px: int) -> float:
        """No L^{p0} ball mean of f at radius ``r_px`` or any larger one
        exceeds this (margin included)."""
        return _radius_bound(self._p0_sum, self.spec.n, r_px, self.spec.N,
                             self.cfg.p0) * _MARGIN

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
        spec, n, N, lines = self.spec, self.spec.n, self.spec.N, _band_lines(self.spec, self.delta)
        # each line but xi = 0 stands for -xi too (the band is below N/4)
        sym = truncated_symbol(spec, self.delta, _trunc_eps(spec, eps_px))[np.ix_(*lines)]
        x = spectrum * (sym * np.where(np.array(lines[-1]) == 0, 1.0, 2.0) / N ** n)
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
        out, chords = np.zeros(avg.shape[:avg.ndim - n] + shape), _ball_chords(n, eps_px, N)
        for k, table in enumerate(doubling_table(avg, np.maximum, len(chords), (avg.ndim - 1,))):
            for h, leads in chords[k]:
                lo, hi = eps_px - h, eps_px + h + 1 - (1 << k)
                run = np.maximum(table[..., lo:lo + shape[-1]], table[..., hi:hi + shape[-1]])
                for a in leads:
                    sl = tuple(slice(eps_px + ai, eps_px + ai + m) for ai, m in zip(a, shape))
                    np.maximum(out, run[(...,) + sl + (slice(None),)], out=out)
        return out

    # -- one radius of each operator ---------------------------------------
    # Each step raises its accumulator in place, unless the radius's bound
    # shows that it cannot raise it anywhere in the window.

    def _starstar_step(self, window: Window, eps_px: int, acc: np.ndarray) -> None:
        if self._l2_bound(eps_px) > acc.min():
            g = self._g_window(eps_px, *zip(*self._expand(window, 2 * eps_px)))
            np.maximum(acc, self._y_max(g, eps_px), out=acc)

    def _hl_step(self, window: Window, r_px: int, best: np.ndarray) -> None:
        """``best`` holds the running max of the ball means of ``|f|^p0``."""
        p0 = self.cfg.p0
        if self._hl_bound(r_px) > best.min() ** (1.0 / p0):
            dens = np.abs(self._f_take(*zip(*self._expand(window, r_px)))) ** p0
            np.maximum(best, _ball_mean_linear(dens, r_px, self.spec.N), out=best)

    def _star_step(self, window: Window, eps_px: int, acc: np.ndarray) -> None:
        if not self._bounded:
            raise ValueError("br_star needs a compactly supported field "
                             "(declared support box missing)")
        if self._nz[0].size and self._l2_bound(eps_px) > acc.min():
            np.maximum(acc, self._star_tiles(window, eps_px), out=acc)

    def _star_tiles(self, window: Window, eps_px: int) -> np.ndarray:
        """``br_star`` at one radius on the window, each point masked by the
        ball ``B(c, 3 eps)`` of its tile's center ``c`` (module docstring).
        The tile side ``t = min(eps, window side)`` divides the window's
        sides, all powers of two.  ``B_eps f`` is read only if some tile is
        not covered."""
        n, N, mask_r, pad = self.spec.n, self.spec.N, 3 * eps_px, 2 * eps_px
        t = tuple(min(eps_px, h - l) for l, h in window)
        lo = tuple(l for l, _ in window)
        tiled = sum((((h - l) // s, s) for (l, h), s in zip(window, t)), ())
        order = (*range(0, 2 * n, 2), *range(1, 2 * n, 2))  # tile index..., offset...
        vals = np.zeros(tiled)
        tiles = np.indices(tiled[::2]).reshape(n, -1).T
        centers = np.add(lo, tiles * t) + np.floor_divide(t, 2)
        covered, touched = self._nz_in_balls(centers, mask_r)
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
            blo, ball = _ball_box(n, mask_r, N)
            fu = self._f_take(tuple(cs.min(axis=0) + blo),
                              tuple(cs.max(axis=0) + blo + ball.shape))
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

    def phi_values(self, window: Window, thresholds) -> np.ndarray:
        """``star + starstar + M_{p0}`` of f on the window, summed in that
        order, exact as far as every comparison ``phi > t`` with ``t`` in
        ``thresholds`` goes (module docstring, "Radius bounds").

        Before each radius, a point's running sum ``lo`` and the same sum
        with each accumulator raised to its bound, ``hi``, bracket its final
        value.  Once no ``t`` satisfies ``lo <= t < hi`` at any point, the
        walk returns ``lo``.
        """
        inv_p0 = 1.0 / self.cfg.p0
        shape = tuple(h - l for l, h in window)
        star, starstar, best = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        ts = np.sort(np.asarray(thresholds, dtype=float))
        for eps_px in self.eps_list:
            hl = best ** inv_p0
            lo = star + starstar + hl
            b = self._l2_bound(eps_px)
            hi = (np.maximum(star, b) + np.maximum(starstar, b)
                  + np.maximum(hl, self._hl_bound(eps_px)))
            # the count of thresholds below lo equals that below hi everywhere
            if np.array_equal(np.searchsorted(ts, lo), np.searchsorted(ts, hi)):
                return lo
            self._star_step(window, eps_px, star)
            self._starstar_step(window, eps_px, starstar)
            self._hl_step(window, eps_px, best)
        return star + starstar + best ** inv_p0


def hl_maximal(f: SampledField, cfg: MaximalConfig) -> SampledField:
    """L^{p0} Hardy-Littlewood maximal function at ``cfg.p0`` over the
    dyadic radius set."""
    eng = MaximalEngine(f, 0.0, cfg)
    return SampledField(f.spec, eng.hl_values(_full_window(f.spec)))


def br_star(f: SampledField, delta: float, cfg: MaximalConfig) -> SampledField:
    """Masked (off-diagonal) maximal truncation of the multiplier."""
    return SampledField(f.spec, MaximalEngine(f, delta, cfg).star_values(_full_window(f.spec)))


def br_starstar(f: SampledField, delta: float, cfg: MaximalConfig) -> SampledField:
    """Unmasked maximal truncation of the multiplier."""
    eng = MaximalEngine(f, delta, cfg)
    return SampledField(f.spec, eng.starstar_values(_full_window(f.spec)))


def ball_points(spec: GridSpec, center, radius: float
                ) -> tuple[list[tuple[int, int]], tuple[np.ndarray, ...]]:
    """The grid points of the ball B(center, radius): the index box spanned
    by their offsets (ranges taken mod N, as ``grid.apply_symbol`` reads
    them) and their indices inside that box, in ``_ball_offsets`` order."""
    c = np.broadcast_to(np.asarray(center, dtype=float), (spec.n,))
    c_px = np.round(c / spec.dx + spec.N // 2).astype(int)
    lo, ball = _ball_box(spec.n, int(math.floor(radius / spec.dx)), spec.N)
    return ([(int(ci + l), int(ci + l + m)) for ci, l, m in zip(c_px, lo, ball.shape)],
            np.nonzero(ball))


def ball_average(f: SampledField, center, radius: float, p: float) -> float:
    """L^p average of f over the grid points of the ball B(center, radius)."""
    box, idx = ball_points(f.spec, center, radius)
    return lp_mean(f.take(box)[idx], p)
