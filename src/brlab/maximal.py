"""Discretized maximal operators that drive the stopping-time selection.

Three operators act on a field ``f``:

* ``hl_maximal``      -- L^{p0} Hardy-Littlewood maximal function over the
  dyadic radius set.
* ``br_starstar``     -- sup over radii ``eps`` and centers ``y`` near ``x``
  of local L^{q0} averages of the truncated multiplier applied to ``f``.
* ``br_star``         -- same, but the input is masked outside the ball
  ``B(x, 3 eps)`` first (the off-diagonal / tail operator).

Discretization policy
---------------------
The continuum sup over ``eps > 0`` and ``|x - y| < eps`` is replaced by a
finite dyadic radius set and a per-ball candidate set of at most
``y_thin`` centers.  That discretization alone gives lower bounds of the
continuum operators, which the selection algorithm absorbs into its
adaptive threshold constant.  The mask snapping of ``br_star`` below is not
one-sided: the tiled path can exceed the masked operator's definition
(the exact ``br_star`` item of ROADMAP.md replaces it).

Truncated fields
----------------
Every truncated field is read through ``MaximalEngine._truncate``: ``B_eps``
of a source that lives on an index box ``S`` (zero elsewhere), on a wrapped
index box ``Z``.  It is the exact valid convolution of the source with the
wrapped kernel crop (``|Z| + |S| - 1`` points per axis), whose cost scales
with the crop, not with ``N^n``; a crop longer than ``N`` holds some kernel
offsets twice and is still exact.  The kernel comes from
``_kernel_offsets``, the pruned inverse read of the symbol on the whole
grid.  Every linear convolution here (``_fftconvolve``, and
``_ball_mean_linear`` with a cached ball spectrum) computes only its valid
part, from one circular convolution at ``next_fast_len`` of the larger
operand (overlap-save), on ``scipy.fft`` like every other transform of
brlab.  Two sources occur: f on its support box (``_g_window``, read by the
unmasked y-max, by ``br_star``'s partial tiles and by the displacement
path), and f cut to a partial tile's mask ball, on the bounding box of its
nonzeros there.  One ``_y_max`` turns a truncated field on a box
``+- 2 eps`` into its y-maxed ball L^{q0} means: for ``br_starstar``, for
``br_star``'s disjoint tiles and for its partial tiles.

``br_star`` masks depend on the evaluation point, which is the expensive
part.  Each radius first tests which window points x have a mask ball
``B(x, 3 eps)`` that provably holds every nonzero of f: there the value is
0, and a radius where every point is covered does no masking work.  The
radius then picks one of two paths:

* small radii (``eps < SNAP_MIN_PX`` pixels): the masked transform is
  evaluated exactly at every point of the window, as two matrix products
  per block of ``_STAR_BLOCK`` window points.  The near field
  ``near(x, d) = sum_{|u| <= 3 eps} K(d - u) f(x + u)`` at each
  displacement ``|d| <= 2 eps`` is the block's patches of a periodically
  wrapped crop of ``f`` times the cached kernel matrix ``K(d - u)``; the
  candidates' ball sums of ``|g(x + d) - near(x, d)|^q0``, with ``g`` read
  from one ``_g_window`` over the window ``+- 2 eps``, are one product with
  the cached candidate/displacement incidence matrix;
* large radii (``eps >= SNAP_MIN_PX``): mask centers are snapped to a
  per-scale tile lattice of side ``eps`` (``|x - x'| <= eps/2``).  Each
  tile is classified exactly by counting f's nonzeros in its center's mask
  ball: a ball that holds all of them gives 0 (covered), one that holds
  none gives the unmasked y-max (disjoint).  A partial tile subtracts the
  truncated field of f cut to the ball from ``g`` on the tile ``+- 2 eps``,
  a slice of one ``_g_window`` over the whole window ``+- 2 eps``.

Every ball mean is a linear convolution over a periodically wrapped crop
of the window plus the radius, kept on the window: ``eps <= N/4`` keeps
the ball's offsets distinct mod ``N``, so the crop gives exact torus means
even where it is wider than the grid and holds a grid point twice.  All
ball geometry uses grid pixels with the minimal-image torus metric, ties
at the boundary included.

Radius bounds
-------------
Each operator walks its radii in ascending order and skips a radius whose
certified upper bound, times ``1 + 1e-9``, is at or below the minimum of
its running maximum over the window.  A ball mean of a density never
exceeds the density's total over the ball's point count, so the HL bound
at radius ``r`` is ``(sum |f|^p0 / |ball_r|)^(1/p0)``.  The truncated
symbol lies in [0, 1], and discrete Parseval gives
``sum |B_eps h|^2 <= sum |h|^2 <= sum |f|^2`` for ``f`` and for every
masked restriction ``h = f 1_{B(x, 3 eps)^c}``; so for ``q0 == 2``
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
sample ranges cut to f's support, and the reads that reach past it (HL's
density crop and the displacement path's f-window) are one wrapped take
that is exactly +0.0 outside it.  The public operators pass no box; their
whole-grid window takes crops longer than the grid, through the same
convolutions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import fft

from .grid import (Box, GridSpec, SampledField, _wrap_take, lp_mean, sum_of_squares,
                   symbol_kernel)
from .multiplier import truncated_symbol

__all__ = [
    "MaximalConfig",
    "MaximalEngine",
    "hl_maximal",
    "br_star",
    "br_starstar",
    "ball_average",
    "ball_points",
]


SNAP_MIN_PX = 8  # br_star radii from here on snap mask centers to the tile lattice
_MARGIN = 1.0 + 1e-9  # radius bounds absorb the rounding of the FFT means


@dataclass(frozen=True)
class MaximalConfig:
    """Exponents and discretization parameters shared by the three maximal
    operators; the selection in ``sparse`` reads ``p0`` and ``q0`` from here.

    ``eps`` radii are ``2^m`` grid pixels for ``m`` in
    ``[eps_min_exp, eps_max_exp]`` (default upper end: ``log2(N/4)``).
    ``y_thin`` (at least 1) caps the candidate centers per ball (None = all).
    """

    p0: float = 1.2
    q0: float = 2.0
    eps_min_exp: int = 2
    eps_max_exp: int | None = None
    y_thin: int | None = 64

    def __post_init__(self):
        if not 1.0 < self.p0 < 2.0:
            raise ValueError(f"p0 must lie in (1, 2), got {self.p0}")
        if not 2.0 <= self.q0 <= 6.0:
            raise ValueError(f"q0 must lie in [2, 6], got {self.q0}")
        if self.eps_min_exp < 0:
            raise ValueError("eps_min_exp must be >= 0")
        if self.y_thin is not None and self.y_thin < 1:
            raise ValueError(f"y_thin must be >= 1 or None, got {self.y_thin}")

    def eps_px_list(self, spec: GridSpec) -> list[int]:
        hi = self.eps_max_exp
        if hi is None:
            hi = int(math.log2(spec.N)) - 2
        exps = [m for m in range(self.eps_min_exp, hi + 1) if 2 ** m <= spec.N // 4]
        if not exps:
            raise ValueError("empty radius set: grid too small for eps_min_exp")
        return [2 ** m for m in exps]


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


@lru_cache(maxsize=256)
def _y_pattern(n: int, r_px: int, N: int, thin: int | None) -> np.ndarray:
    """Candidate center offsets: the r-ball, strided down to <= thin points.

    The pattern always contains the origin and is a fixed function of the
    radius, so every evaluation point uses the same candidate geometry.
    """
    offs = _ball_offsets(n, r_px, N)
    if thin is None or len(offs) <= thin:
        return offs
    # r_px <= N/4: stride s keeps the lattice points s k of the plain r-ball
    stride = 2
    while True:
        k = np.arange(-(r_px // stride), r_px // stride + 1) * stride
        if np.count_nonzero(sum_of_squares([k] * n) <= r_px * r_px) <= thin:
            break
        stride += 1
    sub = offs[np.all(offs % stride == 0, axis=1)]
    sub.flags.writeable = False
    return sub


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


def _ball_mean_linear(arr: np.ndarray, r_px: int, N: int) -> np.ndarray:
    """Mean of ``arr`` over the r-ball around each of its points at least
    ``r_px`` inside its edges: an array ``2 r_px`` shorter on every axis.

    One circular convolution with the ball at ``next_fast_len`` of
    ``arr``'s shape: from those points the ball reaches no wrapped sample.
    """
    fshape = tuple(fft.next_fast_len(m, True) for m in arr.shape)
    conv = fft.irfftn(fft.rfftn(arr, fshape) * _ball_spectrum(arr.ndim, r_px, N, fshape),
                      fshape)
    conv = conv[tuple(slice(r_px, m - r_px) for m in arr.shape)]
    return np.maximum(conv, 0.0) / len(_ball_offsets(arr.ndim, r_px, N))


def _radius_bound(power_sum: float, n: int, r_px: int, N: int, p: float) -> float:
    """``(power_sum / |ball_r|)^(1/p)``: no L^p mean over an r-ball of a
    density whose grid total is at most ``power_sum`` can exceed it."""
    return (power_sum / len(_ball_offsets(n, r_px, N))) ** (1.0 / p)


def _pattern_max(avg: np.ndarray, pat: np.ndarray, base: tuple[int, ...],
                 shape: tuple[int, ...]) -> np.ndarray:
    """max over candidate offsets ``a`` in ``pat`` of the ``shape`` block of
    ``avg`` that starts at ``base + a``."""
    out = None
    for a in pat:
        sl = tuple(slice(b + int(ai), b + int(ai) + s) for b, ai, s in zip(base, a, shape))
        out = avg[sl].copy() if out is None else np.maximum(out, avg[sl])
    return out


def _trunc_eps(spec: GridSpec, eps_px: int) -> float:
    """Truncation parameter of the radius ``eps_px``.  Every ``eps <= 1``
    gives the untruncated symbol, so they all share the value 1."""
    return max(eps_px * spec.dx, 1.0)


@lru_cache(maxsize=8)
def _kernel_offsets(spec: GridSpec, delta: float, eps: float) -> np.ndarray:
    """Spatial kernel of the truncated multiplier, indexed by pixel offset
    (wrap semantics): B_eps(h) = circular convolution of h with this.  The
    symbol is even, so the half-spectrum inverse gives the kernel exactly
    and it is real; it runs only on the symbol's band."""
    kern = symbol_kernel(truncated_symbol(spec, delta, eps))
    kern.flags.writeable = False
    return kern


@lru_cache(maxsize=64)
def _kernel_l2(spec: GridSpec, delta: float, eps_px: int) -> float:
    """``||K_eps||_2`` of the truncated kernel at radius ``eps_px``, by
    discrete Parseval from its symbol."""
    sym = truncated_symbol(spec, delta, _trunc_eps(spec, eps_px))
    return math.sqrt(float(np.sum(sym * sym)) / sym.size)


_STAR_BLOCK = 2048  # window points per matrix product of the small-radius br_star path


@lru_cache(maxsize=8)
def _near_matrix(spec: GridSpec, delta: float, eps_px: int) -> np.ndarray:
    """``M[j, i] = K(d_i - u_j)`` for ``u_j`` in the ``3 eps``-ball and ``d_i``
    in the ``2 eps``-ball (``_ball_offsets`` order): the masked transform of f
    at ``x + d_i`` is ``sum_j f(x + u_j) M[j, i]``."""
    n, N = spec.n, spec.N
    kern = _kernel_offsets(spec, delta, _trunc_eps(spec, eps_px))
    diff = _ball_offsets(n, 2 * eps_px, N)[None] - _ball_offsets(n, 3 * eps_px, N)[:, None]
    m = kern[tuple(np.moveaxis(diff % N, -1, 0))]
    m.flags.writeable = False
    return m


@lru_cache(maxsize=64)
def _incidence(n: int, eps_px: int, N: int, thin: int | None) -> np.ndarray:
    """``A[i, a] = 1`` where the displacement ``d_i`` (``2 eps``-ball) lies in
    the eps-ball around candidate ``a`` (``_y_pattern``), in the minimal-image
    metric, else 0: each candidate touches every point of its ball once,
    also where the ``2 eps``-ball wraps around the torus."""
    diff = _ball_offsets(n, 2 * eps_px, N)[:, None] - _y_pattern(n, eps_px, N, thin)[None]
    m = diff % N
    a = (np.sum(np.minimum(m, N - m) ** 2, axis=-1) <= eps_px * eps_px).astype(float)
    a.flags.writeable = False
    return a


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
        self._sbox = tuple(slice(0, f.spec.N) for _ in range(f.spec.n))
        for b in (f.support, box):
            if b is not None:
                self._sbox = tuple(slice(max(s.start, l), min(s.stop, h))
                                   for s, (l, h) in zip(self._sbox, b.index_ranges(f.spec)))
        self._fs = f.values[self._sbox]
        self._g: dict[tuple, np.ndarray] = {}

    def _f_take(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> np.ndarray:
        """The read of f on the wrapped index box ``[lo, hi)``: exactly +0.0
        outside the support index box."""
        idx = [np.arange(l, h) % self.spec.N for l, h in zip(lo, hi)]
        inside = [(i >= s.start) & (i < s.stop) for i, s in zip(idx, self._sbox)]
        out = np.zeros(tuple(len(i) for i in idx), dtype=self._fs.dtype)
        out[np.ix_(*inside)] = self.f.values[np.ix_(*(i[m] for i, m in zip(idx, inside)))]
        return out

    @cached_property
    def _nz(self) -> tuple[np.ndarray, ...]:
        """Grid indices of f's nonzeros, one array per axis."""
        return tuple(idx + s.start for idx, s in zip(np.nonzero(self._fs), self._sbox))

    @cached_property
    def _nz_ball(self) -> tuple[np.ndarray, float]:
        """Center and radius (px) of a ball that holds every nonzero of f
        (radius -1 when there is none)."""
        if len(self._nz[0]) == 0:
            return np.zeros(self.spec.n), -1.0
        center = np.array([0.5 * (idx.min() + idx.max()) for idx in self._nz])
        d2 = sum((idx - c) ** 2 for idx, c in zip(self._nz, center))
        return center, float(np.sqrt(d2.max()))

    def _nz_in_ball(self, center: list[int], r: int) -> np.ndarray:
        """Which of f's nonzeros lie in B(center, r) (minimal-image metric,
        ties included)."""
        N = self.spec.N
        d2 = sum((_torus_dist(c, 0, N, N) ** 2)[idx] for idx, c in zip(self._nz, center))
        return d2 <= r * r

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

    def _truncate(self, src: np.ndarray, slo: tuple[int, ...], eps_px: int,
                  zlo: tuple[int, ...], zhi: tuple[int, ...]) -> np.ndarray:
        """``B_eps`` of the field that is ``src`` on the index box of the grid
        starting at ``slo`` and zero elsewhere, on the wrapped index box
        ``[zlo, zhi)``.

        ``g(z) = sum_{u in S} K((z - u) mod N) src(u - slo)`` over the box
        ``S = [slo, shi)`` is the ``mode="valid"`` convolution of ``src``
        with the kernel crop of offsets ``[zlo - shi + 1, zhi - slo)``.  That
        is exact for any z-box, also where the crop is longer than the grid:
        the points of ``S`` are distinct, and a kernel offset the crop holds
        twice is read correctly both times.
        """
        spec = self.spec
        if src.size == 0:
            return np.zeros(tuple(h - l for l, h in zip(zlo, zhi)), dtype=src.dtype)
        eps = _trunc_eps(spec, eps_px)
        shi = tuple(a + s for a, s in zip(slo, src.shape))
        kc = _wrap_take(_kernel_offsets(spec, self.delta, eps),
                        tuple(l - b + 1 for l, b in zip(zlo, shi)),
                        tuple(h - a for h, a in zip(zhi, slo)))
        return _fftconvolve(kc, src)

    def _g_window(self, eps_px: int, zlo: tuple[int, ...],
                  zhi: tuple[int, ...]) -> np.ndarray:
        """The truncated field ``B_eps f`` on the wrapped index box ``[zlo, zhi)``,
        read-only and computed once per engine: ``br_star`` and
        ``br_starstar`` read the same box at each radius."""
        key = (eps_px, zlo, zhi)
        if key not in self._g:
            g = self._truncate(self._fs, tuple(s.start for s in self._sbox), eps_px, zlo, zhi)
            g.flags.writeable = False
            self._g[key] = g
        return self._g[key]

    @staticmethod
    def _expand(window: Window, pad: int) -> Window:
        return tuple((l - pad, h + pad) for l, h in window)

    def _y_max(self, g: np.ndarray, eps_px: int) -> np.ndarray:
        """max over candidate centers y (|y - x| <= eps) of the ball L^{q0}
        average of a truncated field ``g`` given on a box +- 2 eps, for x in
        that box: no candidate's ball reaches a sample outside ``g``."""
        n, N, q0 = self.spec.n, self.spec.N, self.cfg.q0
        avg = _ball_mean_linear(np.abs(g) ** q0, eps_px, N) ** (1.0 / q0)
        return _pattern_max(avg, _y_pattern(n, eps_px, N, self.cfg.y_thin), (eps_px,) * n,
                            tuple(m - 4 * eps_px for m in g.shape))

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
        if not self._nz[0].size or self._l2_bound(eps_px) <= acc.min():
            return
        covered = self._covered_mask(window, 3 * eps_px)
        if covered.all():
            return
        path = self._star_displacement if eps_px < SNAP_MIN_PX else self._star_tiled
        np.maximum(acc, np.where(covered, 0.0, path(window, eps_px)), out=acc)

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

    def _covered_mask(self, window: Window, mask_r: int) -> np.ndarray:
        """Points x in the window where B(x, mask_r) provably contains every
        nonzero of f, so the masked input vanishes identically: where, in the
        minimal-image metric, x's distance to the center of a ball that holds
        them plus its radius (triangle inequality), or to the farthest point
        of their bounding index box, is at most mask_r."""
        center, radius = self._nz_ball
        N = self.spec.N
        d2 = sum_of_squares([_torus_dist(c, l, h, N) for c, (l, h) in zip(center, window)])
        far = [_torus_dist(np.arange(l, h)[:, None], idx.min(), idx.max() + 1, N).max(axis=1)
               for idx, (l, h) in zip(self._nz, window)]
        return (np.sqrt(d2) + radius <= mask_r) | (sum_of_squares(far) <= mask_r * mask_r)

    def _star_tiled(self, window: Window, eps_px: int) -> np.ndarray:
        """Snapped masks: every point of an eps-tile of the window takes the
        mask ball ``B(c, 3 eps)`` of the tile center ``c``.  A tile whose
        ball holds every nonzero of f is covered (its values are 0), one
        whose ball holds none is disjoint (the unmasked y-max), and any other
        tile is partial."""
        mask_r = 3 * eps_px
        vals = np.zeros(tuple(h - l for l, h in window))
        gwin = None  # truncated field on the window +- 2 eps, once a tile needs it
        avg = None  # its y-max on the window, for disjoint tiles
        for tlo in itertools.product(*(range(l, h, eps_px) for l, h in window)):
            thi = tuple(min(a + eps_px, h) for a, (_, h) in zip(tlo, window))
            center = [a + (b - a) // 2 for a, b in zip(tlo, thi)]
            inside = self._nz_in_ball(center, mask_r)
            if inside.all():
                continue
            if gwin is None:
                gwin = self._g_window(eps_px, *zip(*self._expand(window, 2 * eps_px)))
            rel = tuple(slice(a - l, b - l) for a, b, (l, _) in zip(tlo, thi, window))
            if not inside.any():
                if avg is None:
                    avg = self._y_max(gwin, eps_px)
                vals[rel] = avg[rel]
                continue
            gz = gwin[tuple(slice(r.start, r.stop + 4 * eps_px) for r in rel)]
            vals[rel] = self._masked_tile_values(tlo, thi, center, inside, eps_px, gz)
        return vals

    def _masked_tile_values(self, tlo, thi, center, inside, eps_px, gz) -> np.ndarray:
        """Ball-average field, y-maxed on the tile, of ``B_eps`` of f masked
        outside ``B(center, 3 eps)``, whose nonzeros ``inside`` marks: the
        truncated field ``gz`` on the tile +- 2 eps minus ``B_eps`` of f cut
        to the ball, on the bounding box of its nonzeros there."""
        N, mask_r = self.spec.N, 3 * eps_px
        zlo = tuple(a - 2 * eps_px for a in tlo)
        zhi = tuple(b + 2 * eps_px for b in thi)
        hlo, hhi = zip(*((int(sel.min()), int(sel.max()) + 1)
                         for sel in (idx[inside] for idx in self._nz)))
        d2 = sum_of_squares([_torus_dist(c, a, b, N) for c, a, b in zip(center, hlo, hhi)])
        h = np.where(d2 <= mask_r * mask_r,
                     self.f.values[tuple(slice(a, b) for a, b in zip(hlo, hhi))], 0.0)
        return self._y_max(gz - self._truncate(h, hlo, eps_px, zlo, zhi), eps_px)

    def _star_displacement(self, window: Window, eps_px: int) -> np.ndarray:
        """Exact per-point masks for small radii, as two matrix products.

        The masked transform at ``z = x + d`` is
        ``near(x, d) = sum_{|u| <= 3 eps} K(d - u) f(x + u)``, so for a block
        of window points ``near = P @ M`` with ``P[x, j] = f(x + u_j)``
        (:func:`_near_matrix`), and the candidates' ball sums of
        ``|g(x + d) - near(x, d)|^q0`` are one product with the incidence
        matrix (:func:`_incidence`).  f is read on the wrapped window
        ``+- 3 eps``, exact at any window size since the mask-ball offsets
        are distinct mod N, and g on the window ``+- 2 eps``.
        """
        spec, n = self.spec, self.spec.n
        N, q0 = spec.N, self.cfg.q0
        mask_r, d_r = 3 * eps_px, 2 * eps_px
        fwin = self._f_take(*zip(*self._expand(window, mask_r)))
        gwin = self._g_window(eps_px, *zip(*self._expand(window, d_r)))
        near_m = _near_matrix(spec, self.delta, eps_px)
        touch = _incidence(n, eps_px, N, self.cfg.y_thin)
        # flat indices of each window point and of each offset in the two
        # windows; a point's patch is its index plus the offsets'
        wshape = tuple(h - l for l, h in window)
        xs = np.indices(wshape).reshape(n, -1)
        x_f, x_g = (np.ravel_multi_index(xs, w.shape) for w in (fwin, gwin))
        u_f = np.ravel_multi_index(tuple((_ball_offsets(n, mask_r, N) + mask_r).T), fwin.shape)
        d_g = np.ravel_multi_index(tuple((_ball_offsets(n, d_r, N) + d_r).T), gwin.shape)
        fflat, gflat = fwin.ravel(), gwin.ravel()
        top = np.empty(x_f.size)
        for s in range(0, x_f.size, _STAR_BLOCK):
            b = slice(s, s + _STAR_BLOCK)
            near = fflat[x_f[b, None] + u_f] @ near_m
            top[b] = np.max(np.abs(gflat[x_g[b, None] + d_g] - near) ** q0 @ touch, axis=1)
        count = len(_ball_offsets(n, eps_px, N))
        return (np.maximum(top, 0.0) / count).reshape(wshape) ** (1.0 / q0)


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
    offs = _ball_offsets(spec.n, int(math.floor(radius / spec.dx)), spec.N)
    lo, hi = offs.min(axis=0), offs.max(axis=0) + 1
    return ([(int(ci + l), int(ci + h)) for ci, l, h in zip(c_px, lo, hi)],
            tuple((offs - lo).T))


def ball_average(f: SampledField, center, radius: float, p: float) -> float:
    """L^p average of f over the grid points of the ball B(center, radius)."""
    box, idx = ball_points(f.spec, center, radius)
    return lp_mean(_wrap_take(f.values, *zip(*box))[idx], p)
