"""Periodic sampling grid: transforms, norms, cube averages, test fields.

The continuum R^n is modeled by a torus of side ``L`` centered at the
origin, sampled at ``N`` points per axis, ``x = L*(j/N - 1/2)``.  Frequency
space is the lattice ``(1/L)*Z^n`` truncated at the Nyquist frequency
``N/(2L)``.  Test functions are confined to the central quarter of the
domain so that periodic wraparound of slowly decaying kernels stays
quantifiably below the relevant envelopes.

Transform convention (forward):

    fhat(xi) = dx^n * sum_j f(x_j) exp(-2 pi i x_j . xi)

which discretizes the continuum Fourier integral; Parseval then reads
``sum |fhat|^2 / L^n = sum |f|^2 dx^n``.

Field values are stored as float64 when the input is real and as complex128
otherwise.  A field with a declared support box stores only its block on
the box's sample points and is exact ``+0.0`` elsewhere: the test fields
cover 2-5% of the grid at N = 1024, so building, adding and scaling them,
their cube and ball averages and the source rows of :func:`apply_symbol`
work on the stored block (``SampledField.block_ranges``: the support box,
or the whole grid without one), reading through :func:`_wrap_take`, which
meets the stored block with the read box and fills the rest with zeros.  The whole grid
(``SampledField.values``) is built on first use, for the whole-grid
operations: norms, weights and field files.

Every transform runs on the 1-D passes of ``numpy.fft``, called through
the module so that its entry points can be wrapped from outside.  NumPy
(>= 2) ships the C++ pocketfft that ``scipy.fft`` runs, and the n-D pair
:func:`_rfftn`/:func:`_irfftn` runs its passes in SciPy's order with
SciPy's one scale, so it has the bits of ``scipy.fft``'s n-D transforms
without SciPy's import cost; NumPy's own n-D entry points take the c2c axes
in descending order and scale per axis, and their bits differ.
:func:`apply_symbol` is the one place a Fourier multiplier meets a whole
field (``maximal`` reads truncated fields on boxes as band products).
Every symbol here is even, so real values stay real, and complex values
take the passes below on their real and imaginary parts.  The passes are
pocketfft's own separable passes of the ``rfftn``/``irfftn`` pair on the
half symbol: ``rfftn`` is an r2c pass along the last axis, then c2c passes
along axes 0, ..., n-2; ``irfftn`` is the unscaled inverse c2c passes in
the same order, then a c2r pass along the last axis scaled by ``1/N^n``.
The passes are pruned to the lines that can change the result: the r2c
pass runs only on the rows of the field's block, where the values can be
nonzero, the c2c passes only on the band, a range of lines per axis that
holds every nonzero of the symbol, and the c2r pass only on the rows of the
box that is read, followed by one multiply by ``1/N^n``.  The r2c pass runs
on blocks of the block's rows (about 2^15 samples, at most N rows each),
each row embedded whole in ``ifftshift`` order, and writes only the band's
columns of each block's spectra into one (rows x band) array, so no pass
holds every row at full length.  Each axis but the last then takes the
block's rows before its forward pass and the read box's rows after its
inverse pass; the last axis is cut to the read box after the c2r pass.
Every index set is a range taken mod N (a box's rows, the band's lines, the
last axis whole) and is read by :func:`_wrap_take`.
A symbol is a :class:`BandSymbol`, which carries its band and its half
there, so no pass scans the symbol.  Every symbol carrying
``(1 - |xi|^2)_+^delta`` has a narrow band (at L = 16, N = 512: 31 of 512
rows and 16 of 257 half-spectrum columns); a symbol without zeros keeps its
full passes.  The pruned result has the bits
of the whole-grid pair: the passes run in the same order, each 1-D line is
the same pocketfft transform, a line left out holds zeros that add nothing,
the takes only move values, and the scale is a power of two applied once at
the end.  The ``dx^n`` factors of the transform convention cancel in a
multiplier and are left out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np
from numpy import fft

__all__ = [
    "GridSpec",
    "Box",
    "SampledField",
    "SpectralField",
    "BandSymbol",
    "inverse_transform",
    "apply_symbol",
    "cube_average",
    "lp_norm",
    "lp_mean",
    "make_test_function",
    "on_box",
    "write_field",
    "read_field",
]


@dataclass(frozen=True)
class GridSpec:
    """Periodic square grid: ``n`` dimensions, side ``L``, ``N`` samples per axis.

    ``N`` must be a power of two with ``N >= 8`` and the Nyquist frequency
    ``N/(2L)`` must exceed 2 so the unit frequency ball is resolved.
    """

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"domain side must be finite and positive, got {self.L}")
        if self.N < 8 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if self.nyquist <= 2.0:
            raise ValueError(
                f"Nyquist frequency N/(2L) = {self.nyquist} must exceed 2; "
                "raise N or lower L"
            )

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def nyquist(self) -> float:
        return self.N / (2.0 * self.L)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates along one axis: ``L*(j/N - 1/2)``."""
        return (np.arange(self.N) - self.N // 2) * self.dx

    def axis_freqs(self) -> np.ndarray:
        """Lattice frequencies along one axis, in fft ordering."""
        return fft.fftfreq(self.N, d=self.dx)

    def meshgrid(self) -> list[np.ndarray]:
        return np.meshgrid(*([self.axis_coords()] * self.n), indexing="ij")


def sum_of_squares(axes) -> np.ndarray:
    """``sum_i a_i^2`` on the outer grid of the 1-D coordinate arrays ``axes``."""
    out = np.zeros(tuple(len(a) for a in axes))
    for axis, a in enumerate(axes):
        shape = [1] * len(axes)
        shape[axis] = len(a)
        out = out + (a ** 2).reshape(shape)
    return out


@lru_cache(maxsize=64)
def freq_sq(spec: GridSpec) -> np.ndarray:
    """``|xi|^2`` on the discrete frequency lattice, in fft ordering."""
    return sum_of_squares([spec.axis_freqs()] * spec.n)

@lru_cache(maxsize=64)
def _radius_sq_grid(spec: GridSpec) -> np.ndarray:
    """``|x|^2`` on the physical grid."""
    return sum_of_squares([spec.axis_coords()] * spec.n)


def prefix_sum(arr: np.ndarray) -> np.ndarray:
    """Integral image of ``arr`` with a leading zero pad on every axis."""
    p = arr
    for axis in range(arr.ndim):
        p = np.cumsum(p, axis=axis)
    return np.pad(p, [(1, 0)] * arr.ndim)


def doubling_table(base: np.ndarray, op, n_levels: int, axes=None):
    """Levels ``0 .. n_levels - 1`` of the running ``op`` (``np.minimum`` or
    ``np.maximum``) of ``base``, yielded in turn: level ``k`` holds at ``x``
    ``op`` over ``[x, x + 2^k)`` on each axis in ``axes`` (default: all), so
    a width ``w`` is ``op`` of two level-``floor(log2 w)`` windows.  Exact."""
    axes = range(base.ndim) if axes is None else axes
    table = base
    for k in range(n_levels):
        if k:
            w = 1 << (k - 1)
            for ax in axes:
                head = (slice(None),) * ax + (slice(None, -w),)
                tail = (slice(None),) * ax + (slice(w, None),)
                table = op(table[head], table[tail])
        yield table


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[lo, hi)`` in physical coordinates."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"box must have positive volume: {self}")

    @classmethod
    def from_center(cls, center, half_widths) -> "Box":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        half = np.broadcast_to(np.asarray(half_widths, dtype=float), center.shape)
        return cls(tuple(center - half), tuple(center + half))

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.subtract(self.hi, self.lo)))

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    def dilate(self, factor: float) -> "Box":
        """Concentric dilation, e.g. ``factor=6`` gives the 6Q of a cube Q."""
        c = self.center
        return Box(
            tuple(ci + factor * (l - ci) for ci, l in zip(c, self.lo)),
            tuple(ci + factor * (h - ci) for ci, h in zip(c, self.hi)),
        )

    def contains_box(self, other: "Box") -> bool:
        return all(sl <= ol and oh <= sh for sl, ol, oh, sh in
                   zip(self.lo, other.lo, other.hi, self.hi))

    def union(self, other: "Box") -> "Box":
        return Box(
            tuple(min(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(max(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def index_ranges(self, spec: GridSpec) -> list[tuple[int, int]]:
        """Half-open grid-index ranges ``0 <= lo <= hi <= N`` of the sample
        points inside the box."""
        ranges = []
        for axis in range(spec.n):
            lo = self.lo[axis] / spec.dx + spec.N // 2
            hi = self.hi[axis] / spec.dx + spec.N // 2
            j0 = min(max(math.ceil(lo - 1e-9), 0), spec.N)
            ranges.append((j0, max(min(math.ceil(hi - 1e-9), spec.N), j0)))
        return ranges

    def samples(self, spec: GridSpec) -> tuple[tuple[slice, ...], list[np.ndarray]]:
        """Index slices and 1-D coordinate arrays of the sample points inside
        the box."""
        ranges = self.index_ranges(spec)
        coords = spec.axis_coords()
        return (tuple(slice(j0, j1) for j0, j1 in ranges),
                [coords[j0:j1] for j0, j1 in ranges])


class SampledField:
    """Field sampled on the grid, with an optional declared support box.

    Values are float64 for real input and complex128 otherwise.

    ``support`` is a certificate that the values vanish identically outside
    the box; generators that window their output record it, multiplier
    applications drop it (a Fourier multiplier spreads support).  A field
    with a support stores only its block on the box's index ranges; the
    values may be given there or on the whole grid, where a nonzero or
    non-finite sample outside the box raises ``ValueError``.  Only the block
    is checked for finiteness.

    The field is immutable and its stored array read-only (an array it
    neither crops nor converts is kept, so the caller must not write into
    it).  :meth:`take` reads the values on any index box; ``values``, the
    read-only whole grid, is built on first use and cached.
    """

    def __init__(self, spec: GridSpec, values, support: Box | None = None):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_block", values)
        self.__post_init__()

    # kept as a method of its own: ``perfbench/tracing.py`` wraps it to count
    # the fields built
    def __post_init__(self):
        spec = self.spec
        vals = np.asarray(self._block)
        vals = vals.astype(np.float64 if np.isrealobj(vals) else np.complex128, copy=False)
        at = tuple(self.support.index_ranges(spec) if self.support is not None
                   else [(0, spec.N)] * spec.n)
        shape = tuple(h - l for l, h in at)
        if vals.shape == spec.shape and shape != spec.shape:
            block = vals[tuple(slice(l, h) for l, h in at)].copy()
            # NaN and inf count as nonzero
            if np.count_nonzero(vals) != np.count_nonzero(block):
                raise ValueError("field values must vanish outside the support box: "
                                 "a sample there is nonzero or not finite")
        elif vals.shape == shape:
            block = vals.view()
        else:
            raise ValueError(f"values shape {vals.shape} != grid shape {spec.shape}"
                             + ("" if self.support is None else
                                f" or support block shape {shape}"))
        if not np.all(np.isfinite(block)):
            raise ValueError("field values must be finite")
        block.flags.writeable = False
        object.__setattr__(self, "_block", block)
        object.__setattr__(self, "_at", at)

    def __setattr__(self, name, value):
        raise AttributeError(f"SampledField is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def values(self) -> np.ndarray:
        """The values on the whole grid (read-only)."""
        if self._block.shape == self.spec.shape:
            return self._block
        vals = self.take([(0, self.spec.N)] * self.spec.n)
        vals.flags.writeable = False
        return vals

    def take(self, box) -> np.ndarray:
        """The values on the index box ``box`` (per axis a range ``(lo, hi)``
        of centered indices, taken mod N), through :func:`_wrap_take`: a
        read-only view of the stored block when the box lies inside the
        stored one, else a new array holding the block where the two boxes
        meet and exact ``+0.0`` elsewhere."""
        return _wrap_take(self._block, box, self._at, self.spec.N)

    @property
    def block_ranges(self) -> tuple[tuple[int, int], ...]:
        """Index ranges of the stored block, the box outside which the field
        vanishes: the support box's, or the whole grid without one."""
        return self._at

    def __mul__(self, c):
        return SampledField(self.spec, self._block * c, self.support)

    __rmul__ = __mul__

    def __add__(self, other: "SampledField") -> "SampledField":
        """The sum on the union of the support boxes: the bits of the sum of
        the two whole grids there."""
        if self.support is None or other.support is None:
            return SampledField(self.spec, self.values + other.values)
        sup = self.support.union(other.support)
        box = sup.index_ranges(self.spec)
        return SampledField(self.spec, self.take(box) + other.take(box), sup)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Fourier coefficients on the frequency lattice, fft ordering."""

    spec: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.shape != self.spec.shape:
            raise ValueError("coefficient shape mismatch")
        object.__setattr__(self, "coefficients", coeffs)


def inverse_transform(F: SpectralField) -> SampledField:
    spec = F.spec
    vals = fft.fftshift(_irfftn(F.coefficients, spec.shape, real=False)) / spec.dx ** spec.n
    return SampledField(spec, vals)


@lru_cache(maxsize=None)
def _next_fast_len(n: int, real: bool) -> int:
    """The least ``m >= n`` that is 5-smooth (``real``) or 11-smooth, the
    lengths pocketfft's real and complex plans factor: SciPy's
    ``next_fast_len``."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5) if real else (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _rfftn(x: np.ndarray, s=None, axes=None) -> np.ndarray:
    """``scipy.fft.rfftn`` of real ``x``, ``scipy.fft.fftn`` of complex ``x``,
    bit for bit from ``numpy.fft``'s 1-D passes in SciPy's order: ``x``
    zero-padded at the end to the lengths ``s`` (default: its own) on
    ``axes`` (default: all), the r2c pass along the last axis, then the c2c
    passes along the others in ascending order."""
    axes = list(range(x.ndim) if axes is None else axes)
    if s is not None:
        shape = list(x.shape)
        for a, m in zip(axes, s):
            shape[a] = m
        x, src = np.zeros(shape, dtype=x.dtype), x
        x[tuple(map(slice, src.shape))] = src
    if not np.iscomplexobj(x):
        x, axes = fft.rfft(x, axis=axes[-1]), axes[:-1]
    for a in axes:
        x = fft.fft(x, axis=a)
    return x


def _irfftn(x: np.ndarray, s, axes=None, real: bool = True) -> np.ndarray:
    """``scipy.fft.irfftn`` (``real``) or ``scipy.fft.ifftn`` of ``x`` at the
    lengths ``s`` on ``axes`` (default: all), where ``x`` has those lengths
    (the half ``s[-1] // 2 + 1`` on the last axis for ``real``), bit for bit:
    the unscaled c2c passes in ascending order, then the c2r pass, then one
    multiply by ``1.0 / prod(s)``; a complex result takes the multiply after
    its first pass, where pocketfft applies it.  ``1.0 / prod(s)`` is
    pocketfft's long-double ``1 / prod(s)`` rounded to double for every
    5-smooth product below 10^13."""
    axes = list(range(x.ndim) if axes is None else axes)
    scale = 1.0 / math.prod(s)
    for i, a in enumerate(axes[:-1] if real else axes):
        x = fft.ifft(x, axis=a, norm="forward")
        if i == 0 and not real:
            x.real *= scale
            x.imag *= scale
    if not real:
        return x
    out = fft.irfft(x, s[-1], axis=axes[-1], norm="forward")
    out *= scale
    return out


def _cap(r: tuple[int, int], s: tuple[int, int]) -> tuple[int, int]:
    """The index range where the ranges ``r`` and ``s`` meet, empty at the
    larger start when they do not."""
    return max(r[0], s[0]), max(r[0], s[0], min(r[1], s[1]))


def _wrap_take(arr: np.ndarray, box, at, N: int) -> np.ndarray:
    """The values on the index box ``box`` (per axis a range ``(lo, hi)`` of
    indices, taken mod N), where ``arr`` holds them on the index box ``at``
    (ranges of at most N indices) and they are exact ``+0.0`` elsewhere: the
    one read of an array on a box.  On each axis the read range meets the
    copies of ``at``'s range shifted by multiples of N, each meeting one
    slice pair.  A view of ``arr`` when ``box`` lies inside ``at``;
    otherwise the pieces are copied into one zero array."""
    if all(a <= l and h <= b for (l, h), (a, b) in zip(box, at)):
        return arr[tuple(slice(l - a, h - a) for (l, h), (a, _) in zip(box, at))]
    pairs = []
    for (l, h), (a, b) in zip(box, at):
        # the copies [c, c + b - a), c = a mod N, that end past l and start before h
        copies = range(a + ((l - b) // N + 1) * N, h, N)
        pairs.append([(slice(s - l, e - l), slice(s - c, e - c))
                      for c in copies for s, e in [_cap((l, h), (c, c + b - a))]])
    out = np.zeros(tuple(max(h - l, 0) for l, h in box), dtype=arr.dtype)
    for piece in itertools.product(*pairs):
        dst, src = zip(*piece)
        out[dst] = arr[src]
    return out


def _along(arr: np.ndarray, axis: int, rows: tuple[int, int], at: tuple[int, int],
           N: int) -> np.ndarray:
    """:func:`_wrap_take` on one axis: the range ``rows`` of ``axis``, where
    ``arr`` holds the range ``at``; the other axes are taken whole."""
    whole = [(0, m) for m in arr.shape]
    return _wrap_take(arr, whole[:axis] + [rows] + whole[axis + 1:],
                      whole[:axis] + [at] + whole[axis + 1:], N)


class BandSymbol:
    """An even lattice symbol in fft order, stored as its half (the last
    axis from 0 to N/2) on its band: per axis a range of fft indices, taken
    mod N, holding every line with a nonzero.

    ``values`` is the whole symbol, or its half on the index box ``box``
    of a grid of ``N`` points per axis; one scan for its lines with a
    nonzero cuts it to the band.  The band is a certificate, as a field's
    support box is: the symbol is exact ``+0.0`` off it.  ``block``, the
    half on the band, is read-only (a view of ``values`` where the band
    lies inside ``box``, so the caller must not write into them), and
    ``values``, the read-only whole grid, is built on first use and cached.
    """

    def __init__(self, values, box=None, N: int | None = None):
        values = np.asarray(values, dtype=np.float64)
        N = values.shape[-1] if N is None else N
        if box is None:
            values = values[..., : N // 2 + 1]
            box = [(0, N)] * (values.ndim - 1) + [(0, N // 2 + 1)]
        if values.shape != tuple(h - l for l, h in box):
            raise ValueError(f"symbol shape {values.shape} != box shape of {box}")
        # the scan for the lines with a nonzero: (-m, m + 1) for an even
        # symbol whose nonzeros reach line m, (0, m + 1) on the half axis,
        # and empty for a zero symbol
        nz, band = values != 0, []
        for a, (lo, _) in enumerate(box):
            lines = lo + np.flatnonzero(nz.any(axis=tuple(b for b in range(nz.ndim) if b != a)))
            if a < nz.ndim - 1:
                lines = (lines + N // 2) % N - N // 2
            band.append((int(lines.min(initial=0)), int(lines.max(initial=-1)) + 1))
        self.N, self.band = N, tuple(band)
        self.block = _wrap_take(values, band, box, N)
        self.block.flags.writeable = False

    def take(self, box) -> np.ndarray:
        """The half symbol on the index box ``box`` (fft indices, taken mod
        N), through :func:`_wrap_take`: exact ``+0.0`` off the band."""
        return _wrap_take(self.block, box, self.band, self.N)

    @cached_property
    def values(self) -> np.ndarray:
        """The whole symbol in fft order (read-only), its columns past N/2
        from the half by evenness."""
        N, lead = self.N, tuple(range(self.block.ndim - 1))
        half = self.take([(0, N)] * len(lead) + [(0, N // 2 + 1)])
        mirror = np.roll(np.flip(half, lead), 1, lead)  # leading index i at -i mod N
        out = np.concatenate([half, mirror[..., N // 2 - 1:0:-1]], axis=-1)
        out.flags.writeable = False
        return out


def apply_symbol(f: SampledField, symbol: BandSymbol, read=None) -> np.ndarray:
    """Multiply the spectrum of the field ``f`` by a lattice ``symbol`` and
    return the result on the index box ``read`` (the whole grid by default).
    An index box gives per axis a range ``(lo, hi)`` of centered indices,
    taken mod N, as :meth:`Box.index_ranges` does.  The source rows are those
    of ``f``'s stored block (:attr:`SampledField.block_ranges`), outside which
    it vanishes: the block's rows on every axis but the last, read through
    :func:`_wrap_take`, and the last axis whole in fft order.

    ``symbol`` must be even.  A real result has the bits of
    ``fftshift(irfftn(rfftn(ifftshift(f.values)) * half, s))``, ``half`` the
    columns ``0 .. N/2`` of ``symbol.values`` (an exact zero may differ in
    sign), from the pruned passes of the module docstring; complex values
    take those passes on their real and imaginary parts.
    """
    N = f.spec.N
    # every range from here on in fft indices: centered index j is fft index j - N/2
    at, read = ([(l - N // 2, h - N // 2) for l, h in box or [(0, N)] * f.spec.n]
                for box in (f.block_ranges, read))
    return _pruned_passes(f._block, symbol, at, read, N)


def _pruned_passes(x: np.ndarray, symbol: BandSymbol, src, read, N: int) -> np.ndarray:
    """:func:`apply_symbol` of the values ``x`` on the box ``src``, every
    range in fft indices."""
    if np.iscomplexobj(x):
        return (_pruned_passes(x.real, symbol, src, read, N)
                + 1j * _pruned_passes(x.imag, symbol, src, read, N))
    n, band = x.ndim, symbol.band
    # the r2c pass along the last axis on blocks of about 2^15 samples, each
    # row embedded in N points, keeping the band's columns; a block holds at
    # most N rows, as _along takes every axis mod N
    rows = x.reshape(math.prod(x.shape[:-1]), x.shape[-1])
    out = np.empty((len(rows), band[-1][1] - band[-1][0]), dtype=complex)
    step = max(1, min(N, (1 << 15) // N))
    for i in range(0, len(rows), step):
        spectra = fft.rfft(_along(rows[i:i + step], 1, (0, N), src[-1], N), axis=-1)
        out[i:i + step] = _along(spectra, 1, band[-1], (0, N // 2 + 1), N)
    x = out.reshape(x.shape[:-1] + out.shape[-1:])
    # along each other axis its rows of src embedded in N points for the
    # c2c pass, followed by a keep of the band's lines
    for a in range(n - 1):
        x = fft.fft(_along(x, a, (0, N), src[a], N), axis=a)
        x = _along(x, a, band[a], (0, N), N)
    x *= symbol.block
    # the unscaled c2c passes on the band's lines embedded in N points, each
    # followed by a take of the read rows, the c2r pass and its take, then
    # the scale 1/N^n
    for a in range(n - 1):
        x = fft.ifft(_along(x, a, (0, N), band[a], N), axis=a, norm="forward")
        x = _along(x, a, read[a], (0, N), N)
    out = fft.irfft(_along(x, n - 1, (0, N // 2 + 1), band[-1], N), n=N, axis=-1,
                    norm="forward")
    out = _along(out, n - 1, read[-1], (0, N), N)
    out *= 1.0 / N ** n
    return out


def cube_average(f: SampledField, box: Box, p: float) -> float:
    """``( (1/|R|) int_{R} |f|^p dx )^{1/p}`` by Riemann sum on grid points.

    The full measure ``|R|`` sits in the denominator and the integrand is
    extended by zero outside the sampled domain, so dilated cubes that
    spill over the boundary are handled consistently with compactly
    supported integrands.  ``|f|^p`` is taken only where the box meets f's
    support box, read through :meth:`SampledField.take`, and summed over one
    array of the box's sample points, zero elsewhere: the array, and so the
    bits, of the sum on the whole grid.
    """
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    spec = f.spec
    ranges = box.index_ranges(spec)
    if any(h == l for l, h in ranges):
        raise ValueError("empty intersection: box contains no sample points")
    inner = [_cap(r, a) for r, a in zip(ranges, f.block_ranges)]
    dens = np.zeros(tuple(h - l for l, h in ranges))
    cut = tuple(slice(s - l, e - l) for (s, e), (l, _) in zip(inner, ranges))
    dens[cut] = np.abs(f.take(inner)) ** p
    integral = float(np.sum(dens)) * spec.dx ** spec.n
    return (integral / box.volume) ** (1.0 / p)


def lp_norm(f: SampledField, p: float, w: "SampledField | None" = None) -> float:
    """Weighted L^p norm by Riemann sum; ``p = inf`` gives the grid max of |f|."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    dens = np.abs(f.values) ** p
    if w is not None:
        dens = dens * w.values.real
    return float(np.sum(dens) * f.spec.dx ** f.spec.n) ** (1.0 / p)


def lp_mean(vals: np.ndarray, p: float) -> float:
    """``(mean |vals|^p)^{1/p}`` over the entries of ``vals``."""
    dens = np.abs(vals)
    return float(np.mean(np.power(dens, p, out=dens)) ** (1.0 / p))


def _mollifier_ramp(u):
    """C-infinity ramp: 0 for u <= 0, 1 for u >= 1, built from exp(-1/t)."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    out = a / (a + b)
    return np.where(u <= 0, 0.0, np.where(u >= 1, 1.0, out))


def _central_quarter(spec: GridSpec) -> Box:
    q = spec.L / 8.0
    return Box((-q,) * spec.n, (q,) * spec.n)


def _require_inside_quarter(spec: GridSpec, box: Box, kind: str):
    if not _central_quarter(spec).contains_box(box):
        raise ValueError(
            f"{kind}: requested support {box.lo}..{box.hi} exceeds the central "
            f"quarter [+-{spec.L / 8.0}]^{spec.n} of the domain"
        )


def _bump_window(rho2: np.ndarray) -> np.ndarray:
    """``exp(1 - 1/(1 - rho2))`` inside the unit ball, exactly 0 outside."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(rho2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - rho2, 1e-300)), 0.0)


def _trig_sum(axes, freqs: np.ndarray, phases: np.ndarray,
              amps: np.ndarray) -> np.ndarray:
    """``sum_m amps[m] cos(2 pi x . freqs[m] + phases[m])`` on the outer grid
    of the 1-D coordinate arrays ``axes``: the real part of the sum over modes
    of ``amps[m] e^{i phases[m]}`` times the per-axis tables
    ``exp(2 pi i a_i freqs[m, i])``.  The tables of all axes but the last are
    multiplied out into ``h``; the sum over modes and the real part are then
    one real matrix product of ``[Re h, -Im h]`` with the last table's
    ``[Re, Im]``."""
    tables = [np.exp(2j * np.pi * np.multiply.outer(f, a)) for f, a in zip(freqs.T, axes)]
    head = amps * np.exp(1j * phases)
    for t in tables[:-1]:
        head = head[..., None] * np.expand_dims(t, tuple(range(1, head.ndim)))
    return np.tensordot(np.concatenate([head.real, -head.imag]),
                        np.concatenate([tables[-1].real, tables[-1].imag]), axes=(0, 0))


def on_box(spec: GridSpec, box: Box, local) -> SampledField:
    """Field with support ``box``: ``local(axes)`` on the box's sample points,
    where ``axes`` are their 1-D coordinate arrays (an array of the box's
    shape, stored as the field's block), and exact ``+0.0`` elsewhere."""
    return SampledField(spec, local(box.samples(spec)[1]), support=box)


def make_test_function(spec: GridSpec, kind: str, seed: int | None = None,
                       **params) -> SampledField:
    """Deterministic test-function generator.

    Kinds
    -----
    bump : classic C-infinity bump of radius ``r``, exactly zero outside;
        the ``2r`` support box is recorded on the field.
    random_trig : random trigonometric polynomial times a bump window of
        radius ``window_radius``; params ``num_modes``, ``freq_max``.  Mode
        parameters are drawn from ``seed`` only, so the same seed yields the
        same continuum function on every grid.

    Both kinds are evaluated on the sample points of their support box only
    and hold exact ``+0.0`` everywhere else.
    """
    n = spec.n
    center = np.atleast_1d(np.asarray(params.get("center", 0.0), dtype=float))
    if center.size == 1:
        center = np.full(n, center[0])
    amp = float(params.get("amp", 1.0))

    def radial_sq(axes):
        return sum_of_squares([a - ci for a, ci in zip(axes, center)])

    if kind == "bump":
        radius = float(params.get("radius", spec.L / 32.0))
        box = Box.from_center(center, radius)
        _require_inside_quarter(spec, box, kind)
        return on_box(spec, box, lambda axes: amp * _bump_window(radial_sq(axes) / radius ** 2))

    if kind == "random_trig":
        rng = np.random.default_rng(seed)
        num_modes = int(params.get("num_modes", 8))
        freq_max = float(params.get("freq_max", 2.0))
        window_radius = float(params.get("window_radius", spec.L / 10.0))
        # draw all randomness before touching the grid: grid-independent params
        dirs = rng.standard_normal((num_modes, n))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
        freqs = dirs * (freq_max * rng.random(num_modes
                        )[:, None] ** (1.0 / n))
        phases = rng.uniform(0.0, 2.0 * np.pi, num_modes)
        amps = rng.standard_normal(num_modes) / math.sqrt(num_modes)
        box = Box.from_center(center, window_radius)
        _require_inside_quarter(spec, box, kind)
        return on_box(spec, box, lambda axes: amp * _bump_window(
            radial_sq(axes) / window_radius ** 2) * _trig_sum(axes, freqs, phases, amps))

    raise ValueError(f"unknown test-function kind: {kind!r}")


_ZERO_LINE = "0.0,0.0"  # the line of a +0.0 sample
# the line breaks of ``str.splitlines`` but ``\n`` and those that
# ``read_text``'s newline translation turns into ``\n`` (``\r``, ``\r\n``)
_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def write_field(f: SampledField, path: str | Path):
    """Field file format: header ``field n=<n> N=<N> L=<L>``, then one
    ``re,im`` line per sample in row-major order (UTF-8, LF), each part
    written as its ``repr``.  Only samples other than ``+0.0 + 0.0j`` are
    formatted; the runs of zero lines ``0.0,0.0`` between them are written
    as repeated strings, so the cost is per nonzero line."""
    spec = f.spec
    flat = f.values.reshape(-1)
    nz = np.flatnonzero((flat != 0) | np.signbit(flat.real) | np.signbit(flat.imag))
    zero, done = _ZERO_LINE + "\n", 0
    parts = [f"field n={spec.n} N={spec.N} L={spec.L!r}\n"]
    for i, re, im in zip(nz.tolist(), flat.real[nz].tolist(), flat.imag[nz].tolist()):
        parts.append(zero * (i - done) + f"{re!r},{im!r}\n")
        done = i + 1
    parts.append(zero * (flat.size - done))
    Path(path).write_text("".join(parts), encoding="utf-8", newline="\n")


def read_field(path: str | Path) -> SampledField:
    """Inverse of :func:`write_field`: float64 values when every imaginary
    part is 0, complex128 otherwise.  Raises ``ValueError`` on a malformed
    header (no ``field`` tag, a token without one ``=``, a repeated key, or
    a missing ``n=``/``N=``/``L=``), on a sample count that does not match
    it, and on a sample line that is not two floats split by one comma.
    Lines are split as ``str.splitlines`` splits the text: every break in
    :data:`_BREAKS` is replaced by ``\\n`` after ``read_text``'s newline
    translation, and one vectorised pass over the UTF-8 bytes finds the
    ``\\n`` bytes (no byte of a multi-byte character is below 0x80) and the
    zero lines ``0.0,0.0``, taken as ``+0.0``; only the other lines are
    parsed."""
    text = Path(path).read_text(encoding="utf-8")
    for brk in _BREAKS:
        text = text.replace(brk, "\n")
    # a text that ends in a break has no last line; line i is raw[starts[i]:ends[i]]
    raw = text.removesuffix("\n").encode("utf-8")
    breaks = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    starts, ends = np.concatenate([[0], breaks + 1]), np.append(breaks, len(raw))
    first = raw[:ends[0]].decode("utf-8")
    header = first.split()
    if not header or header[0] != "field":
        raise ValueError(f"not a field file: {path}")
    meta = {}
    for token in header[1:]:
        key, _, value = token.partition("=")
        if token.count("=") != 1 or key in meta:
            raise ValueError(f"field header needs distinct key=value tokens, "
                             f"got {token!r}: {first!r}")
        meta[key] = value
    if not {"n", "N", "L"} <= meta.keys():
        raise ValueError(f"field header needs n=, N= and L=: {first!r}")
    spec = GridSpec(n=int(meta["n"]), L=float(meta["L"]), N=int(meta["N"]))
    count = spec.N ** spec.n
    starts, ends = starts[1:], ends[1:]
    if len(starts) != count:
        raise ValueError(f"{path}: header promises {count} samples, file has "
                         f"{len(starts)} lines")
    # a zero line: 7 bytes long, read through a view of the 7 bytes at each offset
    zero = ends - starts == len(_ZERO_LINE)
    windows = np.ndarray((max(len(raw) - 6, 0),), dtype="S7", buffer=raw, strides=(1,))
    zero[zero] = windows[starts[zero]] == _ZERO_LINE.encode()
    idx = np.flatnonzero(~zero)
    rest = [raw[s:e] for s, e in zip(starts[idx].tolist(), ends[idx].tolist())]
    if list(map(bytes.count, rest, itertools.repeat(b","))).count(1) != len(rest):
        raise ValueError(f"{path}: every sample line must read 're,im'")
    pairs = np.fromiter(map(float, b",".join(rest).decode("utf-8").split(",") if rest else ()),
                        dtype=np.float64, count=2 * len(rest))
    data = np.zeros(count, dtype=np.complex128 if pairs[1::2].any() else np.float64)
    data.real[idx] = pairs[0::2]
    if np.iscomplexobj(data):
        data.imag[idx] = pairs[1::2]
    return SampledField(spec, data.reshape(spec.shape))
