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
work on boxes, reading through :func:`_wrap_take`, which meets the stored
block with the read box and fills the rest with zeros.  The whole grid
(``SampledField.values``) is built on first use, for the whole-grid
operations: norms, weights and field files.

Every transform runs on ``scipy.fft``, called through the module so that
its entry points can be wrapped from outside.  :func:`apply_symbol`
is the one place a Fourier multiplier meets a whole field (``maximal``
reads truncated fields on boxes as band products).  Every symbol here is
even, so real values stay real, and complex values take the passes below on
their real and imaginary parts.  The passes are pocketfft's own separable
passes of the ``rfftn``/``irfftn`` pair on the half symbol: ``rfftn`` is an
r2c pass along the last axis, then c2c passes along axes 0, ..., n-2;
``irfftn`` is the unscaled inverse c2c passes in the same order, then a c2r
pass along the last axis scaled by ``1/N^n``.  The passes are pruned to the
lines that can change the result: the r2c pass runs only on the rows of the
source box, where the values can be nonzero, the c2c passes only on the
lines where the symbol has a nonzero, and the c2r pass only on the rows of
the box that is read, followed by one multiply by ``1/N^n``.  Each axis
but the last takes the source box's rows before its forward pass and the
read box's rows after its inverse pass; the last axis is taken whole in
``ifftshift`` order and cut to the read box after the c2r pass.  One copy
before the r2c pass turns every axis so that the source rows start at
their lowest index in fft order, and one after the c2r pass turns back
the axes that the read box spans, so rows that span an axis need no embed
and no take.  Every symbol carrying ``(1 - |xi|^2)_+^delta`` has a narrow
band (at L = 16, N = 512: 31 of 512 rows and 16 of 257 half-spectrum
columns); a symbol without zeros keeps its full passes.  The pruned
result has the bits of the whole-grid pair: the passes run in the same
order, each 1-D line is the same pocketfft transform, a line left out holds
zeros that add nothing, the takes only move values, and the scale is a
power of two applied once at the end.  The ``dx^n`` factors of the transform convention cancel in a
multiplier and are left out.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np
from scipy import fft

__all__ = [
    "GridSpec",
    "Box",
    "SampledField",
    "SpectralField",
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
    return sum_of_squares([fft.fftfreq(spec.N, d=spec.dx)] * spec.n)

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


def box_sums(prefix: np.ndarray, lo, hi):
    """Sums over the index boxes ``[lo, hi)`` by inclusion-exclusion on a
    :func:`prefix_sum` image; ``lo[i]``/``hi[i]`` are the bounds on axis ``i``,
    scalars for one box or equal-length arrays for many."""
    total = 0
    for bits in itertools.product((0, 1), repeat=prefix.ndim):
        idx = tuple(l if b else h for b, l, h in zip(bits, lo, hi))
        total = total + (-1) ** sum(bits) * prefix[idx]
    return total


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
        of centered indices, taken mod N): the stored block where the two
        boxes meet and exact ``+0.0`` elsewhere, through :func:`_wrap_take`."""
        return _wrap_take(self._block, *zip(*box), self._at, self.spec.N)

    def support_ranges(self) -> list[tuple[int, int]] | None:
        """Index ranges of the support box (the ``src`` of
        :func:`apply_symbol`), or None without one."""
        return None if self.support is None else list(self._at)

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
    vals = fft.fftshift(fft.ifftn(F.coefficients)) / spec.dx ** spec.n
    return SampledField(spec, vals)


def _span(box, N: int, shift: int = 0) -> list[np.ndarray]:
    """Per axis, the indices ``lo + shift, ..., hi - 1 + shift`` mod N of the
    index box ``box``; ``shift = N // 2`` maps centered indices to the
    unshifted ones of the fft ordering."""
    return [np.arange(lo + shift, hi + shift) % N for lo, hi in box]


def _cap(r: tuple[int, int], s: tuple[int, int]) -> tuple[int, int]:
    """The index range where the ranges ``r`` and ``s`` meet, empty at the
    larger start when they do not."""
    return max(r[0], s[0]), max(r[0], s[0], min(r[1], s[1]))


def _meet(at, lo, hi, N: int) -> tuple[tuple, tuple]:
    """Where the index box ``[lo, hi)`` of an N-point grid, indices taken mod
    N, meets the index box ``at`` (ranges inside ``[0, N]``): an index into
    an array on the first box and the matching index into one on ``at``,
    slices on boxes that do not wrap."""
    dst, src = [], []
    for l, h, (a, b) in zip(lo, hi, at):
        if 0 <= l and h <= N:
            s, e = _cap((l, h), (a, b))
            dst.append(slice(s - l, e - l))
            src.append(slice(s - a, e - a))
        else:
            idx = np.arange(l, h) % N
            pos = np.flatnonzero((idx >= a) & (idx < b))
            dst.append(pos)
            src.append(idx[pos] - a)
    if all(isinstance(d, slice) for d in dst):
        return tuple(dst), tuple(src)
    # mixed: index arrays on every axis, as an open mesh
    dst = [np.arange(max(h - l, 0))[d] for d, l, h in zip(dst, lo, hi)]
    src = [np.arange(b - a)[s] for s, (a, b) in zip(src, at)]
    return np.ix_(*dst), np.ix_(*src)


def _wrap_take(arr: np.ndarray, lo: tuple[int, ...], hi: tuple[int, ...], at,
               N: int) -> np.ndarray:
    """The values over the index box ``[lo, hi)`` with periodic wrapping,
    where ``arr`` holds them on the index box ``at`` of an N-point grid and
    they are exact ``+0.0`` outside it: the one read of a block on a box.  A
    view of ``arr`` when the box lies inside ``at``."""
    dst, src = _meet(at, lo, hi, N)
    if all(a <= l and h <= b for l, h, (a, b) in zip(lo, hi, at)):
        return arr[src]
    out = np.zeros(tuple(max(h - l, 0) for l, h in zip(lo, hi)), dtype=arr.dtype)
    out[dst] = arr[src]
    return out


def _band(half: np.ndarray) -> list[np.ndarray]:
    """Per axis, the indices of the lines of ``half`` that hold a nonzero."""
    nz = half != 0
    axes = range(nz.ndim)
    return [np.flatnonzero(nz.any(axis=tuple(b for b in axes if b != a))) for a in axes]


def _take(arr: np.ndarray, idx: np.ndarray, axis: int) -> np.ndarray:
    """``arr`` at the indices ``idx`` of ``axis``, one slice per run of
    consecutive indices; a view when there is one run."""
    pre = (slice(None),) * axis
    runs = np.split(idx, np.flatnonzero(np.diff(idx) != 1) + 1)
    parts = [arr[pre + (slice(r[0], r[-1] + 1),)] for r in runs if len(r)]
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=axis) if parts else np.take(arr, idx, axis=axis)


def _put(part: np.ndarray, idx: np.ndarray, axis: int, length: int) -> np.ndarray:
    """Complex array with ``length`` points on ``axis`` that holds ``part`` at
    the indices ``idx`` of that axis and zeros elsewhere."""
    if np.array_equal(idx, np.arange(length)):
        return np.asarray(part, dtype=np.complex128)
    shape = list(part.shape)
    shape[axis] = length
    out = np.zeros(shape, dtype=np.complex128)
    out[(slice(None),) * axis + (idx,)] = part
    return out


def apply_symbol(values, symbol: np.ndarray, src=None, read=None) -> np.ndarray:
    """Multiply the spectrum of centered grid ``values`` (an array, or a
    :class:`SampledField` read through :meth:`SampledField.take`) by a
    lattice ``symbol`` in fft ordering and return the result on the index
    box ``read`` (the whole grid by default).  ``src`` is an index box
    outside which ``values`` vanish (the whole grid by default).  An index
    box gives per axis a range ``(lo, hi)`` of centered indices, taken mod
    N, as :meth:`Box.index_ranges` does.

    ``symbol`` must be even.  A real result has the bits of
    ``fftshift(irfftn(rfftn(ifftshift(values)) * half, s))`` (an exact zero
    may differ in sign), from the pruned passes of the module docstring;
    complex values take those passes on their real and imaginary parts.
    """
    # the rows of src, the last axis whole
    if isinstance(values, SampledField):
        N = values.spec.N
        src = [(0, N)] * values.spec.n if src is None else src
        return _pruned_passes(values.take([*src[:-1], (0, N)]), symbol, src, read)
    N = values.shape[0]
    src = [(0, N)] * values.ndim if src is None else src
    for a, rows in enumerate(_span(src[:-1], N)):
        values = _take(values, rows, a)
    return _pruned_passes(values, symbol, src, read)


def _pruned_passes(x: np.ndarray, symbol: np.ndarray, src, read) -> np.ndarray:
    """:func:`apply_symbol` of the values ``x`` on the rows of ``src``, the
    last axis whole."""
    if np.iscomplexobj(x):
        return (_pruned_passes(x.real, symbol, src, read)
                + 1j * _pruned_passes(x.imag, symbol, src, read))
    N, n = x.shape[-1], x.ndim
    half = symbol[..., : N // 2 + 1]
    band = _band(half)
    # each axis is turned so that its rows of src start at their lowest
    # index in fft order, and each axis that read spans so that its rows do:
    # such an axis runs 0..N-1 and needs no embed and no take
    src_rows = _span(src[:-1], N, N // 2)
    turn = [-int(np.argmin(rows)) if len(rows) else 0 for rows in src_rows]
    # r2c along the last axis in ifftshift order, turned with the other axes
    # in one copy; those hold src's rows, embedded before their pass
    x = np.roll(x, (*turn, -(N // 2)), axis=tuple(range(n)))
    x = _take(fft.rfft(x, axis=-1), band[-1], n - 1)
    for a, rows in enumerate(src_rows):
        x = _take(fft.fft(_put(x, np.roll(rows, turn[a]), a, N), axis=a, overwrite_x=True),
                  band[a], a)
    for a in range(n):
        half = _take(half, band[a], a)
    x *= half
    # the unscaled c2c passes on the band's lines, each followed by a take
    # of the turned read rows, the c2r pass and its take, one copy that
    # turns back the axes read spans, then the scale 1/N^n
    rows = _span([(0, N)] * n if read is None else read, N, N // 2)
    turn = [int(np.argmin(r)) if len(r) == N else 0 for r in rows]
    for a in range(n - 1):
        x = fft.ifft(_put(x, band[a], a, N), axis=a, norm="forward", overwrite_x=True)
        x = _take(x, np.roll(rows[a], -turn[a]), a)
    out = fft.irfft(_put(x, band[-1], n - 1, N // 2 + 1), n=N, axis=-1, norm="forward")
    out = _take(out, np.roll(rows[-1], -turn[-1]), n - 1)
    if any(turn):
        out = np.roll(out, turn, axis=tuple(range(n)))
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
    # a field without a support box is stored whole and covers the box
    inner = [_cap(r, a) for r, a in zip(ranges, f.support_ranges() or ranges)]
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
    return float(np.mean(np.abs(vals) ** p) ** (1.0 / p))


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


def _trig_sum(coords, freqs: np.ndarray, phases: np.ndarray,
              amps: np.ndarray) -> np.ndarray:
    """``sum_m amps[m] cos(2 pi x . freqs[m] + phases[m])`` at the points whose
    ``i``-th coordinates are ``coords[i]``; the arrays broadcast together, as a
    sparse meshgrid or as gathered points do."""
    shape = np.broadcast_shapes(*(c.shape for c in coords))
    vals, phase = np.zeros(shape), np.empty(shape)
    for m in range(len(amps)):
        np.multiply(coords[0], freqs[m, 0], out=phase)
        for i in range(1, len(coords)):
            phase += coords[i] * freqs[m, i]
        phase *= 2.0 * np.pi
        phase += phases[m]
        np.cos(phase, out=phase)
        phase *= amps[m]
        vals += phase
    return vals


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
            radial_sq(axes) / window_radius ** 2) * _trig_sum(
            np.meshgrid(*axes, indexing="ij", sparse=True), freqs, phases, amps))

    raise ValueError(f"unknown test-function kind: {kind!r}")


def write_field(f: SampledField, path: str | Path):
    """Field file format: header ``field n=<n> N=<N> L=<L>``, then one
    ``re,im`` line per sample in row-major order (UTF-8, LF)."""
    spec = f.spec
    flat = f.values.reshape(-1)
    lines = [f"field n={spec.n} N={spec.N} L={spec.L!r}"]
    lines.extend(f"{re!r},{im!r}" for re, im in zip(flat.real.tolist(), flat.imag.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_field(path: str | Path) -> SampledField:
    """Inverse of :func:`write_field`: float64 values when every imaginary
    part is 0, complex128 otherwise.  Raises ``ValueError`` on a malformed
    header (no ``field`` tag, a token without one ``=``, a repeated key, or
    a missing ``n=``/``N=``/``L=``), on a sample count that does not match
    it, and on a sample line that is not two floats split by one comma."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split() if lines else []
    if not header or header[0] != "field":
        raise ValueError(f"not a field file: {path}")
    meta = {}
    for token in header[1:]:
        key, _, value = token.partition("=")
        if token.count("=") != 1 or key in meta:
            raise ValueError(f"field header needs distinct key=value tokens, "
                             f"got {token!r}: {lines[0]!r}")
        meta[key] = value
    if not {"n", "N", "L"} <= meta.keys():
        raise ValueError(f"field header needs n=, N= and L=: {lines[0]!r}")
    spec = GridSpec(n=int(meta["n"]), L=float(meta["L"]), N=int(meta["N"]))
    count = spec.N ** spec.n
    body = lines[1:]
    if len(body) != count:
        raise ValueError(f"{path}: header promises {count} samples, file has "
                         f"{len(body)} lines")
    if list(map(str.count, body, itertools.repeat(","))).count(1) != count:
        raise ValueError(f"{path}: every sample line must read 're,im'")
    pairs = np.fromiter(map(float, ",".join(body).split(",")), dtype=np.float64,
                        count=2 * count)
    re, im = pairs[0::2], pairs[1::2]
    if im.any():
        data = np.empty(count, dtype=np.complex128)
        data.real, data.imag = re, im
    else:
        data = re.copy()
    return SampledField(spec, data.reshape(spec.shape))
