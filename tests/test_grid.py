"""Grid module: transform contract, averages, norms, generators, file format."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft

from brlab import grid
from brlab.grid import (
    BandSymbol,
    Box,
    GridSpec,
    SampledField,
    SpectralField,
    _bump_window,
    _trig_sum,
    apply_symbol,
    cube_average,
    doubling_table,
    freq_sq,
    inverse_transform,
    lp_mean,
    lp_norm,
    make_test_function,
    on_box,
    read_field,
    sum_of_squares,
    write_field,
)
from brlab.maximal import ball_average, ball_points
from brlab.multiplier import bochner_riesz_symbol, k_min, sk_symbol, truncated_symbol

SPEC = GridSpec(n=2, L=16.0, N=128)


def forward_transform(f: SampledField) -> SpectralField:
    """Discrete Fourier transform under the convention of the grid module's
    docstring: the reference for ``inverse_transform`` and ``apply_symbol``."""
    spec = f.spec
    coeffs = fft.fftn(fft.ifftshift(f.values)) * spec.dx ** spec.n
    return SpectralField(spec, coeffs)


def cosine_sum(coords, freqs, phases, amps):
    """``sum_m amps[m] cos(2 pi x . freqs[m] + phases[m])`` at the points whose
    ``i``-th coordinates are ``coords[i]``, one cosine per point and mode: the
    reference formula for ``_trig_sum``'s product of per-axis tables."""
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


# the largest |_trig_sum - cosine_sum| the tests accept.  Both round the
# phase 2 pi x . f, which reaches about 150 rad on prop41's annuli at L = 32,
# so they differ by a few ulps of it per mode: at most 5.9e-14 there (values
# up to 6.3) and 4.0e-14 in the direct test below
TRIG_ATOL = 1e-13


def random_field(spec, seed=0, complex_=True):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.shape)
    if complex_:
        vals = vals + 1j * rng.standard_normal(spec.shape)
    return SampledField(spec, vals)


class TestGridSpec:
    def test_basic_properties(self):
        assert SPEC.dx == 16.0 / 128
        assert SPEC.nyquist == 4.0
        assert SPEC.shape == (128, 128)
        x = SPEC.axis_coords()
        assert x[0] == -8.0
        assert x[SPEC.N // 2] == 0.0

    @pytest.mark.parametrize("bad", [dict(N=100), dict(N=4), dict(L=-1.0),
                                     dict(N=64)])
    def test_invalid_specs_rejected(self, bad):
        kwargs = dict(n=2, L=16.0, N=128)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf])
    def test_non_finite_side_rejected(self, L):
        # every comparison with NaN is False, so L > 0 alone let NaN through
        with pytest.raises(ValueError, match="finite"):
            GridSpec(n=2, L=L, N=128)

    def test_nyquist_must_exceed_two(self):
        # N=64, L=16 sits exactly at Nyquist 2: the unit ball is unresolved
        with pytest.raises(ValueError, match="Nyquist"):
            GridSpec(n=2, L=16.0, N=64)


class TestTransform:
    def test_plane_wave_single_coefficient(self):
        mesh = SPEC.meshgrid()
        xi0 = (0.5, 0.25)  # grid-aligned: 8/L and 4/L
        pw = SampledField(SPEC, np.exp(2j * np.pi * (mesh[0] * xi0[0] + mesh[1] * xi0[1])))
        F = forward_transform(pw)
        mags = np.abs(F.coefficients)
        peak = np.unravel_index(np.argmax(mags), mags.shape)
        freqs = np.fft.fftfreq(SPEC.N, d=SPEC.dx)
        assert (freqs[peak[0]], freqs[peak[1]]) == xi0
        assert F.coefficients[peak] == pytest.approx(SPEC.L ** 2, rel=1e-12)
        rest = np.sort(mags.ravel())[-2]
        assert rest < 1e-10 * SPEC.L ** 2

    def test_constant_field_is_dc(self):
        F = forward_transform(SampledField(SPEC, np.ones(SPEC.shape)))
        mags = np.abs(F.coefficients)
        assert np.argmax(mags.ravel()) == 0
        assert np.sort(mags.ravel())[-2] < 1e-10 * mags.max()

    def test_roundtrip(self):
        f = random_field(SPEC, seed=2)
        back = inverse_transform(forward_transform(f))
        err = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
        assert err < 1e-12

    def test_parseval_over_random_fields(self):
        spec = GridSpec(n=2, L=8.0, N=64)
        for seed in range(100):
            f = random_field(spec, seed=seed)
            F = forward_transform(f)
            phys = np.sum(np.abs(f.values) ** 2) * spec.dx ** 2
            spect = np.sum(np.abs(F.coefficients) ** 2) / spec.L ** 2
            assert abs(phys - spect) <= 1e-10 * phys

    def test_translation_leaves_norms_unchanged(self):
        f = random_field(SPEC, seed=5)
        shifted = SampledField(SPEC, np.roll(f.values, (7, -3), axis=(0, 1)))
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(shifted, p) == pytest.approx(lp_norm(f, p), rel=1e-13)

    def test_three_dimensional_roundtrip(self):
        spec = GridSpec(n=3, L=2.0, N=16)
        f = random_field(spec, seed=1)
        back = inverse_transform(forward_transform(f))
        assert np.linalg.norm(back.values - f.values) < 1e-12 * np.linalg.norm(f.values)


def _same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bytes: signed zeros count."""
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8))


class TestSciPyBitsOfTheNumpyBackend:
    # grid._rfftn/_irfftn run numpy.fft's 1-D pocketfft passes in SciPy's
    # order with SciPy's one scale: every bit of scipy.fft's n-D transforms,
    # on odd shapes, stacked leading axes and zero-padded lengths
    CASES = [((7,), None), ((8,), None), ((23, 30), None), ((9, 10), (0, 1)),
             ((9, 10, 11), None), ((16, 16, 16), None), ((4, 9, 10), (1, 2)),
             ((3, 9, 10, 11), (1, 2, 3)), ((5, 6, 7), (2,))]

    @staticmethod
    def draw(shape, axes, pad, real):
        rng = np.random.default_rng(len(shape) + pad)
        x = rng.standard_normal(shape)
        if not real:
            x = x + 1j * rng.standard_normal(shape)
        s = [grid._next_fast_len(shape[a] + pad, real)
             for a in (range(len(shape)) if axes is None else axes)]
        return rng, x, s

    @pytest.mark.parametrize("pad", [0, 5], ids=["fast", "padded"])
    @pytest.mark.parametrize("shape, axes", CASES, ids=str)
    def test_rfftn_irfftn_match_scipy(self, shape, axes, pad):
        rng, x, s = self.draw(shape, axes, pad, True)
        if axes is None:
            assert _same_bits(grid._rfftn(x), fft.rfftn(x))
        spec = grid._rfftn(x, s, axes)
        assert _same_bits(spec, fft.rfftn(x, s, axes))
        y = spec * rng.standard_normal(spec.shape)
        assert _same_bits(grid._irfftn(y, s, axes), fft.irfftn(y, s, axes))

    @pytest.mark.parametrize("pad", [0, 5], ids=["fast", "padded"])
    @pytest.mark.parametrize("shape, axes", CASES, ids=str)
    def test_complex_pair_matches_scipy_fftn_ifftn(self, shape, axes, pad):
        rng, x, s = self.draw(shape, axes, pad, False)
        spec = grid._rfftn(x, s, axes)
        assert _same_bits(spec, fft.fftn(x, s, axes))
        y = spec * rng.standard_normal(spec.shape)
        assert _same_bits(grid._irfftn(y, s, axes, real=False), fft.ifftn(y, s, axes))

    def test_next_fast_len_matches_scipy(self):
        for real in (True, False):
            assert ([grid._next_fast_len(n, real) for n in range(1, 4097)]
                    == [fft.next_fast_len(n, real) for n in range(1, 4097)]), real

    def test_scale_is_pocketfft_long_double_reciprocal(self):
        # pocketfft scales by its long-double 1/N rounded to double; 1.0 / N
        # is that double for every 5-smooth N below 10^13
        smooth = [2 ** i * 3 ** j * 5 ** k for i in range(44) for j in range(28)
                  for k in range(19) if 2 ** i * 3 ** j * 5 ** k < 10 ** 13]
        assert len(smooth) > 4000
        assert all(float(np.longdouble(1) / n) == 1.0 / n for n in smooth)


def indicator_of(spec, box):
    vals = np.zeros(spec.shape)
    sl = tuple(slice(j0, j1) for j0, j1 in box.index_ranges(spec))
    vals[sl] = 1.0
    return SampledField(spec, vals)


class TestApplySymbol:
    SYM = BandSymbol(np.exp(-freq_sq(SPEC)))  # even, like every symbol in the package

    def test_complex_path_follows_transform_convention(self):
        f = random_field(SPEC, seed=5)
        out = apply_symbol(f, self.SYM)
        F = forward_transform(f)
        ref = inverse_transform(SpectralField(SPEC, F.coefficients * self.SYM.values)).values
        assert out.dtype == np.complex128
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_real_input_stays_real(self):
        f = random_field(SPEC, seed=6, complex_=False)
        out = apply_symbol(f, self.SYM)
        ref = apply_symbol(SampledField(SPEC, f.values.astype(np.complex128)), self.SYM)
        assert out.dtype == np.float64
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_peak_memory_on_a_read_box(self):
        # an S_k read on a 129^2 box of a field stored on the whole 512^2
        # grid holds no grid of the source's rows: the r2c pass runs on
        # blocks of rows and keeps the band's columns (4.01 MB when the
        # pass ran on one fft-order copy of every row, 2 MB each grid)
        import tracemalloc

        spec = GridSpec(n=2, L=16.0, N=512)
        f = SampledField(spec, np.random.default_rng(0).standard_normal(spec.shape))
        read = [(spec.N // 2 - 64, spec.N // 2 + 65)] * 2
        tracemalloc.start()
        try:
            out = apply_symbol(f, sk_symbol(spec, -1, 0.2), read)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (129, 129)
        assert peak <= 2.5 * 2 ** 20, peak


def whole_grid(values, symbol):
    """The whole-grid real transform pair that ``apply_symbol`` prunes."""
    x = fft.ifftshift(values)
    half = symbol.values[..., : x.shape[-1] // 2 + 1]
    return fft.fftshift(fft.irfftn(fft.rfftn(x) * half, s=x.shape))


def package_symbols(spec):
    """The symbols brlab applies: Bochner-Riesz, truncations, every S_k and
    the weights' Gaussian smoothing symbol (nonzero everywhere)."""
    syms = {"bochner_riesz": bochner_riesz_symbol(spec, 0.3),
            "truncated_1.25": truncated_symbol(spec, 0.3, 1.25),
            "truncated_8": truncated_symbol(spec, 0.3, 8.0),
            "gaussian": BandSymbol(np.exp(-freq_sq(spec) * (spec.L * 8 / spec.N) ** 2 / 2.0))}
    for k in range(k_min(spec), 1):
        syms[f"S_{k}"] = sk_symbol(spec, k, 0.2)
    return {name: sym for name, sym in syms.items() if sym.block.any()}


def field_on(spec, values, ranges):
    """The field whose support box has the index ranges ``ranges`` (inside
    [0, N]) and whose values are ``values``, given on that box or on the
    whole grid."""
    N, dx = spec.N, spec.dx
    box = Box(tuple((lo - N // 2) * dx for lo, _ in ranges),
              tuple((hi - N // 2) * dx for _, hi in ranges))
    assert box.index_ranges(spec) == list(ranges)
    return SampledField(spec, values, support=box)


class TestApplySymbolBitwise:
    # The pruned passes of apply_symbol give the bits of the whole-grid
    # rfftn/irfftn pair, signs included, for every symbol of the package.
    SPECS = [GridSpec(1, 1.9, 8), GridSpec(1, 8.0, 64), GridSpec(1, 16.0, 512),
             GridSpec(1, 64.0, 1024), GridSpec(2, 1.9, 8), GridSpec(2, 8.0, 64),
             GridSpec(2, 16.0, 512), GridSpec(2, 64.0, 1024), GridSpec(3, 1.9, 8),
             GridSpec(3, 8.0, 64)]

    @staticmethod
    def boxes(N, n):
        """(src, read) index boxes, src the field's block: both at the
        center, then both touching the grid edge (src at the low end of even
        axes and the high end of odd ones, read the other way round)."""
        w, v = max(N // 8, 1), max(N // 16, 1)
        center = ([(N // 2 - w, N // 2 + w)] * n, [(N // 2 - v, N // 2 + v + 1)] * n)
        low, high = (0, N // 4), (N - N // 4, N)
        edge = ([low if a % 2 == 0 else high for a in range(n)],
                [(N - v, N) if a % 2 == 0 else (0, v) for a in range(n)])
        return [center, edge]

    @staticmethod
    def assert_same_bits(got, want):
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"n{s.n}-N{s.N}")
    def test_matches_whole_grid_pair(self, spec):
        # real values u, and complex values u + iv whose real and imaginary
        # parts must have the bits of the pair on u and on v
        rng = np.random.default_rng(spec.N + spec.n)
        rng_im = np.random.default_rng((spec.N, spec.n))
        N, n = spec.N, spec.n
        for src, read in self.boxes(N, n):
            vals, imag = np.zeros(spec.shape), np.zeros(spec.shape)
            sl = tuple(slice(lo, hi) for lo, hi in src)
            vals[sl] = rng.standard_normal(vals[sl].shape)
            imag[sl] = rng_im.standard_normal(imag[sl].shape)
            crop = tuple(slice(lo, hi) for lo, hi in read)
            whole, boxed = SampledField(spec, vals), field_on(spec, vals, src)
            cwhole, cboxed = (SampledField(spec, vals + 1j * imag),
                              field_on(spec, vals + 1j * imag, src))
            for name, sym in package_symbols(spec).items():
                ref, ref_im = whole_grid(vals, sym), whole_grid(imag, sym)
                self.assert_same_bits(apply_symbol(whole, sym), ref)
                self.assert_same_bits(apply_symbol(boxed, sym, read), ref[crop])
                for got, box in ((apply_symbol(cwhole, sym), ...),
                                 (apply_symbol(cboxed, sym, read), crop)):
                    assert got.dtype == np.complex128
                    self.assert_same_bits(got.real, ref[box])
                    self.assert_same_bits(got.imag, ref_im[box])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"n{s.n}-N{s.N}")
    def test_zero_symbol_gives_zeros(self, spec):
        # no line holds a nonzero: zeros of the read box's shape, compared by
        # value since the sign of a zero is free
        vals = np.random.default_rng(spec.N).standard_normal(spec.shape)
        zero = BandSymbol(np.zeros(spec.shape))
        for src, read in self.boxes(spec.N, spec.n) + [(None, None)]:
            shape = spec.shape if read is None else tuple(h - l for l, h in read)
            for v in (vals, vals - 2j * vals):
                f = (SampledField(spec, v) if src is None else
                     field_on(spec, v[tuple(slice(lo, hi) for lo, hi in src)], src))
                got = apply_symbol(f, zero, read)
                assert got.shape == shape and np.array_equal(got, np.zeros(shape))

    def test_boxes_wrap_mod_n(self):
        # a read box past the grid edge reads the wrapped points, for real
        # and for complex values
        spec = GridSpec(2, 8.0, 64)
        f = random_field(spec, seed=3)
        sym = bochner_riesz_symbol(spec, 0.3)
        read = [(-5, 7), (60, 70)]
        idx = np.ix_(np.arange(-5, 7) % 64, np.arange(60, 70) % 64)
        assert np.array_equal(apply_symbol(SampledField(spec, f.values.real), sym, read),
                              whole_grid(f.values.real, sym)[idx])
        assert np.array_equal(apply_symbol(f, sym, read), apply_symbol(f, sym)[idx])


class TestBandSymbol:
    # A symbol evaluated on its band keeps the band of one scan of its whole
    # grid, and the bits of that grid's half there; its whole-grid view is
    # exact +0.0 off the band
    SPECS = [GridSpec(1, 8.0, 64), GridSpec(2, 8.0, 64), GridSpec(2, 16.0, 1024),
             GridSpec(2, 10.3, 128), GridSpec(3, 6.5, 64)]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"n{s.n}-N{s.N}-L{s.L}")
    def test_band_is_the_scan_of_the_whole_grid(self, spec):
        N, n = spec.N, spec.n
        for name, sym in package_symbols(spec).items():
            whole = sym.values
            scanned = BandSymbol(whole)
            assert scanned.band == sym.band, name
            assert np.array_equal(scanned.block.view(np.uint64), sym.block.view(np.uint64))
            assert not (sym.block.flags.writeable or whole.flags.writeable)
            # every line off the band is +0.0, and the band is tight
            off = np.ones(whole.shape, dtype=bool)
            on = [np.arange(lo, hi) % N for lo, hi in sym.band[:-1]]
            on.append(np.r_[np.arange(*sym.band[-1]), N - np.arange(1, sym.band[-1][1])])
            off[np.ix_(*on)] = False
            assert not np.any(whole.view(np.uint64)[off]), name
            for a, (lo, hi) in enumerate(sym.band):
                edge = np.take(whole, [(hi - 1) % N], axis=a)
                assert np.any(edge) and (a == n - 1 or np.any(np.take(whole, [lo % N], axis=a)))

    def test_shape_must_match_the_box(self):
        with pytest.raises(ValueError, match="box shape"):
            BandSymbol(np.ones((3, 2)), [(-1, 2), (0, 3)], 16)


class TestCubeAverage:
    def test_constant_on_box(self):
        box = Box((-1.0, -1.0), (1.0, 1.0))
        f = SampledField(SPEC, np.full(SPEC.shape, 3.0 - 4.0j))
        for p in (1.0, 1.2, 2.0):
            assert cube_average(f, box, p) == pytest.approx(5.0, rel=1e-12)

    def test_indicator_sixfold_dilate(self):
        box = Box((-1.0, -1.0), (1.0, 1.0))
        f = indicator_of(SPEC, box)
        # |Q0| / |6 Q0| = 6^-n, full measure in the denominator
        assert cube_average(f, box.dilate(6.0), 1.0) == pytest.approx(6.0 ** -2, rel=1e-12)
        assert cube_average(f, box, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_spill_outside_domain_extends_by_zero(self):
        box = Box((-1.0, -1.0), (1.0, 1.0))
        f = indicator_of(SPEC, box)
        huge = box.dilate(12.0)  # 24-wide: spills beyond L = 16
        expected = 2.0 ** 2 / 24.0 ** 2
        assert cube_average(f, huge, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_empty_intersection_errors(self):
        f = random_field(SPEC)
        outside = Box((20.0, 20.0), (21.0, 21.0))
        with pytest.raises(ValueError, match="empty intersection"):
            cube_average(f, outside, 1.0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_exponent(self, seed):
        spec = GridSpec(n=2, L=8.0, N=64)
        f = random_field(spec, seed=seed, complex_=False)
        box = Box((-2.0, -2.0), (2.0, 2.0))
        avgs = [cube_average(f, box, p) for p in (1.0, 1.5, 2.0, 3.0)]
        for lo, hi in zip(avgs, avgs[1:]):
            assert lo <= hi * (1 + 1e-12)


class TestDoublingTable:
    # Running min and max against a direct reduction over every window:
    # level k is the window of width 2^k, and a width w that is not a power
    # of two is op of the level-floor(log2 w) windows at the corners of its
    # window, on every axis the table runs on.
    @pytest.mark.parametrize("axes", ["all", "last"])
    @pytest.mark.parametrize("op", [np.minimum, np.maximum], ids=["min", "max"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_windows_match_brute_force(self, n, op, axes):
        base = np.random.default_rng(n).standard_normal((19, 13, 11)[:n])
        run = tuple(range(n)) if axes == "all" else (n - 1,)
        levels = list(doubling_table(base, op, 4, None if axes == "all" else run))
        assert len(levels) == 4 and levels[0] is base
        for w in range(1, 10):
            k = w.bit_length() - 1
            if k >= len(levels):
                continue
            shape = [m - w + 1 if a in run else m for a, m in enumerate(base.shape)]
            got = None
            for corner in itertools.product((0, w - (1 << k)), repeat=len(run)):
                start = dict(zip(run, corner))
                part = levels[k][tuple(slice(start.get(a, 0), start.get(a, 0) + m)
                                       for a, m in enumerate(shape))]
                got = part if got is None else op(got, part)
            windows = sliding_window_view(base, (w,) * len(run), axis=run)
            want = op.reduce(windows.reshape(tuple(shape) + (-1,)), axis=-1)
            assert np.array_equal(got, want), w
            if w == 1 << k:
                assert levels[k].shape == tuple(shape)


class TestLpNorm:
    def test_constant(self):
        f = SampledField(SPEC, np.ones(SPEC.shape))
        assert lp_norm(f, 2.0) == pytest.approx(SPEC.L, rel=1e-12)  # L^{n/2}, n = 2

    def test_plane_wave_matches_constant(self):
        mesh = SPEC.meshgrid()
        pw = SampledField(SPEC, np.exp(2j * np.pi * mesh[0] * 0.5))
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(pw, p) == pytest.approx(
                lp_norm(SampledField(SPEC, np.ones(SPEC.shape)), p), rel=1e-12)

    def test_gaussian_analytic(self):
        spec = GridSpec(n=2, L=16.0, N=512)
        width = 0.5
        f = SampledField(spec, np.exp(-np.pi * sum_of_squares([spec.axis_coords()] * 2)
                                      / width ** 2))
        # ||exp(-pi |x|^2 / s^2)||_2 = s^{n/2} 2^{-n/4}
        assert lp_norm(f, 2.0) == pytest.approx(width * 2.0 ** -0.5, rel=1e-6)

    def test_weighted_and_infinity(self):
        f = random_field(SPEC, seed=9)
        w = SampledField(SPEC, np.full(SPEC.shape, 2.0))
        assert lp_norm(f, 2.0, w) == pytest.approx(math.sqrt(2.0) * lp_norm(f, 2.0), rel=1e-12)
        assert lp_norm(f, math.inf) == np.abs(f.values).max()

    @pytest.mark.parametrize("complex_", [False, True])
    def test_lp_mean_bits_and_input_kept(self, complex_):
        vals = random_field(SPEC, seed=3, complex_=complex_).values.copy()
        before = vals.copy()
        for p in (1.2, 1.6, 2.0, 3.0):
            assert lp_mean(vals, p) == float(np.mean(np.abs(before) ** p) ** (1.0 / p))
        assert np.array_equal(vals, before)


class TestMakeTestFunction:
    def test_bump_vanishes_outside_box(self):
        f = make_test_function(SPEC, "bump", radius=1.0)
        mesh = SPEC.meshgrid()
        outside = np.abs(f.values[np.maximum(np.abs(mesh[0]), np.abs(mesh[1])) >= 1.0])
        assert outside.max() == 0.0
        assert f.support is not None
        assert f.support.lo == (-1.0, -1.0) and f.support.hi == (1.0, 1.0)

    def test_random_trig_deterministic(self):
        a = make_test_function(SPEC, "random_trig", seed=42, window_radius=1.5)
        b = make_test_function(SPEC, "random_trig", seed=42, window_radius=1.5)
        assert np.array_equal(a.values, b.values)
        assert a.support is not None

    def test_random_trig_grid_independent_params(self):
        fine = GridSpec(n=2, L=16.0, N=256)
        a = make_test_function(SPEC, "random_trig", seed=3, window_radius=1.0)
        b = make_test_function(fine, "random_trig", seed=3, window_radius=1.0)
        # coarse samples are a subset of the fine ones
        assert np.allclose(a.values, b.values[::2, ::2], atol=1e-12)

    @pytest.mark.parametrize("n, side", [(1, 501), (2, 230), (3, 41), (4, 9)])
    def test_trig_sum_matches_cosine_formula(self, n, side):
        rng = np.random.default_rng(n)
        freqs = rng.uniform(-2.0, 2.0, (6, n))
        phases = rng.uniform(0.0, 2.0 * np.pi, 6)
        amps = rng.standard_normal(6)
        axes = [np.linspace(-4.0, 4.0, side) + 0.1 * i for i in range(n)]
        got = _trig_sum(axes, freqs, phases, amps)
        want = cosine_sum(np.meshgrid(*axes, indexing="ij", sparse=True), freqs, phases, amps)
        assert got.shape == want.shape == (side,) * n
        assert np.max(np.abs(got - want)) <= TRIG_ATOL

    def test_support_exceeding_quarter_rejected(self):
        with pytest.raises(ValueError, match="central"):
            make_test_function(SPEC, "bump", radius=3.0)


def _full_grid_field(spec, kind, center, amp, radius=None, window_radius=None,
                     seed=None, **_):
    """The generators' formulas evaluated on every grid point, the trigonometric
    sum as one cosine per point and mode."""
    axes = [spec.axis_coords()] * spec.n
    rho2 = sum_of_squares([a - c for a, c in zip(axes, center)])
    if kind == "bump":
        return amp * _bump_window(rho2 / radius ** 2)
    # random_trig with num_modes=6, freq_max=2: the generator's draws, in order
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((6, spec.n))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    freqs = dirs * (2.0 * rng.random(6)[:, None] ** (1.0 / spec.n))
    phases = rng.uniform(0.0, 2.0 * np.pi, 6)
    amps = rng.standard_normal(6) / math.sqrt(6)
    return (amp * _bump_window(rho2 / window_radius ** 2)
            * cosine_sum(spec.meshgrid(), freqs, phases, amps))


class TestBoxLocalGenerators:
    # bump and random_trig evaluate on their support box only; inside it the
    # bump must agree bitwise with the whole-grid formula, and random_trig's
    # product of per-axis tables with the cosine formula to TRIG_ATOL
    @pytest.mark.parametrize("kind", ["bump", "random_trig"])
    @pytest.mark.parametrize("spec,center", [
        (SPEC, (0.3, -0.45)),
        (SPEC, (1.25, -1.25)),  # the support box touches the central quarter's edge
        (GridSpec(n=3, L=4.0, N=32), (0.1, 0.0, -0.2)),
    ])
    def test_matches_full_grid_formula(self, kind, spec, center):
        r = spec.L / 8.0 - max(abs(c) for c in center)
        amp = -2.5
        if kind == "bump":
            params = dict(radius=r)
        else:
            params = dict(window_radius=r, seed=17, num_modes=6, freq_max=2.0)
        f = make_test_function(spec, kind, center=center, amp=amp, **params)
        want = _full_grid_field(spec, kind, center, amp, **params)
        if kind == "bump":
            assert np.array_equal(f.values, want)
        else:
            assert np.max(np.abs(f.values - want)) <= TRIG_ATOL
        # outside the support box the zeros are exact and positive
        outside = np.ones(spec.shape, dtype=bool)
        outside[tuple(slice(*jr) for jr in f.support.index_ranges(spec))] = False
        assert not np.any(f.values[outside]) and not np.any(np.signbit(f.values[outside]))


# the lines of a 1-D file of 8 samples, with -0.0 and zero lines among them
PARITY_LINES = ["field n=1 N=8 L=1.0", "0.0,0.0", "0.5,0.25", "0.0,0.0", "-1.5,0.0",
                "0.0,0.0", "0.0,0.0", "2.0,-0.0", "0.0,0.0"]


def _parity_texts():
    """Field files that the line split must read as ``str.splitlines`` does,
    by case name."""
    lines = PARITY_LINES
    texts = {"crlf": "\r\n".join(lines) + "\r\n", "cr": "\r".join(lines) + "\r",
             "mixed-endings": "\r\n".join(lines[:4]) + "\r" + "\n".join(lines[4:]),
             "no-final-newline": "\n".join(lines),
             "trailing-empty-line": "\n".join(lines) + "\n\n",
             "empty-line-inside": "\n".join(lines[:3] + [""] + lines[3:-1]) + "\n",
             "empty-file": "", "header-only": lines[0],
             "non-ascii-digit": "\n".join(lines[:2] + ["\u0663.5,\u0660.25"] + lines[3:]),
             "nbsp-and-tab": "\n".join(lines[:2] + ["\u00a00.5,\t0.25"] + lines[3:]),
             "all-zero": "\n".join(lines[:1] + ["0.0,0.0"] * 8) + "\n",
             "real-only": "\n".join(lines[:2] + ["0.5,0.0"] + lines[3:]) + "\n",
             "zero-line-prefix": "\n".join(lines[:2] + ["0.0,0.00"] + lines[3:]) + "\n",
             "bad-float": "\n".join(lines[:2] + ["0.5,a\u00e9"] + lines[3:]) + "\n"}
    for name, sep in [("vt", "\v"), ("ff", "\f"), ("fs", "\x1c"), ("gs", "\x1d"),
                      ("rs", "\x1e"), ("nel", "\x85"), ("ls", "\u2028"),
                      ("ps", "\u2029")]:
        texts[f"{name}-between"] = "\n".join(lines[:4]) + sep + "\n".join(lines[4:])
        # splits a sample line: one line too many, or a bad line
        texts[f"{name}-inside"] = "\n".join(lines[:2] + ["0.5," + sep + "0.25"] + lines[3:])
        texts[f"{name}-inside-same-count"] = "\n".join(
            lines[:2] + ["0.5," + sep + "0.25"] + lines[3:-1])
        texts[f"{name}-in-header"] = "\n".join(["field" + sep + "n=1 N=8 L=1.0"]
                                               + lines[1:])
        texts[f"{name}-at-end"] = "\n".join(lines) + sep
    return texts


class TestFieldFile:
    def test_roundtrip(self, tmp_path):
        spec = GridSpec(n=2, L=2.0, N=16)
        f = random_field(spec, seed=13)
        path = tmp_path / "field.txt"
        write_field(f, path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "field n=2 N=16 L=2.0"
        assert len(text.splitlines()) == 1 + 16 * 16
        back = read_field(path)
        assert back.spec == spec
        assert np.array_equal(back.values, f.values)

    def test_real_field_roundtrip_stays_float64(self, tmp_path):
        spec = GridSpec(n=2, L=2.0, N=16)
        f = random_field(spec, seed=13, complex_=False)
        path = tmp_path / "field.txt"
        write_field(f, path)
        assert path.read_text(encoding="utf-8").splitlines()[1].endswith(",0.0")
        back = read_field(path)
        assert back.values.dtype == np.float64
        assert np.array_equal(back.values, f.values)

    def _written(self, tmp_path):
        path = tmp_path / "field.txt"
        write_field(random_field(GridSpec(n=2, L=1.0, N=8), seed=3), path)
        return path, path.read_text(encoding="utf-8").splitlines()

    def test_truncated_file_rejected(self, tmp_path):
        path, lines = self._written(tmp_path)
        path.write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="64 samples"):
            read_field(path)

    def test_extra_line_rejected(self, tmp_path):
        path, lines = self._written(tmp_path)
        path.write_text("\n".join(lines + ["0.0,0.0"]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="64 samples"):
            read_field(path)

    @pytest.mark.parametrize("header", ["", "field n=2 N=8", "field n=2 L=1.0 N",
                                        "grid n=2 N=8 L=1.0"])
    def test_bad_header_rejected(self, tmp_path, header):
        path, lines = self._written(tmp_path)
        path.write_text("\n".join([header] + lines[1:]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_field(path)


    @pytest.mark.parametrize("header, token", [
        ("field n=2 N=8 L=1.0 N=16", "'N=16'"),
        ("field n=2 N=8 L=1.0 x", "'x'"),
        ("field n=2 N==8 L=1.0", "'N==8'"),
    ], ids=["repeated-key", "no-equals", "two-equals"])
    def test_header_tokens_must_be_distinct_key_value_pairs(self, tmp_path, header, token):
        path, lines = self._written(tmp_path)
        path.write_text("\n".join([header] + lines[1:]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{token}: '{header}'"):
            read_field(path)

    @pytest.mark.parametrize("line", ["0.5", "0.5,0.25,1.0", "0.5;0.25", "0.5,abc"])
    def test_bad_sample_line_rejected(self, tmp_path, line):
        path, lines = self._written(tmp_path)
        lines[7] = line
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_field(path)

    def test_unbalanced_commas_rejected(self, tmp_path):
        # one line short of a comma and one with a spare: the total is right
        path, lines = self._written(tmp_path)
        lines[3], lines[9] = "0.5", "0.5,0.25,1.0"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="re,im"):
            read_field(path)

    @staticmethod
    def _write_per_sample(f, path):
        """The former writer: one float() conversion and format per sample."""
        spec = f.spec
        lines = [f"field n={spec.n} N={spec.N} L={spec.L!r}"]
        lines.extend(f"{float(v.real)!r},{float(v.imag)!r}" for v in f.values.reshape(-1))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    @staticmethod
    def _read_per_line(path):
        """The former reader: ``str.splitlines`` over the whole text and a
        Python pass over every line."""
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
        idx = [i for i, line in enumerate(body) if line != "0.0,0.0"]
        rest = [body[i] for i in idx]
        if list(map(str.count, rest, itertools.repeat(","))).count(1) != len(rest):
            raise ValueError(f"{path}: every sample line must read 're,im'")
        pairs = np.fromiter(map(float, ",".join(rest).split(",") if rest else ()),
                            dtype=np.float64, count=2 * len(rest))
        data = np.zeros(count, dtype=np.complex128)
        data.real[idx], data.imag[idx] = pairs[0::2], pairs[1::2]
        if not data.imag.any():
            data = data.real.copy()
        return SampledField(spec, data.reshape(spec.shape))

    @pytest.mark.parametrize("case", sorted(_parity_texts()))
    def test_reader_matches_per_line_reader(self, tmp_path, case):
        # the vectorised line split and zero-line scan against the former
        # reader: the same values and dtype, or the same ValueError message
        path = tmp_path / "field.txt"
        path.write_bytes(_parity_texts()[case].encode("utf-8"))
        outcomes = []
        for read in (read_field, self._read_per_line):
            try:
                f = read(path)
                outcomes.append((f.spec, f.values.dtype, f.values.tobytes()))
            except ValueError as exc:
                outcomes.append(("ValueError", str(exc)))
        assert outcomes[0] == outcomes[1]

    @staticmethod
    def _sparse_fields(spec):
        """Box-local fields, +0.0 outside the box: a real one with -0.0 in
        the box, a complex one with -0.0 in either part, and a complex one
        whose imaginary part is +0.0 but at one sample."""
        box = Box((-0.5, -0.5), (0.5, 0.75))
        (i0, _), (j0, _) = box.index_ranges(spec)
        inside = indicator_of(spec, box).values * random_field(spec, seed=5, complex_=False).values
        real, signed, one_imag = inside.copy(), inside.astype(complex), inside.astype(complex)
        real[i0, j0:j0 + 3] = -0.0
        signed.real[i0 + 1, j0] = signed.imag[i0 + 2, j0 + 1] = -0.0
        signed.imag[i0 + 3, j0 + 2] = 0.5
        one_imag.imag[i0 + 1, j0 + 1] = 0.25
        return [SampledField(spec, v, support=box) for v in (real, signed, one_imag)]

    @pytest.mark.parametrize("kind", ["real", "complex", "extremes", "sparse"])
    def test_bytes_match_per_sample_writer(self, tmp_path, kind):
        spec = GridSpec(n=2, L=2.0, N=16)
        if kind == "extremes":
            vals = random_field(spec, seed=5).values.copy()
            special_vals = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1, 1.0 / 3.0]
            vals.real.flat[:7] = special_vals
            vals.imag.flat[7:14] = special_vals
            fields = [SampledField(spec, vals)]
        elif kind == "sparse":
            fields = self._sparse_fields(spec)
        else:
            fields = [random_field(spec, seed=5, complex_=kind == "complex")]
        for f in fields:
            new, old = tmp_path / "new.txt", tmp_path / "old.txt"
            write_field(f, new)
            self._write_per_sample(f, old)
            assert new.read_bytes() == old.read_bytes()
            back = read_field(new)
            assert back.values.dtype == f.values.dtype
            assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))

    def _zero_file(self, tmp_path, body):
        """A 16-sample field file of zero lines with ``body`` ({index: line}) put in."""
        lines = ["0.0,0.0"] * 16
        for i, line in body.items():
            lines[i] = line
        path = tmp_path / "field.txt"
        path.write_text("\n".join(["field n=1 N=16 L=1.0", *lines]) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("line", ["0.5", "0.0,0.0,0.0", "0.0;0.0"])
    def test_malformed_line_among_zero_lines_rejected(self, tmp_path, line):
        with pytest.raises(ValueError, match="re,im"):
            read_field(self._zero_file(tmp_path, {6: line}))

    @pytest.mark.parametrize("body, dtype", [
        ({3: "-0.0,0.0", 9: "0.0,-0.0", 12: "1.0,2.0"}, np.complex128),
        ({3: "-0.0,0.0", 9: "0.0,-0.0"}, np.float64),
        ({1: "0.00,0.0", 2: "0,0", 4: "+0.0,-0", 5: " 0.0,0.0", 7: "0.0,0.0 ", 8: "0e5,0."},
         np.float64),
        ({1: "0.00,0.0", 2: "-0e0,0.000", 3: "0.0,0.25"}, np.complex128),
        ({}, np.float64),
    ], ids=["signed-complex", "signed-real", "noncanonical-real", "noncanonical-complex",
            "all-zero"])
    def test_zero_lines_parse_as_floats(self, tmp_path, body, dtype):
        # every line reads as float(re), float(im); a float64 file keeps the
        # sign of its real parts only
        re, im = np.zeros(16), np.zeros(16)
        for i, line in body.items():
            re[i], im[i] = map(float, line.split(","))
        back = read_field(self._zero_file(tmp_path, body)).values.reshape(-1)
        assert back.dtype == dtype
        assert np.array_equal(back.real.view(np.uint64), re.view(np.uint64))
        if dtype == np.complex128:
            assert np.array_equal(back.imag.view(np.uint64), im.view(np.uint64))


class TestFieldInvariants:
    def test_nan_rejected(self):
        vals = np.ones(SPEC.shape)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SampledField(SPEC, vals)

    def test_storage_dtype_follows_input(self):
        assert random_field(SPEC, seed=1, complex_=False).values.dtype == np.float64
        assert SampledField(SPEC, np.ones(SPEC.shape, dtype=int)).values.dtype == np.float64
        assert random_field(SPEC, seed=1).values.dtype == np.complex128

    def test_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SampledField(SPEC, np.ones((4, 4)))

    @pytest.mark.parametrize("bad", [1e-300, -2.0, np.nan, np.inf, -np.inf])
    def test_sample_outside_support_rejected(self, bad):
        # the support box is a certificate: a nonzero or non-finite sample
        # outside it raises instead of being dropped
        box = Box((-1.0, -1.0), (1.0, 1.0))
        vals = indicator_of(SPEC, box).values.copy()
        (i0, _), (j0, _) = box.index_ranges(SPEC)
        vals[i0 - 1, j0 + 3] = bad
        with pytest.raises(ValueError, match="outside the support box"):
            SampledField(SPEC, vals, support=box)
        vals[i0 - 1, j0 + 3] = -0.0
        assert SampledField(SPEC, vals, support=box).values[i0 - 1, j0 + 3] == 0.0

    def test_stored_values_read_only(self):
        box = Box((-1.0, -1.0), (1.0, 1.5))
        for f in (make_test_function(SPEC, "bump", radius=1.0), random_field(SPEC, seed=2),
                  SampledField(SPEC, indicator_of(SPEC, box).values, support=box)):
            ranges = f.block_ranges
            for arr in (f.values, f.take(ranges)):
                with pytest.raises(ValueError, match="read-only"):
                    arr[ranges[0][0], ranges[1][0]] = 1.0
        vals = np.ones(SPEC.shape)
        SampledField(SPEC, vals)
        vals[0, 0] = 2.0  # the caller's own array stays writeable


def _whole(spec, block, box):
    """Reference: ``block`` on the index ranges of ``box`` in a zero grid."""
    vals = np.zeros(spec.shape, dtype=block.dtype)
    vals[tuple(slice(lo, hi) for lo, hi in box.index_ranges(spec))] = block
    return vals


def _wrap_take(arr, lo, hi):
    """Reference: the whole grid ``arr`` over the index box ``[lo, hi)``,
    indices taken mod N."""
    return arr[np.ix_(*(np.arange(l, h) % arr.shape[0] for l, h in zip(lo, hi)))]


def _bits(arr):
    return np.asarray(arr).view(np.uint64)


class TestWrapTake:
    # grid._wrap_take against the reference above on a block embedded in a
    # zero grid on the index box ``at``: read boxes that start below 0, end
    # past N, are longer than N (up to 2N + 3) or are empty, and views of
    # the block for boxes inside ``at``
    N = 16

    def cases(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 4))
            ends = np.sort(rng.integers(0, self.N + 1, (n, 2)), axis=1)
            at = [(int(a), int(b)) for a, b in ends]
            block = rng.standard_normal([b - a for a, b in at])
            block[rng.random(block.shape) < 0.2] = -0.0
            full = np.zeros((self.N,) * n)
            full[tuple(slice(a, b) for a, b in at)] = block
            yield at, block, full

    def test_matches_embedded_block(self):
        rng = np.random.default_rng(29)
        for at, block, full in self.cases(rng):
            lo = rng.integers(-self.N - 3, self.N + 3, len(at))
            hi = lo + rng.integers(0, 2 * self.N + 4, len(at))
            got = grid._wrap_take(block, list(zip(lo.tolist(), hi.tolist())), at, self.N)
            assert np.array_equal(_bits(got), _bits(_wrap_take(full, lo, hi)))

    def test_box_inside_at_is_a_view(self):
        rng = np.random.default_rng(30)
        for at, block, full in self.cases(rng):
            lo, hi = np.array([np.sort(rng.integers(a, b + 1, 2)) for a, b in at]).T
            got = grid._wrap_take(block, list(zip(lo.tolist(), hi.tolist())), at, self.N)
            assert np.array_equal(_bits(got), _bits(_wrap_take(full, lo, hi)))
            assert got.size == 0 or np.shares_memory(got, block)

    def test_empty_ranges(self):
        block = np.ones((4, 5))
        for box in ([(3, 3), (-2, 30)], [(-9, -9), (0, 5)], [(0, 16), (7, 7)]):
            got = grid._wrap_take(block, box, [(2, 6), (0, 5)], self.N)
            assert got.shape == tuple(h - l for l, h in box) and got.size == 0


class TestBoxLocalLayer:
    # A field with a support box stores only its block there.  Every
    # operation on such fields must have the bits of its former definition
    # on whole grids, kept here as the reference, also on boxes that spill
    # past the support, past the grid edge and across the seam.
    SPEC2 = GridSpec(n=2, L=8.0, N=64)
    # support boxes: inside the grid, past its low edge on axis 0, and past
    # its high edge on axis 1
    BOXES = [Box((-1.3, 0.2), (0.9, 1.7)), Box((-4.6, -2.0), (-2.9, 0.5)),
             Box((0.4, 2.5), (2.0, 4.8))]

    def fields(self):
        """(field, its whole-grid reference): random blocks with exact zeros
        of both signs, real and complex."""
        rng = np.random.default_rng(21)
        out = []
        for box in self.BOXES:
            shape = tuple(hi - lo for lo, hi in box.index_ranges(self.SPEC2))
            block = rng.standard_normal(shape)
            block[rng.random(shape) < 0.2] = -0.0
            for vals in (block, block * (0.6 - 0.8j)):
                out.append((SampledField(self.SPEC2, vals, support=box),
                            _whole(self.SPEC2, vals, box)))
        return out

    def test_constructions_keep_bits(self):
        for f, ref in self.fields():
            assert _bits(f.values).tolist() == _bits(ref).tolist()
            g = SampledField(self.SPEC2, ref, support=f.support)  # cropped to the box
            assert np.array_equal(_bits(g.values), _bits(ref))

    @pytest.mark.parametrize("spec, center", [(SPEC, (0.3, -0.45)),
                                              (GridSpec(n=3, L=4.0, N=32), (0.1, 0.0, -0.2))])
    def test_on_box_matches_zero_grid(self, spec, center):
        box = Box.from_center(center, 0.4)
        local = lambda axes: -_bump_window(sum_of_squares(axes) / 0.16)
        sl, axes = box.samples(spec)
        want = np.zeros(spec.shape)
        want[sl] = local(axes)
        f = on_box(spec, box, local)
        assert f._block.shape == want[sl].shape
        assert np.array_equal(_bits(f.values), _bits(want))

    def test_sum_on_union_box(self):
        fs = self.fields()
        for (a, ra), (b, rb) in itertools.product(fs, repeat=2):
            s = a + b
            assert s.support == a.support.union(b.support)
            assert np.array_equal(_bits(s.values), _bits(ra + rb))
        # one field without a support box: the whole-grid sum
        r = random_field(self.SPEC2, seed=4, complex_=False)
        s = fs[0][0] + r
        assert s.support is None and np.array_equal(_bits(s.values), _bits(fs[0][1] + r.values))

    @pytest.mark.parametrize("c", [2.5, -0.75, 1 - 0.5j])
    def test_scaled_block(self, c):
        # bits of the whole-grid product on the support box, exact +0.0
        # outside it (the whole-grid product has -0.0 there for c < 0)
        for f, ref in self.fields():
            inside = _whole(self.SPEC2, np.ones(f._block.shape, dtype=bool), f.support)
            want = np.where(inside, ref * c, 0.0)
            for g in (f * c, c * f):
                assert g.support == f.support
                assert np.array_equal(_bits(g.values), _bits(want))

    @pytest.mark.parametrize("p", [1.0, 1.2, 2.0, 3.0])
    def test_cube_average_matches_whole_grid_sum(self, p):
        def reference(ref, box):
            chunk = np.abs(ref[box.samples(self.SPEC2)[0]])
            integral = float(np.sum(chunk ** p)) * self.SPEC2.dx ** 2
            return (integral / box.volume) ** (1.0 / p)

        cubes = [Box((-0.5, 0.5), (0.5, 1.5)), Box((-4.0, -3.0), (-2.0, -1.0)),
                 Box((-1.0, -1.0), (1.0, 1.0)).dilate(6.0), Box((2.0, -3.0), (3.5, -1.5)),
                 Box((-4.5, 2.0), (-3.0, 5.0))]
        seen = set()
        for f, ref in self.fields():
            for cube in cubes:
                got = cube_average(f, cube, p)
                assert got == reference(ref, cube)
                seen.add(got == 0.0)
        assert seen == {True, False}

    def test_ball_average_and_take_across_the_seam(self):
        N = self.SPEC2.N
        boxes = [((2, 20), (9, 41)), ((-7, 30), (5, 70)), ((-3, -5), (N + 4, 3)),
                 ((10, 40), (60, 66)), ((0, 0), (N, N))]
        centers = [(0.0, 0.0), (-3.9, 0.3), (-4.0, -3.9), (1.2, 3.8)]  # the last two wrap
        for f, ref in self.fields():
            for lo, hi in boxes:
                got = f.take(list(zip(lo, hi)))
                assert np.array_equal(_bits(got), _bits(_wrap_take(ref, lo, hi)))
            for c, r, p in itertools.product(centers, (0.4, 1.3), (1.2, 2.0)):
                box, idx = ball_points(self.SPEC2, c, r)
                want = lp_mean(_wrap_take(ref, *zip(*box))[idx], p)
                assert ball_average(f, c, r, p) == want

    def test_symbol_from_box_source(self):
        # apply_symbol reads the rows of a field's block: the bits of
        # the whole-grid pair on its reference, on whole and wrapped reads
        N = self.SPEC2.N
        sym = bochner_riesz_symbol(self.SPEC2, 0.3)
        reads = [None, [(20, 40), (-6, 9)], [(N - 5, N + 7), (30, 31)]]
        for f, ref in self.fields():
            for read in reads:
                got = apply_symbol(f, sym, read)
                crop = ... if read is None else np.ix_(*(np.arange(lo, hi) % N for lo, hi in read))
                parts = ([(got.real, ref.real), (got.imag, ref.imag)] if np.iscomplexobj(ref)
                         else [(got, ref)])
                for part, want in parts:
                    TestApplySymbolBitwise.assert_same_bits(part, whole_grid(want, sym)[crop])
