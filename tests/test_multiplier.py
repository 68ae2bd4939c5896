"""Multiplier module: cutoffs, symbols, dyadic pieces, kernel decay."""

import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import special

from brlab import harness
from brlab.grid import (
    GridSpec,
    SampledField,
    SpectralField,
    _radius_sq_grid,
    freq_sq,
    inverse_transform,
    lp_norm,
)
from brlab.multiplier import (
    TRANSITION,
    _bessel_j,
    _radial_kernel,
    apply_bochner_riesz,
    apply_Sk,
    apply_truncated,
    bochner_riesz_symbol,
    chi,
    chi_tilde,
    k_min,
    kernel_profile,
    sk_symbol,
    smooth_step,
    truncated_symbol,
)

SPEC = GridSpec(n=2, L=16.0, N=128)
DELTA = 0.3


def plane_wave(spec, xi):
    mesh = spec.meshgrid()
    phase = sum(mesh[i] * xi[i] for i in range(spec.n))
    return SampledField(spec, np.exp(2j * np.pi * phase))


def band_limited(spec, seed, cap):
    rng = np.random.default_rng(seed)
    co = np.zeros(spec.shape, dtype=complex)
    band = freq_sq(spec) < cap ** 2
    co[band] = rng.standard_normal(int(band.sum())) + 1j * rng.standard_normal(int(band.sum()))
    return inverse_transform(SpectralField(spec, co))


class TestCutoffs:
    def test_step_plateaus(self):
        assert smooth_step(0.5) == 1.0
        assert smooth_step(1.0) == 1.0
        assert smooth_step(1.02) == 0.0
        mid = smooth_step(1.005)
        assert 0.0 < mid < 1.0

    def test_step_monotone(self):
        xs = np.linspace(0.9, 1.1, 2001)
        vals = smooth_step(xs)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_chi_values(self):
        assert chi(0.75) == 1.0      # the plateau of the dyadic bump
        assert chi(0.3) == 0.0       # outside the support [1/2, 1.01]
        assert chi(0.49) == 0.0
        assert chi(1.02) == 0.0
        xs = np.linspace(0.51, 1.0, 101)
        assert np.all(chi(xs) == 1.0)

    @pytest.mark.parametrize("x", [0.001, 0.3, 0.999])
    def test_telescoping_point(self, x):
        total = sum(chi(2.0 ** (-k) * x) for k in range(-40, 1))
        assert abs(total - 1.0) < 1e-12

    def test_telescoping_sweep(self):
        xs = np.random.default_rng(0).uniform(2.0 ** -40, 1.0, 10_000)
        total = np.zeros_like(xs)
        for k in range(-40, 1):
            total += chi(2.0 ** (-k) * xs)
        assert np.abs(total - 1.0).max() < 1e-12

    def test_chi_tilde_plateau_and_support(self):
        assert chi_tilde(0.0) == 1.0
        assert chi_tilde(1.0) == 1.0
        assert chi_tilde(0.5) == 1.0
        assert chi_tilde(-0.0101) == 0.0
        assert chi_tilde(1.0101) == 0.0


class TestBochnerRiesz:
    def test_eigenfunction_half(self):
        pw = plane_wave(SPEC, (0.5, 0.0))
        out = apply_bochner_riesz(pw, DELTA)
        assert np.abs(out.values - 0.75 ** DELTA * pw.values).max() < 1e-12

    @pytest.mark.parametrize("xi", [(1.0, 0.0), (1.25, 0.0), (0.75, 0.75)])
    def test_kills_outside_ball(self, xi):
        out = apply_bochner_riesz(plane_wave(SPEC, xi), DELTA)
        assert np.abs(out.values).max() < 1e-12

    def test_delta_zero_identity_inside_ball(self):
        f = band_limited(SPEC, seed=4, cap=0.95)
        out = apply_bochner_riesz(f, 0.0)
        assert np.abs(out.values - f.values).max() < 1e-12 * np.abs(f.values).max()

    def test_l2_contraction(self):
        for seed in range(5):
            f = band_limited(SPEC, seed=seed, cap=3.0)
            assert lp_norm(apply_bochner_riesz(f, DELTA), 2.0) <= lp_norm(f, 2.0) * (1 + 1e-12)

    def test_self_adjoint(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            f = SampledField(SPEC, rng.standard_normal(SPEC.shape) + 1j * rng.standard_normal(SPEC.shape))
            g = SampledField(SPEC, rng.standard_normal(SPEC.shape) + 1j * rng.standard_normal(SPEC.shape))
            dxn = SPEC.dx ** 2
            lhs = np.sum(apply_bochner_riesz(f, DELTA).values * np.conj(g.values)) * dxn
            rhs = np.sum(f.values * np.conj(apply_bochner_riesz(g, DELTA).values)) * dxn
            assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_translation_equivariance(self):
        f = band_limited(SPEC, seed=3, cap=2.0)
        shift = (5, -9)
        rolled_then = apply_bochner_riesz(
            SampledField(SPEC, np.roll(f.values, shift, axis=(0, 1))), DELTA)
        then_rolled = np.roll(apply_bochner_riesz(f, DELTA).values, shift, axis=(0, 1))
        assert np.abs(rolled_then.values - then_rolled).max() < 1e-12 * np.abs(then_rolled).max()


class TestTruncated:
    def test_coincides_for_small_epsilon(self):
        f = band_limited(SPEC, seed=5, cap=3.0)
        a = apply_truncated(f, DELTA, 1.0 / 1.01)
        b = apply_bochner_riesz(f, DELTA)
        assert np.abs(a.values - b.values).max() < 1e-12 * np.abs(b.values).max()

    def test_kills_outside_ball(self):
        out = apply_truncated(plane_wave(SPEC, (1.0, 0.0)), DELTA, 2.0)
        assert np.abs(out.values).max() < 1e-12

    def test_contraction_for_large_epsilon(self):
        sym = truncated_symbol(SPEC, DELTA, 2.0).values
        assert np.abs(sym).max() <= 1.0 + 1e-12  # direct symbol scan
        f = band_limited(SPEC, seed=6, cap=3.0)
        assert lp_norm(apply_truncated(f, DELTA, 2.0), 2.0) <= lp_norm(f, 2.0) * (1 + 1e-12)


class TestSk:
    def test_eigenfunction_on_plateau(self):
        # 1 - |xi|^2 = (3/4) 2^-1: |xi|^2 = 5/8 realized by (4/16, 12/16)
        xi = (0.25, 0.75)
        assert 1 - (xi[0] ** 2 + xi[1] ** 2) == pytest.approx(0.375)
        pw = plane_wave(SPEC, xi)
        out = apply_Sk(pw, -1, DELTA)
        assert np.abs(out.values - 0.75 ** DELTA * pw.values).max() < 1e-12

    def test_vanishes_off_annulus(self):
        # 1 - |xi0|^2 = 2^{k+1} sits outside the support of chi(2^{-k} .)
        pw = plane_wave(SPEC, (0.0, 0.0))   # 1 - |xi0|^2 = 1 = 2^{k+1} at k = -1
        out = apply_Sk(pw, -1, DELTA)       # chi(2) = 0
        assert np.abs(out.values).max() < 1e-12
        spec = GridSpec(n=2, L=64.0, N=512)
        pw2 = plane_wave(spec, (0.5, 0.5))  # |xi0|^2 = 1/2 on the lattice
        out2 = apply_Sk(pw2, -2, DELTA)     # 2^2 (1 - 1/2) = 2 -> chi = 0
        assert np.abs(out2.values).max() < 1e-12

    def test_unresolvable_scale_rejected(self):
        with pytest.raises(ValueError, match="scale below grid resolution"):
            apply_Sk(plane_wave(SPEC, (0.5, 0.0)), k_min(SPEC) - 1, DELTA)

    def test_symbol_bound(self):
        sym = sk_symbol(SPEC, -1, DELTA).values
        assert np.abs(sym).max() <= (1 + 1 / 100.0) ** DELTA + 1e-12

    def test_decomposition_identity_on_lattice(self):
        # symbol identity sum 2^{k delta} s_k = (1-|xi|^2)_+^delta on the
        # resolvable shell, checked by direct symbol scan
        spec = GridSpec(n=2, L=64.0, N=512)
        km = k_min(spec)
        total = np.zeros(spec.shape)
        for k in range(km, 1):
            total = total + 2.0 ** (k * DELTA) * sk_symbol(spec, k, DELTA).values
        target = bochner_riesz_symbol(spec, DELTA).values
        shell = (1.0 - freq_sq(spec)) >= 2.0 ** km
        err = np.abs(total - target)[shell]
        assert err.max() < 1e-12

    def test_decomposition_on_band_limited_fields(self):
        spec = GridSpec(n=2, L=64.0, N=512)
        km = k_min(spec)
        bound = (2.0 ** km) ** DELTA
        for seed in range(5):
            f = band_limited(spec, seed=seed, cap=1.0 - 2.0 ** km)
            acc = np.zeros(spec.shape, dtype=complex)
            for k in range(km, 1):
                acc += 2.0 ** (k * DELTA) * apply_Sk(f, k, DELTA).values
            err = np.linalg.norm(acc - apply_bochner_riesz(f, DELTA).values)
            assert err <= bound * np.linalg.norm(f.values) + 1e-9


def _grid_kernel_envelope(spec: GridSpec, k: int, r: float) -> float:
    """|kernel of S_k| realized on the grid (S_k applied to the discrete
    delta of unit integral), max over the one-pixel radial bin at ``r``."""
    vals = np.zeros(spec.shape)
    vals[(spec.N // 2,) * spec.n] = 1.0 / spec.dx ** spec.n
    kern = np.abs(apply_Sk(SampledField(spec, vals), k, DELTA).values)
    band = np.abs(np.sqrt(_radius_sq_grid(spec)) - r) <= spec.dx / 2.0
    return float(kern[band].max())


class TestKernelProfile:
    def test_near_zero_matches_symbol_mass(self):
        # value near 0 ~ |integral of the symbol| ~ annulus measure ~ 2^k
        for k in (-2, -4):
            v = kernel_profile(k, DELTA, [1e-3])[0]
            assert 0.1 * 2.0 ** k < v < 10.0 * 2.0 ** k

    def test_quadrature_matches_grid_route(self):
        # envelope comparison in one-pixel bins at moderate radii
        spec = GridSpec(n=2, L=64.0, N=512)
        k = -3
        for r in (1.0, 2.0, 4.0, 8.0):
            fine = np.linspace(r - spec.dx / 2, r + spec.dx / 2, 9)
            env_quad = max(kernel_profile(k, DELTA, fine))
            env_grid = _grid_kernel_envelope(spec, k, r)
            assert env_grid == pytest.approx(env_quad, rel=0.5)

    def test_positive_radii_required(self):
        with pytest.raises(ValueError, match="positive"):
            kernel_profile(-2, DELTA, [0.0])


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_whole_lattice_formula(spec, deltas):
    """Each symbol's whole grid equals, as uint64, the formula evaluated on
    every lattice point."""
    t = 1.0 - freq_sq(spec)
    for delta in deltas:
        base = np.where(t > 0.0, np.maximum(t, 0.0) ** delta, 0.0)
        assert np.array_equal(_bits(bochner_riesz_symbol(spec, delta).values), _bits(base))
        for eps in (2.0, 4.0):
            want = base * chi_tilde(eps * t)
            assert np.array_equal(_bits(truncated_symbol(spec, delta, eps).values), _bits(want))
        for k in range(k_min(spec), 1):
            want = 2.0 ** (-k * delta) * base * chi(np.ldexp(t, -k))
            assert np.array_equal(_bits(sk_symbol(spec, k, delta).values), _bits(want)), k


class TestBallOnlySymbols:
    # The symbols evaluate only the open unit ball 1 - |xi|^2 > 0, on the
    # lines that meet it; each must equal, as uint64, the former formula
    # evaluated on every lattice point, with +0.0 off the band.
    @pytest.mark.parametrize("N, L", [(1024, 16.0), (512, 64.0), (256, 16.0)])
    def test_bitwise_equal_to_whole_lattice_formula(self, N, L):
        _assert_whole_lattice_formula(GridSpec(n=2, L=L, N=N), (0.0, 0.2))

    @pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 64), GridSpec(2, 10.3, 128),
                                      GridSpec(3, 6.5, 64), GridSpec(3, 1.9, 8)],
                             ids=lambda s: f"n{s.n}-N{s.N}-L{s.L}")
    def test_band_evaluation_in_every_dimension(self, spec):
        _assert_whole_lattice_formula(spec, (0.0, 0.2, 0.5))


def _radial_kernel_per_radius(k, delta, radii, n, bessel):
    """The former quadrature: nodes, weights and factors built per radius,
    with ``bessel(x)`` for J_{n/2-1}(x)."""
    rho_hi = math.sqrt(1.0 - 2.0 ** (k - 1))
    rho_lo = math.sqrt(max(0.0, 1.0 - (1.0 + TRANSITION) * 2.0 ** k))
    order = n / 2.0 - 1.0
    nodes0, weights0 = leggauss(12)
    out = np.empty(len(radii))
    for i, r in enumerate(radii):
        panels = max(8, int(math.ceil(4.0 * r * (rho_hi - rho_lo))))
        edges = np.linspace(rho_lo, rho_hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        rho = (mid[:, None] + half[:, None] * nodes0[None, :]).ravel()
        wts = (half[:, None] * weights0[None, :]).ravel()
        t = 1.0 - rho ** 2
        sk = 2.0 ** (-k * delta) * np.where(t > 0.0, np.maximum(t, 0.0) ** delta, 0.0) \
            * chi(np.ldexp(t, -k))
        fvals = sk * bessel(2.0 * np.pi * rho * r) * rho ** (n / 2.0)
        out[i] = 2.0 * np.pi * float(np.sum(wts * fvals)) / r ** order
    return out


def _decay_radius_lists(n):
    """Every (k, delta, radii) that the decay report evaluates in dimension n."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "kernel_profile",
                   lambda k, delta, radii, n=2: calls.append((k, delta, radii, n))
                   or [1.0] * len(radii))
        harness.run_decay(harness.ExperimentConfig(grid_dim=n))
    assert {c[0] for c in calls} == {-4, -6, -8} and len(calls) == 36
    assert {c[3] for c in calls} == {n}
    return [(k, delta, np.asarray(radii, dtype=float)) for k, delta, radii, _ in calls]


class TestRadialKernelSharing:
    def test_decay_radii_bitwise_equal_to_per_radius_quadrature(self):
        # every radius list the decay report evaluates, at k = -4, -6, -8,
        # in dimensions 2 and 3, with the Bessel routine of the dimension
        for n in (2, 3):
            bessel = _bessel_j(n / 2.0 - 1.0)
            for k, delta, radii in _decay_radius_lists(n):
                got = _radial_kernel(k, delta, radii, n=n)
                want = _radial_kernel_per_radius(k, delta, radii, n, bessel)
                assert np.array_equal(_bits(got), _bits(want)), (n, k, radii[0])

    @pytest.mark.parametrize("n", [2, 3])
    def test_decay_radii_within_1e_12_of_jv_quadrature(self, n):
        # j0 and the closed form of J_{1/2} move each kernel value by at
        # most 1e-12 of the sum of its quadrature's absolute terms (s_k >= 0,
        # so that sum is the quadrature with |J|).  Far out the kernel
        # cancels to 1e-6..1e-9 of that sum, and the moves there reach
        # 3e-11 of a list's largest value; in the mid zone (radii below 50)
        # they stay under 3e-14 of it.
        order = n / 2.0 - 1.0
        for k, delta, radii in _decay_radius_lists(n):
            got = _radial_kernel(k, delta, radii, n=n)
            ref = _radial_kernel_per_radius(k, delta, radii, n, lambda x: special.jv(order, x))
            terms = _radial_kernel_per_radius(k, delta, radii, n,
                                              lambda x: np.abs(special.jv(order, x)))
            assert np.all(np.abs(got - ref) <= 1e-12 * terms), (k, radii[0])
            if radii[0] < 50.0:
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (k, radii[0])


class TestBesselRoutines:
    # Arguments log-uniform on [1e-3, 3.3e6]; the decay report's largest
    # argument is 2 pi rho r < 2 pi (2048 * 2^8 + 3) ~ 3.3e6.
    ARGS = np.exp(np.random.default_rng(23).uniform(math.log(1e-3), math.log(3.3e6), 300))

    @staticmethod
    def reference(order, x):
        return np.array([float(mpmath.besselj(order, mpmath.mpf(float(v)))) for v in x])

    @pytest.mark.parametrize("order", [0.0, 0.5, 1.5])
    def test_error_against_mpmath_within_jv_error(self, order):
        # The caller's argument 2 pi rho r carries a rounding of its own,
        # which moves J by up to ulp(x) |J'(x)| ~ ulp(x) sqrt(2 / (pi x)).
        # j0 reduces x - pi/4 in double precision and so errs by at most
        # half that much above jv's error; the closed form of J_{1/2} and
        # jv itself meet jv's error + 1e-15.
        x = self.ARGS
        want = self.reference(order, x)
        err = np.abs(_bessel_j(order)(x) - want)
        err_jv = np.abs(special.jv(order, x) - want)
        slack = np.spacing(x) * np.sqrt(2.0 / (np.pi * x)) if order == 0.0 else 0.0
        assert np.all(err <= err_jv + 1e-15 + slack)

    def test_jv_only_for_other_orders(self, monkeypatch):
        calls = []
        monkeypatch.setattr(special, "jv", lambda v, x: calls.append(v) or np.zeros_like(x))
        x = self.ARGS[:5]
        _bessel_j(0.0)(x), _bessel_j(0.5)(x)
        assert calls == []
        _bessel_j(1.5)(x)
        assert calls == [1.5]
