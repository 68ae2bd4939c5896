"""Bochner-Riesz symbol, truncations, Littlewood-Paley pieces, kernel decay.

The smooth cutoffs are built from the standard exp(-1/t) mollifier with a
transition width of 1/100, so the dyadic partition of unity telescopes by
algebra rather than by numerical tuning:

    chi(x) = H(x) - H(2x)   =>   sum_{k=-K..0} chi(2^{-k} x) = H(x) - H(2^{K+1} x).

Every symbol carries the factor ``(1 - |xi|^2)_+^delta``, so it is exact
``+0.0`` off the ``2L - 1`` lines per axis that meet the open unit ball (31
of ``N`` at L = 16).  The symbols are evaluated on those lines only and
returned as a :class:`grid.BandSymbol`: the half symbol on its nonzero
band, which ``grid.apply_symbol`` and the band products of ``maximal`` read
directly, with the bits of the whole-grid formula there.  The whole grid
is a lazy view for whole-grid readers, and no ``|xi|^2`` grid is built.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import (
    BandSymbol,
    GridSpec,
    SampledField,
    _mollifier_ramp,
    apply_symbol,
    sum_of_squares,
)

__all__ = [
    "TRANSITION",
    "smooth_step",
    "chi",
    "chi_tilde",
    "k_min",
    "bochner_riesz_symbol",
    "truncated_symbol",
    "sk_symbol",
    "apply_bochner_riesz",
    "apply_truncated",
    "apply_Sk",
    "kernel_profile",
]

TRANSITION = 1.0 / 100.0


def smooth_step(x):
    """H(x): 1 for x <= 1, 0 for x >= 1.01, C-infinity and nonincreasing."""
    return _mollifier_ramp((1.0 + TRANSITION - np.asarray(x, dtype=float)) / TRANSITION)


def chi(x):
    """Dyadic bump H(x) - H(2x): supported on [1/2, 1.01], equal to 1 on [0.505, 1]."""
    x = np.asarray(x, dtype=float)
    return smooth_step(x) - smooth_step(2.0 * x)


def chi_tilde(x):
    """Truncation cutoff: 1 on [0, 1], supported on [-0.01, 1.01]."""
    x = np.asarray(x, dtype=float)
    return _mollifier_ramp((x + TRANSITION) / TRANSITION) * smooth_step(x)


def k_min(spec_or_L) -> int:
    """Smallest resolvable scale index: the annulus 1-|xi|^2 ~ 2^k must span
    a few frequency-lattice spacings, which needs 2^k >= 8/L."""
    L = spec_or_L.L if isinstance(spec_or_L, GridSpec) else float(spec_or_L)
    return math.ceil(math.log2(8.0 / L))


def _sk_of_t(t, k: int, delta: float):
    """``2^{-k delta} t^delta chi(2^{-k} t)`` for ``t = 1 - |xi|^2 > 0``."""
    return 2.0 ** (-k * delta) * t ** delta * chi(np.ldexp(t, -k))


def _on_ball(spec: GridSpec, sym_of_t) -> BandSymbol:
    """Lattice symbol that is ``sym_of_t(t)`` where ``t = 1 - |xi|^2 > 0``
    and exact ``+0.0`` elsewhere; every symbol here carries the factor
    ``t_+^delta``, which is ``+0.0`` off the open unit ball (also at
    delta = 0).  Only the lines ``|j| <= m`` with ``1 - xi_j^2 > 0`` meet the
    ball, so ``t`` is formed on their half box alone, each sum of squares in
    the order of ``grid.freq_sq`` (the same bits), and only the ball's points
    are evaluated; :class:`grid.BandSymbol` trims the box to the band."""
    xi = spec.axis_freqs()
    m = int(np.count_nonzero(1.0 - xi ** 2 > 0.0)) // 2
    box = [(-m, m + 1)] * (spec.n - 1) + [(0, m + 1)]
    t = 1.0 - sum_of_squares([xi[np.arange(l, h)] for l, h in box])
    ball = t > 0.0
    out = np.zeros(t.shape)
    out[ball] = sym_of_t(t[ball])
    return BandSymbol(out, box, spec.N)


@lru_cache(maxsize=128)
def bochner_riesz_symbol(spec: GridSpec, delta: float) -> BandSymbol:
    """``(1 - |xi|^2)_+^delta`` on the frequency lattice (indicator of the
    open unit ball when delta = 0)."""
    if delta < 0:
        raise ValueError(f"smoothness exponent must satisfy delta >= 0, got {delta}")
    return _on_ball(spec, lambda t: t ** delta)


@lru_cache(maxsize=128)
def truncated_symbol(spec: GridSpec, delta: float, epsilon: float) -> BandSymbol:
    """Symbol of the truncated operator: ``(1-|xi|^2)_+^delta * chi_tilde(eps*(1-|xi|^2))``.

    For ``epsilon <= 1`` the cutoff is identically 1 on the support of the
    Bochner-Riesz symbol, so the truncation coincides with it exactly.
    """
    if epsilon <= 0:
        raise ValueError(f"truncation parameter must be positive, got {epsilon}")
    base = bochner_riesz_symbol(spec, delta)
    if epsilon <= 1.0:
        return base
    return _on_ball(spec, lambda t: t ** delta * chi_tilde(epsilon * t))


@lru_cache(maxsize=256)
def sk_symbol(spec: GridSpec, k: int, delta: float) -> BandSymbol:
    """L-infinity normalized dyadic piece
    ``2^{-k delta} (1-|xi|^2)_+^delta chi(2^{-k} (1-|xi|^2))``."""
    if k > 0:
        raise ValueError(f"scale index must satisfy k <= 0, got {k}")
    if 2.0 ** k < 8.0 / spec.L:
        raise ValueError(
            f"scale below grid resolution: 2^{k} < 8/L = {8.0 / spec.L} "
            f"(smallest resolvable index is {k_min(spec)})"
        )
    return _on_ball(spec, lambda t: _sk_of_t(t, k, delta))


# A multiplier spreads support, so the applications below drop it.

def _apply(f: SampledField, sym: BandSymbol) -> SampledField:
    return SampledField(f.spec, apply_symbol(f, sym))


def apply_bochner_riesz(f: SampledField, delta: float) -> SampledField:
    """Spectral multiplication by ``(1-|xi|^2)_+^delta``; self-adjoint and an
    L^2 contraction by construction."""
    return _apply(f, bochner_riesz_symbol(f.spec, float(delta)))


def apply_truncated(f: SampledField, delta: float, epsilon: float) -> SampledField:
    return _apply(f, truncated_symbol(f.spec, float(delta), float(epsilon)))


def apply_Sk(f: SampledField, k: int, delta: float) -> SampledField:
    """Littlewood-Paley piece supported where ``1-|xi|^2 ~ 2^k``."""
    return _apply(f, sk_symbol(f.spec, int(k), float(delta)))


def _bessel_j(order: float):
    """``x -> J_order(x)``: SciPy's ``j0`` for order 0, the closed form
    ``sqrt(2/(pi x)) sin x`` for order 1/2, and SciPy's ``jv`` (AMOS, several
    times slower) for any other order.  SciPy is imported here, on first
    use, so only the callers of a Bessel factor pay for its import."""
    from scipy import special

    if order == 0.0:
        return special.j0
    if order == 0.5:
        return lambda x: np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    return lambda x: special.jv(order, x)


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 12-point Gauss-Legendre nodes and weights of every panel,
    read-only and shared."""
    nodes, weights = leggauss(12)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _radial_kernel(k: int, delta: float, radii: np.ndarray, n: int = 2) -> np.ndarray:
    """Inverse Fourier transform of the radial symbol s_k, evaluated at |x| = r
    by Hankel quadrature:

        kern(r) = 2 pi r^{-(n/2-1)} int s_k(rho) J_{n/2-1}(2 pi rho r) rho^{n/2} drho.

    Gauss-Legendre panels are sized to a quarter of the Bessel oscillation
    wavelength, so the quadrature stays accurate at any radius.  The Bessel
    factor comes from :func:`_bessel_j`: ``j0`` in dimension 2, the closed
    form of J_{1/2} in dimension 3, ``jv`` in any other dimension.
    """
    if k > 0:
        raise ValueError("scale index must satisfy k <= 0")
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    rho_hi = math.sqrt(1.0 - 2.0 ** (k - 1))
    rho_lo = math.sqrt(max(0.0, 1.0 - (1.0 + TRANSITION) * 2.0 ** k))
    order = n / 2.0 - 1.0
    bessel = _bessel_j(order)
    nodes0, weights0 = _gauss_legendre()
    # nodes, weights and the radius-free factors are built once per panel
    # count and shared by the radii that use it
    by_panels: dict[int, list[int]] = {}
    for i, r in enumerate(radii):
        by_panels.setdefault(max(8, int(math.ceil(4.0 * r * (rho_hi - rho_lo)))), []).append(i)
    out = np.empty(len(radii))
    for panels, members in by_panels.items():
        edges = np.linspace(rho_lo, rho_hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        rho = (mid[:, None] + half[:, None] * nodes0[None, :]).ravel()
        wts = (half[:, None] * weights0[None, :]).ravel()
        sk = _sk_of_t(1.0 - rho ** 2, k, delta)
        arg = 2.0 * np.pi * rho
        rho_pow = rho ** (n / 2.0)
        for i in members:
            r = radii[i]
            fvals = sk * bessel(arg * r) * rho_pow
            out[i] = 2.0 * np.pi * float(np.sum(wts * fvals)) / r ** order
    return out


def kernel_profile(k: int, delta: float, radii, n: int = 2) -> list[float]:
    """|kernel of S_k| at the given radii, by exact radial quadrature of the
    continuum transform (no periodization, any radius)."""
    radii = np.asarray(radii, dtype=float)
    return [float(v) for v in np.abs(_radial_kernel(int(k), float(delta), radii, n=n))]
