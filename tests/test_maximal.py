"""Maximal operators: brute-force oracles, domination, scaling, weak type."""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft

import brlab.maximal as maximal
from brlab.grid import (Box, GridSpec, SampledField, apply_symbol, cube_average, lp_norm,
                        make_test_function)
from brlab.harness import ExperimentConfig, _trial_fields
from brlab.maximal import (
    MaximalConfig,
    MaximalEngine,
    _ball_mean_linear,
    _full_window,
    ball_average,
    br_star,
    br_starstar,
    hl_maximal,
)
from brlab.multiplier import bochner_riesz_symbol, truncated_symbol
from brlab.sparse import C_INIT, DyadicCube, TraceNode, exceptional_set, root_cube
from test_sparse import children, plain_maximal_cubes

SPEC = GridSpec(n=2, L=8.0, N=64)
DELTA = 0.3
CFG = MaximalConfig(p0=1.2, q0=2.0, eps_min_exp=2)  # eps = 4, 8 and 16 px at N = 64


def _wrap_take(arr, lo, hi):
    """Reference: the whole grid ``arr`` over the index box ``[lo, hi)``,
    indices taken mod N."""
    return arr[np.ix_(*(np.arange(l, h) % arr.shape[0] for l, h in zip(lo, hi)))]


def _ball_offsets(n, r_px, N):
    """Reference: the integer offsets within ``r_px`` of 0 in the
    minimal-image torus metric (ties included), in C order; offsets of a
    ball wider than the grid are taken from the window ``[-N/2, N/2)``."""
    lo, hi = (-r_px, r_px + 1) if 2 * r_px + 1 <= N else (-(N // 2), N - N // 2)
    m = np.arange(lo, hi) % N
    dist = np.minimum(m, N - m)
    mask = sum(np.meshgrid(*([dist ** 2] * n), indexing="ij")) <= r_px * r_px
    grids = np.meshgrid(*([np.arange(lo, hi)] * n), indexing="ij")
    return np.stack([g[mask] for g in grids], axis=-1)


def spiky_field(spec=SPEC, seed=11):
    return make_test_function(spec, "random_trig", seed=seed,
                              window_radius=0.9, num_modes=5, freq_max=1.5)


def _apply_sym(vals, sym):
    return np.fft.fftshift(np.fft.ifftn(np.fft.fftn(np.fft.ifftshift(vals)) * sym))


def torus_ball_means(dens, eps_px):
    """Mean of ``dens`` over the eps-ball around every point of the torus:
    a direct sum over the ball's offsets."""
    N, n = dens.shape[0], dens.ndim
    padded = np.pad(dens, eps_px, mode="wrap")
    offs = _ball_offsets(n, eps_px, N)
    acc = np.zeros(dens.shape)
    for b in offs.tolist():
        acc += padded[tuple(slice(eps_px + o, eps_px + o + N) for o in b)]
    return acc / len(offs)


def candidate_max(means, eps_px, points):
    """max of ``means`` over every candidate center y = x + a, a in the
    eps-ball, at each index tuple x of ``points``."""
    N, n = means.shape[0], means.ndim
    ys = (np.asarray(points)[:, None, :] + _ball_offsets(n, eps_px, N)[None]) % N
    return means[tuple(np.moveaxis(ys, -1, 0))].max(axis=1)


def brute_starstar(f, delta, cfg, points=None):
    """Independent evaluation: direct ball sums on the torus and a max over
    every candidate center, at the index tuples ``points`` of a grid of any
    dimension (default: the whole grid, as an array of its shape)."""
    spec = f.spec
    pts = list(itertools.product(range(spec.N), repeat=spec.n)) if points is None else points
    out = np.zeros(len(pts))
    for eps_px in cfg.eps_px_list(spec):
        sym = truncated_symbol(spec, delta, max(eps_px * spec.dx, 0.5)).values
        means = torus_ball_means(np.abs(_apply_sym(f.values, sym)) ** cfg.q0, eps_px)
        np.maximum(out, candidate_max(means, eps_px, pts) ** (1.0 / cfg.q0), out=out)
    return out.reshape(spec.shape) if points is None else out


def brute_hl(f, cfg, points):
    """L^{p0} HL maximal function by explicit ball sums at the index tuples
    ``points`` of a grid of any dimension."""
    dens, N = np.abs(f.values) ** cfg.p0, f.spec.N
    out = np.zeros(len(points))
    for i, x in enumerate(points):
        for eps_px in cfg.eps_px_list(f.spec):
            b = _ball_offsets(f.spec.n, eps_px, N)
            s = dens[tuple(((b + np.array(x)) % N).T)].mean()
            out[i] = max(out[i], s ** (1 / cfg.p0))
    return out


def brute_star_at(f, delta, cfg, points, mask_center=None, radii=None):
    """Masked transform by its definition at the index tuples ``points`` of a
    grid of any dimension, over the radii ``radii`` (default: the config's):
    for each mask ball, f masked on the whole grid, its transform, direct
    ball sums on the torus and a max over every candidate center.

    ``mask_center(x, eps_px)`` moves the mask ball of point x at radius
    eps_px to another center (default: x itself); ``tile_centers`` gives
    br_star's.  Points that share a mask ball share its work."""
    spec = f.spec
    N = spec.N
    idx = np.indices(spec.shape)
    values = dict.fromkeys(points, 0.0)
    for eps_px in cfg.eps_px_list(spec) if radii is None else radii:
        sym = truncated_symbol(spec, delta, max(eps_px * spec.dx, 0.5)).values
        groups = {}
        for x in points:
            groups.setdefault(x if mask_center is None else mask_center(x, eps_px), []).append(x)
        for c, xs in groups.items():
            d2 = sum(np.minimum(np.abs(i - ci), N - np.abs(i - ci)) ** 2 for i, ci in zip(idx, c))
            masked = np.where(d2 <= (3 * eps_px) ** 2, 0.0, f.values)
            means = torus_ball_means(np.abs(_apply_sym(masked, sym)) ** cfg.q0, eps_px)
            for x, v in zip(xs, candidate_max(means, eps_px, xs) ** (1.0 / cfg.q0)):
                values[x] = max(values[x], float(v))
    return values


def values_at(eng, op, window, radii):
    """``{op}_values`` of the engine on the window over the radii ``radii``
    only: the engine's per-radius steps on one zero accumulator."""
    acc = np.zeros(tuple(h - l for l, h in window))
    for eps_px in radii:
        getattr(eng, f"_{op}_step")(window, eps_px, acc)
    return acc ** (1.0 / eng.cfg.p0) if op == "hl" else acc


def tile_centers(window):
    """``mask_center`` of br_star on the window: the center of x's tile,
    with tiles of side ``t = min(eps, window side)`` from the window's low
    corner."""
    def center(x, eps_px):
        return tuple(l + (xi - l) // t * t + t // 2
                     for xi, (l, h) in zip(x, window) for t in [min(eps_px, h - l)])
    return center


class TestHardyLittlewood:
    def test_constant(self):
        f = SampledField(SPEC, np.ones(SPEC.shape))
        out = hl_maximal(f, CFG)
        assert np.abs(out.values - 1.0).max() < 1e-12

    def test_indicator_against_brute_force(self):
        f = make_test_function(SPEC, "bump", radius=0.5, amp=2.0)
        out = hl_maximal(f, CFG).values
        pts = np.random.default_rng(0).integers(0, SPEC.N, size=(25, 2))
        for (x0, x1), best in zip(pts, brute_hl(f, CFG, pts)):
            assert out[x0, x1] == pytest.approx(best, rel=1e-10, abs=1e-13)

    def test_bounded_over_random_fields(self):
        # ||M f||_p / ||f||_p stays bounded for p > p0, with no N growth
        p0, p = 1.2, 2.0
        worst = {}
        for N in (64, 128):
            spec = GridSpec(n=2, L=8.0, N=N)
            ratios = []
            for seed in range(25):
                f = make_test_function(spec, "random_trig", seed=seed,
                                       window_radius=0.9)
                mf = hl_maximal(f, MaximalConfig(p0=p0))
                if lp_norm(f, p) > 1e-12:
                    ratios.append(lp_norm(mf, p) / lp_norm(f, p))
            worst[N] = max(ratios)
        assert worst[64] < 10.0 and worst[128] < 10.0
        assert worst[128] < 1.5 * worst[64]


class TestBrStarStar:
    def test_matches_brute_force(self):
        f = spiky_field()
        fast = br_starstar(f, DELTA, CFG).values
        brute = brute_starstar(f, DELTA, CFG)
        assert np.abs(fast - brute).max() < 1e-10 * brute.max()

    def test_zero_field(self):
        f = SampledField(SPEC, np.zeros(SPEC.shape))
        assert np.abs(br_starstar(f, DELTA, CFG).values).max() == 0.0

    def test_pointwise_dominates_multiplier(self):
        # |B f(x)| <= starstar(x) + small-ball quadrature slack; the slack
        # shrinks with the smallest averaging ball, so test at a resolution
        # where that ball is well below the field's oscillation scale
        from brlab.multiplier import apply_bochner_riesz
        spec = GridSpec(n=2, L=8.0, N=256)
        f = make_test_function(spec, "random_trig", seed=21,
                               window_radius=0.9, num_modes=5, freq_max=1.5)
        bf = np.abs(apply_bochner_riesz(f, DELTA).values)
        ss = br_starstar(f, DELTA, MaximalConfig(p0=1.2, q0=2.0)).values
        slack = 0.1 * bf.max()
        assert np.all(bf <= ss + slack)


class TestNoSupportBox:
    # A field with no declared support box: the crops of the whole-grid
    # window are longer than the grid at every radius, up to eps = N/4.
    @pytest.mark.parametrize("op", ["hl", "starstar"])
    def test_matches_brute_force(self, op):
        f = SampledField(SPEC, spiky_field().values)
        assert f.support is None and max(CFG.eps_px_list(SPEC)) == SPEC.N // 4
        pts = [tuple(p) for p in np.random.default_rng(4).integers(0, SPEC.N, size=(32, 2))]
        if op == "hl":
            out, want = hl_maximal(f, CFG).values, brute_hl(f, CFG, pts)
        else:
            out, want = br_starstar(f, DELTA, CFG).values, brute_starstar(f, DELTA, CFG, pts)
        got = np.array([out[p] for p in pts])
        assert np.max(np.abs(got - want)) <= 1e-10 * want.max()


class TestBrStar:
    def test_small_radius_matches_brute_force(self):
        # eps = 4 px alone, where every tile is eps wide and the mask center
        # moves at most 2 sqrt(2) px from the point
        f = spiky_field()
        star = values_at(MaximalEngine(f, DELTA, CFG), "star", _full_window(SPEC), [4])
        rng = np.random.default_rng(1)
        pts = [(int(a), int(b)) for a, b in rng.integers(4, 60, size=(12, 2))]
        brute = brute_star_at(f, DELTA, CFG, pts, mask_center=tile_centers(_full_window(SPEC)),
                              radii=[4])
        scale = max(brute.values())
        for p, v in brute.items():
            assert abs(star[p] - v) < 1e-10 * scale

    @pytest.mark.parametrize("eps_exp", [0, 1, 2])
    def test_where_the_mask_ball_wraps(self, eps_exp):
        # N = 16: at eps = 4 = N/4 the mask ball B(c, 12) and the box
        # +- 2 eps around each tile both wrap around the torus (in 2-D the
        # mask ball then covers it, so the exact value is 0); every point
        # of the grid, at 1e-10 of the operator's size over all three radii
        spec = GridSpec(n=2, L=3.0, N=16)
        f = make_test_function(spec, "random_trig", seed=11, window_radius=0.35,
                               num_modes=5, freq_max=1.5)
        cfg = MaximalConfig(eps_min_exp=eps_exp)
        pts = [(int(a), int(b)) for a, b in np.argwhere(np.ones(spec.shape))]
        centers = tile_centers(_full_window(spec))
        scale = max(brute_star_at(f, DELTA, MaximalConfig(eps_min_exp=0),
                                  pts[::5], mask_center=centers).values())
        assert scale > 0
        star = br_star(f, DELTA, cfg).values
        for p, v in brute_star_at(f, DELTA, cfg, pts, mask_center=centers).items():
            assert abs(star[p] - v) < 1e-10 * scale, p

    @pytest.mark.parametrize("n, N, eps_px", [(2, 16, 4), (3, 8, 2), (3, 32, 8)])
    def test_zero_where_the_wrapped_mask_ball_holds_every_nonzero(self, n, N, eps_px):
        # eps = N/4, f on a box at a corner of the grid: the mask ball
        # B(c, 3 eps) of x's tile center c wraps around the torus and holds
        # every nonzero of f at points beyond the seam, where the definition
        # gives exactly 0 (in 2-D at every point)
        L = N / 5.0
        spec = GridSpec(n=n, L=L, N=N)
        vals = np.zeros(spec.shape)
        vals[(slice(0, 3),) * n] = np.random.default_rng(N).standard_normal((3,) * n)
        f = SampledField(spec, vals, support=Box((-L / 2,) * n, (-L / 2 + 2.5 * spec.dx,) * n))
        m = eps_px.bit_length() - 1
        star = br_star(f, DELTA, MaximalConfig(eps_min_exp=m)).values
        pts, nz = np.indices(spec.shape).reshape(n, -1).T, np.argwhere(f.values)
        diff = np.abs(pts[:, None] // eps_px * eps_px + eps_px // 2 - nz[None])
        wrapped = np.sum(np.minimum(diff, N - diff) ** 2, axis=-1) <= (3 * eps_px) ** 2
        plain = np.sum(diff ** 2, axis=-1) <= (3 * eps_px) ** 2
        covered = wrapped.all(axis=1)
        assert (covered & ~plain.all(axis=1)).any() and (n == 2 or not covered.all())
        assert np.all(star.reshape(-1)[covered] == 0.0)

    @pytest.mark.parametrize("N, eps_px", [(8, 1), (8, 2), (32, 8)])
    def test_wraps_partial_masks_in_three_dimensions(self, N, eps_px):
        # in 3-D the wrapped mask ball of eps = N/4 leaves the torus's far
        # corners outside it, and the box +- 2 eps around each tile wraps
        # (eps = 1 at N = 8, alone, wraps nothing); f is noise on the whole
        # grid
        L = N / 5.0
        spec = GridSpec(n=3, L=L, N=N)
        f = SampledField(spec, np.random.default_rng(3).standard_normal(spec.shape),
                         support=Box((-L / 2,) * 3, (L / 2,) * 3))
        cfg = MaximalConfig(eps_min_exp=0)
        star = values_at(MaximalEngine(f, DELTA, cfg), "star", _full_window(spec), [eps_px])
        pts = [tuple(int(v) for v in p) for p in
               np.random.default_rng(eps_px).integers(0, N, size=(12, 3))]
        brute = brute_star_at(f, DELTA, cfg, pts, mask_center=tile_centers(_full_window(spec)),
                              radii=[eps_px])
        scale = max(brute.values())
        assert scale > 0
        for p, v in brute.items():
            assert abs(star[p] - v) < 1e-10 * scale, p

    def test_many_partial_tiles_in_one_batch(self):
        # a 128^2 whole grid at eps = 4 alone: its 1,024 tiles, many of them
        # partial, run in one batch; three sampled points in each of eight
        # bands of 16 rows
        spec = GridSpec(n=2, L=8.0, N=128)
        f = spiky_field(spec)
        cfg = MaximalConfig()
        band = 16 * spec.N
        rng = np.random.default_rng(2)
        flat = [int(b * band + k) for b in range(8) for k in rng.integers(0, band, size=3)]
        pts = [tuple(int(v) for v in np.unravel_index(i, spec.shape)) for i in flat]
        star = values_at(MaximalEngine(f, DELTA, cfg), "star", _full_window(spec), [4])
        brute = brute_star_at(f, DELTA, cfg, pts, mask_center=tile_centers(_full_window(spec)),
                              radii=[4])
        scale = max(brute.values())
        assert scale > 0
        for p, v in brute.items():
            assert abs(star[p] - v) < 1e-10 * scale, p

    def test_masked_support_gives_zero(self):
        # support inside B(x, (3 - sqrt(2)/2) eps), which lies in the mask
        # ball of x's tile center, for every radius
        spec = GridSpec(n=2, L=16.0, N=128)
        cfg, radii = MaximalConfig(p0=1.2, q0=2.0), [4, 8, 16]
        r_support = (3 - np.sqrt(2) / 2) * (2 ** 2) * spec.dx
        f = make_test_function(spec, "bump", radius=r_support)
        star = values_at(MaximalEngine(f, DELTA, cfg), "star", _full_window(spec), radii)
        center = (spec.N // 2, spec.N // 2)
        assert star[center] == 0.0
        # at the strict 3 eps boundary too, on a one-point window (whose
        # only tile is centered at the point itself), as the oracle says
        f2 = make_test_function(spec, "bump", radius=2.9 * 4 * spec.dx)
        star2 = values_at(MaximalEngine(f2, DELTA, cfg), "star",
                          ((center[0], center[0] + 1), (center[1], center[1] + 1)), radii)
        assert brute_star_at(f2, DELTA, cfg, [center], radii=radii) == {center: 0.0}
        assert star2.shape == (1, 1) and star2[0, 0] == 0.0

    def test_covered_radius_does_no_masking_work(self, monkeypatch):
        # the support lies inside the mask ball of every tile center of the
        # window at every radius, so no radius reads a truncated field
        spec = GridSpec(n=2, L=16.0, N=128)
        cfg = MaximalConfig(eps_min_exp=2)
        f = make_test_function(spec, "bump", radius=2 * spec.dx)
        c = spec.N // 2
        window = ((c - 4, c + 4), (c - 3, c + 5))
        nz = np.argwhere(f.values != 0)
        pts = np.argwhere(np.ones((8, 8), dtype=bool)) + (c - 4, c - 3)
        for eps_px in cfg.eps_px_list(spec):
            cs = np.array([tile_centers(window)(tuple(p), eps_px) for p in pts])
            assert ((cs[:, None, :] - nz[None, :, :]) ** 2).sum(axis=-1).max() <= (3 * eps_px) ** 2
        calls = []

        def entered(name):
            return lambda self, *args, **kwargs: calls.append(name)

        for name in ("_g_window", "_truncate"):
            monkeypatch.setattr(MaximalEngine, name, entered(name))
        star = MaximalEngine(f, DELTA, cfg).star_values(window)
        assert calls == [] and star.shape == (8, 8) and not np.any(star)

    def test_requires_support(self):
        f = SampledField(SPEC, np.ones(SPEC.shape))
        with pytest.raises(ValueError, match="support"):
            br_star(f, DELTA, CFG)

    def test_positive_homogeneity(self):
        f = spiky_field(seed=5)
        star1 = br_star(f, DELTA, CFG).values
        star4 = br_star(4.0 * f, DELTA, CFG).values
        assert np.allclose(star4, 4.0 * star1, rtol=1e-12, atol=1e-14)

    def test_refinement_monotonicity(self):
        # adding radii to the candidate set never decreases the sup
        f = spiky_field(seed=6)
        a = values_at(MaximalEngine(f, DELTA, CFG), "star", _full_window(SPEC), [8])
        b = br_star(f, DELTA, CFG).values
        assert np.all(b >= a - 1e-13)

    @pytest.mark.parametrize("eps_exp", [3, 4])
    def test_tiled_path_matches_brute_force_with_tile_center_masks(self, eps_exp):
        # every point of an eps-tile takes the mask ball of the tile center;
        # four points each of covered, disjoint and partial tiles
        spec = GridSpec(n=2, L=8.0, N=128)
        f = spiky_field(spec)
        eps = 2 ** eps_exp
        cfg = MaximalConfig()
        tile_center = tile_centers(_full_window(spec))
        nz = np.argwhere(f.values != 0)

        def tile_class(x):
            m = (nz - tile_center(x, eps)) % spec.N
            inside = np.count_nonzero((np.minimum(m, spec.N - m) ** 2).sum(axis=1)
                                      <= (3 * eps) ** 2)
            return "covered" if inside == len(nz) else "disjoint" if inside == 0 else "partial"

        rng = np.random.default_rng(eps_exp)
        pts = {"covered": [], "disjoint": [], "partial": []}
        for x in rng.permutation(np.argwhere(np.ones(spec.shape))):
            cls = pts[tile_class(tuple(x))]
            if len(cls) < 4:
                cls.append((int(x[0]), int(x[1])))
        assert all(len(v) == 4 for v in pts.values()), pts
        star = values_at(MaximalEngine(f, DELTA, cfg), "star", _full_window(spec), [eps])
        brute = brute_star_at(f, DELTA, cfg, sum(pts.values(), []), mask_center=tile_center,
                              radii=[eps])
        scale = max(brute.values())
        assert scale > 0
        for p, v in brute.items():
            assert abs(star[p] - v) < 1e-10 * scale, p
        assert all(brute[p] == 0.0 for p in pts["covered"])

    def test_default_matches_brute_force_at_sampled_points(self):
        # the default config walks eps = 4 to 32 px, below and above 8 px
        spec = GridSpec(n=2, L=8.0, N=128)
        cfg = MaximalConfig()
        for seed in (11, 5):
            f = spiky_field(spec, seed=seed)
            star = br_star(f, DELTA, cfg).values
            pts = [(int(a), int(b)) for a, b in
                   np.random.default_rng(seed).integers(0, spec.N, size=(48, 2))]
            brute = brute_star_at(f, DELTA, cfg, pts, mask_center=tile_centers(_full_window(spec)))
            scale = max(brute.values())
            assert all(abs(star[p] - v) <= 1e-10 * scale for p, v in brute.items())

    def test_star_below_starstar_of_masked_term_by_term(self):
        # at the same (x, y, eps), the masked inner term is the unmasked
        # inner term of the masked function: values can only drop when the
        # mask removes mass near the averaging ball
        f = spiky_field(seed=8)
        star = br_star(f, DELTA, CFG).values
        big = br_starstar(f, DELTA, CFG).values + hl_maximal(f, CFG).values
        # loose sanity: the tail operator is controlled by the local pair
        assert star.max() <= 10.0 * big.max()


def _cut(f, box):
    """``f * 1_box`` as a field of its own: zero outside the box's index
    ranges, with the box cut to f's support declared."""
    sl, _ = box.samples(f.spec)
    vals = np.zeros_like(f.values)
    vals[sl] = f.values[sl]
    return SampledField(f.spec, vals, support=Box(tuple(map(max, box.lo, f.support.lo)),
                                                  tuple(map(min, box.hi, f.support.hi))))


def _node_cases(spec=GridSpec(n=2, L=8.0, N=128)):
    """(f, 6Q, window of Q) as exceptional_set passes them to the engine:
    a windowed field with a sharp spike, for the root cube and one of its
    children."""
    for seed in (11, 5):
        f = make_test_function(spec, "random_trig", seed=seed, window_radius=0.95,
                               num_modes=5, freq_max=1.5)
        f = f + make_test_function(spec, "bump", center=(0.2, -0.1),
                                   radius=4 * spec.dx, amp=12.0)
        root = root_cube(f)
        for cube in (root, children(root)[1]):
            yield f, cube.box6(), cube.window()


def _complex_node_cases():
    """The node cases of ``_node_cases`` as the imaginary part, the larger
    one, of a complex field."""
    for f, box, window in _node_cases():
        re = make_test_function(f.spec, "random_trig", seed=3, window_radius=0.6,
                                num_modes=4, freq_max=1.5)
        yield re + 1j * f, box, window


OPERATORS = ("star", "starstar", "hl")


class TestRadiusPruning:
    @pytest.mark.parametrize("q0", [2.0, 3.0])
    def test_bound_covers_every_contribution(self, q0):
        # on selection nodes, each radius's contribution stays within its
        # bound: br_starstar's y-max, br_star's tiles and the HL ball mean;
        # and the bounds do not increase with the radius, so each one covers
        # every larger radius
        cfg = MaximalConfig(q0=q0, eps_min_exp=0)
        for f, box, window in _node_cases():
            eng = MaximalEngine(f, DELTA, cfg, box=box)
            l2 = [eng._l2_bound(eps_px) for eps_px in eng.eps_list]
            hl = [eng._hl_bound(eps_px) for eps_px in eng.eps_list]
            assert l2 == sorted(l2, reverse=True) and hl == sorted(hl, reverse=True)
            assert np.isfinite(l2).all()
            for eps_px, b_l2, b_hl in zip(eng.eps_list, l2, hl):
                g = eng._g_window(eps_px, *zip(*eng._expand(window, 2 * eps_px)))
                assert eng._y_max(g, eps_px).max() <= b_l2, eps_px
                assert eng._star_tiles(window, eps_px).max() <= b_l2, eps_px
                dens = np.abs(eng._f_take(eng._expand(window, eps_px))) ** cfg.p0
                mean = _ball_mean_linear(dens, eps_px, f.spec.N)
                assert mean.max() ** (1.0 / cfg.p0) <= b_hl, eps_px

    @pytest.mark.parametrize("q0", [2.0, 3.0])
    def test_band_bound_covers_every_larger_radius(self, q0):
        # br_starstar's band bound at eps stays above the y-max of B_e f at
        # every radius e >= eps, for real and complex f; it does not increase
        # with the radius, and at the largest radius it is below the l2 bound
        cfg = MaximalConfig(q0=q0, eps_min_exp=0)
        for f, box, window in [*_node_cases(), *_complex_node_cases()]:
            eng = MaximalEngine(f, DELTA, cfg, box=box)
            band = [eng._band_bound(eps_px) for eps_px in eng.eps_list]
            assert band == sorted(band, reverse=True) and np.isfinite(band).all()
            assert band[-1] < eng._l2_bound(eng.eps_list[-1])
            tops = [eng._y_max(eng._g_window(e, *zip(*eng._expand(window, 2 * e))), e).max()
                    for e in eng.eps_list]
            for i, b_band in enumerate(band):
                assert max(tops[i:]) <= b_band, eng.eps_list[i]

    def test_covered_window_stays_covered(self):
        # where every tile of a window is covered at eps (checked against
        # the distances to every nonzero), so is every tile at each larger
        # radius, past N/4 too, and br_star's tiles there are exactly 0:
        # node windows and the whole-grid window, n = 2 and 3
        spec3 = GridSpec(n=3, L=6.4, N=32)
        f3 = make_test_function(spec3, "random_trig", seed=5, window_radius=0.7,
                                num_modes=4, freq_max=1.5)
        root3 = root_cube(f3)
        cases = [*_node_cases(),
                 *((f3, c.box6(), c.window()) for c in (root3, children(root3)[1]))]
        checked = {2: 0, 3: 0}
        for f, box, window in cases:
            N, n = f.spec.N, f.spec.n
            for cut, eng, win in ((_cut(f, box), MaximalEngine(f, DELTA, CFG, box=box), window),
                                  (f, MaximalEngine(f, DELTA, CFG), _full_window(f.spec))):
                nz = np.argwhere(cut.values != 0)
                radii = [2 ** k for k in range(N.bit_length())]
                first = next(i for i, e in enumerate(radii) if eng._tile_classes(win, e)[2].all())
                for e in radii[first:]:
                    t = [min(e, h - l) for l, h in win]
                    axes = [np.arange(l, h, s) + s // 2 for (l, h), s in zip(win, t)]
                    cs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
                    d = np.abs(cs[:, None, :] - nz[None, :, :]) % N
                    assert (np.minimum(d, N - d) ** 2).sum(axis=-1).max() <= (3 * e) ** 2, e
                    assert eng._tile_classes(win, e)[2].all(), e
                    assert not np.any(eng._star_tiles(win, e)), e
                    checked[n] += e > radii[first]
        assert all(checked.values()), checked

    @pytest.mark.parametrize("seed", [3, 5, 11])
    @pytest.mark.parametrize("eps_exp", [1, 2, 3, 4])
    def test_bound_holds_at_single_radius(self, seed, eps_exp):
        # eps = 2 to 16 px, each alone
        f = spiky_field(seed=seed)
        cfg = MaximalConfig(eps_min_exp=1)
        eps_px = 2 ** eps_exp
        count = len(_ball_offsets(SPEC.n, eps_px, SPEC.N))
        dens = np.abs(f.values)
        bound_hl = (np.sum(dens ** cfg.p0) / count) ** (1.0 / cfg.p0)
        bound_l2 = (np.sum(dens ** 2) / count) ** 0.5
        eng, window = MaximalEngine(f, DELTA, cfg), _full_window(SPEC)
        assert values_at(eng, "hl", window, [eps_px]).max() <= bound_hl * (1.0 + 1e-9)
        assert values_at(eng, "starstar", window, [eps_px]).max() <= bound_l2 * (1.0 + 1e-9)
        assert values_at(eng, "star", window, [eps_px]).max() <= bound_l2 * (1.0 + 1e-9)


def _off_window_case(spec=GridSpec(n=2, L=8.0, N=128)):
    """(f, 6Q, window of Q) for a sharp bump in 6Q about 14 px off Q: only
    the larger radii reach it from the window."""
    cube = DyadicCube(spec, (56, 56), 8, 0, (0, 0))
    f = make_test_function(spec, "bump", center=(0.8, -0.2), radius=2 * spec.dx, amp=10.0)
    return f, cube.box6(), cube.window()


def _tightest_bounds(f, box, window, cfg):
    """The least valid bound of each operator on the window (``star`` for
    ``_star_bound``, ``starstar`` for ``_band_bound``, ``l2`` for
    ``_l2_bound``, the larger of the two, and ``hl`` for ``_hl_bound``): for
    each radius, the largest contribution of that radius or a larger one."""
    bounds = {op: {} for op in OPERATORS}
    for eps_px in reversed(cfg.eps_px_list(f.spec)):
        one = MaximalEngine(f, DELTA, cfg, box=box)
        for op, b in bounds.items():
            b[eps_px] = max(b.get(2 * eps_px, 0.0), values_at(one, op, window, [eps_px]).max())
    bounds["l2"] = {e: max(bounds["star"][e], bounds["starstar"][e]) for e in bounds["star"]}
    return bounds


class TestDecide:
    @pytest.mark.parametrize("tightest", [False, True], ids=["certified", "tightest"])
    @pytest.mark.parametrize("q0", [2.0, 3.0])
    def test_decides_the_node_like_the_full_sum(self, q0, tightest, monkeypatch):
        # doubling ladders at base scales spread over phi's range: the walk
        # may stop early, but the rung and its mask, or that no rung holds,
        # are the full sum's.  The tightest bounds leave the brackets no
        # slack to hide a missing term in.
        cfg = MaximalConfig(q0=q0, eps_min_exp=0)
        rng = np.random.default_rng(0)
        walked, hl_step = [], MaximalEngine._hl_step
        monkeypatch.setattr(MaximalEngine, "_hl_step",
                            lambda eng, *args: walked.append(args[1]) or hl_step(eng, *args))
        stopped = failed = 0
        for f, box, window in [*_node_cases(), _off_window_case()]:
            eng = MaximalEngine(f, DELTA, cfg, box=box)
            full = eng.star_values(window) + eng.starstar_values(window) + eng.hl_values(window)
            with monkeypatch.context() as m:
                if tightest:
                    b = _tightest_bounds(f, box, window, cfg)
                    m.setattr(MaximalEngine, "_l2_bound", lambda self, r: b["l2"][r])
                    m.setattr(MaximalEngine, "_hl_bound", lambda self, r: b["hl"][r])
                    m.setattr(MaximalEngine, "_star_bound", lambda self, w, r: b["star"][r])
                    m.setattr(MaximalEngine, "_band_bound", lambda self, r: b["starstar"][r])
                    eng = MaximalEngine(f, DELTA, cfg, box=box)
                for base in full.max() * 2.0 ** rng.uniform(-20.0, 0.0, 25):
                    ladder = base * 2.0 ** np.arange(18)
                    over = [np.count_nonzero(full > t) for t in ladder]
                    want = next((k for k, c in enumerate(over) if c <= full.size // 2),
                                len(ladder))
                    walked.clear()
                    k, mask = eng.decide(window, ladder)
                    assert k == want, (window, base)
                    if k == len(ladder):
                        assert mask is None
                        failed += 1
                    else:
                        assert np.array_equal(mask, full > ladder[k]), (window, base)
                    stopped += len(walked) < len(eng.eps_list)
        assert stopped > 0 and failed > 0


class TestWindowContract:
    # Engine methods return the window's shape and agree with the public
    # whole-grid operators cropped to it.  br_star's tiles start at the
    # window's low corner, so it is compared only at the radii whose tiles
    # the node windows (at index 30, sides 4 and 2) share with the whole
    # grid's: eps = 1 and 2 px, through the engine's per-radius steps on the
    # whole-grid window that ``br_star`` passes.
    @pytest.mark.parametrize("op", ["hl", "starstar", "star"])
    def test_window_values_match_public_operator_cropped(self, op):
        cfg = MaximalConfig(eps_min_exp=0)
        public = {"hl": lambda f: hl_maximal(f, cfg).values,
                  "starstar": lambda f: br_starstar(f, DELTA, cfg).values,
                  "star": lambda f: values_at(MaximalEngine(f, DELTA, cfg), "star",
                                              _full_window(SPEC), [1, 2])}[op]
        for f, box, window in _node_cases(SPEC):
            whole = public(_cut(f, box))
            eng = MaximalEngine(f, DELTA, cfg, box=box)
            got = (values_at(eng, op, window, [1, 2]) if op == "star"
                   else getattr(eng, f"{op}_values")(window))
            want = whole[tuple(slice(l, h) for l, h in window)]
            assert got.shape == want.shape == tuple(h - l for l, h in window)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(whole), window


class TestNodeBox:
    # An engine given a node's 6Q box reads f * 1_{6Q} without building it:
    # every operator returns bitwise the values of the engine on f zeroed
    # outside the box's index ranges.
    @pytest.mark.parametrize("op", OPERATORS)
    def test_box_read_matches_zeroed_field(self, op):
        cfg = MaximalConfig()
        for f, box, window in _node_cases():
            got = getattr(MaximalEngine(f, DELTA, cfg, box=box), f"{op}_values")(window)
            want = getattr(MaximalEngine(_cut(f, box), DELTA, cfg), f"{op}_values")(window)
            assert np.array_equal(got, want), window

    def test_wrapped_take_is_zero_outside_box(self):
        # HL's density crops and the partial tiles' mask-ball boxes, on
        # boxes that wrap across the grid edge or cover the whole grid
        for f, box, _ in _node_cases():
            eng, cut = MaximalEngine(f, DELTA, MaximalConfig(), box=box), _cut(f, box)
            for lo, hi in (((-40, 20), (90, 150)), ((0, 0), (128, 128)), ((60, 60), (64, 64))):
                assert np.array_equal(eng._f_take(tuple(zip(lo, hi))),
                                      _wrap_take(cut.values, lo, hi))

    def test_each_truncated_box_computed_once(self, monkeypatch):
        # br_star and br_starstar read B_eps f on the same boxes; a node's
        # engine computes the band spectrum of f once and each (eps, box)
        # once, and hands out read-only arrays
        spectrum, band_field = MaximalEngine._band_spectrum, MaximalEngine._band_field
        g_window = MaximalEngine._g_window
        spectra, computed, reads = [], [], []

        def transforming(eng, src, slo):
            if src is eng._fs:
                spectra.append(slo)
            return spectrum(eng, src, slo)

        def counting(eng, spec_, eps_px, zlo, zhi):
            if spec_ is eng.__dict__.get("_f_hat"):
                computed.append((eps_px, zlo, zhi))
            return band_field(eng, spec_, eps_px, zlo, zhi)

        def reading(eng, eps_px, zlo, zhi):
            reads.append((eps_px, zlo, zhi))
            g = g_window(eng, eps_px, zlo, zhi)
            assert not g.flags.writeable
            return g

        monkeypatch.setattr(MaximalEngine, "_band_spectrum", transforming)
        monkeypatch.setattr(MaximalEngine, "_band_field", counting)
        monkeypatch.setattr(MaximalEngine, "_g_window", reading)
        shared = 0
        for f, box, window in _node_cases():
            spectra.clear()
            computed.clear()
            reads.clear()
            eng = MaximalEngine(f, DELTA, MaximalConfig(), box=box)
            eng.star_values(window)
            eng.starstar_values(window)
            assert len(computed) == len(set(computed)) == len(set(reads)), window
            assert len(spectra) == (1 if reads else 0), window
            shared += len(reads) - len(computed)
        assert shared > 0

    def test_tile_classes_counted_once(self, monkeypatch):
        # decide's bracket and br_star's steps share the tile classes of
        # each window and radius: one count of the mask balls per radius
        orig, calls = MaximalEngine._nz_in_balls, []

        def counting(eng, centers, r):
            calls.append(r)
            return orig(eng, centers, r)

        monkeypatch.setattr(MaximalEngine, "_nz_in_balls", counting)
        cfg = MaximalConfig(eps_min_exp=0)
        for f, box, window in _node_cases():
            eng = MaximalEngine(f, DELTA, cfg, box=box)
            full = eng.star_values(window) + eng.starstar_values(window) + eng.hl_values(window)
            calls.clear()
            # a threshold at the values themselves keeps the brackets open
            eng.decide(window, np.unique(full))
            assert calls == [], window
            eng = MaximalEngine(f, DELTA, cfg, box=box)
            eng.decide(window, np.unique(full))
            eng.star_values(window)
            assert calls and len(calls) == len(set(calls)), (window, calls)


def _oracle_node(f, cube, delta, cfg):
    """The selection node of ``cube`` built from the brute-force oracles
    applied to ``f * 1_{6Q}``, and the window points whose phi lies within
    1e-9 of a rung it is compared with (ties, where the comparison with the
    engine is ill-posed)."""
    window, box6 = cube.window(), cube.box6()
    cut = _cut(f, box6)
    pts = list(itertools.product(*(range(l, h) for l, h in window)))
    star = brute_star_at(cut, delta, cfg, pts, mask_center=tile_centers(window))
    phi = (np.array([star[p] for p in pts]) + brute_starstar(cut, delta, cfg, pts)
           + brute_hl(cut, cfg, pts)).reshape(tuple(h - l for l, h in window))
    base = cube_average(f, box6, cfg.p0)
    c, ties = C_INIT, []
    while True:
        ties += [pts[i] for i in np.flatnonzero(np.abs(phi - c * base) <= 1e-9 * c * base)]
        e = phi > c * base
        if np.count_nonzero(e) <= cube.cell_count // 2:
            break
        c *= 2.0

    selected, flagged = plain_maximal_cubes(cube, e)
    node = TraceNode(cube, c, c * base, Fraction(int(np.count_nonzero(e)), cube.cell_count),
                     tuple(selected), tuple(flagged))
    return node, ties


class TestNodeOracle:
    # Every selection node, from the root down, equals the node built from
    # the brute-force oracles: br_star with the tile-center masks of the
    # node window, br_starstar and HL of f * 1_{6Q}, summed in the engine's
    # order, thresholded on the ladder, and cut into maximal dyadic cubes by
    # a plain loop.  f is noise on a box wider than the root's 6Q plus a
    # sharp bump, so the 6Q read and every operator can move a decision.
    # Nodes with a rung tie are reported, not compared.
    CASES = {"n2-N32": (2, 32, 4, (1, 2, 3, 4)), "n2-N64": (2, 64, 8, (1, 2, 3)),
             "n3-N32": (3, 32, 4, (1,))}

    @staticmethod
    def _field(spec, seed):
        n, N, h = spec.n, spec.N, 7 * spec.N // 16
        vals = np.zeros(spec.shape)
        vals[(slice(N // 2 - h, N // 2 + h),) * n] = (
            np.random.default_rng(seed).standard_normal((2 * h,) * n))
        noise = SampledField(spec, vals, support=Box((-h * spec.dx,) * n, (h * spec.dx,) * n))
        return noise + make_test_function(spec, "bump", center=(0.1,) * n, radius=3 * spec.dx,
                                          amp=8.0 * seed)

    @pytest.mark.parametrize("q0", [2.0, 3.0])
    @pytest.mark.parametrize("case", CASES)
    def test_trace_nodes_match_brute_force(self, case, q0):
        n, N, root_cells, seeds = self.CASES[case]
        spec = GridSpec(n=n, L=4.0, N=N)
        cfg = MaximalConfig(q0=q0, eps_min_exp=0)
        compared, tied = 0, []
        for seed in seeds:
            f = self._field(spec, seed)
            stack = [DyadicCube(spec, (N // 2 - root_cells // 2,) * n, root_cells, 0, (0,) * n)]
            while stack:
                node = exceptional_set(f, stack.pop(), DELTA, cfg)
                stack.extend(node.children)
                want, ties = _oracle_node(f, node.cube, DELTA, cfg)
                if ties:
                    tied.append((seed, node.cube.addr, ties))
                    continue
                assert node == want, (seed, node.cube.addr)
                compared += 1
        if tied:
            warnings.warn(f"rung ties, nodes not compared: {tied}")
        assert compared >= len(seeds)


class TestBatchedTiles:
    # br_star evaluates the partial tiles of a radius as one stack along a
    # leading axis; every transform acts on the trailing axes line by line,
    # so each tile's values are bitwise those of its own call.
    @pytest.mark.parametrize("n, N, eps_px", [(2, 64, 1), (2, 64, 4), (2, 16, 4), (3, 16, 2)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_stacked_calls_equal_looped_calls(self, n, N, eps_px, kind):
        spec = GridSpec(n=n, L=N / 8.0, N=N)
        eng = MaximalEngine(SampledField(spec, np.zeros(spec.shape)), DELTA,
                            MaximalConfig(q0=3.0))
        rng = np.random.default_rng(eps_px)

        def draw(shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if kind == "complex" else x

        crops = draw((5,) + (5 * eps_px,) * n)
        stacked = eng._y_max(crops, eps_px)
        assert stacked.shape == (5,) + (eps_px,) * n
        assert np.array_equal(stacked, np.stack([eng._y_max(c, eps_px) for c in crops]))
        # partial-tile sources on the mask-ball box, read on the tile +- 2 eps
        src = draw((5,) + (min(6 * eps_px + 1, N),) * n)
        boxes = ((-3 * eps_px,) * n, eps_px, (-(eps_px // 2) - 2 * eps_px,) * n,
                 (eps_px - eps_px // 2 + 2 * eps_px,) * n)
        near = eng._truncate(src, *boxes)
        assert near.shape == crops.shape
        assert np.array_equal(near, np.stack([eng._truncate(s, *boxes) for s in src]))


class TestTileClasses:
    # the running counts of f's nonzeros along each support row, arc by arc,
    # give the same "holds every nonzero" and "holds some nonzero" flags as
    # a loop over the centers, on a batch of many centers against many
    # nonzeros, and where the ball's arcs are wider than the grid
    # (2r + 1 > N: whole rows, and leading axes where the ball wraps)
    @pytest.mark.parametrize("n, N, r", [(2, 128, 24), (3, 32, 8), (2, 128, 66)])
    def test_matches_loop_over_centers(self, n, N, r):
        spec = GridSpec(n=n, L=N / 8.0, N=N)
        rng = np.random.default_rng(N)
        vals = np.zeros(spec.shape)
        vals[(slice(3 * N // 8, 5 * N // 8),) * n] = 1.0
        eng = MaximalEngine(SampledField(spec, vals), DELTA, CFG)
        nz = np.nonzero(vals)
        # centers across the seam, and near the box's center, whose balls
        # hold every nonzero
        centers = np.vstack([rng.integers(-N // 2, 3 * N // 2, size=(5000, n)),
                             rng.integers(N // 2 - 1, N // 2 + 2, size=(500, n))])
        covered, touched = eng._nz_in_balls(centers, r)
        assert len(centers) * nz[0].size > 2 * (1 << 20)  # many center-nonzero pairs
        for c, cov, tou in zip(centers, covered, touched):
            d2 = sum(np.minimum((i - ci) % N, (ci - i) % N) ** 2 for i, ci in zip(nz, c))
            assert cov == np.all(d2 <= r * r) and tou == np.any(d2 <= r * r), c
        assert covered.any() and (touched & ~covered).any() and (~touched).any()


class TestYMax:
    # _y_max against its definition: direct ball sums on the torus and a max
    # over every candidate center of the eps-ball, at 1e-12 of the result's
    # size.  The window sits at the grid's center, across its seam, or
    # across the seam for a stack of three fields; its crop +- 2 eps is
    # wider than the grid at eps = N/4.
    @pytest.mark.parametrize("layout", ["centered", "seam", "stacked"])
    @pytest.mark.parametrize("n, N, eps_px", [(2, 64, 8), (2, 128, 16), (2, 128, 32),
                                              (3, 16, 4), (3, 32, 8)])
    def test_matches_every_candidate(self, n, N, eps_px, layout):
        spec = GridSpec(n=n, L=N / 8.0, N=N)
        eng = MaximalEngine(SampledField(spec, np.zeros(spec.shape)), DELTA,
                            MaximalConfig(q0=3.0))
        fields = np.random.default_rng(N + eps_px).standard_normal(
            (3 if layout == "stacked" else 1,) + spec.shape)
        sides = (5, 3, 4)[:n]
        lo = (N // 2,) * n if layout == "centered" else (N - 2,) + (1,) * (n - 1)
        window = tuple((l, l + m) for l, m in zip(lo, sides))
        crops = np.stack([_wrap_take(g, *zip(*eng._expand(window, 2 * eps_px))) for g in fields])
        got = eng._y_max(crops if layout == "stacked" else crops[0], eps_px)
        pts = list(itertools.product(*(range(l, h) for l, h in window)))
        want = np.stack([candidate_max(torus_ball_means(np.abs(g) ** 3, eps_px), eps_px, pts)
                         for g in fields]) ** (1 / 3)
        want = want.reshape((len(fields),) + sides)
        assert got.shape == (want.shape if layout == "stacked" else sides)
        assert np.max(np.abs(got - want.reshape(got.shape))) <= 1e-12 * want.max()


class TestSupportLocal:
    # The truncated field of a box-supported source on a z-box, against the
    # whole-grid symbol application, also on boxes where the source box and
    # the z-box together span more than the grid.
    EPS_PX = 4

    def _fields(self):
        f = spiky_field(seed=5)
        cut = _cut(f, Box((-0.6, -0.4), (0.5, 0.7)))
        return {"real": cut, "complex": SampledField(SPEC, cut.values * (1 - 0.5j), cut.support),
                "unsupported": SampledField(SPEC, f.values)}

    # (zlo, zhi, fits): the support crop is [28, 36) x [29, 38); the second,
    # fourth and fifth boxes wrap across the grid edge, and the sixth is as
    # long as fits (57 + 8 - 1 = N on axis 0).  The convolution of the two
    # boxes that do not fit is longer than the grid, as is every one of the
    # unsupported field.
    ZBOXES = [((20, 30), (36, 41), True), ((-9, 50), (5, 70), True),
              ((0, 0), (47, 12), True), ((-20, 10), (40, 18), False),
              ((3, -7), (80, 30), False), ((0, 0), (57, 12), True)]

    @pytest.mark.parametrize("kind", ["real", "complex", "unsupported"])
    def test_g_window_matches_whole_grid_field(self, kind):
        f = self._fields()[kind]
        sym = truncated_symbol(SPEC, DELTA, self.EPS_PX * SPEC.dx)
        g = apply_symbol(f, sym)
        for zlo, zhi, fits in self.ZBOXES:
            eng = MaximalEngine(f, DELTA, CFG)
            got = eng._g_window(self.EPS_PX, zlo, zhi)
            want = _wrap_take(g, zlo, zhi)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(g)), (zlo, zhi)
            crop = [b - a + s - 1 for a, b, s in zip(zlo, zhi, eng._fs.shape)]
            assert (max(crop) <= SPEC.N) == (fits and kind != "unsupported"), (zlo, zhi)

    @pytest.mark.parametrize("kind", ["real", "complex", "unsupported"])
    def test_masked_tile_source_matches_whole_grid_field(self, kind):
        # a partial tile's source: f cut to the mask ball B(c, 3 eps) of a
        # tile center c, on the bounding box of its nonzeros there
        f = self._fields()[kind]
        c, mask_r = (18, 30), 3 * self.EPS_PX
        d = [np.minimum(np.abs(i - ci), SPEC.N - np.abs(i - ci))
             for i, ci in zip(np.indices(SPEC.shape), c)]
        h = np.where(d[0] ** 2 + d[1] ** 2 <= mask_r ** 2, f.values, 0.0)
        assert 0 < np.count_nonzero(h) < np.count_nonzero(f.values)
        nz = np.argwhere(h != 0)
        lo, hi = nz.min(axis=0), nz.max(axis=0) + 1
        src = h[lo[0]:hi[0], lo[1]:hi[1]]
        g = apply_symbol(SampledField(SPEC, h), truncated_symbol(SPEC, DELTA, self.EPS_PX * SPEC.dx))
        fits = set()
        for zlo, zhi, _ in self.ZBOXES:
            eng = MaximalEngine(f, DELTA, CFG)
            got = eng._truncate(src, tuple(int(a) for a in lo), self.EPS_PX, zlo, zhi)
            want = _wrap_take(g, zlo, zhi)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(g)), (zlo, zhi)
            fits.add(all(b - a + s - 1 <= SPEC.N for a, b, s in zip(zlo, zhi, src.shape)))
        assert fits == {True, False}

    def test_g_window_of_empty_support_box_is_zero(self):
        f = SampledField(SPEC, np.zeros(SPEC.shape), support=Box((0.01, 0.01), (0.1, 0.1)))
        assert not np.any(MaximalEngine(f, DELTA, CFG)._g_window(4, (0, 0), (9, 5)))

    @pytest.mark.parametrize("ywin", [((10, 50), (3, 20)), ((-12, 30), (40, 70))])
    def test_torus_ball_mean_matches_crop(self, ywin):
        # eps = N/4: the crop ywin +- eps is wider than the grid on axis 0,
        # and its linear ball mean is still the torus mean of each ball
        eps_px, N = SPEC.N // 4, SPEC.N
        dens = np.abs(spiky_field(seed=3).values) ** 1.2 + 0.1
        lo = tuple(l - eps_px for l, _ in ywin)
        hi = tuple(h + eps_px for _, h in ywin)
        assert hi[0] - lo[0] > N
        got = _ball_mean_linear(_wrap_take(dens, lo, hi), eps_px, N)
        want = np.zeros(got.shape)
        for off in _ball_offsets(2, eps_px, N):
            want += dens[np.ix_(*((np.arange(l, h) + o) % N for (l, h), o in zip(ywin, off)))]
        want /= len(_ball_offsets(2, eps_px, N))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("N", [16, 64])
    @pytest.mark.parametrize("eps_px", [1, 2, 4])
    def test_touch_tables_match_brute_force(self, N, eps_px):
        # the y-max touches x + a + b (mod N) once for each candidate a and
        # each b in the eps-ball: a wrapped crop of a torus field against
        # the direct sums, on a window whose crop +- 2 eps crosses the grid
        # edge (and is wider than the grid at N = 16, eps = 4)
        spec = GridSpec(n=2, L=N / 8.0, N=N)
        eng = MaximalEngine(SampledField(spec, np.zeros(spec.shape)), DELTA,
                            MaximalConfig(q0=3.0))
        g = np.random.default_rng(N + eps_px).standard_normal(spec.shape)
        window = ((N - 3, N + 2), (2, 9))
        got = eng._y_max(_wrap_take(g, *zip(*eng._expand(window, 2 * eps_px))), eps_px)
        b_offs = _ball_offsets(2, eps_px, N)
        want = np.zeros(got.shape)
        for i, x in enumerate(itertools.product(*(range(l, h) for l, h in window))):
            want.flat[i] = max(np.mean(np.abs(g[tuple(((x + a + b_offs) % N).T)]) ** 3)
                               for a in b_offs) ** (1 / 3)
        assert got.shape == (5, 7)
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()


def _weak_type_ratio(mf: SampledField, f: SampledField, p0: float) -> float:
    """sup over a level grid of ``lambda |{mf > lambda}|^{1/p0} / ||f||_{p0}``."""
    vals = np.abs(mf.values)
    top = float(vals.max())
    if top <= 0:
        return 0.0
    cell = mf.spec.dx ** mf.spec.n
    return max(lam * (np.count_nonzero(vals > lam) * cell) ** (1.0 / p0)
               for lam in np.geomspace(top * 1e-3, top * 0.999, 48)) / lp_norm(f, p0)


class TestWeakType:
    @pytest.mark.parametrize("op", ["star", "starstar"])
    def test_weak_type_stable_in_n(self, op):
        # lambda |{T f > lambda}|^{1/p0} <= C ||f||_{p0} for delta above the
        # two-dimensional threshold: C stable across N in {256, 512}
        p0 = 1.2
        delta = 0.25  # delta_bar_2(6/5) + 0.05 = 1/6 + 0.05 ~ 0.217 < 0.25
        consts = {}
        for N, eme in ((256, 2), (512, 3)):
            spec = GridSpec(n=2, L=8.0, N=N)
            cfg = MaximalConfig(p0=p0, q0=2.0, eps_min_exp=eme)
            vals = []
            for seed in (3, 4):
                f = make_test_function(spec, "random_trig", seed=seed,
                                       window_radius=0.9, num_modes=5)
                mf = (br_star if op == "star" else br_starstar)(f, delta, cfg)
                vals.append(_weak_type_ratio(mf, f, p0))
            consts[N] = max(vals)
        assert consts[512] < 2.0 * consts[256] + 1e-9
        assert all(v < 50.0 for v in consts.values())


class TestBallAverage:
    def test_constant(self):
        f = SampledField(SPEC, np.full(SPEC.shape, 2.0))
        assert ball_average(f, 0.0, 1.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_matches_offsets(self):
        f = spiky_field(seed=3)
        r_px = 8
        b = _ball_offsets(2, r_px, SPEC.N)
        c = SPEC.N // 2
        expected = (np.abs(f.values[((b[:, 0] + c) % SPEC.N, (b[:, 1] + c) % SPEC.N)]) ** 2).mean() ** 0.5
        assert ball_average(f, 0.0, r_px * SPEC.dx, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_radius_checked(self):
        f = spiky_field(seed=3)
        for radius in (-1.0, -1e-300, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"ball radius .*got {radius}"):
                ball_average(f, 0.0, radius, 2.0)
        assert ball_average(f, 0.0, 0.0, 2.0) == pytest.approx(abs(f.values[SPEC.N // 2, SPEC.N // 2]))


class TestBallCount:
    # the exact lattice count of the radius bounds equals the number of the
    # ball's offsets; at n = 3 and r = 128, 256 the offsets would take GBs,
    # so a plane-by-plane count of the points stands in for them
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_ball_offsets(self, n):
        for r in [*range(33), 64, 128, 256]:
            if n == 3 and r > 64:
                ar = np.arange(-r, r + 1)
                plane = np.add.outer(ar ** 2, ar ** 2)
                want = sum(int(np.count_nonzero(plane <= r * r - a * a)) for a in ar)
            else:
                want = len(_ball_offsets(n, r, 4 * r + 8))
            assert maximal._ball_count(n, r) == want, (n, r)


class TestBallRows:
    # every ball of maximal is read from one chord table, _ball_rows; the
    # oracle lists the offsets of the whole (2r + 1)^n grid, on both sides
    # of 2r + 1 = N, where the ball is cut to the window [-N/2, N/2)^n
    @pytest.mark.parametrize("n, N, radii", [(1, 16, range(10)), (2, 16, range(10)),
                                             (3, 8, range(6))], ids=["n1", "n2", "n3"])
    def test_matches_offset_oracle(self, n, N, radii):
        spec = GridSpec(n=n, L=N / 8.0, N=N)
        for r in radii:
            offs, plain = _ball_offsets(n, r, N), _ball_offsets(n, r, 2 * r + 1)
            lo, box = maximal._ball_box(n, r * r, N)
            assert box.shape == tuple(offs.max(axis=0) + 1 - offs.min(axis=0)), r
            ranges, idx = maximal.ball_points(spec, 0.0, r * spec.dx)
            assert ranges == [(N // 2 + l, N // 2 + l + m) for l, m in zip(lo, box.shape)]
            # the same points, in the oracle's C order
            assert np.array_equal(np.stack(idx, axis=-1) + lo, offs), r
            assert maximal._ball_count(n, r) == len(plain), r
            # the chords, ascending in h by level, rebuild the plain ball
            points = []
            for k, level in enumerate(maximal._ball_chords(n, r)):
                assert [h for h, _ in level] == sorted({h for h, _ in level}), r
                for h, leads in level:
                    assert (2 * h + 1).bit_length() == k + 1 and list(leads) == sorted(leads)
                    points += [(*a, j) for a in leads for j in range(-h, h + 1)]
            assert sorted(points) == list(map(tuple, plain.tolist())), r
            shape = tuple(N + 1 + a for a in range(n))
            ball = np.zeros(shape)
            ball[tuple((offs % shape).T)] = 1.0
            assert np.array_equal(maximal._ball_spectrum(n, r, N, shape),
                                  scipy.fft.rfftn(ball)), r

    def test_box_fill_builds_no_offset_grid(self):
        # the indicator of a ball wider than the grid comes from the chord
        # table: a (2r + 1)^n grid of offsets took 152 MB here
        maximal._ball_box.cache_clear()
        maximal._ball_rows.cache_clear()
        tracemalloc.start()
        try:
            maximal._ball_box(3, 96 * 96, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak

    def test_point_indices_cached_and_read_only(self):
        # every ball of one pixel radius shares one read-only index set
        spec = GridSpec(n=2, L=8.0, N=64)
        box, idx = maximal.ball_points(spec, 0.0, 1.0)
        box2, idx2 = maximal.ball_points(spec, (1.0, -2.0), 1.0)
        assert box2 != box and all(a is b for a, b in zip(idx, idx2))
        for a in idx:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @pytest.mark.parametrize("n, L, N, radii, counts", [
        (2, 10.0, 64, (1.0, 0.7, 2.3), {1.0: 129}),
        (2, 60.0, 512, (2.0,), {2.0: 917}),
        (3, 5.0, 32, (0.6, 1.1), {})], ids=["n2-N64", "n2-N512", "n3-N32"])
    def test_points_at_non_integer_pixel_radii(self, n, L, N, radii, counts):
        # ball_points takes every grid point within the radius by the
        # distance check, once, at pixel radii off the integers too (the
        # floor of radius / dx dropped 16 of 129 points at L = 10, N = 64,
        # R = 1), around the origin and a center across the seam
        spec = GridSpec(n=n, L=L, N=N)
        for center in (0.0, L / 2.0 - 3.2 * spec.dx):
            c_px = np.round(np.broadcast_to(center, (n,)) / spec.dx + N // 2).astype(int)
            d = [np.minimum((np.arange(N) - c) % N, (c - np.arange(N)) % N) * spec.dx
                 for c in c_px]
            dist = np.sqrt(sum(np.meshgrid(*[x ** 2 for x in d], indexing="ij")))
            for radius in radii:
                ranges, idx = maximal.ball_points(spec, center, radius)
                got = sorted(tuple(int((l + i) % N) for (l, _), i in zip(ranges, point))
                             for point in zip(*idx))
                want = sorted(map(tuple, np.argwhere(dist <= radius).tolist()))
                assert got == want, (center, radius)
                assert len(got) == counts.get(radius, len(got)), radius


class TestRadiusDiscretization:
    # HL over every integer radius in [2^eps_min_exp, N/4] stays within the
    # provable factor max_m (|B_{2^{m+1}}| / |B_{2^m}|)^{1/p0} of the dyadic
    # HL, since a radius in [2^m, 2^{m+1}) has its ball inside B_{2^{m+1}}.
    # The tolerance covers the FFT means, which leave about 1e-15 far from
    # the support, where the exact mean is 0.
    def test_dense_hl_within_provable_factor(self):
        ecfg = ExperimentConfig(grid_l=8.0, grid_n=64, seed=7)
        spec, cfg = ecfg.spec(), ecfg.maximal_cfg()
        dyadic = cfg.eps_px_list(spec)
        factor = max((maximal._ball_count(spec.n, 2 * r) / maximal._ball_count(spec.n, r))
                     ** (1.0 / cfg.p0) for r in dyadic[:-1])
        assert factor == pytest.approx(3.205, abs=5e-4)
        spike = np.zeros(spec.shape)
        spike[(spec.N // 2,) * spec.n] = 1.0
        ratios = []
        for f in (_trial_fields(ecfg, 0)[0], SampledField(spec, spike)):
            eng = MaximalEngine(f, 0.0, cfg)
            eng.eps_list = list(range(dyadic[0], dyadic[-1] + 1))
            dense = eng.hl_values(_full_window(spec))
            hl = hl_maximal(f, cfg).values
            assert np.all(dense >= hl)
            assert np.all(dense <= factor * hl + 1e-12 * np.abs(f.values).max())
            ratios.append(np.max(dense[hl > 1e-6] / hl[hl > 1e-6]))
        assert all(1.0 < r < factor for r in ratios), ratios


class TestPhases:
    # the phase matrices gather one table of exp(sign 2 pi i k / N): the
    # bits of one complex exp per entry, at every row range (negative
    # starts, ranges longer than N) and both signs
    @pytest.mark.parametrize("N", [16, 64, 1024])
    def test_bitwise_equal_to_one_exp_per_entry(self, N):
        lines = tuple(sorted({0, 1, 2, 5 % N, N - 3, N - 1}))
        for lo, hi in ((0, N), (-7, 9), (-N - 5, 2 * N + 3), (N - 2, N + 1)):
            for sign in (1, -1):
                turns = np.multiply.outer(np.arange(lo, hi), np.array(lines, dtype=np.int64)) % N
                want = np.exp(turns * (sign * 2j * np.pi / N))
                got = maximal._phases(N, lines, lo, hi, sign)
                assert got.shape == want.shape and not got.flags.writeable
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (lo, hi, sign)


class TestOneDimensional:
    # on a line, hl_maximal matches its brute force, while br_star,
    # br_starstar and the selection reject the grid before any work
    SPEC1 = GridSpec(n=1, L=8.0, N=64)

    @pytest.mark.parametrize("op", OPERATORS)
    def test_operators_on_a_line(self, op, monkeypatch):
        f = make_test_function(self.SPEC1, "bump", center=0.3, radius=0.6)
        if op == "hl":
            got = hl_maximal(f, CFG).values
            want = brute_hl(f, CFG, [(i,) for i in range(self.SPEC1.N)])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
            return
        init, built = MaximalEngine.__init__, []
        monkeypatch.setattr(MaximalEngine, "__init__",
                            lambda eng, *args, **kw: built.append(args) or init(eng, *args, **kw))
        run = {"star": br_star, "starstar": br_starstar}[op]
        for call in (lambda: run(f, DELTA, CFG), lambda: exceptional_set(f, root_cube(f),
                                                                        DELTA, CFG)):
            with pytest.raises(ValueError, match="grid dimension n >= 2, got n = 1"):
                call()
        assert built == []


class TestFftconvolve:
    """The ball means against direct sums, and their transform lengths."""

    @pytest.mark.parametrize("shape, r_px, N", [((23, 30), 1, 64), ((23, 30), 4, 64),
                                                ((41,), 8, 32), ((9, 10, 11), 2, 8)])
    def test_ball_mean_matches_direct_sum(self, shape, r_px, N):
        # the mean over _ball_offsets at each point at least r_px inside
        arr = np.random.default_rng(r_px).random(shape)
        offs = _ball_offsets(len(shape), r_px, N)
        inner = [range(r_px, m - r_px) for m in shape]
        want = np.array([arr[tuple((offs + x).T)].mean() for x in itertools.product(*inner)])
        got = _ball_mean_linear(arr, r_px, N)
        assert got.shape == tuple(m - 2 * r_px for m in shape)
        assert np.max(np.abs(got.ravel() - want)) <= 1e-12 * arr.max()

    def test_transforms_at_the_larger_operands_fast_length(self, monkeypatch):
        # every convolution of an N = 256 selection node (the ball means;
        # truncated fields, partial tiles included, are band products)
        # transforms each axis at next_fast_len of its larger operand, not
        # of the full length m + k - 1
        ecfg = ExperimentConfig(grid_n=256, eps_min_exp=2, seed=7, trials=1)
        f, g = _trial_fields(ecfg, 0)
        operands, checked = [], []

        inverse = maximal._irfftn

        def spy_inverse(x, s, axes=None, real=True):
            if operands:
                fn, shapes = operands[-1]
                axes_ = range(len(s)) if axes is None else axes
                want = [scipy.fft.next_fast_len(max(m[i] for m in shapes), real)
                        for i in axes_]
                assert list(s) == want, (fn, shapes, s)
                checked.append(fn)
            return inverse(x, s, axes, real)

        def spy_conv(name, operand_shapes):
            fn = getattr(maximal, name)

            def spy(*args):
                operands.append((name, operand_shapes(*args)))
                try:
                    return fn(*args)
                finally:
                    operands.pop()
            monkeypatch.setattr(maximal, name, spy)

        monkeypatch.setattr(maximal, "_irfftn", spy_inverse)
        spy_conv("_ball_mean_linear",
                 lambda arr, r, N, n=None: (arr.shape, (2 * r + 1,) * arr.ndim))
        tiles, truncate = [], MaximalEngine._truncate

        def counted(eng, src, *args):
            if src.ndim > eng.spec.n:
                tiles.append(len(src))
            return truncate(eng, src, *args)
        monkeypatch.setattr(MaximalEngine, "_truncate", counted)
        exceptional_set(f, root_cube(f, g), ecfg.delta, ecfg.maximal_cfg())
        assert set(checked) == {"_ball_mean_linear"}
        assert tiles, "the node has no partial tile"


def _direct_truncate(spec, delta, eps_px, src, slo, zlo, zhi):
    """``sum_u K((z - u) mod N) src(u - slo)`` over the source box, for z in
    the index box ``[zlo, zhi)``, by a loop over the source points; K is the
    ``irfftn`` of the whole half symbol.  Leading axes of ``src`` stack
    sources.  Also returns the scale ``max |K| * sum |src|``, which bounds
    every value."""
    N, n = spec.N, spec.n
    sym = truncated_symbol(spec, delta, max(eps_px * spec.dx, 1.0)).values
    kern = scipy.fft.irfftn(sym[..., : N // 2 + 1], s=spec.shape)
    lead = src.shape[: src.ndim - n]
    out = np.zeros(lead + tuple(h - l for l, h in zip(zlo, zhi)), dtype=src.dtype)
    zs = [np.arange(l, h) for l, h in zip(zlo, zhi)]
    for u in np.ndindex(*src.shape[len(lead):]):
        k = kern[np.ix_(*((z - s - ui) % N for z, s, ui in zip(zs, slo, u)))]
        out += src[(...,) + u][(...,) + (None,) * n] * k
    return out, np.max(np.abs(kern)) * np.sum(np.abs(src), axis=tuple(range(len(lead), src.ndim)))


class TestTruncate:
    # _truncate against the direct sum over the source box, at 1e-12 of the
    # scale max |K| * sum |src|.  The z-boxes lie inside the grid, across its
    # seam and longer than the grid; the source boxes start at negative
    # offsets as the partial tiles' do.
    CASES = [
        (GridSpec(2, 8.0, 64), 4, (-6, 3), (9, 11),
         [((20, 30), (36, 41)), ((-9, 50), (5, 70)), ((-20, 10), (60, 18))]),
        (GridSpec(2, 8.0, 64), 16, (28, -2), (7, 5),
         [((0, 0), (47, 12)), ((3, -7), (80, 30))]),
        (GridSpec(3, 6.0, 32), 8, (-3, 14, 30), (5, 4, 6),
         [((0, 0, 0), (9, 7, 5)), ((-5, 28, 30), (6, 36, 70))]),
    ]

    @pytest.mark.parametrize("kind", ["real", "complex", "stacked"])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_direct_sum(self, case, kind):
        spec, eps_px, slo, shape, zboxes = self.CASES[case]
        rng = np.random.default_rng(case)
        src = rng.standard_normal(((3,) if kind == "stacked" else ()) + shape)
        if kind == "complex":
            src = src + 1j * rng.standard_normal(shape)
        eng = MaximalEngine(SampledField(spec, np.zeros(spec.shape)), DELTA, CFG)
        for zlo, zhi in zboxes:
            want, scale = _direct_truncate(spec, DELTA, eps_px, src, slo, zlo, zhi)
            got = eng._truncate(src, slo, eps_px, zlo, zhi)
            assert got.dtype == want.dtype and got.shape == want.shape
            err = np.max(np.abs(got - want), axis=tuple(range(got.ndim - spec.n, got.ndim)))
            assert np.all(err <= 1e-12 * scale), (zlo, zhi)
        assert any(h - l > spec.N for zlo, zhi in zboxes for l, h in zip(zlo, zhi))

    @pytest.mark.parametrize("spec", [GridSpec(2, 16.0, 256), GridSpec(2, 16.0, 1024),
                                      GridSpec(3, 4.0, 32)], ids=lambda s: f"n{s.n}-N{s.N}")
    def test_band_lines_are_the_ascending_nonzero_lines(self, spec):
        # the band products sum over these lines in this order, which the
        # domination digests depend on
        nz = bochner_riesz_symbol(spec, 0.2).values[..., : spec.N // 2 + 1] != 0
        axes = range(spec.n)
        want = tuple(tuple(np.flatnonzero(nz.any(axis=tuple(b for b in axes if b != a))).tolist())
                     for a in axes)
        assert maximal._band_lines(spec, 0.2) == want
