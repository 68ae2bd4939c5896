"""Weight characteristics over the fixed cube family, predicted bounds,
weighted ratios and vector-valued norms."""

import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from brlab import harness, weights
from brlab.grid import GridSpec, SampledField, lp_norm, make_test_function
from brlab.weights import (
    Weight,
    a1_characteristic,
    ainf_characteristic,
    ap_characteristic,
    check_ap_rh_product,
    checkerboard_weight,
    constant_weight,
    mixed_preset_report,
    power_weight,
    predicted_bound_report,
    random_smooth_weight,
    rh_characteristic,
    rh_inf_characteristic,
    vector_valued_norm,
    weighted_operator_ratio,
)

SPEC = GridSpec(n=2, L=4.0, N=64)


def brute_force_ap(w: Weight, p: float) -> float:
    """Loop-based recomputation over the same family."""
    vals = w.field.values.real
    best = 0.0
    for i in range(len(w.fam_lo)):
        sl = tuple(slice(w.fam_lo[i, ax], w.fam_lo[i, ax] + w.fam_side[i])
                   for ax in range(w.spec.n))
        chunk = vals[sl]
        best = max(best, chunk.mean() * (chunk ** (-1.0 / (p - 1.0))).mean() ** (p - 1.0))
    return best


class TestCubeFamily:
    def test_mins_maxs_match_per_cube_loop(self):
        # the doubling-table corners against one slice per cube, in 2-D and
        # 3-D, on every side the family holds: 1 to N/2 (powers of two and
        # the sides between) and N; a power w^s reads the base's extremes
        # raised to s, which is exact only if float ** is monotone, so it is
        # compared bitwise with its own values too
        for spec in (GridSpec(n=2, L=4.0, N=32), GridSpec(n=3, L=2.0, N=16)):
            for base in (random_smooth_weight(spec, seed=3, n_random=2000),
                         power_weight(spec, -0.5, n_random=2000),
                         checkerboard_weight(spec, 1.0, 2.0, block_px=3, n_random=2000)):
                for w in (base, *(base.pow(s) for s in (2.0, 0.5, -0.5, -1.0))):
                    vals = w.field.values.real
                    mins, maxs = w._mins, w._maxs
                    for i in range(len(w.fam_lo)):
                        sl = tuple(slice(w.fam_lo[i, ax], w.fam_lo[i, ax] + w.fam_side[i])
                                   for ax in range(spec.n))
                        assert mins[i] == vals[sl].min() and maxs[i] == vals[sl].max(), i
            assert set(w.fam_side.tolist()) == set(range(1, spec.N // 2 + 1)) | {spec.N}

    def test_weights_run_builds_each_statistic_once(self, monkeypatch):
        # one family with its index tables, shared by every base weight; one
        # min table per base weight, read by all of its powers, no max table,
        # and one prefix sum per (base, exponent) pair
        calls = Counter()
        tables, families = [], []

        def counted(name, key=None):
            orig = getattr(weights, name)

            def wrapper(*args, **kwargs):
                calls[name if key is None else key(*args)] += 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(weights, name, wrapper)

        counted("prefix_sum")
        counted("doubling_table", lambda base, op, n_levels, axes=None: op.__name__)
        family = weights._Family

        def recorded_family(*args):
            families.append(family(*args))
            return families[-1]
        monkeypatch.setattr(weights, "_Family", recorded_family)
        weights._build_family.cache_clear()
        init = weights._CubeStats.__init__

        def recorded_init(stats, *args):
            init(stats, *args)
            tables.append(stats)
        monkeypatch.setattr(weights._CubeStats, "__init__", recorded_init)
        cfg = harness.ExperimentConfig(grid_l=4.0, grid_n=32, trials=1, seed=7)
        harness.run_weights(cfg)
        spec = cfg.spec()
        n_presets = len(harness._weight_presets(spec, cfg.seed))
        assert calls["minimum"] == n_presets
        assert calls["maximum"] == 0
        pairs = sum(len(st.avgs) + ("log_avg" in vars(st)) for st in tables)
        assert calls["prefix_sum"] == pairs
        assert len(families) == 1 and all(st.family is families[0] for st in tables)

    def test_family_shared_and_read_only(self):
        a = constant_weight(SPEC, 1.0, family_seed=5, n_random=300)
        b = power_weight(SPEC, 0.5, family_seed=5, n_random=300)
        assert a.fam_lo is b.fam_lo and a.fam_side is b.fam_side
        assert not a.fam_lo.flags.writeable and not a.fam_side.flags.writeable

    @staticmethod
    def _family_per_cube(spec, seed, n_random):
        """One itertools.product tuple per dyadic cube, then the random cubes."""
        N, n = spec.N, spec.n
        lo_list, side_list = [], []
        side = N
        while side >= 1:
            for idx in itertools.product(range(N // side), repeat=n):
                lo_list.append([i * side for i in idx])
                side_list.append(side)
            side //= 2
        rng = np.random.default_rng(seed)
        for _ in range(n_random):
            s = int(rng.integers(2, N // 2 + 1))
            lo_list.append([int(rng.integers(0, N - s + 1)) for _ in range(n)])
            side_list.append(s)
        return np.asarray(lo_list, dtype=np.int64), np.asarray(side_list, dtype=np.int64)

    @pytest.mark.parametrize("n, N, n_random", [(1, 64, 40), (2, 32, 300), (3, 16, 60), (3, 16, 0)])
    def test_family_matches_per_cube_construction(self, n, N, n_random):
        spec = GridSpec(n=n, L=2.0, N=N)
        lo, side = weights._build_family(spec, 9, n_random)
        ref_lo, ref_side = self._family_per_cube(spec, 9, n_random)
        assert lo.dtype == side.dtype == np.int64
        assert lo.shape == ref_lo.shape and np.array_equal(lo, ref_lo)
        assert np.array_equal(side, ref_side)

    @staticmethod
    def _integers_loop(N, n, seed, count):
        """The random cubes as the scalar ``integers`` loop draws them."""
        rng = np.random.default_rng(seed)
        sides, los = [], []
        for _ in range(count):
            sides.append(int(rng.integers(2, N // 2 + 1)))
            los.append(rng.integers(0, N - sides[-1] + 1, size=n))
        return np.array(sides, dtype=np.int64), np.array(los, dtype=np.int64).reshape(-1, n)

    def test_random_cubes_match_integers_loop(self):
        # the lab's family: N = 128, n = 2, seed 0, 10,000 cubes
        side, lo = weights._random_cubes(128, 2, 0, 10_000)
        ref_side, ref_lo = self._integers_loop(128, 2, 0, 10_000)
        assert side.dtype == lo.dtype == np.int64
        assert np.array_equal(side, ref_side) and np.array_equal(lo, ref_lo)

    def test_random_cubes_match_integers_loop_through_rejections(self):
        # at N = 2^32 a position range N - s + 1 above 2^31 rejects up to half
        # of its words; a scalar replay of Lemire's multiply-shift on PCG64's
        # 32-bit words (the low half of each output, then the high half)
        # counts the rejections and must draw what the integers loop draws
        N, n, seed, count = 2**32, 2, 3, 200
        raws = iter(np.random.default_rng(seed).bit_generator.random_raw, None)
        words = (int(raw) >> shift & 0xFFFFFFFF for raw in raws for shift in (0, 32))
        rejected = 0

        def draw(span):
            nonlocal rejected
            while True:
                prod = next(words) * span
                if prod & 0xFFFFFFFF >= (2**32 - span) % span:
                    return prod >> 32
                rejected += 1

        replay_side, replay_lo = [], []
        for _ in range(count):
            replay_side.append(2 + draw(N // 2 - 1))
            replay_lo.append([draw(N - replay_side[-1] + 1) for _ in range(n)])
        ref_side, ref_lo = self._integers_loop(N, n, seed, count)
        assert rejected > 0
        assert replay_side == ref_side.tolist() and replay_lo == ref_lo.tolist()
        side, lo = weights._random_cubes(N, n, seed, count)
        assert np.array_equal(side, ref_side) and np.array_equal(lo, ref_lo)

    def test_negative_n_random_raises(self):
        with pytest.raises(ValueError, match="n_random"):
            constant_weight(SPEC, n_random=-3)

    @pytest.mark.parametrize("block_px", [0, -4])
    def test_checkerboard_block_below_one_raises(self, block_px):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="block_px"):
                checkerboard_weight(SPEC, block_px=block_px)


class TestCharacteristics:
    def test_constant_weight_all_one(self):
        w = constant_weight(SPEC, 1.0, n_random=500)
        assert ap_characteristic(w, 2.0) == 1.0
        assert a1_characteristic(w) == 1.0
        assert rh_inf_characteristic(w) == 1.0
        assert rh_characteristic(w, 2.0) == 1.0

    def test_scale_invariance(self):
        w = checkerboard_weight(SPEC, 1.0, 2.0, block_px=4, n_random=500)
        wc = Weight(SampledField(SPEC, 7.0 * w.field.values.real), w.family)
        for p in (1.5, 2.0, 3.0):
            assert ap_characteristic(wc, p) == pytest.approx(
                ap_characteristic(w, p), rel=1e-12)
        assert rh_characteristic(wc, 2.0) == pytest.approx(
            rh_characteristic(w, 2.0), rel=1e-12)

    def test_power_weight_matches_brute_force(self):
        w = power_weight(SPEC, 1.0, n_random=200)
        assert ap_characteristic(w, 2.0) == pytest.approx(brute_force_ap(w, 2.0), rel=1e-12)
        assert ap_characteristic(w, 2.0) >= 1.0

    def test_checkerboard_a1_matches_brute_force(self):
        w = checkerboard_weight(SPEC, 1.0, 2.0, block_px=8, n_random=200)
        vals = w.field.values.real
        best = 0.0
        for i in range(len(w.fam_lo)):
            sl = tuple(slice(w.fam_lo[i, ax], w.fam_lo[i, ax] + w.fam_side[i])
                       for ax in range(2))
            chunk = vals[sl]
            best = max(best, chunk.mean() / chunk.min())
        assert a1_characteristic(w) == pytest.approx(best, rel=1e-12)

    def test_all_characteristics_at_least_one(self):
        for seed in range(5):
            w = random_smooth_weight(SPEC, seed=seed, n_random=300)
            assert ap_characteristic(w, 2.0) >= 1.0
            assert a1_characteristic(w) >= 1.0
            assert rh_inf_characteristic(w) >= 1.0
            assert rh_characteristic(w, 1.5) >= 1.0

    def test_rh_monotone_in_s(self):
        w = checkerboard_weight(SPEC, 1.0, 2.0, block_px=4, n_random=300)
        vals = [rh_characteristic(w, s) for s in (1.25, 1.5, 2.0, 3.0)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi * (1 + 1e-12)

    def test_ap_nonincreasing_in_p(self):
        w = power_weight(SPEC, 0.5, n_random=300)
        vals = [ap_characteristic(w, p) for p in (1.5, 2.0, 3.0, 4.0)]
        for lo, hi in zip(vals, vals[1:]):
            assert lo >= hi * (1 - 1e-12)

    def test_a2_duality_exact(self):
        # [w]_{A_2} = [w^{-1}]_{A_2} bitwise on the shared family
        w = random_smooth_weight(SPEC, seed=3, n_random=500)
        assert ap_characteristic(w, 2.0) == ap_characteristic(w.pow(-1.0), 2.0)

    def test_rh_inf_vs_a1_of_inverse(self):
        # per-cube Jensen: max/avg <= max * avg(1/w), so the implemented
        # RH_infty constant sits below [1/w]_{A_1} on the same family
        w = checkerboard_weight(SPEC, 1.0, 3.0, block_px=4, n_random=400)
        assert rh_inf_characteristic(w) <= a1_characteristic(w.pow(-1.0)) * (1 + 1e-12)

    def test_positivity_enforced(self):
        vals = np.ones(SPEC.shape)
        vals[0, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            Weight.build(SampledField(SPEC, vals))

    def test_ap_decreases_to_ainf_limit(self):
        # [w]_{A_p} decreases in p to sup_B <w>_B exp(-<log w>_B) on a fixed
        # family; at p = 2^20 the gap is of order 1/p
        for w in (random_smooth_weight(SPEC, seed=4, amplitude=1.5, n_random=300),
                  power_weight(SPEC, 1.0, n_random=300),
                  checkerboard_weight(SPEC, 1.0, 3.0, block_px=4, n_random=300)):
            limit = ainf_characteristic(w)
            vals = [ap_characteristic(w, p) for p in (2.0, 16.0, 2.0 ** 10, 2.0 ** 20)]
            for lo, hi in zip(vals, vals[1:]):
                assert hi <= lo * (1 + 1e-12)
            assert all(v >= limit for v in vals)
            assert vals[-1] == pytest.approx(limit, rel=1e-5)

    def test_ainf_of_powers_scales_the_log_average(self):
        # w^s reads s * <log w>_B from its base's table
        w = random_smooth_weight(SPEC, seed=3, n_random=300)
        for s in (3.0, -2.0):
            fresh = Weight(w.pow(s).field, w.family)
            assert ainf_characteristic(w.pow(s)) == pytest.approx(
                ainf_characteristic(fresh), rel=1e-12)

    def test_ap_needs_p_above_one(self):
        w = constant_weight(SPEC, n_random=10)
        with pytest.raises(ValueError, match="a1"):
            ap_characteristic(w, 1.0)


class TestProductInequality:
    def test_constant_equals_one(self):
        w = constant_weight(SPEC, n_random=200)
        rep = check_ap_rh_product(w, 2.0, 2.0)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        assert rep.holds

    @pytest.mark.parametrize("q,s", [(2.0, 2.0), (2.0, 1.5), (1.5, 2.0),
                                     (1.0, 2.0), (3.0, 1.25)])
    def test_holds_across_weights(self, q, s):
        weights = [
            checkerboard_weight(SPEC, 1.0, 2.0, block_px=4, n_random=300),
            power_weight(SPEC, 0.5, n_random=300),
            random_smooth_weight(SPEC, seed=1, n_random=300),
            random_smooth_weight(SPEC, seed=2, amplitude=1.5, n_random=300),
        ]
        for w in weights:
            rep = check_ap_rh_product(w, q, s)
            assert rep.holds, (q, s, rep)

    def test_guards(self):
        w = constant_weight(SPEC, n_random=10)
        with pytest.raises(ValueError):
            check_ap_rh_product(w, 0.5, 2.0)
        with pytest.raises(ValueError):
            check_ap_rh_product(w, 2.0, 1.0)


class TestPredictedBound:
    def test_alpha_reference_value(self):
        w = constant_weight(SPEC, n_random=50)
        rep = predicted_bound_report(w, F(8, 5), F(6, 5), "below2")
        assert rep.alpha == 2.5
        assert rep.value == pytest.approx(1.0)

    def test_constant_weight_gives_one(self):
        w = constant_weight(SPEC, n_random=50)
        assert predicted_bound_report(w, F(3, 2), F(6, 5), "below2").value == pytest.approx(1.0)

    def test_alpha_blows_up_towards_endpoints(self):
        w = constant_weight(SPEC, n_random=50)
        alphas = [predicted_bound_report(w, F(p), F(6, 5), "below2").alpha
                  for p in ("3/2", "13/10", "5/4", "121/100")]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))

    def test_range_errors(self):
        w = constant_weight(SPEC, n_random=50)
        with pytest.raises(ValueError, match="below2"):
            predicted_bound_report(w, F(5, 2), F(6, 5), "below2")
        with pytest.raises(ValueError, match="above2"):
            predicted_bound_report(w, F(3, 2), F(6, 5), "above2")
        with pytest.raises(TypeError, match="exact rational"):
            predicted_bound_report(w, 1.6, 1.2, "below2")

    def test_above2_side(self):
        w = checkerboard_weight(SPEC, 1.0, 2.0, block_px=4, n_random=200)
        rep = predicted_bound_report(w, F(3), F(6, 5), "above2")
        # p0' = 6: alpha = max{1, 4/3}; indices p/2 = 3/2 and (p0'/2)' = 3/2
        assert rep.alpha == float(F(4, 3))
        assert rep.ap_char == ap_characteristic(w, 1.5)
        assert rep.rh_char == rh_characteristic(w, 1.5)
        assert rep.value >= 1.0


class TestWeightedRatio:
    def test_plane_wave_eigenvalue_flat_weight(self):
        spec = GridSpec(n=2, L=16.0, N=128)
        mesh = spec.meshgrid()
        pw = SampledField(spec, np.exp(2j * np.pi * mesh[0] * 0.5))
        w = constant_weight(spec, 3.0, n_random=10)
        delta = 0.3
        assert weighted_operator_ratio(pw, w, 2.0, delta) == pytest.approx(
            0.75 ** delta, rel=1e-10)

    def test_invariant_under_weight_scaling(self):
        spec = GridSpec(n=2, L=16.0, N=128)
        f = make_test_function(spec, "random_trig", seed=5, window_radius=1.5)
        w = random_smooth_weight(spec, seed=2, n_random=50)
        wc = Weight(SampledField(spec, 5.0 * w.field.values.real), w.family)
        a = weighted_operator_ratio(f, w, 1.5, 0.2)
        b = weighted_operator_ratio(f, wc, 1.5, 0.2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_no_violation_with_slack(self):
        # empirical ratio <= predicted bound * slack across the mini-suite
        spec = GridSpec(n=2, L=16.0, N=128)
        fs = [make_test_function(spec, "random_trig", seed=s, window_radius=1.5)
              for s in range(3)]
        for seed in range(3):
            w = random_smooth_weight(spec, seed=seed, amplitude=0.8, n_random=200)
            bound = predicted_bound_report(w, F(8, 5), F(6, 5), "below2").value
            for f in fs:
                assert weighted_operator_ratio(f, w, 1.6, 0.2) <= 10.0 * bound

    def test_zero_denominator(self):
        spec = GridSpec(n=2, L=16.0, N=128)
        w = constant_weight(spec, n_random=10)
        zero = SampledField(spec, np.zeros(spec.shape))
        with pytest.raises(ValueError, match="zero denominator"):
            weighted_operator_ratio(zero, w, 2.0, 0.2)


class TestVectorValued:
    def test_single_function_reduces_to_scalar(self):
        spec = GridSpec(n=2, L=16.0, N=128)
        f = make_test_function(spec, "bump", radius=0.8)
        delta = 0.25
        rep = vector_valued_norm([f], 2.0, 2.0, delta)
        from brlab.multiplier import apply_bochner_riesz
        expected = lp_norm(apply_bochner_riesz(f, delta), 2.0) / lp_norm(f, 2.0)
        assert rep.ratio == pytest.approx(expected, rel=1e-12)

    def test_p_equals_q_is_stacked_norm(self):
        spec = GridSpec(n=2, L=16.0, N=128)
        fs = [make_test_function(spec, "bump", radius=0.5 + 0.1 * i, amp=1.0 + i)
              for i in range(3)]
        p = 2.0
        rep = vector_valued_norm(fs, p, p, 0.2)
        stacked = sum(lp_norm(f, p) ** p for f in fs) ** (1.0 / p)
        assert rep.input_norm == pytest.approx(stacked, rel=1e-12)

    @pytest.mark.parametrize("n, N, L", [(2, 64, 8.0), (3, 16, 3.0)], ids=["n2", "n3"])
    def test_box_stack_matches_whole_grid_stack(self, n, N, L):
        # each input adds |h|^q on its support box only: the bits of the sum
        # over whole grids, for inputs and images, overlapping or not
        from brlab.multiplier import apply_bochner_riesz
        spec = GridSpec(n=n, L=L, N=N)
        rng = np.random.default_rng(n)
        fs = [make_test_function(spec, "bump", center=(rng.random(n) - 0.5) * L / 16.0,
                                 radius=L / 32.0 * (1.0 + rng.random()),
                                 amp=float(rng.standard_normal())) for _ in range(4)]
        fs.append(make_test_function(spec, "random_trig", seed=3, window_radius=L / 10.0))
        assert all(f.support is not None for f in fs)
        p, q, delta = 1.6, 2.5, 0.2

        def whole_stack(fields):
            acc = np.zeros(spec.shape)
            for h in fields:
                acc += np.abs(h.values) ** q
            return lp_norm(SampledField(spec, acc ** (1.0 / q)), p)

        rep = vector_valued_norm(fs, p, q, delta)
        assert rep.input_norm == whole_stack(fs) > 0.0
        assert rep.output_norm == whole_stack([apply_bochner_riesz(h, delta) for h in fs])

    def test_admissibility_flag(self):
        # the vv report's flag is the exact rule of its exponent record:
        # |7/9 - 4/9| = 1/3 is not < 1/3, where a float test can say it is
        for p, q, admissible in [(F(8, 5), F(5, 2), True), (F(6, 5), F(6), False),
                                 (F(9, 7), F(9, 4), False)]:
            cfg = harness.ExperimentConfig(grid_l=8.0, grid_n=64, trials=1, seed=2, p=p, q=q)
            rep = harness.run_vector_valued(cfg)
            assert rep.rows[0][2] is admissible and rep.summary["admissible"] is admissible
            assert rep.summary["exponent_record"]["vv_admissible"] == str(admissible).lower()


class TestMixedPreset:
    def test_value_finite_and_at_least_one(self):
        w = random_smooth_weight(SPEC, seed=4, amplitude=0.5, n_random=200)
        val = mixed_preset_report(w)
        assert math.isfinite(val)
        assert val >= 1.0 - 1e-12
