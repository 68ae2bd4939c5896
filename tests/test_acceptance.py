"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them as
they complete).  The heavy sweeps are shared through session fixtures: the
100-trial domination sweep serves both the certificate criterion and the
grid-size trend criterion.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from brlab.grid import GridSpec, SampledField, SpectralField, freq_sq, inverse_transform
from brlab.harness import ExperimentConfig, decay_slopes, fit_slope_vs_log2, run_prop41, run_prop42
from brlab.multiplier import (
    apply_bochner_riesz,
    apply_Sk,
    apply_truncated,
    chi,
    k_min,
)
from brlab import indices
from brlab.weights import (
    a1_characteristic,
    ap_characteristic,
    check_ap_rh_product,
    checkerboard_weight,
    constant_weight,
    power_weight,
    random_smooth_weight,
    rh_characteristic,
    rh_inf_characteristic,
    weighted_operator_ratio,
    vector_valued_norm,
)

SWEEP_SIZES = (256, 512, 1024)
SWEEP_EPS_MIN = {256: 2, 512: 3, 1024: 4}  # pins the finest radius to L/64


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
    return ok


@pytest.fixture(scope="session")
def domination_sweep():
    """100 seeded trials at each grid size; trials share continuum inputs."""
    from brlab.harness import run_domination

    reports = {}
    for size in SWEEP_SIZES:
        cfg = ExperimentConfig(grid_n=size, trials=100, seed=7,
                               eps_min_exp=SWEEP_EPS_MIN[size], workers=2)
        reports[size] = run_domination(cfg)
    return reports


class TestCriterion1:
    def test_partition_of_unity(self):
        t0 = time.time()
        xs = np.random.default_rng(0).uniform(2.0 ** -40, 1.0, 10_000)
        total = np.zeros_like(xs)
        for k in range(-40, 1):
            total += chi(np.ldexp(xs, -k))
        err = float(np.abs(total - 1.0).max())
        elapsed = time.time() - t0
        ok = err < 1e-12 and elapsed < 1.0
        assert _verdict(1, "partition of unity", ok,
                        f"max |sum chi - 1| = {err:.2e} in {elapsed:.2f}s")


class TestCriterion2:
    def test_multiplier_exactness(self):
        t0 = time.time()
        spec = GridSpec(n=2, L=16.0, N=512)
        mesh = spec.meshgrid()
        delta = 0.3
        errs = []

        pw_half = SampledField(spec, np.exp(2j * np.pi * mesh[0] * 0.5))
        out = apply_bochner_riesz(pw_half, delta)
        errs.append(np.abs(out.values - 0.75 ** delta * pw_half.values).max())

        pw_out = SampledField(spec, np.exp(2j * np.pi * (mesh[0] + mesh[1]) * 1.0))
        errs.append(np.abs(apply_bochner_riesz(pw_out, delta).values).max())
        errs.append(np.abs(apply_truncated(pw_out, delta, 2.0).values).max())

        # S_k eigenfunction: 1 - |xi|^2 = (3/4) 2^-1 via |xi|^2 = 5/8
        pw_k = SampledField(spec, np.exp(2j * np.pi * (mesh[0] * 0.25 + mesh[1] * 0.75)))
        out_k = apply_Sk(pw_k, -1, delta)
        errs.append(np.abs(out_k.values - 0.75 ** delta * pw_k.values).max())

        rng = np.random.default_rng(1)
        f = SampledField(spec, rng.standard_normal(spec.shape))
        a = apply_truncated(f, delta, 1.0 / 1.01)
        b = apply_bochner_riesz(f, delta)
        errs.append(np.abs(a.values - b.values).max() / np.abs(b.values).max())

        err = float(max(errs))
        elapsed = time.time() - t0
        ok = err < 1e-12 and elapsed < 5.0
        assert _verdict(2, "multiplier exactness", ok,
                        f"worst deviation {err:.2e} in {elapsed:.2f}s")


class TestCriterion3:
    def test_decomposition(self):
        t0 = time.time()
        spec = GridSpec(n=2, L=64.0, N=512)
        delta = 0.3
        km = k_min(spec)
        bound = (2.0 ** km) ** delta
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            co = np.zeros(spec.shape, dtype=complex)
            band = freq_sq(spec) < (1.0 - 2.0 ** km) ** 2
            cnt = int(band.sum())
            co[band] = rng.standard_normal(cnt) + 1j * rng.standard_normal(cnt)
            f = inverse_transform(SpectralField(spec, co))
            acc = np.zeros(spec.shape, dtype=complex)
            for k in range(km, 1):
                acc += 2.0 ** (k * delta) * apply_Sk(f, k, delta).values
            err = (np.linalg.norm(acc - apply_bochner_riesz(f, delta).values)
                   / np.linalg.norm(f.values))
            worst = max(worst, err)
        elapsed = time.time() - t0
        ok = worst <= bound and elapsed < 30.0
        assert _verdict(3, "dyadic decomposition", ok,
                        f"worst rel err {worst:.2e} <= bound {bound:.3f} in {elapsed:.1f}s")


class TestCriterion4:
    def test_certificates_exact(self, domination_sweep):
        rep = domination_sweep[512]
        all_valid = rep.summary["all_certificates_valid"]
        ok = all_valid and len(rep.rows) == 100
        assert _verdict(4, "sparsity certificates", ok,
                        f"100 trials at N=512, all exact-integer certificates valid: {all_valid}")


class TestCriterion5:
    def test_domination_trend(self, domination_sweep):
        maxes = []
        finite = True
        for size in SWEEP_SIZES:
            rep = domination_sweep[size]
            ratios = [row[4] for row in rep.rows if row[1] == "ok"]
            finite &= all(math.isfinite(r) for r in ratios)
            maxes.append(max(ratios))
        slope = fit_slope_vs_log2(SWEEP_SIZES, maxes)
        ok = finite and -0.3 <= slope <= 0.1
        assert _verdict(5, "sparse domination trend", ok,
                        f"max ratios {[f'{m:.3f}' for m in maxes]}, slope {slope:+.4f} in [-0.3, +0.1]")


class TestCriterion6:
    def test_kernel_decay(self):
        t0 = time.time()
        results = {}
        ok = True
        for k in (-4, -6, -8):
            s = decay_slopes(k, 0.3, n=2)
            results[k] = s
            ok &= -0.9 <= s["mid"] <= -0.3
            ok &= s["far"] <= -3.0
        elapsed = time.time() - t0
        ok &= elapsed < 60.0
        detail = "; ".join(f"k={k}: mid {v['mid']:.2f}, far {v['far']:.2f}"
                           for k, v in results.items())
        assert _verdict(6, "kernel decay", ok, f"{detail} in {elapsed:.1f}s")


class TestCriterion7:
    def test_local_estimates_stable(self):
        t0 = time.time()
        maxes41, maxes42 = {}, {}
        for size in (256, 512):
            cfg = ExperimentConfig(grid_l=32.0, grid_n=size, trials=5, seed=3)
            rep41 = run_prop41(cfg)
            cfg42 = ExperimentConfig(grid_l=32.0, grid_n=size, trials=9, seed=3)
            rep42 = run_prop42(cfg42)
            assert rep41.summary["n_configs"] >= 50
            assert rep42.summary["n_configs"] >= 50
            maxes41[size] = rep41.summary["max_ratio"]
            maxes42[size] = rep42.summary["max_ratio"]
        r41 = maxes41[512] / maxes41[256]
        r42 = maxes42[512] / maxes42[256]
        elapsed = time.time() - t0
        ok = 0.5 < r41 < 2.0 and 0.5 < r42 < 2.0 and elapsed < 1200.0
        assert _verdict(7, "local estimates", ok,
                        f"max-ratio factors across N: off-ball {r41:.2f}, "
                        f"diagonal {r42:.2f} (window (0.5, 2)) in {elapsed:.0f}s")


class TestCriterion8:
    def test_index_regression_table(self):
        t0 = time.time()
        checks = [
            indices.delta_critical(F(6, 5), 2) == F(1, 6),
            indices.p1_of(F(6, 5)) == F(4, 3),
            indices.rho_n(F(6, 5), 2) == F(1, 6),
            indices.theta_of(F(4, 3)) == F(1, 3),
            indices.delta_bar_2(F(6, 5)) == F(1, 6),
            indices.delta_bar_2(F(1)) == F(3, 4),
            indices.alpha_exponent(F(8, 5), F(6, 5), "below2") == F(5, 2),
            indices.admissible_pair(F(6, 5), F(2)) is True,
        ]
        elapsed = time.time() - t0
        ok = all(checks) and elapsed < 1.0
        assert _verdict(8, "index calculus", ok,
                        f"{sum(checks)}/8 exact identities in {elapsed:.3f}s")


class TestCriterion9:
    def test_weights(self):
        t0 = time.time()
        spec = GridSpec(n=2, L=4.0, N=64)

        wc = constant_weight(spec, 2.0, n_random=2000)
        const_ok = (ap_characteristic(wc, 2.0) == 1.0
                    and a1_characteristic(wc) == 1.0
                    and rh_inf_characteristic(wc) == 1.0
                    and rh_characteristic(wc, 2.0) == 1.0)

        weights = [
            checkerboard_weight(spec, 1.0, 2.0, block_px=4, n_random=2000),
            checkerboard_weight(spec, 1.0, 3.0, block_px=8, n_random=2000),
            power_weight(spec, 0.5, n_random=2000),
            power_weight(spec, -0.5, n_random=2000),
            power_weight(spec, 1.0, n_random=2000),
            wc,
        ] + [random_smooth_weight(spec, seed=s, amplitude=0.5 + 0.1 * (s % 5),
                                  n_random=2000) for s in range(14)]
        assert len(weights) >= 20
        pairs = ((2.0, 2.0), (2.0, 1.5), (1.5, 2.0), (1.0, 2.0), (3.0, 1.25))
        product_ok = True
        for w in weights:
            for (q, s) in pairs:
                product_ok &= check_ap_rh_product(w, q, s).holds

        duality_ok = all(
            ap_characteristic(w, 2.0) == ap_characteristic(w.pow(-1.0), 2.0)
            for w in weights
        )
        elapsed = time.time() - t0
        ok = const_ok and product_ok and duality_ok and elapsed < 300.0
        assert _verdict(9, "weight characteristics", ok,
                        f"constants exact: {const_ok}, product inequality "
                        f"{len(weights)}x{len(pairs)}: {product_ok}, A2 duality exact: "
                        f"{duality_ok} in {elapsed:.0f}s")


class TestCriterion10:
    def test_weighted_and_vector_valued_trend(self):
        from brlab.grid import make_test_function

        t0 = time.time()
        p, delta, p0 = 1.6, 0.2, 1.2
        ratios = {}
        vv = {}
        for size in (256, 512):
            spec = GridSpec(n=2, L=16.0, N=size)
            fs = [make_test_function(spec, "random_trig", seed=s,
                                     window_radius=1.5, num_modes=5)
                  for s in range(3)]
            presets = [
                constant_weight(spec, n_random=500),
                checkerboard_weight(spec, 1.0, 2.0, block_px=size // 16, n_random=500),
                power_weight(spec, 0.5, n_random=500),
                power_weight(spec, -0.5, n_random=500),
            ]
            ratios[size] = max(weighted_operator_ratio(f, w, p, delta)
                               for w in presets for f in fs)
            bumps = []
            rng = np.random.default_rng(5)
            for i in range(16):
                radius = spec.L / 16.0 * (0.7 + 0.6 * rng.random())
                center = (rng.random(2) - 0.5) * spec.L / 16.0
                bumps.append(make_test_function(spec, "bump", center=center,
                                                radius=radius,
                                                amp=float(rng.standard_normal())))
            assert indices.admissible_vv(F(8, 5), F(5, 2))
            rep = vector_valued_norm(bumps, 8.0 / 5.0, 5.0 / 2.0, delta)
            vv[size] = rep.ratio
        slope_w = fit_slope_vs_log2((256, 512), [ratios[256], ratios[512]])
        slope_v = fit_slope_vs_log2((256, 512), [vv[256], vv[512]])
        elapsed = time.time() - t0
        ok = (-0.3 <= slope_w <= 0.1 and -0.3 <= slope_v <= 0.1
              and elapsed < 900.0)
        assert _verdict(10, "weighted / vector-valued trend", ok,
                        f"weighted slope {slope_w:+.4f}, vv slope {slope_v:+.4f} "
                        f"in {elapsed:.0f}s")


class TestCriterion11:
    def test_cli_determinism(self, tmp_path):
        from brlab.cli import main as cli_main

        t0 = time.time()
        args = ["dominate", "--seed", "7", "--trials", "10"]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        rows_same = ((out1 / "dominate_rows.csv").read_bytes()
                     == (out2 / "dominate_rows.csv").read_bytes())
        summary_same = ((out1 / "dominate_summary.json").read_bytes()
                        == (out2 / "dominate_summary.json").read_bytes())
        elapsed = time.time() - t0
        ok = rows_same and summary_same and elapsed < 120.0
        assert _verdict(11, "determinism", ok,
                        f"byte-identical CSV: {rows_same}, JSON: {summary_same} "
                        f"in {elapsed:.0f}s")
