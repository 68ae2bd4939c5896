"""Harness: config parsing, report schemas, determinism, ratio suites, CLI."""

import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction
import numpy as np
import pytest
from scipy import fft

import brlab.cli as cli
import brlab.grid as grid
import brlab.harness as harness
import brlab.sparse as sparse
from brlab.cli import main as cli_main
from brlab.grid import (GridSpec, SampledField, _radius_sq_grid, _trig_sum, make_test_function,
                        read_field, write_field)
from brlab.harness import (
    ExperimentConfig,
    Report,
    _annulus_average,
    _annulus_field,
    _domination_trial,
    _trial_fields,
    fit_slope_vs_log2,
    run_decay,
    run_domination,
    run_prop41,
    run_prop42,
    run_vector_valued,
    run_weights,
)
from brlab.maximal import ball_average
from brlab.multiplier import apply_Sk, bochner_riesz_symbol, sk_symbol
from brlab.sparse import bilinear_pairing
from brlab.weights import random_smooth_weight

SMALL = dict(grid_l=16.0, grid_n=256, trials=2, seed=11, eps_min_exp=2)


class TestConfig:
    def test_from_file(self, tmp_path):
        cfg_text = """
        # comment line
        grid_n = 256
        grid_l = 8.0
        delta = 0.25
        p0 = 6/5
        trials = 3   # trailing comment
        seed = 42
        """
        path = tmp_path / "cfg.txt"
        path.write_text("\n".join(l.strip() for l in cfg_text.splitlines()))
        cfg = ExperimentConfig().with_file(path)
        assert cfg.grid_n == 256 and cfg.grid_l == 8.0
        assert cfg.delta == 0.25
        assert cfg.p0 == Fraction(6, 5)
        assert cfg.trials == 3 and cfg.seed == 42

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("no_such_knob = 3\n")
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig().with_file(path)

    def test_trials_guard(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)

    def test_workers_guard(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(workers=0)
        code = cli_main(["dominate", "--workers", "0", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("cmd", ["weights", "prop41"])
    def test_config_file_layers_over_command_defaults(self, monkeypatch, tmp_path, cmd):
        seen = []

        def capture(cfg):
            seen.append(cfg)
            return Report(cmd, ("x",))

        monkeypatch.setitem(cli._RUNNERS, cmd, capture)
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 3\n")
        out = ["--out", str(tmp_path / "out")]
        assert cli_main([cmd, "--seed", "3"] + out) == 0
        assert cli_main([cmd, "--config", str(path)] + out) == 0
        assert seen[1] == seen[0]
        assert (seen[1].grid_l, seen[1].grid_n) == cli._GRID_DEFAULTS[cmd]
        # a flag still overrides the file
        assert cli_main([cmd, "--config", str(path), "--seed", "5"] + out) == 0
        assert seen[2] == replace(seen[0], seed=5)

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed=-1)
        for cmd in ("decay", "vv"):
            assert cli_main([cmd, "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())


class TestReport:
    def test_csv_schema_enforced(self):
        rep = Report("demo", ("a", "b"))
        rep.rows.append((1, 2.5))
        assert rep.csv() == "a,b\n1,2.5\n"
        rep.rows.append((1,))
        with pytest.raises(ValueError, match="row width"):
            rep.csv()

    def test_write_outputs(self, tmp_path):
        rep = Report("demo", ("x",), [(1.5,)], {"k": 1})
        csv_path, json_path = rep.write(tmp_path)
        assert csv_path.read_text() == "x\n1.5\n"
        assert json.loads(json_path.read_text()) == {"k": 1}


class TestSlopes:
    def test_fit_slope(self):
        # exactly linear in log2 N
        assert fit_slope_vs_log2([256, 512, 1024], [1.0, 1.5, 2.0]) == pytest.approx(0.5)


class TestTrialFields:
    def test_deterministic(self):
        cfg = ExperimentConfig(**SMALL)
        f1, g1 = _trial_fields(cfg, 3)
        f2, g2 = _trial_fields(cfg, 3)
        assert np.array_equal(f1.values, f2.values)
        assert np.array_equal(g1.values, g2.values)

    def test_trials_differ(self):
        cfg = ExperimentConfig(**SMALL)
        f1, _ = _trial_fields(cfg, 0)
        f2, _ = _trial_fields(cfg, 1)
        assert not np.array_equal(f1.values, f2.values)

    def test_supports_recorded(self):
        cfg = ExperimentConfig(**SMALL)
        f, g = _trial_fields(cfg, 0)
        assert f.support is not None and g.support is not None


class TestBoxLocalTrial:
    # A domination trial at N = 1024 keeps its fields on their support
    # boxes.  tracemalloc follows numpy's buffers: building the fields, the
    # pairing's apply_symbol, the sparse form and the certificate check each
    # hold less than one float grid of N^n entries at any moment, so none of
    # them builds one, and the pairing holds its one zero grid (kept for the
    # bits of its sum) and less than one grid besides.  No step builds a
    # field's whole-grid view.  The selection's ball means at the largest
    # radii run on crops wider than the grid, so its peak is not bounded
    # here.
    def test_no_whole_grid_but_the_pairings(self, monkeypatch):
        import tracemalloc

        cfg = ExperimentConfig(grid_l=16.0, grid_n=1024, eps_min_exp=4, seed=7, trials=1)
        _domination_trial((cfg, 0))  # fills the symbol caches
        grid_bytes = 8 * cfg.grid_n ** 2
        peaks, open_steps = {}, []

        def fold():
            peak = tracemalloc.get_traced_memory()[1]
            for step in open_steps:
                step[1] = max(step[1], peak)
            tracemalloc.reset_peak()

        def measured(name, fn):
            def wrapper(*args, **kwargs):
                fold()
                base = tracemalloc.get_traced_memory()[0]
                open_steps.append([name, base])
                try:
                    return fn(*args, **kwargs)
                finally:
                    fold()
                    peaks.setdefault(name, []).append(open_steps.pop()[1] - base)
            return wrapper

        for mod, name in ((harness, "_trial_fields"), (harness, "bilinear_pairing"),
                          (sparse, "apply_symbol"), (harness, "sparse_form")):
            monkeypatch.setattr(mod, name, measured(name, getattr(mod, name)))
        monkeypatch.setattr(sparse.SparseCollection, "verify",
                            measured("verify", sparse.SparseCollection.verify))
        views, whole = [], SampledField.__dict__["values"].func
        monkeypatch.setattr(SampledField, "values",
                            property(lambda f: views.append(f) or whole(f)))
        tracemalloc.start()
        try:
            row = _domination_trial((cfg, 1))
        finally:
            tracemalloc.stop()
        assert row[1] == "ok" and views == []
        assert sorted(peaks) == ["_trial_fields", "apply_symbol", "bilinear_pairing",
                                 "sparse_form", "verify"]
        for name, [peak] in peaks.items():
            assert peak < (2 if name == "bilinear_pairing" else 1) * grid_bytes, name
        assert peaks["bilinear_pairing"][0] >= grid_bytes


class TestDomination:
    def test_report_shape_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(**SMALL)
        rep1 = run_domination(cfg)
        rep2 = run_domination(cfg)
        assert rep1.csv() == rep2.csv()
        assert rep1.summary == rep2.summary
        assert len(rep1.rows) == cfg.trials
        assert rep1.summary["all_certificates_valid"] is True
        assert math.isfinite(rep1.summary["max_ratio"])

    def test_parallel_matches_serial(self):
        cfg = ExperimentConfig(**SMALL)
        serial = run_domination(cfg)
        parallel = run_domination(ExperimentConfig(**{**SMALL, "workers": 2}))
        assert serial.csv() == parallel.csv()

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        import brlab.harness as harness

        pools = []

        class FakePool:
            """Records the requested pool size and maps serially in-process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        cfg = {**SMALL, "trials": 1}
        run_domination(ExperimentConfig(**{**cfg, "workers": 64}))
        assert pools == [3]
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)
        run_domination(ExperimentConfig(**{**cfg, "workers": 64}))
        assert pools == [3]  # one core: serial, no pool

    def test_below_critical_labeled(self):
        cfg = ExperimentConfig(**{**SMALL, "trials": 1, "delta": 0.01})
        rep = run_domination(cfg)
        assert rep.summary["below_critical"] is True
        assert rep.rows[0][-1] is True

    def test_above_critical_not_labeled(self):
        cfg = ExperimentConfig(**{**SMALL, "trials": 1, "delta": 0.2})
        rep = run_domination(cfg)
        assert rep.summary["below_critical"] is False

    def test_zero_field_marked_degenerate(self, monkeypatch):
        # a vanishing input yields a 0/0 ratio row, marked and excluded
        import brlab.harness as harness
        from brlab.grid import Box, GridSpec, SampledField

        spec = GridSpec(n=2, L=16.0, N=256)
        zero = SampledField(spec, np.zeros(spec.shape),
                            support=Box((-1.0, -1.0), (1.0, 1.0)))

        monkeypatch.setattr(harness, "_trial_fields", lambda cfg, t: (zero, zero))
        rep = run_domination(ExperimentConfig(**{**SMALL, "trials": 1}))
        assert rep.rows[0][1] == "degenerate"
        assert rep.summary["n_degenerate"] == 1
        assert rep.summary["max_ratio"] == 0.0


class TestDominationGolden:
    # Selection columns of seed 7, trials 0-9 at N = 256, recorded before the
    # radius pruning of the maximal operators; exactness-preserving speed-ups
    # must keep them.  The e_ratios of trials 2, 6 and 9 are those of
    # br_star's tile-center masks at eps = 4 px, which moved them from the
    # per-point masks' 0.03515625, 0.31640625 and 0.48828125 at the root.
    EXPECTED = [
        (0, "ok", 32.0, 32.0, 3, 3, True, "0:0.265625;2:0.0;2:0.0"),
        (1, "ok", 64.0, 64.0, 1, 1, True, "0:0.0"),
        (2, "ok", 32.0, 32.0, 1, 1, True, "0:0.04296875"),
        (3, "ok", 32.0, 32.0, 3, 2, True, "0:0.15625;2:0.0"),
        (4, "ok", 32.0, 32.0, 2, 2, True, "0:0.390625;1:0.0"),
        (5, "ok", 64.0, 64.0, 1, 1, True, "0:0.0234375"),
        (6, "ok", 32.0, 32.0, 3, 2, True, "0:0.32421875;2:0.0"),
        (7, "ok", 64.0, 64.0, 1, 1, True, "0:0.0"),
        (8, "ok", 64.0, 64.0, 1, 1, True, "0:0.0"),
        (9, "ok", 32.0, 32.0, 3, 3, True, "0:0.4921875;2:0.0;2:0.0"),
    ]

    def test_selection_columns_pinned(self):
        cfg = ExperimentConfig(grid_n=256, eps_min_exp=2, seed=7)
        for expected in self.EXPECTED:
            row = _domination_trial((cfg, expected[0]))
            # trial, status, c_top, c_max, depth, n_cubes, certificate_valid, e_ratios
            assert (row[:2] + row[5:]) == expected

    # pairing_abs, sparse_form and ratio of the same trials.  A change of FFT
    # library or transform layout moves them by rounding only; rel=1e-12
    # leaves room for that and for platform FFTs, and catches any change of
    # the selected cubes.
    EXPECTED_FLOATS = [
        (0, 0.025779887790309812, 0.0878127442786471, 0.2935779766602574),
        (1, 0.17505242691396666, 0.051925607264297687, 3.371215786133461),
        (2, 0.08423908843213329, 0.012309380929186405, 6.843487005296628),
        (3, 0.3738548681176083, 0.05720943358433101, 6.534846522584743),
        (4, 0.23961153418991915, 0.04095454013228773, 5.85067085153312),
        (5, 0.2524879424211918, 0.013312791855982746, 18.96581462044899),
        (6, 0.04140293313707469, 0.07774359339425453, 0.5325574922567765),
        (7, 2.108208305606535, 0.049149831943273756, 42.893499779200106),
        (8, 0.24529254211425527, 0.06524300114422714, 3.759675947033889),
        (9, 0.012894455345180855, 0.18539247647556553, 0.06955220400694268),
    ]

    def test_float_columns_pinned(self):
        cfg = ExperimentConfig(grid_n=256, eps_min_exp=2, seed=7)
        for trial, *floats in self.EXPECTED_FLOATS:
            row = _domination_trial((cfg, trial))
            assert row[2:5] == pytest.approx(tuple(floats), rel=1e-12)

    # Seed 7, trials 0-3 at N = 512 with eps_min_exp 3: every br_star radius
    # takes the tiled path, and the truncated fields come from the support
    # box.  Recorded before the support-local truncated fields; the floats
    # are compared at rel=1e-12 as above.  Trials 0, 2 and 3 are those of the
    # exact y-max over every candidate center.  It raised their root
    # e_ratios from the 64 thinned centers' 0.26953125, 0.04296875 and
    # 0.1611328125, and trial 2 now selects a cube at level 3 (it was
    # depth 1, 1 cube, sparse_form 0.012302812974442301, ratio
    # 6.853584337118093).
    EXPECTED_512 = [
        (0, "ok", 0.02577139131232651, 0.2009810157007435, 0.12822798821307366,
         32.0, 32.0, 4, 8, True,
         "0:0.2734375;2:0.03125;2:0.046875;3:0.0;3:0.0;3:0.0;3:0.0;3:0.0"),
        (1, "ok", 0.17498095678726214, 0.05193089544102038, 3.369496237283136,
         64.0, 64.0, 1, 1, True, "0:0.0"),
        (2, "ok", 0.08431836630413102, 0.01858430186367119, 4.537074726974681,
         32.0, 32.0, 4, 2, True, "0:0.0458984375;3:0.0"),
        (3, "ok", 0.3738572912002912, 0.09623491413580136, 3.8848404922222364,
         32.0, 32.0, 4, 4, True, "0:0.162109375;2:0.0;3:0.0;3:0.0"),
    ]

    def test_tiled_path_rows_pinned_at_512(self):
        cfg = ExperimentConfig(grid_n=512, eps_min_exp=3, seed=7)
        for expected in self.EXPECTED_512:
            row = _domination_trial((cfg, expected[0]))
            assert (row[:2] + row[5:]) == (expected[:2] + expected[5:])
            assert row[2:5] == pytest.approx(expected[2:5], rel=1e-12)


class TestOneFFTBackend:
    # Every transform in brlab runs on scipy.fft; the benchmark's tracer
    # counts FFTs by wrapping that module's entry points.
    def test_numpy_fft_never_called(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.fft called")

        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2",
                     "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft"):
            monkeypatch.setattr(np.fft, name, refuse)
        cfg = ExperimentConfig(grid_n=128, eps_min_exp=2, seed=7)
        assert _domination_trial((cfg, 0))[1] == "ok"
        f, _ = _trial_fields(cfg, 0)
        assert apply_Sk(f, -1, 0.2).values.dtype == np.float64
        random_smooth_weight(GridSpec(n=2, L=4.0, N=64), seed=1)
        write_field(f, tmp_path / "f.txt")
        assert np.array_equal(read_field(tmp_path / "f.txt").values, f.values)


def whole_grid(values, symbol):
    """The whole-grid real transform pair that ``grid.apply_symbol`` prunes."""
    x = fft.ifftshift(values)
    half = symbol[..., : x.shape[-1] // 2 + 1]
    return fft.fftshift(fft.irfftn(fft.rfftn(x) * half, s=x.shape))


class TestBandLimitedReads:
    # The local estimates read S_k f only on the index box of the ball's
    # points and the pairing reads B f only on g's support box; both keep
    # the bits of the whole-grid computation (a config off the goldens).
    SEEDS = (1, 5, 9)

    @staticmethod
    def cfg(seed):
        return ExperimentConfig(grid_l=32.0, grid_n=256, trials=1, seed=seed)

    @pytest.mark.parametrize("run", [run_prop41, run_prop42], ids=["prop41", "prop42"])
    def test_local_estimates_match_whole_grid(self, run, monkeypatch):
        def whole_grid_lhs(f, k, delta, radius):
            sk = whole_grid(f.values, sk_symbol(f.spec, k, delta))
            return ball_average(SampledField(f.spec, sk), 0.0, radius, 2.0)

        for seed in self.SEEDS:
            got = run(self.cfg(seed)).rows
            with monkeypatch.context() as m:
                m.setattr(harness, "_sk_ball_average", whole_grid_lhs)
                want = run(self.cfg(seed)).rows
            assert got == want
            assert any(row[-3] > 0.0 for row in got)

    def test_pairing_matches_whole_grid(self):
        for seed in self.SEEDS:
            cfg = self.cfg(seed)
            spec = cfg.spec()
            f, g = _trial_fields(cfg, 0)
            assert g.support is not None
            bf = whole_grid(f.values, bochner_riesz_symbol(spec, cfg.delta))
            want = complex(np.sum(bf * np.conj(g.values)) * spec.dx ** spec.n)
            got = bilinear_pairing(f, g, cfg.delta)
            assert got == want and got != 0

    @pytest.mark.parametrize("case", ["prop41", "prop42", "pairing"])
    def test_c2r_rows_within_read_box(self, case, monkeypatch):
        # fails if an S_k application of the local estimates, or the
        # pairing's B f, inverts more rows than its read box holds or
        # transforms more rows than its source box holds
        r2c, c2r, checked = [], [], []

        class CountingFFT:
            def __getattr__(self, name):
                return getattr(fft, name)

            @staticmethod
            def rfft(x, *args, **kwargs):
                r2c.append(math.prod(x.shape[:-1]))
                return fft.rfft(x, *args, **kwargs)

            @staticmethod
            def irfft(x, *args, **kwargs):
                c2r.append(math.prod(x.shape[:-1]))
                return fft.irfft(x, *args, **kwargs)

        def checking(values, symbol, src=None, read=None):
            assert read is not None, "multiplier read on the whole grid"
            r2c.clear()
            c2r.clear()
            out = grid.apply_symbol(values, symbol, src, read)
            spec = values.spec  # each case passes a field, not a grid
            full = [(0, spec.N)] * spec.n
            assert r2c == [math.prod(hi - lo for lo, hi in (src or full)[:-1])]
            rows = math.prod(hi - lo for lo, hi in read[:-1])
            assert c2r == [rows]
            assert rows < spec.N
            checked.append(rows)
            return out

        monkeypatch.setattr(grid, "fft", CountingFFT())
        if case == "pairing":
            monkeypatch.setattr(sparse, "apply_symbol", checking)
            for seed in self.SEEDS:
                cfg = self.cfg(seed)
                bilinear_pairing(*_trial_fields(cfg, 0), cfg.delta)
            assert len(checked) == len(self.SEEDS)
        else:
            monkeypatch.setattr(harness, "apply_symbol", checking)
            rep = {"prop41": run_prop41, "prop42": run_prop42}[case](self.cfg(1))
            assert len(checked) == len(rep.rows)


LOCAL_GOLDEN_CFG = ExperimentConfig(grid_l=32.0, grid_n=256, trials=1, seed=3)


class TestLocalEstimateGolden:
    # sha256 of the rows CSV and the summary JSON, recorded before the
    # annulus fields moved onto their support box and the two experiments
    # shared one driver.  The per-trial seeds come from CPython's tuple
    # ``hash``, so a change of trial seeding moves these pins.
    @pytest.mark.parametrize("run, trials, n_rows, csv_sha, json_sha", [
        (run_prop41, 1, 10,
         "26d186e3d27ce6d8768430edd00641d9efc9548bfb7358b39197f6d7689d3d65",
         "29f89659f56d9adf7387c664e59d4391c76230e55869584edf1d0ee2ce57e662"),
        (run_prop42, 2, 12,
         "141baba563ba448c3f9b63602008af00caecaf4aebbcb14684816fcf423a2b75",
         "4fa123be4fa10c6a81feb8d2048600e3fec2d5e151d9b0a0b32273d8238ff3d4"),
    ], ids=["prop41", "prop42"])
    def test_reports_pinned(self, run, trials, n_rows, csv_sha, json_sha, tmp_path):
        rep = run(replace(LOCAL_GOLDEN_CFG, trials=trials))
        assert len(rep.rows) == n_rows
        csv_path, json_path = rep.write(tmp_path)
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == json_sha


class TestLabGolden:
    # sha256 of lab outputs, recorded before the symbols, the decay
    # quadrature, the annulus fields, the cube extremes and the field writer
    # stopped computing values no report reads: each must stay byte-identical.
    # The decay pin was recorded again when its Bessel factor moved from
    # jv(0, .) to j0, which moved its slopes by at most 2.1e-12 relative.
    @pytest.mark.parametrize("run, cfg, csv_sha, json_sha", [
        (run_decay, ExperimentConfig(),
         "0ca86e86204ffdd8d8c5b8332e6201bb0ca0f3374d708fca83c5bc7e502d2821",
         "e92b41f0e62bafbacf71af5d98ca4d56c17b5090ca835a20ccb69a021bb2bf3b"),
        (run_weights, ExperimentConfig(grid_l=4.0, grid_n=64, trials=1, seed=2),
         "b0efd6125cce2dc930e40d0fe147dbfc624d260d8e7ea717c57dd1365ab941f1",
         "d3cae05d39268c60a652c6948009c4db069799ebf932521968aadad6c39553be"),
        (run_vector_valued, ExperimentConfig(grid_l=16.0, grid_n=256, trials=1, seed=2),
         "0c3ccc9008ba788693a33f17b911678e1fb4253f71f9ae29aa24d2cf7bfeb8bc",
         "8586fa599b527af79ebb50c5c5863e99cb98588fa5e49b22975783429bc2e929"),
    ], ids=["decay", "weights", "vv"])
    def test_reports_pinned(self, run, cfg, csv_sha, json_sha, tmp_path):
        csv_path, json_path = run(cfg).write(tmp_path)
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == json_sha

    def test_field_file_pinned(self, tmp_path):
        f = make_test_function(GridSpec(2, 4.0, 64), "random_trig", seed=5)
        write_field(f, tmp_path / "f.txt")
        assert hashlib.sha256((tmp_path / "f.txt").read_bytes()).hexdigest() == \
            "c3cca4a013ad7ca2aceb8338f1181b0411936a46e08311c2a281f038da453496"


class TestProp41:
    def test_suite_runs_with_finite_ratios(self):
        cfg = ExperimentConfig(grid_l=64.0, grid_n=512, trials=1, seed=5)
        rep = run_prop41(cfg)
        assert len(rep.rows) >= 20
        assert all(math.isfinite(r[6]) for r in rep.rows)
        assert rep.summary["max_ratio"] < 1e3

    def test_lhs_zero_when_support_inside_double_ball(self):
        # mask leaves nothing when f sits inside 2 B_r
        from brlab.grid import GridSpec, SampledField, _radius_sq_grid
        from brlab.maximal import ball_average
        from brlab.multiplier import apply_Sk

        spec = GridSpec(n=2, L=64.0, N=512)
        f = _make_inside = __import__("brlab.harness", fromlist=["_annulus_field"])
        inner = f._annulus_field(spec, 0.0, 1.9, seed=3)   # inside 2 B_1
        masked = SampledField(
            spec, inner.values * (np.sqrt(_radius_sq_grid(spec)) >= 2.0),
            support=inner.support)
        lhs = ball_average(apply_Sk(masked, -1, 0.2), 0.0, 1.0, 2.0)
        assert lhs == 0.0

    # (r, j) of every row at LOCAL_GOLDEN_CFG: annuli 2^j r <= |x| < 2^{j+1} r
    # inside the half side L/2 = 16
    R_J = [(1.0, 1), (1.0, 2), (1.0, 3), (2.0, 1), (2.0, 2), (4.0, 1)]

    def test_annulus_field_is_box_local(self):
        spec = LOCAL_GOLDEN_CFG.spec()
        r_grid = np.sqrt(_radius_sq_grid(spec))
        for r, j in self.R_J:
            r_in, r_out = 2.0 ** j * r, 2.0 ** (j + 1) * r
            seed = 100 * j + int(r)
            f = _annulus_field(spec, r_in, r_out, seed)
            # the whole-grid formula: the same draw, then the annulus cut
            rng = np.random.default_rng(seed)
            dirs = rng.standard_normal((6, spec.n))
            dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
            freqs = dirs * (1.5 * rng.random(6)[:, None])
            phases = rng.uniform(0.0, 2.0 * np.pi, 6)
            amps = rng.standard_normal(6)
            ref = _trig_sum(spec.meshgrid(), freqs, phases, amps)
            annulus = (r_grid >= r_in) & (r_grid < r_out)
            # bitwise the formula on the annulus, +0.0 (no sign bit) elsewhere
            assert f.values[annulus].tobytes() == ref[annulus].tobytes()
            assert np.all(f.values[~annulus] == 0.0)
            assert not np.signbit(f.values[~annulus]).any()
            # what the deleted mask of run_prop41 multiplied by 0
            assert np.all(f.values[r_grid < 2.0 * r] == 0.0)
            jj = 1
            while 2.0 ** (jj + 1) * r <= spec.L / 2.0:
                a_in, a_out = 2.0 ** jj * r, 2.0 ** (jj + 1) * r
                sel = (r_grid >= a_in) & (r_grid < a_out)
                expected = float(np.mean(np.abs(f.values[sel]) ** 1.2) ** (1.0 / 1.2))
                assert _annulus_average(f, a_in, a_out, 1.2) == expected
                jj += 1

    def test_input_vanishes_on_every_other_annulus(self, monkeypatch):
        # run_prop41 adds only the tail term of the input's own annulus; on
        # every other dyadic annulus inside L/2 its average is exactly 0.0
        import brlab.harness as harness
        inputs = []

        def recording(spec, r_in, r_out, seed):
            inputs.append((r_in, r_out, _annulus_field(spec, r_in, r_out, seed)))
            return inputs[-1][2]

        monkeypatch.setattr(harness, "_annulus_field", recording)
        rep = run_prop41(LOCAL_GOLDEN_CFG)
        assert len(inputs) == len(rep.rows) == 10
        half = LOCAL_GOLDEN_CFG.grid_l / 2.0
        annuli = [(2.0 ** m, 2.0 ** (m + 1)) for m in range(5) if 2.0 ** (m + 1) <= half]
        for r_in, r_out, f in inputs:
            assert (r_in, r_out) in annuli
            assert _annulus_average(f, r_in, r_out, 1.2) > 0.0
            for a_in, a_out in annuli:
                if (a_in, a_out) != (r_in, r_out):
                    assert _annulus_average(f, a_in, a_out, 1.2) == 0.0, (r_in, a_in)

    def test_homogeneity_of_ratio(self):
        # the lhs and rhs columns are both 1-homogeneous in f, so the ratio
        # of any row is invariant under rescaling the trial fields
        cfg = ExperimentConfig(grid_l=64.0, grid_n=512, trials=1, seed=6)
        rep = run_prop41(cfg)
        ratios = [r[6] for r in rep.rows if r[5] > 0]
        assert ratios and max(ratios) < 1e3

    def test_grid_too_small_rejected(self):
        cfg = ExperimentConfig(grid_l=4.0, grid_n=64, trials=1)
        with pytest.raises(ValueError, match="admissible"):
            run_prop41(cfg)


class TestProp42:
    def test_suite_runs_and_ratios_bounded(self):
        cfg = ExperimentConfig(grid_l=64.0, grid_n=512, trials=2, seed=5)
        rep = run_prop42(cfg)
        assert len(rep.rows) >= 10
        ratios = [r[5] for r in rep.rows if r[4] > 0]
        assert ratios and max(ratios) < 100.0

    def test_rho_monotonicity(self):
        # raising rho above the critical rate can only shrink the ratio
        cfg = ExperimentConfig(grid_l=32.0, grid_n=256, trials=1, seed=3)
        rep = run_prop42(cfg)
        k, eps, _, lhs, rhs, ratio = rep.rows[0]
        rho_used = rep.summary["rho"]
        bigger_rho = rho_used + 0.5
        rhs_bigger = rhs * 2.0 ** (-k * (bigger_rho - rho_used))
        assert rhs_bigger >= rhs  # k <= 0
        assert lhs / rhs_bigger <= ratio + 1e-12


class TestDecay:
    def test_slopes_in_criterion_windows(self):
        cfg = ExperimentConfig()
        rep = run_decay(cfg)
        slopes = rep.summary["slopes"]
        for k in ("-4", "-6", "-8"):
            assert -0.9 <= slopes[k]["mid"] <= -0.3
            assert slopes[k]["far"] <= -3.0

    def test_slopes_in_three_dimensions(self):
        # mid zone near the curvature rate -(n - 1)/2 = -1 (measured -0.84,
        # -0.98 and -1.15 at delta = 0.2), far zone superpolynomial
        rep = run_decay(ExperimentConfig(grid_dim=3))
        assert rep.summary["dim"] == 3
        slopes = rep.summary["slopes"]
        for k in ("-4", "-6", "-8"):
            assert -1.3 <= slopes[k]["mid"] <= -0.7
            assert slopes[k]["far"] <= -3.0


class TestWeightsRun:
    def test_schema_and_product_inequality(self):
        cfg = ExperimentConfig(grid_l=4.0, grid_n=64, trials=1, seed=2)
        rep = run_weights(cfg)
        assert rep.columns == ("weight_id", "p", "p0", "delta", "ApChar",
                               "RHChar", "alpha", "predicted", "empirical_ratio")
        assert rep.summary["product_inequality_all_hold"] is True
        assert rep.rows[0][0] == "const"
        const_row = rep.rows[0]
        assert const_row[4] == pytest.approx(1.0)   # ApChar
        assert const_row[7] == pytest.approx(1.0)   # predicted
        assert const_row[8] <= 1.0 + 1e-9           # empirical ratio on w = 1
        assert {row[6] for row in rep.rows} == {2.5}  # alpha, exactly 5/2


class TestVectorValuedRun:
    def test_admissible_default(self):
        cfg = ExperimentConfig(grid_l=16.0, grid_n=256, trials=1, seed=2)
        rep = run_vector_valued(cfg)
        assert rep.rows[0][2] is True  # (8/5, 5/2) admissible
        assert math.isfinite(rep.rows[0][6])


class TestCli:
    def test_indices_subcommand(self, capsys):
        code = cli_main(["indices", "--p0", "6/5", "--q0", "2", "--p", "8/5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delta_bar_2(p0)" in out and "1/6" in out

    def test_dominate_writes_outputs(self, tmp_path, capsys):
        code = cli_main(["dominate", "--grid-n", "256", "--trials", "1",
                         "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "dominate_rows.csv").exists()
        assert (tmp_path / "dominate_summary.json").exists()

    def test_determinism_byte_identical(self, tmp_path):
        args = ["dominate", "--grid-n", "256", "--trials", "2", "--seed", "7"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert (out1 / "dominate_rows.csv").read_bytes() == \
               (out2 / "dominate_rows.csv").read_bytes()
        assert (out1 / "dominate_summary.json").read_bytes() == \
               (out2 / "dominate_summary.json").read_bytes()

    def test_precondition_exit_code(self, tmp_path, capsys):
        code = cli_main(["prop41", "--grid-l", "4.0", "--grid-n", "64",
                         "--out", str(tmp_path)])
        assert code == 2

    def test_threshold_failure_exit_code(self, tmp_path, monkeypatch):
        # the adaptive constant makes organic threshold failures nearly
        # impossible, so check the CLI mapping directly
        from brlab.sparse import ThresholdFailure

        def boom(cfg):
            raise ThresholdFailure("synthetic")

        monkeypatch.setitem(cli._RUNNERS, "dominate", boom)
        code = cli_main(["dominate", "--out", str(tmp_path)])
        assert code == 3

    def test_bad_flag_value(self, tmp_path):
        code = cli_main(["dominate", "--p0", "not-a-fraction", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("cmd", ["decay", "prop42"])
    def test_negative_delta_rejected(self, tmp_path, capsys, cmd):
        out = tmp_path / "out"
        code = cli_main([cmd, "--grid-n", "64", "--grid-l", "8", "--trials", "1",
                         "--delta", "-0.5", "--out", str(out)])
        assert code == 2
        assert "delta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd,flags,field", [
        ("weights", ["--grid-n", "100"], "grid_n"),
        ("dominate", ["--p0", "3"], "p0"),
        ("vv", ["--q", "0"], "q must"),
        # ranges only one command's own checks know: MaximalConfig's q0 and
        # the weighted bound's side below 2
        ("dominate", ["--q0", "3/2", "--trials", "1"], "q0 must"),
        ("weights", ["--p", "5/2"], "below2"),
    ])
    def test_bad_config_leaves_no_output_dir(self, tmp_path, capsys, cmd, flags, field):
        out = tmp_path / "out"
        assert cli_main([cmd, *flags, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_empty_radius_set_leaves_no_output_dir(self, tmp_path, capsys):
        # 2^9 px exceeds N/4 = 64 px: dominate has no radius to walk
        path, out = tmp_path / "cfg.txt", tmp_path / "out"
        path.write_text("eps_min_exp = 9\n")
        assert cli_main(["dominate", "--config", str(path), "--grid-n", "256",
                         "--out", str(out)]) == 2
        assert "empty radius set" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["prop41", "prop42"])
    def test_no_admissible_configuration_leaves_no_output_dir(self, tmp_path, capsys, cmd):
        # at L = 4 no ball radius r >= 1 fits: 4r and 3r exceed L/2 = 2
        out = tmp_path / "out"
        assert cli_main([cmd, "--grid-l", "4", "--grid-n", "64", "--trials", "1",
                         "--out", str(out)]) == 2
        assert f"no admissible {cmd} configuration" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd,flags,field", [
        ("decay", ["--delta", "nan"], "delta"),
        ("decay", ["--delta", "inf"], "delta"),
        ("vv", ["--grid-l", "nan"], "grid_l"),
        ("prop42", ["--delta", "nan"], "delta"),
        ("dominate", ["--delta", "nan"], "delta"),
    ])
    def test_non_finite_value_leaves_no_output_dir(self, tmp_path, capsys, cmd, flags, field):
        # every comparison with NaN is False, so range checks alone let it in
        out = tmp_path / "out"
        assert cli_main([cmd, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert field in err and "finite" in err
        assert not out.exists()

    def test_non_finite_delta_in_config_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        for value in ("nan", "inf"):
            path.write_text(f"delta = {value}\n")
            with pytest.raises(ValueError, match="delta must be finite"):
                ExperimentConfig().with_file(path)

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code = cli_main(["decay", "--config", str(missing), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition error:") and err.count("\n") == 1
        assert str(missing) in err

    def test_out_is_existing_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        code = cli_main(["decay", "--grid-n", "64", "--out", str(taken)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition error:") and err.count("\n") == 1
        assert str(taken) in err

    def test_out_is_existing_file_fails_before_run(self, tmp_path, monkeypatch):
        def refuse(cfg):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setitem(cli._RUNNERS, "decay", refuse)
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert cli_main(["decay", "--grid-n", "64", "--out", str(taken)]) == 2

    def test_indices_out_is_existing_file_prints_nothing(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert cli_main(["indices", "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition error:") and str(taken) in captured.err

    @pytest.mark.parametrize("argv", [["--dim", "0"],
                                      ["--dim", "-1", "--provider", "assume_conjecture"]])
    def test_indices_rejects_dimension_below_one(self, capsys, argv):
        assert cli_main(["indices"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition error:") and captured.err.count("\n") == 1
        assert "dimension" in captured.err and argv[1] in captured.err

    @pytest.mark.parametrize("argv, name", [(["--q0", "1/2"], "q0"), (["--q0", "-3"], "q0"),
                                            (["--q", "0"], "q"), (["--q", "-1"], "q"),
                                            (["--delta-exact", "-1"], "delta")])
    def test_indices_rejects_exponents_out_of_range(self, capsys, argv, name):
        # the ranges every other subcommand enforces: q0 > 1, q >= 1, delta >= 0
        assert cli_main(["indices"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("precondition error:") and captured.err.count("\n") == 1
        assert f"{name} must be" in captured.err and argv[1] in captured.err
