"""Stopping-time selection: root cube, exceptional sets, certificates, forms."""

import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import brlab
import brlab.sparse as sparse
from brlab.grid import (Box, GridSpec, SampledField, apply_symbol, cube_average,
                        make_test_function)
from brlab.harness import ExperimentConfig, _trial_fields
from brlab.maximal import MaximalConfig, MaximalEngine
from brlab.multiplier import bochner_riesz_symbol
from brlab.sparse import (
    DyadicCube,
    ThresholdFailure,
    bilinear_pairing,
    build_sparse,
    collection_to_csv,
    exceptional_set,
    TraceNode,
    root_cube,
    sparse_form,
    trace_to_json,
)

SPEC = GridSpec(n=2, L=16.0, N=128)
DELTA = 0.2
P0 = 1.2
CFG = MaximalConfig(p0=P0, q0=2.0)


def bump(radius=0.25, center=0.0, amp=1.0, spec=SPEC):
    return make_test_function(spec, "bump", center=center, radius=radius, amp=amp)


def parent(cube: DyadicCube) -> DyadicCube:
    """The dyadic parent in D(Q0) of a cube below the root."""
    assert cube.level > 0
    return DyadicCube(cube.spec, cube.root_lo, cube.root_cells, cube.level - 1,
                      tuple(ix // 2 for ix in cube.index))


def children(cube: DyadicCube) -> list[DyadicCube]:
    """The 2^n dyadic children of a cube, in address order."""
    return [DyadicCube(cube.spec, cube.root_lo, cube.root_cells, cube.level + 1,
                       tuple(2 * ix + bit for ix, bit in zip(cube.index, bits)))
            for bits in itertools.product((0, 1), repeat=cube.spec.n)]


def plain_maximal_cubes(cube: DyadicCube, e: np.ndarray):
    """Reference for ``sparse._maximal_cubes``: D(cube) cube by cube, level
    by level down to the floor, ``e`` on cube's window.  A cube that meets
    ``e`` and whose parent, if below ``cube``, does not lie in it is selected
    when it lies in ``e`` and is below ``cube``, and else flagged when it is
    at the floor (``cube`` itself too).  Both lists are sorted by address."""
    window = cube.window()

    def cells_of(q):
        return e[tuple(slice(a - l, a - l + q.cells) for a, (l, _) in zip(q.lo_px, window))]

    selected, flagged = [], []
    for k in range(int(np.log2(cube.cells // sparse.RECURSION_FLOOR_CELLS)) + 1):
        for off in itertools.product(range(2 ** k), repeat=cube.spec.n):
            q = DyadicCube(cube.spec, cube.root_lo, cube.root_cells, cube.level + k,
                           tuple((i << k) + o for i, o in zip(cube.index, off)))
            part = cells_of(q)
            if not part.any() or (k > 1 and cells_of(parent(q)).all()):
                continue
            if k > 0 and part.all():
                selected.append(q)
            elif q.cells < 2 * sparse.RECURSION_FLOOR_CELLS:
                flagged.append(q)
    return sorted(selected, key=lambda q: q.addr), sorted(flagged, key=lambda q: q.addr)


def spiked_trig(spec=GridSpec(n=2, L=32.0, N=512)):
    """A sharp bump on a random trigonometric field: its root node selects
    children, and the root's 6Q leaves room for support outside it."""
    return bump(radius=0.375, amp=15.0, center=(0.3, -0.2), spec=spec) + make_test_function(
        spec, "random_trig", seed=2, window_radius=1.8, num_modes=5)


class TestDyadicCube:
    def test_geometry(self):
        cube = DyadicCube(SPEC, (48, 48), 32, 0, (0, 0))
        assert cube.cells == 32
        assert cube.side == 32 * SPEC.dx
        assert cube.box().lo == (-2.0, -2.0)
        assert cube.box().hi == (2.0, 2.0)
        b6 = cube.box6()
        assert b6.lo == (-12.0, -12.0) and b6.hi == (12.0, 12.0)

    def test_children_partition(self):
        cube = DyadicCube(SPEC, (48, 48), 32, 0, (0, 0))
        kids = children(cube)
        assert len(kids) == 4
        assert sum(k.cell_count for k in kids) == cube.cell_count
        for k in kids:
            assert parent(k) == cube
            assert cube.box().contains_box(k.box())

    def test_level_and_index_guards(self):
        with pytest.raises(ValueError):
            DyadicCube(SPEC, (0, 0), 12, 0, (0, 0))  # not a power of two
        with pytest.raises(ValueError):
            DyadicCube(SPEC, (0, 0), 8, 1, (2, 0))   # index out of range


class TestMaximalCubes:
    # the per-level block sums of _maximal_cubes give the lists of the plain
    # per-cube walk: seeded random masks, unions of boxes, the empty and the
    # full mask, n = 2 and 3, on a root above the floor, on nodes below it
    # and on a root at the 4-cell floor
    @pytest.mark.parametrize("n", [2, 3], ids=["n2", "n3"])
    def test_matches_per_cube_walk(self, n):
        N = 64 if n == 2 else 32
        spec = GridSpec(n=n, L=N / 8.0, N=N)
        root = DyadicCube(spec, (N // 2 - 8,) * n, 16, 0, (0,) * n)
        floor = DyadicCube(spec, (N // 2 - 2,) * n, 4, 0, (0,) * n)
        rng = np.random.default_rng(n)
        seen = set()
        for cube in (root, children(root)[1], children(children(root)[-1])[0], floor):
            shape = (cube.cells,) * n
            masks = [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)]
            for _ in range(40):
                masks.append(rng.random(shape) < rng.random())
                boxes = np.zeros(shape, dtype=bool)
                for _ in range(3):
                    lo, width = rng.integers(0, cube.cells, n), rng.integers(1, cube.cells + 1, n)
                    boxes[tuple(slice(l, l + w) for l, w in zip(lo, width))] = True
                masks.append(boxes)
            for mask in masks:
                got = sparse._maximal_cubes(cube, mask)
                assert got == plain_maximal_cubes(cube, mask), (cube.addr, mask.sum())
                seen |= {(cube.level, q.level - cube.level, kind)
                         for kind, qs in zip(("selected", "flagged"), got) for q in qs}
        # every level of the root above the floor selects and flags, and the
        # floor root is flagged
        assert {(0, k, "selected") for k in (1, 2)} <= seen
        assert {(0, 2, "flagged"), (0, 0, "flagged")} <= seen


class TestRootCube:
    def test_minimal_for_central_bumps(self):
        f = bump(radius=SPEC.L / 64.0)
        g = bump(radius=SPEC.L / 64.0)
        q0 = root_cube(f, g)
        # smallest admissible power-of-two cube: 6 Q0 contains the supports
        assert q0.box6().contains_box(f.support)
        half = q0.cells // 2
        if half >= 4:
            smaller = DyadicCube(SPEC, (SPEC.N // 2 - half // 2,) * 2, half, 0, (0, 0))
            assert not smaller.box6().contains_box(f.support)

    def test_zero_g_uses_f_alone(self):
        f = bump(radius=0.5)
        g = SampledField(SPEC, np.zeros(SPEC.shape))
        q0 = root_cube(f, g)
        assert q0.box6().contains_box(f.support)

    def test_opposite_corner_supports(self):
        quarter = SPEC.L / 8.0
        f = bump(radius=0.2, center=(quarter - 0.25, quarter - 0.25))
        g = bump(radius=0.2, center=(-quarter + 0.25, -quarter + 0.25))
        q0 = root_cube(f, g)
        assert q0.box6().contains_box(f.support)
        assert q0.box6().contains_box(g.support)
        domain = Box((-SPEC.L / 2,) * 2, (SPEC.L / 2,) * 2)
        assert domain.contains_box(q0.box6())

    def test_support_too_large(self):
        # a declared support that forces 6 Q0 beyond the domain boundary
        f = SampledField(SPEC, np.zeros(SPEC.shape),
                         support=Box((-7.9, -7.9), (7.9, 7.9)))
        g = SampledField(SPEC, np.zeros(SPEC.shape),
                         support=Box((-7.9, -7.9), (7.9, 7.9)))
        with pytest.raises(ValueError, match="too large"):
            root_cube(f, g)

    def test_support_required(self):
        f = SampledField(SPEC, np.ones(SPEC.shape))
        with pytest.raises(ValueError, match="support"):
            root_cube(f, None)


class TestExceptionalSet:
    def test_zero_field_empty(self):
        f = SampledField(SPEC, np.zeros(SPEC.shape), support=Box((-1.0,) * 2, (1.0,) * 2))
        q0 = DyadicCube(SPEC, (48, 48), 32, 0, (0, 0))
        res = exceptional_set(f, q0, DELTA, CFG)
        assert res.children == ()
        assert res.e_ratio == 0

    @pytest.mark.parametrize("q0", [2.0, 3.0])
    def test_zero_on_6q_gives_the_empty_node(self, q0):
        # f is nonzero only outside 6Q: the node has C_INIT, a zero
        # threshold, an empty level set and no cubes
        f = bump(radius=0.4, center=(1.5, 0.0))
        q0_cube = DyadicCube(SPEC, (56, 56), 4, 0, (0, 0))
        assert f.support.lo[0] >= q0_cube.box6().hi[0]
        res = exceptional_set(f, q0_cube, DELTA, MaximalConfig(p0=P0, q0=q0))
        assert res == TraceNode(q0_cube, sparse.C_INIT, 0.0, Fraction(0), (), ())

    def test_sharp_bump_selects_center(self):
        spec = GridSpec(n=2, L=16.0, N=256)
        f = bump(radius=0.375, amp=15.0, center=(0.3, -0.2), spec=spec) + make_test_function(
            spec, "random_trig", seed=2, window_radius=1.8, num_modes=5)
        q0 = root_cube(f, None)
        res = exceptional_set(f, q0, DELTA, CFG)
        assert res.cube == q0
        assert len(res.children) >= 1
        # half-measure guarantee in exact integers
        assert 2 * sum(c.cell_count for c in res.children) <= q0.cell_count
        assert res.e_ratio <= Fraction(1, 2)
        # the spike drives the level set: some selected cube is near it
        dists = [np.hypot(c.box().center[0] - 0.3, c.box().center[1] + 0.2)
                 for c in res.children]
        assert min(dists) < 1.0

    def test_maximality_parent_leaves_level_set(self):
        spec = GridSpec(n=2, L=16.0, N=256)
        f = bump(radius=0.375, amp=15.0, center=(-0.4, 0.1), spec=spec) + make_test_function(
            spec, "random_trig", seed=7, window_radius=1.8, num_modes=5)
        q0 = root_cube(f, None)
        cfg = CFG
        res = exceptional_set(f, q0, DELTA, cfg)
        assert res.children
        # rebuild the level-set mask exactly as the algorithm saw it, on the
        # window of Q0
        engine = MaximalEngine(f, DELTA, cfg, box=q0.box6())
        window = q0.window()
        phi = (engine.star_values(window) + engine.starstar_values(window)
               + engine.hl_values(window))
        assert phi.shape == tuple(h - l for l, h in window)

        def rel(cube):
            return tuple(slice(l - w, h - w) for (l, h), (w, _) in zip(cube.window(), window))

        for cube in res.children:
            inside = phi[rel(parent(cube))] > res.threshold
            assert not inside.all()  # the dyadic parent escapes the level set
            assert (phi[rel(cube)] > res.threshold).all()

    def test_threshold_failure_raised(self, monkeypatch):
        monkeypatch.setattr(sparse, "C_INIT", 1e-9)
        monkeypatch.setattr(sparse, "C_MAX", 1e-8)
        f = bump(radius=0.3, amp=5.0)
        q0 = root_cube(f, None)
        with pytest.raises(ThresholdFailure):
            exceptional_set(f, q0, DELTA, CFG)

    def test_node_reads_f_only_through_6q(self):
        # a large bump outside 6Q leaves the node unchanged: the node reads
        # f * 1_{6Q}, not f
        f = spiked_trig()
        q0 = root_cube(f, None)
        far = bump(radius=0.3, amp=1e5, center=(3.5, 0.0), spec=f.spec)
        assert far.support.lo[0] >= q0.box6().hi[0]
        nodes = [exceptional_set(h, q0, DELTA, CFG) for h in (f, f + far)]
        assert nodes[0].children
        for attr in ("c", "threshold", "e_ratio", "children", "flagged"):
            assert getattr(nodes[0], attr) == getattr(nodes[1], attr), attr


def _full_walk_node(f, cube, delta, cfg):
    """The node of ``cube`` from the three operators' walks over every
    radius, summed and thresholded as the level-set definition reads."""
    window, box6 = cube.window(), cube.box6()
    base = cube_average(f, box6, cfg.p0)
    eng = MaximalEngine(f, delta, cfg, box=box6)
    phi = eng.star_values(window) + eng.starstar_values(window) + eng.hl_values(window)
    half = cube.cell_count // 2
    c = sparse.C_INIT
    while True:
        mask = phi > c * base
        e_cells = int(np.count_nonzero(mask))
        if e_cells <= half:
            break
        c *= 2.0
        if c > sparse.C_MAX:
            raise ThresholdFailure("no admissible C")
    cubes, flagged = sparse._maximal_cubes(cube, mask)
    return TraceNode(cube, c, c * base, Fraction(e_cells, cube.cell_count),
                     tuple(cubes), tuple(flagged))


class TestDecisionExactWalk:
    # exceptional_set stops its walk over the radii once the node's rung
    # and mask are settled; each of its nodes equals the full walk's
    @staticmethod
    def _checked_nodes(monkeypatch, ecfg, trials):
        """Every selection node of the trials, each checked against the full
        walk, with the number of radii the joint walks entered and the
        number their radius lists hold."""
        step, steps, nodes = MaximalEngine._starstar_step, [], []

        def counting(eng, *args):
            steps.append(args[1])
            return step(eng, *args)

        cfg = ecfg.maximal_cfg()
        for trial in trials:
            f, g = _trial_fields(ecfg, trial)
            with monkeypatch.context() as m:
                m.setattr(MaximalEngine, "_starstar_step", counting)
                _, trace = build_sparse(f, g, ecfg.delta, cfg)
            for node in trace.nodes:
                assert node == _full_walk_node(f, node.cube, ecfg.delta, cfg), (trial, node.cube)
            nodes += trace.nodes
        return nodes, len(steps), len(nodes) * len(cfg.eps_px_list(ecfg.spec()))

    def test_equals_full_walk_at_256(self, monkeypatch):
        ecfg = ExperimentConfig(grid_n=256, seed=7, trials=1)
        nodes, _, _ = self._checked_nodes(monkeypatch, ecfg, range(10))
        assert len(nodes) > 10 and any(n.children for n in nodes)

    def test_equals_full_walk_at_1024_on_floor_nodes(self, monkeypatch):
        # seed 7 trial 0: 17 nodes of every size, 9 of them floor nodes; the
        # 110 listed radii walk as 4 (5 while every rung had to be decided)
        ecfg = ExperimentConfig(grid_n=1024, eps_min_exp=4, seed=7, trials=1)
        nodes, walked, listed = self._checked_nodes(monkeypatch, ecfg, [0])
        floor = [n for n in nodes if n.cube.cells < 2 * sparse.RECURSION_FLOOR_CELLS]
        assert len(floor) >= 3
        assert walked <= 4 < listed / 2

    def test_equals_full_walk_at_q0_3(self, monkeypatch):
        # q0 > 2 brackets with the kernel bound of the truncated operators
        ecfg = ExperimentConfig(grid_n=256, q0=Fraction(3), seed=7, trials=1)
        _, walked, listed = self._checked_nodes(monkeypatch, ecfg, range(4))
        assert walked < listed


class TestBuildSparse:
    def test_zero_field_gives_root_only(self):
        f = SampledField(SPEC, np.zeros(SPEC.shape), support=Box((-1.0,) * 2, (1.0,) * 2))
        g = bump(radius=0.5)
        coll, trace = build_sparse(f, g, DELTA, CFG)
        assert len(coll.cubes) == 1
        assert coll.verify()

    def test_bump_tree_certificate_exact(self):
        f = bump(radius=0.15, amp=30.0) + make_test_function(
            SPEC, "random_trig", seed=9, window_radius=1.8, num_modes=5)
        g = bump(radius=1.2)
        coll, trace = build_sparse(f, g, DELTA, CFG)
        assert coll.verify()
        cert = coll.certificate()
        for cube, ratio in cert.items():
            assert isinstance(ratio, Fraction)
            assert ratio <= Fraction(1, 2)
        assert trace.depth <= int(math.log2(SPEC.N)) + 1

    def test_builds_no_node_fields(self, monkeypatch):
        # nodes read f through their 6Q box: the selection constructs no
        # SampledField, however many nodes it visits
        f = spiked_trig()
        built = []
        init = SampledField.__post_init__

        def counting(self):
            built.append(self.values.shape)
            init(self)

        monkeypatch.setattr(SampledField, "__post_init__", counting)
        coll, trace = build_sparse(f, None, DELTA, CFG)
        assert len(trace.nodes) > 1 and coll.verify()
        assert built == []

    def test_children_disjoint_and_inside(self):
        f = bump(radius=0.15, amp=30.0) + make_test_function(
            SPEC, "random_trig", seed=10, window_radius=1.8, num_modes=5)
        coll, _ = build_sparse(f, None, DELTA, CFG)
        for parent, kids in coll.children.items():
            boxes = [k.box() for k in kids]
            for i, a in enumerate(boxes):
                assert parent.box().contains_box(a)
                for b in boxes[i + 1:]:
                    overlap = all(al < bh and bl < ah for al, ah, bl, bh in
                                  zip(a.lo, a.hi, b.lo, b.hi))
                    assert not overlap

    def test_random_pairs_always_certify(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            f = make_test_function(SPEC, "random_trig", seed=seed,
                                   window_radius=1.5, num_modes=6) + bump(
                radius=0.2, amp=float(5 + 20 * rng.random()))
            g = make_test_function(SPEC, "random_trig", seed=100 + seed,
                                   window_radius=1.2, num_modes=6)
            coll, trace = build_sparse(f, g, DELTA, CFG)
            assert coll.verify()
            assert trace.depth <= int(math.log2(SPEC.N)) + 1


    def test_selection_independent_of_blas_threads(self):
        # the selection nodes must not depend on the BLAS thread count, which
        # can move the last bits of the truncated fields' matrix products:
        # at N = 256 (br_star's partial tiles at eps = 4 px included) and at
        # N = 1024, where threaded products moved the values between the
        # thread counts 1 and 2
        src = str(Path(brlab.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r})\n"
                "from brlab.harness import ExperimentConfig, _trial_fields\n"
                "from brlab.sparse import build_sparse, trace_to_json\n"
                "for n, e, seed, trials in ((256, 2, 7, 4), (1024, 4, 11, 2)):\n"
                "    cfg = ExperimentConfig(grid_l=16.0, grid_n=n, eps_min_exp=e, seed=seed)\n"
                "    for trial in range(trials):\n"
                "        f, g = _trial_fields(cfg, trial)\n"
                "        print(trace_to_json(build_sparse(f, g, cfg.delta, cfg.maximal_cfg())[1]))\n")
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": k}).stdout
                for k in ("1", "2")]
        assert outs[0].count('"nodes"') == 6
        assert outs[0] == outs[1]


class TestSparseForm:
    def test_singleton_indicator_value(self):
        # S = {Q0}, f = g = 1_{Q0}: form = 6^{-8/3} |Q0| for p0 = 6/5, q0' = 2
        q0 = DyadicCube(SPEC, (48, 48), 32, 0, (0, 0))
        vals = np.zeros(SPEC.shape)
        sl = tuple(slice(l, h) for l, h in q0.window())
        vals[sl] = 1.0
        ind = SampledField(SPEC, vals)
        coll_like = type("S", (), {})()
        from brlab.sparse import SparseCollection
        coll = SparseCollection(q0, (q0,), {q0: ()})
        form = sparse_form(coll, ind, ind, 6.0 / 5.0, 2.0)
        assert form == pytest.approx(6.0 ** (-8.0 / 3.0) * q0.measure, rel=1e-12)

    def test_zero_input(self):
        q0 = DyadicCube(SPEC, (48, 48), 32, 0, (0, 0))
        from brlab.sparse import SparseCollection
        coll = SparseCollection(q0, (q0,), {q0: ()})
        zero = SampledField(SPEC, np.zeros(SPEC.shape))
        g = bump(radius=0.5)
        assert sparse_form(coll, zero, g, P0, 2.0) == 0.0

    def test_homogeneous_in_g(self):
        f = bump(radius=0.4, amp=2.0)
        g = make_test_function(SPEC, "random_trig", seed=3, window_radius=1.0)
        coll, _ = build_sparse(f, g, DELTA, CFG)
        a = sparse_form(coll, f, g, P0, 2.0)
        b = sparse_form(coll, f, 2.0 * g, P0, 2.0)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_exponent_guard(self):
        q0 = DyadicCube(SPEC, (48, 48), 32, 0, (0, 0))
        from brlab.sparse import SparseCollection
        coll = SparseCollection(q0, (q0,), {q0: ()})
        f = bump(radius=0.3)
        with pytest.raises(ValueError):
            sparse_form(coll, f, f, 0.5, 2.0)


class TestBilinearPairing:
    def test_plane_wave_eigenvalue(self):
        mesh = SPEC.meshgrid()
        pw = SampledField(SPEC, np.exp(2j * np.pi * mesh[0] * 0.5))
        val = bilinear_pairing(pw, pw, DELTA)
        assert val == pytest.approx(0.75 ** DELTA * SPEC.L ** 2, rel=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(4)
        f = SampledField(SPEC, rng.standard_normal(SPEC.shape) + 1j * rng.standard_normal(SPEC.shape))
        g = SampledField(SPEC, rng.standard_normal(SPEC.shape) + 1j * rng.standard_normal(SPEC.shape))
        assert bilinear_pairing(f, g, DELTA) == pytest.approx(
            np.conj(bilinear_pairing(g, f, DELTA)), rel=1e-10)

    def test_cauchy_schwarz(self):
        from brlab.grid import lp_norm
        rng = np.random.default_rng(5)
        for seed in range(5):
            f = SampledField(SPEC, np.random.default_rng(seed).standard_normal(SPEC.shape))
            g = SampledField(SPEC, np.random.default_rng(seed + 50).standard_normal(SPEC.shape))
            assert abs(bilinear_pairing(f, g, DELTA)) <= lp_norm(f, 2.0) * lp_norm(g, 2.0) * (1 + 1e-10)


    @pytest.mark.parametrize("kind", ["real", "complex", "unsupported"])
    def test_bitwise_equal_to_whole_grid_product(self, kind):
        # the sum over one zero grid that holds the products on g's support
        # box has the bits of B f embedded in a zero grid times conj(g) on
        # the whole grid
        f = make_test_function(SPEC, "random_trig", seed=3, window_radius=1.5, num_modes=5)
        g = make_test_function(SPEC, "random_trig", seed=9, window_radius=1.2, num_modes=5)
        if kind == "complex":
            g = SampledField(SPEC, g.values * (0.6 - 0.8j), g.support)
        elif kind == "unsupported":
            g = SampledField(SPEC, g.values)
        read = g.block_ranges
        assert (read == ((0, SPEC.N),) * SPEC.n) == (kind == "unsupported")
        bf = apply_symbol(f, bochner_riesz_symbol(SPEC, DELTA), read)
        whole = np.zeros(SPEC.shape, dtype=bf.dtype)
        whole[tuple(slice(lo, hi) for lo, hi in read)] = bf
        bf = whole
        want = complex(np.sum(bf * np.conj(g.values)) * SPEC.dx ** SPEC.n)
        got = bilinear_pairing(f, g, DELTA)
        assert want != 0 and got == want


class TestThreeDimensions:
    def test_build_sparse_generic_in_dimension(self):
        spec = GridSpec(n=3, L=4.0, N=32)
        f = make_test_function(spec, "bump", radius=0.4, amp=8.0)
        g = make_test_function(spec, "bump", radius=0.35, center=(0.05, -0.05, 0.0))
        cfg = MaximalConfig(p0=1.2, q0=2.0, eps_min_exp=2)  # eps = 4 and 8 px at N = 32
        coll, trace = build_sparse(f, g, 0.3, cfg)
        assert coll.verify()
        form = sparse_form(coll, f, g, 1.2, 2.0)
        pairing = bilinear_pairing(f, g, 0.3)
        assert form > 0 and math.isfinite(abs(pairing) / form)
        csv = collection_to_csv(coll)
        assert csv.splitlines()[0] == "level,ix,iy,iz,side,certificate_ratio"


class TestSerialization:
    def test_csv_schema(self):
        f = bump(radius=0.15, amp=30.0) + make_test_function(
            SPEC, "random_trig", seed=15, window_radius=1.8, num_modes=5)
        coll, trace = build_sparse(f, None, DELTA, CFG)
        csv = collection_to_csv(coll)
        lines = csv.strip().split("\n")
        assert lines[0] == "level,ix,iy,side,certificate_ratio"
        assert len(lines) == len(coll.cubes) + 1
        payload = json.loads(trace_to_json(trace))
        assert payload["depth"] == trace.depth
        assert len(payload["nodes"]) == len(coll.cubes)

    def test_trace_json_schema(self):
        f = bump(radius=0.15, amp=30.0) + make_test_function(
            SPEC, "random_trig", seed=16, window_radius=1.8, num_modes=5)
        _, trace = build_sparse(f, None, DELTA, CFG)
        payload = json.loads(trace_to_json(trace))
        assert set(payload) == {"nodes", "depth", "max_c"}
        assert payload["nodes"]
        for node in payload["nodes"]:
            assert set(node) == {"level", "index", "c", "threshold", "e_ratio",
                                 "children", "flagged"}

