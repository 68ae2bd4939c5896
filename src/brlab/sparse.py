"""Dyadic mesh, stopping-time selection, sparsity certificates, bilinear forms.

The recursion follows the level-set construction: at a node ``Q`` the
trial field is read as ``f * 1_{6Q}`` (through the ``6Q`` box, with no
field built for the node), and the exceptional set

    E = { x in Q : star(f) + starstar(f) + M_{p0}(f) > C (avg_{6Q} |f|^{p0})^{1/p0} }

is thresholded with an adaptive constant (``C`` starts at ``C_INIT`` and
doubles until ``|E| <= |Q|/2``, giving up past ``C_MAX``), covered by
maximal dyadic cubes of ``D(Q)`` no smaller than ``RECURSION_FLOOR_CELLS``
cells per axis, and the recursion descends on ``(f * 1_{6Q_j}, Q_j)``.
Since ``6Q_j`` lies inside ``6Q``, restricting ``f`` itself to ``6Q_j``
equals restricting the parent's input.

A node's outputs depend on the operator sum ``phi`` only through the
comparisons ``phi > C * base`` on the ladder ``C = C_INIT, 2 C_INIT, ...``
up to ``C_MAX``, with ``base = (avg_{6Q} |f|^{p0})^{1/p0}``.  So
``MaximalEngine.phi_values`` walks the radii once for all three operators
and stops at the first radius that settles all of them: at every point,
the running sum and the sum with each operator's running maximum raised to
its certified bound for the radii left lie between the same two rungs.
The final ``phi`` lies in that bracket, and floating-point rounding is
monotone, so ``C``, the thresholded set, the children and the flagged
cubes are exactly those of the walk over every radius.

The exponents ``p0`` and ``q0`` come from the ``MaximalConfig`` passed in,
and each node is recorded as one ``TraceNode``.  Because ``|E| <= |Q|/2``
is certified before selection, the collection is sparse by construction,
and the certificate is verified in exact integer arithmetic on cell counts
(cube measures are ``cells^n * dx^n`` with dyadic ``cells``).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import (
    Box,
    GridSpec,
    SampledField,
    apply_symbol,
    box_sums,
    cube_average,
    prefix_sum,
)
from .maximal import MaximalConfig, MaximalEngine
from .multiplier import bochner_riesz_symbol

__all__ = [
    "ThresholdFailure",
    "DyadicCube",
    "SparseCollection",
    "SelectionTrace",
    "TraceNode",
    "root_cube",
    "exceptional_set",
    "build_sparse",
    "sparse_form",
    "bilinear_pairing",
    "collection_to_csv",
    "trace_to_json",
]

RECURSION_FLOOR_CELLS = 4  # cubes below 4 cells per axis (4^n samples) are never selected
C_INIT = 8.0        # threshold constant each node starts from
C_MAX = 2.0 ** 20   # past this, doubling gives up with ThresholdFailure


class ThresholdFailure(RuntimeError):
    """Raised when no admissible threshold constant achieves |E| <= |Q|/2."""


@dataclass(frozen=True)
class DyadicCube:
    """Address in the dyadic mesh D(Q0): root low corner (grid index), root
    side in cells, depth, and integer coordinates at that depth."""

    spec: GridSpec
    root_lo: tuple[int, ...]
    root_cells: int
    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.root_cells & (self.root_cells - 1):
            raise ValueError("root side must be a power-of-two number of cells")
        if self.root_cells >> self.level << self.level != self.root_cells:
            raise ValueError(f"level {self.level} too deep for root of {self.root_cells} cells")
        if not all(0 <= ix < (1 << self.level) for ix in self.index):
            raise ValueError(f"index {self.index} out of range at level {self.level}")

    @property
    def cells(self) -> int:
        return self.root_cells >> self.level

    @property
    def cell_count(self) -> int:
        return self.cells ** self.spec.n

    @property
    def lo_px(self) -> tuple[int, ...]:
        return tuple(self.root_lo[i] + self.index[i] * self.cells
                     for i in range(self.spec.n))

    @property
    def side(self) -> float:
        return self.cells * self.spec.dx

    @property
    def measure(self) -> float:
        return self.side ** self.spec.n

    def box(self) -> Box:
        dx, half = self.spec.dx, self.spec.N // 2
        lo = tuple((p - half) * dx for p in self.lo_px)
        return Box(lo, tuple(l + self.side for l in lo))

    def box6(self) -> Box:
        return self.box().dilate(6.0)

    def children(self) -> list["DyadicCube"]:
        kids = []
        for bits in itertools.product((0, 1), repeat=self.spec.n):
            kids.append(DyadicCube(self.spec, self.root_lo, self.root_cells,
                                   self.level + 1,
                                   tuple(2 * self.index[i] + bits[i]
                                         for i in range(self.spec.n))))
        return kids

    def parent(self) -> "DyadicCube":
        if self.level == 0:
            raise ValueError("root cube has no parent in D(Q0)")
        return DyadicCube(self.spec, self.root_lo, self.root_cells,
                          self.level - 1, tuple(ix // 2 for ix in self.index))

    @property
    def addr(self) -> tuple:
        return (self.level,) + self.index

    def window(self) -> tuple[tuple[int, int], ...]:
        return tuple((p, p + self.cells) for p in self.lo_px)


def root_cube(f: SampledField, g: SampledField | None = None) -> DyadicCube:
    """Smallest grid-aligned power-of-two cube Q0, centered in the domain,
    with ``supp f (and g) inside 6 Q0`` and ``6 Q0`` inside the domain."""
    boxes = [h.support for h in (f, g) if h is not None and h.support is not None]
    if not boxes:
        raise ValueError("root_cube needs at least one declared support box")
    union = boxes[0]
    for b in boxes[1:]:
        union = union.union(b)
    spec = f.spec
    corner_max = max(max(abs(l), abs(h)) for l, h in zip(union.lo, union.hi))
    min_cells = corner_max / (3.0 * spec.dx)
    m0 = RECURSION_FLOOR_CELLS
    while m0 < min_cells - 1e-9:
        m0 *= 2
    if 6 * m0 > spec.N:
        raise ValueError(
            f"supports too large for domain: 6 Q0 needs {6 * m0} cells > N = {spec.N}"
        )
    lo = (spec.N // 2 - m0 // 2,) * spec.n
    return DyadicCube(spec, lo, m0, 0, (0,) * spec.n)


@dataclass(frozen=True)
class TraceNode:
    """One selection node: its cube, the adaptive constant and threshold, the
    super-level set's share of the cube, and the cubes it selected."""

    cube: DyadicCube
    c: float
    threshold: float                 # C * (avg_{6Q} |f|^{p0})^{1/p0}
    e_ratio: Fraction                # |E| / |Q| in grid samples
    children: tuple[DyadicCube, ...]  # maximal dyadic cubes of E
    flagged: tuple[DyadicCube, ...]  # floor-terminated cubes (mass absorbed)


def _maximal_cubes(root: DyadicCube, e_mask: np.ndarray
                   ) -> tuple[list[DyadicCube], list[DyadicCube]]:
    """Maximal dyadic cubes of D(root) fully inside the level set, recursion
    stopping at the 4-cell floor (floor-terminated partial cubes flagged)."""
    prefix = prefix_sum(e_mask.astype(np.int64))

    selected: list[DyadicCube] = []
    flagged: list[DyadicCube] = []
    root_lo = root.lo_px
    stack = [root]
    while stack:
        cube = stack.pop()
        lo = tuple(cube.lo_px[i] - root_lo[i] for i in range(cube.spec.n))
        hi = tuple(l + cube.cells for l in lo)
        cnt = box_sums(prefix, lo, hi)
        if cnt == 0:
            continue
        if cnt == cube.cell_count and cube is not root:
            selected.append(cube)
        elif cube.cells // 2 >= RECURSION_FLOOR_CELLS:
            stack.extend(sorted(cube.children(), key=lambda c: c.addr, reverse=True))
        else:
            flagged.append(cube)
    selected.sort(key=lambda c: c.addr)
    flagged.sort(key=lambda c: c.addr)
    return selected, flagged


def exceptional_set(f: SampledField, q0_cube: DyadicCube, delta: float,
                    cfg: MaximalConfig) -> TraceNode:
    """The selection node of ``q0_cube``: threshold the sum of the three
    maximal operators (at ``cfg.p0`` and ``cfg.q0``) of ``f * 1_{6Q}`` on
    the cube's window.  ``f`` is read only through the ``6Q`` box, so its
    values outside it never enter the node.

    Starts at ``C_INIT`` and doubles the constant until the super-level set
    covers at most half of the cube; raises :class:`ThresholdFailure` past
    ``C_MAX`` (a sign that delta sits below the operators' boundedness
    range, or of grid pathology).
    """
    window, box6 = q0_cube.window(), q0_cube.box6()
    ladder = [C_INIT]
    while 2.0 * ladder[-1] <= C_MAX:
        ladder.append(2.0 * ladder[-1])

    base = cube_average(f, box6, cfg.p0)
    engine = MaximalEngine(f, delta, cfg, box=box6)
    phi = engine.phi_values(window, [c * base for c in ladder])

    half = q0_cube.cell_count // 2
    for c in ladder:
        mask = phi > c * base  # strict, as the level-set definition is written
        e_cells = int(np.count_nonzero(mask))
        if e_cells <= half:
            break
    else:
        raise ThresholdFailure(f"threshold failure: |E| > |Q|/2 up to C = {C_MAX}")
    cubes, flagged = _maximal_cubes(q0_cube, mask)
    return TraceNode(q0_cube, c, c * base, Fraction(e_cells, q0_cube.cell_count),
                     tuple(cubes), tuple(flagged))


@dataclass(frozen=True)
class SelectionTrace:
    nodes: tuple[TraceNode, ...]

    @property
    def depth(self) -> int:
        return max((n.cube.level for n in self.nodes), default=0) + 1

    @property
    def max_c(self) -> float:
        return max((n.c for n in self.nodes), default=0.0)


@dataclass(frozen=True)
class SparseCollection:
    """Rooted forest of selected cubes with its sparsity certificate."""

    root: DyadicCube
    cubes: tuple[DyadicCube, ...]
    children: dict  # DyadicCube -> tuple[DyadicCube, ...]

    def certificate(self) -> dict:
        """Per-cube ratio sum(|child|)/|cube| as an exact Fraction."""
        out = {}
        for cube in self.cubes:
            kids = self.children.get(cube, ())
            out[cube] = Fraction(sum(k.cell_count for k in kids), cube.cell_count)
        return out

    def verify(self) -> bool:
        """Exact sparsity check: every ratio <= 1/2, children disjoint and
        strictly inside their parent."""
        for cube, ratio in self.certificate().items():
            if ratio > Fraction(1, 2):
                return False
            kids = self.children.get(cube, ())
            seen = set()
            for k in kids:
                if not (k.level > cube.level and _contains(cube, k)):
                    return False
                lo, hi = k.lo_px, tuple(p + k.cells for p in k.lo_px)
                for other in seen:
                    if _overlap(lo, hi, other):
                        return False
                seen.add((lo, hi))
        return True


def _contains(parent: DyadicCube, kid: DyadicCube) -> bool:
    shift = kid.level - parent.level
    return all(kid.index[i] >> shift == parent.index[i] for i in range(parent.spec.n))


def _overlap(lo, hi, other) -> bool:
    olo, ohi = other
    return all(l < oh and ol < h for l, h, ol, oh in zip(lo, hi, olo, ohi))


def build_sparse(f: SampledField, g: SampledField | None, delta: float,
                 cfg: MaximalConfig = MaximalConfig()
                 ) -> tuple[SparseCollection, SelectionTrace]:
    """Iterative driver for the stopping-time selection.

    Pushes the root cube ``Q0`` and, at each cube, runs
    :func:`exceptional_set` on ``f`` (which reads ``f * 1_{6Q}``) and pushes
    the node's exceptional cubes ``Q_j``.  Terminates because every child
    covers at most half its parent and the 4-cell floor halts descent.  The
    collection and the trace come from the nodes sorted by address, each as
    :func:`exceptional_set` returns it; ``g`` only enters the choice of
    root cube.
    """
    q0_cube = root_cube(f, g)
    nodes: list[TraceNode] = []
    stack = [q0_cube]
    while stack:
        node = exceptional_set(f, stack.pop(), delta, cfg)
        nodes.append(node)
        stack.extend(reversed(node.children))

    nodes.sort(key=lambda node: node.cube.addr)
    coll = SparseCollection(q0_cube, tuple(node.cube for node in nodes),
                            {node.cube: node.children for node in nodes})
    return coll, SelectionTrace(tuple(nodes))


def sparse_form(coll: SparseCollection, f: SampledField, g: SampledField,
                p0: float, q0_dual: float) -> float:
    """``sum_Q (avg_{6Q} |f|^{p0})^{1/p0} (avg_{6Q} |g|^{q0'})^{1/q0'} |Q|``."""
    if p0 < 1 or q0_dual < 1:
        raise ValueError("form exponents must be >= 1")
    total = 0.0
    for cube in coll.cubes:
        b6 = cube.box6()
        total += (cube_average(f, b6, p0) * cube_average(g, b6, q0_dual)
                  * cube.measure)
    return total


def bilinear_pairing(f: SampledField, g: SampledField, delta: float) -> complex:
    """``<B f, g> = int B(f) conj(g) dx`` by Riemann sum.  ``B f`` is computed
    from f's support rows only on g's support box, outside which ``conj(g)``
    is 0; its products fill that box of one zero grid, so the sum keeps the
    order, and the bits, of the sum over the whole grid."""
    spec = f.spec
    read = g.support_ranges()
    bf = apply_symbol(f, bochner_riesz_symbol(spec, float(delta)), f.support_ranges(), read)
    box = read or [(0, spec.N)] * spec.n
    gs = g.take(box)
    prod = np.zeros(spec.shape, dtype=np.result_type(bf, gs))
    prod[tuple(slice(lo, hi) for lo, hi in box)] = bf * np.conj(gs)
    return complex(np.sum(prod) * spec.dx ** spec.n)


def collection_to_csv(coll: SparseCollection) -> str:
    """CSV serialization: ``level,ix,iy,side,certificate_ratio`` (index
    columns grow with the dimension)."""
    n = coll.root.spec.n
    idx_cols = ",".join(f"i{'xyz'[i] if i < 3 else i}" for i in range(n))
    lines = [f"level,{idx_cols},side,certificate_ratio"]
    cert = coll.certificate()
    for cube in coll.cubes:
        idx = ",".join(str(i) for i in cube.index)
        lines.append(f"{cube.level},{idx},{cube.side!r},{float(cert[cube])!r}")
    return "\n".join(lines) + "\n"


def trace_to_json(trace: SelectionTrace) -> str:
    payload = []
    for node in trace.nodes:
        payload.append({
            "level": node.cube.level,
            "index": list(node.cube.index),
            "c": node.c,
            "threshold": node.threshold,
            "e_ratio": str(node.e_ratio),
            "children": [list(k.index) + [k.level] for k in node.children],
            "flagged": len(node.flagged),
        })
    return json.dumps({"nodes": payload, "depth": trace.depth,
                       "max_c": trace.max_c}, indent=2, sort_keys=True)
