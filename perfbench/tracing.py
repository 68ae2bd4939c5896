"""Per-layer tracing of brlab from outside the package.

The tracer wraps functions of the installed ``brlab`` modules for the
length of a traced pass and restores them afterwards; nothing under
``src/`` knows about it.  Each wrapped function object is replaced
everywhere it is referenced: in the module that defines it, in every
brlab module that imported it by name, and in module-level dicts such as
the CLI's runner table.  A function is therefore wrapped once and every
call is seen once, whichever name it was called through.

Spans (name, start, end, parent) are kept in memory and written when the
run ends.  For a span name, ``calls`` and ``busy_s`` count only the
outermost spans of that name, so a public wrapper around an engine method
with the same span name is not counted twice; ``self_s`` is span time
minus the time covered by child spans.

FFT work is counted, not spanned: one count per outermost library call
across the ``numpy.fft`` and ``scipy.fft`` entry points and
``scipy.signal.fftconvolve`` (FFTs that a library call makes internally
are not counted again), attributed to the innermost open span.  Points are
computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np
import numpy.fft
import scipy.fft
import scipy.signal

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")


def _fft_points(args, kwargs, out) -> int:
    """Samples transformed: the larger of the input and output sizes."""
    return max(int(np.size(args[0])), int(np.size(out)))


def _conv_points(args, kwargs, out) -> int:
    """Size of the full linear convolution of the two inputs."""
    s1, s2 = np.shape(args[0]), np.shape(args[1])
    return math.prod(a + b - 1 for a, b in zip(s1, s2))


class Tracer:
    """Spans and counters for one traced pass.  ``clock`` times the spans; a
    caller that interrupts the pass with work of its own passes a clock that
    stops during that work."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        # (kind, innermost span name) -> [calls, points]
        self.kernel: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        self._open: list[int] = []
        self._kernel_depth = 0
        self._undo: list = []
        self.missing: list[str] = []    # traced names this brlab does not have

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(idx)
            self.spans[idx][1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = self.clock()
                self._open.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def kernel_counted(self, kind, fn, points):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._kernel_depth:
                return fn(*args, **kwargs)
            self._kernel_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._kernel_depth -= 1
            where = self.spans[self._open[-1]][0] if self._open else "(none)"
            entry = self.kernel[(kind, where)]
            entry[0] += 1
            entry[1] += points(args, kwargs, out)
            return out
        return wrapper

    # -- patching -----------------------------------------------------------

    def replace_everywhere(self, orig, wrapped):
        """Swap ``orig`` for ``wrapped`` in every brlab module namespace and
        every dict held in one (e.g. the CLI runner table)."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "brlab" or modname.startswith("brlab.")):
                continue
            ns = vars(mod)
            for key, val in list(ns.items()):
                if val is orig:
                    ns[key] = wrapped
                    self._undo.append((ns, key, orig))
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            val[k2] = wrapped
                            self._undo.append((val, k2, orig))

    def _lookup(self, owner, attr):
        """The attribute, or None (recorded as missing) if a later brlab
        dropped or renamed it; its metrics then read 0."""
        val = vars(owner).get(attr)
        if val is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        return val

    def patch_function(self, module, attr, name, on_result=None):
        orig = self._lookup(module, attr)
        if orig is not None:
            self.replace_everywhere(orig, self.spanned(name, orig, on_result))

    def patch_method(self, cls, attr, name, on_result=None):
        raw = self._lookup(cls, attr)
        if raw is None:
            return
        if isinstance(raw, classmethod):
            new = classmethod(self.spanned(name, raw.__func__, on_result))
        else:
            new = self.spanned(name, raw, on_result)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def patch_kernel(self, module, attr, kind, points):
        orig = getattr(module, attr)
        wrapped = self.kernel_counted(kind, orig, points)
        setattr(module, attr, wrapped)
        self._undo.append((module, attr, orig))
        return orig, wrapped

    def restore(self):
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    # -- install on brlab ---------------------------------------------------

    def install(self):
        from brlab import cli, grid, harness, indices, maximal, multiplier, sparse, weights

        try:
            self._install(cli, grid, harness, indices, maximal, multiplier, sparse, weights)
        except BaseException:
            self.restore()
            raise

    def _install(self, cli, grid, harness, indices, maximal, multiplier, sparse, weights):
        count = self.counts

        # kernels: numpy.fft and scipy.fft entry points, scipy.signal.fftconvolve
        for mod in (numpy.fft, scipy.fft):
            for attr in FFT_NAMES:
                self.patch_kernel(mod, attr, "fft", _fft_points)
        conv, conv_wrapped = self.patch_kernel(scipy.signal, "fftconvolve",
                                               "fftconvolve", _conv_points)
        self.replace_everywhere(conv, conv_wrapped)

        # maximal: engine methods and the public wrappers share a span name
        for attr, name in (("star_values", "maximal.br_star"),
                           ("starstar_values", "maximal.br_starstar"),
                           ("hl_values", "maximal.hl")):
            self.patch_method(maximal.MaximalEngine, attr, name)
        for attr, name in (("br_star", "maximal.br_star"),
                           ("br_starstar", "maximal.br_starstar"),
                           ("hl_maximal", "maximal.hl")):
            self.patch_function(maximal, attr, name)

        # sparse
        def on_build(args, kwargs, result):
            trace = result[1]
            floor = kwargs.get("floor_cells", sparse.RECURSION_FLOOR_CELLS)
            c_init = kwargs.get("c_init", 8.0)
            count["sparse.nodes"] += len(trace.nodes)
            count["sparse.floor_nodes"] += sum(1 for n in trace.nodes
                                               if n.cube.cells < 2 * floor)
            count["sparse.c_doublings"] += sum(round(math.log2(n.c / c_init))
                                               for n in trace.nodes)
            count["sparse.cubes_selected"] += sum(len(n.children) for n in trace.nodes)

        self.patch_function(sparse, "build_sparse", "sparse.build_sparse", on_build)
        for attr in ("exceptional_set", "sparse_form", "bilinear_pairing"):
            self.patch_function(sparse, attr, f"sparse.{attr}")
        self.patch_method(sparse.SparseCollection, "verify", "sparse.verify")

        # grid
        for attr in ("make_test_function", "mask_to_box", "cube_average"):
            self.patch_function(grid, attr, f"grid.{attr}")

        def on_write(args, kwargs, result):
            count["grid.write_field.bytes"] += os.path.getsize(args[1])

        def read_sized(fn):
            @functools.wraps(fn)
            def wrapper(path):
                count["grid.read_field.bytes"] += os.path.getsize(path)
                return fn(path)
            return wrapper

        self.patch_function(grid, "write_field", "grid.write_field", on_write)
        read = self._lookup(grid, "read_field")
        if read is not None:
            self.replace_everywhere(read, self.spanned("grid.read_field", read_sized(read)))

        post_init = grid.SampledField.__post_init__

        def counted_post_init(field):
            post_init(field)
            count["grid.SampledField.constructs"] += 1
            count["grid.SampledField.bytes"] += field.values.nbytes

        grid.SampledField.__post_init__ = counted_post_init
        self._undo.append((grid.SampledField, "__post_init__", post_init))

        # multiplier
        for attr in ("apply_Sk", "apply_bochner_riesz", "kernel_profile"):
            self.patch_function(multiplier, attr, f"multiplier.{attr}")
        for attr in ("bochner_riesz_symbol", "truncated_symbol", "sk_symbol"):
            self.patch_function(multiplier, attr, "multiplier.symbols")

        # weights
        def on_weight(args, kwargs, result):
            count["weights.family_cubes"] += len(result.fam_lo)

        self.patch_method(weights.Weight, "build", "weights.Weight.build", on_weight)
        self.patch_method(weights.Weight, "_mins_maxs", "weights.Weight.mins_maxs")
        for attr in ("ap_characteristic", "a1_characteristic",
                     "rh_inf_characteristic", "rh_characteristic"):
            self.patch_function(weights, attr, "weights.characteristics")
        for attr in ("check_ap_rh_product", "weighted_operator_ratio",
                     "vector_valued_norm"):
            self.patch_function(weights, attr, f"weights.{attr}")

        # indices, harness, cli
        self.patch_method(indices.ExponentRecord, "compute", "indices.ExponentRecord.compute")
        for attr in HARNESS_RUNNERS:
            self.patch_function(harness, attr, f"harness.{attr}")
        self.patch_function(harness, "_trial_fields", "harness.trial_fields")

        def on_report(args, kwargs, result):
            count["harness.Report.write.bytes"] += sum(os.path.getsize(p) for p in result)

        self.patch_method(harness.Report, "write", "harness.Report.write", on_report)
        self.patch_function(cli, "main", "cli.main")

    # -- summary ------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost calls, busy time and self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["self_s"] += (end - start) - child_time[i]
            outermost = True
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    outermost = False
                    break
                p = self.spans[p][3]
            if outermost:
                entry["calls"] += 1
                entry["busy_s"] += end - start
        return out

    def kernel_totals(self) -> dict[str, dict[str, int]]:
        """Per kernel kind and per (kind, attributed span): calls and points."""
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "points": 0})
        for (kind, where), (calls, points) in self.kernel.items():
            for key in (kind, f"{kind}.in.{where}"):
                out[key]["calls"] += calls
                out[key]["points"] += points
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


HARNESS_RUNNERS = ("run_prop41", "run_prop42", "run_decay", "run_weights",
                   "run_vector_valued")
