"""Benchmark-side tracing: wrap arquiver's public functions in timing spans.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces each traced
function at every place it is bound: the module globals of every loaded
``arquiver`` module that hold the original object (so ``knitting.hom_basis``
and ``modules.hom_basis`` are both wrapped), and the class attribute for
methods such as ``HomSpace.coords`` or ``Matrix.__mul__``.  ``uninstall``
puts the originals back; ``with tracer:`` does both.

Each call becomes a span ``(id, parent, name, start, end)``.  Per name the
tracer keeps the call count and the self time (a span's duration minus the
time covered by its child spans).  Span records are kept
in memory up to ``span_cap`` and written out by ``write_spans``; the
aggregates always cover every call.
"""

import functools
import importlib
import json
import sys
import time

LAYERS = ("linalg", "algebra", "modules", "knitting", "cuts", "structure", "formats", "cli")


def _matrix_cells(args, kwargs):
    m = args[0]
    return m.nrows * m.ncols


def _hom_unknowns(args, kwargs):
    x, y = args[0], args[1]
    return sum(x.dims[v] * y.dims[v] for v in x.alg.quiver.vertices)


# (layer, attribute path, argument counter, result counter).  The counters
# add ``<name>.<counter>`` to the tracer's counts; a ``None`` entry means the
# function only gets a span.
TRACED = [
    ("linalg", "rref", ("cells", _matrix_cells), None),
    ("linalg", "kernel_basis", None, None),
    ("linalg", "solve", None, None),
    ("linalg", "Matrix.__mul__", None, None),
    ("algebra", "parse_presentation", None, None),
    ("algebra", "build_basis", None, None),
    ("modules", "hom_basis", ("unknowns", _hom_unknowns), None),
    ("modules", "HomSpace.coords", None, None),
    ("modules", "ModuleMap.compose", None, None),
    ("modules", "is_isomorphic", None, None),
    ("modules", "find_isomorphism", None, None),
    ("modules", "decompose_with_inclusions", None, None),
    ("modules", "almost_split_sequence", None, None),
    ("modules", "translate", None, None),
    ("modules", "radical_submodule", None, None),
    ("modules", "end_radical_coords", None, None),
    ("modules", "sincere_faithful", None, None),
    ("modules", "annihilator", None, None),
    ("modules", "end_algebra_analysis", None, None),
    ("modules", "ext1_dim", None, None),
    ("modules", "pdim_le_1", None, None),
    ("structure", "primitive_orthogonal_idempotents", None, None),
    ("structure", "is_hereditary", None, None),
    ("structure", "StructureAlgebra.radical", None, None),
    ("knitting", "knit", None, ("vertices", lambda r: len(r.vertices))),
    ("knitting", "ARQuiver.hom_space", None, None),
    ("knitting", "ARQuiver.rad_powers", None, None),
    ("knitting", "nonzero_path_exists", None, None),
    ("cuts", "is_cut", None, None),
    ("cuts", "enumerate_cuts", None, ("cuts", len)),
    ("cuts", "hom_tau_test", None, ("all_zero", lambda r: int(r.all_zero))),
    ("cuts", "convexity_checks", None, None),
    ("cuts", "is_slice_section", None, None),
    ("cuts", "tilting_crosscheck", None, None),
    ("cuts", "certify_tilted", None, None),
    ("cuts", "present_quotient", None, None),
    ("cuts", "quotient_by_cut", None, None),
    ("formats", "ar_quiver_report", None, None),
    ("formats", "render_report", None, ("bytes", len)),
    ("cli", "main", None, None),
]

# Constructors that are only counted: they run too often for a span each.
# The third field names a span; constructions directly inside it are also
# counted as ``<class>.new_in_cache_lookup`` (cache misses of that lookup).
COUNTED_NEW = [
    ("linalg", "Matrix", None),
    ("modules", "HomSpace", "knitting.ARQuiver.hom_space"),
]


# What an untraced run wraps: only ``knit``, to time the knitting done inside
# certification, quotients and the CLI as well as the benchmark's own calls.
KNIT_ONLY = [("knitting", "knit", None, None)]


class Tracer:
    def __init__(self, traced=TRACED, counted_new=COUNTED_NEW, span_cap=200_000):
        self.traced = traced
        self.counted_new = counted_new
        self.span_cap = span_cap
        self.stats = {}          # name -> [calls, self_s]
        self.counts = {}         # name -> int
        self.spans = []          # (id, parent id, name, start, end)
        self.dropped = 0
        self._stack = []         # open frames: [span id, start, child time, name]
        self._next_id = 0
        self._patches = []       # (owner, attribute, original)

    # -- installing -----------------------------------------------------------

    def install(self):
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "arquiver" or name.startswith("arquiver.")
        }
        for layer, path, arg_counter, result_counter in self.traced:
            mod = importlib.import_module(f"arquiver.{layer}")
            name = f"{layer}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, arg_counter, result_counter))
            else:
                original = getattr(mod, path)
                wrapper = self._wrap(name, original, arg_counter, result_counter)
                for owner in modules.values():
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            self._patch(owner, attr, wrapper)
        for layer, cls_name, lookup in self.counted_new:
            cls = getattr(importlib.import_module(f"arquiver.{layer}"), cls_name)
            self._patch(cls, "__init__", self._count_new(f"{layer}.{cls_name}", cls.__init__, lookup))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn, arg_counter, result_counter):
        stats = self.stats[name] = [0, 0.0]
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_counter is not None:
                key = f"{name}.{arg_counter[0]}"
                counts[key] = counts.get(key, 0) + arg_counter[1](args, kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if len(spans) < tracer.span_cap:
                    spans.append((span_id, parent, name, frame[1], end))
                else:
                    tracer.dropped += 1
            if result_counter is not None:
                key = f"{name}.{result_counter[0]}"
                counts[key] = counts.get(key, 0) + result_counter[1](result)
            return result

        return wrapper

    def _count_new(self, name, init, lookup):
        counts = self.counts
        stack = self._stack
        key = f"{name}.new"
        miss_key = f"{name}.new_in_cache_lookup"
        counts[key] = 0
        counts[miss_key] = 0

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            counts[key] += 1
            if lookup is not None and stack and stack[-1][3] == lookup:
                counts[miss_key] += 1
            init(obj, *args, **kwargs)

        return counted_init

    # -- reading --------------------------------------------------------------

    def calls(self, name):
        return self.stats[name][0]

    def self_s(self, name):
        return self.stats[name][1]

    def count(self, name):
        return self.counts.get(name, 0)

    def calls_total(self):
        return sum(calls for calls, _self in self.stats.values())

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_calls, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def intervals(self, name, first=0):
        """(start, end) of the spans of ``name`` recorded since span ``first``."""
        return [(start, end) for _id, _parent, n, start, end in self.spans[first:] if n == name]

    def write_spans(self, path):
        """One JSON array per line: id, parent id (-1 at the top), name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, name, round(start, 7), round(end, 7)]) + "\n")
