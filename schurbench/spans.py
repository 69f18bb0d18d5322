"""Spans around the program's public functions, for the traced run only.

``Tracer.install`` replaces each function named in LAYERS, in every
schurdefect module that holds it (the one that defines it and each one that
imports it by name), with a wrapper that keeps a span in memory: name, start,
end and the span open when it began. Methods are replaced on their class.
The untraced run never calls ``install``, so it runs the program unmodified.

A layer's self time is the length of its spans minus the time their child
spans cover. Counts come off the call arguments and results:

- linalg sizes: rows x cols given to rref, kernel, Subspace.from_vectors and
  Matrix.inverse, and the rank each returns, counted on the outermost of
  these calls only (kernel's own call of from_vectors is not counted twice);
- invariant-cache hits: whether L._cache already held the invariant when
  derived_subalgebra, center, lower_central_series or upper_central_series
  was called.

Every per-layer figure is per round of the workload, averaged over the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "linalg": ("rref", "kernel", "subspace_sum", "subspace_intersect",
               "complement", "preimage", "Matrix.inverse", "Matrix.matvec",
               "Matrix.__matmul__", "Subspace.from_vectors",
               "Subspace.equations", "Subspace.coordinates",
               "Subspace.contains_subspace"),
    "algebra": ("new_algebra", "check_jacobi", "direct_sum", "product_subspace",
                "quotient", "change_basis", "adjoint_matrix", "bracket",
                "Homomorphism.is_bracket_preserving"),
    "invariants": ("derived_subalgebra", "center", "second_center",
                   "lower_central_series", "upper_central_series",
                   "is_nilpotent", "nilpotency_class", "min_generators",
                   "centralizer", "t_invariant", "moneyhun_check", "report"),
    "catalog": ("abelian", "heisenberg", "filiform", "get", "list_all"),
    "classify": ("classify_t012", "recognize_heisenberg", "stem_decomposition"),
    "serialize": ("algebra_to_document", "document_to_algebra", "dumps", "loads"),
    "census": ("enumerate_algebras", "verify_bounds", "algebra_from_tensor",
               "encode_tensor", "decode_tensor"),
}

# (rows given, cols given, rank returned) from the positional arguments and
# the result; a classmethod's arguments start with the class
SIZED = {
    "linalg.rref": lambda a, out: (a[0].nrows, a[0].ncols, len(out[1])),
    "linalg.kernel": lambda a, out: (a[0].nrows, a[0].ncols, a[0].ncols - out.dim),
    "linalg.Subspace.from_vectors": lambda a, out: (len(a[3]), a[2], out.dim),
    "linalg.Matrix.inverse": lambda a, out: (a[0].nrows, a[0].ncols, a[0].nrows),
}

CACHED = {"invariants.derived_subalgebra": "derived",
          "invariants.center": "center",
          "invariants.lower_central_series": "lcs",
          "invariants.upper_central_series": "ucs"}

# per-layer metric -> span names whose self time it sums (None: the layer)
SELF_TIMES = {
    "linalg.self_s": None,
    "algebra.product_subspace.self_s": "algebra.product_subspace",
    "algebra.check_jacobi.self_s": "algebra.check_jacobi",
    "algebra.change_basis.self_s": "algebra.change_basis",
    "algebra.hom_check.self_s": "algebra.Homomorphism.is_bracket_preserving",
    "invariants.self_s": None,
    "invariants.ucs.self_s": "invariants.upper_central_series",
    "invariants.center.self_s": "invariants.center",
    "invariants.centralizer.self_s": "invariants.centralizer",
    "classify.self_s": None,
    "classify.heisenberg.self_s": "classify.recognize_heisenberg",
    "classify.stem.self_s": "classify.stem_decomposition",
    "catalog.self_s": None,
    "serialize.self_s": None,
    "census.filter_s": "census.enumerate_algebras",
}

CALLS = {
    "algebra.product_subspace.calls": "algebra.product_subspace",
    "algebra.check_jacobi.calls": "algebra.check_jacobi",
    "invariants.report.calls": "invariants.report",
    "classify.calls": "classify.classify_t012",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # (name index, start, end, parent span index or -1, extra)
        self.spans: list = []
        self._stack = [-1]
        self._sized_depth = [0]

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans, stack, depth = self.spans, self._stack, self._sized_depth
        clock = time.perf_counter
        sized = SIZED.get(name)
        cache_key = CACHED.get(name)

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            extra = cache_key in args[0]._cache if cache_key else None
            outermost = sized is not None and depth[0] == 0
            depth[0] += sized is not None
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[0] -= sized is not None
                spans[i] = (index, start, end, parent, extra)
            if outermost:
                spans[i] = (index, start, end, parent, sized(args, out))
            return out

        return functools.wraps(fn)(traced)

    def install(self, api) -> None:
        """Wrap every LAYERS function of the imported package `api`."""
        prefix = api.__name__
        modules = [m for key, m in list(sys.modules.items())
                   if key == prefix or key.startswith(prefix + ".")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"{prefix}.{layer}"]
            for name in names:
                full = f"{layer}.{name}"
                owner, _, attr = name.rpartition(".")
                if owner:
                    cls = getattr(module, owner)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(self._wrap(raw.__func__, full)))
                    else:
                        setattr(cls, attr, self._wrap(raw, full))
                    continue
                fn = getattr(module, attr)
                traced = self._wrap(fn, full)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, traced)

    def per_layer(self, rounds: int) -> dict:
        """Every per-layer metric, per round."""
        names = self.names
        layer = [n.split(".", 1)[0] for n in names]
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_by_name: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        linalg_calls = cells = rows_in = rank_out = 0
        hits = cached_calls = 0
        census_rows_s = 0.0
        for i, (ni, start, end, parent, extra) in enumerate(self.spans):
            name = names[ni]
            own = end - start - covered[i]
            self_by_name[name] += own
            self_by_layer[layer[ni]] += own
            calls[name] += 1
            if layer[ni] == "linalg":
                linalg_calls += parent < 0 or layer[self.spans[parent][0]] != "linalg"
                if extra is not None:
                    rows, cols, rank = extra
                    cells += rows * cols
                    rows_in += rows
                    rank_out += rank
            elif extra is not None:
                hits += extra
                cached_calls += 1
            if name == "census.enumerate_algebras":
                census_rows_s += covered[i]

        def metric(value, unit):
            return {"value": value, "unit": unit}

        out = {
            "linalg.calls": metric(linalg_calls / rounds, "count"),
            "linalg.cells_in": metric(cells / rounds, "count"),
            "linalg.rank_ratio": metric(rank_out / rows_in if rows_in else 0.0,
                                        "ratio"),
            "invariants.cache_hit_ratio": metric(
                hits / cached_calls if cached_calls else 0.0, "ratio"),
            "census.rows_s": metric(census_rows_s / rounds, "s"),
        }
        for key, name in CALLS.items():
            out[key] = metric(calls[name] / rounds, "count")
        for key, name in SELF_TIMES.items():
            total = (self_by_layer[key.split(".", 1)[0]] if name is None
                     else self_by_name[name])
            out[key] = metric(total / rounds, "s")
        return out

    def write(self, path, **header) -> None:
        """The spans as JSON lines: first the header fields with the span
        names, then one [name index, start, end, parent, extra] per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "names": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
