"""Layer tracing from outside the program.

`Tracer.install()` replaces named public functions and methods of psilab with
wrappers that record one span per call: (name, start, end, parent).  Module
functions are replaced under every psilab module attribute that holds the same
function object, because modules such as `cli` and `homology` import names
directly.  A name that no longer exists is recorded as absent and skipped.

Spans live in flat arrays until `summarize` turns them into per-layer metrics.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = (
    "fields", "linalg", "poly", "spans", "partitions", "psi",
    "inverse", "linrel", "homology", "equivariant", "verify", "cli",
)

# layer -> wrapped names; "Class.method" or a module-level function
TARGETS = {
    "fields": ["field_from_spec", "check_prime_field_bound"],
    "linalg": [
        "Echelon.insert", "Echelon.reduce", "Echelon.kernel_basis",
        "Echelon.row_vectors", "kernel_of_rows", "kernel_of_columns",
        "rank_of_vectors", "matrix_times_vector", "trace_on_span", "determinant",
        "SpanSolver.__init__", "SpanSolver.coords", "SpanSolver.contains",
    ],
    "poly": ["monomials_of_degree", "parse_element", "element_from_json", "format_element"],
    "spans": [
        "RowSpace.__init__", "RowSpace.add_vector", "RowSpace.to_vector",
        "RowSpace.normal_form_vector", "RowSpace.complement_columns",
        "RowSpace.vectors", "RowSpace.kernel_vectors",
    ],
    "partitions": ["partitions_of", "partition_count", "monomial_type"],
    "psi": ["orbit_span", "PsiIdeal.from_polynomial"],
    "inverse": [
        "QuotientAlgebra.from_psi", "QuotientAlgebra.ideal_component",
        "QuotientAlgebra.hilbert", "QuotientAlgebra.standard_monomials",
        "QuotientAlgebra.normal_coords", "QuotientAlgebra.multiplication_columns",
        "QuotientAlgebra.top_degree", "module_of_quotient", "inverse_system_component",
    ],
    "linrel": ["build_full_system", "analyze_Aprime", "generic_t"],
    "homology": [
        "GradedModule.check_commuting", "koszul_betti", "koszul_differential_columns",
        "closed_form_betti", "closed_form_b_variants", "residue_field_resolution",
    ],
    "equivariant": [
        "quotient_module_action", "tor_character", "tor_trace", "validate_equivariance",
        "koszul_group_matrix", "specht_decompose",
    ],
    "verify": ["golod_bound_series", "run_suites"],
    "cli": ["main"],
}

# Time metrics: (metric, span name) -> time of the outermost spans of that name.
TIME_METRICS = {
    "psi.orbit_span_s": "psi.orbit_span",
    "linalg.echelon_insert_s": "linalg.Echelon.insert",
    "linalg.echelon_reduce_s": "linalg.Echelon.reduce",
    "linalg.kernel_of_columns_s": "linalg.kernel_of_columns",
    "linalg.spansolver_build_s": "linalg.SpanSolver.__init__",
    "linalg.spansolver_coords_s": "linalg.SpanSolver.coords",
    "homology.koszul_betti_s": "homology.koszul_betti",
    "homology.koszul_differential_columns_s": "homology.koszul_differential_columns",
    "homology.residue_field_resolution_s": "homology.residue_field_resolution",
    "inverse.multiplication_columns_s": "inverse.QuotientAlgebra.multiplication_columns",
    "inverse.module_build_s": "inverse.module_of_quotient",
    "inverse.ideal_component_s": "inverse.QuotientAlgebra.ideal_component",
    "equivariant.tor_character_s": "equivariant.tor_character",
    "equivariant.specht_decompose_s": "equivariant.specht_decompose",
}

# Call-count metrics: metric -> span name.
CALL_METRICS = {
    "linalg.echelon_insert_calls": "linalg.Echelon.insert",
    "linalg.echelon_reduce_calls": "linalg.Echelon.reduce",
    "linalg.spansolver_builds": "linalg.SpanSolver.__init__",
    "inverse.multiplication_columns_calls": "inverse.QuotientAlgebra.multiplication_columns",
    "inverse.normal_coords_calls": "inverse.QuotientAlgebra.normal_coords",
    "spans.complement_columns_calls": "spans.RowSpace.complement_columns",
}

# Counters that must repeat bit for bit at one seed.
EXACT_COUNTERS = tuple(CALL_METRICS) + (
    "linalg.echelon_insert_pivots",
    "psi.orbit_dim",
    "fields.max_coeff_bits",
    "homology.resolution_generators",
)

PER_LAYER = (
    list(TIME_METRICS)
    + list(EXACT_COUNTERS)
    + ["linalg.insert_useful_ratio"]
    + [f"{layer}.self_s" for layer in LAYERS]
    + ["trace.overhead_s", "trace.spans", "trace.counters_not_repeated"]
)


def coeff_bits(value) -> int:
    """Largest numerator or denominator bit length of a rational value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    """Span recorder.  Spans are stored in creation order, which is start
    order, so a parent always precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.counters = Counter()
        self.absent: list[str] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, post=None, skip_under=None):
        """Wrapper recording one span per call; a call made directly inside a
        span named `skip_under` runs unrecorded, as part of that span."""
        nid = self._id(name)
        skip = self._id(skip_under) if skip_under else -1
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            up = self.current
            if up >= 0 and name_of[up] == skip:
                return fn(*args, **kwargs)
            idx = len(start)
            name_of.append(nid)
            parent.append(up)
            end.append(0.0)
            self.current = idx
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                self.current = up
            if post is not None:
                post(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "psilab") -> None:
        """Wrap every TARGETS name found in `package`'s modules."""
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"{package}.{layer}")
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.absent.append(f"{layer}.{dotted}")
                    continue
                span = f"{layer}.{dotted}"
                post = POST_HOOKS.get(span)
                skip = SKIP_UNDER.get(span)
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, attr, type(raw)(self._wrap(raw.__func__, span, post, skip)))
                elif owner_name:
                    setattr(owner, attr, self._wrap(raw, span, post, skip))
                else:
                    wrapped = self._wrap(raw, span, post, skip)
                    for modname, mod in list(sys.modules.items()):
                        if modname == package or modname.startswith(package + "."):
                            for key, val in list(vars(mod).items()):
                                if val is raw:
                                    setattr(mod, key, wrapped)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write spans as gzipped TSV: id, request, name, start, end, parent."""
        request = -1
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\trequest\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                if self.parent[i] < 0:
                    request = i
                fh.write(
                    f"{i}\t{request}\t{self.names[self.name_of[i]]}\t{self.start[i]:.9f}"
                    f"\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )

    def summary(self) -> dict:
        spans = (
            [self.names[k] for k in self.name_of], self.start, self.end, self.parent,
        )
        return summarize(*spans, counters=self.counters)


def _post_insert(tr, result, args):
    if result is not None:
        tr.counters["linalg.echelon_insert_pivots"] += 1


def _post_orbit_span(tr, rs, args):
    tr.counters["psi.orbit_dim"] += rs.dim
    rows = getattr(getattr(rs, "ech", None), "rows", None)
    if rs.field.characteristic == 0 and rows is not None:
        bits = max((coeff_bits(v) for row in rows.values() for v in row.values()), default=0)
        tr.counters["fields.max_coeff_bits"] = max(tr.counters["fields.max_coeff_bits"], bits)


def _post_resolution(tr, betti, args):
    tr.counters["homology.resolution_generators"] += sum(betti.values())


POST_HOOKS = {
    "linalg.Echelon.insert": _post_insert,
    "psi.orbit_span": _post_orbit_span,
    "homology.residue_field_resolution": _post_resolution,
}

# An insert reduces its vector first; that reduction is part of the insert,
# so echelon_reduce_* count only the reductions callers ask for.
SKIP_UNDER = {"linalg.Echelon.reduce": "linalg.Echelon.insert"}


def summarize(names, start, end, parent, counters=None) -> dict:
    """Per-name and per-layer figures from spans in start order.

    self time of a span = its duration minus the durations of its direct
    children (children of one parent never overlap in a single thread).
    A name's time counts only its outermost spans, so recursion is not
    counted twice.  Returns {"calls", "time", "self", "layer_self",
    "counters"}, each a Counter.
    """
    n = len(names)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    calls, time_, self_ = Counter(), Counter(), Counter()
    stack, open_names = [], Counter()
    for i in range(n):
        p = parent[i]
        while stack and stack[-1] != p:
            open_names[names[stack.pop()]] -= 1
        name = names[i]
        dur = end[i] - start[i]
        calls[name] += 1
        if not open_names[name]:
            time_[name] += dur
        self_[name] += dur - child[i]
        stack.append(i)
        open_names[name] += 1
    layer_self = Counter()
    for name, t in self_.items():
        layer_self[name.split(".", 1)[0]] += t
    return {
        "calls": calls, "time": time_, "self": self_, "layer_self": layer_self,
        "counters": Counter(counters or {}),
    }


def layer_metrics(summary: dict) -> dict:
    """The per-layer metric values (without the trace.* entries)."""
    calls, time_, counters = summary["calls"], summary["time"], summary["counters"]
    out = {m: time_[name] for m, name in TIME_METRICS.items()}
    out.update({m: calls[name] for m, name in CALL_METRICS.items()})
    for key in EXACT_COUNTERS:
        if key not in CALL_METRICS:
            out[key] = counters[key]
    ins = out["linalg.echelon_insert_calls"]
    out["linalg.insert_useful_ratio"] = out["linalg.echelon_insert_pivots"] / ins if ins else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary["layer_self"][layer]
    return out
