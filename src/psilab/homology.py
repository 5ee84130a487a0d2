"""Graded betti numbers by Koszul homology, the closed-form betti table of a
general principal symmetric quotient, Matlis-duality checks, and minimal free
resolutions of the residue field over the artinian quotient.

Everything here is finite exact linear algebra: modules are finite length
with explicit per-degree bases and variable-multiplication matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from math import comb

from .fields import ConfigError
from .linalg import Echelon, kernel_of_columns
from .partitions import partition_count
from .poly import monomials_of_degree


class GradedModule:
    """Finite-length graded module: per-degree bases plus, for each variable,
    the multiplication columns M_j -> M_{j+1}.  Degrees may be negative."""

    def __init__(self, field, n, dims, action, labels=None):
        self.field = field
        self.n = n
        self.dims = {j: d for j, d in dims.items() if d}
        self.action = action  # (k, j) -> list of column dicts, len dims[j]
        self.labels = labels or {}

    def dim(self, j: int) -> int:
        return self.dims.get(j, 0)

    def degrees(self):
        return sorted(self.dims)

    def columns(self, k: int, j: int):
        cols = self.action.get((k, j))
        if cols is None:
            return [dict() for _ in range(self.dim(j))]
        return cols

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def check_commuting(self) -> None:
        """x_k x_l = x_l x_k as matrix identities, per degree."""
        from .linalg import matrix_times_vector

        for (k, j), cols in self.action.items():
            if self.dim(j) and len(cols) != self.dim(j):
                raise ConfigError(
                    f"action (x_{k + 1}, degree {j}) has {len(cols)} columns "
                    f"for a {self.dim(j)}-dimensional component"
                )
        for j in self.degrees():
            for k in range(self.n):
                for l in range(k + 1, self.n):
                    for s in range(self.dim(j)):
                        via_kl = matrix_times_vector(
                            self.field, self.columns(l, j + 1), self.columns(k, j)[s]
                        )
                        via_lk = matrix_times_vector(
                            self.field, self.columns(k, j + 1), self.columns(l, j)[s]
                        )
                        if via_kl != via_lk:
                            raise ConfigError(
                                f"action matrices do not commute at degree {j}"
                            )


def residue_field_module(field, n: int) -> GradedModule:
    """k = R/m: one basis vector in degree 0, labelled by the monomial 1."""
    return GradedModule(field, n, {0: 1}, {}, labels={0: [(0,) * n]})


def truncated_power_module(field, n: int, d: int, cap: int) -> GradedModule:
    """m^d truncated at internal degree `cap` (multiplication past cap is 0)."""
    dims = {}
    bases = {}
    for j in range(d, cap + 1):
        bases[j] = monomials_of_degree(n, j)
        dims[j] = len(bases[j])
    action = {}
    for j in range(d, cap):
        dst = {e: i for i, e in enumerate(bases[j + 1])}
        for k in range(n):
            cols = []
            for e in bases[j]:
                ne = list(e)
                ne[k] += 1
                cols.append({dst[tuple(ne)]: field.one})
            action[(k, j)] = cols
    return GradedModule(field, n, dims, action, labels=bases)


# ---------------------------------------------------------------------------
# Koszul complex machinery


def koszul_component(M: GradedModule, i: int, j: int):
    """Ordered basis [(S, s)] of (Lambda^i k^n tensor M)_j, S a sorted wedge
    index tuple, s a basis index of M_{j-i}."""
    md = M.dim(j - i)
    if md == 0 or not 0 <= i <= M.n:
        return []
    return [(S, s) for S in combinations(range(M.n), i) for s in range(md)]


def koszul_component_dim(M: GradedModule, i: int, j: int) -> int:
    if not 0 <= i <= M.n:
        return 0
    return comb(M.n, i) * M.dim(j - i)


def koszul_differential_columns(M: GradedModule, i: int, j: int):
    """Columns of d_{i,j} : (Lambda^i x M)_j -> (Lambda^{i-1} x M)_j.

    d(e_S x m) = sum_r (-1)^r e_{S \\ k_r} x (x_{k_r} m), S = {k_0 < ... }.
    """
    field = M.field
    src = koszul_component(M, i, j)
    if not src or i == 0:
        return [dict() for _ in src]
    tgt_wedges = {S: w for w, S in enumerate(combinations(range(M.n), i - 1))}
    tgt_mdim = M.dim(j - i + 1)
    act = {k: M.columns(k, j - i) for k in range(M.n)}
    cols = []
    for S, s in src:
        col = {}
        for r, k in enumerate(S):
            T = S[:r] + S[r + 1 :]
            base = tgt_wedges[T] * tgt_mdim
            image = act[k][s]
            neg = r % 2 == 1
            for t, v in image.items():
                vv = field.neg(v) if neg else v
                idx = base + t
                nv = field.add(col.get(idx, field.zero), vv)
                if nv == field.zero:
                    col.pop(idx, None)
                else:
                    col[idx] = nv
        cols.append(col)
    return cols


def _differential_rank(M: GradedModule, i: int, j: int, cache: dict) -> int:
    key = (i, j)
    got = cache.get(key)
    if got is not None:
        return got
    if i <= 0 or i > M.n or M.dim(j - i) == 0 or M.dim(j - i + 1) == 0:
        cache[key] = 0
        return 0
    ech = Echelon(M.field)
    for col in koszul_differential_columns(M, i, j):
        ech.insert(col)
    cache[key] = ech.dim
    return ech.dim


@dataclass
class BettiTable:
    """Map (homological degree i, internal degree j) -> count."""

    n: int
    entries: dict = dc_field(default_factory=dict)

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def set(self, i: int, j: int, v: int) -> None:
        if v:
            self.entries[(i, j)] = v
        else:
            self.entries.pop((i, j), None)

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def max_i(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def to_json(self):
        return [
            {"i": i, "j": j, "beta": v}
            for (i, j), v in sorted(self.entries.items())
        ]

    def render(self) -> str:
        """Macaulay2-style display: column = i, row label = j - i."""
        if not self.entries:
            return "(zero table)"
        imax = self.max_i()
        rows = sorted({j - i for (i, j) in self.entries})
        rows = list(range(min(rows), max(rows) + 1))
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, len(str(imax)))
        head = "    " + " ".join(f"{i:>{width}}" for i in range(imax + 1))
        lines = [head]
        totals = [self.total(i) for i in range(imax + 1)]
        lines.append(
            "tot " + " ".join(f"{t:>{width}}" for t in totals)
        )
        for r in rows:
            cells = []
            for i in range(imax + 1):
                v = self.get(i, i + r)
                cells.append(f"{v:>{width}}" if v else f"{'.':>{width}}")
            lines.append(f"{r}:  " + " ".join(cells))
        return "\n".join(lines)


def koszul_betti(M: GradedModule) -> BettiTable:
    """beta_{i,j} = dim H_i(Koszul x M)_j, computed per bidegree as
    (component dim) - rank d_{i,j} - rank d_{i+1,j}, after checking that
    the action matrices commute.
    """
    M.check_commuting()
    table = BettiTable(M.n)
    cache = {}
    for i in range(M.n + 1):
        for mdeg in M.degrees():
            j = mdeg + i
            dim_ij = koszul_component_dim(M, i, j)
            if dim_ij == 0:
                continue
            beta = (
                dim_ij
                - _differential_rank(M, i, j, cache)
                - _differential_rank(M, i + 1, j, cache)
            )
            table.set(i, j, beta)
    return table


# ---------------------------------------------------------------------------
# Closed-form betti table


def maximal_ideal_power_betti(n: int, d: int, i: int) -> int:
    """beta_i(m^d) = C(n+d-1, d+i) C(d+i-1, i)."""
    return comb(n + d - 1, d + i) * comb(d + i - 1, i)


def closed_form_betti(n: int, d: int) -> BettiTable:
    """The two-row table of a general principal symmetric quotient.

    Entries: beta_{0,0} = 1; beta_{i,i+d-1} = u_i for 1 <= i <= n-1;
    beta_{n-1,n-1+d} = l; beta_{n,n+d-1} = b; beta_{n,n+d} = a, with
    a = P(d)-1, l = P(d)-P(d-1)-1, u_i = beta_{i-1}(m^d) - a*C(n,i-1) and
    b = dim R_{d-1} - a*n + l.  Raises when any entry is negative (too few
    variables for the generic shape).
    """
    if n < 1 or d < 2:
        raise ConfigError("need n >= 1, d >= 2")
    a = partition_count(d) - 1
    ell = partition_count(d) - partition_count(d - 1) - 1
    b = comb(n + d - 2, d - 1) - a * n + ell
    table = BettiTable(n)
    table.set(0, 0, 1)
    values = {}
    for i in range(1, n):
        u = maximal_ideal_power_betti(n, d, i - 1) - a * comb(n, i - 1)
        values[(i, i + d - 1)] = values.get((i, i + d - 1), 0) + u
    values[(n - 1, n - 1 + d)] = values.get((n - 1, n - 1 + d), 0) + ell
    values[(n, n + d - 1)] = values.get((n, n + d - 1), 0) + b
    values[(n, n + d)] = values.get((n, n + d), 0) + a
    for (i, j), v in values.items():
        if v < 0:
            raise ValueError(
                f"closed-form entry beta_{i},{j} = {v} < 0: formulas out of regime"
            )
        table.set(i, j, table.get(i, j) + v)
    return table


def closed_form_b_variants(n: int, d: int) -> dict:
    """The implemented b (socle-consistent) and the alternative printed sign."""
    a = partition_count(d) - 1
    ell = partition_count(d) - partition_count(d - 1) - 1
    used = comb(n + d - 2, d - 1) - a * n + ell
    alt = comb(n + d - 2, d - 1) - a * (n - 1) + partition_count(d - 1)
    return {"b": used, "b_alternative_sign": alt}


def matlis_betti_duality(module_a: GradedModule, module_dual: GradedModule) -> bool:
    """True iff beta_{i,j}(A) = beta_{n-i,n-j}(A dual) for all (i, j)."""
    n = module_a.n
    ta = koszul_betti(module_a)
    td = koszul_betti(module_dual)
    keys = set(ta.entries) | {(n - i, n - j) for (i, j) in td.entries}
    return all(ta.get(i, j) == td.get(n - i, n - j) for (i, j) in keys)


# ---------------------------------------------------------------------------
# Resolutions of k over the artinian quotient A


class ResourceLimit(RuntimeError):
    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


class FreeModule:
    """F = sum_g A(-degs[g]) over a cyclic module A with monomial labels.

    The layout is built once: for each degree j with F_j != 0, the offset of
    each generator's block in F_j and the generator owning each coordinate.
    """

    def __init__(self, A: GradedModule, degs: list[int]):
        self.A = A
        self.degs = degs
        self.layout = {}
        top = max(A.degrees())
        for j in range(min(degs), max(degs) + top + 1):
            offsets, owner = [], []
            for g, dg in enumerate(degs):
                offsets.append(len(owner))
                owner += [g] * A.dim(j - dg)
            if owner:
                self.layout[j] = (offsets, owner)

    def times_variable(self, k: int, vec: dict, j: int) -> dict:
        """x_k times a degree-j element of F."""
        if not vec:
            return {}
        field = self.A.field
        offsets, owner = self.layout[j]
        img = {}
        for idx, v in vec.items():
            g = owner[idx]
            col = self.A.columns(k, j - self.degs[g])[idx - offsets[g]]
            if not col:
                continue
            base = self.layout[j + 1][0][g]
            for t, w in col.items():
                tidx = base + t
                nv = field.add(img.get(tidx, field.zero), field.mul(v, w))
                if nv == field.zero:
                    img.pop(tidx, None)
                else:
                    img[tidx] = nv
        return img

    def times_monomial(self, m: tuple, vec: dict, j: int) -> dict:
        """x^m times a degree-j element of F, one variable at a time."""
        for k, e in enumerate(m):
            for _ in range(e):
                vec = self.times_variable(k, vec, j)
                j += 1
        return vec


def residue_field_resolution(A: GradedModule, max_i: int = 5, gen_limit: int = 20000) -> dict:
    """Graded betti numbers beta^A_{i,j}(k) for i <= max_i over the artinian
    quotient A, by iterated minimal-kernel linear algebra.

    A is the quotient's module (`inverse.module_of_quotient`): degrees
    0..top, with `labels[j]` the monomials of its degree-j basis.  Every
    product in A goes through A's variable columns.  Each generator of F_i is
    stored as its image in F_{i-1}, the kernel vector it was chosen as.

    Returns {(i, j): count}.  Raises ResourceLimit (with .partial holding the
    computed part) when the module sizes exceed gen_limit.
    """
    field = A.field
    betti = {(0, 0): 1}
    if max_i == 0 or A.dim(1) == 0:
        return betti

    # F_1 covers m_A: one generator per basis element of A_1, in degree 1,
    # mapping to that basis element of F_0 = A.
    target = FreeModule(A, [0])
    gen_degs = [1] * A.dim(1)
    images = [{c: field.one} for c in range(A.dim(1))]
    betti[(1, 1)] = len(gen_degs)

    for i in range(2, max_i + 1):
        source = FreeModule(A, gen_degs)
        kernel_per_degree = {}
        for j in sorted(source.layout):
            cols = [
                target.times_monomial(m, images[g], dg)
                for g, dg in enumerate(gen_degs)
                for m in A.labels.get(j - dg, ())
            ]
            ker = kernel_of_columns(field, cols)
            if ker:
                kernel_per_degree[j] = ker
        new_degs, new_images = [], []
        for j in sorted(kernel_per_degree):
            span = Echelon(field)
            for vec in kernel_per_degree.get(j - 1, []):
                for k in range(A.n):
                    span.insert(source.times_variable(k, vec, j - 1))
            for v in kernel_per_degree[j]:
                if span.insert(v) is not None:
                    new_degs.append(j)
                    new_images.append(v)
        if not new_degs:
            break
        if len(new_degs) * (A.total_dim() + 1) > gen_limit:
            raise ResourceLimit(
                f"resolution step {i} exceeds generator limit {gen_limit}", betti
            )
        for j in new_degs:
            betti[(i, j)] = betti.get((i, j), 0) + 1
        target, gen_degs, images = source, new_degs, new_images
    return betti
