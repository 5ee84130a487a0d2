"""Linear-relation systems for the spaces spanned by m_lam - t_lam m_(d).

Two routes are provided: the full system over unknowns c_{i,lam} indexed by
(variable, partition) whose kernel is the relation space itself, and the
symmetric-reduced P(d-1) x (P(d)-1) matrix in the unknowns c_lam with
affine-linear entries in the parameters t_lam.  The reduced matrix admits an
almost-triangular square minor whose determinant at t = 0 factors as
(n-1) * prod over q of (n - #q).
"""

from __future__ import annotations

from dataclasses import dataclass
from .fields import QQ, ConfigError, PrimeField
from .linalg import determinant, kernel_of_rows
from .partitions import (
    changed_part_index,
    monomial_type,
    partitions_of,
    raise_part,
)
from .poly import monomials_of_degree


@dataclass(frozen=True)
class AffineExpr:
    """const + sum coeffs[lam] * t_lam, over a fixed field."""

    const: object
    coeffs: tuple  # sorted tuple of (lam, coeff)

    @classmethod
    def constant(cls, c):
        return cls(c, ())

    @classmethod
    def term(cls, lam, c, const):
        return cls(const, ((lam, c),))

    def evaluate(self, field, t: dict):
        v = self.const
        for lam, c in self.coeffs:
            v = field.add(v, field.mul(c, t.get(lam, field.zero)))
        return v

    def render(self, field) -> str:
        parts = []
        if self.const != field.zero or not self.coeffs:
            parts.append(field.to_str(self.const))
        for lam, c in self.coeffs:
            cs = field.to_str(c)
            name = "t" + str(list(lam)).replace(" ", "")
            if cs == "1":
                parts.append(name)
            elif cs == "-1":
                parts.append("-" + name)
            else:
                parts.append(f"{cs}*{name}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


@dataclass
class FullSystem:
    """Rows indexed by exponent vectors of degree d-1, columns by (i, lam)."""

    n: int
    d: int
    field: object
    row_exponents: list
    columns: list  # (i, lam) pairs in column order
    rows: list  # sparse dicts over column indices

    def kernel(self):
        return kernel_of_rows(self.field, self.rows, len(self.columns))


@dataclass
class SymmetricSystem:
    """Rows indexed by partitions q of d-1, columns by lam != (d), entries
    affine-linear in the t parameters."""

    n: int
    d: int
    field: object
    row_partitions: list
    column_partitions: list
    entries: list  # dense rows of AffineExpr

    def specialize(self, t: dict):
        return [
            [e.evaluate(self.field, t) for e in row] for row in self.entries
        ]


def _column_order(n: int, d: int):
    lams = [lam for lam in partitions_of(d) if lam != (d,)]
    cols = [(i, lam) for i in range(n) for lam in lams]
    index = {c: x for x, c in enumerate(cols)}
    return lams, cols, index


def build_full_system(t: dict, n: int, d: int, field=QQ) -> FullSystem:
    """The linear system whose kernel is L_{W(t)} in the c_{i,lam} unknowns."""
    if n < 1 or d < 2:
        raise ConfigError("need n >= 1 and d >= 2")
    if isinstance(field, PrimeField) and field.p <= n:
        raise ConfigError("prime modulus must exceed n for these systems")
    lams, cols, col_index = _column_order(n, d)
    lamset = set(lams)
    rows = []
    row_exponents = monomials_of_degree(n, d - 1)
    one = field.one
    for alpha in row_exponents:
        q = monomial_type(alpha)
        row = {}
        if q == (d - 1,):
            k = next(i for i, e in enumerate(alpha) if e)
            for i in range(n):
                if i != k:
                    idx = col_index[(i, (d - 1, 1))]
                    row[idx] = field.add(row.get(idx, field.zero), one)
            for lam in lams:
                tv = t.get(lam, field.zero)
                if tv != field.zero:
                    idx = col_index[(k, lam)]
                    row[idx] = field.sub(row.get(idx, field.zero), tv)
        else:
            outside = raise_part(q, len(q) + 1)
            for i in range(n):
                if alpha[i]:
                    lam = raise_part(q, changed_part_index(alpha, i))
                else:
                    lam = outside
                if lam not in lamset:
                    continue
                idx = col_index[(i, lam)]
                row[idx] = field.add(row.get(idx, field.zero), one)
        rows.append(row)
    return FullSystem(
        n=n, d=d, field=field, row_exponents=row_exponents, columns=cols, rows=rows
    )


def build_symmetric_matrix(n: int, d: int, field=QQ) -> SymmetricSystem:
    """The P(d-1) x (P(d)-1) matrix of the symmetric-reduced equations;
    entries stay symbolic in t, and specialize() plugs numbers in."""
    if not n >= d or d < 2:
        raise ConfigError("need n >= d >= 2")
    if isinstance(field, PrimeField) and field.p <= n:
        raise ConfigError("prime modulus must exceed n for these systems")
    qs = list(partitions_of(d - 1))
    lams = [lam for lam in partitions_of(d) if lam != (d,)]
    col_index = {lam: i for i, lam in enumerate(lams)}
    zero, one = field.zero, field.one
    entries = []
    for q in qs:
        row_consts = [zero] * len(lams)
        row_tcoeffs = [dict() for _ in lams]
        if q == (d - 1,):
            j = col_index[(d - 1, 1)]
            row_consts[j] = field.from_int(n - 1)
            for lam in lams:
                row_tcoeffs[col_index[lam]][lam] = field.neg(one)
        else:
            j = col_index[raise_part(q, len(q) + 1)]
            row_consts[j] = field.add(row_consts[j], field.from_int(n - len(q)))
            for i in range(1, len(q) + 1):
                lam = raise_part(q, i)
                if lam in col_index:
                    jj = col_index[lam]
                    row_consts[jj] = field.add(row_consts[jj], one)
        entries.append(
            [
                AffineExpr(c, tuple(sorted(tc.items())))
                for c, tc in zip(row_consts, row_tcoeffs)
            ]
        )
    return SymmetricSystem(
        n=n, d=d, field=field, row_partitions=qs, column_partitions=lams, entries=entries
    )


def reduced_minor(system: SymmetricSystem):
    """A': keep only columns for lam ending in a 1 (the q <-> lam bijection
    deletes the trailing 1); square P(d-1) x P(d-1)."""
    keep = [i for i, lam in enumerate(system.column_partitions) if lam[-1] == 1]
    return keep, [[row[i] for i in keep] for row in system.entries]


def predicted_det_at_zero(n: int, d: int, field=QQ):
    """(n-1) * prod_{q |- d-1, q != (d-1)} (n - #q)."""
    v = field.from_int(n - 1)
    for q in partitions_of(d - 1):
        if q == (d - 1,):
            continue
        v = field.mul(v, field.from_int(n - len(q)))
    return v


@dataclass
class AprimeReport:
    n: int
    d: int
    det_at_zero: object
    det_at_zero_predicted: object
    det_factorization_ok: bool
    rank: int | None = None
    solution_dim: int | None = None
    t_used: dict | None = None


def analyze_Aprime(t: dict | None, n: int, d: int, field=QQ) -> AprimeReport:
    """Check the determinant factorization of A' at t = 0 and, for numeric t,
    report the rank of A and the solution dimension of the symmetric system."""
    system = build_symmetric_matrix(n, d, field)
    _, minor = reduced_minor(system)
    zero_t = {}
    m0 = [[e.evaluate(field, zero_t) for e in row] for row in minor]
    det0 = determinant(field, m0)
    pred = predicted_det_at_zero(n, d, field)
    report = AprimeReport(
        n=n,
        d=d,
        det_at_zero=det0,
        det_at_zero_predicted=pred,
        det_factorization_ok=det0 == pred,
    )
    if t is not None:
        rows = system.specialize(t)
        from .linalg import Echelon

        ech = Echelon(field)
        for row in rows:
            ech.insert({i: v for i, v in enumerate(row) if v != field.zero})
        report.rank = ech.dim
        report.solution_dim = len(system.column_partitions) - ech.dim
        report.t_used = dict(t)
    return report


def minor_determinant(t: dict, n: int, d: int, field=QQ):
    """det A'(t) for a numeric parameter vector."""
    system = build_symmetric_matrix(n, d, field)
    _, minor = reduced_minor(system)
    m = [[e.evaluate(field, t) for e in row] for row in minor]
    return determinant(field, m)


def generic_t(d: int, seed: int, field=QQ, low: int = 1, high: int = 1000) -> dict:
    """Integer t parameters drawn uniformly from [low, high], per seed."""
    import random

    rng = random.Random(f"generic-t:{d}:{seed}")
    return {
        lam: field.from_int(rng.randint(low, high))
        for lam in partitions_of(d)
        if lam != (d,)
    }


def full_kernel_dim(t: dict, n: int, d: int, field=QQ) -> int:
    return len(build_full_system(t, n, d, field).kernel())


def kernel_is_component_symmetric(system: FullSystem) -> bool:
    """Cor-style structure check: every kernel vector has c_{i,lam} equal for
    all i (so it lies in (sum of x_i) R_0^{P(d)-1})."""
    lams = [lam for lam in partitions_of(system.d) if lam != (system.d,)]
    per_lam_count = len(lams)
    for vec in system.kernel():
        for li, lam in enumerate(lams):
            vals = {
                vec.get(i * per_lam_count + li, system.field.zero)
                for i in range(system.n)
            }
            if len(vals) > 1:
                return False
    return True
