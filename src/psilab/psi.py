"""Principal symmetric ideals: orbit spans, random generators, the special
disjoint-binomial construction, and type-sum parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .fields import QQ, ConfigError, check_prime_field_bound
from .partitions import (
    check_partition,
    index_set,
    monomial_type,
    partitions_of,
    subpartitions,
)
from .poly import Polynomial, monomials_of_degree
from .spans import RowSpace


def orbit_span(f: Polynomial) -> RowSpace:
    """Span V of the S_n-orbit of a homogeneous polynomial inside R_d, as a
    certified closure under the adjacent transpositions s_1..s_{n-1}.

    The loop pops a queued vector and inserts its image under every s_i; an
    image is queued only when its insert raised the dimension.  Proof that
    the result is the orbit span: one vector of V is queued per dimension
    raised, each independent of those queued before it, so the queued
    vectors span V.  The image of every queued vector under every s_i was
    inserted (an image skipped as already visited was inserted earlier), so
    V is stable under s_1..s_{n-1}, which generate S_n, hence under S_n.  V
    contains f and lies inside the orbit span, so V is the orbit span.  At
    most 1 + (n-1)*dim V inserts are made, instead of n!.

    What is queued depends on the characteristic.  Over a prime field the
    new reduced row is queued; its entries cannot grow.  Over the rationals,
    iterating on reduced rows compounds coefficient size, so the permuted
    copy of f itself is queued: copies keep f's integer-sized coefficients.
    A visited set there skips copies already inserted.
    """
    if f.is_zero():
        raise ConfigError("orbit span of the zero polynomial")
    d = f.degree()
    n = f.n
    rs = RowSpace(n, d, f.field)
    # Index tables for the action of each adjacent transposition on the
    # ambient monomial basis; images are then pure index relabelings.
    tables = []
    for i in range(n - 1):
        table = [0] * len(rs.basis)
        for j, e in enumerate(rs.basis):
            ne = list(e)
            ne[i], ne[i + 1] = ne[i + 1], ne[i]
            table[j] = rs.index[tuple(ne)]
        tables.append(table)

    ech = rs.ech
    queue_copies = not f.field.characteristic
    visited = set()
    queue = []

    def insert(vec):
        if queue_copies:
            key = tuple(sorted(vec.items()))
            if key in visited:
                return
            visited.add(key)
        p = ech.insert(vec)
        if p is not None:
            queue.append(vec if queue_copies else dict(ech.rows[p]))

    insert(rs.to_vector(f))
    while queue:
        vec = queue.pop()
        for table in tables:
            insert({table[j]: c for j, c in vec.items()})
    return rs


@dataclass
class PsiIdeal:
    """A principal symmetric ideal (f)_{S_n}, carried by its degree-d span."""

    f: Polynomial
    n: int
    d: int
    degree_d_basis: RowSpace

    @classmethod
    def from_polynomial(cls, f: Polynomial) -> "PsiIdeal":
        d = f.degree()
        check_prime_field_bound(f.field, f.n, d)
        return cls(f=f, n=f.n, d=d, degree_d_basis=orbit_span(f))

    @property
    def minimal_generator_count(self) -> int:
        return self.degree_d_basis.dim


def sample_general_f(n: int, d: int, seed: int, coeff_bound: int = 99, field=QQ) -> Polynomial:
    """Random degree-d polynomial with all N = C(n+d-1, d) coefficients drawn
    uniformly from the nonzero integers in [-B, B]; the draw is repeated until
    the pure-power coefficient sum is nonzero (the t-parameters need it).
    Deterministic per (n, d, seed, coeff_bound).
    """
    if n < 1 or d < 1:
        raise ConfigError("need n >= 1 and d >= 1")
    rng = random.Random(f"psi-sample:{n}:{d}:{seed}:{coeff_bound}")
    basis = monomials_of_degree(n, d)
    power_type = (d,)
    while True:
        coeffs = []
        for _ in basis:
            c = 0
            while c == 0:
                c = rng.randint(-coeff_bound, coeff_bound)
            coeffs.append(c)
        alpha_d = sum(
            c for c, e in zip(coeffs, basis) if monomial_type(e) == power_type
        )
        if alpha_d != 0:
            break
    return Polynomial(n, {e: field.from_int(c) for e, c in zip(basis, coeffs)}, field)


def construction_summand_count(d: int) -> int:
    """Number of summands of the special polynomial: x_1^d plus one binomial
    per pair (lam, gamma) with lam != (d) and gamma a proper subpartition."""
    total = 1
    for lam in partitions_of(d):
        if lam == (d,):
            continue
        total += len(subpartitions(lam)) - 1
    return total


def construction_min_vars(d: int) -> int:
    """Minimal variable count for variable-disjoint admissible binomials:
    one for x_1^d plus, per (lam, gamma), #lam shared-or-left variables and
    #lam - #gamma fresh right-side variables."""
    total = 1
    for lam in partitions_of(d):
        if lam == (d,):
            continue
        s = len(lam)
        for gamma in subpartitions(lam):
            if gamma == lam:
                continue
            total += s + (s - len(gamma))
    return total


def admissible_binomial(lam, gamma, start: int, n: int, field=QQ) -> tuple[Polynomial, int]:
    """An admissible lam-binomial with gcd of type gamma, built from fresh
    variables starting at 0-based index `start`; returns (binomial, next free
    index).  Positions in T(lam, gamma) share one variable on both sides."""
    lam = check_partition(lam)
    gamma = check_partition(gamma)
    T = set(index_set(lam, gamma))
    s = len(lam)
    left = [0] * s
    right = [0] * s
    nxt = start
    for pos in range(1, s + 1):
        if pos in T:
            left[pos - 1] = right[pos - 1] = nxt
            nxt += 1
        else:
            left[pos - 1] = nxt
            nxt += 1
    for pos in range(1, s + 1):
        if pos not in T:
            right[pos - 1] = nxt
            nxt += 1
    if nxt > n:
        raise ConfigError(f"need at least {nxt} variables, have n={n}")
    e1 = [0] * n
    e2 = [0] * n
    for part, i1, i2 in zip(lam, left, right):
        e1[i1] += part
        e2[i2] += part
    one = field.one
    return (
        Polynomial(n, {tuple(e1): one, tuple(e2): field.neg(one)}, field),
        nxt,
    )


def is_admissible_binomial(b: Polynomial) -> bool:
    """True for m - m' with m, m' distinct monomials of one type whose gcd is
    coprime to both quotients."""
    if len(b.terms) != 2:
        return False
    (e1, c1), (e2, c2) = sorted(b.terms.items())
    if c1 != b.field.neg(c2):
        return False
    if monomial_type(e1) != monomial_type(e2):
        return False
    g = [min(a, b_) for a, b_ in zip(e1, e2)]
    for gi, a, b_ in zip(g, e1, e2):
        if gi and (a - gi or b_ - gi):
            return False
    return True


def build_construction_f(d: int, n: int | None = None, field=QQ) -> tuple[Polynomial, int]:
    """The special degree-d polynomial: x_1^d plus one admissible binomial per
    (lam, gamma), all summands variable-disjoint.  Returns (f, minimal n)."""
    if d < 2:
        raise ConfigError("need d >= 2")
    n_min = construction_min_vars(d)
    if n is None:
        n = n_min
    if n < n_min:
        raise ConfigError(f"construction for d={d} needs n >= {n_min}, got {n}")
    e0 = [0] * n
    e0[0] = d
    f = Polynomial(n, {tuple(e0): field.one}, field)
    nxt = 1
    for lam in partitions_of(d):
        if lam == (d,):
            continue
        for gamma in subpartitions(lam):
            if gamma == lam:
                continue
            b, nxt = admissible_binomial(lam, gamma, nxt, n, field)
            f = f + b
    return f, n_min


@dataclass
class TParams:
    """Type-sum parameters of a degree-d polynomial: alpha[lam] is the sum of
    the coefficients of the monomials of type lam, and t[lam] =
    alpha[lam]/alpha[(d,)] for lam != (d,)."""

    d: int
    alpha: dict
    t: dict


def extract_params(f: Polynomial) -> TParams:
    d = f.degree()
    if d is None:
        raise ConfigError("zero polynomial has no type parameters")
    field = f.field
    alpha = {lam: field.zero for lam in partitions_of(d)}
    for e, c in f.terms.items():
        lam = monomial_type(e)
        alpha[lam] = field.add(alpha[lam], c)
    a_top = alpha[(d,)]
    if a_top == field.zero:
        raise ConfigError("t undefined: the pure-power coefficient sum is zero")
    t = {
        lam: field.div(alpha[lam], a_top)
        for lam in partitions_of(d)
        if lam != (d,)
    }
    return TParams(d=d, alpha=alpha, t=t)


def expected_orbit_dim_construction(n: int, d: int) -> int:
    """dim R_d - (P(d) - 1), the span dimension of the special construction."""
    return comb(n + d - 1, d) - (len(partitions_of(d)) - 1)
