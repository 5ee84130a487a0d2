"""Macaulay inverse systems, Hilbert functions, socles, and the
narrow/extremely-narrow/compressed classification, all by exact linear
algebra on graded components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb

from .fields import QQ, ConfigError
from .linalg import coordinates, kernel_of_columns
from .poly import DualElement, Polynomial, monomials_of_degree
from .psi import PsiIdeal
from .spans import RowSpace


class QuotientAlgebra:
    """A = R/I for an ideal generated in a single degree, given by a RowSpace.

    Graded components of I are computed lazily per degree.  A itself, with
    its standard-monomial bases and multiplication matrices, is the module
    `module_of_quotient` builds.
    """

    def __init__(self, gens: RowSpace, degree_cap: int | None = None):
        if gens.dual:
            raise ConfigError("ideal generators must be polynomials")
        self.field = gens.field
        self.n = gens.n
        self.gen_degree = gens.degree
        self.gens = gens
        self.degree_cap = degree_cap if degree_cap is not None else gens.degree + gens.n
        self._ideal = {gens.degree: gens}
        self._shift_tables = {}

    @classmethod
    def from_psi(cls, ideal: PsiIdeal, degree_cap: int | None = None) -> "QuotientAlgebra":
        return cls(ideal.degree_d_basis, degree_cap)

    # -- ideal components ---------------------------------------------------

    def _shift_table(self, j: int, k: int) -> list[int]:
        """Index map for multiplication by x_k from degree j to j+1."""
        key = (j, k)
        tbl = self._shift_tables.get(key)
        if tbl is None:
            src = monomials_of_degree(self.n, j)
            dst_index = {
                e: i for i, e in enumerate(monomials_of_degree(self.n, j + 1))
            }
            tbl = []
            for e in src:
                ne = list(e)
                ne[k] += 1
                tbl.append(dst_index[tuple(ne)])
            self._shift_tables[key] = tbl
        return tbl

    def ideal_component(self, j: int) -> RowSpace:
        """RowSpace of I_j (I_j = 0 below the generation degree)."""
        got = self._ideal.get(j)
        if got is not None:
            return got
        rs = RowSpace(self.n, j, self.field)
        if j >= self.gen_degree:
            prev = self.ideal_component(j - 1)
            for vec in prev.vectors():
                for k in range(self.n):
                    tbl = self._shift_table(j - 1, k)
                    rs.add_vector({tbl[i]: c for i, c in vec.items()})
        self._ideal[j] = rs
        return rs

    # -- quotient structure --------------------------------------------------

    def hilbert(self, j: int) -> int:
        if j < 0:
            return 0
        return comb(self.n + j - 1, j) - self.ideal_component(j).dim

    def top_degree(self) -> int | None:
        """Largest j with A_j != 0, or None when not artinian within the cap.

        Each generator row summing to zero means every generator vanishes at
        (1, ..., 1), a common zero of I, so A is not artinian under any cap.
        """
        field = self.field
        if all(
            reduce(field.add, row.values(), field.zero) == field.zero
            for row in self.gens.vectors()
        ):
            return None
        top = None
        for j in range(self.degree_cap + 1):
            h = self.hilbert(j)
            if h == 0:
                return top
            top = j
        return None


def inverse_system_component(Q: QuotientAlgebra, j: int) -> RowSpace:
    """(I^perp)_{-j}: dual vectors annihilated by I_j under contraction.

    The pairing of x^e against y^(e') in matching degrees is the Kronecker
    delta, so the component is the kernel of I_j's coordinate row space.
    """
    if j < 0:
        raise ConfigError("component index must be >= 0")
    rs = RowSpace(Q.n, j, Q.field, dual=True)
    for vec in Q.ideal_component(j).kernel_vectors():
        rs.add_vector(vec)
    return rs


@dataclass
class HilbertSocle:
    hilbert: list[int]
    socle: dict[int, int]
    initial_degree: int
    top_socle_degree: int | None
    artinian: bool
    status: str = "ok"

    def socle_polynomial(self) -> dict[int, int]:
        return {i: e for i, e in sorted(self.socle.items()) if e}


def socle_component_vectors(A, i: int) -> list[dict]:
    """Basis of Soc(A)_i = intersection of ker(x_k : A_i -> A_{i+1}), for
    A the module `module_of_quotient` builds."""
    stacked = [dict() for _ in range(A.dim(i))]
    step = A.dim(i + 1)
    for k in range(A.n):
        for s, col in enumerate(A.columns(k, i)):
            for r, v in col.items():
                stacked[s][k * step + r] = v
    return kernel_of_columns(A.field, stacked)


def hilbert_and_socle(Q: QuotientAlgebra) -> HilbertSocle:
    if Q.gens.dim == 0:
        raise ConfigError("zero ideal: no initial degree")
    t = Q.gen_degree
    top = Q.top_degree()
    if top is None:
        return HilbertSocle(
            hilbert=[Q.hilbert(j) for j in range(t + 1)],
            socle={},
            initial_degree=t,
            top_socle_degree=None,
            artinian=False,
            status=f"quotient is not artinian within its degree cap {Q.degree_cap}",
        )
    A = module_of_quotient(Q)
    hf = [A.dim(j) for j in range(top + 1)] + [0] * (Q.degree_cap - top)
    socle = {}
    for i in range(top + 1):
        e = len(socle_component_vectors(A, i))
        if e:
            socle[i] = e
    s = max(socle) if socle else 0
    if not t <= s + 1:
        raise AssertionError("initial degree exceeds top socle degree + 1")
    return HilbertSocle(
        hilbert=hf, socle=socle, initial_degree=t, top_socle_degree=s, artinian=True
    )


@dataclass
class LSpace:
    """Tuples of linear forms (l_1..l_a) with sum l_i o F_i = 0."""

    a: int
    n: int
    field: object
    tuples: list[list[Polynomial]]
    component_span: RowSpace

    @property
    def dim(self) -> int:
        return len(self.tuples)


def linear_relations(F: list[DualElement]) -> LSpace:
    """The relation space of an independent family of degree -d dual elements."""
    if not F:
        raise ConfigError("need at least one dual element")
    first = F[0]
    n, fld = first.n, first.field
    d = -first.degree()
    span = RowSpace(n, d, fld, dual=True)
    for g in F:
        if g.degree() != -d:
            raise ConfigError("family is not homogeneous of one degree")
        if not span.add(g):
            raise ConfigError("family is linearly dependent")
    a = len(F)
    target = RowSpace(n, d - 1, fld, dual=True)
    from .poly import contract, monomial

    columns = []
    for i in range(a):
        for k in range(n):
            ek = [0] * n
            ek[k] = 1
            img = contract(monomial(n, ek, fld), F[i])
            columns.append(target.to_vector(img))
    kernel = kernel_of_columns(fld, columns)
    tuples = []
    for vec in kernel:
        forms = []
        for i in range(a):
            terms = {}
            for k in range(n):
                c = vec.get(i * n + k)
                if c is not None:
                    ek = [0] * n
                    ek[k] = 1
                    terms[tuple(ek)] = c
            forms.append(Polynomial(n, terms, fld))
        tuples.append(forms)
    comp_span = RowSpace(n, 1, fld)
    for forms in tuples:
        for form in forms:
            if not form.is_zero():
                comp_span.add(form)
    return LSpace(a=a, n=n, field=fld, tuples=tuples, component_span=comp_span)


@dataclass
class Classification:
    narrow: bool
    extremely_narrow: bool
    witness: Polynomial | None
    compressed: bool
    permissible_socle: bool
    gorenstein: bool
    initial_degree: int
    top_socle_degree: int
    socle: dict[int, int]
    hilbert: list[int]
    relation_dim: int | None = None


def _compressed(Q: QuotientAlgebra, hs: HilbertSocle) -> bool:
    s = hs.top_socle_degree
    e = hs.socle
    for i in range(s + 1):
        bound = min(
            comb(Q.n + i - 1, i),
            sum(e.get(j, 0) * comb(Q.n + (j - i) - 1, j - i) for j in range(i, s + 1)),
        )
        if hs.hilbert[i] != bound:
            return False
    return True


def _permissible(Q: QuotientAlgebra, hs: HilbertSocle) -> bool:
    t, s = hs.initial_degree, hs.top_socle_degree
    e = hs.socle
    if any(i < t - 1 for i in e):
        return False
    if not e.get(s, 0) > 0:
        return False
    rdim = lambda j: comb(Q.n + j - 1, j) if j >= 0 else 0
    if not sum(e.get(i, 0) * rdim(i - t) for i in range(t, s + 1)) < rdim(t):
        return False
    expected = max(0, rdim(t - 1) - sum(e.get(i, 0) * rdim(i - (t - 1)) for i in range(t, s + 1)))
    return e.get(t - 1, 0) == expected


def classify(Q: QuotientAlgebra) -> Classification:
    """Narrow / extremely-narrow / compressed / permissible / Gorenstein flags.

    The extremely-narrow test checks that the components of a basis of the
    relation space span at most a line.  Although the definition quantifies
    over a choice of basis of the dual component, the verdict is
    basis-independent: replacing the family by an invertible combination
    transforms tuple components by linear combinations, leaving their joint
    span unchanged (asserted as a property test under random basis change).
    """
    hs = hilbert_and_socle(Q)
    if not hs.artinian:
        raise ConfigError("classification refused: " + hs.status)
    t, s = hs.initial_degree, hs.top_socle_degree
    narrow = t >= s
    gorenstein = sum(hs.socle.values()) == 1
    extremely_narrow = False
    witness = None
    rel_dim = None
    if s == t:
        comp = inverse_system_component(Q, s)
        F = comp.elements()
        if F:
            L = linear_relations(F)
            rel_dim = L.dim
            if L.component_span.dim <= 1:
                extremely_narrow = True
                vecs = L.component_span.elements()
                witness = vecs[0] if vecs else None
    return Classification(
        narrow=narrow,
        extremely_narrow=extremely_narrow,
        witness=witness,
        compressed=_compressed(Q, hs),
        permissible_socle=_permissible(Q, hs),
        gorenstein=gorenstein,
        initial_degree=t,
        top_socle_degree=s,
        socle=hs.socle_polynomial(),
        hilbert=hs.hilbert,
        relation_dim=rel_dim,
    )


def full_power_ideal(n: int, j: int, field=QQ) -> RowSpace:
    """The RowSpace of all of R_j (the degree-j part of m^j)."""
    rs = RowSpace(n, j, field)
    for i in range(len(rs.basis)):
        rs.add_vector({i: field.one})
    return rs


# ---------------------------------------------------------------------------
# FiniteLengthGradedModule builders for the homology machinery


def module_of_quotient(Q: QuotientAlgebra):
    """A as a finite-length graded module in degrees 0..top: the basis of A_j
    is the standard (non-pivot) monomials of I_j, listed in `labels[j]`.

    This is the one place monomials are reduced modulo I.  Each degree's
    standard columns are read once, and each distinct product x_k * x^e of a
    standard monomial is reduced once; a column shared by several (k, e)
    is one dict, which no consumer mutates.
    """
    from .homology import GradedModule

    top = Q.top_degree()
    if top is None:
        raise ConfigError("quotient is not artinian within its degree cap")
    field = Q.field
    dims, labels, action = {}, {}, {}
    for j in range(top + 1):
        rs = Q.ideal_component(j)
        std = rs.complement_columns()
        dims[j] = len(std)
        labels[j] = [rs.basis[c] for c in std]
        if j == 0:
            continue
        # x_k : A_{j-1} -> A_j, reducing each distinct product once
        pos = {c: i for i, c in enumerate(std)}
        images = {}
        for k in range(Q.n):
            cols = []
            for e in labels[j - 1]:
                prod = e[:k] + (e[k] + 1,) + e[k + 1 :]
                col = images.get(prod)
                if col is None:
                    nf = rs.normal_form_vector({rs.index[prod]: field.one})
                    col = images[prod] = {pos[c]: v for c, v in nf.items()}
                cols.append(col)
            action[(k, j - 1)] = cols
    return GradedModule(field, Q.n, dims, action, labels=labels)


def module_of_inverse_system(Q: QuotientAlgebra):
    """I^perp as a finite-length graded module in degrees -s..0; the variable
    action is contraction expressed in the computed component bases."""
    from .homology import GradedModule

    top = Q.top_degree()
    if top is None:
        raise ConfigError("quotient is not artinian within its degree cap")
    comps = {j: inverse_system_component(Q, j) for j in range(top + 1)}
    dims = {-j: comps[j].dim for j in range(top + 1)}
    action = {}
    for j in range(1, top + 1):
        src, dst = comps[j], comps[j - 1]
        dst_vectors, dst_keys = dst.vectors(), dst.pivot_columns()
        # exponent-shift tables for contraction by each variable
        dst_index = {e: i for i, e in enumerate(dst.basis)}
        for k in range(Q.n):
            cols = []
            for vec in src.vectors():
                img = {}
                for idx, c in vec.items():
                    e = src.basis[idx]
                    if e[k] == 0:
                        continue
                    ne = list(e)
                    ne[k] -= 1
                    img[dst_index[tuple(ne)]] = c
                cols.append(coordinates(Q.field, dst_vectors, dst_keys, img))
            action[(k, -j)] = cols
    return GradedModule(Q.field, Q.n, dims, action)
