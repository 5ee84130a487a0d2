"""Symmetric-group equivariance: irreducible characters by border-strip
recursion, class functions, Specht decompositions of Koszul homology, and
restriction multiplicities of Schur modules computed by exact trace
evaluation (power sums of permutations), not by plethysm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .fields import QQ, ConfigError
from .homology import (
    FreeModule,
    GradedModule,
    koszul_component,
    koszul_differential_columns,
)
from .linalg import Echelon, coordinates, kernel_of_columns, matrix_times_vector
from .partitions import check_partition, is_partition, partitions_of
from .poly import permute_exponents


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama via beta-numbers


@lru_cache(maxsize=None)
def _mn(lam: tuple, mu: tuple) -> int:
    if not mu:
        return 1 if not lam else 0
    k = mu[0]
    rest = mu[1:]
    t = len(lam)
    beta = tuple(lam[i] + (t - 1 - i) for i in range(t))
    total = 0
    bset = set(beta)
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for bb in beta if nb < bb < b)
        newbeta = sorted((bb for bb in beta if bb != b), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        tt = len(newbeta)
        newlam = tuple(
            p
            for p in (newbeta[i2] - (tt - 1 - i2) for i2 in range(tt))
            if p > 0
        )
        total += (-1) ** height * _mn(newlam, rest)
    return total


def irreducible_character(lam, mu) -> int:
    """chi^lam(mu) for partitions of the same n, by border-strip recursion."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ConfigError(f"|{lam}| != |{mu}|")
    return _mn(lam, tuple(sorted(mu, reverse=True)))


def specht_dim(lam) -> int:
    """dim Sp_lam = chi^lam at the identity cycle type."""
    lam = check_partition(lam)
    n = sum(lam)
    return irreducible_character(lam, (1,) * n) if n else 1


def centralizer_order(mu) -> int:
    """z_mu = prod k^{m_k} m_k!, the centralizer order of cycle type mu."""
    z = 1
    for k in set(mu):
        m = mu.count(k)
        z *= k**m * factorial(m)
    return z


def cycle_type_representative(mu) -> tuple:
    """Canonical permutation of cycle type mu: cycles filled left to right,
    0-indexed tuple with sigma[i] = image of i."""
    n = sum(mu)
    sigma = list(range(n))
    start = 0
    for k in mu:
        for off in range(k):
            sigma[start + off] = start + (off + 1) % k
        start += k
    return tuple(sigma)


def permutation_cycle_type(sigma) -> tuple:
    n = len(sigma)
    seen = [False] * n
    lens = []
    for i in range(n):
        if seen[i]:
            continue
        c = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            c += 1
        lens.append(c)
    return tuple(sorted(lens, reverse=True))


@dataclass
class ClassFunction:
    """Exact-rational class function on S_n, stored per cycle type."""

    n: int
    values: dict  # cycle type (partition of n) -> Fraction

    def __call__(self, mu):
        return self.values[tuple(mu)]

    def __add__(self, other):
        self._check(other)
        return ClassFunction(
            self.n, {mu: v + other.values[mu] for mu, v in self.values.items()}
        )

    def __sub__(self, other):
        self._check(other)
        return ClassFunction(
            self.n, {mu: v - other.values[mu] for mu, v in self.values.items()}
        )

    def __mul__(self, other):
        self._check(other)
        return ClassFunction(
            self.n, {mu: v * other.values[mu] for mu, v in self.values.items()}
        )

    def scale(self, c):
        return ClassFunction(self.n, {mu: v * c for mu, v in self.values.items()})

    def _check(self, other):
        if self.n != other.n:
            raise ConfigError("class functions on different symmetric groups")

    def is_zero(self):
        return all(v == 0 for v in self.values.values())


def irreducible_class_function(lam) -> ClassFunction:
    lam = check_partition(lam)
    n = sum(lam)
    return ClassFunction(
        n, {mu: Fraction(irreducible_character(lam, mu)) for mu in partitions_of(n)}
    )


def sign_class_function(n: int) -> ClassFunction:
    return ClassFunction(
        n, {mu: Fraction((-1) ** (n - len(mu))) for mu in partitions_of(n)}
    )


def inner_product(chi: ClassFunction, psi: ClassFunction) -> Fraction:
    chi._check(psi)
    return sum(
        (chi.values[mu] * psi.values[mu]) / centralizer_order(mu)
        for mu in chi.values
    )


@dataclass
class SpechtDecomposition:
    n: int
    multiplicities: dict  # partition of n -> nonnegative int

    def dimension(self) -> int:
        return sum(m * specht_dim(lam) for lam, m in self.multiplicities.items())

    def nonzero(self) -> dict:
        return {lam: m for lam, m in sorted(self.multiplicities.items()) if m}

    def __eq__(self, other):
        return isinstance(other, SpechtDecomposition) and self.nonzero() == other.nonzero()


class NotACharacter(ValueError):
    pass


def specht_decompose(chi: ClassFunction) -> SpechtDecomposition:
    """Multiplicities by inner products with the irreducible characters;
    raises NotACharacter on non-integral or negative values (signals a
    non-equivariant input or an upstream bug)."""
    mults = {}
    for lam in partitions_of(chi.n):
        m = inner_product(chi, irreducible_class_function(lam))
        if m.denominator != 1 or m < 0:
            raise NotACharacter(f"multiplicity of {lam} is {m}")
        if m:
            mults[lam] = int(m)
    return SpechtDecomposition(chi.n, mults)


# ---------------------------------------------------------------------------
# Trace of a permutation on Koszul homology


def wedge_action_pairs(sigma, i: int):
    """For each wedge basis subset S: (image subset sorted, sign)."""
    n = len(sigma)
    out = {}
    for S in combinations(range(n), i):
        img = [sigma[s] for s in S]
        sign = 1
        arr = list(img)
        for a in range(len(arr)):
            for b in range(a + 1, len(arr)):
                if arr[a] > arr[b]:
                    arr[a], arr[b] = arr[b], arr[a]
                    sign = -sign
        out[S] = (tuple(arr), sign)
    return out


def koszul_group_matrix(M: GradedModule, module_action, sigma, i: int, j: int):
    """Columns of sigma acting on (Lambda^i x M)_j; module_action(sigma, deg)
    gives the permutation's columns on M_deg."""
    field = M.field
    src = koszul_component(M, i, j)
    if not src:
        return []
    mdim = M.dim(j - i)
    wedges = {S: w for w, S in enumerate(combinations(range(M.n), i))}
    wact = wedge_action_pairs(sigma, i)
    mcols = module_action(sigma, j - i)
    cols = []
    for S, s in src:
        T, sgn = wact[S]
        base = wedges[T] * mdim
        col = {}
        for t, v in mcols[s].items():
            col[base + t] = field.neg(v) if sgn < 0 else v
        cols.append(col)
    return cols


def _trace_on_basis(field, basis, action_columns):
    """Trace on an invariant subspace given as a (vectors, keys) pair: the
    sum of each image's coordinate on its own basis vector."""
    vectors, keys = basis
    t = field.zero
    for i, b in enumerate(vectors):
        img = matrix_times_vector(field, action_columns, b)
        t = field.add(t, coordinates(field, vectors, keys, img).get(i, field.zero))
    return t


def _homology_bases(field, d_cols, d_next_cols):
    """(vectors, keys) pairs: a kernel basis of d_{i,j} keyed by free
    columns, and an image basis of d_{i+1,j} keyed by pivots."""
    ker = kernel_of_columns(field, d_cols) if d_cols else []
    img_ech = Echelon(field)
    for c in d_next_cols:
        img_ech.insert(c)
    return (ker, [max(v) for v in ker]), (img_ech.row_vectors(), img_ech.pivots())


def _trace_on_homology(field, bases, g):
    """Trace of the group matrix g on homology: trace on the kernel basis
    minus trace on the image basis (both g-invariant subspaces)."""
    ker, img = bases
    return field.sub(_trace_on_basis(field, ker, g), _trace_on_basis(field, img, g))


def _check_commutes(field, d_cols, g_src, g_tgt, i: int, j: int) -> None:
    for s in range(len(d_cols)):
        g_after_d = matrix_times_vector(field, g_tgt, d_cols[s])
        d_after_g = matrix_times_vector(field, d_cols, g_src[s])
        if g_after_d != d_after_g:
            raise ConfigError(
                f"supplied action does not commute with the differential at ({i},{j})"
            )


def tor_trace(M: GradedModule, module_action, sigma, i: int, j: int):
    """Trace of sigma on H_i(Koszul x M)_j."""
    bases = _homology_bases(
        M.field,
        koszul_differential_columns(M, i, j),
        koszul_differential_columns(M, i + 1, j),
    )
    g = koszul_group_matrix(M, module_action, sigma, i, j)
    return _trace_on_homology(M.field, bases, g)


def validate_equivariance(M: GradedModule, module_action, sigma, i: int, j: int) -> None:
    """Check sigma commutes with the differential at (i, j)."""
    _check_commutes(
        M.field,
        koszul_differential_columns(M, i, j),
        koszul_group_matrix(M, module_action, sigma, i, j),
        koszul_group_matrix(M, module_action, sigma, i - 1, j),
        i,
        j,
    )


def tor_character(
    M: GradedModule, module_action, i: int, j: int, validate: bool = False
) -> ClassFunction:
    """Character of S_n on Tor_i(M, k)_j, one canonical representative per
    cycle type (class-function values are representative independent).

    The differential and the homology bases are built once; each cycle
    type's matrix on (Lambda^i x M)_j serves both the equivariance check and
    the trace."""
    if M.field != QQ:
        raise ConfigError("characters are computed over the rationals")
    field = M.field
    d_cols = koszul_differential_columns(M, i, j)
    bases = _homology_bases(field, d_cols, koszul_differential_columns(M, i + 1, j))
    values = {}
    for mu in partitions_of(M.n):
        sigma = cycle_type_representative(mu)
        g = koszul_group_matrix(M, module_action, sigma, i, j)
        if validate:
            g_tgt = koszul_group_matrix(M, module_action, sigma, i - 1, j)
            _check_commutes(field, d_cols, g, g_tgt, i, j)
        values[mu] = _trace_on_homology(field, bases, g)
    return ClassFunction(M.n, values)


# -- module_action builders -------------------------------------------------


def quotient_module_action(A: GradedModule):
    """Permutation action on a cyclic module A = R/I whose labels are the
    monomials of its bases (`inverse.module_of_quotient`,
    `residue_field_module`): the class of x^e goes to x^(sigma e) * 1,
    multiplied out through A's own columns.  This is an action only when I
    is S_n-stable, which `tor_character(..., validate=True)` checks."""
    free = FreeModule(A, [0])
    one = A.field.one

    def act(sigma, deg):
        return [
            free.times_monomial(permute_exponents(e, sigma), {0: one}, 0)
            for e in A.labels[deg]
        ]

    return act


def inverse_system_module_action(Q):
    """Permutation action on the computed components of I^perp."""
    from .inverse import inverse_system_component

    comps = {}

    def act(sigma, deg):
        j = -deg
        if j not in comps:
            comps[j] = inverse_system_component(Q, j)
        comp = comps[j]
        vectors, keys = comp.vectors(), comp.pivot_columns()
        cols = []
        for vec in vectors:
            img = {}
            for idx, c in vec.items():
                img[comp.index[permute_exponents(comp.basis[idx], sigma)]] = c
            cols.append(coordinates(Q.field, vectors, keys, img))
        return cols

    return act


def monomial_module_action(M: GradedModule):
    """Permutation action on a module whose labels are exponent tuples."""

    def act(sigma, deg):
        labels = M.labels[deg]
        index = {e: i for i, e in enumerate(labels)}
        return [{index[permute_exponents(e, sigma)]: M.field.one} for e in labels]

    return act


# ---------------------------------------------------------------------------
# Schur characters at permutations and restriction multiplicities


def power_sum_at_cycle_type(k: int, mu) -> int:
    """p_k(sigma) = number of fixed points of sigma^k = sum of cycle lengths
    dividing k."""
    return sum(c for c in mu if k % c == 0)


def schur_character(lam, n: int) -> ClassFunction:
    """Character of the Schur module S_lam(k^n) restricted to S_n, evaluated
    via s_lam = sum_rho chi^lam(rho)/z_rho p_rho at permutation eigenvalues."""
    lam = check_partition(lam)
    if len(lam) > n:
        raise ConfigError("Schur module needs at most n rows")
    w = sum(lam)
    values = {}
    for mu in partitions_of(n):
        total = Fraction(0)
        for rho in partitions_of(w):
            chi = irreducible_character(lam, rho)
            if chi == 0:
                continue
            p = 1
            for r in rho:
                p *= power_sum_at_cycle_type(r, mu)
            total += Fraction(chi, centralizer_order(rho)) * p
        values[mu] = total
    return ClassFunction(n, values)


def restriction_multiplicity(schur_lam, nu_n) -> int:
    """a_lam^{nu(n)}: multiplicity of Sp_{nu(n)} in Res S_lam."""
    nu_n = check_partition(nu_n)
    n = sum(nu_n)
    chi = schur_character(schur_lam, n)
    m = inner_product(chi, irreducible_class_function(nu_n))
    if m.denominator != 1 or m < 0:
        raise NotACharacter(f"restriction multiplicity came out {m}")
    return int(m)


def pad_partition(nu, n: int):
    """nu(n) = (n - |nu|, nu_1, ...); None when that is not a partition."""
    nu = tuple(nu)
    head = n - sum(nu)
    if head < 1:
        return None
    cand = (head,) + nu
    return cand if is_partition(cand) else None


def restriction_decomposition(schur_lam, n: int) -> SpechtDecomposition:
    chi = schur_character(schur_lam, n)
    return specht_decompose(chi)


# ---------------------------------------------------------------------------
# Predicted equivariant structure of the resolution


def _hook(a: int, b: int):
    """(a, 1^b) when it is a partition, else None."""
    cand = (a,) + (1,) * b
    return cand if a >= 1 and is_partition(cand) else None


def predicted_equivariant_tors(n: int, d: int) -> dict:
    """The displayed Specht decompositions for the general quotient, per
    bidegree, read literally with i = n-1 where the display leaves the index
    unbound; negative multiplicities are reported under key "flags".

    Keys: (i, j) -> SpechtDecomposition for
      - interior row (i, i+d-1), 2 <= i <= n-1, via the split sequence
        (multiplicities a_{(d,1^{i-1})} minus a on the two wedge hooks),
        plus (1, d) the generator row;
      - (n-1, n-1+d): sign^ell;
      - (n, n+d-1): literal boundary display;
      - (n, n+d): sign^a.
    """
    a = len(partitions_of(d)) - 1
    ell = len(partitions_of(d)) - len(partitions_of(d - 1)) - 1
    out = {}
    flags = []
    for i in range(1, n):
        # Tor_i(A)_{i+d-1} = Tor_{i-1}(I)_{(i-1)+d}
        ii = i - 1
        mults = dict(restriction_decomposition((d,) + (1,) * ii, n).multiplicities)
        for hook_b in (ii, ii - 1):
            if hook_b < 0:
                continue
            hk = _hook(n - hook_b, hook_b)
            if hk is None:
                continue
            mults[hk] = mults.get(hk, 0) - a
            if mults[hk] < 0:
                flags.append((i, i + d - 1, hk, mults[hk]))
            if not mults[hk]:
                del mults[hk]
        out[(i, i + d - 1)] = SpechtDecomposition(n, mults)
    out[(n - 1, n - 1 + d)] = SpechtDecomposition(
        n, {(1,) * n: ell} if ell else {}
    )
    # Literal third display with i = n-1: corrections +P(d-1)+1 on the sign
    # hook and -a on (2,1^{n-2}).
    iu = n - 1
    mults = dict(restriction_decomposition((d,) + (1,) * iu, n).multiplicities)
    sign_part = (1,) * n
    mults[sign_part] = mults.get(sign_part, 0) + len(partitions_of(d - 1)) + 1
    two_hook = _hook(2, n - 2)
    if two_hook:
        mults[two_hook] = mults.get(two_hook, 0) - a
        if mults[two_hook] < 0:
            flags.append((n, n + d - 1, two_hook, mults[two_hook]))
        if not mults[two_hook]:
            del mults[two_hook]
    out[(n, n + d - 1)] = SpechtDecomposition(n, mults)
    out[(n, n + d)] = SpechtDecomposition(n, {(1,) * n: a})
    out["flags"] = flags
    return out


def derived_boundary_tor(n: int, d: int) -> SpechtDecomposition:
    """The bidegree (n, n+d-1) decomposition derived from the split long
    exact sequence: restriction multiplicities of the (d, 1^{n-1}) Schur
    module minus a on both wedge hooks, plus l on the sign (net -P(d-1) on
    the sign hook).  This is the variant the homology oracle confirms; the
    literal display in predicted_equivariant_tors carries +P(d-1)+1 there
    and is reported, not asserted."""
    a = len(partitions_of(d)) - 1
    ell = len(partitions_of(d)) - len(partitions_of(d - 1)) - 1
    mults = dict(restriction_decomposition((d,) + (1,) * (n - 1), n).multiplicities)
    for hook in ((1,) * n, (2,) + (1,) * (n - 2)):
        if is_partition(hook):
            mults[hook] = mults.get(hook, 0) - a
    sign_part = (1,) * n
    mults[sign_part] = mults.get(sign_part, 0) + ell
    return SpechtDecomposition(n, {k: v for k, v in mults.items() if v})


def tensor_with_standard(lam) -> dict:
    """Decomposition of Sp_lam tensor Sp_(n-1,1): remove one box, add one
    box; the multiplicity of Sp_lam itself is (#distinct parts - 1) and every
    other constituent appears once."""
    lam = check_partition(lam)
    out = {}
    removable = [
        r
        for r in range(len(lam))
        if r == len(lam) - 1 or lam[r] > lam[r + 1]
    ]
    for r in removable:
        shrunk = list(lam)
        shrunk[r] -= 1
        base = tuple(p for p in shrunk if p)
        addable = set()
        for s in range(len(base) + 1):
            grown = list(base)
            if s < len(base):
                grown[s] += 1
            else:
                grown.append(1)
            cand = tuple(grown)
            if is_partition(cand) and cand not in addable:
                addable.add(cand)
                if cand != lam:
                    out[cand] = 1
    distinct = len(set(lam))
    if distinct - 1 > 0:
        out[lam] = distinct - 1
    return out


def quadratic_tor_of_ideal_display(n: int, i: int) -> SpechtDecomposition:
    """The printed stable decomposition of Tor_i(I) for a general quadratic
    principal symmetric ideal (read under the Tor_i(I) indexing); a 1^e tail
    with e < 0 makes the term vanish."""
    mults = {}

    def add(head, ones, m=1):
        if ones < 0:
            return
        cand = head + (1,) * ones
        if all(p >= 1 for p in cand) and is_partition(cand):
            mults[cand] = mults.get(cand, 0) + m

    add((n - i, 2), i - 2)
    add((n - i,), i, 2)
    add((n - i - 1, 2), i - 1, 2)
    add((n - i - 1,), i + 1, 2)
    add((n - i - 2, 2), i)
    return SpechtDecomposition(n, {k: v for k, v in mults.items() if v})
