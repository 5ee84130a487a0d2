"""Inverse systems, Hilbert/socle data, relation spaces, classification."""

import random
from fractions import Fraction
from math import comb

import pytest

from psilab.fields import QQ, ConfigError
from psilab.partitions import monomial_symmetric, partition_count, partitions_of
from psilab.poly import parse_element
from psilab.psi import PsiIdeal, sample_general_f
from psilab.inverse import (
    QuotientAlgebra,
    classify,
    full_power_ideal,
    hilbert_and_socle,
    inverse_system_component,
    linear_relations,
    module_of_inverse_system,
    module_of_quotient,
)


def quadratic_example(n):
    f = parse_element("x1^2 - x2^2 + x1*x2", n=n)
    return QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f))


def general_quotient(n, d, seed=1):
    f = sample_general_f(n, d, seed)
    return QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_inverse_component_quadratic_example(n):
    Q = quadratic_example(n)
    comp = inverse_system_component(Q, 2)
    assert comp.dim == 1
    assert comp.contains(monomial_symmetric((2,), n))


def test_inverse_component_below_generation_degree():
    Q = quadratic_example(4)
    assert inverse_system_component(Q, 1).dim == comb(4, 1)
    assert inverse_system_component(Q, 0).dim == 1


def test_duality_dimensions():
    Q = general_quotient(4, 2)
    hs = hilbert_and_socle(Q)
    for j in range(4):
        assert inverse_system_component(Q, j).dim == hs.hilbert[j]


def test_hilbert_socle_general_cubic_n5():
    Q = general_quotient(5, 3)
    hs = hilbert_and_socle(Q)
    assert hs.hilbert[:5] == [1, 5, 15, 2, 0]
    assert hs.socle_polynomial() == {2: 5, 3: 2}
    assert hs.initial_degree == 3 and hs.top_socle_degree == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hilbert_socle_general_quadratic(n):
    Q = general_quotient(n, 2)
    hs = hilbert_and_socle(Q)
    assert hs.hilbert[: 3 + 1] == [1, n, 1, 0]
    assert hs.socle_polynomial() == {2: 1}


def test_power_ideal_socle():
    n, d = 3, 2
    Q = QuotientAlgebra(full_power_ideal(n, d + 1))
    hs = hilbert_and_socle(Q)
    assert hs.initial_degree == d + 1
    assert hs.socle_polynomial() == {d: comb(n + d - 1, d)}
    cl = classify(Q)
    assert cl.narrow and not cl.extremely_narrow


def test_classification_cubic_general():
    cl = classify(general_quotient(5, 3))
    assert cl.narrow and cl.extremely_narrow
    assert cl.compressed and cl.permissible_socle
    assert not cl.gorenstein
    assert cl.relation_dim == 0


def test_classification_quadratic_example():
    cl = classify(quadratic_example(3))
    assert cl.extremely_narrow and cl.gorenstein
    assert cl.socle == {2: 1}


def test_classification_refused_when_not_artinian():
    f = parse_element("x1^2", n=3)  # (x1^2, ..., x3^2) is artinian; use n=3 with cap 1
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f), degree_cap=1)
    with pytest.raises(ConfigError):
        classify(Q)


def test_top_degree_refuses_common_zero_at_all_ones():
    # f(1, ..., 1) = 0: (1, ..., 1) is a common zero of the whole orbit
    f = parse_element("x1^2 - x2^2 + x1*x2 - x2*x3", n=3)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f), degree_cap=40)
    assert Q.top_degree() is None
    # answered from the generators alone, without building I_j up to the cap
    assert set(Q._ideal) == {2}
    # the shortcut agrees with the full scan of the Hilbert function
    assert all(Q.hilbert(j) > 0 for j in range(Q.degree_cap + 1))


def test_classify_refuses_common_zero_without_building_past_d():
    d = 3
    f = parse_element("x1^3 - x2^3 + x1*x2*x3 - x2*x3*x4", n=4)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f))
    assert not hilbert_and_socle(Q).artinian
    with pytest.raises(ConfigError, match="classification refused"):
        classify(Q)
    assert max(Q._ideal) <= d


def test_linear_relations_single_power():
    n, d = 4, 3
    F = [parse_element("y1^(3)", n=n)]
    L = linear_relations(F)
    assert L.dim == n - 1
    # brute-force oracle: ell o y1^(3) = 0 iff the x1 coefficient vanishes
    for forms in L.tuples:
        assert forms[0].coefficient((1, 0, 0, 0)) == 0


def test_linear_relations_dependent_family_rejected():
    n = 3
    g = monomial_symmetric((2,), n)
    with pytest.raises(ConfigError):
        linear_relations([g, g.scaled(Fraction(2))])


def test_linear_relations_of_symmetric_family():
    n, d = 5, 3
    F = [monomial_symmetric(lam, n) for lam in partitions_of(d) if lam != (d,)]
    L = linear_relations(F)
    assert L.dim == partition_count(d) - partition_count(d - 1) - 1
    # components lie on the line through x1 + ... + xn
    assert L.component_span.dim <= 1


def test_linear_relations_quadratic_general_is_zero():
    Q = general_quotient(4, 2)
    comp = inverse_system_component(Q, 2)
    L = linear_relations(comp.elements())
    assert L.dim == 0


def test_relation_dim_formula():
    # dim L = a*n - dim(R_1 o span F)
    n, d = 4, 3
    F = [monomial_symmetric(lam, n) for lam in partitions_of(d) if lam != (d,)]
    L = linear_relations(F)
    from psilab.linalg import Echelon
    from psilab.poly import contract, monomial

    ech = Echelon(QQ)
    from psilab.spans import RowSpace

    target = RowSpace(n, d - 1, QQ, dual=True)
    for Fi in F:
        for k in range(n):
            e = [0] * n
            e[k] = 1
            ech.insert(target.to_vector(contract(monomial(n, e), Fi)))
    assert L.dim == len(F) * n - ech.dim


def test_extremely_narrow_test_is_basis_independent():
    rnd = random.Random(3)
    Q = general_quotient(5, 3)
    comp = inverse_system_component(Q, 3)
    F = comp.elements()
    a = len(F)
    base_span = linear_relations(F).component_span.dim
    for _ in range(5):
        while True:
            M = [[Fraction(rnd.randint(-3, 3)) for _ in range(a)] for _ in range(a)]
            from psilab.linalg import determinant

            if determinant(QQ, M) != 0:
                break
        G = []
        for r in range(a):
            g = None
            for c in range(a):
                term = F[c].scaled(M[r][c])
                g = term if g is None else g + term
            G.append(g)
        assert linear_relations(G).component_span.dim == base_span


def test_strategy_premises_imply_extremely_narrow():
    # supplied independent family with one-line relations forces the verdict
    n, d = 5, 3
    Q = general_quotient(n, d)
    a = partition_count(d) - 1
    assert hilbert_and_socle(Q).hilbert[d] <= a
    W = inverse_system_component(Q, d).elements()
    L = linear_relations(W)
    assert L.component_span.dim <= 1
    cl = classify(Q)
    assert cl.extremely_narrow
    b = comb(n + d - 2, d - 1) - a * n + L.dim
    assert cl.socle == {i: e for i, e in ((d - 1, b), (d, a)) if e}


def test_lemma_st_bound():
    Q = general_quotient(4, 2)
    hs = hilbert_and_socle(Q)
    assert hs.initial_degree <= hs.top_socle_degree + 1


def test_narrow_iff_two_betti_rows():
    from psilab.homology import koszul_betti

    Q = general_quotient(4, 2)
    cl = classify(Q)
    table = koszul_betti(module_of_quotient(Q))
    d = cl.top_socle_degree
    rows_ok = all(
        j - i in (d, d - 1) for (i, j) in table.entries if i > 0
    )
    assert cl.narrow == rows_ok


def test_dual_module_tor1_matches_relation_space():
    from psilab.homology import koszul_betti

    Q = general_quotient(5, 3)
    comp = inverse_system_component(Q, 3)
    L = linear_relations(comp.elements())
    dual_betti = koszul_betti(module_of_inverse_system(Q))
    assert dual_betti.get(1, -3 + 1) == L.dim


def test_quotient_action_matrices_commute():
    M = module_of_quotient(general_quotient(3, 2))
    M.check_commuting()
    MD = module_of_inverse_system(general_quotient(3, 2))
    MD.check_commuting()
