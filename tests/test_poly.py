"""Polynomials, dual elements, contraction, the S_n action, and row spaces."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psilab.fields import QQ, ConfigError, PrimeField
from psilab.partitions import monomial_symmetric
from psilab.poly import (
    DualElement,
    Polynomial,
    adjacent_transposition,
    compose_permutations,
    contract,
    element_from_json,
    format_element,
    identity_permutation,
    monomials_of_degree,
    parse_element,
)
from psilab.spans import RowSpace


def test_contract_single_monomial():
    f = parse_element("x1^2", n=3)
    g = parse_element("y1^(3)", n=3)
    assert contract(f, g) == parse_element("y1", n=3, dual=True)


def test_contract_vanishing():
    f = parse_element("x1*x2", n=2)
    g = parse_element("y1^(2)", n=2)
    assert contract(f, g).is_zero()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_contract_quadratic_example(n):
    f = parse_element("x1^2 - x2^2 + x1*x2", n=n)
    assert contract(f, monomial_symmetric((2,), n)).is_zero()


def test_contract_degree_bookkeeping():
    f = parse_element("x1*x3", n=3)
    g = parse_element("y1^(2)*y3", n=3)
    out = contract(f, g)
    assert out.degree() == g.degree() + f.degree() == -1
    assert out == parse_element("y1", n=3, dual=True)


def test_permute_polynomial():
    f = parse_element("x1^2*x3", n=3)
    swap = adjacent_transposition(3, 0)
    assert f.permuted(swap) == parse_element("x2^2*x3", n=3)


def test_permute_dual_relabels():
    g = parse_element("y1^(2)*y2", n=3)
    sigma = (2, 0, 1)  # 1 -> 3, 2 -> 1, 3 -> 2
    assert g.permuted(sigma) == parse_element("y3^(2)*y1", n=3)


def test_permute_wrong_length():
    f = parse_element("x1", n=3)
    with pytest.raises(ConfigError):
        f.permuted((1, 0))


def test_monomial_symmetric_invariance():
    m = monomial_symmetric((2, 1), 4)
    from itertools import permutations

    assert all(m.permuted(s) == m for s in permutations(range(4)))


perm4 = st.permutations(list(range(4)))


@given(perm4, perm4)
@settings(max_examples=40, deadline=None)
def test_permutation_action_is_group_action(s, t):
    f = parse_element("x1^2*x2 - 3*x3*x4^2 + x2*x3*x4", n=4)
    s, t = tuple(s), tuple(t)
    assert f.permuted(identity_permutation(4)) == f
    assert f.permuted(compose_permutations(s, t)) == f.permuted(t).permuted(s)


def sparse_poly(n, deg, nterms, rnd):
    terms = {}
    basis = monomials_of_degree(n, deg)
    for _ in range(nterms):
        e = basis[rnd.randrange(len(basis))]
        terms[e] = Fraction(rnd.randint(-5, 5))
    return Polynomial(n, terms, QQ)


def sparse_dual(n, deg, nterms, rnd):
    terms = {}
    basis = monomials_of_degree(n, deg)
    for _ in range(nterms):
        e = basis[rnd.randrange(len(basis))]
        terms[e] = Fraction(rnd.randint(-5, 5))
    return DualElement(n, terms, QQ)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_contraction_is_module_action(rnd):
    f = sparse_poly(3, 1, 2, rnd)
    g = sparse_poly(3, 2, 2, rnd)
    h = sparse_dual(3, 4, 3, rnd)
    assert contract(f * g, h) == contract(f, contract(g, h))


@given(st.randoms(use_true_random=False), perm4)
@settings(max_examples=40, deadline=None)
def test_contraction_equivariance(rnd, sigma):
    sigma = tuple(sigma)
    f = sparse_poly(4, 2, 3, rnd)
    g = sparse_dual(4, 3, 3, rnd)
    assert contract(f, g).permuted(sigma) == contract(f.permuted(sigma), g.permuted(sigma))


def test_reduce_to_basis_dimension():
    vecs = [
        parse_element("x1^2", n=2),
        parse_element("x2^2", n=2),
        parse_element("x1^2 + x2^2", n=2),
    ]
    rs = RowSpace(2, 2)
    for v in vecs:
        rs.add(v)
    assert rs.dim == 2


def test_reduce_to_basis_empty():
    assert RowSpace(3, 2).dim == 0


def test_reduce_to_basis_mixed_degrees_rejected():
    with pytest.raises(ConfigError):
        rs = RowSpace(2, 1)
        for v in (parse_element("x1", n=2), parse_element("x1^2", n=2)):
            rs.add(v)


def test_quadratic_example_span_dimension():
    from psilab.psi import orbit_span

    f = parse_element("x1^2 - x2^2 + x1*x2", n=3)
    assert orbit_span(f).dim == 6 - 1


def test_quadratic_example_listed_generators_span():
    # the explicit generators x_1^2 - x_j^2 (j != 1) and x_k x_l (k < l)
    gens = [
        parse_element("x1^2 - x2^2", n=3),
        parse_element("x1^2 - x3^2", n=3),
        parse_element("x1*x2", n=3),
        parse_element("x1*x3", n=3),
        parse_element("x2*x3", n=3),
    ]
    rs = RowSpace(3, 2)
    for g in gens:
        rs.add(g)
    assert rs.dim == 5 == 6 - 1
    from psilab.psi import orbit_span

    orbit = orbit_span(parse_element("x1^2 - x2^2 + x1*x2", n=3))
    assert all(orbit.contains(g) for g in gens)


def test_mod_p_rank_at_most_rational_rank():
    import random

    rnd = random.Random(5)
    for p in (5, 13):
        fp = PrimeField(p)
        for _ in range(10):
            rows = [
                {j: rnd.randint(-4, 4) for j in range(6)} for _ in range(4)
            ]
            from psilab.linalg import rank_of_vectors

            rq = rank_of_vectors(
                QQ, [{j: Fraction(v) for j, v in r.items() if v} for r in rows]
            )
            rp = rank_of_vectors(
                fp, [{j: v % p for j, v in r.items() if v % p} for r in rows]
            )
            assert rp <= rq


def test_mismatched_n_is_config_error():
    with pytest.raises(ConfigError):
        contract(parse_element("x1", n=2), parse_element("y1", n=3, dual=True))


def test_mismatched_field_is_config_error():
    f = parse_element("x1^2", n=2)
    g = parse_element("y1^(2)", n=2, field=PrimeField(7))
    with pytest.raises(ConfigError):
        contract(f, g)


def test_text_roundtrip():
    f = parse_element("3*x1^2*x3 - 1/2*x2*x4", n=4)
    assert parse_element(format_element(f), n=4) == f
    g = parse_element("y1^(2)*y3 - 2*y2", n=4)
    assert isinstance(g, DualElement)
    assert parse_element(format_element(g), n=4) == g


@pytest.mark.parametrize(
    "text",
    ["x0", "2.5*x1", "1e3*x1", "x1^2^3", "-x1 - -x2", "abc"],
    ids=["index-0", "decimal", "exponent-notation", "chained-power", "double-sign", "stray-letters"],
)
def test_misread_text_is_a_config_error(text):
    with pytest.raises(ConfigError):
        parse_element(text, n=3)


def test_accepted_text_syntax():
    assert parse_element("x1**2 - 3", n=2) == parse_element("x1^2 - 3", n=2)
    assert parse_element("y1^(2)*y3", n=3).terms == {(2, 0, 1): 1}
    assert parse_element("-1/2", n=2).terms == {(0, 0): Fraction(-1, 2)}


@st.composite
def elements(draw):
    field = draw(st.sampled_from([QQ, PrimeField(1009)]))
    cls = draw(st.sampled_from([Polynomial, DualElement]))
    n = draw(st.integers(min_value=1, max_value=4))
    if field == QQ:
        coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    else:
        coeff = st.integers(min_value=0, max_value=1008)
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    return cls(n, draw(st.dictionaries(exps, coeff, max_size=5)), field)


@given(elements())
@settings(max_examples=100, deadline=None)
def test_parse_inverts_format(v):
    dual = isinstance(v, DualElement)
    assert parse_element(format_element(v), n=v.n, field=v.field, dual=dual) == v


def test_json_roundtrip():
    f = parse_element("3*x1^2*x3 - 1/2*x2*x4", n=4)
    assert element_from_json(f.to_json()) == f
    data = f.to_json()
    assert data["terms"][0].keys() == {"coeff", "exps"}


def test_monomials_of_degree_count():
    from math import comb

    assert len(monomials_of_degree(4, 3)) == comb(6, 3)
    assert monomials_of_degree(2, 0) == [(0, 0)]
