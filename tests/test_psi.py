"""Orbit spans, the random sampler, the special construction, t-parameters."""

import itertools
from math import comb

import pytest

from psilab.fields import QQ, ConfigError, PrimeField
from psilab.linalg import Echelon
from psilab.partitions import monomial_type, partitions_of, subpartitions
from psilab.poly import Polynomial, adjacent_transposition, parse_element
from psilab.psi import (
    PsiIdeal,
    admissible_binomial,
    build_construction_f,
    construction_min_vars,
    construction_summand_count,
    expected_orbit_dim_construction,
    extract_params,
    is_admissible_binomial,
    orbit_span,
    sample_general_f,
)
from psilab.spans import RowSpace


def test_orbit_span_of_power():
    f = parse_element("x1^3", n=4)
    rs = orbit_span(f)
    assert rs.dim == 4
    assert rs.contains(parse_element("x3^3", n=4))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_orbit_span_quadratic_example(n):
    f = parse_element("x1^2 - x2^2 + x1*x2", n=n)
    assert orbit_span(f).dim == comb(n + 1, 2) - 1


def test_orbit_span_cubic_example():
    f = parse_element("x1^3 - x2^3 + x1^2*x3 + x2*x3*x4 - x2*x3*x5", n=5)
    assert orbit_span(f).dim == 35 - 2


def test_orbit_span_rejects_zero():
    with pytest.raises(ConfigError):
        orbit_span(Polynomial(2, {}, QQ))


def test_orbit_span_is_stable_under_transpositions():
    f = sample_general_f(4, 2, seed=9)
    rs = orbit_span(f)
    for vec in rs.elements():
        for i in range(3):
            assert rs.contains(vec.permuted(adjacent_transposition(4, i)))


def _orbit_test_polys(field):
    """Sampled f, x1^d and a binomial for n <= 5, d <= 3, plus the special
    construction for d = 2 (which needs n = 8)."""
    for n in range(2, 6):
        for d in range(1, 4):
            yield sample_general_f(n, d, seed=10 * n + d, field=field)
            yield parse_element(f"x1^{d}", n=n, field=field)
            rest = (0,) * (n - 2)
            yield Polynomial(
                n, {(d, 0) + rest: field.one, (d - 1, 1) + rest: field.neg(field.one)}, field
            )
    yield build_construction_f(2, field=field)[0]


@pytest.mark.parametrize("field", [QQ, PrimeField(1009)], ids=["QQ", "GF1009"])
def test_orbit_span_equals_rref_of_all_permuted_copies(field, monkeypatch):
    inserts = 0
    insert = Echelon.insert

    def counting_insert(self, vec):
        nonlocal inserts
        inserts += 1
        return insert(self, vec)

    for f in _orbit_test_polys(field):
        oracle = RowSpace(f.n, f.degree(), field)
        for sigma in itertools.permutations(range(f.n)):
            oracle.add(f.permuted(sigma))
        inserts = 0
        with monkeypatch.context() as m:
            m.setattr(Echelon, "insert", counting_insert)
            rs = orbit_span(f)
        # RREF is canonical, so equal spans have equal rows
        assert rs.ech.rows == oracle.ech.rows, f
        assert inserts <= 1 + (f.n - 1) * rs.dim, f


def test_orbit_span_beyond_ten_factorial_over_q():
    # 10! = 3628800 permuted copies, at most 1 + 9 * 54 inserts
    assert orbit_span(sample_general_f(10, 2, 1)).dim == 54


def test_orbit_span_agrees_between_fields():
    # mod-p span dimension is a lower bound and matches here
    f = parse_element("x1^2 - x2^2 + x1*x2", n=4)
    fp = PrimeField(101)
    fpoly = parse_element("x1^2 - x2^2 + x1*x2", n=4, field=fp)
    assert orbit_span(f).dim == orbit_span(fpoly).dim


def test_sampler_determinism_and_support():
    f1 = sample_general_f(3, 2, seed=7, coeff_bound=50)
    f2 = sample_general_f(3, 2, seed=7, coeff_bound=50)
    assert f1 == f2
    assert len(f1.terms) == comb(3 + 1, 2)
    f3 = sample_general_f(3, 2, seed=8, coeff_bound=50)
    assert f1 != f3


def test_sampler_support_full_over_many_seeds():
    N = comb(4 + 1, 2)
    for seed in range(100):
        f = sample_general_f(4, 2, seed=seed)
        assert len(f.terms) == N
        extract_params(f)  # never raises: alpha_(d) != 0 by construction


def test_extract_params_cubic_example_is_degenerate():
    f = parse_element("x1^3 - x2^3 + x1^2*x3 + x2*x3*x4 - x2*x3*x5", n=5)
    with pytest.raises(ConfigError):
        extract_params(f)


def test_extract_params_values():
    f = parse_element("x1^3 + x1^2*x3", n=3)
    tp = extract_params(f)
    assert tp.t[(2, 1)] == 1
    assert tp.t[(1, 1, 1)] == 0


def test_construction_parameters_all_zero():
    for d in (2, 3):
        f, _ = build_construction_f(d)
        tp = extract_params(f)
        assert all(v == 0 for v in tp.t.values())


def test_construction_shape_d3():
    f, nmin = build_construction_f(3)
    assert nmin == 26
    assert f.n == 26
    # 7 summands: one cube and six binomials, 13 monomials in total
    assert construction_summand_count(3) == 7
    assert len(f.terms) == 13
    types = sorted(monomial_type(e) for e in f.terms)
    assert types.count((3,)) == 1


def test_construction_shape_d2():
    f, nmin = build_construction_f(2)
    assert nmin == 8
    assert construction_min_vars(2) == 8
    assert len(f.terms) == 5  # x1^2 plus two binomials


def test_construction_rejects_small_n():
    with pytest.raises(ConfigError):
        build_construction_f(3, n=20)


def test_admissibility_witness():
    n = 7
    b = parse_element("x1^5*x2^5*x3^5*x4^2*x5 - x1^5*x2^5*x6^5*x4^2*x7", n=n)
    assert is_admissible_binomial(b)
    bad = parse_element("x1^3*x2^2*x3^2*x4 - x2^3*x1^2*x5^2*x6", n=6)
    assert not is_admissible_binomial(bad)


def test_admissible_binomial_builder_matches_requested_types():
    lam, gamma = (5, 5, 5, 2, 1), (5, 5, 2)
    b, used = admissible_binomial(lam, gamma, 0, 10)
    assert is_admissible_binomial(b)
    (e1, _), (e2, _) = sorted(b.terms.items())
    assert monomial_type(e1) == lam and monomial_type(e2) == lam
    g = tuple(min(a, c) for a, c in zip(e1, e2))
    assert monomial_type(g) == gamma


def test_construction_summands_lie_in_ideal_d2():
    f, nmin = build_construction_f(2)
    ps = PsiIdeal.from_polynomial(f)
    assert ps.minimal_generator_count == expected_orbit_dim_construction(nmin, 2)
    nxt = 1
    for lam in partitions_of(2):
        if lam == (2,):
            continue
        for gamma in subpartitions(lam):
            if gamma == lam:
                continue
            b, nxt = admissible_binomial(lam, gamma, nxt, nmin)
            assert ps.degree_d_basis.contains(b)


def test_construction_summands_lie_in_ideal_d3_mod_p():
    fp = PrimeField(1009)
    f, nmin = build_construction_f(3, field=fp)
    ps = PsiIdeal.from_polynomial(f)
    assert ps.minimal_generator_count == expected_orbit_dim_construction(nmin, 3)
    nxt = 1
    for lam in partitions_of(3):
        if lam == (3,):
            continue
        for gamma in subpartitions(lam):
            if gamma == lam:
                continue
            b, nxt = admissible_binomial(lam, gamma, nxt, nmin, fp)
            assert ps.degree_d_basis.contains(b)


def test_prime_field_bound_guard():
    fp = PrimeField(5)
    f = parse_element("x1^2 - x2^2 + x1*x2", n=4, field=fp)
    with pytest.raises(ConfigError):
        PsiIdeal.from_polynomial(f)
