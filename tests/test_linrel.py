"""The parametric relation systems, the reduced matrix, and its determinant."""

from fractions import Fraction

import pytest

from psilab.fields import QQ, ConfigError, PrimeField
from psilab.partitions import monomial_symmetric, partition_count, partitions_of
from psilab.inverse import linear_relations
from psilab.linrel import (
    AffineExpr,
    analyze_Aprime,
    build_full_system,
    build_symmetric_matrix,
    full_kernel_dim,
    generic_t,
    kernel_is_component_symmetric,
    minor_determinant,
    reduced_minor,
)


def test_zero_t_kernel_dimension():
    for d in (3, 4, 5):
        expected = partition_count(d) - partition_count(d - 1) - 1
        for n in (d, d + 2):
            assert full_kernel_dim({}, n, d) == expected


def test_generic_kernel_dimension_d3_n5():
    t = generic_t(3, seed=1)
    assert full_kernel_dim(t, 5, 3) == 0


def test_kernel_vectors_component_symmetric():
    for d, n in ((4, 6), (5, 7)):
        system = build_full_system(generic_t(d, seed=2), n, d)
        assert kernel_is_component_symmetric(system)


def test_full_system_agrees_with_relation_space_oracle():
    # two independent code paths for L_{W(t)}
    for d, n, seed in ((3, 4, 1), (4, 5, 2), (5, 6, 3), (6, 7, 4)):
        t = generic_t(d, seed)
        F = [
            monomial_symmetric(lam, n) - monomial_symmetric((d,), n).scaled(t[lam])
            for lam in partitions_of(d)
            if lam != (d,)
        ]
        assert full_kernel_dim(t, n, d) == linear_relations(F).dim
    # and at t = 0
    for d, n in ((3, 5), (4, 6)):
        F = [monomial_symmetric(lam, n) for lam in partitions_of(d) if lam != (d,)]
        assert full_kernel_dim({}, n, d) == linear_relations(F).dim


def test_symmetric_matrix_rows_d5():
    system = build_symmetric_matrix(6, 5)
    n = 6
    cols = system.column_partitions
    rows = {q: r for q, r in zip(system.row_partitions, system.entries)}

    def entry(q, lam):
        return rows[q][cols.index(lam)].evaluate(QQ, {})

    assert entry((1, 1, 1, 1), (1, 1, 1, 1, 1)) == n - 4
    assert entry((1, 1, 1, 1), (2, 1, 1, 1)) == 4
    assert entry((2, 2), (2, 2, 1)) == n - 2
    assert entry((2, 2), (3, 2)) == 2
    assert entry((3, 1), (3, 1, 1)) == n - 2
    assert entry((3, 1), (3, 2)) == 1
    assert entry((3, 1), (4, 1)) == 1
    # bottom row: -t_lam off the (4,1) column, n-1-t_(4,1) on it
    bottom = rows[(4,)]
    for lam in cols:
        e = bottom[cols.index(lam)]
        if lam == (4, 1):
            assert e.const == n - 1 and dict(e.coeffs) == {(4, 1): -1}
        else:
            assert e.const == 0 and dict(e.coeffs) == {lam: -1}


def test_reduced_minor_keeps_trailing_one_columns():
    system = build_symmetric_matrix(6, 5)
    keep, minor = reduced_minor(system)
    kept = [system.column_partitions[i] for i in keep]
    assert all(lam[-1] == 1 for lam in kept)
    assert len(kept) == partition_count(4)
    assert len(minor) == partition_count(4)


def test_det_factorization_d5():
    for n in (5, 6, 7, 10):
        rep = analyze_Aprime({}, n, 5)
        assert rep.det_factorization_ok
        assert rep.det_at_zero == Fraction((n - 4) * (n - 3) * (n - 2) ** 2 * (n - 1))


def test_det_d3_small_matrix():
    for n in (3, 4, 7):
        rep = analyze_Aprime(None, n, 3)
        assert rep.det_at_zero == Fraction((n - 2) * (n - 1))


def test_generic_rank_and_solution_dim():
    for d in (3, 4, 5):
        n = max(d, 6)
        rep = analyze_Aprime(generic_t(d, seed=5), n, d)
        assert rep.rank == partition_count(d - 1)
        assert rep.solution_dim == partition_count(d) - partition_count(d - 1) - 1


def test_det_is_affine_linear_in_t():
    # exact finite differences: second difference along any ray vanishes,
    # and det(t1 + t2) - det(t1) - det(t2) + det(0) = 0
    n, d = 6, 4
    t1 = generic_t(d, seed=11)
    t2 = generic_t(d, seed=12)
    det = lambda t: minor_determinant(t, n, d)
    two = {k: 2 * v for k, v in t1.items()}
    assert det(two) - 2 * det(t1) + det({}) == 0
    t12 = {k: t1[k] + t2[k] for k in t1}
    assert det(t12) - det(t1) - det(t2) + det({}) == 0


def test_inequality_chain_at_generic_t():
    # symmetric-solution dim <= full-solution dim, equality at generic t
    for d in (3, 4):
        n = d + 2
        t = generic_t(d, seed=21)
        rep = analyze_Aprime(t, n, d)
        full = full_kernel_dim(t, n, d)
        assert rep.solution_dim <= full or rep.solution_dim == full
        assert rep.solution_dim == full
        # and at t=0 symmetric solutions exhaust the kernel too
        rep0 = analyze_Aprime({}, n, d)
        assert rep0.solution_dim == full_kernel_dim({}, n, d)


def test_prime_field_needs_p_greater_than_n():
    with pytest.raises(ConfigError):
        build_full_system({}, 8, 3, PrimeField(7))
    # p > n is fine
    assert full_kernel_dim({}, 5, 3, PrimeField(11)) == 0


def test_affine_expr_render():
    e = AffineExpr(Fraction(5), (((2, 1), Fraction(-1)),))
    assert "t" in e.render(QQ) and "5" in e.render(QQ)


def test_quadratic_case_is_one_by_one():
    system = build_symmetric_matrix(4, 2)
    assert len(system.entries) == 1 and len(system.entries[0]) == 1
    rep = analyze_Aprime(generic_t(2, seed=1), 4, 2)
    assert rep.det_at_zero == 3  # n - 1
    assert rep.solution_dim == 0
    assert full_kernel_dim({}, 4, 2) == 0


def test_row_count_matches_alpha_count():
    from math import comb

    system = build_full_system({}, 5, 4)
    assert len(system.rows) == comb(5 + 3 - 1, 3)
    assert len(system.columns) == 5 * (partition_count(4) - 1)
