"""Field arithmetic and the sparse exact linear algebra core."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psilab.fields import QQ, ConfigError, PrimeField, field_from_spec, is_prime
from psilab.linalg import (
    Echelon,
    coordinates,
    determinant,
    kernel_of_columns,
    kernel_of_rows,
    matrix_times_vector,
    rank_of_vectors,
)


def test_prime_field_arithmetic():
    f = PrimeField(13)
    a, b = f.from_int(7), f.from_int(9)
    assert f.mul(a, f.inv(a)) == f.one
    assert f.add(a, b) == 3
    assert f.sub(a, b) == 11
    assert f.parse("1/2") == f.inv(f.from_int(2))


def test_prime_field_requires_prime():
    with pytest.raises(ConfigError):
        PrimeField(15)
    assert is_prime(1009) and not is_prime(1)


def test_field_from_spec():
    assert field_from_spec("q") is QQ
    assert field_from_spec("fp:101") == PrimeField(101)
    with pytest.raises(ConfigError):
        field_from_spec("gf(4)")


def dense_to_sparse(rows):
    return [
        {j: Fraction(v) for j, v in enumerate(r) if v} for r in rows
    ]


def test_echelon_rank_and_membership():
    ech = Echelon(QQ)
    for v in dense_to_sparse([[1, 2, 0], [0, 1, 1], [1, 3, 1]]):
        ech.insert(v)
    assert ech.dim == 2
    assert ech.contains({0: Fraction(1), 1: Fraction(3), 2: Fraction(1)})
    assert not ech.contains({2: Fraction(1)})


def test_echelon_rows_fully_reduced():
    ech = Echelon(QQ)
    for v in dense_to_sparse([[1, 2, 3], [0, 1, 1], [0, 0, 2]]):
        ech.insert(v)
    pivots = set(ech.rows)
    for p, row in ech.rows.items():
        assert min(row) == p and row[p] == 1
        assert all(c == p or c not in pivots for c in row)


def test_kernel_of_rows_matches_rank_nullity():
    rows = dense_to_sparse([[1, 2, 0, 1], [0, 0, 1, 1]])
    ker = kernel_of_rows(QQ, rows, 4)
    assert len(ker) == 2
    for x in ker:
        for r in rows:
            s = sum(r.get(c, 0) * v for c, v in x.items())
            assert s == 0


def test_kernel_of_columns():
    # map sending e0 -> t0, e1 -> t0: kernel spanned by e0 - e1
    cols = [{0: Fraction(1)}, {0: Fraction(1)}]
    ker = kernel_of_columns(QQ, cols)
    assert len(ker) == 1
    img = matrix_times_vector(QQ, cols, ker[0])
    assert img == {}


@pytest.mark.parametrize("field", [QQ, PrimeField(1009)], ids=["QQ", "GF1009"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_coordinates_read_off_key_columns(field, data):
    ncols = data.draw(st.integers(min_value=1, max_value=7), label="ncols")
    entry = st.one_of(st.just(0), st.integers(min_value=-5, max_value=5))
    dense = data.draw(
        st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6),
        label="matrix",
    )
    ech = Echelon(field)
    for r in dense:
        ech.insert({j: field.from_int(v) for j, v in enumerate(r) if v})
    kernel = ech.kernel_basis(ncols)
    bases = [
        (ech.row_vectors(), ech.pivots()),
        (kernel, [max(v) for v in kernel]),
    ]
    coeff = st.integers(min_value=-9, max_value=9).map(field.from_int)
    for vectors, keys in bases:
        cs = data.draw(st.lists(coeff, min_size=len(vectors), max_size=len(vectors)))
        want = {i: c for i, c in enumerate(cs) if c != field.zero}
        vec = matrix_times_vector(field, vectors, want)
        assert coordinates(field, vectors, keys, vec) == want
        # agreeing with a member on every key column is not enough
        for c in sorted(set(range(ncols)) - set(keys)):
            off = dict(vec)
            off[c] = field.add(off.get(c, field.zero), field.one)
            if off[c] == field.zero:
                del off[c]
            with pytest.raises(ValueError):
                coordinates(field, vectors, keys, off)


def test_determinant():
    m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert determinant(QQ, m) == -2
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert determinant(QQ, singular) == 0


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=50, deadline=None)
def test_rank_nullity_property(dense):
    rows = dense_to_sparse(dense)
    rank = rank_of_vectors(QQ, rows)
    ker = kernel_of_rows(QQ, rows, 4)
    assert rank + len(ker) == 4
    for x in ker:
        for r in rows:
            assert sum(r.get(c, 0) * v for c, v in x.items()) == 0


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
        min_size=2,
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_mod_p_rank_bounds_rational_rank(dense):
    p = 9973
    fp = PrimeField(p)
    rq = rank_of_vectors(QQ, dense_to_sparse(dense))
    rp = rank_of_vectors(
        fp, [{j: v % p for j, v in enumerate(r) if v % p} for r in dense]
    )
    assert rp <= rq
