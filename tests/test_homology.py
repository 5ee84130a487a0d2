"""Koszul homology oracle, closed-form tables, duality, k-resolutions."""

from fractions import Fraction
from math import comb

import pytest

from psilab.fields import QQ, ConfigError, PrimeField
from psilab.partitions import partition_count
from psilab.poly import parse_element
from psilab.psi import PsiIdeal, sample_general_f
from psilab.inverse import (
    QuotientAlgebra,
    classify,
    module_of_inverse_system,
    module_of_quotient,
)
from psilab.homology import (
    BettiTable,
    GradedModule,
    matlis_betti_duality,
    closed_form_b_variants,
    closed_form_betti,
    koszul_betti,
    maximal_ideal_power_betti,
    residue_field_module,
    residue_field_resolution,
    truncated_power_module,
)
from psilab.verify import golod_bound_series, series_coefficients


def general_quotient(n, d, seed=1):
    f = sample_general_f(n, d, seed)
    return QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f))


def test_betti_of_residue_field_is_koszul_complex():
    for n in (2, 3, 4):
        t = koszul_betti(residue_field_module(QQ, n))
        assert t.entries == {(i, i): comb(n, i) for i in range(n + 1)}


def test_golden_cubic_betti_table():
    f = parse_element("x1^3 - x2^3 + x1^2*x3 + x2*x3*x4 - x2*x3*x5", n=5)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f))
    t = koszul_betti(module_of_quotient(Q))
    assert t.entries == {
        (0, 0): 1,
        (1, 3): 33,
        (2, 4): 95,
        (3, 5): 106,
        (4, 6): 50,
        (5, 7): 5,
        (5, 8): 2,
    }


def test_cubic_two_variables():
    Q = general_quotient(2, 3)
    t = koszul_betti(module_of_quotient(Q))
    assert t.entries == {(0, 0): 1, (1, 3): 2, (2, 6): 1}


def test_closed_form_values_n5_d3():
    t = closed_form_betti(5, 3)
    assert [t.get(i, i + 2) for i in range(1, 6)] == [33, 95, 106, 50, 5]
    assert t.get(5, 8) == 2 and t.get(4, 7) == 0
    assert closed_form_b_variants(5, 3) == {"b": 5, "b_alternative_sign": 9}


def test_closed_form_gorenstein_quadratic():
    for n in (2, 3, 5):
        t = closed_form_betti(n, 2)
        assert t.get(n, n + 2) == 1  # a = P(2)-1
        assert t.get(n, n + 1) == 0  # b = 0
        assert t.get(n - 1, n + 1) == 0  # l = 0
        assert t.total(0) == 1


def test_closed_form_out_of_regime_raises():
    with pytest.raises(ValueError):
        closed_form_betti(2, 3)


def test_formula_equals_oracle_small():
    for d, n in ((2, 3), (2, 4), (3, 5)):
        assert koszul_betti(module_of_quotient(general_quotient(n, d))) == closed_form_betti(n, d)


def test_maximal_ideal_power_betti_values():
    # beta_i(m^d) = C(n+d-1, d+i) C(d+i-1, i)
    assert maximal_ideal_power_betti(5, 3, 0) == comb(7, 3)
    assert maximal_ideal_power_betti(5, 3, 1) == comb(7, 4) * comb(3, 1)


def test_ses_rank_bookkeeping():
    # beta_{i,i+d}(I) + C(n,i) a = beta_i(m^d) for i <= n-2
    n, d = 5, 3
    a = partition_count(d) - 1
    table = koszul_betti(module_of_quotient(general_quotient(n, d)))
    for i in range(0, n - 1):
        lhs = table.get(i + 1, i + d) + comb(n, i) * a
        assert lhs == maximal_ideal_power_betti(n, d, i)


def test_single_row_concentration_low_degrees():
    # homological degrees <= n-3 of I sit in the single row j = i + d
    n, d = 5, 3
    table = koszul_betti(module_of_quotient(general_quotient(n, d)))
    for (i, j), v in table.entries.items():
        if 1 <= i <= n - 2 and v:  # Tor_{i-1}(I) with i-1 <= n-3
            assert j == i + d - 1


def test_st_bounds_on_computed_tables():
    for n, d in ((4, 2), (5, 3)):
        Q = general_quotient(n, d)
        cl = classify(Q)
        t_I, s_A = cl.initial_degree, cl.top_socle_degree
        table = koszul_betti(module_of_quotient(Q))
        for (i, j), v in table.entries.items():
            if i > 0 and v:
                assert j >= i - 1 + t_I
                assert j <= i + s_A
        assert table.get(n, n + s_A) != 0


def test_matlis_duality():
    for d, n in ((2, 3), (3, 5)):
        Q = general_quotient(n, d)
        assert matlis_betti_duality(module_of_quotient(Q), module_of_inverse_system(Q))


def test_matlis_duality_on_quadratic_example():
    f = parse_element("x1^2 - x2^2 + x1*x2", n=3)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f))
    assert matlis_betti_duality(module_of_quotient(Q), module_of_inverse_system(Q))


def test_self_duality_of_koszul_complex():
    # k against k: C(n,i) = C(n,n-i)
    n = 4
    M = residue_field_module(QQ, n)
    assert matlis_betti_duality(M, M)


def test_residue_field_resolution_koszul_case():
    Q = general_quotient(3, 2)
    betti = residue_field_resolution(module_of_quotient(Q), max_i=5, gen_limit=100000)
    assert all(i == j for (i, j) in betti)
    totals = {}
    for (i, j), v in betti.items():
        totals[i] = totals.get(i, 0) + v
    expected = [int(c) for c in series_coefficients([1], [1, -3, 1], 5)]
    assert [totals.get(i, 0) for i in range(6)] == expected == [1, 3, 8, 21, 55, 144]


def test_residue_field_resolution_golod_case():
    Q = general_quotient(5, 3)
    table = koszul_betti(module_of_quotient(Q))
    betti = residue_field_resolution(module_of_quotient(Q), max_i=3, gen_limit=100000)
    totals = {}
    for (i, j), v in betti.items():
        totals[i] = totals.get(i, 0) + v
    # Serre bound with the computed R-betti of A; equality = Golod
    den = [Fraction(1), 0, -table.total(1), -table.total(2), -table.total(3)]
    num = [comb(5, i) for i in range(6)]
    expected = [int(c) for c in series_coefficients(num, den, 3)]
    assert [totals.get(i, 0) for i in range(4)] == expected
    # the universal identity beta_2 = C(n,2) + mu(I)
    assert totals[2] == comb(5, 2) + table.total(1)


@pytest.mark.parametrize("field", [QQ, PrimeField(1009)], ids=["QQ", "GF1009"])
@pytest.mark.parametrize(
    "kind,n,d",
    [("koszul", n, 2) for n in (2, 3, 4, 5)]
    + [("golod", n, 3) for n in (3, 4, 5)]
    + [("complete-intersection", 3, d) for d in (2, 3)],
)
def test_residue_field_resolution_closed_forms(kind, n, d, field):
    """Totals of the k-resolution against closed forms: 1/H_A(-t) for a
    general quadric (Koszul, diagonal), the Serre bound for a general cubic
    (Golod), and C(n+i-1, i) for the complete intersection of x_k^d."""
    if kind == "complete-intersection":
        f = parse_element(f"x1^{d}", n=n, field=field)
        # the default cap d+n stops below the socle x1^(d-1)...xn^(d-1)
        cap = n * (d - 1) + 1
    else:
        f = sample_general_f(n, d, 1, 99, field)
        cap = None
    A = module_of_quotient(QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f), cap))
    upto = 3 if kind == "golod" else 4
    betti = residue_field_resolution(A, max_i=upto)
    totals = [0] * (upto + 1)
    for (i, _), v in betti.items():
        totals[i] += v
    if kind == "koszul":
        hilbert_at_minus_t = [(-1) ** j * A.dim(j) for j in A.degrees()]
        assert totals == series_coefficients([1], hilbert_at_minus_t, upto)
        assert all(i == j for (i, j) in betti)
    elif kind == "golod":
        assert totals == golod_bound_series(n, koszul_betti(A), upto)
    else:
        assert totals == [comb(n + i - 1, i) for i in range(upto + 1)]


def test_residue_field_resolution_gen_limit():
    from psilab.homology import ResourceLimit

    Q = general_quotient(3, 2)
    with pytest.raises(ResourceLimit) as exc:
        residue_field_resolution(module_of_quotient(Q), max_i=5, gen_limit=10)
    assert (0, 0) in exc.value.partial


def test_truncated_power_module_betti_window():
    # Tor_i(m^d) within the safe window j <= cap + i - 1
    n, d = 3, 2
    cap = d + n + 1
    T = truncated_power_module(QQ, n, d, cap)
    table = koszul_betti(T)
    for i in range(n):
        assert table.get(i, i + d) == maximal_ideal_power_betti(n, d, i)


def test_commutativity_validation_error():
    one = Fraction(1)
    cols_bad = {
        (0, 0): [{0: one}],
        (1, 0): [{0: one}],
        (0, 1): [{}],
        (1, 1): [{0: one}],
    }
    M = GradedModule(QQ, 2, {0: 1, 1: 1, 2: 1}, cols_bad)
    with pytest.raises(ConfigError):
        M.check_commuting()


def test_betti_table_render_and_json():
    t = BettiTable(2, {(0, 0): 1, (1, 2): 3})
    assert "tot" in t.render()
    assert {"i": 1, "j": 2, "beta": 3} in t.to_json()
