"""Characters, Specht decompositions, Tor characters, restriction coefficients."""

import random
from fractions import Fraction

import pytest

from psilab.fields import QQ, PrimeField
from psilab.partitions import is_partition, partitions_of
from psilab.poly import parse_element
from psilab.psi import PsiIdeal, build_construction_f, sample_general_f
from psilab.inverse import QuotientAlgebra, module_of_quotient
from psilab.homology import (
    koszul_betti,
    maximal_ideal_power_betti,
    residue_field_module,
    truncated_power_module,
)
from psilab.equivariant import (
    ClassFunction,
    NotACharacter,
    centralizer_order,
    cycle_type_representative,
    inner_product,
    irreducible_character,
    irreducible_class_function,
    monomial_module_action,
    pad_partition,
    permutation_cycle_type,
    predicted_equivariant_tors,
    quotient_module_action,
    restriction_decomposition,
    restriction_multiplicity,
    schur_character,
    sign_class_function,
    specht_decompose,
    specht_dim,
    tensor_with_standard,
    tor_character,
    tor_trace,
    validate_equivariance,
)


def test_trivial_and_sign_characters():
    for n in (3, 4, 5):
        for mu in partitions_of(n):
            assert irreducible_character((n,), mu) == 1
            assert irreducible_character((1,) * n, mu) == (-1) ** (n - len(mu))


def test_standard_character_is_fix_minus_one():
    # brute-force oracle: trace of the permutation matrix minus the trivial part
    for n in (4, 5, 6):
        for mu in partitions_of(n):
            fix = mu.count(1)
            assert irreducible_character((n - 1, 1), mu) == fix - 1


def test_character_first_orthogonality():
    n = 5
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            ip = inner_product(
                irreducible_class_function(lam), irreducible_class_function(mu)
            )
            assert ip == (1 if lam == mu else 0)


def test_specht_dims_sum_of_squares():
    from math import factorial

    for n in (4, 5, 6):
        assert sum(specht_dim(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_centralizer_orders_partition_group_order():
    from math import factorial

    for n in (4, 5):
        assert sum(factorial(n) // centralizer_order(mu) for mu in partitions_of(n)) == factorial(n)


def test_cycle_type_representative_roundtrip():
    for n in (5, 6):
        for mu in partitions_of(n):
            sigma = cycle_type_representative(mu)
            assert permutation_cycle_type(sigma) == mu


def test_specht_decompose_permutation_character():
    n = 5
    values = {mu: Fraction(mu.count(1)) for mu in partitions_of(n)}
    dec = specht_decompose(ClassFunction(n, values))
    assert dec.nonzero() == {(n,): 1, (n - 1, 1): 1}


def test_specht_decompose_sign():
    n = 4
    dec = specht_decompose(sign_class_function(n))
    assert dec.nonzero() == {(1, 1, 1, 1): 1}


def test_specht_decompose_rejects_non_character():
    n = 3
    values = {mu: Fraction(1, 2) for mu in partitions_of(n)}
    with pytest.raises(NotACharacter):
        specht_decompose(ClassFunction(n, values))


def test_wedge_of_standard_via_tor_of_k():
    # Tor_i(k,k) = hook + previous hook; the Lambda^i part is Sp_{(n-i,1^i)}
    n = 5
    M = residue_field_module(QQ, n)
    act = quotient_module_action(M)
    for i in range(n + 1):
        dec = specht_decompose(tor_character(M, act, i, i))
        expected = {}
        for head, ones in ((n - i, i), (n - i + 1, i - 1)):
            if ones < 0:
                continue
            h = (head,) + (1,) * ones
            if all(p >= 1 for p in h) and is_partition(h) and sum(h) == n:
                expected[h] = 1
        assert dec.nonzero() == expected


def test_restriction_of_first_schur_modules():
    n = 4
    assert restriction_decomposition((1,), n).nonzero() == {(4,): 1, (3, 1): 1}
    # Res S_(1^i) is the i-th wedge of the permutation representation, which
    # is exactly the Tor_i(k,k) character
    M = residue_field_module(QQ, n)
    act = quotient_module_action(M)
    for i in (1, 2, 3):
        dec_schur = specht_decompose(schur_character((1,) * i, n))
        wedge = specht_decompose(tor_character(M, act, i, i))
        assert dec_schur.nonzero() == wedge.nonzero()


def test_restriction_delta_for_small_weights():
    for n in (8, 10):
        for w in (1, 2, 3):
            for lam in partitions_of(w):
                for nu in partitions_of(w):
                    m = restriction_multiplicity(lam, pad_partition(nu, n))
                    assert m == (1 if lam == nu else 0)


def test_pad_partition():
    assert pad_partition((2, 1), 7) == (4, 2, 1)
    assert pad_partition((), 5) == (5,)
    assert pad_partition((4,), 6) is None  # head 2 < 4


def test_tensor_rule_character_identity():
    rnd = random.Random("tensor")
    for _ in range(20):
        n = rnd.randint(3, 8)
        parts = partitions_of(n)
        lam = parts[rnd.randrange(len(parts))]
        lhs = irreducible_class_function(lam) * irreducible_class_function((n - 1, 1))
        rhs = None
        for mu, c in tensor_with_standard(lam).items():
            term = irreducible_class_function(mu).scale(Fraction(c))
            rhs = term if rhs is None else rhs + term
        if rhs is None:
            rhs = ClassFunction(n, {mu: Fraction(0) for mu in partitions_of(n)})
        assert (lhs - rhs).is_zero()


def test_class_function_values_representative_independent():
    # conjugating the representative leaves all Tor traces unchanged
    rnd = random.Random(11)
    n = 4
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(sample_general_f(n, 2, 1)))
    M = module_of_quotient(Q)
    act = quotient_module_action(M)
    for mu in partitions_of(n):
        sigma = cycle_type_representative(mu)
        base = tor_trace(M, act, sigma, 2, 3)
        for _ in range(3):
            tau = list(range(n))
            rnd.shuffle(tau)
            tau_inv = [0] * n
            for i, v in enumerate(tau):
                tau_inv[v] = i
            conj = tuple(tau[sigma[tau_inv[i]]] for i in range(n))
            assert permutation_cycle_type(conj) == mu
            assert tor_trace(M, act, conj, 2, 3) == base


def test_dimension_consistency_with_betti():
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(sample_general_f(4, 2, 2)))
    M = module_of_quotient(Q)
    act = quotient_module_action(M)
    table = koszul_betti(M)
    for (i, j), beta in table.entries.items():
        dec = specht_decompose(tor_character(M, act, i, j))
        assert dec.dimension() == beta


def test_equivariance_validation_passes_for_genuine_action():
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(sample_general_f(3, 2, 1)))
    M = module_of_quotient(Q)
    act = quotient_module_action(M)
    sigma = cycle_type_representative((2, 1))
    validate_equivariance(M, act, sigma, 1, 2)


def test_truncated_power_decomposes_per_restriction():
    # Tor_i(m^d)_{i+d} decomposition matches Res S_(d,1^i) in the safe window
    n, d = 3, 2
    T = truncated_power_module(QQ, n, d, d + n + 1)
    act = monomial_module_action(T)
    for i in (0, 1, 2):
        dec = specht_decompose(tor_character(T, act, i, i + d))
        expected = restriction_decomposition((d,) + (1,) * i, n)
        assert dec.nonzero() == expected.nonzero()
        assert dec.dimension() == maximal_ideal_power_betti(n, d, i)


def test_predicted_boundary_displays():
    pred = predicted_equivariant_tors(5, 3)
    assert pred[(5, 8)].nonzero() == {(1, 1, 1, 1, 1): 2}
    assert pred[(4, 7)].nonzero() == {}
    # quadratic case: the printed i = n line
    pred2 = predicted_equivariant_tors(4, 2)
    assert pred2[(4, 6)].nonzero() == {(1, 1, 1, 1): 1}


def test_predicted_interior_matches_oracle_cubic():
    pred = predicted_equivariant_tors(5, 3)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(sample_general_f(5, 3, 1)))
    M = module_of_quotient(Q)
    act = quotient_module_action(M)
    for i in (1, 2, 3):
        dec = specht_decompose(tor_character(M, act, i, i + 2))
        assert dec.nonzero() == pred[(i, i + 2)].nonzero()


def test_boundary_bidegree_derived_variant_matches_oracle():
    # at (n, n+d-1) the split-sequence correction is -a on both hooks plus
    # l on the sign; the literal display's +P(d-1)+1 overcounts (reported)
    from psilab.equivariant import derived_boundary_tor

    n, d = 5, 3
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(sample_general_f(n, d, 1)))
    M = module_of_quotient(Q)
    act = quotient_module_action(M)
    oracle = specht_decompose(tor_character(M, act, n, n + d - 1))
    assert oracle.nonzero() == derived_boundary_tor(n, d).nonzero()
    literal = predicted_equivariant_tors(n, d)[(n, n + d - 1)]
    assert oracle.nonzero() != literal.nonzero()  # the reported discrepancy


def _normal_form_action(Q, sigma, deg):
    """sigma on A_deg computed directly: the normal form of x^(sigma e)
    modulo I_deg, in the coordinates of I_deg's complement columns."""
    rs = Q.ideal_component(deg)
    std = rs.complement_columns()
    pos = {c: i for i, c in enumerate(std)}
    cols = []
    for c in std:
        ne = [0] * Q.n
        for i, ei in enumerate(rs.basis[c]):
            ne[sigma[i]] = ei
        nf = rs.normal_form_vector({rs.index[tuple(ne)]: Q.field.one})
        cols.append({pos[col]: v for col, v in nf.items()})
    return cols


def _action_instances(field):
    x3 = parse_element("x1^3 + 2*x1*x2*x3", n=3, field=field)
    fs = [sample_general_f(n, d, 1, field=field) for n, d in ((3, 2), (4, 3), (5, 3))]
    yield from ((f, None) for f in fs)
    yield x3, 7
    yield build_construction_f(2, field=field)[0], None


@pytest.mark.parametrize("field", [QQ, PrimeField(1009)], ids=["QQ", "GF1009"])
def test_quotient_action_equals_normal_form_of_permuted_monomial(field):
    for f, cap in _action_instances(field):
        Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f), cap)
        M = module_of_quotient(Q)
        act = quotient_module_action(M)
        for mu in partitions_of(f.n):
            sigma = cycle_type_representative(mu)
            for deg in M.degrees():
                assert act(sigma, deg) == _normal_form_action(Q, sigma, deg)


def test_residue_field_action_is_identity():
    for n in (1, 3, 5):
        act = quotient_module_action(residue_field_module(QQ, n))
        for mu in partitions_of(n):
            assert act(cycle_type_representative(mu), 0) == [{0: QQ.one}]
