"""Verification harness: one callable per headline check, each returning a
structured result the CLI renders and the acceptance tests assert on.

Every numeric claim carries a provenance tag: "oracle" (computed by the
brute-force route), "formula" (closed form), or "paper-constant" (a value
pinned from the source material).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import wraps
from math import comb
from time import perf_counter

from .fields import QQ, PrimeField
from .partitions import monomial_symmetric, partition_count, partitions_of
from .poly import parse_element
from .psi import (
    PsiIdeal,
    build_construction_f,
    expected_orbit_dim_construction,
    sample_general_f,
)
from .inverse import (
    QuotientAlgebra,
    hilbert_and_socle,
    inverse_system_component,
    module_of_inverse_system,
    module_of_quotient,
)
from .homology import (
    BettiTable,
    closed_form_betti,
    koszul_betti,
    matlis_betti_duality,
    residue_field_module,
    residue_field_resolution,
)
from .linrel import (
    analyze_Aprime,
    build_full_system,
    generic_t,
    kernel_is_component_symmetric,
)
from .equivariant import (
    inverse_system_module_action,
    irreducible_class_function,
    pad_partition,
    quadratic_tor_of_ideal_display,
    quotient_module_action,
    restriction_multiplicity,
    sign_class_function,
    specht_decompose,
    tensor_with_standard,
    tor_character,
)


@dataclass
class Check:
    """One verdict, shared by the criterion suites and the CLI reports."""

    name: str
    passed: bool
    provenance: str
    detail: str = ""
    known_defect: bool = False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "provenance": self.provenance,
            "detail": self.detail,
            "known_defect": self.known_defect,
        }


def sound_checks_pass(checks) -> bool:
    """Verdict over the sound checks; checks recording a documented
    source-display defect are reported but do not gate."""
    return all(c.passed for c in checks if not c.known_defect)


@dataclass
class CriterionResult:
    name: str
    checks: list = dc_field(default_factory=list)
    seconds: float = 0.0
    notes: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return sound_checks_pass(self.checks)

    def add(self, name, passed, provenance, detail="", known_defect=False):
        self.checks.append(Check(name, bool(passed), provenance, detail, known_defect))

    def render(self) -> list[str]:
        """A status line, then one line per check and per note."""
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name} ({self.seconds:.1f}s)"]
        for c in self.checks:
            mark = "ok" if c.passed else ("known-defect" if c.known_defect else "FAIL")
            detail = f" -- {c.detail}" if c.detail and not c.passed else ""
            lines.append(f"    [{mark}] {c.name}{detail}")
        lines += [f"    note: {note}" for note in self.notes]
        return lines


def _timed(criterion):
    """Set the returned result's `seconds` to the criterion's wall time."""

    @wraps(criterion)
    def run(*args, **kwargs):
        start = perf_counter()
        res = criterion(*args, **kwargs)
        res.seconds = perf_counter() - start
        return res

    return run


GOLDEN_CUBIC_N5 = {
    (0, 0): 1,
    (1, 3): 33,
    (2, 4): 95,
    (3, 5): 106,
    (4, 6): 50,
    (5, 7): 5,
    (5, 8): 2,
}

CUBIC_EXAMPLE_TEXT = "x1^3 - x2^3 + x1^2*x3 + x2*x3*x4 - x2*x3*x5"

SMALL_N_CUBIC_TABLES = {
    1: {(0, 0): 1, (1, 3): 1},
    2: {(0, 0): 1, (1, 3): 2, (2, 6): 1},
    3: {(0, 0): 1, (1, 3): 6, (2, 4): 4, (2, 5): 3, (3, 6): 1, (3, 7): 1},
    4: {
        (0, 0): 1,
        (1, 3): 15,
        (2, 4): 26,
        (3, 5): 10,
        (3, 6): 4,
        (4, 7): 1,
        (4, 8): 1,
    },
}


def general_quotient(n, d, seed, field=QQ, bound=99, cap=None):
    f = sample_general_f(n, d, seed, bound, field)
    return QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f), cap)


@_timed
def criterion_golden_cubic(n: int = 5) -> CriterionResult:
    """Betti table of the explicit cubic example, bit-exact over Q."""
    res = CriterionResult("golden-cubic-table")
    f = parse_element(CUBIC_EXAMPLE_TEXT, n=n)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f))
    table = koszul_betti(module_of_quotient(Q))
    res.add(
        "betti(cubic example, n=5) == printed table",
        table.entries == GOLDEN_CUBIC_N5,
        "oracle vs paper-constant",
        f"computed {sorted(table.entries.items())}",
    )
    res.notes.append("computed table:\n" + table.render())
    return res


@_timed
def criterion_formula_vs_oracle(
    pairs=((2, 2), (2, 3), (2, 4), (2, 5), (3, 5), (3, 6)),
    seeds=(1, 2, 3, 4, 5),
    field=QQ,
) -> CriterionResult:
    res = CriterionResult("formula-vs-oracle")
    for d, n in pairs:
        cf = closed_form_betti(n, d)
        for seed in seeds:
            f = sample_general_f(n, d, seed, field=field)
            Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f))
            table = koszul_betti(module_of_quotient(Q))
            ok = table == cf
            detail = "" if ok else f"coefficients: {sorted(f.terms.items())}"
            res.add(f"(d={d}, n={n}, seed={seed})", ok, "oracle vs formula", detail)
    return res


@_timed
def criterion_small_n_cubics(seeds=(1, 2, 3, 4, 5), need: int = 4) -> CriterionResult:
    res = CriterionResult("small-n-cubic-tables")
    for n, expected in SMALL_N_CUBIC_TABLES.items():
        hits = 0
        details = []
        for seed in seeds:
            Q = general_quotient(n, 3, seed)
            table = koszul_betti(module_of_quotient(Q))
            if table.entries == expected:
                hits += 1
            else:
                details.append(f"seed {seed}: {sorted(table.entries.items())}")
        res.add(
            f"n={n}: {hits}/{len(seeds)} seeds reproduce the printed table",
            hits >= need,
            "oracle vs paper-constant",
            "; ".join(details),
        )
    return res


def expected_socle_b(n: int, d: int) -> int:
    return comb(n + d - 2, d - 1) - (partition_count(d) - 1) * (n - 1) - partition_count(d - 1)


@_timed
def criterion_hilbert_socle(
    cases=((2, 2), (2, 3), (2, 5), (3, 5), (3, 6)), seed: int = 1
) -> CriterionResult:
    res = CriterionResult("hilbert-socle")
    for d, n in cases:
        Q = general_quotient(n, d, seed)
        hs = hilbert_and_socle(Q)
        expect_hf = [comb(n + i - 1, i) for i in range(d)] + [partition_count(d) - 1, 0]
        got_hf = hs.hilbert[: d + 2]
        b = expected_socle_b(n, d)
        expect_socle = {i: e for i, e in ((d - 1, b), (d, partition_count(d) - 1)) if e}
        res.add(
            f"(d={d}, n={n}) HF",
            got_hf == expect_hf,
            "oracle vs formula",
            f"got {got_hf}, expect {expect_hf}",
        )
        res.add(
            f"(d={d}, n={n}) socle polynomial",
            hs.socle_polynomial() == expect_socle,
            "oracle vs formula",
            f"got {hs.socle_polynomial()}, expect {expect_socle}",
        )
    return res


@_timed
def criterion_inverse_systems(prime: int = 1009) -> CriterionResult:
    res = CriterionResult("inverse-systems")
    # quadratic example: (I^perp)_{-2} is the span of sum y_i^(2), n=2..8
    for n in range(2, 9):
        f = parse_element("x1^2 - x2^2 + x1*x2", n=n)
        Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f))
        comp = inverse_system_component(Q, 2)
        ok = comp.dim == 1 and comp.contains(monomial_symmetric((2,), n))
        res.add(f"quadratic example n={n}: (Iperp)_-2 = <sum y_i^(2)>", ok, "oracle")
    # special construction, d=2 over Q at the minimal n
    f2, nmin2 = build_construction_f(2)
    ps2 = PsiIdeal.from_polynomial(f2)
    Q2 = QuotientAlgebra.from_psi(ps2)
    res.add(
        f"construction d=2 (n={nmin2}, QQ): dim I_2 = dim R_2 - (P(2)-1)",
        ps2.minimal_generator_count == expected_orbit_dim_construction(nmin2, 2),
        "oracle vs formula",
        f"dim {ps2.minimal_generator_count}",
    )
    comp2 = inverse_system_component(Q2, 2)
    ok2 = comp2.dim == partition_count(2) - 1 and comp2.contains(
        monomial_symmetric((1, 1), nmin2)
    )
    res.add("construction d=2: (Iperp)_-2 = <m_lam : lam != (2)>", ok2, "oracle")
    for lam, gamma in (((1, 1), ()), ((1, 1), (1,))):
        from .psi import admissible_binomial

        b, _ = admissible_binomial(lam, gamma, 1, nmin2)
        res.add(
            f"construction d=2: summand b({lam},{gamma}) lies in I_2",
            ps2.degree_d_basis.contains(b),
            "oracle",
        )
    # special construction, d=3 over a prime field at n = 26
    fp = PrimeField(prime)
    f3, nmin3 = build_construction_f(3, field=fp)
    ps3 = PsiIdeal.from_polynomial(f3)
    res.add(
        f"construction d=3 (n={nmin3}, GF({prime})): dim I_3 = dim R_3 - (P(3)-1)",
        ps3.minimal_generator_count == expected_orbit_dim_construction(nmin3, 3),
        "oracle vs formula",
        f"dim {ps3.minimal_generator_count}",
    )
    Q3 = QuotientAlgebra(ps3.degree_d_basis)
    comp3 = inverse_system_component(Q3, 3)
    ok3 = (
        comp3.dim == partition_count(3) - 1
        and comp3.contains(monomial_symmetric((2, 1), nmin3, fp))
        and comp3.contains(monomial_symmetric((1, 1, 1), nmin3, fp))
    )
    res.add("construction d=3: (Iperp)_-3 = <m_(2,1), m_(1,1,1)>", ok3, "oracle")
    return res


@_timed
def criterion_linear_relations(seeds=(1, 2, 3, 4, 5)) -> CriterionResult:
    res = CriterionResult("linear-relations")
    for d in (3, 4, 5):
        expected = partition_count(d) - partition_count(d - 1) - 1
        for n in (d, d + 2, 10):
            sys0 = build_full_system({}, n, d)
            k0 = sys0.kernel()
            res.add(
                f"d={d}, n={n}, t=0: dim L = P(d)-P(d-1)-1 = {expected}",
                len(k0) == expected,
                "oracle vs formula",
                f"got {len(k0)}",
            )
            res.add(
                f"d={d}, n={n}, t=0: kernel component-symmetric",
                kernel_is_component_symmetric(sys0),
                "oracle",
            )
            for seed in seeds:
                t = generic_t(d, seed)
                sysg = build_full_system(t, n, d)
                kg = sysg.kernel()
                res.add(
                    f"d={d}, n={n}, generic seed {seed}: dim L = {expected}",
                    len(kg) == expected and kernel_is_component_symmetric(sysg),
                    "oracle vs formula",
                    f"got {len(kg)}",
                )
    for n in (5, 6, 7, 10):
        rep = analyze_Aprime({}, n, 5)
        manual = Fraction((n - 4) * (n - 3) * (n - 2) ** 2 * (n - 1))
        res.add(
            f"d=5, n={n}: det(A')|t=0 = (n-4)(n-3)(n-2)^2(n-1)",
            rep.det_factorization_ok and rep.det_at_zero == manual,
            "oracle vs paper-constant",
            f"det {rep.det_at_zero}",
        )
    return res


@_timed
def criterion_duality(seed: int = 1) -> CriterionResult:
    res = CriterionResult("matlis-duality")
    for d, n in ((2, 3), (2, 4), (3, 5)):
        Q = general_quotient(n, d, seed)
        ok = matlis_betti_duality(module_of_quotient(Q), module_of_inverse_system(Q))
        res.add(f"general (d={d}, n={n})", ok, "oracle (two Koszul runs)")
    f = parse_element("x1^2 - x2^2 + x1*x2", n=3)
    Q = QuotientAlgebra.from_psi(PsiIdeal.from_polynomial(f))
    ok = matlis_betti_duality(module_of_quotient(Q), module_of_inverse_system(Q))
    res.add("quadratic example, n=3", ok, "oracle (two Koszul runs)")
    return res


def series_coefficients(numerator, denominator, upto: int):
    """Exact power-series division, constant denominator term nonzero."""
    num = list(numerator) + [Fraction(0)] * (upto + 1)
    den = list(denominator) + [Fraction(0)] * (upto + 1)
    out = []
    for i in range(upto + 1):
        c = Fraction(num[i])
        for j in range(1, i + 1):
            c -= Fraction(den[j]) * out[i - j]
        out.append(c / Fraction(den[0]))
    return out


def golod_bound_series(n: int, betti_of_A: BettiTable, upto: int):
    """(1+t)^n / (1 - t(P_A^R(t) - 1)) with P_A^R from the computed table."""
    num = [Fraction(comb(n, i)) for i in range(n + 1)]
    den = [Fraction(0)] * (betti_of_A.max_i() + 2)
    den[0] = Fraction(1)
    for i in range(1, betti_of_A.max_i() + 1):
        den[i + 1] -= betti_of_A.total(i)
    return series_coefficients(num, den, upto)


def literal_golod_series(n: int, upto: int):
    """(1+t)^n / (1 - t((1+t)^n - 1)): the series as printed (denominator
    typed with P_k^R; the Serre bound needs P_A^R -- see the golod check)."""
    num = [Fraction(comb(n, i)) for i in range(n + 1)]
    den = [Fraction(0)] * (n + 2)
    den[0] = Fraction(1)
    for i in range(1, n + 1):
        den[i + 1] -= comb(n, i)
    return series_coefficients(num, den, upto)


@_timed
def criterion_golod_koszul(seed: int = 1) -> CriterionResult:
    res = CriterionResult("golod-koszul")
    # d=3, n=5: A is Golod: the k-resolution attains the Serre bound built
    # from the R-betti table of A.
    Q = general_quotient(5, 3, seed)
    A = module_of_quotient(Q)
    table = koszul_betti(A)
    betti_k = residue_field_resolution(A, max_i=4, gen_limit=200000)
    totals = {}
    for (i, j), v in betti_k.items():
        totals[i] = totals.get(i, 0) + v
    got = [totals.get(i, 0) for i in range(5)]
    bound = [int(c) for c in golod_bound_series(5, table, 4)]
    res.add(
        "d=3, n=5: beta^A_i(k) attains the Golod bound (i <= 4)",
        got == bound,
        "oracle vs formula",
        f"got {got}, bound {bound}",
    )
    literal = [int(c) for c in literal_golod_series(5, 4)]
    res.notes.append(
        "literal printed series (denominator via P_k^R) would be "
        f"{literal}; the honest resolution gives {got} = the Serre bound with "
        "P_A^R, which is what Golodness asserts (beta_2 = C(n,2) + mu(I) = "
        f"{comb(5, 2)} + {table.total(1)})."
    )
    res.add(
        "d=3, n=5: literal printed series matches",
        got == literal,
        "oracle vs paper-constant",
        f"got {got}, printed {literal}; the printed denominator types P_k^R "
        "where the Serre bound needs P_A^R, so this comparison cannot hold",
        known_defect=True,
    )
    # d=2, n=3: Koszul, beta^A_{i,j}(k) diagonal with totals 1,3,8,21,55,144
    Q2 = general_quotient(3, 2, seed)
    betti_k2 = residue_field_resolution(module_of_quotient(Q2), max_i=5, gen_limit=200000)
    diag = all(i == j for (i, j) in betti_k2)
    tot2 = {}
    for (i, j), v in betti_k2.items():
        tot2[i] = tot2.get(i, 0) + v
    got2 = [tot2.get(i, 0) for i in range(6)]
    koszul_series = [int(c) for c in series_coefficients([1], [1, -3, 1], 5)]
    res.add(
        "d=2, n=3: beta^A_{i,j}(k) = 0 for i != j (i <= 5)",
        diag,
        "oracle",
        f"bidegrees {sorted(betti_k2)}",
    )
    res.add(
        "d=2, n=3: beta^A_i(k) = 1,3,8,21,55,144 = 1/(1-3t+t^2)",
        got2 == koszul_series,
        "oracle vs formula",
        f"got {got2}",
    )
    return res


def literal_golod_check(res: CriterionResult) -> Check:
    return next(c for c in res.checks if "literal printed series" in c.name)


@_timed
def criterion_equivariant(seed: int = 1) -> CriterionResult:
    res = CriterionResult("equivariant")
    # (a) Tor_i(k,k) decomposes as the pair of hooks, n <= 6, all i
    from .partitions import is_partition

    for n in range(2, 7):
        M = residue_field_module(QQ, n)
        act = quotient_module_action(M)
        all_ok = True
        for i in range(n + 1):
            dec = specht_decompose(tor_character(M, act, i, i))
            expected = {}
            for head, ones in ((n - i, i), (n - i + 1, i - 1)):
                if ones < 0:
                    continue
                h = (head,) + (1,) * ones
                if all(p >= 1 for p in h) and is_partition(h) and sum(h) == n:
                    expected[h] = expected.get(h, 0) + 1
            if dec.nonzero() != expected:
                all_ok = False
        res.add(f"(a) Tor(k,k) hooks, n={n}", all_ok, "oracle vs paper-constant")
    # (b) d=2 samples: integrality + dimension match on the whole table;
    # interior display check for 1 <= i <= n-3; diffs reported at i = n-2.
    for n in (3, 4, 5):
        Q = general_quotient(n, 2, seed)
        M = module_of_quotient(Q)
        act = quotient_module_action(M)
        table = koszul_betti(M)
        all_ok = True
        for (i, j), beta in sorted(table.entries.items()):
            dec = specht_decompose(tor_character(M, act, i, j))
            if dec.dimension() != beta:
                all_ok = False
        res.add(
            f"(b) d=2, n={n}: integral nonneg decompositions matching betti",
            all_ok,
            "oracle",
        )
        for i in range(1, n - 1):
            dec = specht_decompose(tor_character(M, act, i + 1, i + 2))
            disp = quadratic_tor_of_ideal_display(n, i)
            if i <= n - 3:
                res.add(
                    f"(b) d=2, n={n}: Tor_{i}(I) matches printed display",
                    dec.nonzero() == disp.nonzero(),
                    "oracle vs paper-constant",
                )
            else:
                match = dec.nonzero() == disp.nonzero()
                res.notes.append(
                    f"(b) d=2, n={n}, i={i} (= n-2, reported not asserted): "
                    f"match={match}; oracle={dec.nonzero()}, display={disp.nonzero()}"
                )
        # printed boundary lines of the quadratic reference display: reported only
        dec0 = specht_decompose(tor_character(M, act, 1, 2))
        disp0 = quadratic_tor_of_ideal_display(n, 0)
        res.notes.append(
            f"(b) d=2, n={n}, printed i=0 line vs oracle Tor_0(I): "
            f"match={dec0.nonzero() == disp0.nonzero()}; oracle={dec0.nonzero()}, "
            f"display={disp0.nonzero()}"
        )
        dec_top = specht_decompose(tor_character(M, act, n, n + 2))
        printed_top = {(1,) * n: 1, (2,) + (1,) * (n - 2): 1}
        res.notes.append(
            f"(b) d=2, n={n}, printed i=n line vs oracle Tor_n(A)_(n+2): "
            f"match={dec_top.nonzero() == printed_top}; oracle={dec_top.nonzero()}, "
            f"display={printed_top}"
        )
    # (c) d=3, n=5 boundary displays
    Q = general_quotient(5, 3, seed)
    M = module_of_quotient(Q)
    act = quotient_module_action(M)
    chi = tor_character(M, act, 4, 4 + 3)
    res.add("(c) d=3, n=5: Tor_4(A)_7 = 0 (ell = 0)", chi.is_zero(), "oracle")
    dec = specht_decompose(tor_character(M, act, 5, 5 + 3))
    res.add(
        "(c) d=3, n=5: Tor_5(A)_8 = sign^2",
        dec.nonzero() == {(1, 1, 1, 1, 1): 2},
        "oracle vs paper-constant",
    )
    # (d) equivariant duality with the sign twist
    for d, n in ((2, 3), (3, 5)):
        Q = general_quotient(n, d, seed)
        MA = module_of_quotient(Q)
        MD = module_of_inverse_system(Q)
        actA = quotient_module_action(MA)
        actD = inverse_system_module_action(Q)
        sgn = sign_class_function(n)
        tableA = koszul_betti(MA)
        all_ok = True
        for (i, j), beta in sorted(tableA.entries.items()):
            chiA = tor_character(MA, actA, i, j)
            chiD = tor_character(MD, actD, n - i, n - j)
            if not (chiA - chiD * sgn).is_zero():
                all_ok = False
        res.add(
            f"(d) equivariant duality (d={d}, n={n})", all_ok, "oracle (two runs)"
        )
    return res


@_timed
def criterion_restriction(seed: int = 7) -> CriterionResult:
    res = CriterionResult("restriction-coefficients")
    for n in (8, 10):
        ok = True
        for w in (1, 2, 3):
            for lam in partitions_of(w):
                for nu in partitions_of(w):
                    m = restriction_multiplicity(lam, pad_partition(nu, n))
                    if m != (1 if lam == nu else 0):
                        ok = False
        res.add(
            f"a_lam^nu = delta for |lam| = |nu| <= 3, n={n}",
            ok,
            "oracle vs paper-constant",
        )
    import random

    rng = random.Random(f"tensor-rule:{seed}")
    checked = 0
    ok = True
    while checked < 20:
        n = rng.randint(3, 8)
        parts = partitions_of(n)
        lam = parts[rng.randrange(len(parts))]
        lhs = irreducible_class_function(lam) * irreducible_class_function(
            (n - 1, 1)
        )
        rule = tensor_with_standard(lam)
        rhs = None
        for mu, c in rule.items():
            term = irreducible_class_function(mu).scale(Fraction(c))
            rhs = term if rhs is None else rhs + term
        if rhs is None or not (lhs - rhs).is_zero():
            ok = False
        checked += 1
    res.add(
        "tensor rule Sp_lam x Sp_(n-1,1), 20 random lam (n <= 8)",
        ok,
        "oracle (character identity)",
    )
    return res


SUITES = {
    "cubic-n5": (criterion_golden_cubic,),
    "formula-oracle": (criterion_formula_vs_oracle,),
    "small-n": (criterion_small_n_cubics,),
    "hilbert-socle": (criterion_hilbert_socle,),
    "inverse-systems": (criterion_inverse_systems,),
    "linrel": (criterion_linear_relations,),
    "duality": (criterion_duality,),
    "golod-koszul": (criterion_golod_koszul,),
    "equivariant": (criterion_equivariant,),
    "restrict": (criterion_restriction,),
}

SUITE_ORDER = tuple(SUITES)


def run_suites(names=None) -> list[CriterionResult]:
    chosen = SUITE_ORDER if not names else tuple(names)
    out = []
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r} (choose from {list(SUITES)})")
        for fn in SUITES[name]:
            out.append(fn())
    return out
