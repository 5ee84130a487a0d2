"""Sparse multivariate polynomials, graded dual elements, contraction, S_n action.

Monomials are exponent tuples of length n.  A Polynomial lives in
R = k[x_1..x_n]; a DualElement lives in the graded dual S with divided-power
basis y_1^(e_1)...y_n^(e_n) and carries degree -(sum of exponents).  The
divided-power semantics live entirely in `contract`; no multiplication is
defined on S.
"""

from __future__ import annotations

import json
import re
from itertools import combinations_with_replacement

from .fields import QQ, ConfigError


def monomials_of_degree(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree d in n variables, lex sorted."""
    if n == 0:
        return [()] if d == 0 else []
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort()
    return out


def permute_exponents(e: tuple, sigma) -> tuple:
    """The exponent tuple of x^e with variable i relabelled sigma[i]."""
    ne = [0] * len(e)
    for i, ei in enumerate(e):
        ne[sigma[i]] = ei
    return tuple(ne)


class _Sparse:
    """Shared storage/arithmetic for Polynomial and DualElement."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, n, terms=None, field=QQ):
        self.field = field
        self.n = n
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != n:
                    raise ConfigError(f"exponent tuple {e} has length != n={n}")
                if c != field.zero:
                    clean[tuple(e)] = c
        self.terms = clean

    def _check_compatible(self, other):
        if self.n != other.n or self.field != other.field:
            raise ConfigError("mismatched variable count or field")

    def is_zero(self):
        return not self.terms

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.n == other.n
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((type(self).__name__, self.n, frozenset(self.terms.items())))

    def _combine(self, other, sign):
        self._check_compatible(other)
        field = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = field.add(terms.get(e, field.zero), field.mul(sign, c))
            if v == field.zero:
                terms.pop(e, None)
            else:
                terms[e] = v
        return type(self)(self.n, terms, self.field)

    def __add__(self, other):
        return self._combine(other, self.field.one)

    def __sub__(self, other):
        return self._combine(other, self.field.neg(self.field.one))

    def __neg__(self):
        return self.scaled(self.field.neg(self.field.one))

    def scaled(self, c):
        if c == self.field.zero:
            return type(self)(self.n, {}, self.field)
        return type(self)(
            self.n, {e: self.field.mul(c, v) for e, v in self.terms.items()}, self.field
        )

    def permuted(self, sigma):
        """Relabel variable i to sigma[i] (sigma is 0-indexed, len n)."""
        if len(sigma) != self.n:
            raise ConfigError(f"permutation length {len(sigma)} != n={self.n}")
        out = {permute_exponents(e, sigma): c for e, c in self.terms.items()}
        return type(self)(self.n, out, self.field)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dual": isinstance(self, DualElement),
            "terms": [
                {"coeff": self.field.to_str(c), "exps": list(e)}
                for e, c in sorted(self.terms.items())
            ],
        }


class Polynomial(_Sparse):
    """Element of R = k[x_1..x_n]; degree of a term is the exponent sum."""

    var_letter = "x"

    def degree(self):
        """Degree of a homogeneous polynomial (None when zero)."""
        degs = {sum(e) for e in self.terms}
        if len(degs) > 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop() if degs else None

    def __mul__(self, other):
        self._check_compatible(other)
        field = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = field.add(out.get(e, field.zero), field.mul(c1, c2))
                if v == field.zero:
                    out.pop(e, None)
                else:
                    out[e] = v
        return Polynomial(self.n, out, self.field)

    def __repr__(self):
        return f"Polynomial({format_element(self)!r}, n={self.n})"


class DualElement(_Sparse):
    """Element of the graded dual S; exponent tuple e has degree -sum(e)."""

    var_letter = "y"

    def degree(self):
        degs = {-sum(e) for e in self.terms}
        if len(degs) > 1:
            raise ValueError("dual element is not homogeneous")
        return degs.pop() if degs else None

    def __repr__(self):
        return f"DualElement({format_element(self)!r}, n={self.n})"


def monomial(n, exps, field=QQ, coeff=None) -> Polynomial:
    return Polynomial(n, {tuple(exps): coeff if coeff is not None else field.one}, field)


def contract(f: Polynomial, g: DualElement) -> DualElement:
    """Contraction action of R on S, extended bilinearly from
    x^d o y^(e) = y^(e-d) when e-d >= 0 componentwise, else 0."""
    if not isinstance(f, Polynomial) or not isinstance(g, DualElement):
        raise ConfigError("contract expects (Polynomial, DualElement)")
    f._check_compatible(g)
    field = f.field
    out = {}
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            ok = True
            for a, b in zip(ef, eg):
                if b - a < 0:
                    ok = False
                    break
            if not ok:
                continue
            e = tuple(b - a for a, b in zip(ef, eg))
            v = field.add(out.get(e, field.zero), field.mul(cf, cg))
            if v == field.zero:
                out.pop(e, None)
            else:
                out[e] = v
    return DualElement(f.n, out, f.field)


def compose_permutations(sigma, tau):
    """(sigma tau)(i) = sigma(tau(i)), both 0-indexed tuples."""
    return tuple(sigma[tau[i]] for i in range(len(sigma)))


def identity_permutation(n):
    return tuple(range(n))


def adjacent_transposition(n, i):
    """The transposition (i, i+1), 0-indexed, as a permutation tuple."""
    s = list(range(n))
    s[i], s[i + 1] = s[i + 1], s[i]
    return tuple(s)


# ---------------------------------------------------------------------------
# Text and JSON I/O.  Text terms look like `3*x1^2*x3 - 1/2*x2*x4`; dual
# elements use `y1^(2)*y3`.  The whole text must match the grammar: terms
# joined by single signs, a term being a coefficient digits[/digits] or a
# factor followed by *factor..., a factor being x or y, an index >= 1 and an
# optional ^e or ^(e).  Whitespace may only sit next to an operator.

_FACTOR = r"[xy][1-9]\d*(?:\^(?:\d+|\(\d+\)))?"
_TERM = rf"(?:\d+(?:/\d+)?|{_FACTOR})(?:\*{_FACTOR})*"
_ELEMENT_RE = re.compile(rf"[+-]?{_TERM}(?:[+-]{_TERM})*", re.ASCII)
_SIGNED_TERM_RE = re.compile(rf"([+-]?)({_TERM})", re.ASCII)
_COEFF_RE = re.compile(r"\d+(?:/\d+)?", re.ASCII)
_FACTOR_RE = re.compile(r"([xy])(\d+)\^?\(?(\d*)", re.ASCII)


def format_element(v) -> str:
    if not v.terms:
        return "0"
    letter = v.var_letter
    dual = isinstance(v, DualElement)
    parts = []
    for e, c in sorted(v.terms.items(), reverse=True):
        factors = []
        for i, ei in enumerate(e):
            if ei == 0:
                continue
            if ei == 1:
                factors.append(f"{letter}{i + 1}")
            elif dual:
                factors.append(f"{letter}{i + 1}^({ei})")
            else:
                factors.append(f"{letter}{i + 1}^{ei}")
        cs = v.field.to_str(c)
        if not factors:
            parts.append(cs)
        elif cs == "1":
            parts.append("*".join(factors))
        elif cs == "-1":
            parts.append("-" + "*".join(factors))
        else:
            parts.append(cs + "*" + "*".join(factors))
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def parse_element(text: str, n: int | None = None, field=QQ, dual: bool | None = None):
    """Parse the text syntax; n defaults to the largest variable index seen.

    Text outside the grammar (decimals, exponent notation, index 0, chained
    powers, doubled signs, stray characters) raises ConfigError.
    """
    s = text.replace("**", "^")
    compact = re.sub(r"\s+", "", s)
    if re.search(r"[\w)]\s+[\w(]", s) or not _ELEMENT_RE.fullmatch(compact):
        raise ConfigError(
            f"cannot parse {text!r}: expected terms like 3*x1^2*x3 - 1/2*x2*x4 or y1^(2)*y3"
        )
    raw_terms = []
    letters = set()
    for sign, term in _SIGNED_TERM_RE.findall(compact):
        coeff = _COEFF_RE.match(term)
        exps = {}
        for letter, idx, e in _FACTOR_RE.findall(term):
            letters.add(letter)
            exps[int(idx) - 1] = exps.get(int(idx) - 1, 0) + int(e or 1)
        raw_terms.append((sign, coeff.group() if coeff else None, exps))
    if dual is None:
        if "x" in letters and "y" in letters:
            raise ConfigError("mixed x and y variables in one element")
        dual = "y" in letters
    if n is None:
        n = max((i + 1 for _, _, exps in raw_terms for i in exps), default=1)
    cls = DualElement if dual else Polynomial
    out = cls(n, {}, field)
    for sign, coeff_str, exps in raw_terms:
        try:
            c = field.parse(coeff_str) if coeff_str is not None else field.one
        except ZeroDivisionError:
            raise ConfigError(f"coefficient {coeff_str} is not defined in {field!r}") from None
        if sign == "-":
            c = field.neg(c)
        e = [0] * n
        for i, ei in exps.items():
            if i >= n:
                raise ConfigError(f"variable index {i + 1} exceeds n={n}")
            e[i] = ei
        out = out + cls(n, {tuple(e): c}, field)
    return out


def element_from_json(data, field=QQ):
    if isinstance(data, str):
        data = json.loads(data)
    n = data["n"]
    cls = DualElement if data.get("dual") else Polynomial
    terms = {}
    for t in data["terms"]:
        terms[tuple(t["exps"])] = field.parse(t["coeff"])
    return cls(n, terms, field)
