"""Row spaces of homogeneous (dual) polynomials of a fixed degree.

A RowSpace pins an ordered ambient monomial basis (lex-sorted exponent
tuples of one degree) and keeps a reduced sparse echelon of coordinate
vectors; it supports membership, normal forms, kernels of the pairing with
the dual side, and conversion back to elements.
"""

from __future__ import annotations

from .fields import QQ, ConfigError
from .linalg import Echelon
from .poly import DualElement, Polynomial, monomials_of_degree


class RowSpace:
    def __init__(self, n: int, degree: int, field=QQ, dual: bool = False):
        self.field = field
        self.n = n
        self.degree = degree
        self.dual = dual
        self.basis = monomials_of_degree(n, degree)
        self.index = {e: i for i, e in enumerate(self.basis)}
        self.ech = Echelon(field)

    @property
    def dim(self) -> int:
        return self.ech.dim

    @property
    def ambient_dim(self) -> int:
        return len(self.basis)

    def _cls(self):
        return DualElement if self.dual else Polynomial

    def to_vector(self, element) -> dict:
        if element.n != self.n or element.field != self.field:
            raise ConfigError("element incompatible with row space")
        vec = {}
        for e, c in element.terms.items():
            i = self.index.get(e)
            if i is None:
                raise ConfigError(
                    f"element not homogeneous of degree {self.degree}"
                )
            vec[i] = c
        return vec

    def to_element(self, vec: dict):
        cls = self._cls()
        return cls(self.n, {self.basis[i]: c for i, c in vec.items()}, self.field)

    def add(self, element) -> bool:
        """Insert an element's span; True when it was independent."""
        return self.ech.insert(self.to_vector(element)) is not None

    def add_vector(self, vec: dict) -> bool:
        return self.ech.insert(vec) is not None

    def contains(self, element) -> bool:
        return self.ech.contains(self.to_vector(element))

    def normal_form_vector(self, vec: dict) -> dict:
        return self.ech.reduce(vec)

    def pivot_columns(self) -> list[int]:
        return self.ech.pivots()

    def complement_columns(self) -> list[int]:
        """Indices of non-pivot (standard) monomials."""
        piv = set(self.ech.rows)
        return [i for i in range(len(self.basis)) if i not in piv]

    def vectors(self) -> list[dict]:
        return self.ech.row_vectors()

    def elements(self):
        return [self.to_element(v) for v in self.vectors()]

    def kernel_vectors(self) -> list[dict]:
        """Basis of {v : row . v = 0 for all rows}, coordinates in the
        ambient basis (used for inverse-system components: the pairing of a
        dual vector against a polynomial with the same exponent support is
        the coordinate dot product)."""
        return self.ech.kernel_basis(len(self.basis))
