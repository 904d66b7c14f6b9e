"""Sparse polynomials in u with nonnegative integer exponents.

Both enhancements in this library (quiver in-degree distributions and
column group multisets) package a multiset of nonnegative integers as a
polynomial: elements become exponents, multiplicities coefficients.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple


class ExponentPolynomial(NamedTuple("ExponentPolynomial", [("coeffs", dict[int, int])])):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, coeffs: dict[int, int] = {}):  # never mutated: the record keeps a copy
        if not isinstance(coeffs, dict):  # a list or text has no .items()
            raise ValueError(f"coefficients must be a dict, got {coeffs!r}")
        if not {*map(type, coeffs), *map(type, coeffs.values())} <= {int}:
            raise ValueError("exponents and coefficients must be integers")
        cleaned = {e: c for e, c in coeffs.items() if c}
        if any(e < 0 for e in cleaned) or any(c < 0 for c in cleaned.values()):
            raise ValueError("exponents and coefficients must be nonnegative")
        return super().__new__(cls, cleaned)

    @classmethod
    def from_multiset(cls, values) -> "ExponentPolynomial":
        return cls(dict(Counter(values)))

    def coefficient(self, exponent: int) -> int:
        return self.coeffs.get(exponent, 0)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append(f"{c}u" if c != 1 else "u")
            else:
                terms.append(f"{c}u^{e}" if c != 1 else f"u^{e}")
        return " + ".join(terms)
