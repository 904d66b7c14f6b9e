"""Column group enhancement of the quandle counting invariant.

Each coloring uses a set of quandle labels; those labels generate a
subquandle, each of whose elements names a column of the quandle table,
hence a permutation. Recording the order of the permutation group
generated by these columns, one entry per coloring, gives a multiset of
cardinality Col_Q(d), packaged as a polynomial (orders as exponents,
multiplicities as coefficients). The multiset takes colorings listed
once (a quiver's vertices serve); the polynomial lists d's own.

The columns of the labels alone generate that group: the subquandle is
their orbit under it (see subquandle_closure), and the column of g(s) is
g R_s g^-1. So the order is closed over the labels' columns, once per
subquandle, which many label sets share. Both orders are kept on Q (see
FiniteBiquandle.column_orders), so each label set is closed once per
algebra object, however many diagrams it colors.

Only defined for quandles: for a general biquandle it is ambiguous
which table's columns should act, so anything else is refused first.
"""

from __future__ import annotations

from collections.abc import Iterable

from .algebra import FiniteBiquandle, column_permutation, group_order, subquandle_closure
from .coloring import Coloring, colorings_with_loops
from .diagram import SemiarcDiagram
from .polynomial import ExponentPolynomial


def column_group_multiset(colorings: Iterable[Coloring], Q: FiniteBiquandle) -> list[int]:
    """One column group order per given coloring by the quandle Q, in their order."""
    if not (isinstance(Q, FiniteBiquandle) and Q.is_quandle()):
        raise ValueError("column group enhancement is defined for quandles only")
    order_of_labels, order_of_subquandle = Q.column_orders
    out = []
    for coloring in colorings:
        labels = frozenset(coloring)
        if labels not in order_of_labels:
            sub = subquandle_closure(Q, labels)
            if sub not in order_of_subquandle:
                cols = [column_permutation(Q, y) for y in sorted(labels)]
                order_of_subquandle[sub] = group_order(cols)
            order_of_labels[labels] = order_of_subquandle[sub]
        out.append(order_of_labels[labels])
    return out


def column_group_polynomial(d: SemiarcDiagram, Q: FiniteBiquandle) -> ExponentPolynomial:
    """The column group enhancement of d over Q as a polynomial in u."""
    # anything but a quandle is refused by the multiset before anything is listed
    colorings = (colorings_with_loops(d, Q)
                 if isinstance(Q, FiniteBiquandle) and Q.is_quandle() else ())
    return ExponentPolynomial.from_multiset(column_group_multiset(colorings, Q))
