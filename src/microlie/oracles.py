"""Independent classical ground truth for the groupoid-theoretic bracket.

On the pair groupoid, Lie algebroid sections degenerate into polynomial
vector fields and the bracket must agree with the classical Jacobi-Lie
bracket computed by symbolic differentiation.  On the trivial gauge
groupoid they degenerate into matrix tables; expanding the commutator word
``(I - d2 B)(I - d1 A)(I + d2 B)(I + d1 A) = I + d1 d2 (BA - AB)`` fixes
the table bracket as ``x -> Y(x) X(x) - X(x) Y(x)``, computed on the
integer numerators of X(x) and Y(x) over one denominator.  Neither function
touches the groupoid machinery, so they are genuine cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .matrices import Matrix, rational_rows
from .poly import Poly
from .weil import Immutable


class PolyVectorField(Immutable):
    """A polynomial vector field with exact rational coefficients."""

    __slots__ = ("dimension", "components")

    def __init__(self, components: Sequence[Poly]) -> None:
        comps = tuple(components)
        n = len(comps)
        for c in comps:
            if not isinstance(c, Poly) or c.nvars != n:
                raise ValueError(f"need {n} polynomials in {n} variables")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "components", comps)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyVectorField) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return f"PolyVectorField({'; '.join(str(c) for c in self.components)})"


def classical_vf_bracket(xi: PolyVectorField, eta: PolyVectorField) -> PolyVectorField:
    """Jacobi-Lie bracket: component i is sum_j (xi_j d eta_i/dx_j - eta_j d xi_i/dx_j)."""
    if xi.dimension != eta.dimension:
        raise ValueError("vector fields of different dimensions")
    n = xi.dimension
    out = []
    for i in range(n):
        acc = Poly.zero(n)
        for j in range(n):
            acc = acc + xi.components[j] * eta.components[i].derivative(j)
            acc = acc - eta.components[j] * xi.components[i].derivative(j)
        out.append(acc)
    return PolyVectorField(out)


def matrix_table_bracket(x: Sequence[Matrix], y: Sequence[Matrix]) -> tuple[Matrix, ...]:
    """Gauge degeneration: x -> Y(x) X(x) - X(x) Y(x), entrywise exact."""
    if len(x) != len(y):
        raise ValueError("tables over different bases")
    out = []
    for a, b in zip(x, y):
        a, b = rational_rows(a), rational_rows(b)
        if len(a) != len(b):
            raise ValueError("tables of different matrix sizes")
        q = lcm(1, *(c.denominator for row in a + b for c in row))  # A = a' / q and B = b' / q, integer a' and b'
        a, b = ([[c.numerator * (q // c.denominator) for c in row] for row in m] for m in (a, b))
        k = len(a)
        entry = lambda i, j: sum(b[i][t] * a[t][j] - a[i][t] * b[t][j] for t in range(k))
        out.append(tuple(tuple(Fraction(entry(i, j), q * q) for j in range(k)) for i in range(k)))
    return tuple(out)
