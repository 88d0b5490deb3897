"""Independent classical ground truth for the groupoid-theoretic bracket.

On the pair groupoid, Lie algebroid sections degenerate into polynomial
vector fields and the bracket must agree with the classical Jacobi-Lie
bracket computed by symbolic differentiation.  On the trivial gauge
groupoid they degenerate into matrix tables; expanding the commutator word
``(I - d2 B)(I - d1 A)(I + d2 B)(I + d1 A) = I + d1 d2 (BA - AB)`` fixes
the table bracket as ``x -> Y(x) X(x) - X(x) Y(x)``.  Neither function
touches the groupoid machinery, so they are genuine cross-checks.
"""

from __future__ import annotations

from typing import Sequence

from . import matrices
from .matrices import Matrix
from .poly import Poly


class PolyVectorField:
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

    def __setattr__(self, name, value) -> None:
        raise AttributeError("PolyVectorField is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyVectorField) and self.components == other.components

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
        a = matrices.rational_rows(a)
        b = matrices.rational_rows(b)
        if len(a) != len(b):
            raise ValueError("tables of different matrix sizes")
        out.append(matrices.sub(matrices.mul(b, a), matrices.mul(a, b)))
    return tuple(out)
