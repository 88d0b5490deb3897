"""Small exact-matrix helpers.

Matrices are immutable tuples of row tuples with ``Fraction`` entries: Lie
algebroid tables and the gauge oracle's products.  A rational matrix is
inverted by exact Gauss-Jordan elimination, and its invertibility is
decided by an exact integer determinant, so a check computes no inverse.
The gauge groupoid keeps its fiber matrices, in sections and in arrows, as
jets of integer numerators, and inverts them around the rational scalar
part (see ``TrivialGaugeGroupoid.inverse_data``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .weil import _rational

Matrix = tuple[tuple, ...]


class SingularMatrixError(ValueError):
    """A rational matrix is not invertible."""


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(c, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mul(a: Matrix, b: Matrix) -> Matrix:
    k = len(a)
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def q_inverse(m: Matrix) -> Matrix:
    """Exact Gauss-Jordan inverse of a rational matrix."""
    k = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if work[r][col]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular over the rationals")
        work[col], work[pivot] = work[pivot], work[col]
        inv = Fraction(1) / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(k):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[k:]) for row in work)


def _determinant(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    Each step divides exactly by the previous pivot, so every entry stays an
    integer (Bareiss, Math. Comp. 22, 1968).
    """
    k = len(rows)
    if k == 0:
        return 1
    work = [list(row) for row in rows]
    sign, prev = 1, 1
    for col in range(k - 1):
        if not work[col][col]:
            swap = next((r for r in range(col + 1, k) if work[r][col]), None)
            if swap is None:
                return 0
            work[col], work[swap] = work[swap], work[col]
            sign = -sign
        pivot, top = work[col][col], work[col]
        for r in range(col + 1, k):
            row = work[r]
            lead = row[col]
            for j in range(col + 1, k):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * work[-1][-1]


def q_is_invertible(m: Matrix) -> bool:
    """Whether a rational matrix is invertible, decided by its determinant.

    Each row is scaled by a common multiple of its denominators first, which
    leaves integers and multiplies the determinant by a nonzero factor.
    """
    rows = []
    for row in m:
        den = 1
        for x in row:
            d = x.denominator
            den = den * d // gcd(den, d)
        rows.append([x.numerator * (den // x.denominator) for x in row])
    return _determinant(rows) != 0


def rational_rows(m: Matrix) -> Matrix:
    return tuple(tuple(_rational(x) for x in row) for row in m)
