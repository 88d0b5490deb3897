"""Small exact-matrix helpers over the rationals and over Weil algebras.

Matrices are immutable tuples of row tuples.  The generic arithmetic works
for any entries supporting ``+``/``*`` (Fractions or WeilElements); the
inverse over a Weil algebra uses the finite geometric series of the
nilpotent part around the rational scalar matrix.  Invertibility of a
rational matrix is decided by an exact integer determinant, so a check
computes no inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .weil import InfinitesimalDomain, WeilElement, _rational

Matrix = tuple[tuple, ...]


class SingularMatrixError(ValueError):
    """The scalar part of a matrix is not invertible."""


def from_rows(rows: Sequence[Sequence]) -> Matrix:
    k = len(rows)
    out = tuple(tuple(row) for row in rows)
    if any(len(row) != k for row in out):
        raise ValueError("matrix must be square")
    return out


def identity(k: int, domain: InfinitesimalDomain) -> Matrix:
    one, zero = WeilElement.one(domain), WeilElement.zero(domain)
    return tuple(tuple(one if i == j else zero for j in range(k)) for i in range(k))


def lift(m: Matrix, domain: InfinitesimalDomain) -> Matrix:
    return tuple(tuple(WeilElement.scalar(domain, c) for c in row) for row in m)


def scalar_part(m: Matrix) -> Matrix:
    return tuple(tuple(c.scalar_part for c in row) for row in m)


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


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


def is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


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


def w_inverse(a: Matrix, domain: InfinitesimalDomain) -> Matrix:
    """Inverse of a Weil-algebra matrix with invertible scalar part.

    With a = m0 + nilpotent, a^-1 = (sum_k (-m0^-1 n)^k) m0^-1, and the sum
    is finite because the domain is nilpotent.
    """
    m0_inv = lift(q_inverse(scalar_part(a)), domain)
    nil = sub(a, lift(scalar_part(a), domain))
    k = len(a)
    acc = identity(k, domain)
    c = neg(mul(m0_inv, nil))
    power = c
    while not is_zero(power):
        acc = add(acc, power)
        power = mul(c, power)
    return mul(acc, m0_inv)


def rational_rows(m: Matrix) -> Matrix:
    return tuple(tuple(_rational(x) for x in row) for row in m)
