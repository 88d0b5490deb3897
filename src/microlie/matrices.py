"""Small exact-matrix helpers on integers.

Invertibility of a rational matrix is decided by the exact integer
determinant of its numerator rows: a gauge scalar fiber table, a matrix
point's scalar part (both over one denominator) or a pair bisection's
linear part (a denominator per row).  Clearing denominators scales the
determinant by a nonzero factor, so a check computes no inverse.  An
inverse is the integer adjugate over the integer determinant.
``Matrix``, a tuple of row tuples, is a rational table of the gauge oracle
or of a caller.
"""

from __future__ import annotations

from typing import Sequence

from .weil import _rational

Matrix = tuple[tuple, ...]


def _determinant(rows: Sequence[Sequence[int]]) -> int:
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


def _adjugate(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """The adjugate and determinant of an integer matrix: ``adj[i][j]`` is the signed minor of entry ``(j, i)``.

    So ``rows @ adj == adj @ rows == det * I``, singular or not, and a nonsingular matrix's inverse is ``adj / det``.
    """
    k = len(rows)
    minor = lambda i, j: [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(rows) if r != i]
    adj = [[(-1) ** (i + j) * _determinant(minor(j, i)) for j in range(k)] for i in range(k)]
    return adj, sum(rows[0][j] * adj[j][0] for j in range(k)) if k else 1


def rational_rows(m: Matrix) -> Matrix:
    return tuple(tuple(_rational(x) for x in row) for row in m)
