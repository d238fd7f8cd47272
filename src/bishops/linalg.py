"""Exact linear algebra over the rationals.

Every rank, determinant, inverse, and linear solve of the geometry and
signed-graph code goes through these routines; interpolation has its own
Newton kernel in :mod:`bishops.quasipoly`.  Matrices are lists of rows
of :class:`fractions.Fraction` (integer entries are accepted and
converted), and elimination picks the first nonzero pivot in each
column, so results are deterministic and bit-identical between runs.
No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Scalar = int | Fraction
Matrix = list[list[Fraction]]

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


def to_matrix(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    """Copy ``rows`` into a rectangular matrix of Fractions."""
    out = [[Fraction(entry) for entry in row] for row in rows]
    if out:
        width = len(out[0])
        if any(len(row) != width for row in out):
            raise ValueError("rows must all have the same length")
    return out


def _reduce(m: Matrix, *, columns: int | None = None) -> list[int]:
    """Bring ``m`` to reduced row-echelon form in place.

    Pivots are searched only in the first ``columns`` columns (all by
    default), which lets callers carry augmented right-hand sides along.
    Returns the pivot column indices.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    if columns is None:
        columns = n_cols
    pivots: list[int] = []
    row = 0
    for col in range(columns):
        if row == n_rows:
            break
        pivot = next((r for r in range(row, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        scale = m[row][col]
        m[row] = [entry / scale for entry in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return pivots


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank over the rationals."""
    m = to_matrix(rows)
    return len(_reduce(m))


def det(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    """Determinant of a square matrix."""
    m = to_matrix(rows)
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant requires a square matrix")
    result = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        lead = m[col][col]
        result *= lead
        for r in range(col + 1, size):
            if m[r][col] != 0:
                factor = m[r][col] / lead
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return result


def invert(rows: Sequence[Sequence[Scalar]]) -> Matrix | None:
    """Inverse of a square matrix, or None when it is singular."""
    m = to_matrix(rows)
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("inversion requires a square matrix")
    for r in range(size):
        m[r].extend(Fraction(1) if c == r else Fraction(0) for c in range(size))
    pivots = _reduce(m, columns=size)
    if len(pivots) != size:
        return None
    return [row[size:] for row in m]


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> list[Fraction]:
    """Matrix-vector product as Fractions."""
    return [sum((Fraction(a) * Fraction(b) for a, b in zip(row, v)), Fraction(0))
            for row in m]


@dataclass(frozen=True)
class Solution:
    """Outcome of a linear solve.

    ``status`` is one of UNIQUE, INCONSISTENT, UNDERDETERMINED; ``point``
    is the solution vector when the status is UNIQUE, else None.
    """

    status: str
    point: list[Fraction] | None


def solve(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> Solution:
    """Solve ``rows @ x = rhs`` exactly.

    Accepts any shape: extra consistent equations are fine, missing ones
    yield UNDERDETERMINED, contradictions yield INCONSISTENT.
    """
    m = to_matrix(rows)
    if len(m) != len(rhs):
        raise ValueError("need one right-hand side entry per equation")
    n_cols = len(m[0]) if m else 0
    for row, value in zip(m, rhs):
        row.append(Fraction(value))
    pivots = _reduce(m, columns=n_cols)
    free_rows = range(len(pivots), len(m))
    if any(m[r][n_cols] != 0 for r in free_rows):
        return Solution(INCONSISTENT, None)
    if len(pivots) < n_cols:
        return Solution(UNDERDETERMINED, None)
    point: list[Fraction] = [Fraction(0)] * n_cols
    for row_index, col in enumerate(pivots):
        point[col] = m[row_index][n_cols]
    return Solution(UNIQUE, point)
