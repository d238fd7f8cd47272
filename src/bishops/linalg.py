"""Exact linear algebra over the rationals by integer elimination.

Every rank, determinant, inverse, and linear solve of the geometry and
signed-graph code goes through one fraction-free Gauss-Jordan kernel
(Bareiss 1968) on integer rows; interpolation has its own Newton kernel
in :mod:`bishops.quasipoly`.  Matrices are lists of rows of ints or
:class:`fractions.Fraction`; a row with rational entries is first
multiplied by the lcm of its denominators, so elimination never leaves
the integers, and a ``Fraction`` is built only for a result;
:func:`solve_integral` returns A^-1 B as integer numerators over one
positive denominator, which vertex enumeration uses as they are and
:func:`invert` divides out.  The first nonzero pivot in each column is
taken, so results are deterministic and bit-identical between runs.
No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

Scalar = int | Fraction
Matrix = list[list[Fraction]]

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


def _scale(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """Integer copy of ``rows``, each row multiplied by the lcm of its
    denominators, and the product of those multipliers."""
    out = []
    product = 1
    for row in rows:
        scale = lcm(*{entry.denominator for entry in row})
        out.append([entry.numerator * (scale // entry.denominator)
                    for entry in row])
        product *= scale
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("rows must all have the same length")
    return out, product


def _eliminate(m: list[list[int]], columns: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows ``m``
    in place, pivoting only in the first ``columns`` columns so that
    augmented right-hand sides ride along.

    Each step takes the first nonzero entry p of its column at or below
    the next pivot row, and replaces every other row a by
    (p*a - f*b) / prev, where b is the pivot row, f the row's entry in
    the pivot column and prev the previous pivot.  The division is exact:
    afterwards the rows are the last pivot times the reduced row-echelon
    form, whose entries are minors of the input.  Returns the pivot
    columns and the last pivot with the sign of the row swaps, which is
    the determinant when every column of a square matrix has a pivot.
    """
    pivots: list[int] = []
    prev = sign = 1
    for col in range(columns):
        row = len(pivots)
        if row == len(m):
            break
        pivot = next((r for r in range(row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
            sign = -sign
        lead = m[row]
        p = lead[col]
        for r in range(len(m)):
            if r != row:
                f = m[r][col]
                m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], lead)]
        pivots.append(col)
        prev = p
    return pivots, sign * prev


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank over the rationals."""
    m, _ = _scale(rows)
    pivots, _ = _eliminate(m, len(m[0]) if m else 0)
    return len(pivots)


def det(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    """Determinant of a square matrix."""
    m, scale = _scale(rows)
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("determinant requires a square matrix")
    pivots, last = _eliminate(m, size)
    if len(pivots) != size:
        return Fraction(0)
    return Fraction(last, scale)


def solve_integral(rows: Sequence[Sequence[Scalar]],
                   rhs: Sequence[Sequence[Scalar]]
                   ) -> tuple[int, list[list[int]]] | None:
    """Integer form of A^-1 B for a square A = ``rows`` and the columns
    B given as ``rhs``, one row per equation: a positive common
    denominator D and the integer matrix X with A X = D B, or None when
    A is singular."""
    size = len(rows)
    if len(rhs) != size:
        raise ValueError("need one right-hand side row per equation")
    m, _ = _scale([[*row, *b] for row, b in zip(rows, rhs)])
    if any(len(row) != size for row in rows):
        raise ValueError("inversion requires a square matrix")
    pivots, _ = _eliminate(m, size)
    if len(pivots) != size:
        return None
    # every diagonal entry is now the last pivot, unsigned by row swaps
    d = m[0][0] if m else 1
    if d < 0:
        return -d, [[-entry for entry in row[size:]] for row in m]
    return d, [row[size:] for row in m]


def invert(rows: Sequence[Sequence[Scalar]]) -> Matrix | None:
    """Inverse of a square matrix, or None when it is singular."""
    size = len(rows)
    solved = solve_integral(
        rows, [[int(c == r) for c in range(size)] for r in range(size)])
    if solved is None:
        return None
    d, numerators = solved
    return [[Fraction(entry, d) for entry in row] for row in numerators]


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
    if len(rows) != len(rhs):
        raise ValueError("need one right-hand side entry per equation")
    m, _ = _scale([[*row, value] for row, value in zip(rows, rhs)])
    n_cols = len(m[0]) - 1 if m else 0
    pivots, _ = _eliminate(m, n_cols)
    if any(m[r][n_cols] for r in range(len(pivots), len(m))):
        return Solution(INCONSISTENT, None)
    if len(pivots) < n_cols:
        return Solution(UNDERDETERMINED, None)
    # every column holds a pivot, so row r carries x_r
    return Solution(UNIQUE, [Fraction(row[n_cols], row[r])
                             for r, row in enumerate(m[:n_cols])])
