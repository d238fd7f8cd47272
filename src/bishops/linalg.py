"""Exact linear algebra over the rationals by integer elimination.

One sparse fraction-free row reduction, :func:`reduce_row`, grows an
echelon basis one integer row at a time: it skips each basis row at
whose pivot the new row is already zero, and divides the result by its
content.  Everything the package eliminates runs on it.  The
depth-first matroid walk of :mod:`bishops.geometry` calls it directly
and reads off every prefix's rank without eliminating the stack again;
:func:`rank` (called only by the cross-checks of
:mod:`bishops._testkit`) folds a matrix through it; and
:func:`solve_integral`, behind vertex enumeration and the
negative-1-forest solve of :mod:`bishops.signed_graph`, reduces the
augmented rows through it and clears each pivot column above its pivot,
returning A^-1 B as integer numerators over one positive denominator,
the lcm of the pivots.  :func:`invert` divides that out.  :func:`det`
and :func:`solve` have no caller in the package; they are kept as API
on the older Gauss-Jordan kernel of Bareiss (1968), :func:`_eliminate`.
Interpolation has its own Newton kernel in :mod:`bishops.quasipoly`.

Matrices are lists of rows of ints or :class:`fractions.Fraction`; a
row with rational entries is first multiplied by the lcm of its
denominators, so elimination never leaves the integers, and a
``Fraction`` is built only for a result.  Rows are taken in order and
each pivot is its row's first nonzero column, so results are
deterministic and bit-identical between runs.  No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from typing import Sequence

Scalar = int | Fraction
Matrix = list[list[Fraction]]

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


def _scale(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """Integer copy of ``rows``, each row multiplied by the lcm of its
    denominators, and the product of those multipliers; a row of plain
    ints is copied as it stands."""
    out = []
    product = 1
    for row in rows:
        # a Fraction anywhere in the row makes its sum a Fraction
        if type(sum(row)) is int:
            out.append(list(row))
            continue
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


def reduce_row(basis: Sequence[tuple[int, Sequence[int]]],
               row: Sequence[int]) -> tuple[int, Sequence[int]] | None:
    """Reduce the integer ``row`` fraction-free against an echelon
    ``basis`` of (pivot column, row) pairs, each row zero in the pivot
    columns of the rows before it.

    Each basis row b with pivot c turns the row r into b[c]*r - r[c]*b,
    which clears column c and leaves the earlier pivot columns zero.
    Returns None when ``row`` lies in the span of the basis; otherwise
    the pair to append, whose row is divided by its content (the gcd of
    its entries) so that entries stay small however deep the basis
    grows, and whose pivot is its first nonzero column.  No row is
    modified in place, so the pair may hold ``row`` itself.
    """
    for col, b in basis:
        f = row[col]
        if f:
            p = b[col]
            row = [p * a - f * e for a, e in zip(row, b)]
    content = gcd(*row)
    if not content:
        return None
    if content > 1:
        row = [a // content for a in row]
    return next(compress(count(), row)), row


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank over the rationals: the size of the basis that
    :func:`reduce_row` grows from the rows."""
    m, _ = _scale(rows)
    basis: list[tuple[int, Sequence[int]]] = []
    for row in m:
        reduced = reduce_row(basis, row)
        if reduced is not None:
            basis.append(reduced)
    return len(basis)


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
    A is singular.

    The augmented rows [A | B] go through :func:`reduce_row` one by one;
    A is singular exactly when a row vanishes or its pivot falls among
    the right-hand columns.  Otherwise each pivot column is then cleared
    above its pivot, last pivot first, which leaves row k as p_k x_c = b_k
    for its pivot column c; D is the lcm of the pivots p_k.
    """
    size = len(rows)
    if len(rhs) != size:
        raise ValueError("need one right-hand side row per equation")
    m, _ = _scale([[*row, *b] for row, b in zip(rows, rhs)])
    if any(len(row) != size for row in rows):
        raise ValueError("inversion requires a square matrix")
    basis: list[tuple[int, Sequence[int]]] = []
    for row in m:
        reduced = reduce_row(basis, row)
        if reduced is None or reduced[0] >= size:
            return None
        basis.append(reduced)
    # each row is zero in the pivot columns of the rows before it
    for k in range(size - 1, 0, -1):
        col, b = basis[k]
        p = b[col]
        for j in range(k):
            pivot, a = basis[j]
            f = a[col]
            if f:
                a = [p * x - f * y for x, y in zip(a, b)]
                content = gcd(*a)
                if content > 1:
                    a = [x // content for x in a]
                basis[j] = pivot, a
    d = lcm(*(b[col] for col, b in basis))
    numerators: list[list[int]] = [[]] * size
    for col, b in basis:
        scale = d // b[col]
        numerators[col] = [scale * entry for entry in b[size:]]
    return d, numerators


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
