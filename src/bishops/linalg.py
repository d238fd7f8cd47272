"""Exact linear algebra over the rationals by integer elimination.

One sparse fraction-free row reduction, :func:`reduce_row`, grows an
echelon basis one integer row at a time: it skips each basis row at
whose pivot the new row is already zero, and divides the result by its
content.  Every entry point here is a fold of it.  The matroid walk of
:mod:`bishops.geometry` calls it directly; :func:`rank` (called only by
the cross-checks of :mod:`bishops._testkit`) is the size of the basis;
:func:`solve_integral`, behind the negative-1-forest solve of
:mod:`bishops.signed_graph`, reduces the augmented rows and then each
row against the rows below it, returning A^-1 B as integer numerators
over one positive denominator, the lcm of the pivots; :func:`invert`
divides that out.  Vertex enumeration and the period bound build their
augmented rows as equal-length ints and enter the same body past its
checks, through ``_solve_augmented``.  :func:`det` tags row i
with the unit vector e_i, so that tag column i holds the multiple t_i of
row i in its reduced row, and is the sign of the pivot order times the
product of pivot_i / t_i.  :func:`solve` folds the augmented rows and
hands the basis of a unique system to :func:`solve_integral`; it and
:func:`det` have no caller in the package.  Interpolation has its own
Newton kernel in :mod:`bishops.quasipoly`.

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
from math import gcd, lcm, prod
from typing import Sequence

Scalar = int | Fraction
Matrix = list[list[Fraction]]

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


def _scale(rows: Sequence[Sequence[Scalar]]) -> list[list[int]]:
    """Integer copy of ``rows``, each row multiplied by the lcm of its
    denominators; a row of plain ints is copied as it stands."""
    out = []
    for row in rows:
        # a Fraction anywhere in the row makes its sum a Fraction, and an
        # entry that does not add is refused below
        try:
            if type(sum(row)) is int:
                out.append(list(row))
                continue
        except TypeError:
            pass
        for entry in row:
            if not isinstance(entry, (int, Fraction)):
                raise ValueError("matrix entries must be int or Fraction, "
                                 f"not {type(entry).__name__}")
        scale = lcm(*{entry.denominator for entry in row})
        out.append([entry.numerator * (scale // entry.denominator)
                    for entry in row])
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("rows must all have the same length")
    return out


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


def _fold(rows: list[list[int]]) -> list[tuple[int, Sequence[int]]]:
    """The echelon basis that :func:`reduce_row` grows from ``rows``."""
    basis: list[tuple[int, Sequence[int]]] = []
    for row in rows:
        reduced = reduce_row(basis, row)
        if reduced is not None:
            basis.append(reduced)
    return basis


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank over the rationals: the size of the basis that
    :func:`reduce_row` grows from the rows."""
    return len(_fold(_scale(rows)))


def det(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    """Determinant of a square matrix.

    Row i goes through :func:`reduce_row` tagged with the unit vector
    e_i, so its reduced row is t_i times the given row i plus multiples of
    the rows before it, where t_i is its entry in tag column i.  The
    reduced rows are therefore L A for a lower triangular L of diagonal
    t_i, and, with their columns put in pivot order, upper triangular.
    """
    size = len(rows)
    m = _scale([[*row, *(int(c == r) for c in range(size))]
                for r, row in enumerate(rows)])
    if any(len(row) != 2 * size for row in m):
        raise ValueError("determinant requires a square matrix")
    # a tag keeps each row independent; singular A pivots in the tags
    basis = _fold(m)
    pivots = [col for col, _ in basis]
    if any(col >= size for col in pivots):
        return Fraction(0)
    swaps = sum(a > b for k, a in enumerate(pivots) for b in pivots[k + 1:])
    return Fraction((-1) ** swaps * prod(b[col] for col, b in basis),
                    prod(b[size + r] for r, (_, b) in enumerate(basis)))


def solve_integral(rows: Sequence[Sequence[Scalar]],
                   rhs: Sequence[Sequence[Scalar]]
                   ) -> tuple[int, list[list[int]]] | None:
    """Integer form of A^-1 B for a square A = ``rows`` and the columns
    B given as ``rhs``, one row per equation: a positive common
    denominator D and the integer matrix X with A X = D B, or None when
    A is singular.

    The augmented rows [A | B] go through :func:`reduce_row` one by one;
    A is singular exactly when a row vanishes or its pivot falls among
    the right-hand columns.  Then each row, last but one first, goes
    through :func:`reduce_row` again against the rows below it, which
    are already reduced; that leaves row k as p_k x_c = b_k for its pivot
    column c.  D is the lcm of the pivots p_k.
    """
    size = len(rows)
    if len(rhs) != size:
        raise ValueError("need one right-hand side row per equation")
    m = _scale([[*row, *b] for row, b in zip(rows, rhs)])
    if any(len(row) != size for row in rows):
        raise ValueError("inversion requires a square matrix")
    return _solve_augmented(m, size)


def _solve_augmented(m: Sequence[Sequence[int]], size: int
                     ) -> tuple[int, list[list[int]]] | None:
    """:func:`solve_integral` on the augmented rows [A | B], ``size`` of
    them, already equal-length ints: nothing is checked or copied."""
    basis: list[tuple[int, Sequence[int]]] = []
    for row in m:
        reduced = reduce_row(basis, row)
        if reduced is None or reduced[0] >= size:
            return None
        basis.append(reduced)
    # each row is zero in the pivot columns of the rows before it
    for k in range(size - 2, -1, -1):
        basis[k] = reduce_row(basis[k + 1:], basis[k][1])
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
    m = _scale([[*row, value] for row, value in zip(rows, rhs)])
    n_cols = len(m[0]) - 1 if m else 0
    basis = _fold(m)
    if any(col == n_cols for col, _ in basis):
        return Solution(INCONSISTENT, None)
    if len(basis) < n_cols:
        return Solution(UNDERDETERMINED, None)
    # the basis rows are a square system with the same solution
    d, numerators = solve_integral([b[:n_cols] for _, b in basis],
                                   [b[n_cols:] for _, b in basis])
    return Solution(UNIQUE, [Fraction(row[0], d) for row in numerators])
