"""Quasipolynomials with exact rational coefficients.

A quasipolynomial of period p is a list of p ordinary polynomials
("constituents"); the one used at integer n is selected by the least
nonnegative residue of n mod p, which keeps evaluation well defined at
zero and negative arguments.  Interpolation recovers constituents from
exact integer samples one residue class at a time: Newton divided
differences on the first unknowns samples, the rest checked by
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

from .board import BISHOP, Rider
from .counting import DEFAULT_NODE_BUDGET, sample_counts


class InterpolationError(ValueError):
    """Base class for interpolation failures."""


class InsufficientSamplesError(InterpolationError):
    """Some residue class has fewer samples than unknown coefficients."""

    def __init__(self, residue: int, period: int, needed: int, got: int):
        super().__init__(
            f"residue class {residue} (mod {period}) has {got} samples "
            f"but needs {needed}")
        self.residue = residue
        self.period = period
        self.needed = needed
        self.got = got


class InconsistentSamplesError(InterpolationError):
    """An overdetermined system has no solution, so the degree or period
    hypothesis is wrong for the data."""


def _smallest_period(values: Sequence) -> int:
    """Smallest divisor p of len(values) with values[r] == values[r % p]
    for every r; len(values) itself always qualifies."""
    period = len(values)
    return next(p for p in range(1, period + 1)
                if period % p == 0
                and all(values[r] == values[r % p] for r in range(period)))


@dataclass(frozen=True)
class Quasipolynomial:
    """``constituents[r]`` holds the coefficients of the residue-r
    polynomial, ordered from the n^degree term down to the constant."""

    period: int
    degree: int
    constituents: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be positive")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        rows = tuple(tuple(Fraction(c) for c in row) for row in self.constituents)
        object.__setattr__(self, "constituents", rows)
        if len(rows) != self.period:
            raise ValueError("need exactly one constituent per residue class")
        if any(len(row) != self.degree + 1 for row in rows):
            raise ValueError("each constituent needs degree + 1 coefficients")

    def evaluate(self, n: int) -> Fraction:
        """Value at any integer n; n % period in Python is already the
        least nonnegative residue, negative n included."""
        value = Fraction(0)
        for coefficient in self.constituents[n % self.period]:
            value = value * n + coefficient
        return value

    def coefficient(self, i: int, r: int) -> Fraction:
        """gamma_i of the residue-r constituent, the coefficient of
        n^(degree - i)."""
        if not 0 <= i <= self.degree:
            raise IndexError(f"coefficient index {i} outside 0..{self.degree}")
        if not 0 <= r < self.period:
            raise IndexError(f"residue {r} outside 0..{self.period - 1}")
        return self.constituents[r][i]

    def minimize_period(self) -> "Quasipolynomial":
        """Equal quasipolynomial with the smallest period that still
        reproduces every constituent."""
        p = _smallest_period(self.constituents)
        if p == self.period:
            return self
        return Quasipolynomial(p, self.degree, self.constituents[:p])

    def verify_against(self, samples: Mapping[int, int]) -> bool:
        """True iff evaluation matches every sample exactly."""
        return all(self.evaluate(n) == value for n, value in samples.items())

    def coefficient_periods(self) -> list[int]:
        """Smallest period of each coefficient sequence gamma_i(n),
        i = 0..degree.  Observational; nothing in the package depends
        on these values."""
        return [_smallest_period([row[i] for row in self.constituents])
                for i in range(self.degree + 1)]

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "degree": self.degree,
            "constituents": [
                [f"{c.numerator}/{c.denominator}" for c in row]
                for row in self.constituents
            ],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2)

    def pretty(self) -> str:
        """One human-readable polynomial per residue class."""
        lines = []
        for r, row in enumerate(self.constituents):
            terms = []
            for i, c in enumerate(row):
                if c == 0:
                    continue
                power = self.degree - i
                if power == 0:
                    body = str(abs(c))
                elif power == 1:
                    body = f"{abs(c)}*n" if abs(c) != 1 else "n"
                else:
                    body = f"{abs(c)}*n^{power}" if abs(c) != 1 else f"n^{power}"
                sign = "-" if c < 0 else "+"
                terms.append((sign, body))
            if not terms:
                text = "0"
            else:
                first_sign, first_body = terms[0]
                text = ("-" if first_sign == "-" else "") + first_body
                for sign, body in terms[1:]:
                    text += f" {sign} {body}"
            lines.append(f"n = {r} (mod {self.period}): {text}")
        return "\n".join(lines)


def _newton_fit(points: list[tuple[int, Fraction]],
                unknowns: int) -> list[Fraction] | None:
    """Coefficients, highest power first, of the polynomial with
    ``unknowns`` coefficients through the first ``unknowns`` points, by
    Newton divided differences; None when a later point misses it.

    Keys must be distinct.  A polynomial through that many distinct
    points is unique, so the remaining points decide consistency.
    """
    xs = [n for n, _ in points[:unknowns]]
    differences = [value for _, value in points[:unknowns]]
    for k in range(1, unknowns):
        for i in range(unknowns - 1, k - 1, -1):
            differences[i] = ((differences[i] - differences[i - 1])
                              / (xs[i] - xs[i - k]))
    # Horner on the Newton form: p = d_k + (x - x_k) * p, k descending
    coefficients: list[Fraction] = []
    for k in range(unknowns - 1, -1, -1):
        shifted = coefficients + [differences[k]]
        for j in range(1, len(shifted)):
            shifted[j] -= xs[k] * coefficients[j - 1]
        coefficients = shifted
    for n, value in points[unknowns:]:
        fitted = Fraction(0)
        for coefficient in coefficients:
            fitted = fitted * n + coefficient
        if fitted != value:
            return None
    return coefficients


def interpolate(samples: Mapping[int, int], degree: int, period: int,
                leading: Fraction | None = None) -> Quasipolynomial:
    """The unique quasipolynomial of this degree and period through the
    samples, fitted exactly per residue class by Newton divided
    differences on the first ``unknowns`` samples of the class (in
    increasing n), the rest checked by evaluation.

    With ``leading`` supplied, gamma_0 is fixed in advance and each class
    needs only ``degree`` samples instead of degree + 1.  Extra samples
    overdetermine the fit; any contradiction raises
    InconsistentSamplesError instead of being averaged away.
    """
    if period < 1:
        raise ValueError("period must be positive")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    for n in samples:
        if not isinstance(n, int) or n < 1:
            raise ValueError("sample keys must be positive integers")
    items = sorted(samples.items())
    unknowns = degree + 1 if leading is None else degree
    top = None if leading is None else Fraction(leading)
    constituents = []
    for r in range(period):
        points = [(n, Fraction(value)) for n, value in items
                  if n % period == r]
        if len(points) < unknowns:
            raise InsufficientSamplesError(r, period, unknowns, len(points))
        if top is not None:
            points = [(n, value - top * n ** degree) for n, value in points]
        coefficients = _newton_fit(points, unknowns)
        if coefficients is None:
            raise InconsistentSamplesError(
                f"samples in residue class {r} (mod {period}) admit no "
                f"degree-{degree} polynomial; the degree or period "
                f"hypothesis is wrong")
        if top is not None:
            coefficients = [top] + coefficients
        constituents.append(tuple(coefficients))
    return Quasipolynomial(period, degree, tuple(constituents))


def interpolate_bishops(q: int, *, period: int = 2, rider: Rider = BISHOP,
                        node_budget: int = DEFAULT_NODE_BUDGET
                        ) -> Quasipolynomial:
    """Counting quasipolynomial of q pieces of ``rider`` (the bishop by
    default) from exact counts at n = 1..2q*period, using the known
    leading coefficient 1/q!.

    Counts come from :func:`~bishops.counting.sample_counts` with method
    "auto": the fast counter for the bishop, the naive oracle under
    ``node_budget`` for any other rider.  With the default period 2 this
    is the minimal budget of 4q samples.  The result is raw (period as
    given); callers decide whether to minimize or verify it.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    if period < 1:
        raise ValueError("period must be positive")
    top = 2 * q * period
    samples = sample_counts(rider, q, 1, top, node_budget=node_budget)
    return interpolate(samples.entries, 2 * q, period,
                       leading=Fraction(1, factorial(q)))
