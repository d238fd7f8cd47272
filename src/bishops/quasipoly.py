"""Quasipolynomials with exact rational coefficients.

A quasipolynomial of period p is a list of p ordinary polynomials
("constituents"); the one used at integer n is selected by the least
nonnegative residue of n mod p, which keeps evaluation well defined at
zero and negative arguments.  One helper, ``_over_lcm``, writes a list
of ints and Fractions as integers over the lcm of its denominators;
evaluation runs Horner in integers on each constituent so scaled.

Interpolation recovers constituents from exact samples one residue
class at a time, in integers.  The same helper scales the class's
values with any known leading coefficient, whose term is subtracted;
fraction-free divided differences give the Newton form over one integer
scale, whatever the spacing of the keys; the remaining samples are
checked in integers against the fit; and each monomial coefficient
costs exactly one Fraction at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Mapping, Sequence

from .board import BISHOP, Rider, _require_int
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


def _exact(value, what: str) -> Fraction:
    """``value`` as a Fraction.  Only int and Fraction are accepted: a
    float or a string would be silently turned into some other
    rational by Fraction()."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise ValueError(f"{what} must be int or Fraction, not "
                     f"{type(value).__name__}")


def _over_lcm(values: Sequence[int | Fraction]) -> tuple[int, list[int]]:
    """(d, numerators): d is the lcm of the denominators of ``values``,
    ints and Fractions, and numerators[i] = d * values[i], an integer."""
    d = lcm(*(value.denominator for value in values))
    return d, [value.numerator * (d // value.denominator) for value in values]


def _horner(coefficients: Sequence, n: int):
    """Value at n of the polynomial with these coefficients, highest
    power first; exact in whatever type the coefficients have."""
    value = 0
    for coefficient in coefficients:
        value = value * n + coefficient
    return value


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
        _require_int(self.period, "period")
        _require_int(self.degree, "degree")
        if self.period < 1:
            raise ValueError("period must be positive")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        rows = tuple(tuple(_exact(c, "coefficients") for c in row)
                     for row in self.constituents)
        object.__setattr__(self, "constituents", rows)
        if len(rows) != self.period:
            raise ValueError("need exactly one constituent per residue class")
        if any(len(row) != self.degree + 1 for row in rows):
            raise ValueError("each constituent needs degree + 1 coefficients")

    @cached_property
    def _integral(self) -> tuple[tuple[int, list[int]], ...]:
        """Per constituent, its coefficients over their lcm denominator."""
        return tuple(map(_over_lcm, self.constituents))

    def evaluate(self, n: int) -> Fraction:
        """Value at any integer n; n % period in Python is already the
        least nonnegative residue, negative n included.  Horner runs in
        integers, and the one Fraction is built at the end."""
        _require_int(n, "n")
        d, numerators = self._integral[n % self.period]
        return Fraction(_horner(numerators, n), d)

    def coefficient(self, i: int, r: int) -> Fraction:
        """gamma_i of the residue-r constituent, the coefficient of
        n^(degree - i)."""
        _require_int(i, "coefficient index")
        _require_int(r, "residue")
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


def _fit(xs: list[int], ys: list[int],
         unknowns: int) -> tuple[list[int], int] | None:
    """(coefficients, d): d times the polynomial with ``unknowns``
    coefficients through the first ``unknowns`` points, highest power
    first, all integers; None when a later point misses it.

    Keys must be distinct and increasing.  A polynomial through that
    many distinct points is unique, so the remaining points decide
    consistency.  The Newton form comes from fraction-free divided
    differences: level k sets c_i <- (c_i - c_(i-1)) * L_k / (x_i - x_(i-k))
    with L_k the lcm of that level's gaps, so c_k ends as W_k times the
    k-th divided difference, W_k = L_1 ... L_k, and d = W_(m-1) for m
    unknowns.  Equally spaced keys, step h, have L_k = k*h and every
    factor 1: c_k is the forward difference and d = (m-1)! * h^(m-1).
    """
    newton = ys[:unknowns]
    levels = [1]
    for k in range(1, unknowns):
        gaps = [b - a for a, b in zip(xs, xs[k:unknowns])]
        level = lcm(*gaps)
        levels.append(level)
        for i in range(unknowns - 1, k - 1, -1):
            newton[i] -= newton[i - 1]
            if gaps[i - k] != level:
                newton[i] *= level // gaps[i - k]
    # over the common d, coefficient k gains the later levels' factors
    d = 1
    for k in range(unknowns - 1, -1, -1):
        newton[k] *= d
        d *= levels[k]
    # Horner on the Newton form: p = c_k + (x - x_k) * p, k descending
    coefficients: list[int] = []
    for k in range(unknowns - 1, -1, -1):
        shifted = coefficients + [newton[k]]
        for j in range(1, len(shifted)):
            shifted[j] -= xs[k] * coefficients[j - 1]
        coefficients = shifted
    if any(_horner(coefficients, n) != d * y
           for n, y in zip(xs[unknowns:], ys[unknowns:])):
        return None
    return coefficients, d


def interpolate(samples: Mapping[int, int | Fraction], degree: int,
                period: int, leading: int | Fraction | None = None
                ) -> Quasipolynomial:
    """The unique quasipolynomial of this degree and period through the
    samples, fitted exactly per residue class on the first ``unknowns``
    samples of the class (in increasing n), the rest checked against
    the fit.

    Each class's values and the known leading coefficient are scaled to
    integers by the lcm s of their denominators, the leading term is
    subtracted, and the fit runs in integers over a Newton scale d.
    Each coefficient is divided by d * s exactly once, at the end.

    Sample values and ``leading`` must be int or Fraction.  With
    ``leading`` supplied, gamma_0 is fixed in advance and each class
    needs only ``degree`` samples instead of degree + 1.  Extra samples
    overdetermine the fit; any contradiction raises
    InconsistentSamplesError instead of being averaged away.
    """
    _require_int(period, "period")
    _require_int(degree, "degree")
    if period < 1:
        raise ValueError("period must be positive")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    classes: dict[int, list[tuple[int, int | Fraction]]] = {}
    for n, value in samples.items():
        _require_int(n, "sample key")
        if n < 1:
            raise ValueError("sample keys must be positive integers")
        _exact(value, "sample values")
        classes.setdefault(n % period, []).append((n, value))
    unknowns = degree + 1 if leading is None else degree
    top = None if leading is None else _exact(leading, "leading")
    constituents = []
    for r in range(period):
        points = sorted(classes.get(r, ()))
        if len(points) < unknowns:
            raise InsufficientSamplesError(r, period, unknowns, len(points))
        scale, (head, *ys) = _over_lcm([top or 0, *(v for _, v in points)])
        if head:
            ys = [y - head * n ** degree for (n, _), y in zip(points, ys)]
        fit = _fit([n for n, _ in points], ys, unknowns)
        if fit is None:
            raise InconsistentSamplesError(
                f"samples in residue class {r} (mod {period}) admit no "
                f"degree-{degree} polynomial; the degree or period "
                f"hypothesis is wrong")
        numerators, d = fit
        coefficients = [Fraction(c, d * scale) for c in numerators]
        if top is not None:
            coefficients = [top] + coefficients
        constituents.append(tuple(coefficients))
    return Quasipolynomial(period, degree, tuple(constituents))


def _fit_table(q: int, period: int, rider: Rider, node_budget: int,
               holdout: int = 0) -> tuple[Quasipolynomial, dict[int, int]]:
    """(fit on n = 1..2q*period, counts at the next ``holdout`` sizes),
    both read from one count table of n = 1..2q*period + holdout."""
    _require_int(q, "q")
    _require_int(period, "period")
    if q < 1:
        raise ValueError("q must be at least 1")
    if period < 1:
        raise ValueError("period must be positive")
    top = 2 * q * period
    counts = sample_counts(rider, q, 1, top + holdout,
                           node_budget=node_budget).entries
    fit = interpolate({n: counts[n] for n in range(1, top + 1)}, 2 * q,
                      period, leading=Fraction(1, factorial(q)))
    return fit, {n: counts[n] for n in range(top + 1, top + holdout + 1)}


def interpolate_bishops(q: int, *, period: int = 2) -> Quasipolynomial:
    """Bishops' counting quasipolynomial, raw (period as given), fitted
    to the fast counts at n = 1..2q*period with leading coefficient 1/q!;
    the default period 2 takes the minimal 4q samples."""
    return _fit_table(q, period, BISHOP, DEFAULT_NODE_BUDGET)[0]
