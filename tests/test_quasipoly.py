"""Quasipolynomial construction, evaluation, and exact interpolation."""

import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bishops import (
    InconsistentSamplesError,
    InsufficientSamplesError,
    Quasipolynomial,
    count_bishops_fast,
    interpolate,
    interpolate_bishops,
    linalg,
    parse_rider,
)

F = Fraction


def test_construction_validation():
    with pytest.raises(ValueError):
        Quasipolynomial(0, 1, ())
    with pytest.raises(ValueError):
        Quasipolynomial(2, 1, ((F(1), F(0)),))
    with pytest.raises(ValueError):
        Quasipolynomial(1, 2, ((F(1), F(0)),))


def test_construction_rejects_inexact_coefficients():
    # Fraction(0.1) would store 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="coefficients must be int or "
                                         "Fraction, not float"):
        Quasipolynomial(1, 0, ((0.1,),))
    with pytest.raises(ValueError, match="not str"):
        Quasipolynomial(1, 1, ((F(1), "1/2"),))
    assert Quasipolynomial(1, 1, ((1, F(1, 2)),)).constituents == (
        (F(1), F(1, 2)),)


def test_evaluate_selects_constituent_by_residue():
    # n^2 on even n, n on odd n
    quasi = Quasipolynomial(2, 2, ((F(1), F(0), F(0)), (F(0), F(1), F(0))))
    assert quasi.evaluate(4) == 16
    assert quasi.evaluate(5) == 5
    assert quasi.evaluate(0) == 0
    assert quasi.evaluate(-2) == 4
    assert quasi.evaluate(-3) == -3  # -3 % 2 == 1 selects the odd class


def test_coefficient_indexing_and_bounds():
    quasi = Quasipolynomial(2, 2, ((F(1), F(2), F(3)), (F(4), F(5), F(6))))
    assert quasi.coefficient(0, 0) == 1
    assert quasi.coefficient(2, 1) == 6
    with pytest.raises(IndexError):
        quasi.coefficient(3, 0)
    with pytest.raises(IndexError):
        quasi.coefficient(0, 2)


def test_minimize_period():
    same = ((F(1), F(0)), (F(1), F(0)))
    assert Quasipolynomial(2, 1, same).minimize_period().period == 1
    different = ((F(1), F(0)), (F(1), F(1)))
    assert Quasipolynomial(2, 1, different).minimize_period().period == 2
    four = ((F(1), F(0)), (F(1), F(1)), (F(1), F(0)), (F(1), F(1)))
    assert Quasipolynomial(4, 1, four).minimize_period().period == 2


def test_minimize_period_preserves_values_and_is_idempotent():
    quasi = Quasipolynomial(4, 1, ((F(1), F(0)), (F(1), F(1)),
                                   (F(1), F(0)), (F(1), F(1))))
    minimized = quasi.minimize_period()
    for n in range(-10 * quasi.period, 10 * quasi.period + 1):
        assert quasi.evaluate(n) == minimized.evaluate(n)
    assert minimized.minimize_period() is minimized


def test_verify_against():
    quasi = Quasipolynomial(1, 2, ((F(1), F(0), F(0)),))
    assert quasi.verify_against({1: 1, 2: 4, 7: 49})
    assert not quasi.verify_against({3: 10})


def test_coefficient_periods():
    quasi = Quasipolynomial(2, 2, ((F(1), F(2), F(3)), (F(1), F(2), F(7))))
    assert quasi.coefficient_periods() == [1, 1, 2]


def test_json_round_trip():
    quasi = Quasipolynomial(2, 1, ((F(1, 2), F(0)), (F(1, 2), F(-3))))
    payload = json.loads(quasi.to_json())
    assert payload["period"] == 2
    assert payload["degree"] == 1
    assert payload["constituents"] == [["1/2", "0/1"], ["1/2", "-3/1"]]


def test_pretty_mentions_each_residue():
    quasi = Quasipolynomial(2, 2, ((F(1), F(0), F(0)), (F(1), F(0), F(1, 4))))
    text = quasi.pretty()
    assert "n = 0 (mod 2)" in text
    assert "n = 1 (mod 2)" in text
    assert "1/4" in text


coefficient = st.fractions(
    min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda period: st.lists(
    st.lists(coefficient, min_size=4, max_size=4),
    min_size=period, max_size=period)))
def test_evaluate_matches_fraction_horner(rows):
    quasi = Quasipolynomial(len(rows), 3, tuple(map(tuple, rows)))
    for n in range(-12, 13):
        expected = F(0)
        for c in rows[n % len(rows)]:
            expected = expected * n + c
        value = quasi.evaluate(n)
        assert type(value) is F and value == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(coefficient, min_size=3, max_size=3),
       st.lists(coefficient, min_size=3, max_size=3))
def test_interpolation_recovers_planted_quasipolynomial(even, odd):
    planted = Quasipolynomial(2, 2, (tuple(even), tuple(odd)))
    samples = {n: planted.evaluate(n) for n in range(1, 13)}
    recovered = interpolate(samples, 2, 2)
    assert recovered == planted


def vandermonde_oracle(samples, degree, period, leading):
    """Per-class dense Vandermonde solve by elimination: an independent
    route to interpolate's answer, or None when some class is
    inconsistent."""
    first = 0 if leading is None else 1
    constituents = []
    for r in range(period):
        points = [(n, F(v)) for n, v in samples.items() if n % period == r]
        rows = [[F(n) ** (degree - i) for i in range(first, degree + 1)]
                for n, _ in points]
        rhs = [v if leading is None else v - leading * F(n) ** degree
               for n, v in points]
        solution = linalg.solve(rows, rhs)
        if solution.status == linalg.INCONSISTENT:
            return None
        assert solution.status == linalg.UNIQUE
        head = [] if leading is None else [leading]
        constituents.append(tuple(head + solution.point))
    return Quasipolynomial(period, degree, tuple(constituents))


@st.composite
def planted_samples(draw):
    """Samples of a random rational quasipolynomial at shuffled keys,
    0-3 beyond the minimum per class, with at most one extra sample
    corrupted.  About half of the classes get equally spaced keys (the
    integer forward-difference fit), the rest irregular ones (the
    Fraction divided-difference fit)."""
    period = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 6))
    leading = draw(st.none() | coefficient)
    width = degree + 1
    rows = [draw(st.lists(coefficient, min_size=width, max_size=width))
            for _ in range(period)]
    if leading is not None:
        rows = [[leading] + row[1:] for row in rows]
    planted = Quasipolynomial(period, degree, tuple(map(tuple, rows)))
    unknowns = width if leading is None else degree
    keys = []
    for r in range(period):
        size = unknowns + draw(st.integers(0, 3))
        if draw(st.booleans()):
            first, step = draw(st.integers(1, 30)), draw(st.integers(1, 4))
            steps = [first + step * i for i in range(size)]
        else:
            steps = draw(st.lists(st.integers(1, 30), min_size=size,
                                  max_size=size, unique=True))
        keys += [period * m + r for m in steps]
    keys = draw(st.permutations(keys))
    samples = {n: planted.evaluate(n) for n in keys}
    if keys and draw(st.booleans()):
        samples[draw(st.sampled_from(keys))] += 1
    return samples, degree, period, leading


@settings(max_examples=200, deadline=None)
@given(planted_samples())
def test_interpolation_matches_vandermonde_oracle(case):
    samples, degree, period, leading = case
    expected = vandermonde_oracle(samples, degree, period, leading)
    if expected is None:
        with pytest.raises(InconsistentSamplesError):
            interpolate(samples, degree, period, leading=leading)
    else:
        assert interpolate(samples, degree, period,
                           leading=leading) == expected


def test_degree_zero_with_leading_needs_no_samples():
    # zero unknowns: an empty class is fine, and every sample must
    # equal the leading coefficient
    quasi = interpolate({2: F(3), 6: F(3)}, 0, 2, leading=F(3))
    assert quasi.constituents == ((F(3),), (F(3),))
    with pytest.raises(InconsistentSamplesError):
        interpolate({2: F(3), 5: F(4)}, 0, 2, leading=F(3))


SQUARE_MISMATCH = ("samples in residue class 0 (mod 1) admit no degree-2 "
                   "polynomial; the degree or period hypothesis is wrong")


def test_corrupted_extra_sample_between_correct_ones():
    samples = {n: n ** 2 for n in range(1, 7)}
    samples[5] += 1  # after the fitted 1, 2, 3 and between 4 and 6
    with pytest.raises(InconsistentSamplesError) as info:
        interpolate(samples, 2, 1)
    assert str(info.value) == SQUARE_MISMATCH


def test_corrupted_sample_among_fitted_ones():
    samples = {n: n ** 2 for n in range(1, 7)}
    samples[2] -= 1  # one of the three points the fit passes through
    with pytest.raises(InconsistentSamplesError) as info:
        interpolate(samples, 2, 1)
    assert str(info.value) == SQUARE_MISMATCH


def test_interpolation_with_known_leading():
    planted = Quasipolynomial(1, 3, ((F(1, 6), F(0), F(-1, 6), F(0)),))
    samples = {n: planted.evaluate(n) for n in range(1, 4)}
    recovered = interpolate(samples, 3, 1, leading=F(1, 6))
    assert recovered == planted


def test_supplied_leading_equals_full_interpolation():
    # degree-many samples per class with the correct leading coefficient
    # give the same result as degree+1 samples per class without it
    degree, q = 4, 2
    with_leading = interpolate(
        {n: count_bishops_fast(q, n) for n in range(1, 2 * degree + 1)},
        degree, 2, leading=F(1, factorial(q)))
    without = interpolate(
        {n: count_bishops_fast(q, n) for n in range(1, 2 * (degree + 1) + 1)},
        degree, 2)
    assert with_leading == without


def test_insufficient_samples():
    with pytest.raises(InsufficientSamplesError) as info:
        interpolate({1: 1, 3: 9, 2: 4}, 2, 2)
    assert info.value.residue in (0, 1)
    assert info.value.needed == 3
    assert "mod 2" in str(info.value)


def test_inconsistent_samples():
    # 2^n is not a polynomial of degree 2
    samples = {n: 2 ** n for n in range(1, 9)}
    with pytest.raises(InconsistentSamplesError):
        interpolate(samples, 2, 1)


def test_wrong_leading_is_inconsistent():
    samples = {n: n ** 2 for n in range(1, 6)}
    with pytest.raises(InconsistentSamplesError):
        interpolate(samples, 2, 1, leading=F(2))


def test_inexact_sample_values_are_rejected():
    squares = {n: n ** 2 for n in range(1, 4)}
    with pytest.raises(ValueError, match="sample values must be int or "
                                         "Fraction, not str"):
        interpolate({**squares, 4: "16"}, 2, 1)
    with pytest.raises(ValueError, match="not float"):
        interpolate({**squares, 2: 4.0}, 2, 1)
    with pytest.raises(ValueError, match="leading must be int or Fraction"):
        interpolate(squares, 2, 1, leading=1.0)
    assert interpolate(squares, 2, 1, leading=1) == interpolate(squares, 2, 1)


def test_sample_key_validation():
    with pytest.raises(ValueError):
        interpolate({0: 0, 1: 1, 2: 4, 3: 9}, 2, 1)
    with pytest.raises(ValueError):
        interpolate({-1: 1, 1: 1, 2: 4}, 2, 1)


def test_interpolate_bishops_one_piece():
    # u(1; n) = n^2 exactly, so the minimized period is 1
    quasi = interpolate_bishops(1)
    minimized = quasi.minimize_period()
    assert minimized.period == 1
    assert minimized.constituents[0] == (F(1), F(0), F(0))


def test_interpolate_bishops_three_pieces_frozen_constituents():
    quasi = interpolate_bishops(3).minimize_period()
    assert quasi.period == 2
    assert quasi.constituents[0] == (
        F(1, 6), F(-2, 3), F(5, 4), F(-5, 3), F(4, 3), F(-2, 3), F(0))
    assert quasi.constituents[1] == (
        F(1, 6), F(-2, 3), F(5, 4), F(-5, 3), F(4, 3), F(-2, 3), F(1, 4))


def test_interpolate_bishops_other_rider_matches_rook_golden():
    # tests/golden/interpolate_rook_q2.txt: u(2; n) = C(n, 2)^2 * 2!
    quasi = interpolate_bishops(2, rider=parse_rider("1,0;0,1"))
    assert quasi.period == 2
    assert quasi.minimize_period().pretty() == (
        "n = 0 (mod 1): 1/2*n^4 - n^3 + 1/2*n^2")


def test_interpolate_bishops_validation():
    with pytest.raises(ValueError, match="q must be at least 1"):
        interpolate_bishops(0)
    with pytest.raises(ValueError, match="period must be positive"):
        interpolate_bishops(3, period=0)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_interpolate_bishops_reproduces_counts(q):
    quasi = interpolate_bishops(q)
    assert quasi.coefficient(0, 0) == F(1, factorial(q))
    for n in range(1, 4 * q + 5):
        assert quasi.evaluate(n) == count_bishops_fast(q, n), (q, n)


@pytest.mark.parametrize("q", [64, 128])
def test_interpolate_bishops_large_q(q):
    quasi = interpolate_bishops(q)
    assert quasi.minimize_period().period == 2
    for n in range(4 * q + 1, 4 * q + 5):
        assert quasi.evaluate(n) == count_bishops_fast(q, n), (q, n)
    # the first six coefficients are parity-free, the seventh is not
    assert quasi.coefficient_periods()[:7] == [1] * 6 + [2]
