"""Quasipolynomial construction, evaluation, and exact interpolation."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bishops import (
    BISHOP,
    InconsistentSamplesError,
    InsufficientSamplesError,
    Quasipolynomial,
    count_bishops_fast,
    count_unlabelled_naive,
    enumerate_lattice_vertices,
    hyperplane_normal,
    interpolate,
    interpolate_bishops,
    linalg,
    matroid_check,
    move_arrangement,
    period_upper_bound,
    sample_counts,
)

from helpers import reciprocity_sum, reference_solve

F = Fraction


def test_construction_validation():
    with pytest.raises(ValueError):
        Quasipolynomial(0, 1, ())
    with pytest.raises(ValueError):
        Quasipolynomial(2, 1, ((F(1), F(0)),))
    with pytest.raises(ValueError):
        Quasipolynomial(1, 2, ((F(1), F(0)),))
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        Quasipolynomial(1, -1, ((),))


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
        _, status, point = reference_solve(rows, rhs)
        if status == linalg.INCONSISTENT:
            return None
        assert status == linalg.UNIQUE
        head = [] if leading is None else [leading]
        constituents.append(tuple(head + point))
    return Quasipolynomial(period, degree, tuple(constituents))


@st.composite
def planted_samples(draw):
    """Samples of a random rational quasipolynomial at shuffled keys,
    0-3 beyond the minimum per class, with at most one extra sample
    corrupted.  About half of the classes get equally spaced keys, where
    every scale factor of the fraction-free fit is 1, the rest irregular
    ones, where some are not."""
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


# keys 1, 2, 4, 7, 11: at levels 1-3 the lcm of the gaps (12, 105, 18)
# exceeds the largest gap
UNEVEN_KEYS = Quasipolynomial(1, 4, ((F(1, 3), F(-2), F(0), F(5, 2), F(-7)),))
# class 0 fitted on 2, 4, 8 (one uneven gap), class 1 on 1, 3, 5
ONE_UNEVEN_GAP = Quasipolynomial(2, 3, ((F(1, 2), F(1), F(-3, 4), F(2)),
                                        (F(1, 2), F(0), F(5), F(-1, 3))))


@settings(max_examples=200, deadline=None)
@given(planted_samples())
@example(({n: UNEVEN_KEYS.evaluate(n) for n in (1, 2, 4, 7, 11, 16)},
          4, 1, None))
@example(({n: ONE_UNEVEN_GAP.evaluate(n) for n in (1, 2, 3, 4, 5, 8, 10)},
          3, 2, F(1, 2)))
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


def test_residue_classes_are_filled_in_one_pass():
    # at most one residue computation per sample, however many classes
    calls = []

    class CountingKey(int):
        def __mod__(self, other):
            calls.append(int(self))
            return int(self) % other

    period = 40
    samples = {CountingKey(n): n * n for n in range(1, 2 * period + 1)}
    quasi = interpolate(samples, 2, period, leading=1)
    assert len(calls) <= len(samples)
    assert all(quasi.evaluate(n) == n * n for n in range(-3, 3 * period))


@pytest.mark.parametrize("q", range(1, 33))
def test_value_at_minus_one_is_q_factorial(q):
    # the reciprocity spot value u(q; -1) = q!, off every fitted sample
    assert interpolate_bishops(q).evaluate(-1) == factorial(q)


@pytest.mark.parametrize("q", [48, 64, 96, 128])
def test_minimized_value_at_minus_one_is_q_factorial_at_large_q(q):
    # the value `bishops interpolate` reports, at q well past the range above
    minimized = interpolate_bishops(q).minimize_period()
    assert minimized.evaluate(-1) == factorial(q)


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


def test_parity_gaps_pin_period_exactly_two():
    # gamma_i(r) is coefficient(i, r), r = 0 the even class: the first
    # six coefficients agree on both classes, gamma_6 and gamma_7 do not
    for q in [*range(3, 41), 64, 96, 128]:
        quasi = interpolate_bishops(q)
        gap = [quasi.coefficient(i, 0) - quasi.coefficient(i, 1)
               for i in range(8 if q >= 4 else 7)]
        assert gap[:6] == [0] * 6, q
        assert gap[6] == F(-1, 4 * factorial(q - 3)), q
        if q >= 4:
            assert gap[7] == F(q + 2, 6 * factorial(q - 4)), q


@pytest.mark.parametrize("q, boards", [(1, 5), (2, 5), (3, 5), (4, 4)])
def test_reciprocity_at_negative_board_sizes(q, boards):
    # q! u(q; -m) counts placements with repeats on the m x m board,
    # each weighted by the regions whose closure holds it
    quasi = interpolate_bishops(q)
    for m in range(1, boards + 1):
        assert reciprocity_sum(q, m) == factorial(q) * quasi.evaluate(-m), m


@pytest.mark.parametrize("q", [3, 4])
def test_reciprocity_oracle_sees_a_wrong_weight(q):
    # k pieces on one line have k! orders; with weight k the sum differs
    # once a line can hold three pieces
    quasi = interpolate_bishops(q)
    assert (reciprocity_sum(q, 2, weight=lambda k: k)
            != factorial(q) * quasi.evaluate(-2))


def test_period_twelve_fit_minimizes_to_the_true_period():
    for q in range(1, 33):
        minimized = interpolate_bishops(q, period=12).minimize_period()
        assert minimized.period == (1 if q <= 2 else 2), q


def test_interpolate_bishops_validation():
    with pytest.raises(ValueError, match="q must be at least 1"):
        interpolate_bishops(0)
    with pytest.raises(ValueError, match="period must be positive"):
        interpolate_bishops(3, period=0)


@pytest.mark.parametrize("build, message", [
    (lambda: Quasipolynomial(1.0, 0, ((1,),)), "period"),
    (lambda: Quasipolynomial(2, 1.0, ((1, 0), (1, 0))), "degree"),
    (lambda: interpolate({True: 1, 2: 4, 3: 9}, 2, 1), "sample key"),
    (lambda: interpolate({n: n * n for n in range(1, 9)}, 2.0, 1), "degree"),
    (lambda: interpolate({n: n * n for n in range(1, 9)}, 2, 1.0), "period"),
    (lambda: interpolate_bishops(2, period=2.0), "period"),
    (lambda: interpolate_bishops(2.0), "q"),
    (lambda: interpolate_bishops(3).evaluate(True), "n"),
    (lambda: interpolate_bishops(3).evaluate(2.0), "n"),
    (lambda: interpolate_bishops(3).coefficient(0.0, 0), "coefficient index"),
    (lambda: interpolate_bishops(3).coefficient(0, True), "residue"),
    (lambda: count_bishops_fast(2.0, 3), "q"),
    (lambda: count_bishops_fast(2, True), "n"),
    (lambda: count_unlabelled_naive(BISHOP, True, 3), "q"),
    (lambda: count_unlabelled_naive(BISHOP, 2, 3.0), "n"),
    (lambda: count_unlabelled_naive(BISHOP, 2, 3, node_budget=1e9),
     "node budget"),
    (lambda: sample_counts(BISHOP, True, 1, 3), "q"),
    (lambda: sample_counts(BISHOP, 2.0, 1, 3), "q"),
    (lambda: sample_counts(BISHOP, 2, 1.0, 3), "n_from"),
    (lambda: sample_counts(BISHOP, 2, 1, 3.0), "n_to"),
    (lambda: sample_counts(BISHOP, 2, 1, 3, node_budget=True),
     "node budget"),
    (lambda: enumerate_lattice_vertices(2.0), "q"),
    (lambda: enumerate_lattice_vertices(2, bound=3.0), "bound"),
    (lambda: matroid_check(True), "q"),
    (lambda: matroid_check(2, bound=4.0), "bound"),
    (lambda: period_upper_bound(2.0), "q"),
    (lambda: period_upper_bound(2, bound=True), "bound"),
    (lambda: move_arrangement(True), "q"),
    (lambda: move_arrangement(3.0), "q"),
    (lambda: hyperplane_normal((1, 2, 1), 2.0), "q"),
], ids=["period", "degree", "bool-key", "interpolate-degree",
        "interpolate-period", "bishops-period", "bishops-q", "evaluate-bool",
        "evaluate-float", "coefficient-index", "coefficient-residue",
        "fast-q", "fast-n", "naive-q", "naive-n", "naive-budget",
        "sample-bool-q", "sample-float-q", "sample-n-from", "sample-n-to",
        "sample-budget", "vertices-q",
        "vertices-bound", "matroid-q", "matroid-bound", "period-bound-q",
        "period-bound-bound", "arrangement-bool-q", "arrangement-float-q",
        "normal-q"])
def test_integer_fields_refuse_floats_and_bools(build, message):
    # each compares equal to an int, but would index, slice or key as
    # something else: a float period picks no constituent, True would
    # be taken as the sample or the value at n = 1, and a float q or n
    # sizes no list or range
    with pytest.raises(ValueError, match=f"^{message} must be an int"):
        build()


def test_interpolate_validation():
    samples = {n: n * n for n in range(1, 9)}
    with pytest.raises(ValueError, match="period must be positive"):
        interpolate(samples, 2, 0)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        interpolate(samples, -1, 1)


@pytest.mark.parametrize("q", range(1, 17))
def test_interpolate_bishops_reproduces_counts(q):
    # the fit reads n = 1..4q; every size up to 200 is checked
    quasi = interpolate_bishops(q)
    assert quasi.coefficient(0, 0) == F(1, factorial(q))
    counts = sample_counts(BISHOP, q, 0, 200).entries
    for n in range(201):
        assert quasi.evaluate(n) == counts[n], (q, n)


def test_fit_equals_the_count_at_a_huge_board():
    assert interpolate_bishops(4).evaluate(10**5) == count_bishops_fast(4, 10**5)


def test_a_wrong_period_is_caught_off_its_samples():
    # the period 1 fit of q = 3 is a polynomial through the counts at
    # n = 1..6, which the period-2 counts leave on either side
    wrong = interpolate_bishops(3, period=1)
    counts = sample_counts(BISHOP, 3, 0, 200).entries
    misses = [n for n in range(201) if wrong.evaluate(n) != counts[n]]
    assert len(misses) == 195 and misses[:3] == [0, 7, 8]
    # two bishops' counts are a polynomial, so period 1 is right there
    right = interpolate_bishops(2, period=1)
    counts = sample_counts(BISHOP, 2, 0, 200).entries
    assert all(right.evaluate(n) == counts[n] for n in range(201))


@pytest.mark.parametrize("q", [64, 128])
def test_interpolate_bishops_large_q(q):
    quasi = interpolate_bishops(q)
    assert quasi.minimize_period().period == 2
    for n in range(4 * q + 1, 4 * q + 5):
        assert quasi.evaluate(n) == count_bishops_fast(q, n), (q, n)
    # the first six coefficients are parity-free, the seventh is not
    assert quasi.coefficient_periods()[:7] == [1] * 6 + [2]
