"""Riders other than the bishop, pinned through public output.

Each rider's interpolated period comes from ``bishops interpolate`` over
naive counts; its region count comes from Zaslavsky's formula over the
rider's own move arrangement, which reads no count table.  By
Beck-Zaslavsky reciprocity the two meet at q! u(q; -1).
"""

import json
from fractions import Fraction
from math import factorial

import pytest

from bishops.cli import main

from helpers import CENSUS_RIDERS, region_count, rider_arrangement


def interpolate_report(capsys, piece, q, period):
    code = main(["interpolate", "-p", CENSUS_RIDERS[piece], "-q", str(q),
                 "--period", str(period), "--holdout", "8",
                 "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("piece, q, period, regions", [
    ("rook", 2, 1, 4),
    ("rook", 3, 1, 36),
    ("queen", 2, 1, 8),
    ("queen", 3, 2, 216),
    ("nightrider", 2, 2, 8),
])
def test_period_and_region_count(capsys, piece, q, period, regions):
    code, report = interpolate_report(capsys, piece, q, 2)
    assert code == 0 and report["holdout"]["pass"]
    assert report["minimized_period"] == period
    count = region_count(rider_arrangement(CENSUS_RIDERS[piece], q))
    assert count == factorial(q) * Fraction(report["value_at_minus_1"])
    assert count == regions


@pytest.mark.parametrize("piece, q", [("queen", 3), ("nightrider", 2)])
def test_period_one_fails_the_holdout(capsys, piece, q):
    code, report = interpolate_report(capsys, piece, q, 1)
    assert code == 1
    assert not report["holdout"]["pass"]


def test_region_count_sees_every_move():
    # the queen without its rook moves is the bishop, whose q = 3
    # arrangement has 36 regions rather than the queen's 216
    assert region_count(rider_arrangement("1,1;1,-1", 3)) == 36
