"""Seeded simulation and search outputs, pinned value for value.

Thread invariance alone would not notice a change in the order the walks
consume their random streams; these exact figures do.
"""

import hashlib

import numpy as np
import pytest

import pairlaw.shoes as shoes
from pairlaw import (ExcessTruncation, RngSeed, ShoePair, m2_simulate,
                     shoes_m2_simulate, simplex_search, validate,
                     witness_family)

TRIPLE = validate([0.5, 0.3, 0.2])
SIX = validate([0.3, 0.25, 0.2, 0.1, 0.1, 0.05])
RAMP = validate([(i + 1) / 820 for i in range(40)])
ASYM = ShoePair(validate([0.6, 0.3, 0.1]), validate([0.2, 0.2, 0.6]))
RAMP600 = validate([(i + 1) / 180_300 for i in range(600)])


def _counts(report):
    return [round(q * report.trials) for q in report.estimated_probs]


def _digest(report):
    """sha256 of the little-endian int64 counts: pins every count of a
    source too wide to list."""
    counts = np.array(_counts(report), dtype="<i8")
    return hashlib.sha256(counts.tobytes()).hexdigest()


def test_socks_run_spanning_two_blocks():
    # 81,920 trials: one full 65,536-trial block and a partial one
    r = m2_simulate(TRIPLE, 81_920, RngSeed(11), threads=1)
    assert r.estimated_probs == (0.588623046875, 0.26986083984375,
                                 0.14151611328125)
    assert (r.trials, r.truncated) == (81_920, 0)


def test_socks_runs_on_two_threads():
    r = m2_simulate(SIX, 150_000, RngSeed(12), threads=2)
    assert r.estimated_probs == (0.37631333333333333, 0.2853266666666667,
                                 0.19494, 0.06246, 0.0634, 0.01756)
    assert (r.trials, r.truncated) == (150_000, 0)
    r = m2_simulate(RAMP, 70_000, RngSeed(17), threads=2)
    assert _counts(r) == [
        2, 18, 38, 67, 125, 171, 194, 229, 334, 359, 418, 501, 592, 711,
        759, 908, 953, 1045, 1220, 1414, 1461, 1652, 1693, 1872, 2084, 2181,
        2349, 2490, 2657, 2877, 3032, 3185, 3375, 3469, 3758, 3996, 4159,
        4358, 4618, 4676]
    assert (r.trials, r.truncated) == (70_000, 0)


def test_socks_single_trial_on_one_color():
    r = m2_simulate(validate([1.0]), 1, RngSeed(3))
    assert (r.estimated_probs, r.trials, r.truncated) == ((1.0,), 1, 0)


def test_shoes_run_spanning_two_blocks():
    r = shoes_m2_simulate(ASYM, 114_688, RngSeed(13), threads=1)
    assert r.estimated_probs == (0.43996756417410715, 0.32747105189732145,
                                 0.23256138392857142)
    assert (r.trials, r.truncated) == (114_688, 0)


def test_shoes_runs_on_two_threads():
    r = shoes_m2_simulate(ASYM, 150_000, RngSeed(14), threads=2)
    assert r.estimated_probs == (0.4397, 0.3288466666666667,
                                 0.23145333333333334)
    assert (r.trials, r.truncated) == (150_000, 0)


def test_shoes_truncation_count_at_a_short_horizon(monkeypatch):
    monkeypatch.setattr(shoes, "_walk_horizon", lambda sp, trials: 3)
    with pytest.raises(ExcessTruncation,
                       match="^6229 of 10000 walks ran past 3 steps$"):
        shoes_m2_simulate(ASYM, 10_000, RngSeed(16))


def test_witness_family_run():
    r = shoes_m2_simulate(witness_family(100), 70_000, RngSeed(15), threads=2)
    assert r.estimated_probs[0] == 0.37042857142857144
    assert _counts(r) == [
        25930, 420, 455, 415, 469, 450, 467, 431, 482, 465, 408, 455, 434,
        436, 430, 451, 430, 393, 490, 436, 419, 427, 444, 474, 464, 475, 447,
        425, 435, 462, 448, 416, 427, 436, 460, 425, 471, 441, 439, 461, 405,
        476, 409, 406, 414, 470, 422, 471, 402, 433, 473, 437, 476, 408, 464,
        417, 451, 456, 418, 432, 440, 449, 422, 431, 452, 454, 450, 449, 430,
        429, 436, 441, 434, 455, 433, 407, 449, 477, 488, 422, 417, 449, 451,
        456, 452, 460, 438, 432, 435, 404, 446, 420, 445, 453, 416, 454, 443,
        425, 435, 399, 439]
    assert (r.trials, r.truncated) == (70_000, 0)


# Above 512 colors _blocks shrinks the blocks below 65,536 rows to keep
# the two seen arrays near 64 MB, so the walks index wide, short blocks.

def test_socks_run_on_shrunk_blocks():
    # 600 colors: blocks of 55,924 and 14,076 walks
    r = m2_simulate(RAMP600, 70_000, RngSeed(22), threads=2)
    counts = _counts(r)
    assert counts[:10] == [0, 0, 0, 0, 0, 0, 0, 1, 0, 0]
    assert counts[-10:] == [344, 315, 345, 309, 344, 337, 359, 349, 350, 350]
    assert sum(c > 0 for c in counts) == 576
    assert _digest(r) == ("bc8fe2af4212fe3a65b4c69493ff4c66"
                          "e4c37c0a5d6c73a03294df78bc0fdc25")
    assert (r.trials, r.truncated) == (70_000, 0)


def test_witness_family_run_on_shrunk_blocks():
    # 10,001 colors: blocks of 3,355, 3,355 and 290 walks
    r = shoes_m2_simulate(witness_family(10**4), 7_000, RngSeed(21),
                          threads=1)
    counts = _counts(r)
    assert r.estimated_probs[0] == 0.18314285714285714
    assert (counts[0], sum(counts), sum(c > 0 for c in counts)) == \
        (1282, 7000, 4361)
    assert _digest(r) == ("4f983208bcd7cb558401d69f5071c64e"
                          "2da67d955efa86bae94baf850730e6d2")
    assert (r.trials, r.truncated) == (7_000, 0)


def test_witness_family_truncation_on_shrunk_blocks(monkeypatch):
    monkeypatch.setattr(shoes, "_walk_horizon", lambda sp, trials: 300)
    with pytest.raises(ExcessTruncation,
                       match="^635 of 7000 walks ran past 300 steps$"):
        shoes_m2_simulate(witness_family(10**4), 7_000, RngSeed(21),
                          threads=1)


# Searches on the color-vector blocks (3 and 7 colors) and on the row
# blocks (12 colors): best point, value and family gap.

def test_search_on_three_colors():
    best, value, gap = simplex_search(3, 30_000, RngSeed(7), threads=1)
    assert best.probs == (0.5817186549434823, 0.21057964945282281,
                          0.20770169560369486)
    assert (value, gap) == (0.08429053169951382, 0.0014389769245639755)


def test_search_on_seven_colors():
    best, value, gap = simplex_search(7, 20_000, RngSeed(3), threads=2)
    assert best.probs == (0.42143545807466215, 0.11304201351901749,
                          0.10239674034855972, 0.10114851767269738,
                          0.08914282716074087, 0.08803253377765836,
                          0.08480190944666384)
    assert (value, gap) == (0.1173957440969314, 0.027305000577605758)


def test_search_on_twelve_colors():
    best, value, gap = simplex_search(12, 5_000, RngSeed(5), threads=1)
    assert best.probs == (0.35445894348095763, 0.08975730774104052,
                          0.08773435197581027, 0.07443353331890841,
                          0.07345488711599199, 0.06612291504980645,
                          0.05980084821366268, 0.05763978118687448,
                          0.055242904984405296, 0.038167776358863995,
                          0.03747365036094197, 0.0057131002127362865)
    assert (value, gap) == (0.1273795523602848, 0.09919053985937903)
