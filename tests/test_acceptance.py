"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from opnlab.abundancy import sigma_minus_one
from opnlab.bound_tables import find_I, generate_table, rho, rho_limit
from opnlab.constants import threshold_enclosure
from opnlab.errors import InvalidArgument
from opnlab.primes import Factorization, factorize, nth_prime, primes_window
from opnlab.screener import Condition, Mode, full_screen, radical_screen
from oracles import geometric_split, oracle_side

GOLDEN = Path(__file__).parent / "golden" / "table_m9_m20_alpha1.csv"

REFERENCE_TABLE = {
    9: (11, 31, 509),
    10: (11, 31, 593),
    11: (11, 37, 659),
    12: (13, 41, 739),
    13: (13, 43, 811),
    14: (13, 43, 881),
    15: (13, 47, 947),
    16: (13, 53, 1031),
    17: (17, 53, 1093),
    18: (17, 59, 1171),
    19: (17, 61, 1237),
    20: (17, 61, 1301),
}


def _pass(num, label):
    print(f"[acceptance] criterion {num} ({label}): PASS")


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    rows = generate_table(9, 20, 1)
    elapsed = time.monotonic() - t0
    assert len(rows) == 12
    for row in rows:
        assert (row.p_I1, row.p_I2, row.p_I3) == REFERENCE_TABLE[row.m]
    assert elapsed < 10.0
    _pass(1, f"table reproduction, {elapsed:.2f}s")


def test_criterion_2_threshold_constants():
    t0 = time.monotonic()
    width = Fraction(1, 10**9)
    t1 = threshold_enclosure(1, width)
    t2 = threshold_enclosure(2, width)
    elapsed = time.monotonic() - t0
    assert t1.contains(Fraction("1.621138938"))
    assert t2.contains(Fraction("1.901502566"))
    assert t1.width() <= Fraction(1, 10**9)
    assert t2.width() <= Fraction(1, 10**9)
    assert elapsed < 1.0
    _pass(2, f"threshold constants, {elapsed:.3f}s")


def test_criterion_3_perfect_number_identity():
    for n in (6, 28, 496, 8128):
        assert sigma_minus_one(factorize(n)) == Fraction(2)
    _pass(3, "reciprocal-divisor sum is exactly 2 on perfect numbers")


def test_criterion_4_triple_357_exclusion():
    # independent brute-force oracles for both case products
    case2_oracle = Fraction(1)
    for p in (3, 5, 7):
        case2_oracle *= sum(Fraction(1, p**i) for i in range(3))
    case1_oracle = (1 + Fraction(1, 5)) * (
        sum(Fraction(1, 3**i) for i in range(3)) * sum(Fraction(1, 7**i) for i in range(3))
    )

    verdict = radical_screen([3, 5, 7], Mode.ALPHA2_CASE1)
    assert verdict.violates
    assert verdict.violated_condition is Condition.TRIPLE_EXCLUSION_357
    cases = dict(verdict.case_witnesses)
    assert set(cases) == {"case2", "case1[q=5]"}  # q = 5 is the sole admissible prime

    assert cases["case2"] == case2_oracle == Fraction(22971, 11025)
    assert cases["case2"] > 2
    assert cases["case1[q=5]"] == case1_oracle == Fraction(4446, 2205)
    assert cases["case1[q=5]"] > 2
    _pass(4, "3*5*7 exclusion with exact case witnesses")


def test_criterion_5_geometric_split_grid():
    for p in primes_window(1, 20):
        for h in range(13):
            for alpha in range(1, 5):
                assert geometric_split(p, h, alpha), (p, h, alpha)
    _pass(5, "geometric split identity on the full grid")


def test_criterion_6_monotonicity_and_search_oracle():
    t0 = time.monotonic()
    prefixes = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(8, 5)}
    for k in (1, 2, 3):
        for m in range(9, 31):
            # oracle: plain linear scan over directly-computed window products
            r = 2
            previous = None
            while True:
                value = prefixes[k]
                for p in primes_window(r, m - k + 1):
                    value *= 1 + Fraction(1, p)
                if previous is not None:
                    assert value < previous, "window product must strictly decrease"
                previous = value
                if oracle_side(value, 1):
                    break
                r += 1
            assert find_I(k, m) == r

            assert oracle_side(rho(k, m, r), 1)
            assert not oracle_side(rho(k, m, r - 1), 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0

    # large-m spot check: the same linear scan at m = 60
    for k in (1, 2, 3):
        r = 2
        while True:
            value = prefixes[k]
            for p in primes_window(r, 60 - k + 1):
                value *= 1 + Fraction(1, p)
            if oracle_side(value, 1):
                break
            r += 1
        assert find_I(k, 60) == r
    _pass(6, f"monotone windows and scan-oracle equivalence, {elapsed:.1f}s")


def test_criterion_7_k4_limitation():
    prefix = Fraction(4, 3) * Fraction(6, 5) * Fraction(8, 7)
    assert prefix == Fraction(64, 35)
    assert not oracle_side(prefix, 1)
    try:
        find_I(4, 20)
    except InvalidArgument:
        pass
    else:
        raise AssertionError("k=4 must be rejected")
    _pass(7, "fourth-factor prefix exceeds the threshold and is rejected")


def test_criterion_8_exhaustive_small_odd_sweep():
    t0 = time.monotonic()
    limit = 10**6
    nth_prime(78498)  # pre-grow the shared sieve past the sweep range

    spf = list(range(limit + 1))  # smallest-prime-factor table, built independently
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for multiple in range(p * p, limit + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p

    survivors = []
    for n in range(1, limit + 1, 2):
        pairs = []
        m = n
        while m > 1:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        verdicts = full_screen(Factorization(tuple(pairs)))
        if not any(v.violates for v in verdicts):
            survivors.append(n)
    elapsed = time.monotonic() - t0
    assert survivors == []
    assert elapsed < 120.0
    _pass(8, f"no odd n <= 10^6 survives all checks, {elapsed:.1f}s")


def test_criterion_9_cli_golden_table():
    proc = subprocess.run(
        [sys.executable, "-m", "opnlab.cli", "table", "--m-min", "9", "--m-max", "20",
         "--format", "csv"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN.read_bytes()
    _pass(9, "CLI csv output is byte-identical to the golden table")
