import bisect
import copy
import functools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opnlab import primes, screener
from opnlab.abundancy import truncated_product
from opnlab.constants import threshold_enclosure
from opnlab.errors import InvalidArgument, ResourceLimit
from opnlab.primes import Factorization, factorize, primes_window
from opnlab.screener import (
    Condition,
    Mode,
    Outcome,
    euler_form_check,
    full_screen,
    perfect_check,
    radical_screen,
)
from oracles import oracle_side


def alpha1_oracle(ps):
    value = Fraction(1)
    for p in ps:
        value *= 1 + Fraction(1, p)
    return value


def alpha2_oracle(ps, special=None):
    value = Fraction(1)
    for p in ps:
        if p == special:
            value *= 1 + Fraction(1, p)
        else:
            value *= 1 + Fraction(1, p) + Fraction(1, p * p)
    return value


def test_euler_form_check_examples():
    ok = euler_form_check(Factorization(((3, 2), (7, 2), (11, 2), (13, 1))))
    assert ok.outcome is Outcome.CONSISTENT_SO_FAR

    bad_exponent = euler_form_check(Factorization(((3, 2), (5, 3), (7, 2))))
    assert bad_exponent.violated_condition is Condition.EULERIAN_FORM

    even = euler_form_check(Factorization(((2, 1), (3, 2))))
    assert even.violated_condition is Condition.NOT_ODD

    unit = euler_form_check(Factorization(()))
    assert unit.violated_condition is Condition.EULERIAN_FORM

    two_specials = euler_form_check(Factorization(((5, 1), (13, 1))))
    assert two_specials.violated_condition is Condition.EULERIAN_FORM

    bad_prime = euler_form_check(Factorization(((3, 1), (7, 2))))  # 3 = 3 mod 4
    assert bad_prime.violated_condition is Condition.EULERIAN_FORM


def _eulerian_by_definition(n: int) -> bool:
    """Whether n = p^b * m^2 for a prime p not dividing m, with p and b both
    1 mod 4: the odd prime factors of n by trial division, then one square
    test per candidate p."""
    if n % 2 == 0:
        return False
    prime_factors, rest, d = [], n, 3
    while rest > 1:
        if d * d > rest:
            d = rest
        if rest % d == 0:
            prime_factors.append(d)
            while rest % d == 0:
                rest //= d
        d += 2
    for p in prime_factors:
        b = 0
        while n % p ** (b + 1) == 0:
            b += 1
        m_squared = n // p**b
        if p % 4 == 1 and b % 4 == 1 and math.isqrt(m_squared) ** 2 == m_squared:
            return True
    return False


@example(f=Factorization(((3, 2), (7, 2), (11, 2), (13, 1))))
@example(f=Factorization(((5, 1), (13, 1))))
@example(f=Factorization(((3, 2), (5, 9))))
@settings(max_examples=300, deadline=None)
@given(
    f=st.dictionaries(
        st.sampled_from(primes_window(1, 12)), st.integers(1, 9), max_size=4
    ).map(lambda d: Factorization.from_pairs(d.items()))
)
def test_euler_form_check_matches_the_definition(f):
    v = euler_form_check(f)
    if f.n % 2 == 0:
        assert v.violated_condition is Condition.NOT_ODD
    elif _eulerian_by_definition(f.n):
        assert v.outcome is Outcome.CONSISTENT_SO_FAR
    else:
        assert v.violated_condition is Condition.EULERIAN_FORM


def test_perfect_check_examples():
    assert perfect_check(factorize(28)).outcome is Outcome.CONSISTENT_SO_FAR
    v = perfect_check(factorize(945))
    assert v.violated_condition is Condition.NOT_PERFECT
    assert v.witness == Fraction(128, 63)
    unit = perfect_check(Factorization(()))
    assert unit.violated_condition is Condition.NOT_PERFECT
    assert unit.witness == Fraction(1)


def test_radical_screen_validation():
    with pytest.raises(InvalidArgument):
        radical_screen([2, 3, 5])
    with pytest.raises(InvalidArgument):
        radical_screen([3, 9])
    with pytest.raises(InvalidArgument):
        radical_screen([3, 3, 5])


_LONG = 3**10_000  # 4772 digits, past Python's default int-to-str limit
_LONG_TEXT = f"{_LONG // 10**4672}... (4772 digits)"


@pytest.mark.parametrize(
    "members, mode, message",
    [
        ([3, _LONG, 5, _LONG], Mode.AUTO, f"duplicate prime {_LONG_TEXT}"),
        ([3, _LONG, 5], Mode.AUTO, f"{_LONG_TEXT} is not prime"),
        ([3, -_LONG, 5], Mode.AUTO, f"-{_LONG_TEXT} is not prime"),
        ([3, 5, 7], 10**5000, f"unknown screening mode: {10**99}... (5001 digits)"),
        ([3, 5, 7], "x" * 300, f"unknown screening mode: '{'x' * 100}'... (300 characters)"),
    ],
    ids=["duplicate", "composite", "negative", "huge_int_mode", "long_string_mode"],
)
def test_a_prime_set_error_quotes_a_long_integer_by_its_head(members, mode, message):
    with pytest.raises(InvalidArgument) as info:
        radical_screen(members, mode)
    assert str(info.value) == message
    assert len(message) < 250 and "\n" not in message


def test_radical_screen_rejects_non_integral_primes():
    # 3.9 was once truncated to 3 and screened as such
    with pytest.raises(InvalidArgument):
        radical_screen([3.9, 5, 7, 11, 13, 17, 19, 23, 29])
    with pytest.raises(InvalidArgument):
        radical_screen([Fraction(7), 11], Mode.ALPHA1)


def test_triple_357_is_excluded_in_combined_mode():
    v = radical_screen([3, 5, 7], Mode.ALPHA2_CASE1)
    assert v.violates
    assert v.violated_condition is Condition.TRIPLE_EXCLUSION_357
    cases = dict(v.case_witnesses)
    assert cases["case2"] == alpha2_oracle([3, 5, 7]) == Fraction(22971, 11025)
    assert cases["case1[q=5]"] == alpha2_oracle([3, 5, 7], special=5) == Fraction(4446, 2205)
    assert set(cases) == {"case2", "case1[q=5]"}  # 5 is the only prime = 1 mod 4
    assert cases["case2"] > 2 and cases["case1[q=5]"] > 2
    assert v.witness == cases["case2"]


def test_alpha1_mode_alone_cannot_exclude_357():
    v = radical_screen([3, 5, 7], Mode.ALPHA1)
    assert v.outcome is Outcome.CONSISTENT_SO_FAR
    assert alpha1_oracle([3, 5, 7]) == Fraction(64, 35)  # inside the band


def test_auto_gate_on_distinct_prime_count():
    v = radical_screen([3, 5], Mode.AUTO)
    assert v.violated_condition is Condition.TOO_FEW_PRIME_FACTORS
    assert v.witness is None
    assert radical_screen([], Mode.AUTO).violated_condition is Condition.TOO_FEW_PRIME_FACTORS


def test_nine_prime_alpha1_verdict_matches_oracle():
    ps = [3, 5, 13, 17, 19, 23, 29, 31, 37]
    value = alpha1_oracle(ps)
    v = radical_screen(ps, Mode.ALPHA1)
    if value >= 2:
        assert v.violated_condition is Condition.ALPHA1_UPPER_BOUND
        assert v.witness == value
    else:
        t = threshold_enclosure(1, Fraction(1, 10**12))
        if value < t.lo:
            assert v.violated_condition is Condition.ALPHA1_LOWER_BOUND
        else:
            assert v.outcome is Outcome.CONSISTENT_SO_FAR


def test_alpha1_side_consistency():
    low = radical_screen([101, 103], Mode.ALPHA1)
    assert low.violated_condition is Condition.ALPHA1_LOWER_BOUND
    t = threshold_enclosure(1, Fraction(1, 10**9))
    assert low.witness < t.lo

    high = radical_screen([3, 5, 7, 11, 13], Mode.ALPHA1)
    assert high.violated_condition is Condition.ALPHA1_UPPER_BOUND
    assert high.witness > 2


def test_combined_alpha2_below_band():
    # large primes only: every case product collapses toward 1
    ps = [101, 103, 107, 109]
    v = radical_screen(ps, Mode.ALPHA2_CASE1)
    assert v.violates
    assert v.violated_condition is Condition.ALPHA2_CASE1
    assert v.witness == alpha2_oracle(ps)
    assert all(value < Fraction(3, 2) for _, value in v.case_witnesses)


def test_combined_alpha2_spares_sets_with_a_surviving_special_prime():
    # case 2 fails above 2, but q = 5 pulls the product back inside the
    # band, so the b = 1 branch stays open and no refutation is possible
    ps = [3, 5, 13, 17]
    case2 = alpha2_oracle(ps)
    case1_via_5 = alpha2_oracle(ps, special=5)
    assert case2 > 2
    assert Fraction("1.902") < case1_via_5 < 2
    v = radical_screen(ps, Mode.ALPHA2_CASE1)
    assert v.outcome is Outcome.CONSISTENT_SO_FAR


def test_combined_alpha2_spares_sets_passing_case2():
    # case 2 lands inside the band, so the all-even branch survives on its own
    ps = [3, 5, 17]
    case2 = alpha2_oracle(ps)
    assert Fraction("1.9016") < case2 < 2
    v = radical_screen(ps, Mode.ALPHA2_CASE1)
    assert v.outcome is Outcome.CONSISTENT_SO_FAR


def test_radical_screen_ignores_input_order():
    ps = [3, 5, 13, 17, 19, 23, 29, 31, 37]
    baseline = radical_screen(ps, Mode.AUTO)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = ps[:]
        rng.shuffle(shuffled)
        assert radical_screen(shuffled, Mode.AUTO) == baseline
        assert radical_screen(tuple(shuffled), Mode.ALPHA1) == radical_screen(ps, Mode.ALPHA1)


def test_upper_bound_refutation_is_monotone():
    base = [3, 5, 7]
    value = alpha2_oracle(base)
    assert value > 2
    for extra in ([11], [11, 13], [11, 13, 17]):
        bigger = base + extra
        grown = alpha2_oracle(bigger)
        assert grown > value > 2
        assert radical_screen(bigger, Mode.ALPHA2_CASE1).violates


def test_full_screen_order_and_composition():
    v28 = full_screen(factorize(28))
    assert [x.violated_condition for x in v28] == [Condition.NOT_ODD, None, Condition.NOT_ODD]
    assert v28[1].outcome is Outcome.CONSISTENT_SO_FAR

    v945 = full_screen(factorize(945))
    assert [x.violated_condition for x in v945] == [
        Condition.EULERIAN_FORM,
        Condition.NOT_PERFECT,
        Condition.TOO_FEW_PRIME_FACTORS,
    ]

    v1 = full_screen(Factorization(()))
    assert [x.violated_condition for x in v1] == [
        Condition.EULERIAN_FORM,
        Condition.NOT_PERFECT,
        Condition.TOO_FEW_PRIME_FACTORS,
    ]


def test_full_screen_does_not_recertify_primes(monkeypatch):
    built = [
        factorize(945),
        factorize(2 * 3 * 5),
        Factorization.from_pairs([(p, 2) for p in (3, 5, 7, 11, 13, 17, 19, 23)] + [(29, 1)]),
    ]
    calls = []

    def counting(n, _real=primes.is_prime):
        calls.append(n)
        return _real(n)

    monkeypatch.setattr(primes, "is_prime", counting)
    for f in built:
        full_screen(f)
    assert calls == []
    with pytest.raises(InvalidArgument):
        radical_screen([3, 9])
    assert calls  # the public entry point still certifies its input


def test_full_screen_never_clears_small_odd_numbers():
    for n in range(1, 30002, 2):
        verdicts = full_screen(factorize(n))
        assert any(v.violates for v in verdicts), n


# the all-even case fails on the first set and its special prime 17
# survives, so the combined screen decides a swapped pair too
@pytest.mark.parametrize(
    "ps, mode",
    [
        ([3, 7, 17, 19, 47, 89, 97, 101, 113], Mode.AUTO),
        ([3, 7, 17, 19, 47, 89, 97, 101, 113], Mode.ALPHA1),
        ([3, 7, 17, 19, 47, 89, 97, 101, 113], Mode.ALPHA2_CASE1),
    ],
)
def test_consistent_radical_verdict_builds_no_fraction(monkeypatch, ps, mode):
    built = []

    def counting(*args, _real=Fraction):
        built.append(args)
        return _real(*args)

    monkeypatch.setattr(screener, "Fraction", counting)
    assert radical_screen(ps, mode).outcome is Outcome.CONSISTENT_SO_FAR
    assert built == []


def test_alpha2_screen_is_linear_in_the_set_size():
    ps = primes_window(2, 2000)
    start = time.perf_counter()
    v = radical_screen(ps, Mode.ALPHA2_CASE1)
    assert time.perf_counter() - start < 5
    assert v.violated_condition is Condition.TRIPLE_EXCLUSION_357
    assert sum(p % 4 == 1 for p in ps) == 987
    assert len(v.case_witnesses) == 988  # case 2 plus every q = 1 mod 4


_ODD_PRIMES = [p for p in range(3, 3000, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


def _fill_below_two(order, special):
    # keep each prime, in the drawn order, whose factor leaves the product
    # below 2, so the product lands just under 2, inside the alpha = 2 band;
    # with special, the first kept prime = 1 mod 4 takes the factor (q+1)/q
    # of the special-prime case, so that case survives while case 2 may not
    kept, value, q = set(), Fraction(1), None
    for p in order[:40]:
        is_q = special and q is None and p % 4 == 1
        factor = Fraction(p + 1, p) if is_q else Fraction(p * p + p + 1, p * p)
        if value * factor < 2:
            kept.add(p)
            value *= factor
            q = p if is_q else q
    return kept


_prime_sets = st.one_of(
    st.sets(st.sampled_from(_ODD_PRIMES), min_size=1, max_size=40),
    # the k smallest odd primes push the products up into and past the band
    st.builds(
        lambda k, rest: set(_ODD_PRIMES[:k]) | rest,
        st.integers(min_value=1, max_value=12),
        st.sets(st.sampled_from(_ODD_PRIMES), max_size=28),
    ),
    st.builds(_fill_below_two, st.permutations(_ODD_PRIMES[:60]), st.booleans()),
    # no admissible special prime: case 2 alone decides alpha = 2
    st.sets(st.sampled_from([p for p in _ODD_PRIMES if p % 4 == 3]), min_size=1, max_size=40),
    st.sets(st.sampled_from(_ODD_PRIMES), max_size=37).map(lambda s: s | {3, 5, 7}),
)


_STRUCTURAL = {Condition.NOT_ODD, Condition.EULERIAN_FORM, Condition.TOO_FEW_PRIME_FACTORS}
_ALPHA2 = {Condition.ALPHA2_CASE1, Condition.TRIPLE_EXCLUSION_357}

# a prime set with exponents from 1 to 5; with the prime 2 sometimes
_factorizations = st.builds(
    lambda ps, exponents: Factorization.from_pairs(zip(ps, exponents)),
    st.one_of(_prime_sets, st.sets(st.sampled_from([2, *_ODD_PRIMES[:30]]), max_size=6)),
    st.lists(st.integers(min_value=1, max_value=5), min_size=40, max_size=40),
)


@example(f=factorize(28), ps={3, 5, 13, 17}, mode=Mode.ALPHA2_CASE1)
@example(f=Factorization(((3, 2), (7, 2), (11, 2), (13, 1))), ps={3, 5, 7}, mode=Mode.AUTO)
@settings(max_examples=150, deadline=None)
@given(f=_factorizations, ps=_prime_sets, mode=st.sampled_from(list(Mode)))
def test_verdict_invariants(f, ps, mode):
    # every verdict the screens build names a condition exactly when it
    # violates, carries a witness exactly for a non-structural condition, and
    # case witnesses exactly for an alpha-2 refutation
    for v in [*full_screen(f), radical_screen(ps, mode)]:
        assert isinstance(v.outcome, Outcome)
        assert v.violates == (v.violated_condition is not None)
        assert (v.witness is not None) == (v.violates and v.violated_condition not in _STRUCTURAL)
        assert (v.case_witnesses is not None) == (v.violated_condition in _ALPHA2)


def _naive_outside(value, alpha):
    return value >= 2 or oracle_side(value, alpha)


def _naive_verdict(ps, mode):
    """(violated_condition, witness, case_witnesses) from per-case products."""
    if mode is Mode.AUTO:
        if len(ps) < 9:
            return Condition.TOO_FEW_PRIME_FACTORS, None, None
        verdict = _naive_verdict(ps, Mode.ALPHA1)
        return verdict if verdict[0] else _naive_verdict(ps, Mode.ALPHA2_CASE1)
    if mode is Mode.ALPHA1:
        value = alpha1_oracle(ps)
        if value >= 2:
            return Condition.ALPHA1_UPPER_BOUND, value, None
        if _naive_outside(value, 1):
            return Condition.ALPHA1_LOWER_BOUND, value, None
        return None, None, None
    case2 = alpha2_oracle(ps)
    cases = [("case2", case2)]
    cases += [(f"case1[q={q}]", alpha2_oracle(ps, special=q)) for q in ps if q % 4 == 1]
    if not all(_naive_outside(value, 2) for _, value in cases):
        return None, None, None
    triple = {3, 5, 7} <= set(ps)
    condition = Condition.TRIPLE_EXCLUSION_357 if triple else Condition.ALPHA2_CASE1
    return condition, case2, tuple(cases)


# one set per way the combined alpha = 2 screen ends: case 2 below the
# threshold with specials present; every case at or above 2; the smallest
# special's case below 2, so it survives while larger specials' cases lie
# above 2; case 2 at or above 2 with no special prime at all; case 2 with
# no special prime between 16/pi^2 and 16/(7 zeta(3)), which only the
# alpha = 2 threshold refutes
@example(ps={3, 7, 11}, mode=Mode.ALPHA2_CASE1)
@example(ps={101, 103, 107, 109, 113}, mode=Mode.ALPHA2_CASE1)
@example(ps={3, 5, 11, 13, 17, 19, 23, 29}, mode=Mode.ALPHA2_CASE1)
@example(ps={3, 5, 13, 17}, mode=Mode.ALPHA2_CASE1)
@example(ps={3, 7, 11, 19, 23}, mode=Mode.ALPHA2_CASE1)
@settings(max_examples=150, deadline=None)
@given(ps=_prime_sets, mode=st.sampled_from(list(Mode)))
def test_every_mode_matches_naive_case_products(ps, mode):
    ps = sorted(ps)
    expected = _naive_verdict(ps, mode)
    v = radical_screen(ps, mode)
    assert (v.violated_condition, v.witness, v.case_witnesses) == expected
    assert v.violates == (expected[0] is not None)


_SPECIALS = [p for p in _ODD_PRIMES if p % 4 == 1]


# sets refuted at alpha = 2 with many special primes: with 3, 5 and 7
# every case lies at or above 2, and sets of specials above 100 put case 2
# below the threshold
@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.sets(st.sampled_from(_SPECIALS), min_size=5, max_size=60).map(lambda s: s | {3, 5, 7}),
        st.sets(st.sampled_from([q for q in _SPECIALS if q > 100]), min_size=5, max_size=40),
    )
)
def test_each_special_prime_witness_is_the_reduced_case_product(ps):
    v = radical_screen(ps, Mode.ALPHA2_CASE1)
    assert v.violates
    (label, case2), *specials = v.case_witnesses
    assert label == "case2" and len(specials) == sum(p % 4 == 1 for p in ps) >= 5
    for label, witness in specials:
        q = int(label.removeprefix("case1[q=").removesuffix("]"))
        expected = case2 * Fraction(q * (q + 1), q * q + q + 1)
        parts = (witness.numerator, witness.denominator)
        assert parts == (expected.numerator, expected.denominator)
        assert math.gcd(*parts) == 1 and parts[1] > 0
        assert hash(witness) == hash(expected)
        twins = (pickle.loads(pickle.dumps(witness)), copy.copy(witness), copy.deepcopy(witness))
        for twin in twins:
            assert twin == witness and (twin.numerator, twin.denominator) == parts


def test_no_special_case_is_below_the_threshold_once_case_2_reaches_2():
    # case 1 is case 2 times q(q+1)/(q^2+q+1) >= 30/31, so with case 2 at or
    # above 2 it is at least 60/31; a case 1 below 2 therefore always survives,
    # and a mixed set whose largest case below 2 is refuted cannot exist
    assert not oracle_side(Fraction(60, 31), 2)
    ps = [3, 5, 13, 17]
    assert alpha2_oracle(ps) >= 2 > alpha2_oracle(ps, special=5) >= Fraction(60, 31)


_RADICAL_LIMIT = 2 * 10**6


@functools.cache
def _odd_primes_below_limit():
    flags = bytearray([1]) * _RADICAL_LIMIT
    flags[0:3] = b"\x00\x00\x00"  # 2 is left out with 0 and 1
    for p in range(2, math.isqrt(_RADICAL_LIMIT) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return [n for n in range(3, _RADICAL_LIMIT, 2) if flags[n]]


def _log_uniform_prime(u):
    # the largest odd prime <= 3 * (limit / 3)^u, as the radical benchmark
    # draws its sets; u runs over [0, 1] in steps of 1e-6
    odd_primes = _odd_primes_below_limit()
    x = 3 * (_RADICAL_LIMIT / 3) ** (u / 10**6)
    return odd_primes[bisect.bisect_right(odd_primes, x) - 1]


@functools.cache
def _grown_sieve():
    sieve = primes._Sieve()
    sieve.ensure_count(148_933)  # every prime below _RADICAL_LIMIT
    return sieve


def _screen_on(sieve, ps):
    saved = primes._default_sieve
    primes._default_sieve = sieve
    try:
        return radical_screen(ps, Mode.AUTO)
    finally:
        primes._default_sieve = saved


@settings(max_examples=150, deadline=None)
@given(
    st.sets(
        st.integers(0, 10**6).map(_log_uniform_prime),
        min_size=9,
        max_size=40,
    )
)
def test_radical_verdict_does_not_depend_on_how_its_primes_were_proven(ps):
    # is_prime never reads the sieve: on a fresh sieve and on one grown
    # past every member, each prime above 2048 is proven by the gcd alike
    fresh = primes._Sieve()
    on_fresh = _screen_on(fresh, ps)
    assert fresh.limit == 2048
    # equal outcome, condition, witness and case witnesses
    assert on_fresh == _screen_on(_grown_sieve(), ps)


# primes from 2049^2 = 4,198,401 on, which only the Miller-Rabin ladder proves
_LADDER_PRIMES = (4198409, 2**23 - 15, 2**31 - 1, 10**12 + 39, 2**61 - 1, 2**64 - 59)
# non-primes for each tier: 0, 1 and 9 by the set lookup; 2029 * 2039 and
# 2049^2 by the gcd; 2053 * 2063, psi_3 = 2251 * 11251, psi_5 = 6763 * 10627
# * 29947 and 1000003 * 1000033, whose factors all pass 2048, by the ladder
_NON_PRIMES = (
    0,
    1,
    9,
    2029 * 2039,
    2049**2,
    2053 * 2063,
    25326001,
    2152302898747,
    1000003 * 1000033,
)
_SET_SCREENS = (
    lambda ps: radical_screen(ps, Mode.ALPHA2_CASE1),
    lambda ps: truncated_product(ps, 2),
)


@settings(max_examples=200, deadline=None)
@given(
    ps=st.sets(
        st.one_of(
            st.sampled_from(_ODD_PRIMES[:308]),  # the odd primes up to 2048
            st.integers(0, 10**6).map(_log_uniform_prime),  # 3 .. 2e6, lookup and gcd
            st.sampled_from(_LADDER_PRIMES),
        ),
        max_size=30,
    ),
    bad=st.sets(st.sampled_from(_NON_PRIMES), max_size=3),
)
def test_a_prime_set_names_its_smallest_non_prime(ps, bad):
    members = list(ps | bad)
    ordered = tuple(sorted(members))
    per_member = next((p for p in ordered if not primes.is_prime(p)), None)
    assert per_member == (min(bad) if bad else None)
    assert primes._first_nonprime(ordered) == per_member
    for screen in _SET_SCREENS:
        if bad:
            with pytest.raises(InvalidArgument, match=f"^{min(bad)} is not prime$"):
                screen(members)
        else:
            screen(members)


_M89 = 2**89 - 1  # a prime past psi_13, which no tier can prove


@pytest.mark.parametrize(
    "members, error, match",
    [
        # the smaller composite is named before the prime past psi_13
        ((3, 1000003 * 1000033, _M89), InvalidArgument, f"^{1000003 * 1000033} is not prime$"),
        ((3, 9, 5, _M89), InvalidArgument, "^9 is not prime$"),
        # past psi_13 the prime is reached first, even when the gcd of the
        # set fails on a larger member
        ((3, 5, _M89), ResourceLimit, "psi_13"),
        ((3, _M89, 3 * _M89), ResourceLimit, "psi_13"),
        ((3, _M89, (2**61 - 1) * (2**31 - 1)), ResourceLimit, "psi_13"),
    ],
)
def test_a_prime_past_psi_13_is_reached_in_member_order(members, error, match):
    for screen in _SET_SCREENS:
        with pytest.raises(error, match=match):
            screen(list(reversed(members)))


def test_a_prime_set_is_proven_without_testing_members_one_by_one(monkeypatch):
    calls = []

    def counting(n, _real=primes.is_prime):
        calls.append(n)
        return _real(n)

    monkeypatch.setattr(primes, "is_prime", counting)
    radical_screen([3, 5, 2053, 2063, *_LADDER_PRIMES])
    assert calls == []
    # a ladder failure names its member itself
    with pytest.raises(InvalidArgument, match="^4235339 is not prime$"):
        radical_screen([3, 5, 2053 * 2063, *_LADDER_PRIMES])
    assert calls == []
    # a failed gcd falls back to one member at a time
    with pytest.raises(InvalidArgument, match="^4137131 is not prime$"):
        radical_screen([3, 5, 2029 * 2039, *_LADDER_PRIMES])
    assert calls


@pytest.mark.parametrize(
    "members, error, match, tested",
    [
        # the ladder stops at its first failure, in ascending order
        ((3, 5, 2053 * 2063, *_LADDER_PRIMES), InvalidArgument, "^4235339 ", [4198409, 4235339]),
        ((3, 5, 2053**600), InvalidArgument, r"\(1988 digits\) is not prime$", [2053**600]),
        ((3, 5, _M89, (2**61 - 1) * (2**31 - 1)), ResourceLimit, "psi_13", [_M89]),
        # a failed gcd leaves the ladder to is_prime, member by member
        ((3, 2029 * 2039, 2053 * 2063, _M89), InvalidArgument, "^4137131 ", []),
        ((3, 4198409, _M89, 3 * _M89), ResourceLimit, "psi_13", [4198409, _M89]),
    ],
)
def test_a_prime_set_runs_no_member_through_the_ladder_twice(
    monkeypatch, members, error, match, tested
):
    calls = []

    def counting(n, _real=primes._miller_rabin):
        calls.append(n)
        return _real(n)

    monkeypatch.setattr(primes, "_miller_rabin", counting)
    with pytest.raises(error, match=match):
        radical_screen(members)
    assert calls == tested
