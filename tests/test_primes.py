import functools
import math
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnlab import primes
from opnlab.errors import InvalidArgument, ResourceLimit
from opnlab.primes import (
    _MR_PSI,
    _MR_WITNESSES,
    DEFAULT_PRIME_CAP,
    Factorization,
    _miller_rabin,
    _Sieve,
    factorize,
    is_prime,
    nth_prime,
    primes_window,
    set_prime_cap,
)


def sieve_flags(limit):
    """Independent trial oracle: plain sieve of Eratosthenes bit flags."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return flags


def trial_factorize(n):
    pairs = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            pairs.append((d, e))
        d += 1
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def test_nth_prime_examples():
    assert nth_prime(1) == 2
    assert nth_prime(5) == 11
    # hand-extended list: 2,3,5,7,11,13,17,19,23,29,31
    assert nth_prime(11) == 31


def test_nth_prime_rejects_bad_index():
    with pytest.raises(InvalidArgument):
        nth_prime(0)


_HUGE = 10**5000  # 5001 digits, past Python's default int-to-str limit
_HUGE_TEXT = "1" + "0" * 99 + "... (5001 digits)"
_MERSENNE_2203 = 2**2203 - 1  # a prime of 664 digits, past psi_13


def _at_digit_limit(limit, call):
    """call() with the interpreter's int-to-str digit limit at ``limit``."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return call()
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: nth_prime(2.5), InvalidArgument, "prime index must be an integer"),
        (lambda: primes_window(2.0, 3), InvalidArgument, "prime index must be an integer"),
        (lambda: primes_window(2, 3.5), InvalidArgument, "window count must be an integer"),
        (lambda: is_prime(1000003.0), InvalidArgument, "n must be an integer"),
        (lambda: is_prime(7.0), InvalidArgument, "n must be an integer"),
        (lambda: factorize(945.0), InvalidArgument, "n must be an integer"),
        (lambda: _Sieve(10.5), InvalidArgument, "prime cap must be an integer"),
        (
            lambda: nth_prime(-_HUGE),
            InvalidArgument,
            f"prime index must be an integer >= 1, got -{_HUGE_TEXT}",
        ),
        (
            lambda: primes_window(-_HUGE, 1),
            InvalidArgument,
            f"prime index must be an integer >= 1, got -{_HUGE_TEXT}",
        ),
        (
            lambda: primes_window(1, -_HUGE),
            InvalidArgument,
            f"window count must be an integer >= 0, got -{_HUGE_TEXT}",
        ),
        (
            lambda: factorize(-_HUGE),
            InvalidArgument,
            f"n must be an integer >= 1, got -{_HUGE_TEXT}",
        ),
        (
            lambda: set_prime_cap(-_HUGE),
            InvalidArgument,
            f"prime cap must be an integer >= 1, got -{_HUGE_TEXT}",
        ),
        (
            lambda: nth_prime(_HUGE),
            ResourceLimit,
            f"requested prime #{_HUGE_TEXT} exceeds the sieve cap of {DEFAULT_PRIME_CAP}",
        ),
        (
            lambda: primes_window(_HUGE, 1),
            ResourceLimit,
            f"requested prime #{_HUGE_TEXT} exceeds the sieve cap of {DEFAULT_PRIME_CAP}",
        ),
        (
            lambda: primes_window(1, _HUGE),
            ResourceLimit,
            f"requested prime #{_HUGE_TEXT} exceeds the sieve cap of {DEFAULT_PRIME_CAP}",
        ),
        (
            lambda: _at_digit_limit(640, lambda: is_prime(_MERSENNE_2203)),
            ResourceLimit,
            f"{str(_MERSENNE_2203)[:100]}... (664 digits) passes all 13 strong bases",
        ),
    ],
    ids=[
        "nth_prime",
        "window_start",
        "window_count",
        "is_prime_large",
        "is_prime_7",
        "factorize",
        "sieve_cap",
        "nth_prime_negative",
        "window_start_negative",
        "window_count_negative",
        "factorize_negative",
        "sieve_cap_negative",
        "nth_prime_past_cap",
        "window_start_past_cap",
        "window_count_past_cap",
        "is_prime_past_psi_13_and_the_digit_limit",
    ],
)
def test_float_indices_are_rejected_by_name(call, error, message):
    # a huge integer is quoted by its head and digit count: one short line
    with pytest.raises(error) as info:
        call()
    text = str(info.value)
    assert text.startswith(message)
    assert "\n" not in text and len(text) < 250


def test_primes_window_examples():
    assert primes_window(2, 3) == [3, 5, 7]
    assert primes_window(5, 9) == [11, 13, 17, 19, 23, 29, 31, 37, 41]
    assert primes_window(1, 0) == []
    with pytest.raises(InvalidArgument):
        primes_window(1, -1)


def test_nth_prime_strictly_increasing():
    ps = primes_window(1, 10_000)
    assert all(a < b for a, b in zip(ps, ps[1:]))


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=50))
def test_window_matches_indexed_stream(start, count):
    assert primes_window(start, count) == [nth_prime(start + i) for i in range(count)]


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(22021)  # 19^2 * 61
    assert is_prime(2**61 - 1)
    assert not is_prime(1000003 * 1000033)
    assert is_prime(18446744073709551557)  # largest prime below 2^64


@pytest.mark.parametrize(
    "n",
    [
        # psi_12 = 399165290221 * 798330580441, strong pseudoprime to bases 2..37
        318665857834031151167461,
        # psi_11 = 149491 * 747451 * 34233211, strong pseudoprime to bases 2..31
        3825123056546413051,
        # psi_1..psi_7 (psi_8 = psi_7; psi_9 = psi_10 = psi_11)
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def sprp(n, bases):
    """Independent strong probable-prime test of odd n > max(bases)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        if all(pow(x, 2**j, n) != n - 1 for j in range(1, s)):
            return False
    return True


FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_1..psi_13 with a factorization each (Jaeschke 1993; Sorenson and Webster 2017)
PSI_FACTORS = (
    (23, 89),
    (829, 1657),
    (2251, 11251),
    (151, 751, 28351),
    (6763, 10627, 29947),
    (1303, 16927, 157543),
    (10670053, 32010157),
    (10670053, 32010157),
    (149491, 747451, 34233211),
    (149491, 747451, 34233211),
    (149491, 747451, 34233211),
    (399165290221, 798330580441),
    (1287836182261, 2575672364521),
)
PSI = tuple(math.prod(fs) for fs in PSI_FACTORS)


def test_every_rung_of_the_witness_ladder():
    assert _MR_WITNESSES == FIRST_13_PRIMES
    assert _MR_PSI == PSI
    for k, psi in enumerate(PSI, start=1):
        # psi_k is composite yet fools the first k bases ...
        assert sprp(psi, FIRST_13_PRIMES[:k]), k
        if k < 13:
            # ... and fools base k + 1 too exactly when psi_(k+1) = psi_k
            assert sprp(psi, FIRST_13_PRIMES[: k + 1]) == (PSI[k] == psi), k
            # the ladder gives n = psi_k itself more bases than k
            assert not _miller_rabin(psi), k


def prime_by_13_bases(n):
    """Primality from the 13-base strong test alone: exact below psi_13."""
    if any(n % p == 0 for p in FIRST_13_PRIMES):
        return n in FIRST_13_PRIMES
    return n > 1 and sprp(n, FIRST_13_PRIMES)


def prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def log_uniform(lo, hi):
    """Integers in [lo, hi) whose bit length is drawn uniformly."""
    return st.integers(lo.bit_length(), (hi - 1).bit_length()).flatmap(
        lambda b: st.integers(max(lo, 1 << (b - 1)), min(hi, 1 << b) - 1)
    )


def near_psi(hi):
    """psi_k + 2j for small j, below hi."""
    rungs = st.sampled_from([psi for psi in PSI if psi < hi + 80])
    return st.builds(lambda psi, j: psi + 2 * j, rungs, st.integers(-40, 40)).filter(
        lambda n: n < hi
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_psi(PSI[-1]), log_uniform(2**11, PSI[-1])))
def test_is_prime_agrees_with_13_base_oracle(n):
    expected = prime_by_13_bases(n)
    assert is_prime(n) == expected
    # Miller-Rabin alone, without the sieve and the trial-division prelude
    assert _miller_rabin(n) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(near_psi(10**9), log_uniform(42, 10**9)))
def test_is_prime_agrees_with_trial_division_below_1e9(n):
    expected = prime_by_trial_division(n)
    assert is_prime(n) == expected
    assert _miller_rabin(n) == expected


def test_is_prime_agrees_with_sieve_oracle_exhaustively():
    limit = 10**6
    nth_prime(78498)  # grows the shared sieve past the oracle range
    flags = sieve_flags(limit)
    mismatches = [n for n in range(limit + 1) if is_prime(n) != bool(flags[n])]
    assert mismatches == []


GCD_BOUND = 2049**2  # every composite below it has a prime factor <= 2048


# a start prime p and the next prime p': a small p, whose p^2 and p p' take
# the lookup, the last prime below 1024, the last whose square lies below
# 2^21, and the largest start prime
_SIZED_GCD_PAIRS = ((31, 37), (1021, 1031), (1447, 1451), (2039, 2053))


@functools.cache
def _flags_below_the_gcd_bound():
    return sieve_flags(GCD_BOUND - 1)


def fresh_sieve_mismatches(ranges):
    """The n in ranges on which is_prime, over a fresh default sieve that
    stays at its start bound 2048 throughout, disagrees with sieve_flags."""
    flags = sieve_flags(max(r[-1] for r in ranges))
    set_prime_cap(DEFAULT_PRIME_CAP)
    try:
        assert primes._default_sieve.limit == 2048
        mismatches = [n for r in ranges for n in r if is_prime(n) != bool(flags[n])]
        assert primes._default_sieve.limit == 2048
    finally:
        set_prime_cap(DEFAULT_PRIME_CAP)
    return mismatches


def test_is_prime_agrees_with_sieve_oracle_on_a_fresh_sieve():
    # every n above 2048 takes the gcd tier: every n up to 1.06e6, and 10^5
    # on either side of 2048^2 and of the gcd bound 2049^2; CI's checks job
    # runs every n up to 2049^2 + 10^4
    ranges = (range(1_060_001), range(2048**2 - 10**5, GCD_BOUND + 10**5 + 1))
    assert fresh_sieve_mismatches(ranges) == []


@pytest.mark.parametrize(
    "n, expected",
    [
        # below the bound the gcd decides: 1021^2, 1025^2 and the primes on
        # either side of it, and 1031^2 and 1031 * 1033, which only the start
        # primes past 1024 divide
        (1021**2, False),
        (1025**2, False),
        (1050611, True),
        (1050631, True),
        (1031**2, False),
        (1031 * 1033, False),
        (2039**2, False),  # the square of the largest starting prime
        (GCD_BOUND, False),
        (4198379, True),  # the primes on either side of the bound
        (4198409, True),
        (2053**2, False),  # the least composites with no factor <= 2048
        (2053 * 2063, False),
        # with 1021^2 and 2039^2 above, p^2 and p times the next prime for
        # each of _SIZED_GCD_PAIRS: the gcd takes the start primes up to
        # isqrt(n), so p^2 must still meet p (31^2 and 31 * 37 lie below 2048
        # and take the lookup)
        (31**2, False),
        (31 * 37, False),
        (1021 * 1031, False),
        (1447**2, False),
        (1447 * 1451, False),
        (2039 * 2053, False),
    ],
)
def test_is_prime_across_the_gcd_bound_on_a_fresh_sieve(n, expected):
    set_prime_cap(DEFAULT_PRIME_CAP)
    try:
        assert primes._default_sieve.limit == 2048
        assert is_prime(n) is expected
        assert prime_by_trial_division(n) is expected
        if n < GCD_BOUND:
            assert bool(_flags_below_the_gcd_bound()[n]) is expected
        assert primes._default_sieve.limit == 2048
    finally:
        set_prime_cap(DEFAULT_PRIME_CAP)


@pytest.mark.parametrize(
    "n", [n for p, q in _SIZED_GCD_PAIRS for n in (p * p, p * q)], ids=lambda n: str(n)
)
def test_a_prime_set_sizes_its_gcd_to_its_largest_member(n):
    # the set's largest member sizes the product: n itself, then the prime
    # 4198379 just below the gcd bound, which takes every start prime
    flags = _flags_below_the_gcd_bound()
    assert not flags[n] and flags[4198379]
    assert primes._first_nonprime((3, n)) == n
    assert primes._first_nonprime((3, 5, n, 4198379)) == n
    assert primes._first_nonprime((3, 5, n - 2, 4198379)) == (None if flags[n - 2] else n - 2)


def test_strong_test_rejects_composites_past_psi_13():
    set_prime_cap(DEFAULT_PRIME_CAP)  # a fresh sieve at the default cap
    n = (2**61 - 1) * (2**31 - 1)
    assert n > PSI[-1] and math.gcd(n, math.prod(range(1, 2049))) == 1
    assert not is_prime(n)
    assert not is_prime(PSI[-1] * 2053)
    # psi_13 passes all 13 bases, and a prime passes them all too
    for n in (PSI[-1], 2**89 - 1, 2**107 - 1, 2**127 - 1):
        with pytest.raises(ResourceLimit, match="psi_13"):
            is_prime(n)
    assert len(primes._default_sieve.primes) == 309


@pytest.mark.parametrize("grown", [False, True], ids=["cap_1", "grown_past_1e6"])
def test_is_prime_does_not_depend_on_the_sieve(grown):
    set_prime_cap(DEFAULT_PRIME_CAP if grown else 1)
    if grown:
        nth_prime(78498)  # the last prime below 10^6
    sieve = primes._default_sieve
    state = sieve.limit, len(sieve.primes)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(near_psi(2**22), log_uniform(1, 2**22)))
    def agrees_with_trial_division(n):
        assert is_prime(n) == prime_by_trial_division(n)
        assert primes._default_sieve is sieve
        assert (sieve.limit, len(sieve.primes)) == state

    try:
        agrees_with_trial_division()
    finally:
        set_prime_cap(DEFAULT_PRIME_CAP)


def test_factorize_examples():
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(945).factors == ((3, 3), (5, 1), (7, 1))
    assert factorize(13).factors == ((13, 1),)
    assert factorize(1).factors == ()
    with pytest.raises(InvalidArgument):
        factorize(0)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_reconstructs_input(n):
    f = factorize(n)
    assert f.n == n
    assert f.factors == trial_factorize(n)


def _counting_is_prime(monkeypatch) -> list[int]:
    """Record the argument of every primes.is_prime call from here on."""
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(primes, "is_prime", counting)
    return calls


# each residual that division leaves is proven by is_prime once, and no
# prime that trial division found is proven again
@pytest.mark.parametrize(
    "n, residuals",
    [
        (9, []),
        (75, [25]),
        (945, [35, 7]),
        (7**2 * 11**2, [121]),
        (1031**2, []),
        (1031 * 1033, [1033]),
        (2 * 1000003, [1000003]),
    ],
)
def test_factorize_proves_each_prime_once(n, residuals, monkeypatch):
    calls = _counting_is_prime(monkeypatch)
    f = factorize(n)
    assert calls == residuals
    assert f.factors == trial_factorize(n)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10**9) | st.integers(41 * 10**5, 43 * 10**5))
def test_factorize_calls_is_prime_on_residuals_only(n):
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_is_prime(mp)
        f = factorize(n)
    assert len(calls) == len(set(calls))
    # a prime of n that is_prime saw is the last, with exponent 1: a residual
    assert all(f.factors[-1] == (p, 1) for p in calls if p in f.radical)


# the residual is the square of the next trial prime, so only p * p > residual,
# not >=, leaves it to be divided; the last two lie past the gcd bound 2049^2
@pytest.mark.parametrize(
    "n, factors",
    [
        (9, ((3, 2),)),
        (75, ((3, 1), (5, 2))),
        (7**2 * 11**2, ((7, 2), (11, 2))),
        (1031**2, ((1031, 2),)),
        (1031 * 1033, ((1031, 1), (1033, 1))),
        (2053**2, ((2053, 2),)),
        (2053 * 2063, ((2053, 1), (2063, 1))),
    ],
)
def test_factorize_divides_a_residual_that_is_a_prime_square(n, factors):
    f = factorize(n)
    assert f.factors == factors and f.n == n


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_builds_the_record_a_caller_would(n):
    f = factorize(n)
    g = Factorization(f.factors)  # validated
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g) and str(f) == str(g)
    assert f.n == g.n == n and type(f.n) is int
    assert pickle.loads(pickle.dumps(f)) == f


def test_factorization_validation():
    with pytest.raises(InvalidArgument):
        Factorization(((4, 1),))
    with pytest.raises(InvalidArgument):
        Factorization(((5, 1), (3, 1)))
    with pytest.raises(InvalidArgument):
        Factorization(((3, 0),))
    with pytest.raises(InvalidArgument):
        Factorization.from_pairs([(3, 1), (3, 2)])


@pytest.mark.parametrize(
    "factors, message",
    [
        (((0, 2),), "0 is not prime"),
        (((1, 5), (3, 1)), "1 is not prime"),
        (((-3, 1),), "-3 is not prime"),
        (((3, 1), (3, 2)), "duplicate prime 3"),
        (((5, 1), (3, 1)), "primes must be strictly increasing, got 3 after 5"),
    ],
)
def test_factorization_errors_name_the_fault(factors, message):
    with pytest.raises(InvalidArgument, match=f"^{message}$"):
        Factorization(factors)


_LONG = 3**10_000  # 4772 digits, past Python's default int-to-str limit
_LONG_TEXT = f"{_LONG // 10**4672}... (4772 digits)"


@pytest.mark.parametrize(
    "factors, message",
    [
        (((-_LONG, 1),), f"-{_LONG_TEXT} is not prime"),
        (((3, 1), (_LONG, 1)), f"{_LONG_TEXT} is not prime"),
        (((3, -_LONG),), f"exponent for 3 must be an integer >= 1, got -{_LONG_TEXT}"),
    ],
    ids=["negative", "composite", "exponent"],
)
def test_factorization_errors_quote_a_long_integer_by_its_head(factors, message):
    with pytest.raises(InvalidArgument) as info:
        Factorization(factors)
    assert str(info.value) == message


def test_factorization_rejects_non_integral_entries():
    # (7.9, 1), (11, 2.5) was once read as 7 * 11^2
    for factors in (((7.9, 1), (11, 2.5)), ((7, 1), (11, 2.5)), ((7.0, 1),)):
        with pytest.raises(InvalidArgument):
            Factorization(factors)
    with pytest.raises(InvalidArgument):
        Factorization.from_pairs([(11, 2), (7.9, 1)])


def test_factorization_helpers():
    f = Factorization.from_pairs([(7, 1), (3, 3), (5, 1)])
    assert f.factors == ((3, 3), (5, 1), (7, 1))
    assert f.n == 945
    assert f.radical == (3, 5, 7)
    assert str(f) == "3^3*5*7"
    assert str(Factorization(())) == "1"


def test_sieve_cap_is_enforced():
    sieve = _Sieve(cap=10)
    sieve.ensure_count(10)
    with pytest.raises(ResourceLimit):
        sieve.ensure_count(11)


@pytest.mark.parametrize(
    "counts",
    [(1,), (310,), (295_947,), (5_000, 82_100, 296_000)],
    ids=["start", "one_step", "to_2048_squared", "past_segments"],
)
def test_grown_sieve_holds_exactly_the_primes_up_to_its_limit(counts):
    # pi(2048^2) = 295,947, so 295,947 primes take one step capped at the
    # square of the start bound; of the last two growths one steps past 2^20
    # in two 2^20-wide segments, the other past 2^21 and 2^22 = 2048^2 in four
    sieve = _Sieve()
    for k in counts:
        sieve.ensure_count(k)
        assert len(sieve.primes) >= k
    flags = sieve_flags(sieve.limit)
    assert sieve.primes == [n for n in range(sieve.limit + 1) if flags[n]]


def test_threads_growing_one_sieve_leave_exactly_its_primes():
    # four threads released together grow one fresh sieve by interleaved
    # counts; a step two threads both take sieves a range twice
    sieve = _Sieve()
    start = threading.Barrier(4)

    def grow(offset):
        start.wait(timeout=30)
        for k in range(200 + offset, 20_000, 499):
            sieve.ensure_count(k)

    threads = [threading.Thread(target=grow, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    flags = sieve_flags(sieve.limit)
    assert sieve.primes == [n for n in range(sieve.limit + 1) if flags[n]]


def test_nth_prime_beyond_cap_raises():
    set_prime_cap(100)
    try:
        assert nth_prime(100) == 541
        with pytest.raises(ResourceLimit):
            nth_prime(101)
    finally:
        set_prime_cap(DEFAULT_PRIME_CAP)


def test_factorize_budget_exhaustion():
    set_prime_cap(25)
    try:
        # product of two primes far beyond the 25-prime budget, not MR-prime
        n = 1000003 * 1000033
        with pytest.raises(ResourceLimit):
            factorize(n)
        # a large prime residual is still fine: the deterministic test accepts it
        assert factorize(2 * 1000003).factors == ((2, 1), (1000003, 1))
    finally:
        set_prime_cap(DEFAULT_PRIME_CAP)


def test_a_long_residual_is_quoted_by_its_head():
    n = (10**4400 - 1) // 9
    residual = n
    for p in range(2, 100):  # the 25-prime budget: every prime below 100
        while residual % p == 0:
            residual //= p
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        text = str(residual)
        # Python's default limit
        sys.set_int_max_str_digits(4300)
        set_prime_cap(25)
        with pytest.raises(ResourceLimit) as info:
            factorize(n)
    finally:
        set_prime_cap(DEFAULT_PRIME_CAP)
        sys.set_int_max_str_digits(limit)
    assert len(text) > 4300
    assert str(info.value) == (
        f"residual cofactor {text[:100]}... ({len(text)} digits) exceeds the trial-division budget"
    )
