import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnlab import primes
from opnlab.abundancy import _truncated_pair
from opnlab.bound_tables import (
    _PREFIX,
    _store,
    _window,
    find_I,
    generate_table,
    perisastri_bound,
    rho,
    rho_limit,
)
from opnlab.constants import below
from opnlab.errors import InvalidArgument, ResourceLimit
from opnlab.primes import DEFAULT_PRIME_CAP, is_prime, nth_prime, primes_window
from oracles import oracle_side, truncated_product

# reference table: the three prime bounds for m = 9..20 at alpha = 1
REFERENCE_ROWS = {
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

PREFIXES = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(8, 5)}


def rho_oracle(k, m, r, alpha=1):
    return truncated_product(primes_window(r, m - k + 1), alpha, PREFIXES[k])


def naive_scan(k, m, alpha=1):
    r = 2
    while not oracle_side(rho_oracle(k, m, r, alpha), alpha):
        r += 1
    return r


def test_rho_validation():
    with pytest.raises(InvalidArgument):
        rho(k=4, m=9, r=2)
    with pytest.raises(InvalidArgument):
        rho(k=2, m=1, r=2)
    with pytest.raises(InvalidArgument):
        rho(k=1, m=9, r=0)
    with pytest.raises(InvalidArgument):
        rho(k=1, m=9, r=2, alpha=0)


_HUGE = 10**5000  # 5001 digits, past Python's default int-to-str limit
_HUGE_TEXT = "1" + "0" * 99 + "... (5001 digits)"
_PAST_CAP = f"requested prime #{_HUGE_TEXT} exceeds the sieve cap of {DEFAULT_PRIME_CAP}"


# no huge m_max that passes its check: the table would build every row
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: find_I(1, 9.5), InvalidArgument, "m must be an integer"),
        (lambda: rho(1, 9.5, 2), InvalidArgument, "m must be an integer"),
        (lambda: rho(1.0, 9, 2), InvalidArgument, "k must be an integer"),
        (lambda: generate_table(9, 10.5), InvalidArgument, "m_max must be an integer"),
        (lambda: perisastri_bound(9.0), InvalidArgument, "m must be an integer"),
        (lambda: rho_limit(2.0), InvalidArgument, "k must be an integer"),
        (
            lambda: rho(-_HUGE, 9, 2),
            InvalidArgument,
            f"k must be 1, 2, or 3: the k=-{_HUGE_TEXT} prefix product is not below",
        ),
        (
            lambda: rho(2, -_HUGE, 2),
            InvalidArgument,
            f"m must be an integer >= 2, got -{_HUGE_TEXT}",
        ),
        (
            lambda: rho(1, 9, -_HUGE),
            InvalidArgument,
            f"r must be an integer >= 1, got -{_HUGE_TEXT}",
        ),
        (
            lambda: rho(1, 9, 2, -_HUGE),
            InvalidArgument,
            f"alpha must be an integer >= 1, got -{_HUGE_TEXT}",
        ),
        (lambda: rho(1, _HUGE, 2), ResourceLimit, _PAST_CAP),
        (lambda: rho(1, 9, _HUGE), ResourceLimit, _PAST_CAP),
        (
            lambda: find_I(3, -_HUGE),
            InvalidArgument,
            f"m must be an integer >= 3, got -{_HUGE_TEXT}",
        ),
        (
            lambda: find_I(1, 9, -_HUGE),
            InvalidArgument,
            f"alpha must be an integer >= 1, got -{_HUGE_TEXT}",
        ),
        (lambda: find_I(1, _HUGE), ResourceLimit, _PAST_CAP),
        (
            lambda: perisastri_bound(-_HUGE),
            InvalidArgument,
            f"m must be an integer >= 1, got -{_HUGE_TEXT}",
        ),
        (
            lambda: generate_table(-_HUGE, 10),
            InvalidArgument,
            f"m_min must be an integer >= 9, got -{_HUGE_TEXT}",
        ),
        (
            lambda: generate_table(_HUGE, 10),
            InvalidArgument,
            f"m_max must be an integer >= {_HUGE_TEXT}, got 10",
        ),
        (
            lambda: generate_table(9, -_HUGE),
            InvalidArgument,
            f"m_max must be an integer >= 9, got -{_HUGE_TEXT}",
        ),
        (
            lambda: generate_table(9, 10, -_HUGE),
            InvalidArgument,
            f"alpha must be an integer >= 1, got -{_HUGE_TEXT}",
        ),
        (
            lambda: rho_limit(_HUGE),
            InvalidArgument,
            f"k must be 1, 2, or 3: the k={_HUGE_TEXT} prefix product is not below",
        ),
    ],
    ids=[
        "find_I",
        "rho",
        "rho_params_k",
        "generate_table",
        "perisastri_bound",
        "rho_limit",
        "rho_k_negative",
        "rho_m_negative",
        "rho_r_negative",
        "rho_alpha_negative",
        "rho_m_past_cap",
        "rho_r_past_cap",
        "find_I_m_negative",
        "find_I_alpha_negative",
        "find_I_m_past_cap",
        "perisastri_bound_negative",
        "generate_table_m_min_negative",
        "generate_table_m_min_huge",
        "generate_table_m_max_negative",
        "generate_table_alpha_negative",
        "rho_limit_huge",
    ],
)
def test_float_indices_are_rejected_by_name(call, error, message):
    # a huge integer is quoted by its head and digit count: one short line
    with pytest.raises(error) as info:
        call()
    text = str(info.value)
    assert text.startswith(message)
    assert "\n" not in text and len(text) < 250


class _Index:
    """An integer-like value that only supports __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_rho_coerces_integer_like_arguments():
    assert rho(_Index(1), _Index(9), _Index(2), _Index(1)) == rho(1, 9, 2)


def test_rho_examples():
    nine_window = rho(k=1, m=9, r=5)
    assert nine_window == rho_oracle(1, 9, 5)
    assert Fraction("1.5350") < nine_window < Fraction("1.5351")

    assert rho(k=1, m=1, r=2) == Fraction(4, 3)
    assert rho(k=3, m=3, r=4) == Fraction(64, 35)


def test_rho_matches_oracle_on_grid():
    for k in (1, 2, 3):
        for m in (9, 12, 15, 64, 200):
            for r in (2, 5, 9, 311):
                for alpha in (1, 2, 3):
                    assert rho(k, m, r, alpha) == rho_oracle(k, m, r, alpha)


@settings(max_examples=300, deadline=None)
@given(
    km=st.integers(min_value=1, max_value=3).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(min_value=k, max_value=60))
    ),
    r=st.integers(min_value=1, max_value=2000),
    alpha=st.integers(min_value=1, max_value=4),
    cold=st.booleans(),
)
def test_window_is_the_kernel_pair(km, r, alpha, cold):
    # the store's numerators give _truncated_pair's integers, unreduced,
    # whether it starts empty or already holds other indices
    k, m = km
    if cold:
        _store.cache_clear()
    pair = _window(k, m, r, alpha)
    num, den = _truncated_pair(primes_window(r, m - k + 1), alpha)
    assert pair == (_PREFIX[k][0] * num, _PREFIX[k][1] * den)
    assert Fraction(*pair) == rho_oracle(k, m, r, alpha)


@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
@pytest.mark.parametrize("k, m, alpha", [(1, 9, 1), (2, 20, 2), (3, 12, 3)])
def test_windows_stop_exactly_at_the_prime_cap(k, m, alpha, cold, set_cap):
    # the window at I ends at prime #cap: it is in reach at that cap and one
    # prime out of reach below it, whatever the store already holds
    r = find_I(k, m, alpha)
    value = rho(k, m, r, alpha)
    cap = r + m - k
    set_cap(cap)
    if cold:
        _store.cache_clear()
    assert rho(k, m, r, alpha) == value
    assert find_I(k, m, alpha) == r
    set_cap(cap - 1)
    if cold:
        _store.cache_clear()
    with pytest.raises(ResourceLimit, match=f"prime #{cap} "):
        rho(k, m, r, alpha)
    with pytest.raises(ResourceLimit, match=f"prime #{cap} "):
        find_I(k, m, alpha)


def test_reads_within_the_cap_make_no_sieve_call(monkeypatch, set_cap):
    # on a sieve that already holds their primes, a probe, a table row, a
    # window and nth_prime read its list without a lock: no ensure_count,
    # even for a window that ends exactly on the cap's last prime
    k, m, alpha = 3, 12, 3
    r = find_I(k, m, alpha)
    cap = r + m - k
    set_cap(cap)
    value, row = rho(k, m, r, alpha), generate_table(m, m, alpha)
    window, last = primes_window(r, m - k + 1), nth_prime(cap)

    def ensure_count(sieve, count):
        raise AssertionError(f"ensure_count({count}) called")

    monkeypatch.setattr(primes._Sieve, "ensure_count", ensure_count)
    assert rho(k, m, r, alpha) == value
    assert generate_table(m, m, alpha) == row
    assert primes_window(r, m - k + 1) == window
    assert nth_prime(cap) == last


def test_concurrent_tables_from_an_empty_store():
    # four threads released together on an empty store race to grow it;
    # a list extended in place from a stale length fails most rounds
    alphas = (1, 2, 3)
    serial = {alpha: generate_table(9, 60, alpha) for alpha in alphas}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            _store.cache_clear()
            start, results = threading.Barrier(4), []

            def run():
                start.wait(timeout=30)
                results.append({alpha: generate_table(9, 60, alpha) for alpha in alphas})

            threads = [threading.Thread(target=run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [serial] * 4
    finally:
        sys.setswitchinterval(interval)


def test_rho_limit_values():
    assert rho_limit(1) == Fraction(1)
    assert rho_limit(2) == Fraction(4, 3)
    assert rho_limit(3) == Fraction(8, 5)


def test_rho_limit_rejects_k4():
    with pytest.raises(InvalidArgument):
        rho_limit(4)
    with pytest.raises(InvalidArgument):
        rho_limit(0)


def test_rho_strictly_decreases_in_r():
    for k in (1, 2, 3):
        for m in (9, 13, 20):
            for alpha in (1, 2):
                values = [rho(k, m, r, alpha) for r in range(2, 14)]
                assert all(a > b for a, b in zip(values, values[1:]))


def test_rho_increases_with_m():
    for k in (1, 2, 3):
        for r in (2, 7):
            values = [rho(k, m, r) for m in range(9, 14)]
            assert all(a < b for a, b in zip(values, values[1:]))


def test_find_reference_indices():
    assert nth_prime(find_I(1, 9)) == 11
    assert nth_prime(find_I(2, 9)) == 31
    assert nth_prime(find_I(3, 20)) == 1301


def test_find_matches_naive_scan_spot():
    for k in (1, 2, 3):
        for m in (9, 11, 17, 33, 60):
            for alpha in (1, 2):
                assert find_I(k, m, alpha) == naive_scan(k, m, alpha)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=9, max_value=150),
    st.integers(min_value=1, max_value=3),
)
def test_find_is_the_first_certified_below_window(k, m, alpha):
    r = find_I(k, m, alpha)
    q = rho(k, m, r, alpha)
    assert below(q.numerator, q.denominator, alpha)
    if r > 2:
        q = rho(k, m, r - 1, alpha)
        assert not below(q.numerator, q.denominator, alpha)


def test_find_raises_resource_limit_where_the_scan_does(set_cap):
    # with 250 primes the scan finds I(3, 20) = 212; I(3, 40) lies past the
    # last window the sieve can supply, and the scan then asks for prime #251
    expected = find_I(3, 20)
    set_cap(250)
    assert find_I(3, 20) == expected == 212
    assert [row.p_I3 for row in generate_table(19, 20)] == [1237, 1301]
    with pytest.raises(ResourceLimit, match="prime #251 "):
        find_I(3, 40)
    with pytest.raises(ResourceLimit, match="prime #251 "):
        generate_table(20, 40)


def test_find_certified_sidedness():
    for k in (1, 2, 3):
        r_star = find_I(k, 9)
        assert oracle_side(rho(k, 9, r_star), 1)
        assert not oracle_side(rho(k, 9, r_star - 1), 1)


def test_every_prefix_is_below_every_threshold():
    # the search never decides the prefix: 8/5 < 16/pi^2, and the threshold
    # 2 * prod_{p odd} (1 - p^-(alpha+1)) rises with alpha
    for prefix in _PREFIX.values():
        for alpha in range(1, 13):
            assert below(*prefix, alpha)


def test_find_is_monotone_in_m():
    for k in (1, 2, 3):
        indices = [find_I(k, m) for m in range(9, 15)]
        assert all(a <= b for a, b in zip(indices, indices[1:]))


def test_find_rejects_k4():
    with pytest.raises(InvalidArgument):
        find_I(4, 9)
    with pytest.raises(InvalidArgument):
        find_I(1, 0)
    with pytest.raises(InvalidArgument):
        find_I(1, 9, alpha=0)


def test_perisastri_examples():
    assert perisastri_bound(9) == 9
    assert perisastri_bound(10) == 9
    assert perisastri_bound(20) == 16
    with pytest.raises(InvalidArgument):
        perisastri_bound(0)


def test_perisastri_closed_form():
    for m in range(1, 200):
        assert perisastri_bound(m) == (2 * m + 9) // 3


def test_generate_table_reference_rows():
    row9 = generate_table(9, 9, 1)[0]
    assert (row9.m, row9.p_I1, row9.p_I2, row9.p_I3, row9.perisastri) == (9, 11, 31, 509, 9)

    row12 = generate_table(12, 12, 1)[0]
    assert (row12.p_I1, row12.p_I2, row12.p_I3, row12.perisastri) == (13, 41, 739, 11)

    row20 = generate_table(20, 20, 1)[0]
    assert (row20.p_I1, row20.p_I2, row20.p_I3, row20.perisastri) == (17, 61, 1301, 16)


def test_generate_table_full_reference():
    rows = generate_table(9, 20, 1)
    assert len(rows) == 12
    for row in rows:
        assert (row.p_I1, row.p_I2, row.p_I3) == REFERENCE_ROWS[row.m]
        assert row.perisastri == perisastri_bound(row.m)


def test_generate_table_equals_single_rows():
    # the warm start across m must not change any row
    for alpha in (1, 2):
        rows = generate_table(9, 80, alpha)
        assert rows == [generate_table(m, m, alpha)[0] for m in range(9, 81)]


def test_generate_table_validation():
    with pytest.raises(InvalidArgument):
        generate_table(8, 12, 1)
    with pytest.raises(InvalidArgument):
        generate_table(10, 9, 1)
    with pytest.raises(InvalidArgument):
        generate_table(9, 9, 0)


def test_generate_table_alpha2_generalization():
    rows = generate_table(9, 10, 2)
    for row in rows:
        assert row.p_I1 < row.p_I2 < row.p_I3
        for p in (row.p_I1, row.p_I2, row.p_I3):
            assert is_prime(p)
        assert find_I(1, row.m, alpha=2) == naive_scan(1, row.m, alpha=2)


@settings(max_examples=30, deadline=None)
@given(m_min=st.integers(9, 60), span=st.integers(0, 4), alpha=st.integers(1, 3))
def test_bound_table_row_ordering_invariant(m_min, span, alpha):
    rows = generate_table(m_min, m_min + span, alpha)
    assert [row.m for row in rows] == list(range(m_min, m_min + span + 1))
    for row in rows:
        assert row.p_I1 < row.p_I2 < row.p_I3
