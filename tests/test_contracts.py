"""Count contracts: a fixed input, a counter patched onto a private function,
and the count it must keep to.

A count does not vary from run to run as a timing does, so work added on a
path that no benchmark workload takes still shows: an error message built
for input that is valid, a Miller-Rabin round where one gcd proves the set,
a threshold bracket built twice.
"""

import io
import random
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import opnlab
from opnlab import abundancy, bound_tables, cli, constants, errors, exact_arith, primes, screener
from opnlab.abundancy import (
    AbundancyReport,
    Classification,
    abundancy_report,
    sigma,
    sigma_minus_one,
    truncated_product,
)
from opnlab.bound_tables import (
    BoundTableRow,
    find_I,
    generate_table,
    perisastri_bound,
    rho,
    rho_limit,
)
from opnlab.constants import pi_enclosure, threshold_enclosure, zeta_enclosure
from opnlab.exact_arith import RatInterval, Record
from opnlab.primes import Factorization, factorize, is_prime, nth_prime, primes_window
from opnlab.screener import (
    Mode,
    Outcome,
    ScreenVerdict,
    euler_form_check,
    full_screen,
    perfect_check,
    radical_screen,
)

# --- formatters ----------------------------------------------------------

# every module that binds an error formatter, each patched through its own
# binding: a module that imported the name holds its own reference
_MODULES = (errors, exact_arith, primes, abundancy, constants, bound_tables, screener, cli)
_FORMATTERS = ("_digits", "_quoted", "_ratio")


@pytest.fixture
def formatter_calls(monkeypatch):
    """The (module, formatter) of every formatter call made during the test."""
    calls = []
    for module in _MODULES:
        for name in _FORMATTERS:
            if hasattr(module, name):
                real, where = getattr(module, name), (module.__name__, name)

                def counted(*args, real=real, where=where):
                    calls.append(where)
                    return real(*args)

                monkeypatch.setattr(module, name, counted)
    return calls


_F945 = Factorization(((3, 3), (5, 1), (7, 1)))
_SCREENED = Factorization(((3, 2), (7, 2), (11, 2), (13, 1)))
_NINE = (3, 5, 7, 11, 13, 17, 19, 23, 29)
_PAST_THE_GCD_BOUND = (3, 5, 7, 11, 13, 17, 19, 23, 4198409)

# public entry -> valid calls of it: every function and record class the
# package exports, with the arguments the paper's uses pass
_VALID_CALLS = {
    "Factorization": lambda: (
        Factorization(((3, 3), (5, 1), (7, 1))),
        Factorization.from_pairs([(13, 1), (3, 2), (7, 2), (11, 2)]),
        Factorization(((2**61 - 1, 5),)),
        str(_F945),
        _F945.n,
        _F945.radical,
    ),
    "factorize": lambda: [factorize(n) for n in (1, 945, 2**20, 1_000_003, 3 * 1_000_003, 1031**2)],
    "is_prime": lambda: [is_prime(n) for n in (0, 2, 2047, 4198379, 4198401, 2**61 - 1)],
    "nth_prime": lambda: nth_prime(1000),
    "primes_window": lambda: (primes_window(5, 10), primes_window(3, 0)),
    "prime_cap": primes.prime_cap,
    "set_prime_cap": lambda: primes.set_prime_cap(primes.prime_cap()),
    "sigma": lambda: sigma(_F945),
    "sigma_minus_one": lambda: sigma_minus_one(_F945),
    "abundancy_report": lambda: [abundancy_report(f) for f in (Factorization(()), _F945)],
    "AbundancyReport": lambda: AbundancyReport(28, 56, Fraction(2), Classification.PERFECT),
    "truncated_product": lambda: [truncated_product(_NINE, alpha) for alpha in (1, 2, 3)],
    "rho": lambda: [rho(k, 12, 40, alpha) for k in (1, 2, 3) for alpha in (1, 2)],
    "rho_limit": lambda: [rho_limit(k) for k in (1, 2, 3)],
    "find_I": lambda: [find_I(k, 12, alpha) for k in (1, 2, 3) for alpha in (1, 2)],
    "perisastri_bound": lambda: perisastri_bound(20),
    "generate_table": lambda: [generate_table(9, 14, alpha) for alpha in (1, 2, 3)],
    "BoundTableRow": lambda: BoundTableRow(9, 101, 103, 107, 9),
    "pi_enclosure": lambda: (pi_enclosure(Fraction(1, 10**30)), pi_enclosure("1e-10")),
    "zeta_enclosure": lambda: [zeta_enclosure(s, "1e-20") for s in (2, 3)],
    "threshold_enclosure": lambda: [threshold_enclosure(alpha) for alpha in (1, 2, 4)],
    "RatInterval": lambda: (
        RatInterval(1, "3/2").width(),
        RatInterval(Fraction(1, 3), 1).midpoint(),
        RatInterval(0, 1).contains("1e-3"),
        RatInterval(0, 2).encloses(RatInterval(1, 1)),
    ),
    "euler_form_check": lambda: [euler_form_check(f) for f in (_F945, _SCREENED)],
    "perfect_check": lambda: [perfect_check(f) for f in (_F945, Factorization(((2, 2), (7, 1))))],
    "full_screen": lambda: [full_screen(f) for f in (_F945, _SCREENED, factorize(28))],
    "radical_screen": lambda: [
        radical_screen(ps, mode)
        for ps in (_NINE, [29, 3, 5], _PAST_THE_GCD_BOUND, primes_window(2, 300))
        for mode in Mode
    ],
    "ScreenVerdict": lambda: ScreenVerdict(Outcome.CONSISTENT_SO_FAR),
}


def test_every_public_entry_has_valid_calls():
    entries = {
        name
        for name in opnlab.__all__
        if isinstance(getattr(opnlab, name), types.FunctionType)
        or isinstance(getattr(opnlab, name), type)
        and issubclass(getattr(opnlab, name), Record)
    }
    assert entries == set(_VALID_CALLS)


@pytest.mark.parametrize("name", sorted(_VALID_CALLS))
def test_valid_input_to_a_public_entry_formats_no_error_text(name, formatter_calls, set_cap):
    _VALID_CALLS[name]()
    assert formatter_calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "28"],
        ["sigma", "3^3*5*7"],
        ["sigma", "3^10000*5"],
        ["screen", "945"],
        ["screen", "3^2*7^2*11^2*13"],
        ["radical", "3", "5", "7", "--mode", "alpha2"],
        ["radical", *map(str, _NINE)],
        ["radical", *map(str, _PAST_THE_GCD_BOUND), "--mode", "alpha1"],
        ["table", "--m-min", "9", "--m-max", "12", "--alpha", "2"],
        ["constants", "--alpha", "2", "--width", "1e-10"],
        # read by the argparse tree, not the plain reading
        ["table", "--m-max=10"],
        ["constants", "--alpha=3", "--width=1/1024"],
    ],
    ids=" ".join,
)
@pytest.mark.parametrize("fmt", ["human", "csv", "jsonl"])
def test_valid_input_to_a_subcommand_formats_no_error_text(
    argv, fmt, formatter_calls, monkeypatch, set_cap
):
    monkeypatch.setenv("OPNLAB_PRIME_CAP", "200000")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*argv, "--format", fmt])
    assert code in (0, 1) and err.getvalue() == ""
    assert formatter_calls == []


def test_the_counter_sees_every_module_format(formatter_calls):
    # invalid input is counted through each module's own binding, so the
    # zero counts above come from no patch that missed its target
    for call in (
        lambda: Factorization(((3, -1),)),
        lambda: RatInterval(2, 1),  # exact_arith's _ratio, then errors' _digits
        lambda: truncated_product([3, 3], 1),
        lambda: rho_limit(4),
        lambda: radical_screen(_NINE, "bogus"),
        lambda: pi_enclosure(-1),
        lambda: cli.parse_factorization("3^x"),
    ):
        with pytest.raises(errors.OpnlabError):
            call()
    assert {module for module, _ in formatter_calls} == {m.__name__ for m in _MODULES}


# --- Miller-Rabin rounds -------------------------------------------------


def _sets_below_2_22(count, rng):
    """``count`` sets of 9 to 40 distinct odd primes below 2^22, each drawn
    log-uniform in magnitude, so a set mixes primes near 3 with ones near 2^22."""
    sets = []
    for _ in range(count):
        members = set()
        size = rng.randint(9, 40)
        while len(members) < size:
            n = int(3 * (2**22 / 3) ** rng.random()) | 1
            while n < 2**22 and not is_prime(n):
                n += 2
            if n < 2**22:
                members.add(n)
        sets.append(sorted(members))
    return sets


def test_a_radical_screen_below_2_22_runs_no_miller_rabin_round(monkeypatch):
    # every member lies below 2049^2, so one gcd with the start primes
    # proves the set and no member reaches the witness ladder
    sets = _sets_below_2_22(300, random.Random(0))
    assert max(map(max, sets)) > 2**21
    rounds = []
    real = primes._miller_rabin
    monkeypatch.setattr(primes, "_miller_rabin", lambda n: rounds.append(n) or real(n))
    for i, ps in enumerate(sets):
        radical_screen(ps, list(Mode)[i % 3])
    assert rounds == []
    # the counter is on the ladder's path: one member past the bound runs it
    radical_screen(_PAST_THE_GCD_BOUND)
    assert rounds == [4198409]


# --- threshold brackets --------------------------------------------------


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_a_table_builds_one_threshold_bracket(alpha):
    # every probe of m = 9..100 is decided by the default-width bracket
    constants._bracket.cache_clear()
    generate_table(9, 100, alpha)
    assert constants._bracket.cache_info().misses == 1
