import argparse
import functools
import io
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnlab import cli, primes, screener
from opnlab.cli import (
    MAX_DECIMAL_DIGITS,
    _certified_digits,
    _int_str,
    decimal_str,
    main,
    parse_factorization,
)
from opnlab.constants import threshold_enclosure
from opnlab.errors import InvalidArgument, ParseError, ResourceLimit
from opnlab.exact_arith import MAX_MANTISSA_LENGTH

GOLDEN = Path(__file__).parent / "golden" / "table_m9_m20_alpha1.csv"


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("OPNLAB_PRIME_CAP", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "opnlab.cli", *args], capture_output=True, env=env
    )


def test_decimal_str_is_exact_long_division():
    assert decimal_str(Fraction(128, 63), 12) == "2.031746031746"
    assert decimal_str(Fraction(2), 12) == "2.000000000000"
    assert decimal_str(Fraction(1, 3), 4) == "0.3333"
    assert decimal_str(Fraction(-1, 8), 2) == "-0.12"
    assert decimal_str(Fraction(7, 2), 0) == "3"


# Oracles: one digit per step, by long division and by comparing 10^-d.
def long_division_oracle(q: Fraction, digits: int) -> str:
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, rem = divmod(q.numerator, q.denominator)
    if digits <= 0:
        return f"{sign}{whole}"
    out = []
    for _ in range(digits):
        rem *= 10
        d, rem = divmod(rem, q.denominator)
        out.append(str(d))
    return f"{sign}{whole}." + "".join(out)


def certified_digits_oracle(width: Fraction) -> int:
    d = 0
    while Fraction(1, 10**d) > width and d < 10_000:
        d += 1
    return d + 1


@pytest.fixture
def default_int_str_limit():
    # library callers keep Python's default int-to-str limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(old)


def test_decimal_str_edge_cases():
    assert decimal_str(Fraction(-1, 1000), 2) == "-0.00"
    assert decimal_str(Fraction(-7, 2), 0) == "-3"
    assert decimal_str(Fraction(-7, 2), -2) == "-3"
    assert decimal_str(Fraction(1, 1000), 3) == "0.001"
    assert decimal_str(Fraction(0), 3) == "0.000"
    assert decimal_str(Fraction(999, 1000), 2) == "0.99"


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(min_value=-(10**40), max_value=10**40),
    den=st.one_of(st.just(1), st.integers(min_value=1, max_value=10**30)),
    digits=st.integers(min_value=-2, max_value=300),
)
def test_decimal_str_matches_long_division(num, den, digits):
    q = Fraction(num, den)
    assert decimal_str(q, digits) == long_division_oracle(q, digits)


@pytest.mark.parametrize(
    "q", [Fraction(-355, 113), Fraction(1, 7), Fraction(10**4500 + 1, 3**9000)]
)
@pytest.mark.parametrize("digits", [5_000, MAX_DECIMAL_DIGITS + 1])
def test_decimal_str_past_the_default_str_digit_limit(default_int_str_limit, q, digits):
    assert decimal_str(q, digits) == long_division_oracle(q, digits)


_exponents = st.integers(min_value=0, max_value=60)
_boundary_widths = st.builds(
    lambda e, scale: Fraction(1, 10**e) * scale,
    _exponents,
    st.sampled_from([Fraction(1), Fraction(9_999, 10_000), Fraction(10_001, 10_000)]),
)
_wide_widths = st.builds(
    lambda den, extra: Fraction(den + extra, den),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)
_any_widths = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10**20),
    st.integers(min_value=1, max_value=10**60),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_boundary_widths, _wide_widths, _any_widths))
def test_certified_digits_matches_the_per_digit_search(width):
    assert _certified_digits(width) == certified_digits_oracle(width)


def test_certified_digits_boundaries_and_cap():
    for e in range(40):
        assert _certified_digits(Fraction(1, 10**e)) == e + 1
        assert _certified_digits(Fraction(1, 10**e) * Fraction(9_999, 10_000)) == e + 2
        assert _certified_digits(Fraction(1, 10**e) * Fraction(10_001, 10_000)) == e + 1
    assert _certified_digits(Fraction(3)) == 1
    assert _certified_digits(Fraction(1, 10**12000)) == MAX_DECIMAL_DIGITS + 1 == 10_001


def test_parse_factorization():
    assert parse_factorization("945").factors == ((3, 3), (5, 1), (7, 1))
    assert parse_factorization("3^3*5*7").factors == ((3, 3), (5, 1), (7, 1))
    assert parse_factorization(" 3^3 * 5*7 ").factors == ((3, 3), (5, 1), (7, 1))
    with pytest.raises(ParseError):
        parse_factorization("")
    with pytest.raises(ParseError):
        parse_factorization("3^^2")
    with pytest.raises(ParseError):
        parse_factorization("pi")


def test_sigma_command_human():
    proc = run_cli("sigma", "3^3*5*7")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "sigma: 1920" in out
    assert "sigma_minus_one: 128/63 (~2.031746031746)" in out
    assert "classification: Abundant" in out


def test_sigma_command_perfect_number():
    proc = run_cli("sigma", "28", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "n,factorization,sigma,sigma_minus_one,sigma_minus_one_decimal,classification"
    assert lines[1] == "28,2^2*7,56,2/1,2.000000000000,Perfect"


def test_sigma_command_unit():
    proc = run_cli("sigma", "1")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "sigma: 1" in out
    assert "sigma_minus_one: 1/1" in out
    assert "classification: Deficient" in out


def test_main_restores_the_callers_int_str_limit(default_int_str_limit, capsys):
    # main() prints sigma(3^10000), 4,772 digits, and leaves the caller's
    # limit as it was on every way out
    assert main(["sigma", "3^10000", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split(",")[2] == "sigma" and len(row.split(",")[2]) == 4772
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    assert main(["sigma", "0^2"]) == 2
    with pytest.raises(SystemExit):
        main(["sigma", "--help"])
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits


def test_sigma_prints_integers_past_the_default_str_digit_limit():
    # sigma(3^10000) = (3^10001 - 1)/2 has 4,772 digits, more than the
    # 4,300 a fresh interpreter converts to str by default
    proc = run_cli("sigma", "3^10000", "--format", "csv")
    assert proc.returncode == 0
    sigma = proc.stdout.decode().splitlines()[1].split(",")[2]
    assert len(sigma) == 4772
    assert int(sigma[-100:]) == (3**10001 - 1) // 2 % 10**100


def _printed(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_LONG_OUTPUT_CALLS = [
    ["sigma", "3^20000*5^3"],
    ["screen", "3^10000*5^2"],
    # no prime is 1 mod 4, so the one case is case 2, whose terms run past 10,000 digits
    ["radical", *[str(p) for p in primes.primes_window(2, 3200) if p % 4 == 3][:1500]]
    + ["--mode", "alpha2"],
    ["constants", "--width", "1e-5000"],
]


@pytest.mark.parametrize("fmt", ["human", "csv", "jsonl"])
@pytest.mark.parametrize("argv", _LONG_OUTPUT_CALLS, ids=lambda argv: argv[0])
def test_main_prints_past_the_limit_without_changing_it(
    argv, fmt, default_int_str_limit, monkeypatch
):
    argv = [*argv, "--format", fmt]
    sys.set_int_max_str_digits(0)  # every int printed by plain str()
    try:
        expected = _printed(argv)
        sigma = str((3**20001 - 1) // 2 * 156)  # sigma(3^20000 * 5^3)
    finally:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)

    def refuse(limit):
        raise AssertionError(f"set_int_max_str_digits({limit})")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    code, out, err = _printed(argv)
    assert (code, out, err) == expected and err == ""
    assert max(len(token) for token in out.replace("/", " ").split()) > 4_300
    if argv[0] == "sigma":
        assert sigma in out


@pytest.mark.parametrize("attempt", range(5))
def test_threads_leave_the_callers_int_str_limit(attempt, default_int_str_limit):
    # were main() to lift the limit, one call could save the other's raised
    # limit and restore that last, or print after the other restored 4,300
    codes = []

    def calls():
        codes.extend(main(["sigma", "3^10000", "--format", "csv"]) for _ in range(150))

    out, interval = io.StringIO(), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside calls too
    try:
        with redirect_stdout(out):
            threads = [threading.Thread(target=calls) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == [0] * 300
    assert out.getvalue().count("\n") == 600
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits


@pytest.mark.parametrize(
    "text", ["1" * 4_301, "3^" + "1" * 4_301, "3*" + "7" * 4_301 + "^2"], ids=["n", "e", "p"]
)
@pytest.mark.parametrize("command", ["sigma", "screen"])
def test_an_integer_past_the_limit_exits_2_at_once(command, text, default_int_str_limit):
    start = time.monotonic()
    code, out, err = _printed([command, text])
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: integer '") and err.count("\n") == 1 and len(err) < 250
    assert "... (4301 characters) is longer than the limit of 4300 digits" in err
    assert err.endswith("; PYTHONINTMAXSTRDIGITS raises it\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["radical", "3", "5", "7" * 5000],
        ["radical", "7" * 5000, "3", "--mode", "alpha2"],
        ["table", "--m-max", "9" * 5000],
        ["table", "--m-min", "9" * 5000, "--format", "csv"],
        ["table", "--alpha", "9" * 5000],
        ["constants", "--alpha", "9" * 5000],
    ],
    ids=["radical", "radical_first", "m_max", "m_min", "table_alpha", "constants_alpha"],
)
def test_an_integer_option_past_the_limit_exits_2_in_one_short_line(argv, default_int_str_limit):
    start = time.monotonic()
    code, out, err = _printed(argv)
    assert time.monotonic() - start < 1
    assert (code, out) == (2, "")
    long = next(token for token in argv if len(token) == 5000)
    assert err == (
        f"error: integer '{long[:100]}'... (5000 characters) is longer than the limit of "
        "4300 digits; PYTHONINTMAXSTRDIGITS raises it\n"
    )
    assert len(err) < 250
    # the plain reading leaves the call to argparse, which raises what main() printed
    assert cli._plain_call(argv) is None
    with pytest.raises(ParseError) as info:
        cli.build_parser().parse_args(argv)
    assert err == f"error: {info.value}\n"


_DOUBLE_UNDERSCORE = "9" * 2500 + "__" + "9" * 2500  # int() takes single underscores only


@pytest.mark.parametrize(
    "argv, long",
    [
        (["table", "--m-max", "x" * 5000], "x" * 5000),
        (["radical", "3", "5", "7" * 4999 + "x"], "7" * 4999 + "x"),
        (["constants", "--alpha", _DOUBLE_UNDERSCORE], _DOUBLE_UNDERSCORE),
    ],
    ids=["letters", "digits_then_letter", "double_underscore"],
)
def test_a_long_non_integer_is_refused_as_not_an_integer(argv, long, default_int_str_limit):
    # a text past the digit limit is first read as int() would read it: one
    # that is no integer at any length is not called one
    code, out, err = _printed(argv)
    assert (code, out) == (2, "")
    assert err == f"error: not an integer: '{long[:100]}'... ({len(long)} characters)\n"
    assert len(err) < 250


@pytest.mark.parametrize(
    "long",
    ["+" + "9" * 5000, "-" + "9" * 5000, " 9" + "_9" * 4400 + "\n"],
    ids=["plus", "minus", "spaced_underscores"],
)
def test_a_long_signed_or_spaced_decimal_is_past_the_limit(long, default_int_str_limit):
    # the decimal forms int() reads: a sign, surrounding space, single underscores
    with pytest.raises(ParseError) as info:
        cli._int(long)
    assert str(info.value) == (
        f"integer {long[:100]!r}... ({len(long)} characters) is longer than the limit of "
        "4300 digits; PYTHONINTMAXSTRDIGITS raises it"
    )


def test_a_short_non_integer_is_still_an_argparse_usage_error():
    for argv, name in ((["table", "--m-max", "x"], "--m-max"), (["radical", "3", "x"], "primes")):
        assert cli._plain_call(argv) is None
        outcome = _parse_outcome(cli.build_parser().parse_args, argv)
        assert outcome[:3] == ("exit", 2, "")
        assert outcome[3].endswith(f": error: argument {name}: invalid int value: 'x'\n")


def test_every_grammar_spec_is_one_the_plain_reading_reads():
    # _plain_call reads a spec as argparse does only through these keywords,
    # nargs="+" only on a positional, and a default only as its own value
    # (argparse would convert a str default through its type)
    for command, (_, *specs) in cli._GRAMMAR.items():
        for name, keywords in (*specs, cli._FORMAT):
            where = f"{command} {name}"
            assert keywords.keys() <= {"help", "type", "choices", "default", "nargs"}, where
            assert keywords.get("nargs", "+") == "+", where
            assert not ("nargs" in keywords and name.startswith("-")), where
            assert not (isinstance(keywords.get("default"), str) and "type" in keywords), where


_BITS_REFUSED = (
    f"error: factorization is past {cli._MAX_FACTORIZATION_BITS} bits "
    "(the sum of e * bit_length(p))\n"
)


# e * bit_length(p) bounds the bits p^e takes, so the cap is met before any
# arithmetic; 3^5000000 alone would take minutes
@pytest.mark.parametrize(
    "text", ["3^5000000", "3^" + "1" * 4_300, "2^65537", "2^65536*3", "3*5^50000"]
)
@pytest.mark.parametrize("command", ["sigma", "screen"])
def test_a_factorization_past_the_bit_cap_exits_2_at_once(command, text):
    start = time.monotonic()
    assert _printed([command, text, "--format", "csv"]) == (2, "", _BITS_REFUSED)
    assert time.monotonic() - start < 1


def test_the_bit_cap_admits_its_bound_and_bounds_a_decimal_n(default_int_str_limit):
    assert cli._MAX_FACTORIZATION_BITS == 2 * 65536
    code, out, err = _printed(["sigma", "2^65536", "--format", "csv"])
    assert (code, err) == (0, "") and out.splitlines()[1].startswith(_int_str(2**65536) + ",")
    # a decimal n counts as the one pair (n, 1), also with the digit limit lifted
    sys.set_int_max_str_digits(0)
    start = time.monotonic()
    assert _printed(["sigma", "1" * 40_000]) == (2, "", _BITS_REFUSED)
    assert time.monotonic() - start < 1


def test_sigma_output_round_trips_through_parser():
    proc = run_cli("sigma", "496")
    line = next(
        l for l in proc.stdout.decode().splitlines() if l.startswith("factorization:")
    )
    text = line.split(":", 1)[1].strip()
    assert parse_factorization(text).n == 496


def test_screen_exit_codes():
    assert run_cli("screen", "3^2*7^2*11^2*13").returncode == 1
    assert run_cli("screen", "2*3").returncode == 1
    assert run_cli("screen", "3^^2").returncode == 2
    assert run_cli("screen", "3^2*4").returncode == 2


def test_screen_reports_each_check():
    proc = run_cli("screen", "3^2*5^3*7^2")
    out = proc.stdout.decode().splitlines()
    assert out[0] == "eulerian_form: Violates[EulerianForm]"
    assert out[1].startswith("perfect: Violates[NotPerfect] witness=")
    assert out[2] == "radical: Violates[TooFewPrimeFactors]"


def test_screen_not_odd():
    proc = run_cli("screen", "2*3")
    assert "eulerian_form: Violates[NotOdd]" in proc.stdout.decode()


def test_screen_all_consistent_exit_zero(monkeypatch, capsys):
    clean = [screener.ScreenVerdict(screener.Outcome.CONSISTENT_SO_FAR)] * 3
    monkeypatch.setattr(screener, "full_screen", lambda f: clean)
    code = main(["screen", "945"])
    assert code == 0
    assert "ConsistentSoFar" in capsys.readouterr().out


def test_radical_alpha2_report():
    proc = run_cli("radical", "3", "5", "7", "--mode", "alpha2")
    assert proc.returncode == 1
    out = proc.stdout.decode()
    assert "outcome: Violates[TripleExclusion357]" in out
    assert "case2: 7657/3675" in out
    assert "case1[q=5]: 494/245" in out


def test_radical_alpha1_consistent_exit_zero():
    proc = run_cli("radical", "3", "5", "7", "--mode", "alpha1")
    assert proc.returncode == 0
    assert "ConsistentSoFar" in proc.stdout.decode()


def test_radical_auto_gates_small_sets():
    proc = run_cli("radical", "3", "5")
    assert proc.returncode == 1
    assert "TooFewPrimeFactors" in proc.stdout.decode()


def test_radical_rejects_bad_primes():
    assert run_cli("radical", "4", "5").returncode == 2
    assert run_cli("radical", "2", "3").returncode == 2
    assert run_cli("radical", "3", "3").returncode == 2


def test_radical_jsonl_carries_cases():
    proc = run_cli("radical", "3", "5", "7", "--mode", "alpha2", "--format", "jsonl")
    record = json.loads(proc.stdout.decode())
    assert record["violated_condition"] == "TripleExclusion357"
    assert record["witness"] == "7657/3675"
    assert record["cases"] == {"case2": "7657/3675", "case1[q=5]": "494/245"}


def test_table_csv_matches_golden_bytes():
    proc = run_cli("table", "--m-min", "9", "--m-max", "20", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN.read_bytes()


def test_table_default_range_is_9_to_20():
    assert run_cli("table", "--format", "csv").stdout == GOLDEN.read_bytes()


def test_table_jsonl_shape():
    proc = run_cli("table", "--m-min", "9", "--m-max", "9", "--format", "jsonl")
    record = json.loads(proc.stdout.decode())
    assert record == {"m": 9, "p_I1": 11, "p_I2": 31, "p_I3": 509, "perisastri": 9}
    assert list(record) == ["m", "p_I1", "p_I2", "p_I3", "perisastri"]


def test_table_rejects_bad_ranges():
    assert run_cli("table", "--m-min", "10", "--m-max", "9").returncode == 2
    assert run_cli("table", "--m-min", "8", "--m-max", "9").returncode == 2


def test_machine_formats_are_byte_deterministic():
    for args in (
        ("table", "--format", "csv"),
        ("table", "--format", "jsonl"),
        ("radical", "3", "5", "7", "--mode", "alpha2", "--format", "csv"),
        ("screen", "945", "--format", "jsonl"),
        ("constants", "--alpha", "1", "--width", "1e-10", "--format", "csv"),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_constants_alpha1():
    proc = run_cli("constants", "--alpha", "1", "--width", "1e-10")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "value: ~1.62113893827" in out
    lines = dict(l.split(": ", 1) for l in out.splitlines())
    lo = Fraction(lines["lo"])
    hi = Fraction(lines["hi"])
    # the constant to 19 digits sits inside even this tight bracket
    assert lo < Fraction("1.6211389382774043431") < hi
    assert hi - lo <= Fraction(1, 10**10)


def test_constants_alpha2():
    proc = run_cli("constants", "--alpha", "2", "--width", "1e-10", "--format", "csv")
    assert proc.returncode == 0
    row = proc.stdout.decode().splitlines()[1].split(",")
    assert row[0] == "2"
    assert Fraction(row[1]) < Fraction("1.9015025658987599284") < Fraction(row[2])
    assert row[4].startswith("1.9015025658")


def test_constants_zeta_default_width_is_in_reach():
    proc = run_cli("constants", "--alpha", "2", "--format", "csv")
    assert proc.returncode == 0
    row = proc.stdout.decode().splitlines()[1].split(",")
    assert Fraction(row[3]) <= Fraction(1, 10**30)
    assert row[4].startswith("1.90150256589875992841857435159")


def test_constants_rejects_bad_width():
    assert run_cli("constants", "--width", "0").returncode == 2
    assert run_cli("constants", "--width", "nope").returncode == 2
    # a decimal exponent past the bound fails at once, naming the bound;
    # parsing 1e-60000000 in full takes over a minute
    for width in ("1e-60000000", "1e60000000"):
        start = time.monotonic()
        done = run_cli("constants", "--width", width)
        assert time.monotonic() - start < 5
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.count(b"\n") == 1 and b"2000000" in done.stderr
    # the bound itself parses; no alpha serves that width within the series cap
    done = run_cli("constants", "--width", "1e-2000000")
    assert done.returncode == 2
    assert done.stderr.endswith(b"series terms\n")


def test_constants_refuses_a_long_width_mantissa_at_once(monkeypatch, capsys):
    # parsing this width in full takes about 4 s
    monkeypatch.delenv("OPNLAB_PRIME_CAP", raising=False)
    width = "0." + "7" * 130_000 + "e-2000000"
    start = time.monotonic()
    assert main(["constants", "--width", width]) == 2
    assert time.monotonic() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: cannot parse width: mantissa has 130002 characters, "
        f"more than {MAX_MANTISSA_LENGTH}\n"
    )


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_constants_rejects_alpha_below_one(alpha, monkeypatch, capsys):
    monkeypatch.delenv("OPNLAB_PRIME_CAP", raising=False)
    assert main(["constants", "--alpha", alpha]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: alpha must be an integer >= 1, got {alpha}\n"


def _constants_oracle(alpha: int, width: Fraction, fmt: str) -> str:
    """The constants output built from the public enclosure with Fraction
    arithmetic: lo, hi and width in lowest terms, and the midpoint by long
    division to d + 1 places, d the least with 10^-d <= width (capped)."""
    iv = threshold_enclosure(alpha, width)
    d = 0
    while d < MAX_DECIMAL_DIGITS and Fraction(1, 10**d) > width:
        d += 1
    mid = iv.midpoint()
    whole, rem = divmod(mid.numerator, mid.denominator)
    places = str(rem * 10 ** (d + 1) // mid.denominator).zfill(d + 1)
    record = {
        "alpha": alpha,
        "lo": f"{iv.lo.numerator}/{iv.lo.denominator}",
        "hi": f"{iv.hi.numerator}/{iv.hi.denominator}",
        "width": f"{iv.width().numerator}/{iv.width().denominator}",
        "value_decimal": f"{whole}.{places}",
    }
    if fmt == "csv":
        return ",".join(record) + "\n" + ",".join(str(v) for v in record.values()) + "\n"
    if fmt == "jsonl":
        return json.dumps(record) + "\n"
    r = record
    return (
        f"alpha: {alpha}\nlo: {r['lo']}\nhi: {r['hi']}\nwidth: {r['width']}\n"
        f"value: ~{r['value_decimal']}\n"
    )


_WIDTHS = st.one_of(
    st.builds(
        lambda m, e: (f"{m}e-{e}", Fraction(m, 10**e)),
        st.integers(1, 10**6),
        st.integers(0, 400),
    ),
    # a width of 1 or more: the bracket lies inside (1, 2) only after j doubles
    st.sampled_from([("1", Fraction(1)), ("3/2", Fraction(3, 2)), ("7", Fraction(7))]),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), _WIDTHS, st.sampled_from(["csv", "jsonl", "human"]))
def test_constants_output_matches_the_fraction_oracle(alpha, width, fmt):
    text, value = width
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["constants", "--alpha", str(alpha), "--width", text, "--format", fmt])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == _constants_oracle(alpha, value, fmt)


def test_prime_cap_env_is_honored():
    tight = run_cli("table", env_extra={"OPNLAB_PRIME_CAP": "50"})
    assert tight.returncode == 2
    assert b"cap" in tight.stderr
    loose = run_cli("sigma", "945", env_extra={"OPNLAB_PRIME_CAP": "50"})
    assert loose.returncode == 0
    assert run_cli("sigma", "945", env_extra={"OPNLAB_PRIME_CAP": "junk"}).returncode == 2


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate").returncode == 2


def test_internal_error_exits_2_not_refuted(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_sigma", crash)
    assert main(["sigma", "28"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal RuntimeError: boom\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("0^2", "0 is not prime"),
        ("1^5*3", "1 is not prime"),
        ("3*3", "duplicate prime 3"),
        # str.isdigit() accepts a superscript two, which int() rejects
        ("\u00b2", "cannot parse factor '\u00b2'"),
        ("3\u00b2", "cannot parse factor '3\u00b2'"),
    ],
)
def test_sigma_factorization_errors_name_the_fault(text, message, capsys):
    assert main(["sigma", text]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, quoted",
    [
        # the exponent bound, an unparsable factor, a width of 0, a non-rational width
        (["constants", "--width", "0." + "7" * 130_000 + "e-60000000"], "'0.777"),
        (["sigma", "x" * 100_000], "cannot parse factor 'xxx"),
        (["constants", "--width", "0e-" + "0" * 100_000], "got '0e-000"),
        (["constants", "--width", "xe-" + "0" * 100_000], "not a rational: 'xe-000"),
    ],
)
def test_an_error_quotes_a_long_input_in_one_short_line(argv, quoted, monkeypatch, capsys):
    monkeypatch.delenv("OPNLAB_PRIME_CAP", raising=False)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 250
    assert quoted in err and f"... ({len(argv[-1])} characters)" in err


def _golden_stdout(argv) -> str:
    golden = json.loads((GOLDEN.parent / "cli_outputs.json").read_text())
    (case,) = [case for case in golden if case["argv"] == argv]
    return case["stdout"]


def test_only_a_sieve_command_reads_the_prime_cap(monkeypatch, capsys):
    argv = ["constants", "--alpha", "1", "--width", "1e-10", "--format", "csv"]
    monkeypatch.setenv("OPNLAB_PRIME_CAP", "junk")
    assert main(argv) == 0
    assert capsys.readouterr() == (_golden_stdout(argv), "")
    assert main(["sigma", "945"]) == 2
    message = "prime cap must be an integer >= 1, got 'junk'"
    assert capsys.readouterr() == ("", f"error: bad OPNLAB_PRIME_CAP: {message}\n")


def test_a_long_bad_prime_cap_is_quoted_in_one_short_line(monkeypatch, capsys):
    monkeypatch.setenv("OPNLAB_PRIME_CAP", "x" * 5000)
    assert main(["sigma", "945"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err.encode()) < 250
    assert err.startswith("error: bad OPNLAB_PRIME_CAP: prime cap must be an integer >= 1, got 'xxx")
    assert err.endswith("'... (5000 characters)\n")


def test_a_long_residual_cofactor_is_quoted_in_one_short_line(monkeypatch, capsys, set_cap):
    monkeypatch.setenv("OPNLAB_PRIME_CAP", "50")
    assert main(["sigma", "1" * 1000]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: residual cofactor ") and err.count("\n") == 1
    assert len(err) < 250 and " digits) exceeds the trial-division budget" in err


def test_prime_cap_env_does_not_leak_across_calls(monkeypatch, capsys, set_cap):
    monkeypatch.setenv("OPNLAB_PRIME_CAP", "50")
    assert main(["table", "--format", "csv"]) == 2
    monkeypatch.delenv("OPNLAB_PRIME_CAP")
    assert main(["table", "--format", "csv"]) == 0
    assert primes.prime_cap() == primes.DEFAULT_PRIME_CAP
    assert capsys.readouterr().out == GOLDEN.read_text()


@pytest.mark.parametrize("cap", [None, "50"])
def test_an_unchanged_prime_cap_keeps_the_sieve(cap, monkeypatch, capsys, set_cap):
    if cap is None:
        monkeypatch.delenv("OPNLAB_PRIME_CAP", raising=False)
    else:
        monkeypatch.setenv("OPNLAB_PRIME_CAP", cap)
    assert main(["sigma", "945"]) == 0
    sieve = primes._default_sieve
    assert main(["sigma", "945"]) == 0
    assert primes._default_sieve is sieve
    # a changed cap, or a refused one, keeps the grown sieve as well, and
    # every read past the cap in force raises the same text
    sieve.ensure_count(2000)
    state = sieve.limit, len(sieve.primes)

    def through_main(value):
        monkeypatch.setenv("OPNLAB_PRIME_CAP", value)
        return main(["sigma", "945"]) == 0

    def through_library(value):
        try:
            set_cap(int(value) if value.isdecimal() else value)
        except InvalidArgument:
            return False
        return True

    for setter in (through_main, through_library):
        for value, in_force in (("50", 50), ("junk", 50), (str(10**6), 10**6)):
            assert setter(value) is (value != "junk")
            assert primes.prime_cap() == in_force
            text = f"requested prime #{in_force + 1} exceeds the sieve cap of {in_force}"
            for read in (primes.nth_prime, lambda k: primes.primes_window(1, k)):
                with pytest.raises(ResourceLimit) as info:
                    read(in_force + 1)
                assert str(info.value) == text
            assert primes._default_sieve is sieve
            assert (sieve.limit, len(sieve.primes)) == state


def test_warm_calls_build_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.delenv("OPNLAB_PRIME_CAP", raising=False)
    # an empty cache, so the counts below do not depend on earlier tests
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    tree = ["opnlab"] + [f"opnlab {command}" for command in cli._GRAMMAR]
    cli.build_parser.__wrapped__()  # an uncached build: the counter sees all six parsers
    assert built == tree
    built.clear()
    plain = (
        ["sigma", "28"],
        ["screen", "945"],
        ["radical", "3", "5", "7", "--mode", "alpha2"],
        ["table", "--m-min", "9", "--m-max", "9"],
        ["constants", "--width", "1e-10", "--format", "csv"],
    )
    # each subcommand's first call, and every warm call, builds no parser
    codes = [main(list(argv)) for argv in plain * 3]
    assert codes == [0, 1, 1, 0, 0] * 3
    assert built == []
    # help, an unrecognized argument and an abbreviation go through the nested tree
    tree_calls = ((["--help"], 0), (["sigma", "28", "29"], 2), (["constants", "--alp", "2"], 0))
    for argv, code in tree_calls:
        cli.build_parser.cache_clear()
        try:
            result = main(argv)
        except SystemExit as exit_:
            result = exit_.code
        assert result == code
        assert built == tree
        built.clear()
    capsys.readouterr()


def test_the_entry_point_reads_sys_argv_and_imports_no_argparse():
    # the opnlab script and python -m opnlab.cli call main() with no argv
    argv = ["constants", "--alpha", "1", "--width", "1e-10", "--format", "csv"]
    script = (
        "import sys\n"
        f"sys.argv = ['opnlab', *{argv!r}]\n"
        "from opnlab.cli import main\n"
        "code = main()\n"
        "print(code, sorted({'argparse', 'locale'} & set(sys.modules)), file=sys.stderr)\n"
        "print(sorted(m for m in sys.modules if m.startswith('opnlab')), file=sys.stderr)\n"
    )
    env = os.environ.copy()
    env.pop("OPNLAB_PRIME_CAP", None)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.stdout.decode() == _golden_stdout(argv)
    # constants needs no sieve, screener, abundancy or table module
    modules = ["opnlab", "opnlab.cli", "opnlab.constants", "opnlab.errors", "opnlab.exact_arith"]
    assert proc.stderr.decode() == f"0 []\n{modules}\n"


# argv tokens: the subcommands, an unknown one, help, "--", every option,
# abbreviations (--m is ambiguous in table), --opt=value forms, valid and
# invalid values, stray positionals, and tokens at the edges of the plain
# form: empty, a bare "-", a negative number, a leading space, a digit group
_COMMANDS = ["sigma", "screen", "radical", "table", "constants"]
_TOKENS = _COMMANDS + [
    "frobnicate", "-h", "--help", "--",
    "--format", "--mode", "--m-min", "--m-max", "--alpha", "--width",
    "--alp", "--w", "--m", "--fo",
    "--format=csv", "--format=xml", "--mode=alpha1", "--alpha=2", "--alp=3", "--width=1e-10",
    "--m-min=9", "--m-max=x",
    "csv", "jsonl", "human", "xml", "auto", "alpha2", "1e-10",
    "3", "5", "7", "9", "28", "-1", "2.5", "x", "3^3*5*7",
    "", "-", "-3", " 3", "1_0",
]  # fmt: skip


def _parse_outcome(parse, argv):
    """("ok", vars(namespace)) or ("exit", code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            namespace = parse(argv)
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())
    return ("ok", vars(namespace))


def _main_parse(argv):
    """The namespace main() hands its subcommand, or main()'s SystemExit."""
    parsed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("OPNLAB_PRIME_CAP", raising=False)
        for command in _COMMANDS:
            mp.setattr(cli, f"_cmd_{command}", lambda args: parsed.append(args) or 0)
        assert main(list(argv)) == 0
    (args,) = parsed
    return args


@settings(max_examples=1000, deadline=None)
@given(
    st.builds(
        lambda first, rest: [first, *rest],
        st.sampled_from(_COMMANDS),
        st.lists(st.sampled_from(_TOKENS), max_size=4),
    )
    | st.lists(st.sampled_from(_TOKENS), max_size=6)
)
def test_main_parses_as_the_nested_tree(argv):
    assert _parse_outcome(_main_parse, argv) == _parse_outcome(
        cli.build_parser().parse_args, argv
    )


# calls at the edges of the plain form, which the test above draws rarely
@pytest.mark.parametrize(
    "argv",
    [
        # an option's value missing, or starting with '-'
        ["constants", "--width"],
        ["constants", "--width", "--alpha", "2"],
        ["constants", "--width", "--"],
        ["constants", "--width", "-1"],
        ["radical", "3", "--mode", "-"],
        # positionals split by an option, or after one
        ["radical", "3", "--mode", "auto", "5"],
        ["sigma", "28", "--format", "csv", "29"],
        ["radical", "--mode", "alpha1", "3", "5", "--format", "csv"],
        # a value outside the choices or the type, also before a repeat
        ["constants", "--format", "xml"],
        ["constants", "--format", "xml", "--format", "csv"],
        ["constants", "--alpha", "2.5", "--alpha", "3"],
        ["table", "--m-min", "10", "--m-min", "9", "--alpha", "1_0"],
        # empty tokens
        ["sigma", ""],
        ["constants", "--width", ""],
    ],
)
def test_edge_calls_parse_as_the_nested_tree(argv):
    assert _parse_outcome(_main_parse, argv) == _parse_outcome(
        cli.build_parser().parse_args, argv
    )
