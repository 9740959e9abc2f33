"""Command-line front end: screening, divisor sums, constants, bound tables.

Subcommands: sigma, screen, radical, table, constants.  Output formats are
human (default), csv, and jsonl; the machine formats are byte-deterministic
for identical inputs.  Exit codes: 0 consistent/success, 1 refuted, 2 on
usage or internal errors.  Every decimal rendering comes from one exact
integer division of the underlying rational, truncated toward zero, never
through floating point.  ``constants`` prints its bracket's midpoint to
min(d, MAX_DECIMAL_DIGITS) + 1 places, where d is the least integer with
10^-d <= width.  It prints the grid integers (lo, hi, bits) of
``constants._threshold_ends`` with no ``Fraction``: lo, hi and the width
as dyadic fractions reduced by their trailing zero bits, and the decimal
as a shift of a grid integer.

Every printed int goes through ``_int_str``, which no int-to-str digit limit
stops; the limit (PYTHONINTMAXSTRDIGITS) bounds every integer argument
instead: one past it, or a non-integer as long, exits 2 with one line
quoting at most 100 characters.  A sigma or screen factorization is refused
before any arithmetic when its sum of e * bit_length(p) is past 2^17 bits.

``main()`` reads a plain call straight from the grammar table, building no
parser and importing no argparse.  Any other call (help, a usage error, an
abbreviated or ``--opt=value`` form) goes to the ``build_parser()`` argparse
tree, which the plain reading must equal.  A call imports only the modules
its command uses.  Each sigma, screen, radical and table call sets the prime
cap, which bounds the primes it reads and leaves the grown sieve in place,
from OPNLAB_PRIME_CAP, or the default when it is unset; constants has no
sieve and does not read the variable.

Each subcommand builds its output once as a list of flat records, whose keys
are the csv columns and the jsonl keys.  csv is a header line plus one row
per record; jsonl is one JSON object per record.  A missing value
(None) is an empty csv cell and a JSON null.  A dict field (radical's
``cases``) is one csv cell of ``label=value`` pairs joined by ';'.  A list
field (radical's ``primes``) appears in jsonl only.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .constants import _threshold_ends
from .errors import OpnlabError, ParseError, _quoted
from .exact_arith import as_rational

SIGMA_DECIMAL_DIGITS = 12
MAX_DECIMAL_DIGITS = 10_000  # certified places shown by ``constants``, before its display digit
# sigma(3^65535) takes about 0.13 s on a 2-vCPU host, and the cost grows
# quadratically: 3^1000000, about 2 million bits, is refused
_MAX_FACTORIZATION_BITS = 1 << 17

_FACTOR_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def _int_str(n: int) -> str:
    """str(n), also past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:  # past the limit, which decimal does not have
        from decimal import Decimal

        return str(Decimal(n))


def _int(text: str) -> int:
    """int(text), but a ParseError quoting the head of a text longer than the
    interpreter's int-to-str digit limit: past the limit, or not an integer."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if not 0 < limit < len(text):
            raise
        if not re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):  # as int() reads a decimal
            raise ParseError(f"not an integer: {_quoted(text)}") from None
        message = f"is longer than the limit of {limit} digits; PYTHONINTMAXSTRDIGITS raises it"
        raise ParseError(f"integer {_quoted(text)} {message}") from None


_int.__name__ = "int"  # argparse's usage error names the type: "invalid int value"


def decimal_str(q: Fraction, digits: int) -> str:
    """Decimal rendering of |q| truncated toward zero, with q's sign, by one
    exact integer division."""
    sign = "-" if q < 0 else ""
    whole, rem = divmod(abs(q.numerator), q.denominator)
    if digits <= 0:
        return sign + _int_str(whole)
    return f"{sign}{_int_str(whole)}." + _int_str(rem * 10**digits // q.denominator).zfill(digits)


def frac_str(q: Fraction) -> str:
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def parse_factorization(text: str):
    """Parse 'n' (auto-factorized) or explicit 'p^e*p^e*...' ('^e' optional)
    into a ``primes.Factorization``."""
    from .primes import Factorization, factorize

    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty factorization")
    pairs = []  # a decimal n is the one pair (n, 1)
    for part in compact.split("*"):
        m = _FACTOR_RE.match(part)
        if not m:
            raise ParseError(f"cannot parse factor {_quoted(part)}")
        pairs.append((_int(m.group(1)), _int(m.group(2) or "1")))
    if sum(e * p.bit_length() for p, e in pairs) > _MAX_FACTORIZATION_BITS:
        raise ParseError(
            f"factorization is past {_MAX_FACTORIZATION_BITS} bits (the sum of e * bit_length(p))"
        )
    if compact.isdecimal():
        return factorize(pairs[0][0])
    return Factorization.from_pairs(pairs)


def parse_width(text: str) -> Fraction:
    try:
        width = as_rational(text)
    except OpnlabError as exc:
        raise ParseError(f"cannot parse width: {exc}") from exc
    if width <= 0:
        raise ParseError(f"width must be > 0, got {_quoted(text)}")
    return width


def _certified_digits(width: Fraction) -> int:
    """Least d >= 0 with 10^-d <= width, capped at MAX_DECIMAL_DIGITS, plus
    one display digit."""
    # 10^-d <= width  <=>  10^d >= ceil(den / num)  <=>  10^d > n with
    # n = ceil(den / num) - 1, so d is the digit count of n (0 when n is 0)
    n = -(-width.denominator // width.numerator) - 1
    if n <= 0:
        return 1
    # log10(2) ~ 0.30103, so below 10^7 digits d is off by at most one
    d = n.bit_length() * 30103 // 100_000
    if d > MAX_DECIMAL_DIGITS:
        return MAX_DECIMAL_DIGITS + 1
    if 10**d <= n:
        d += 1
    elif 10 ** (d - 1) > n:
        d -= 1
    return min(d, MAX_DECIMAL_DIGITS) + 1


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, dict):
        return ";".join(f"{label}={v}" for label, v in value.items())
    return value if isinstance(value, str) else _int_str(value)


def _render(fmt: str, records: list[dict], human) -> None:
    """The only csv and jsonl writer (rules in the module docstring); human
    output is the command's own ``human(records)`` lines."""
    if fmt == "csv":
        columns = [k for k, v in records[0].items() if not isinstance(v, list)]
        lines = [",".join(columns)]
        lines.extend(",".join(_cell(r[k]) for k in columns) for r in records)
    elif fmt == "jsonl":
        import json

        def pair(key, v):  # json.dumps refuses an int past the digit limit
            return f"{json.dumps(key)}: {_int_str(v) if type(v) is int else json.dumps(v)}"

        lines = ["{" + ", ".join(pair(k, v) for k, v in r.items()) + "}" for r in records]
    else:
        lines = human(records)
    for line in lines:
        print(line)


# --- sigma ---------------------------------------------------------------


def _sigma_lines(records) -> list[str]:
    (r,) = records
    return [
        f"n: {_int_str(r['n'])}",
        f"factorization: {r['factorization']}",
        f"sigma: {_int_str(r['sigma'])}",
        f"sigma_minus_one: {r['sigma_minus_one']} (~{r['sigma_minus_one_decimal']})",
        f"classification: {r['classification']}",
    ]


def _cmd_sigma(args) -> int:
    from .abundancy import abundancy_report

    f = parse_factorization(args.number)
    report = abundancy_report(f)
    record = {
        "n": report.n,
        "factorization": str(f),
        "sigma": report.sigma,
        "sigma_minus_one": frac_str(report.sigma_minus_one),
        "sigma_minus_one_decimal": decimal_str(report.sigma_minus_one, SIGMA_DECIMAL_DIGITS),
        "classification": report.classification.value,
    }
    _render(args.format, [record], _sigma_lines)
    return 0


# --- screen --------------------------------------------------------------

_CHECK_NAMES = ("eulerian_form", "perfect", "radical")


def _verdict_fields(v) -> dict:
    """The fields of a ``screener.ScreenVerdict``."""
    w = v.witness
    return {
        "outcome": v.outcome.value,
        "violated_condition": v.violated_condition.value if v.violated_condition else None,
        "witness": frac_str(w) if w is not None else None,
        "witness_decimal": decimal_str(w, SIGMA_DECIMAL_DIGITS) if w is not None else None,
    }


def _verdict_line(name: str, r: dict) -> str:
    line = f"{name}: {r['outcome']}"
    if r["violated_condition"] is not None:
        line += f"[{r['violated_condition']}]"
    if r["witness"] is not None:
        line += f" witness={r['witness']} (~{r['witness_decimal']})"
    return line


def _cmd_screen(args) -> int:
    from . import screener

    f = parse_factorization(args.factorization)
    verdicts = screener.full_screen(f)
    records = [
        {"check": name, **_verdict_fields(v)} for name, v in zip(_CHECK_NAMES, verdicts)
    ]
    _render(args.format, records, lambda rs: [_verdict_line(r["check"], r) for r in rs])
    return 1 if any(v.violates for v in verdicts) else 0


# --- radical -------------------------------------------------------------

# --mode value -> the name of its ``screener.Mode`` member
_MODES = {"auto": "AUTO", "alpha1": "ALPHA1", "alpha2": "ALPHA2_CASE1"}


def _radical_lines(r: dict, case_witnesses) -> list[str]:
    lines = [
        "primes: " + " ".join(str(p) for p in r["primes"]),
        f"mode: {r['mode']}",
        _verdict_line("outcome", r),
    ]
    for label, value in case_witnesses or ():
        lines.append(f"{label}: {r['cases'][label]} (~{decimal_str(value, SIGMA_DECIMAL_DIGITS)})")
    return lines


def _cmd_radical(args) -> int:
    from . import screener

    verdict = screener.radical_screen(args.primes, screener.Mode[_MODES[args.mode]])
    record = {
        "mode": args.mode,
        "primes": list(args.primes),
        **_verdict_fields(verdict),
        "cases": {label: frac_str(value) for label, value in verdict.case_witnesses or ()},
    }
    _render(args.format, [record], lambda rs: _radical_lines(*rs, verdict.case_witnesses))
    return 1 if verdict.violates else 0


# --- table ---------------------------------------------------------------


def _table_lines(records) -> list[str]:
    cells = [list(records[0])] + [[str(x) for x in r.values()] for r in records]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]


def _cmd_table(args) -> int:
    from . import bound_tables

    rows = bound_tables.generate_table(args.m_min, args.m_max, args.alpha)
    records = [{name: getattr(r, name) for name in r.__match_args__} for r in rows]
    _render(args.format, records, _table_lines)
    return 0


# --- constants -----------------------------------------------------------


def _constants_lines(records) -> list[str]:
    (r,) = records
    return [
        f"alpha: {r['alpha']}",
        f"lo: {r['lo']}",
        f"hi: {r['hi']}",
        f"width: {r['width']}",
        f"value: ~{r['value_decimal']}",
    ]


def _dyadic_str(n: int, bits: int) -> str:
    """n / 2^bits in lowest terms, for n > 0 not a multiple of 2^bits."""
    zeros = (n & -n).bit_length() - 1
    return f"{_int_str(n >> zeros)}/{_int_str(1 << (bits - zeros))}"


def _cmd_constants(args) -> int:
    width = parse_width(args.width)
    # 2^bits < lo < hi < 2^(bits+1), so lo and hi reduce by fewer than bits zeros
    lo, hi, bits = _threshold_ends(args.alpha, width)
    digits = _certified_digits(width)
    mid = (lo + hi) >> 1  # hi - lo = 32: exact
    record = {
        "alpha": args.alpha,
        "lo": _dyadic_str(lo, bits),
        "hi": _dyadic_str(hi, bits),
        "width": _dyadic_str(hi - lo, bits),
        # decimal_str of mid / 2^bits: floor(frac * 10^digits) by one shift
        "value_decimal": f"{_int_str(mid >> bits)}."
        + _int_str(((mid & ((1 << bits) - 1)) * 10**digits) >> bits).zfill(digits),
    }
    _render(args.format, [record], _constants_lines)
    return 0


# --- wiring --------------------------------------------------------------


# subcommand -> (help, *argument specs); a spec is add_argument's (name, keywords).
# _plain_call reads these as argparse does because every spec uses only help,
# type, choices, default and nargs="+" (on a positional), and no default is a
# str that a type would convert; test_cli checks that of every spec.
_GRAMMAR = {
    "sigma": (
        "divisor sum and reciprocal-divisor sum",
        ("number", dict(help="integer or factorization like 3^3*5*7")),
    ),
    "screen": (
        "run all necessary-condition checks",
        ("factorization", dict(help="integer or factorization like 3^2*7^2*11^2*13")),
    ),
    "radical": (
        "exponent-free screening on a prime set",
        ("primes", dict(nargs="+", type=_int, help="distinct odd primes")),
        ("--mode", dict(choices=sorted(_MODES), default="auto")),
    ),
    "table": (
        "bound table for the three smallest prime factors",
        ("--m-min", dict(type=_int, default=9)),
        ("--m-max", dict(type=_int, default=20)),
        ("--alpha", dict(type=_int, default=1)),
    ),
    "constants": (
        "certified threshold enclosure",
        ("--alpha", dict(type=_int, default=1)),
        ("--width", dict(default="1e-30", help="target enclosure width")),
    ),
}
_FORMAT = "--format", dict(choices=("human", "csv", "jsonl"), default="human", help="output format")


def _plain_call(argv):
    """What ``build_parser().parse_args(argv)`` returns, read straight from
    ``_GRAMMAR``, when ``argv`` is a subcommand, then its options each by
    full name with a value not starting with '-', and one unbroken run of
    non-empty positionals; None for any other call."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    specs = dict((*_GRAMMAR[argv[0]][1:], _FORMAT))
    given, run, closed, tokens = {}, [], False, iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            value = next(tokens, "-")  # a missing value fails as one starting with '-'
            if token not in specs or value.startswith("-"):
                return None
            given.setdefault(token, []).append(value)
            closed = bool(run)  # a positional after this would split the run
        elif token and not closed:
            run.append(token)
        else:
            return None
    args = SimpleNamespace(command=argv[0])
    for name, keywords in specs.items():
        default, plural = keywords.get("default"), keywords.get("nargs") == "+"
        option, dest = name.startswith("-"), name.lstrip("-").replace("-", "_")
        strings, run = (given.get(name, ()), run) if option else (run, [])
        if not (option or len(strings) == 1 or plural and strings):
            return None
        try:
            values = [keywords.get("type", str)(s) for s in strings]
        except (TypeError, ValueError, ParseError):  # argparse reports each
            return None
        if "choices" in keywords and any(v not in keywords["choices"] for v in values):
            return None
        # an option not given takes its default; of several, the last one wins
        setattr(args, dest, values if plural else (values or [default])[-1])
    return None if run else args  # a run no positional takes


@functools.cache
def build_parser():
    """Every subcommand's parser nested in one argparse tree, shared by every
    caller: do not modify it.  ``main()`` parses with it what ``_plain_call`` does not.
    An integer argument longer than the digit limit raises ParseError, not a usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="opnlab",
        description="Odd-perfect-number necessary conditions: screening, "
        "divisor sums, certified constants, and prime-factor bound tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, *specs) in _GRAMMAR.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, keywords in (*specs, _FORMAT):
            command_parser.add_argument(name, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # an integer argument longer than the digit limit raises ParseError
        args = _plain_call(argv) or build_parser().parse_args(argv)
        if args.command != "constants":  # the one command with no sieve
            from . import primes

            cap = os.environ.get("OPNLAB_PRIME_CAP", primes.DEFAULT_PRIME_CAP)
            try:
                cap = int(cap)
            except ValueError:
                pass  # not an integer: the cap's own check quotes the text
            try:
                primes.set_prime_cap(cap)
            except OpnlabError as exc:
                raise ParseError(f"bad OPNLAB_PRIME_CAP: {exc}") from None
        return globals()["_cmd_" + args.command](args)
    except OpnlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means refuted, so a crash must not reach it
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
