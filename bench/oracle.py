"""Reference answers for the benchmark, computed without importing opnlab.

Every check here rests on plain integer and ``Fraction`` arithmetic written
for the benchmark alone: a segmented prime-divisor sieve for factorizations,
integer Machin series for pi, and an accelerated alternating eta series for
zeta(3) and zeta(5).  Each constant bracket is rounded
outward, so a comparison the oracle decides is a proof, and a comparison it
cannot decide at one precision is retried at a higher one.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from outputs import fmt_factors, fmt_row, fmt_verdict

# 16/pi^2 and 16/(7 zeta(3)) rounded to 9 decimals, as the paper quotes them
REFERENCE_DECIMALS = {1: Fraction("1.621138938"), 2: Fraction("1.901502566")}
REFERENCE_HALF_ULP = Fraction(1, 2 * 10**9)

# the m = 9..20 bound table at alpha = 1, as published
GOLDEN_TABLE = {
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


class Undecided(Exception):
    """A rational sits inside even the oracle's finest threshold bracket."""


# --- primes ---------------------------------------------------------------


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit, by a plain sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def factor_window(start: int, count: int) -> list[tuple[tuple[int, int], ...]]:
    """Factorizations of the odd numbers start, start+2, ... (count of them).

    Each prime up to sqrt of the largest number marks its multiples in the
    window, which gives every number its small prime divisors in increasing
    order; what is left after dividing them out is 1 or a single prime.
    """
    last = start + 2 * (count - 1)
    divisors: list[list[int]] = [[] for _ in range(count)]
    for p in primes_upto(math.isqrt(last) + 1):
        # first index i with p | start + 2i, if any
        for i in range(min(p, count)):
            if (start + 2 * i) % p == 0:
                for j in range(i, count, p):
                    divisors[j].append(p)
                break
    out = []
    for i, ps in enumerate(divisors):
        n = start + 2 * i
        pairs = []
        for p in ps:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        if n > 1:
            pairs.append((n, 1))
        out.append(tuple(pairs))
    return out


# --- certified constant brackets ------------------------------------------


def _arctan_inv_scaled(x: int, scale: int) -> tuple[int, int]:
    """(value, error) with |arctan(1/x)*scale - value| <= error.

    Every term floor(scale / ((2k+1) x^(2k+1))) is an exact floor, so each
    loses less than one unit; the omitted alternating tail is below the
    first omitted term, which is below one unit when the loop stops.
    """
    power = scale // x
    total = 0
    k = 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k % 2 else term
        power //= x * x
        k += 1
    return total, k + 1


def pi_bracket(digits: int) -> tuple[Fraction, Fraction]:
    """Certified [lo, hi] around pi, width about 10^-digits."""
    scale = 10 ** (digits + 10)
    a, ea = _arctan_inv_scaled(5, scale)
    b, eb = _arctan_inv_scaled(239, scale)
    value = 16 * a - 4 * b
    err = 16 * ea + 4 * eb
    return Fraction(value - err, scale), Fraction(value + err, scale)


def zeta_bracket(s: int, digits: int) -> tuple[Fraction, Fraction]:
    """Certified [lo, hi] around zeta(s), s >= 2, width below 10^-digits.

    zeta(s) = eta(s) / (1 - 2^(1-s)) with eta(s) = sum_{k>=0} (-1)^k / (k+1)^s,
    summed by Algorithm 1 of Cohen, Rodriguez Villegas and Zagier,
    "Convergence acceleration of alternating series" (2000), in exact
    Fractions.  The terms 1/(k+1)^s are moments of a positive measure on
    [0, 1], so after n steps the error is at most 2 eta(s) / (3+sqrt 8)^n,
    below 2 / 5^n as eta(s) < 1.
    """
    n = math.ceil((digits + 2) / math.log10(5))
    d_prev, d = 1, 3  # d = ((3+sqrt 8)^n + (3-sqrt 8)^n) / 2, an integer
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c, total = Fraction(-1), Fraction(-d), Fraction(0)
    for k in range(n):
        c = b - c
        total += c / (k + 1) ** s
        b = b * (k + n) * (k - n) / (Fraction(2 * k + 1, 2) * (k + 1))
    eta = total / d
    err = Fraction(2, 5**n)
    factor = 1 / (1 - Fraction(1, 2 ** (s - 1)))
    return (eta - err) * factor, (eta + err) * factor


def _outward(lo: Fraction, hi: Fraction, digits: int) -> tuple[int, int, int]:
    scale = 10**digits
    return math.floor(lo * scale), math.ceil(hi * scale), scale


def threshold_bracket(alpha: int, digits: int) -> tuple[int, int, int]:
    """(lo, hi, scale): lo/scale <= 2^(a+2) / ((2^(a+1)-1) zeta(a+1)) <= hi/scale."""
    if alpha == 1:  # 16 / pi^2
        p_lo, p_hi = pi_bracket(digits + 2)
        return _outward(16 / (p_hi * p_hi), 16 / (p_lo * p_lo), digits)
    if alpha == 2:  # 16 / (7 zeta(3))
        z_lo, z_hi = zeta_bracket(3, digits + 2)
        return _outward(Fraction(16, 7) / z_hi, Fraction(16, 7) / z_lo, digits)
    if alpha == 3:  # 32 / (15 zeta(4)), zeta(4) = pi^4 / 90
        p_lo, p_hi = pi_bracket(digits + 2)
        return _outward(192 / p_hi**4, 192 / p_lo**4, digits)
    if alpha == 4:  # 64 / (31 zeta(5))
        z_lo, z_hi = zeta_bracket(5, digits + 2)
        return _outward(Fraction(64, 31) / z_hi, Fraction(64, 31) / z_lo, digits)
    raise ValueError(f"no reference bracket for alpha={alpha}")


class Thresholds:
    """Brackets of the alpha = 1 and alpha = 2 thresholds, tightened on demand."""

    LADDER = (40, 200, 1000)

    def __init__(self):
        self._brackets: dict[tuple[int, int], tuple[int, int, int]] = {}
        # the oracle's own constants must agree with the published decimals
        for alpha, ref in REFERENCE_DECIMALS.items():
            lo, hi = ref - REFERENCE_HALF_ULP, ref + REFERENCE_HALF_ULP
            if not self.below(lo.numerator, lo.denominator, alpha) or self.below(
                hi.numerator, hi.denominator, alpha
            ):
                raise AssertionError(f"alpha={alpha} threshold does not round to {ref}")

    def below(self, num: int, den: int, alpha: int) -> bool:
        """Exactly whether num/den < threshold(alpha)."""
        for digits in self.LADDER:
            key = (alpha, digits)
            if key not in self._brackets:
                self._brackets[key] = threshold_bracket(alpha, digits)
            lo, hi, scale = self._brackets[key]
            if num * scale < lo * den:
                return True
            if num * scale > hi * den:
                return False
        raise Undecided(f"{num}/{den} against the alpha={alpha} threshold")


# --- expected outputs -----------------------------------------------------


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def sweep_expected(n: int, factors: tuple[tuple[int, int], ...]) -> str:
    """Output of full_screen(factorize(n)) for an odd n with fewer than 9 primes."""
    odd = [(p, e) for p, e in factors if e % 2]
    euler_ok = len(odd) == 1 and odd[0][0] % 4 == 1 and odd[0][1] % 4 == 1
    sigma = 1
    for p, e in factors:
        sigma *= (p ** (e + 1) - 1) // (p - 1)
    perfect = None if sigma == 2 * n else ("NotPerfect", _reduced(sigma, n), None)
    if len(factors) >= 9:
        raise ValueError(f"{n} has 9 or more distinct primes; the sweep oracle stops at 8")
    verdicts = [
        None if euler_ok else ("EulerianForm", None, None),
        perfect,
        ("TooFewPrimeFactors", None, None),
    ]
    return f"{n}={fmt_factors(factors)}:" + ";".join(fmt_verdict(v) for v in verdicts)


def radical_expected(ps: list[int], thresholds: Thresholds) -> str:
    """Output of radical_screen(ps, Mode.AUTO) for distinct odd primes ps."""
    ps = sorted(ps)
    if len(ps) < 9:
        return fmt_verdict(("TooFewPrimeFactors", None, None))
    n1 = d1 = 1
    for p in ps:
        n1 *= p + 1
        d1 *= p
    if n1 >= 2 * d1:
        return fmt_verdict(("Alpha1UpperBound", _reduced(n1, d1), None))
    if thresholds.below(n1, d1, 1):
        return fmt_verdict(("Alpha1LowerBound", _reduced(n1, d1), None))

    g_num = g_den = 1
    for p in ps:
        g_num *= p * p + p + 1
        g_den *= p * p

    def outside(num: int, den: int) -> bool:
        return num >= 2 * den or thresholds.below(num, den, 2)

    case2 = _reduced(g_num, g_den)
    cases = [("case2", case2)]
    refuted = outside(*case2)
    for q in ps:
        if q % 4 != 1:
            continue
        # (1 + 1/q) * prod_{p != q} (1 + 1/p + 1/p^2)
        value = _reduced((q + 1) * q * (g_num // (q * q + q + 1)), g_den)
        cases.append((f"case1[q={q}]", value))
        if not outside(*value):
            refuted = False
    if not refuted:
        return fmt_verdict(None)
    condition = "TripleExclusion357" if {3, 5, 7} <= set(ps) else "Alpha2Case1"
    return fmt_verdict((condition, case2, cases))


_PREFIX = {1: (1, 1), 2: (4, 3), 3: (8, 5)}


def _first_window_below(
    k: int, m: int, alpha: int, primes: list[int], thresholds: Thresholds
) -> int:
    """Smallest r >= 2 with prefix(k) * prod_{j=r}^{r+m-k} g(p_j) < threshold.

    g(p) = 1 + 1/p (+ 1/p^2 for alpha = 2), p_j the j-th prime (p_1 = 2).
    The window product is kept as an integer numerator and denominator and
    slid one prime at a time with exact divisions.
    """
    size = m - k + 1

    def g(p: int) -> tuple[int, int]:
        if alpha == 1:
            return p + 1, p
        return p * p + p + 1, p * p

    pre_num, pre_den = _PREFIX[k]
    num, den = pre_num, pre_den
    for p in primes[1 : 1 + size]:  # window starting at p_2
        a, b = g(p)
        num *= a
        den *= b
    r = 2
    while True:
        if thresholds.below(num, den, alpha):
            return r
        a, b = g(primes[r - 1])
        c, d = g(primes[r - 1 + size])
        num = num // a * c
        den = den // b * d
        r += 1


def table_expected(rows: list[tuple[int, int]], thresholds: Thresholds) -> list[str]:
    """Rows of generate_table(m, m, alpha) for each (m, alpha)."""
    primes = primes_upto(50_000)
    out = []
    for m, alpha in rows:
        bounds = tuple(
            primes[_first_window_below(k, m, alpha, primes, thresholds) - 1] for k in (1, 2, 3)
        )
        if alpha == 1 and m in GOLDEN_TABLE and bounds != GOLDEN_TABLE[m]:
            raise AssertionError(f"oracle scan disagrees with the golden row m={m}")
        out.append(fmt_row(alpha, m, *bounds, (2 * m + 9) // 3))
    return out


# --- constants csv ----------------------------------------------------------


def _decimal(q: Fraction, digits: int) -> str:
    whole, frac = divmod(q.numerator * 10**digits, q.denominator)
    whole_part, frac_part = divmod(whole, 10**digits)
    return f"{whole_part}.{frac_part:0{digits}d}"


def _display_digits(width: Fraction) -> int:
    d = 0
    while Fraction(1, 10**d) > width:
        d += 1
    return d + 1


def _parse_frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den))


def constants_reference(alpha: int, exponent: int) -> dict:
    """Bracket of the alpha threshold about 10^-4 of the finest width asked."""
    lo, hi, _ = threshold_bracket(alpha, exponent + 4)
    return {"lo": str(lo), "hi": str(hi), "digits": exponent + 4}


def check_constants_csv(entry: dict, output: str) -> str | None:
    """None if `opnlab constants --format csv` printed a sound answer, else why not.

    ``output`` is the exit code, a newline, then everything printed.
    """
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _check_constants_csv(entry, output)
    except (ValueError, ZeroDivisionError) as exc:
        return f"unparsable csv: {exc}"
    finally:
        sys.set_int_max_str_digits(old_limit)


def _check_constants_csv(entry: dict, output: str) -> str | None:
    code, _, text = output.partition("\n")
    if code != "0":
        return f"exit code {code}"
    lines = text.split("\n")
    if len(lines) != 3 or lines[2] != "" or lines[0] != "alpha,lo,hi,width,value_decimal":
        return "expected a csv header and one row"
    fields = lines[1].split(",")
    if len(fields) != 5 or fields[0] != str(entry["alpha"]):
        return "malformed csv row"
    lo, hi, width = (_parse_frac(f) for f in fields[1:4])
    requested = Fraction(entry["width"])
    if not lo < hi:
        return "lo is not below hi"
    if width != hi - lo or fields[3] != f"{width.numerator}/{width.denominator}":
        return "width column is not hi - lo"
    if width > requested:
        return f"width {float(width):.3g} exceeds the requested {entry['width']}"
    scale = 10 ** entry["digits"]
    if not (lo * scale <= int(entry["lo"]) and int(entry["hi"]) <= hi * scale):
        return "enclosure does not contain the reference bracket"
    ref = REFERENCE_DECIMALS.get(entry["alpha"])
    if ref is not None and (hi < ref - REFERENCE_HALF_ULP or lo > ref + REFERENCE_HALF_ULP):
        return f"enclosure misses the reference decimal {float(ref)}"
    if fields[4] != _decimal((lo + hi) / 2, _display_digits(requested)):
        return "value_decimal is not the truncated midpoint"
    return None
