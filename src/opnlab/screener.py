"""Necessary-condition screening for odd perfect number candidates.

Three layers, from structural to analytic:

* ``euler_form_check``: an odd perfect number must be p^b * prod q_i^(2a_i)
  with the single odd-exponent prime p and its exponent b both 1 mod 4.
* ``perfect_check``: sigma(n) = 2n, exactly.
* ``radical_screen``: exponent-free bound tests on the set of distinct
  primes alone.  With alpha = 1 the product prod(1+1/p) must lie strictly
  between 16/pi^2 and 2.  With alpha = 2 the special prime's exponent may
  be 1, so refutation must exclude two cases: every admissible special
  prime q (q = 1 mod 4) via (1+1/q) * prod_{p!=q}(1+1/p+1/p^2), and the
  all-exponents->=2 case via prod(1+1/p+1/p^2), each tested against
  16/(7*zeta(3)) and 2.

Each product is an unreduced integer pair (num, den), the integers of
``abundancy._truncated_pair``: the radical rad = prod p is formed once per
set, den is rad for alpha = 1 and rad * rad for alpha = 2, and num is one
product of the closed-form factors p + 1 or p(p + 1) + 1 from
``exact_arith._geometric_sums``.  A pair is decided like the bound-table
windows: the upper bound by num >= 2 * den, the threshold by
``constants.below``, which cross-multiplies against a certified bracket,
finer only if needed.  The alpha = 2 screen builds the all-even pair once;
each special-prime case is that pair times q(q+1) / (q^2+q+1), and at most
one of them is ever compared (see ``_screen_alpha2_combined``).

The upper test num >= 2 * den also refutes a product of exactly 2.  In
alpha = 2 case 1 that product is sigma(n)/n itself when q has exponent 1
and every other exponent is exactly 2, so refuting it rests on Steuerwald's
theorem (1937): no odd perfect number has the form q * prod p_i^2.

A ``Fraction`` is built only for a witness, so a consistent verdict takes
no gcd.  All witnesses are exact rationals, reduced from their integer
pair by one gcd in ``exact_arith._fraction``.  An alpha = 2 refutation
reduces case 2 once, to n/d; each special prime's witness is then the
reduced product of n/d and q(q+1)/(q^2+q+1), which two small gcds,
gcd(n, q^2+q+1) and gcd(q(q+1), d), bring to lowest terms
(``exact_arith._reduced_product``).  A ``ScreenVerdict`` checks nothing
itself: the screens give it a condition exactly when it violates, and a
witness exactly for a condition other than NotOdd, EulerianForm and
TooFewPrimeFactors.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .abundancy import _check_prime_set, sigma
from .constants import below
from .errors import InvalidArgument, _digits, _quoted
from .exact_arith import Record, _fraction, _geometric_sums, _reduced_product
from .primes import Factorization

MIN_DISTINCT_PRIMES = 9  # every odd perfect number has at least 9 distinct primes


class Outcome(enum.Enum):
    VIOLATES = "Violates"
    CONSISTENT_SO_FAR = "ConsistentSoFar"


class Condition(enum.Enum):
    NOT_ODD = "NotOdd"
    NOT_PERFECT = "NotPerfect"
    EULERIAN_FORM = "EulerianForm"
    TOO_FEW_PRIME_FACTORS = "TooFewPrimeFactors"
    ALPHA1_LOWER_BOUND = "Alpha1LowerBound"
    ALPHA1_UPPER_BOUND = "Alpha1UpperBound"
    ALPHA2_CASE1 = "Alpha2Case1"
    TRIPLE_EXCLUSION_357 = "TripleExclusion357"


class Mode(enum.Enum):
    ALPHA1 = "alpha1"
    ALPHA2_CASE1 = "alpha2case1"
    AUTO = "auto"


class ScreenVerdict(Record):
    """Outcome of one necessary-condition test.

    ``witness`` is the offending product value for bound conditions, or
    sigma(n)/n for the perfect check.  ``case_witnesses`` is only populated
    by the combined alpha=2 screen and records every per-case product that
    had to fail for the refutation to go through.
    """

    __slots__ = ("outcome", "violated_condition", "witness", "case_witnesses")

    def __init__(
        self,
        outcome: Outcome,
        violated_condition: Condition | None = None,
        witness: Fraction | None = None,
        case_witnesses: tuple[tuple[str, Fraction], ...] | None = None,
    ):
        Record.__init__(self, outcome, violated_condition, witness, case_witnesses)

    @property
    def violates(self) -> bool:
        return self.outcome is Outcome.VIOLATES


_CONSISTENT = ScreenVerdict(Outcome.CONSISTENT_SO_FAR)
_NOT_ODD = ScreenVerdict(Outcome.VIOLATES, Condition.NOT_ODD)
_BAD_FORM = ScreenVerdict(Outcome.VIOLATES, Condition.EULERIAN_FORM)
_TOO_FEW = ScreenVerdict(Outcome.VIOLATES, Condition.TOO_FEW_PRIME_FACTORS)


def euler_form_check(f: Factorization) -> ScreenVerdict:
    """Structural test of the Eulerian form: exactly one odd exponent, with
    its prime and the exponent both 1 mod 4.  n = 1 has no special prime."""
    if f.factors and f.factors[0][0] == 2:
        return _NOT_ODD
    odd = [(p, e) for p, e in f.factors if e % 2 == 1]
    if len(odd) == 1 and odd[0][0] % 4 == 1 and odd[0][1] % 4 == 1:
        return _CONSISTENT
    return _BAD_FORM


def perfect_check(f: Factorization) -> ScreenVerdict:
    s = sigma(f)
    n = f.n
    if s == 2 * n:
        return _CONSISTENT
    return ScreenVerdict(Outcome.VIOLATES, Condition.NOT_PERFECT, _fraction(s, n))


def _odd_prime_set(primes) -> tuple[int, ...]:
    ps = _check_prime_set(primes)
    if ps and ps[0] == 2:
        raise InvalidArgument("radical screening accepts odd primes only")
    return ps


def _screen_alpha1(ps, rad: int) -> ScreenVerdict:
    """prod (1 + 1/p) as (prod (p + 1), rad), against 2 and 16/pi^2."""
    num = math.prod(_geometric_sums(ps, 1))
    if num >= 2 * rad:
        condition = Condition.ALPHA1_UPPER_BOUND
    elif below(num, rad, 1):
        condition = Condition.ALPHA1_LOWER_BOUND
    else:
        return _CONSISTENT
    return ScreenVerdict(Outcome.VIOLATES, condition, _fraction(num, rad))


def _screen_alpha2_combined(ps, den: int) -> ScreenVerdict:
    """Refute only if the all-even case and every admissible special prime fail.

    Case 1 for q is case 2 times q(q+1)/(q^2+q+1) = 1 - 1/(q^2+q+1), a factor
    that grows with q and is at least 30/31 (q = 5).  Case 2 below the
    threshold therefore puts every case 1 below it, and no case is tested.
    Case 2 at or above 2 puts every case 1 at or above 60/31, which lies
    above the threshold because zeta(3) > 1 + 1/8 + 1/27 + 1/64 + 1/125 >
    496/420; so a case 1 survives exactly when it is below 2, and the
    smallest q has the smallest case: one comparison decides them all.
    With no prime = 1 mod 4 in the set the special-prime case is impossible,
    and case 2 alone decides.  Case witnesses are built only on a refutation.
    Case 2 is (prod (p(p + 1) + 1), den), where den = rad^2.
    """
    num = math.prod(_geometric_sums(ps, 2))
    if num >= 2 * den:
        q = next((q for q in ps if q % 4 == 1), None)
        # swap the smallest q's factor (q^2+q+1)/q^2 for (q+1)/q
        if q is not None and num * (q * (q + 1)) < 2 * den * (q * q + q + 1):
            return _CONSISTENT
    elif not below(num, den, 2):
        return _CONSISTENT
    # reduce case 2 once and swap each case in by a reduced product, whose
    # two gcds are large-by-small: reducing each swapped pair would cost a
    # big-by-big gcd per case
    case2 = _fraction(num, den)
    n, d = case2.numerator, case2.denominator
    cases = [("case2", case2)]
    for q in ps:
        if q % 4 == 1:
            a = q * (q + 1)
            cases.append((f"case1[q={q}]", _reduced_product(n, d, a, a + 1)))
    # ps is sorted, distinct and odd, so it holds 3, 5 and 7 only as its head
    condition = (
        Condition.TRIPLE_EXCLUSION_357 if ps[:3] == (3, 5, 7) else Condition.ALPHA2_CASE1
    )
    return ScreenVerdict(Outcome.VIOLATES, condition, case2, tuple(cases))


def radical_screen(primes, mode: Mode = Mode.AUTO) -> ScreenVerdict:
    """Exponent-free bound screening on a set of distinct odd primes."""
    return _radical_screen(_odd_prime_set(primes), mode)


def _radical_screen(ps: tuple[int, ...], mode: Mode) -> ScreenVerdict:
    # ps must already be a sorted tuple of distinct odd proven primes; the
    # radical is formed once, and squared for alpha 2
    if mode is Mode.AUTO:
        if len(ps) < MIN_DISTINCT_PRIMES:
            return _TOO_FEW
        rad = math.prod(ps)
        verdict = _screen_alpha1(ps, rad)
        if verdict.violates:
            return verdict
        return _screen_alpha2_combined(ps, rad * rad)
    if mode is Mode.ALPHA1:
        return _screen_alpha1(ps, math.prod(ps))
    if mode is Mode.ALPHA2_CASE1:
        return _screen_alpha2_combined(ps, math.prod(ps) ** 2)
    shown = _digits(mode) if isinstance(mode, int) else _quoted(mode)
    raise InvalidArgument(f"unknown screening mode: {shown}")


def full_screen(f: Factorization) -> list[ScreenVerdict]:
    """Eulerian form, perfect check, then radical screen, in that order.

    An even input cannot feed the odd-only radical screen, so its radical
    verdict is the structural NotOdd refutation.  An odd Factorization's
    radical was proven prime, distinct and sorted when it was built, so it
    goes to the radical screen without being checked again.
    """
    verdicts = [euler_form_check(f), perfect_check(f)]
    if f.factors and f.factors[0][0] == 2:
        verdicts.append(_NOT_ODD)
    else:
        verdicts.append(_radical_screen(f.radical, Mode.AUTO))
    return verdicts
