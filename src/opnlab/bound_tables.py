"""Upper bounds on the smallest prime factors via consecutive-prime windows.

For a number with m distinct prime factors, the k-th smallest prime factor
(k <= 3) is bounded by sliding a window of m-k+1 consecutive primes: the
window product

    rho_r = prefix(k) * prod_{j=r..r+m-k} (1 + 1/p_j)

strictly decreases as the window slides right and tends to the prefix
product (1 for k=1, 4/3 for k=2, 8/5 for k=3), which sits below the
screening threshold.  The first window index certified below the threshold
therefore bounds the k-th prime factor.  The classical comparison value
floor(2m/3 + 3) is reported alongside.

Because rho_r strictly decreases in r, "certified below" is monotone in r,
so the first such index is found by a galloping search (probe r = 2, then
lo+1, lo+2, lo+4, ... past the last index known not to be below) followed by
a bisection of the final bracket: O(log I) window products instead of I.
The window product also grows with m, so I(k, m) is nondecreasing in m and
``generate_table`` starts each search at I(k, m-1) - 1, a known not-below
index, so a row then costs a few window products per column.

Arguments are checked once, at the public entries.  A probe is the window
product as an unreduced integer pair (num, den), prefix included: num is
the prefix numerator times the product of the factor numerators
sigma_alpha(p) = 1 + p + ... + p^alpha over the window, den the prefix
denominator times (prod p)^alpha.  Past the prefix these are the integers
of ``abundancy._truncated_pair``, but both products read a per-alpha store
indexed like the prime stream: the numerators, which
``exact_arith._geometric_sums`` computes once per prime as the store grows
rather than once per probe, and the primes themselves, so a probe is two
C-level products over two list slices.
A probe takes no sieve lock: it compares its last index with the sieve cap
and calls the sieve only to raise its ResourceLimit past the cap, or to
grow the store; a table row reads its three primes from the store too.
The store doubles as the probed indices rise, within the cap; a longer
pair of lists replaces the old one whole, never extended in place, so
concurrent searches share it safely; and it keeps the 8 alphas used most
recently.  Each pair is decided like the radical screen's by
``constants.below``, which compares it with the threshold bracket's grid
integers by cross-multiplication and answers a bool; only ``rho``, which
shows the value, reduces it to a ``Fraction``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .constants import below
from .errors import InvalidArgument, _digits
from .exact_arith import Record, _geometric_sums, as_index
from .primes import nth_prime, prime_cap, primes_window

TABLE_MIN_M = 9  # an odd perfect number has at least 9 distinct prime factors


class BoundTableRow(Record):
    """One ``generate_table`` row: bounds on the three smallest prime factors."""

    __slots__ = ("m", "p_I1", "p_I2", "p_I3", "perisastri")

    def __init__(self, m: int, p_I1: int, p_I2: int, p_I3: int, perisastri: int):
        Record.__init__(self, m, p_I1, p_I2, p_I3, perisastri)


# rho_limit(k) as an integer pair: the product of (1 + 1/p) over the k-1
# primes below the window, which never starts at the prime 2
_PREFIX = {1: (1, 1), 2: (4, 3), 3: (8, 5)}


def _checked(k, m, alpha) -> tuple[int, int, int]:
    """The arguments ``rho`` and ``find_I`` share, coerced to int and checked."""
    k = as_index(k, "k")
    rho_limit(k)  # validates k before anything else
    return k, as_index(m, "m", k), as_index(alpha, "alpha", 1)


@functools.lru_cache(maxsize=8)
def _store(alpha: int) -> list[tuple[list[int], list[int]]]:
    """A one-slot cell holding the lists sigma_alpha(p_1), sigma_alpha(p_2), ...
    and p_1, p_2, ..., of one length.

    Neither list is ever changed: a longer pair is built and rebinds the
    slot, so a concurrent reader holds either pair, and both are correct.
    """
    return [([], [])]


def _factors(alpha: int, count: int) -> tuple[list[int], list[int]]:
    """The stored numerators and primes for alpha, grown to hold at least
    ``count``, which must be within the sieve cap."""
    cell = _store(alpha)
    sigmas, primes = cell[0]
    if len(sigmas) < count:
        # double, within the cap, so a table's slowly rising probes rebuild
        # the lists O(log) times
        size = max(count, min(2 * len(sigmas), prime_cap()))
        new = primes_window(len(sigmas) + 1, size - len(sigmas))
        sigmas = sigmas + _geometric_sums(new, alpha)
        primes = primes + new
        cell[0] = sigmas, primes
    return sigmas, primes


def _window(k: int, m: int, r: int, alpha: int) -> tuple[int, int]:
    """Unreduced (num, den) of the window product; arguments already checked.

    The prefix times the integers of ``abundancy._truncated_pair`` over the
    window, read from the store: no sieve call, and so no sieve lock, unless
    the store must grow.
    """
    end = r + m - k
    if end > prime_cap():
        nth_prime(end)  # the sieve's ResourceLimit, whatever the store holds
    sigmas, primes = _factors(alpha, end)
    num, den = _PREFIX[k]
    return num * math.prod(sigmas[r - 1 : end]), den * math.prod(primes[r - 1 : end]) ** alpha


def rho(k: int, m: int, r: int, alpha: int = 1) -> Fraction:
    """Exact window product for the k-th factor bound with m distinct
    primes, the window starting at the r-th prime, alpha+1 terms per factor."""
    k, m, alpha = _checked(k, m, alpha)
    r = as_index(r, "r", 1)
    return Fraction(*_window(k, m, r, alpha))


def rho_limit(k: int) -> Fraction:
    """Limit of the window product as the window slides right: the prefix.

    k = 4 would need prefix (4/3)(6/5)(8/7) = 64/35, which already exceeds
    16/pi^2, so no window index can ever fall below the threshold and the
    method stops at the third prime factor.
    """
    k = as_index(k, "k")
    if k in (1, 2, 3):
        return Fraction(*_PREFIX[k])
    raise InvalidArgument(
        f"k must be 1, 2, or 3: the k={_digits(k)} prefix product is not below the threshold"
    )


def _find_index(k: int, m: int, alpha: int, above: int = 1) -> int:
    """Smallest r > ``above`` (and r >= 2) whose window is certified below
    the threshold; ``above`` must be an index whose window is not below
    (1 stands for none, since windows never start at the prime 2).

    Such an r exists: windows tend to the prefix, at most 8/5, and the
    threshold 2 * prod_{p odd} (1 - p^-(alpha+1)) rises with alpha from
    16/pi^2 > 1.62, so every prefix lies below every threshold.
    """
    # Probes stay within the sieve cap; only when the last window it can
    # supply is still not below does the next probe (like the linear scan)
    # ask for one prime too many and raise ResourceLimit.
    last = prime_cap() - (m - k)
    base, step = above, 1
    hi = above + 1
    while not below(*_window(k, m, hi, alpha), alpha):
        above = hi
        step *= 2
        hi = min(base + step, max(last, above + 1))
    while hi - above > 1:
        mid = (above + hi) // 2
        if below(*_window(k, m, mid, alpha), alpha):
            hi = mid
        else:
            above = mid
    return hi


def find_I(k: int, m: int, alpha: int = 1) -> int:
    """Smallest window index r >= 2 whose product is certified below the
    alpha threshold.

    Each comparison goes through ``constants.below``, so it is certified
    against a threshold bracket fine enough to decide it.  The window
    product strictly decreases in r, so every later window is below the
    threshold too and the prime at the returned index is an upper bound for
    the k-th smallest prime factor.  That monotonicity lets the search
    gallop (r = 2, 3, 5, 9, ...) to the first certified-below probe and
    then bisect the last bracket; it returns what a linear scan from r = 2
    returns, and raises ResourceLimit exactly where that scan would.
    """
    return _find_index(*_checked(k, m, alpha))


def perisastri_bound(m: int) -> int:
    """Classical comparison bound floor(2m/3 + 3) on the lowest prime factor."""
    m = as_index(m, "m", 1)
    return 2 * m // 3 + 3


def generate_table(m_min: int, m_max: int, alpha: int = 1) -> list[BoundTableRow]:
    """One row per m in [m_min, m_max]: the three prime bounds plus the
    classical comparison column.  Deterministic."""
    m_min = as_index(m_min, "m_min", TABLE_MIN_M)
    m_max = as_index(m_max, "m_max", m_min)
    alpha = as_index(alpha, "alpha", 1)
    rows = []
    # I(k, m) >= I(k, m-1), and window I(k, m-1) - 1 is not below at m-1,
    # hence not below at m: start each search just past it
    index = {1: 2, 2: 2, 3: 2}
    for m in range(m_min, m_max + 1):
        for k in index:
            index[k] = _find_index(k, m, alpha, above=index[k] - 1)
        # every found index was probed, so the store already holds its prime
        _, primes = _factors(alpha, max(index.values()))
        rows.append(
            BoundTableRow(
                m=m,
                p_I1=primes[index[1] - 1],
                p_I2=primes[index[2] - 1],
                p_I3=primes[index[3] - 1],
                perisastri=perisastri_bound(m),
            )
        )
    return rows
