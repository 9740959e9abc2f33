"""Prime generation, primality testing, and desk-scale factorization.

One segmented sieve, built once, backs the indexed prime stream
(``nth_prime``, ``primes_window``, the bound table's windows) and
``factorize``'s trial primes.  It grows only by ``ensure_count``, which
appends the next primes in order under its lock, so ``_stream`` hands out
its list of the primes up to its ``limit`` without a lock.  The prime cap
bounds what ``_stream`` and ``factorize`` read, not the sieve.  ``is_prime``
depends on n alone and never reads the sieve; it proves its answer in three
tiers.  Up to 2048 it looks n up among the 309 primes up to 2048.  Above it,
one gcd with the product of the start primes up to isqrt(n) finds any prime
factor of n among them; below (2048 + 1)**2 = 4,198,401, past 2**22, a
composite has a prime factor up to isqrt(n) <= 2048, so a gcd of 1 proves n
prime.  From that bound on the gcd takes all 309 start primes.  Up to
psi_13 = 3.3e24 (covers 64-bit) Miller-Rabin runs with a witness ladder: n
below psi_k, the least strong pseudoprime to the first k prime bases, is
decided by those k bases alone.  Past psi_13 a failed 13-base strong test
proves n composite, and a pass raises ResourceLimit.  A set of primes is
proven by the same tiers on the whole set: one superset test and one gcd
sized to its largest member, then the ladder for its members from 4,198,401
on.  ``factorize``'s record is its own proof, checked no further; only a
caller's ``Factorization`` is validated.  No probabilistic answers are ever
returned.  Every public entry point takes integers only
(``exact_arith.as_index``); anything else, or an integer below its bound,
raises InvalidArgument naming the argument.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, filterfalse
from operator import mul

from .errors import InvalidArgument, ResourceLimit, _digits
from .exact_arith import Record, as_index

DEFAULT_PRIME_CAP = 10**6  # how many primes the stream and factorize may read

# psi_k is the least strong pseudoprime to the first k prime bases, so those
# k bases prove compositeness deterministically for every n < psi_k (Jaeschke,
# Math. Comp. 61 (1993); Sorenson and Webster, Math. Comp. 86 (2017)).  The
# values repeat: psi_7 = psi_8 and psi_9 = psi_10 = psi_11.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
_MR_BOUND = _MR_PSI[-1]

_SEGMENT = 1 << 20


def _simple_sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return [i for i, f in enumerate(flags) if f]


# Every sieve starts with the primes up to _START_LIMIT, and one gcd with a
# product of them trial-divides by each prime in it.  A composite n has a
# prime factor <= isqrt(n); below (_START_LIMIT + 1)**2 that factor is a start
# prime, so a gcd of 1 with the product of the start primes up to isqrt(n)
# proves n prime.  _START_PRODUCTS[i] is the product of the first i start
# primes, and i = bisect_right(_START_SQUARES, n) counts those with p*p <= n,
# so n = p*p still meets p; from _GCD_BOUND on, i is 309, the whole product.
_START_LIMIT = 2048
_START_PRIMES = frozenset(_simple_sieve(_START_LIMIT))
_START_SQUARES = [p * p for p in sorted(_START_PRIMES)]
_START_PRODUCTS = list(accumulate(sorted(_START_PRIMES), mul, initial=1))
_GCD_BOUND = (_START_LIMIT + 1) ** 2


class _Sieve:
    """Segmented sieve of Eratosthenes: ``primes`` holds exactly the primes
    up to ``limit``.  ``ensure_count``, its one way to grow, appends the next
    primes in order under the lock, so a lock-free reader sees a correct prefix."""

    def __init__(self):
        self._lock = threading.Lock()
        self.limit = _START_LIMIT
        self.primes = sorted(_START_PRIMES)

    def ensure_count(self, k: int) -> None:
        """Grow until at least k primes are sieved."""
        with self._lock:
            while len(self.primes) < k:
                kk = max(k, 6)
                # Rosser bound p_k < k(ln k + ln ln k), padded; the loop
                # re-doubles if the estimate ever falls short.  The primes
                # held mark every composite up to limit**2, so no step
                # needs base primes it does not hold.
                est = int(kk * (math.log(kk) + math.log(math.log(kk)))) + 16
                top = min(max(est, 2 * self.limit), self.limit**2) + 1
                for lo in range(self.limit + 1, top, _SEGMENT):
                    hi = min(lo + _SEGMENT, top)
                    mark = bytearray([1]) * (hi - lo)
                    for p in self.primes:
                        if p * p >= hi:
                            break
                        start = max(p * p, -(-lo // p) * p)
                        mark[start - lo :: p] = b"\x00" * ((hi - 1 - start) // p + 1)
                    self.primes.extend(compress(range(lo, hi), mark))
                self.limit = top - 1


_default_sieve = _Sieve()
_cap = DEFAULT_PRIME_CAP


def set_prime_cap(cap: int) -> None:
    """Set how many primes the stream and factorize may read; the sieve is kept."""
    global _cap
    _cap = as_index(cap, "prime cap", 1)


def prime_cap() -> int:
    return _cap


def _miller_rabin(n: int) -> bool:
    """Strong probable-prime test of n > 41 to the first k bases, where
    k is the least count with n < psi_k, or all 13 from psi_13 on.  False
    proves n composite at any size; True proves n prime below _MR_BOUND."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # bisect_right: n = psi_k fools its first k bases, so it gets the next rung
    for a in _MR_WITNESSES[: bisect_right(_MR_PSI, n) + 1]:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _ladder(n: int) -> bool:
    """is_prime's last tier, for n >= _GCD_BOUND with no factor up to 2048."""
    if not _miller_rabin(n):
        return False
    if n < _MR_BOUND:
        return True
    raise ResourceLimit(
        f"{_digits(n)} passes all 13 strong bases but is not below psi_13 = {_MR_BOUND}, "
        "so its primality cannot be proven"
    )


def is_prime(n: int) -> bool:
    """Deterministic primality test of n alone; never probabilistic.

    Three tiers: membership among the primes up to 2048; one gcd with the
    product of the start primes up to isqrt(n), which decides n below
    (2048 + 1)**2 = 4,198,401, because a composite there has a prime factor
    <= isqrt(n) <= 2048 (from that bound on the gcd takes all 309); then
    Miller-Rabin with the bases the witness ladder gives n's size (3 below
    25,326,001, all 13 from psi_12 to psi_13 = 3.3e24).  Past psi_13 a failed
    13-base strong test proves n composite; a pass raises ResourceLimit.
    """
    if type(n) is not int:  # hot path: plain ints skip the call
        n = as_index(n, "n")
    if n <= _START_LIMIT:
        return n in _START_PRIMES
    if math.gcd(n, _START_PRODUCTS[bisect_right(_START_SQUARES, n)]) != 1:
        return False
    return n < _GCD_BOUND or _ladder(n)


def _first_nonprime(ps: tuple[int, ...]) -> int | None:
    """The smallest member of the ascending ints ps that is not prime, or None.

    is_prime's tiers, each on the whole set at once: one superset test of
    the members up to 2048, one gcd of the product of the rest with the
    start primes up to the isqrt of the largest member (at least each
    member's own isqrt), then the ladder from (2048 + 1)**2 on.  Once the
    first two pass, every member below (2048 + 1)**2 is prime, so the
    ladder's first failure, in ascending order, is the answer.  When one of the first two fails, the
    members are tested one by one in order, and the ladder has run on none
    of them.  Either way the member named and any ResourceLimit raised are
    those of is_prime on each member in turn, and no member runs the ladder
    twice.
    """
    small = bisect_right(ps, _START_LIMIT)
    sized = _START_PRODUCTS[bisect_right(_START_SQUARES, ps[-1]) if ps else 0]
    if _START_PRIMES.issuperset(ps[:small]) and math.gcd(math.prod(ps[small:]), sized) == 1:
        return next(filterfalse(_ladder, ps[bisect_left(ps, _GCD_BOUND, small) :]), None)
    return next((p for p in ps if not is_prime(p)), None)


def _stream(count: int) -> list[int]:
    """The default sieve's own list, not to be changed, once it holds
    ``count`` primes; ResourceLimit past the cap, and no lock unless short."""
    if count > _cap:
        raise ResourceLimit(
            f"requested prime #{_digits(count)} exceeds the sieve cap of {_digits(_cap)}"
        )
    if len(_default_sieve.primes) < count:
        _default_sieve.ensure_count(count)
    return _default_sieve.primes


def nth_prime(k: int) -> int:
    """The k-th prime, 1-based (p_1 = 2)."""
    return primes_window(k, 1)[0]


def primes_window(start: int, count: int) -> list[int]:
    """Consecutive primes p_start .. p_{start+count-1}; empty when count = 0."""
    start, count = as_index(start, "prime index", 1), as_index(count, "window count", 0)
    if count == 0:
        return []
    return _stream(start + count - 1)[start - 1 : start + count - 1]


class Factorization(Record):
    """Ordered prime factorization: ((p1, e1), (p2, e2), ...) with p1 < p2 < ...

    The empty tuple represents n = 1; ``n`` is computed on first use.
    """

    __slots__ = ("factors", "_n")

    def __init__(self, factors: tuple[tuple[int, int], ...]):
        try:
            pairs = [(p, e) for p, e in factors]
        except (TypeError, ValueError):
            raise InvalidArgument("factors must be (prime, exponent) pairs") from None
        checked = []
        prev = 1
        for p, e in pairs:
            p = as_index(p, "prime")
            if p <= prev:
                if p < 2:
                    raise InvalidArgument(f"{_digits(p)} is not prime")
                if p == prev:
                    raise InvalidArgument(f"duplicate prime {_digits(p)}")
                raise InvalidArgument(
                    f"primes must be strictly increasing, got {_digits(p)} after {_digits(prev)}"
                )
            if type(e) is not int or e < 1:  # hot path: the name is built only for a bad e
                e = as_index(e, f"exponent for {_digits(p)}", 1)
            if not is_prime(p):
                raise InvalidArgument(f"{_digits(p)} is not prime")
            checked.append((p, e))
            prev = p
        Record.__init__(self, tuple(checked), None)

    @classmethod
    def from_pairs(cls, pairs) -> "Factorization":
        return cls(tuple(sorted(map(tuple, pairs))))

    @property
    def n(self) -> int:
        if self._n is None:
            value = 1
            for p, e in self.factors:
                value *= p**e
            object.__setattr__(self, "_n", value)
        return self._n

    @property
    def radical(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(str(p) if e == 1 else f"{p}^{e}" for p, e in self.factors)


def _proven(factors: tuple[tuple[int, int], ...], n: int) -> Factorization:
    """The record of factors whose product is n, stored as given, unchecked."""
    f = object.__new__(Factorization)
    Record.__init__(f, factors, n)
    return f


def factorize(n: int) -> Factorization:
    """Complete factorization by trial division over the sieved prime stream.

    The record is this proof, checked no further: a trial prime p divides
    the residual, which has no prime factor below p; a final residual is
    prime by p * p > residual or by is_prime (after a division, or at the
    cap); the primes ascend and each exponent is >= 1 by construction.  A
    composite residual needing primes beyond the cap raises ResourceLimit.
    """
    n = as_index(n, "n", 1)
    sieve, cap = _default_sieve, _cap
    pairs: list[tuple[int, int]] = []
    residual = n
    idx = 0
    while residual > 1:
        if idx >= cap:
            if is_prime(residual):
                pairs.append((residual, 1))
                break
            raise ResourceLimit(
                f"residual cofactor {_digits(residual)} exceeds the trial-division budget"
            )
        sieve.ensure_count(idx + 1)
        p = sieve.primes[idx]
        if p * p > residual:
            pairs.append((residual, 1))
            break
        if residual % p == 0:
            e = 0
            while residual % p == 0:
                residual //= p
                e += 1
            pairs.append((p, e))
            if residual == 1:
                break
            if is_prime(residual):
                pairs.append((residual, 1))
                break
        idx += 1
    return _proven(tuple(pairs), n)
