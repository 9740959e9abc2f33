"""Seeded inputs and oracle answers for the four benchmark workloads.

Everything here runs in the runner process and never imports opnlab.  A
plan is a list of distinct passes (lists of operation inputs) with the
expected output of every operation.  In a timed run each of several fresh
worker interpreters runs rounds over all passes; the traced run executes
every pass once.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

import oracle
from outputs import fingerprint

WORKLOADS = ("sweep", "radical", "table", "constants")


@dataclass
class Plan:
    passes: list[list]  # distinct passes of operation inputs
    expected: list[list]  # per operation: fingerprint of the expected output, or check data
    workers: int  # fresh interpreters in a timed run, at least
    cold: bool  # each worker runs the passes exactly once (no repeats)
    scale: bool  # scale times to the reference host speed (worker.HostSpeed)
    size: str  # the stated input size, for the report


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --- sweep ------------------------------------------------------------------

SWEEP_BAND = (1_000_001, 1_100_001)  # odd window starts are drawn from here


def plan_sweep(seed: int, smoke: bool) -> Plan:
    workers, per_pass = (2, 64) if smoke else (5, 2048)
    rng = _rng("sweep", seed)
    start = SWEEP_BAND[0] + 2 * rng.randrange((SWEEP_BAND[1] - SWEEP_BAND[0]) // 2)
    total = workers * per_pass
    factors = oracle.factor_window(start, total)
    ns = [start + 2 * i for i in range(total)]
    expected = [fingerprint(oracle.sweep_expected(n, f)) for n, f in zip(ns, factors)]
    passes = [ns[w * per_pass : (w + 1) * per_pass] for w in range(workers)]
    expects = [expected[w * per_pass : (w + 1) * per_pass] for w in range(workers)]
    return Plan(passes, expects, workers, False, True, f"{total} consecutive odd n from {start}")


# --- radical ----------------------------------------------------------------

RADICAL_PRIME_LIMIT = 2_000_000
RADICAL_TARGETS = (1.55, 2.1)  # range of the alpha = 1 product each set must pass


def _draw_set(rng: random.Random, primes: list[int], target: float) -> list[int]:
    """Log-uniform odd primes until prod(1 + 1/p) > target and there are >= 9."""
    lo, hi = math.log(3), math.log(primes[-1])
    chosen: set[int] = set()
    product = 1.0
    while product <= target or len(chosen) < 9:
        p = primes[bisect.bisect_right(primes, math.exp(rng.uniform(lo, hi))) - 1]
        if p not in chosen:
            chosen.add(p)
            product *= 1 + 1 / p
    return sorted(chosen)


def plan_radical(seed: int, smoke: bool) -> Plan:
    workers, per_pass = (2, 16) if smoke else (5, 600)
    rng = _rng("radical", seed)
    primes = oracle.primes_upto(RADICAL_PRIME_LIMIT)[1:]
    thresholds = oracle.Thresholds()
    passes, expects = [], []
    for _ in range(workers):
        # stratified targets keep every pass's mix of set sizes alike
        span = RADICAL_TARGETS[1] - RADICAL_TARGETS[0]
        targets = [
            RADICAL_TARGETS[0] + span * (i + rng.random()) / per_pass for i in range(per_pass)
        ]
        rng.shuffle(targets)
        sets = [_draw_set(rng, primes, t) for t in targets]
        passes.append(sets)
        expects.append([fingerprint(oracle.radical_expected(s, thresholds)) for s in sets])
    return Plan(
        passes,
        expects,
        workers,
        False,
        True,
        f"{workers * per_pass} sets of 9+ odd primes below {RADICAL_PRIME_LIMIT}",
    )


# --- table --------------------------------------------------------------------

TABLE_BAND = (9, 40)  # m values of the table rows; the seed picks where to start


def plan_table(seed: int, smoke: bool) -> Plan:
    lo, hi = (9, 11) if smoke else TABLE_BAND
    m0 = _rng("table", seed).randint(lo, hi)
    band = list(range(m0, hi + 1)) + list(range(lo, m0))
    rows = [(m, alpha) for m in band for alpha in (1, 2)]
    expected = [fingerprint(row) for row in oracle.table_expected(rows, oracle.Thresholds())]
    return Plan(
        [rows],
        [expected],
        2 if smoke else 5,
        False,
        True,
        f"{len(rows)} rows, m = {lo}..{hi} from m0 = {m0}, alpha = 1 and 2",
    )


# --- constants ------------------------------------------------------------------

# (alpha, nominal mantissa, decimal exponent) per rung, coarse to fine; most
# rungs are cheap, as most CLI requests are, and the finest few dominate
CONSTANTS_LADDER = (
    [(1, 1.0, e) for e in (10, 15, 20, 30, 50, 100, 300, 1000)]
    + [(2, 1.0, e) for e in (2, 3, 5, 7, 9, 11)]
    + [(2, 4.0, 12)]
    + [(3, 1.0, e) for e in (3, 4, 6, 8, 12, 14)]
    + [(3, 2.0, 16)]
    + [(4, 1.0, e) for e in (4, 5, 8, 10, 15, 18, 20)]
)
SMOKE_LADDER = [(1, 1.0, 10), (1, 1.0, 30), (2, 1.0, 6), (3, 1.0, 8), (4, 1.0, 10)]
MANTISSA_JITTER = 0.05  # the seed moves each width by up to 5%


def plan_constants(seed: int, smoke: bool) -> Plan:
    rng = _rng("constants", seed)
    ladder = SMOKE_LADDER if smoke else CONSTANTS_LADDER
    finest = {}
    for alpha, _, exponent in ladder:
        finest[alpha] = max(finest.get(alpha, 0), exponent)
    refs = {alpha: oracle.constants_reference(alpha, e) for alpha, e in finest.items()}
    ops, expected = [], []
    for alpha, mantissa, exponent in ladder:
        m = mantissa * (1 + rng.uniform(-MANTISSA_JITTER, MANTISSA_JITTER))
        width = f"{m:.4f}e-{exponent}"
        ops.append([alpha, width])
        expected.append(dict(refs[alpha], alpha=alpha, width=width))
    return Plan(
        [ops],
        [expected],
        2 if smoke else 5,
        True,
        False,
        f"{len(ops)}-rung cold ladder, alpha 1..4, widths down to 1e-{max(finest.values())}",
    )


PLANNERS = {
    "sweep": plan_sweep,
    "radical": plan_radical,
    "table": plan_table,
    "constants": plan_constants,
}
