"""Fixtures for the process-wide prime state: a fresh default sieve, and the
prime cap, each set for one test and restored when it ends."""

import pytest

from opnlab import primes


@pytest.fixture
def fresh_sieve(monkeypatch):
    """A new sieve, at its start bound 2048, swapped in as the default sieve."""
    sieve = primes._Sieve()
    monkeypatch.setattr(primes, "_default_sieve", sieve)
    return sieve


@pytest.fixture
def set_cap(monkeypatch):
    """``set_prime_cap``, with the cap restored when the test ends; a test whose
    ``cli.main`` call sets the cap from OPNLAB_PRIME_CAP takes it for the restore."""
    monkeypatch.setattr(primes, "_cap", primes.prime_cap())
    return primes.set_prime_cap
