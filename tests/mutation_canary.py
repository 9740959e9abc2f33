"""Mutation canary: tier-1 must fail on each of a fixed list of one-line mutants.

Each mutant breaks a contract the code states: a proven primality bound, the
prime stream holding exactly the primes up to its bound, a factorization's
proof, an outward-rounded enclosure, an exact screening identity, a closed
form of a truncated product, a reduced witness, the Eulerian form, a
result record's equality, an argument's lower bound, the exact rendering of
a certified constant, the printing of an integer past the int-to-str digit
limit, the command line's parse, or the modules a call loads.  For each one the script copies the
repository (without ``.git`` and caches) into a temporary directory,
replaces one line, and runs ``pytest -x -q`` there with a fixed hypothesis
seed, so every run draws the same examples; the mutant is killed when
pytest reports a failing test (exit 1).
The unmutated copy runs first and must pass, so a suite that is already
broken cannot kill anything by accident.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutation_canary.py

It exits 0 when every mutant is killed and 1 otherwise.  A mutant whose
line is no longer in its file also fails the run, so the list cannot go
stale unnoticed.  pytest does not collect this file (it is not test_*.py).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYTEST_TIMEOUT = 300  # seconds per run; a hang is reported, never counted as killed
HYPOTHESIS_SEED = "0"

# (name, file under src/opnlab, line as written, mutated line)
MUTANTS = [
    (
        "12-base Miller-Rabin witnesses below the 13-base bound psi_13",
        "primes.py",
        "_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
        "_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
    ),
    (
        "witness ladder gives n = psi_k only k bases",
        "primes.py",
        "for a in _MR_WITNESSES[: bisect_right(_MR_PSI, n) + 1]:",
        "for a in _MR_WITNESSES[: bisect_left(_MR_PSI, n) + 1]:",
    ),
    (
        "the sized gcd leaves out p for n = p^2",
        "primes.py",
        "if math.gcd(n, _START_PRODUCTS[bisect_right(_START_SQUARES, n)]) != 1:",
        "if math.gcd(n, _START_PRODUCTS[bisect_left(_START_SQUARES, n)]) != 1:",
    ),
    (
        "gcd proves primes up to 2056^2, past 2049^2",
        "primes.py",
        "_GCD_BOUND = (_START_LIMIT + 1) ** 2",
        "_GCD_BOUND = 2056**2",
    ),
    (
        "a sieve segment marks each prime's multiples from the one below its start",
        "primes.py",
        "start = max(p * p, -(-lo // p) * p)",
        "start = max(p * p, lo // p * p)",
    ),
    (
        "factorize takes a residual that is the square of the next trial prime as prime",
        "primes.py",
        "if p * p > residual:",
        "if p * p >= residual:",
    ),
    (
        "threshold upper end floored, not ceiled",
        "constants.py",
        "return top // (d * hi**e), -(-top // (d * lo**e))",
        "return top // (d * hi**e), top // (d * lo**e)",
    ),
    (
        "zeta ends moved inward by one unit",
        "constants.py",
        "return (v - 2) * r_num // r_den, -(-(v + 2) * r_num // r_den)",
        "return (v - 2) * r_num // r_den + 1, -(-(v + 2) * r_num // r_den) - 1",
    ),
    (
        "Machin pi without its 8 guard bits",
        "constants.py",
        "k = bits + bits.bit_length() + 8",
        "k = bits + bits.bit_length()",
    ),
    (
        "special-prime case swaps in q^2 + q, not q^2 + q + 1",
        "screener.py",
        "if q is not None and num * (q * (q + 1)) < 2 * den * (q * q + q + 1):",
        "if q is not None and num * (q * (q + 1)) < 2 * den * (q * q + q):",
    ),
    (
        "alpha-2 screen compares against the alpha-1 threshold",
        "screener.py",
        "elif not below(num, den, 2):",
        "elif not below(num, den, 1):",
    ),
    (
        "the alpha-2 factor numerator drops its 1: p(p + 1), not p(p + 1) + 1",
        "exact_arith.py",
        "return [p * (p + 1) + 1 for p in primes]",
        "return [p * (p + 1) for p in primes]",
    ),
    (
        "the AUTO screen divides its alpha-2 products by rad, not rad^2",
        "screener.py",
        "return _screen_alpha2_combined(ps, rad * rad)",
        "return _screen_alpha2_combined(ps, rad)",
    ),
    (
        "a special prime's case witness is not reduced by gcd(n, q^2 + q + 1)",
        "exact_arith.py",
        "g1 = gcd(n, b)",
        "g1 = 1",
    ),
    (
        "a witness is not reduced",
        "exact_arith.py",
        "g = gcd(num, den)",
        "g = 1",
    ),
    (
        "the Eulerian form asks for a special prime 3 mod 4",
        "screener.py",
        "if len(odd) == 1 and odd[0][0] % 4 == 1 and odd[0][1] % 4 == 1:",
        "if len(odd) == 1 and odd[0][0] % 4 == 3 and odd[0][1] % 4 == 1:",
    ),
    (
        "the Eulerian form takes the first of several odd exponents",
        "screener.py",
        "if len(odd) == 1 and odd[0][0] % 4 == 1 and odd[0][1] % 4 == 1:",
        "if len(odd) >= 1 and odd[0][0] % 4 == 1 and odd[0][1] % 4 == 1:",
    ),
    (
        "a record's equality ignores its last field",
        "exact_arith.py",
        "return self._values() == other._values()",
        "return self._values()[:-1] == other._values()[:-1]",
    ),
    (
        "the argument check lets through an integer one below its bound",
        "exact_arith.py",
        "if least is None or n >= least:",
        "if least is None or n >= least - 1:",
    ),
    (
        "constants prints its dyadic ends unreduced",
        "cli.py",
        "zeros = (n & -n).bit_length() - 1",
        "zeros = 0",
    ),
    (
        "constants decimal shifted by bits - 1, not bits",
        "cli.py",
        "+ _int_str(((mid & ((1 << bits) - 1)) * 10**digits) >> bits).zfill(digits),",
        "+ _int_str(((mid & ((1 << bits) - 1)) * 10**digits) >> (bits - 1)).zfill(digits),",
    ),
    (
        "the integer printer fails past the int-to-str digit limit",
        "cli.py",
        "return str(Decimal(n))",
        "raise",
    ),
    (
        "the plain reading skips the choices check",
        "cli.py",
        'if "choices" in keywords and any(v not in keywords["choices"] for v in values):',
        "if False:",
    ),
    (
        "the plain reading takes an option's value that starts with '-'",
        "cli.py",
        'if token not in specs or value.startswith("-"):',
        "if token not in specs:",
    ),
    (
        "the plain reading joins a positional run split by an option",
        "cli.py",
        "elif token and not closed:",
        "elif token:",
    ),
    (
        "the command line imports the sieve at its top",
        "cli.py",
        "from .exact_arith import as_rational",
        "from .exact_arith import as_rational; from . import primes",
    ),
]


def _run_pytest(copy: Path) -> tuple[int | None, float, str]:
    """pytest's exit code on the copy (None on timeout), its wall time and
    the last lines of its output."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    try:
        done = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                "-x",
                "-q",
                "-p",
                "no:cacheprovider",
                f"--hypothesis-seed={HYPOTHESIS_SEED}",
                "tests",
            ],
            cwd=copy,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=PYTEST_TIMEOUT,
        )
        code, tail = done.returncode, "\n".join(done.stdout.splitlines()[-15:])
    except subprocess.TimeoutExpired:
        code, tail = None, ""
    return code, time.monotonic() - start, tail


def _fresh_copy(parent: Path) -> Path:
    copy = parent / "tree"
    if copy.exists():
        shutil.rmtree(copy)
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_results", ".benchmarks"
    )
    shutil.copytree(ROOT, copy, ignore=ignore)
    return copy


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="opnlab-canary-") as tmp:
        code, took, tail = _run_pytest(_fresh_copy(Path(tmp)))
        if code != 0:
            print(f"unmutated tree: pytest exit {code} after {took:.1f} s, expected 0")
            print(tail)
            return 1
        print(f"unmutated tree: passes in {took:.1f} s")
        for name, filename, line, mutated in MUTANTS:
            copy = _fresh_copy(Path(tmp))
            path = copy / "src" / "opnlab" / filename
            text = path.read_text()
            if text.count(line) != 1:
                print(f"STALE     {name}: {filename} holds {text.count(line)} copies of {line!r}")
                failures += 1
                continue
            path.write_text(text.replace(line, mutated))
            code, took, tail = _run_pytest(copy)
            if code == 1:
                print(f"killed    {name} ({took:.1f} s)")
            else:
                status = "timed out" if code is None else f"pytest exit {code}"
                print(f"SURVIVED  {name} ({status} after {took:.1f} s)")
                print(tail)
                failures += 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
