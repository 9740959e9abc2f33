"""Tests of the benchmark itself: a tiny run of every workload, and its oracle.

Run with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

PI = "3.14159265358979323846264338327950288419716939937510"
ZETA3 = "1.20205690315959428539973816151144999076498629234049"
ZETA5 = "1.03692775514336992633136548645703416805708091950191"


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_and_matching_digests(workload):
    digests = []
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in declared} == {
            name: v["unit"] for name, v in result["metrics"].items()
        }
        assert f"{'failed_frac':40s} {0:>16.6g}" in proc.stdout
        digests.append(next(l for l in lines if l.startswith("output digest sha256:")))
    assert digests[0] == digests[1], "traced and untraced runs gave different outputs"


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_plans_are_reproducible_from_the_seed():
    for name, planner in workloads.PLANNERS.items():
        a, b = planner(3, True), planner(3, True)
        assert (a.passes, a.expected) == (b.passes, b.expected), name
        assert a.passes != planner(4, True).passes, name


def test_factor_window_matches_trial_division():
    def trial(n):
        pairs, p = [], 2
        while p * p <= n:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                pairs.append((p, e))
            p += 1
        if n > 1:
            pairs.append((n, 1))
        return tuple(pairs)

    start = 999_001
    for i, factors in enumerate(oracle.factor_window(start, 500)):
        assert factors == trial(start + 2 * i)


def test_constant_brackets_contain_known_decimals():
    digits = 30
    for (lo, hi), ref in (
        (oracle.pi_bracket(digits), PI),
        (oracle.zeta_bracket(3, digits), ZETA3),
        (oracle.zeta_bracket(5, digits), ZETA5),
    ):
        value = Fraction(ref)
        assert lo <= value <= hi
        assert hi - lo < Fraction(1, 10**digits)


def test_threshold_brackets_agree_with_closed_forms():
    digits = 40
    pi, z3, z5 = Fraction(PI), Fraction(ZETA3), Fraction(ZETA5)
    closed = {1: 16 / pi**2, 2: 16 / (7 * z3), 3: 192 / pi**4, 4: 64 / (31 * z5)}
    for alpha, value in closed.items():
        lo, hi, scale = oracle.threshold_bracket(alpha, digits)
        assert abs(Fraction(lo + hi, 2 * scale) - value) < Fraction(1, 10**35)
        assert hi - lo < 10


def test_radical_oracle_on_the_357_exclusion():
    thresholds = oracle.Thresholds()
    # 3*5*7 plus six primes near 1000: the alpha = 1 product is about 1.84,
    # and every alpha = 2 case product exceeds 2
    ps = [3, 5, 7, 1009, 1013, 1019, 1021, 1031, 1033]
    case2 = 1
    for p in ps:
        case2 *= sum(Fraction(1, p**i) for i in range(3))
    out = oracle.radical_expected(ps, thresholds)
    assert out.startswith(f"TripleExclusion357@{case2.numerator}/{case2.denominator}[case2=")
    admissible = [q for q in ps if q % 4 == 1]
    assert out.count("case1[q=") == len(admissible)
    assert all(f"case1[q={q}]=" in out for q in admissible)
    assert oracle.radical_expected(ps[:8], thresholds) == "TooFewPrimeFactors"
