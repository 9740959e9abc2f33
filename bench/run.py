"""Run one opnlab benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads: sweep, radical, table, constants (see BENCHMARK.json).  The
runner lives in ``bench/`` of a checkout whose ``src/opnlab`` holds the code
to measure.  It makes the workload's inputs from the seed, computes their
expected outputs with its own oracle (bench/oracle.py, which never imports
opnlab), and hands both to fresh worker interpreters (bench/worker.py) that
import opnlab and run a single-threaded closed loop, one after another.

With ``--trace 0`` the workers run untraced for about ``--seconds`` in
total, each input many times, and the end-to-end metrics of BENCHMARK.json
are printed.  With ``--trace 1`` every distinct pass runs once untraced and
once traced, in two workers, and the per-layer metrics are printed.  A failed
operation's time never enters a latency.  Each metric is printed
by name with its unit, then the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record,
provenance included, goes to ``.bench_results/`` and the spans of a traced
run to a gzip'd file next to it.  Exit status: 0 when every output matched
the oracle, 1 when any did not, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
RESULTS_DIR = ROOT / ".bench_results"
WORKER_TIMEOUT_S = 170
MAX_COLD_WORKERS = 12  # a cold workload starts workers until --seconds are spent


class RunError(Exception):
    """The benchmark could not run (missing sources, a worker died)."""


def run_worker(job: dict) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT
    )
    try:
        out, _ = proc.communicate(json.dumps(job).encode(), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited with status {proc.returncode}")
    result = json.loads(out)
    expected_file = ROOT / "src" / "opnlab" / "__init__.py"
    if Path(result["opnlab_file"]).resolve() != expected_file.resolve():
        raise RunError(f"worker imported opnlab from {result['opnlab_file']}")
    return result


def _job(plan: workloads.Plan, workload: str, slice_s, trace: bool, spans_path=None) -> dict:
    return {
        "workload": workload,
        "scale": plan.scale,
        "src": str(ROOT / "src"),
        "passes": plan.passes,
        "expected": plan.expected,
        "slice_s": slice_s,
        "trace": trace,
        "spans_path": spans_path,
    }


def _pass_digests(results: list[dict]) -> tuple[str, list[str]]:
    """Digest over every distinct pass, in pass order, and any disagreements."""
    first = results[0]["pass_digests"]
    problems = [
        "two workers gave different outputs for the same inputs"
        for r in results[1:]
        if r["pass_digests"] != first
    ]
    return hashlib.sha256("".join(first).encode()).hexdigest(), problems


def _percentile(sorted_ns: list[float], q: float) -> float:
    """Nearest-rank percentile, in ms."""
    rank = max(1, math.ceil(q * len(sorted_ns)))
    return sorted_ns[rank - 1] / 1e6


def _latencies(results: list[dict], pick) -> list[float]:
    """Per distinct input, ``pick`` (min or median) of its times over all workers.

    An input that failed in any worker is left out.
    """
    merged = [[[] for _ in times] for times in results[0]["times_ns"]]
    for r in results:
        for mine, theirs in zip(merged, r["times_ns"]):
            for k, t in enumerate(theirs):
                mine[k] = None if mine[k] is None or t is None else mine[k] + t
    return sorted(pick(t) for times in merged for t in times if t)  # skips None and []


def timed_run(plan: workloads.Plan, workload: str, seconds: float):
    """Fresh workers one after another, each running rounds over every pass.

    Each input runs many times, spread over the whole run.  Where the
    workload's times are scaled to the reference host speed, an input's
    latency is the median of its times; where they are not, the fastest,
    which is the one least disturbed by a slow spell of the host.  ops_per_s
    is the number of distinct inputs over the sum of their latencies.
    """
    slice_s = None if plan.cold else seconds / plan.workers
    results: list[dict] = []
    began = time.perf_counter()
    while len(results) < plan.workers or (
        # cold workers run once each: start another while one more still fits
        plan.cold
        and len(results) < MAX_COLD_WORKERS
        and (time.perf_counter() - began) * (len(results) + 1) / len(results) <= seconds
    ):
        results.append(run_worker(_job(plan, workload, slice_s, False)))

    pick = statistics.median if plan.scale else min
    latencies = _latencies(results, pick)
    if not latencies:
        raise RunError("no operation succeeded")
    ops = sum(r["ops"] for r in results)
    p99_beyond = len(latencies) - max(1, math.ceil(0.99 * len(latencies)))
    metrics = {
        "ops_per_s": len(latencies) / (sum(latencies) / 1e9),
        "op_p50_ms": _percentile(latencies, 0.50),
        "op_p99_ms": _percentile(latencies, 0.99),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in results) / 1024,
    }
    per_input = f"{pick.__name__} of {ops / len(latencies):.1f} runs each"
    samples = {
        "ops_per_s": f"{len(latencies)} distinct ops, {per_input}",
        "op_p50_ms": f"n={len(latencies)}, {per_input}",
        "op_p99_ms": f"n={len(latencies)}, {p99_beyond} beyond, {per_input}",
        "setup_s": f"median of {len(results)} workers",
        "peak_rss_mb": f"median of {len(results)} workers",
    }
    return results, metrics, samples


def _per_op(count: float, ops: int) -> float:
    return count / ops if ops else 0.0


def traced_run(plan: workloads.Plan, workload: str, spans_path: Path):
    """Every pass once untraced, then once traced, each in a fresh worker."""
    plain = run_worker(_job(plan, workload, None, False))
    traced = run_worker(_job(plan, workload, None, True, str(spans_path)))
    trace = traced["trace"]
    calls, self_ns = trace["calls"], trace["self_ns"]
    ops = traced["ops"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_ns.get(name, 0) / 1e9

    compares, refines = c("constants.certified_compare"), c("constants.refine")
    metrics = {
        "primes.factorize.calls": c("primes.factorize"),
        "primes.factorize.self_s": s("primes.factorize"),
        "primes.is_prime.calls": c("primes.is_prime"),
        "primes.is_prime.calls_per_op": _per_op(c("primes.is_prime"), ops),
        "primes.is_prime.self_s": s("primes.is_prime"),
        "primes.primes_window.self_s": s("primes.primes_window"),
        "primes.nth_prime.self_s": s("primes.nth_prime"),
        "abundancy.sigma.calls": c("abundancy.sigma"),
        "abundancy.sigma.self_s": s("abundancy.sigma"),
        "screener.full_screen.self_s": s("screener.full_screen"),
        "screener.perfect_check.self_s": s("screener.perfect_check"),
        "screener.euler_form_check.self_s": s("screener.euler_form_check"),
        "screener.radical_screen.calls": c("screener.radical_screen"),
        "screener.radical_screen.self_s": s("screener.radical_screen"),
        "bound_tables.generate_table.self_s": s("bound_tables.generate_table"),
        "bound_tables.rho.calls": c("bound_tables.rho"),
        "bound_tables.rho.self_s": s("bound_tables.rho"),
        "bound_tables.rho_calls_per_row": _per_op(
            c("bound_tables.rho"), ops if workload == "table" else 0
        ),
        "constants.certified_compare.calls": compares,
        "constants.certified_compare.self_s": s("constants.certified_compare"),
        "constants.refine.calls": refines,
        "constants.compare_decided_ratio": _per_op(compares, compares + refines),
        "constants.threshold_enclosure.self_s": s("constants.threshold_enclosure"),
        "constants.zeta_enclosure.calls": c("constants.zeta_enclosure"),
        "constants.zeta_enclosure.self_s": s("constants.zeta_enclosure"),
        "constants.pi_enclosure.self_s": s("constants.pi_enclosure"),
        "constants.endpoint_bits_max": trace["endpoint_bits_max"],
        "exact_arith.compare.calls": c("exact_arith.compare"),
        "cli.main.self_s": s("cli.main"),
        "cli.output_bytes": traced["cli_output_bytes"],
        "trace.overhead_frac": traced["scaled_busy_ns"] / plain["scaled_busy_ns"] - 1,
    }
    for layer in LAYERS:
        layer_ns = sum(ns for name, ns in self_ns.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_frac"] = layer_ns / trace["root_ns"]
    samples = {name: f"{ops} ops traced" for name in metrics}
    samples["trace.overhead_frac"] = f"{ops} ops traced vs {plain['ops']} untraced"
    return [plain, traced], metrics, samples


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    # a terminated runner still stops its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the bench's own tests"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "opnlab" / "__init__.py").is_file():
        print(f"error: no opnlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        declared = declared_metrics(bool(args.trace))
        plan = workloads.PLANNERS[args.workload](args.seed, args.smoke)
        RESULTS_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            results, metrics, samples = traced_run(
                plan, args.workload, RESULTS_DIR / f"{stem}.spans.tsv.gz"
            )
        else:
            results, metrics, samples = timed_run(plan, args.workload, args.seconds)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    digest, problems = _pass_digests(results)
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    correct = failed == 0 and not problems
    provenance = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "input": plan.size,
        "workers": len(results),
        "operations": attempted,
        "samples": samples,
    }

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {plan.size}")
    print(
        f"python {provenance['python']}, nproc {provenance['nproc']}, "
        f"commit {provenance['git_commit']}, {len(results)} workers, {attempted} operations"
    )
    print(f"output digest sha256:{digest}")
    for problem in problems + failures:
        print(f"FAILED: {problem}")
    reported = {}
    for m in declared:
        if m["name"] not in metrics:
            print(f"error: metric {m['name']} is not measured", file=sys.stderr)
            return 2
        value = metrics[m["name"]]
        reported[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:40s} {value:>16.6g} {m['unit']:<8s} ({samples[m['name']]})")
    print(
        f"{'failed_frac':40s} {failed / attempted:>16.6g} {'ratio':<8s} "
        f"({failed} of {attempted} ops)"
    )

    record = {
        "provenance": provenance,
        "digest": digest,
        "pass_digests": [r["pass_digests"] for r in results],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": problems + failures,
        "metrics": reported,
        "unscaled_busy_ops_per_s": sum(r["ops"] for r in results)
        / (sum(r["busy_ns"] for r in results) / 1e9),
        "workers": [{k: v for k, v in r.items() if k != "times_ns"} for r in results],
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
