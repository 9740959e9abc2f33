"""Benchmark worker: one fresh interpreter that imports opnlab and runs passes.

Reads a job as JSON on stdin, writes one JSON result on stdout.  The job
names the workload, the opnlab source directory, the passes (operation
inputs with their expected outputs) and either a time slice to fill with
rounds over all passes or none, meaning each pass runs exactly once.  The
result keeps every time of every input, and the total busy time.

Set-up time covers ``import opnlab`` and the workload's warm-up, nothing
the runner did before.  Each operation is timed alone; rendering its output,
checking it against the oracle and hashing it happen outside that timing.
Operation and set-up times are scaled to a reference host speed where
the workload allows (see HostSpeed).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

import oracle
from outputs import fingerprint, fmt_factors, fmt_row, fmt_verdict, verdict_of
from tracer import ROOT, Tracer, instrument

MAX_REPORTED_FAILURES = 5

# the host-speed probe: sum of 1/k for k < PROBE_TERMS in Fractions, which
# takes about REFERENCE_PROBE_NS on an idle 2-vCPU x86-64 host running CPython 3.11
PROBE_TERMS = 120
REFERENCE_PROBE_NS = 250_000
PROBE_EVERY_NS = 50_000_000
PROBE_WINDOW = 5

# a fixed prime set whose alpha = 1 product lies in (16/pi^2, 2), so its
# screen computes both thresholds before the first timed operation
RADICAL_WARM_UP = [3, 11, 13, 17, 19, 23, 29, 31, 37]


def _operations(opnlab, workload: str, counts: "Counts"):
    """(op, render, check, warm_up) for a workload.

    ``op`` reaches opnlab through module attributes at call time, so the
    traced run sees the wrapped functions.
    """
    def same(out, want):
        return None if fingerprint(out) == want else f"got {out[:200]!r}, want sha256 {want[:16]}"

    if workload == "sweep":

        def op(n):
            f = opnlab.factorize(n)
            return f, opnlab.full_screen(f)

        def render(n, result):
            f, verdicts = result
            return f"{n}={fmt_factors(f.factors)}:" + ";".join(
                fmt_verdict(verdict_of(v)) for v in verdicts
            )

        return op, render, same, lambda: op(999_999)

    if workload == "radical":

        def op(primes):
            return opnlab.radical_screen(primes, opnlab.Mode.AUTO)

        return op, lambda _, v: fmt_verdict(verdict_of(v)), same, lambda: op(RADICAL_WARM_UP)

    if workload == "table":

        def op(row):
            m, alpha = row
            return opnlab.generate_table(m, m, alpha)

        def render(row, rows):
            if len(rows) != 1:
                return f"{len(rows)} rows"
            r = rows[0]
            return fmt_row(row[1], r.m, r.p_I1, r.p_I2, r.p_I3, r.perisastri)

        def warm_up():
            for alpha in (1, 2):
                op((9, alpha))

        return op, render, same, warm_up

    if workload == "constants":

        def op(rung):
            alpha, width = rung
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = opnlab.cli.main(
                    ["constants", "--alpha", str(alpha), "--width", width, "--format", "csv"]
                )
            return code, buf.getvalue()

        def render(_, result):
            code, text = result
            counts.cli_output_bytes += len(text.encode())
            return f"{code}\n{text}"

        def check(out, entry):
            return oracle.check_constants_csv(entry, out)

        # the CLI pays its cold cost on every call, so there is no warm-up
        return op, render, check, lambda: None

    raise ValueError(f"unknown workload {workload!r}")


class Counts:
    def __init__(self):
        self.ops = 0
        self.busy_ns = 0  # as measured
        self.scaled_busy_ns = 0  # scaled to the reference host speed
        self.failed = 0
        self.failures: list[str] = []
        self.cli_output_bytes = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)


class HostSpeed:
    """How fast the host runs small exact arithmetic right now.

    Shared hosts shift speed by up to 2x for seconds or minutes at a time.
    A fixed sum of small Fractions, the kind of work sweep, radical and
    table do, is timed every PROBE_EVERY_NS of operation time; operation
    times are multiplied by REFERENCE_PROBE_NS over the median of the last
    PROBE_WINDOW probe times, which removes the shifts.  Million-digit
    arithmetic (the constants workload) slows by another factor, so that
    workload runs with ``enabled`` off and its times stay as measured.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.factor = 1.0
        self._since_ns = PROBE_EVERY_NS  # probe before the first operation
        self._recent: list[int] = []

    @staticmethod
    def probe_ns() -> int:
        times = []
        for _ in range(3):
            start = time.perf_counter_ns()
            sum(Fraction(1, k) for k in range(1, PROBE_TERMS))
            times.append(time.perf_counter_ns() - start)
        return sorted(times)[1]

    def update(self) -> None:
        if self.enabled:
            # the median of the last few probes damps the probe's own noise
            self._recent = self._recent[-(PROBE_WINDOW - 1) :] + [self.probe_ns()]
            self.factor = REFERENCE_PROBE_NS / statistics.median(self._recent)
        self._since_ns = 0

    def scale(self, elapsed_ns: int) -> int:
        self._since_ns += elapsed_ns
        return round(elapsed_ns * self.factor)

    def due(self) -> bool:
        return self._since_ns >= PROBE_EVERY_NS


def run_pass(
    op, render, check, inputs, expected, times: list, speed: HostSpeed, counts: Counts
) -> str:
    """Run every operation of one pass; returns the SHA-256 of its outputs.

    times[k] collects the scaled times of input k, or becomes None once it failed.
    """
    digest = hashlib.sha256()
    clock = time.perf_counter_ns
    for k, (x, want) in enumerate(zip(inputs, expected)):
        if speed.due():
            speed.update()
        start = clock()
        try:
            result = op(x)
        except Exception as exc:  # a raising operation is a failed one
            elapsed = clock() - start
            out = f"raised {type(exc).__name__}: {exc}"
            problem = out
        else:
            elapsed = clock() - start
            out = render(x, result)
            problem = check(out, want)
        scaled = speed.scale(elapsed)
        counts.ops += 1
        counts.busy_ns += elapsed
        counts.scaled_busy_ns += scaled
        if problem is None:
            if times[k] is not None:
                times[k].append(scaled)
        else:
            times[k] = None
            counts.fail(f"{x!r:.80}: {problem}")
        digest.update(out.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def main() -> int:
    job = json.load(sys.stdin)
    started = time.perf_counter()
    sys.path.insert(0, job["src"])
    import opnlab
    import opnlab.cli

    counts = Counts()
    op, render, check, warm_up = _operations(opnlab, job["workload"], counts)
    warm_up()
    setup_s = time.perf_counter() - started
    speed = HostSpeed(job["scale"])
    speed.update()
    setup_s *= speed.factor

    tracer = None
    if job["trace"]:
        tracer = Tracer()
        instrument(tracer)
        op = tracer.wrap(ROOT, op)

    digests: list[str | None] = [None] * len(job["passes"])
    times = [[[] for _ in inputs] for inputs in job["passes"]]
    rounds = 0
    loop_start = time.perf_counter()
    while True:
        for i, (inputs, expected) in enumerate(zip(job["passes"], job["expected"])):
            digest = run_pass(op, render, check, inputs, expected, times[i], speed, counts)
            if digests[i] is None:
                digests[i] = digest
            elif digests[i] != digest:
                counts.fail(f"pass {i} gave different outputs on a repeat")
        rounds += 1
        if rounds == 1:
            # every input has run once; later rounds only add runner samples
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - loop_start
        # repeat only while a further round still fits in the slice
        if job["slice_s"] is None or elapsed * (rounds + 1) / rounds > job["slice_s"]:
            break

    result = {
        "opnlab_file": opnlab.__file__,
        "setup_s": setup_s,
        "rss_kb": rss_kb,
        "times_ns": times,
        "ops": counts.ops,
        "busy_ns": counts.busy_ns,
        "scaled_busy_ns": counts.scaled_busy_ns,
        "failed": counts.failed,
        "failures": counts.failures,
        "pass_digests": digests,
        "rounds": rounds,
        "cli_output_bytes": counts.cli_output_bytes,
    }
    if tracer is not None:
        result["trace"] = tracer.summarize()
        result["trace"]["endpoint_bits_max"] = tracer.endpoint_bits_max
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
