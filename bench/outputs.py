"""Canonical text for operation outputs, shared by the worker and the oracle.

The worker renders what opnlab returned, the oracle renders what it
computed on its own, and a check compares the two through their SHA-256
fingerprints.  The same strings feed the per-pass digests.
"""

from __future__ import annotations

import hashlib


def fingerprint(text: str) -> str:
    """What the runner sends a worker in place of a long expected output."""
    return hashlib.sha256(text.encode()).hexdigest()


def fmt_factors(pairs) -> str:
    return "*".join(f"{p}^{e}" for p, e in pairs) or "1"


def fmt_verdict(verdict) -> str:
    """verdict: None (consistent) or (condition, witness, cases).

    witness is (num, den) or None; cases is a list of (label, (num, den)).
    """
    if verdict is None:
        return "C"
    condition, witness, cases = verdict
    text = condition
    if witness is not None:
        text += f"@{witness[0]}/{witness[1]}"
    if cases is not None:
        text += "[" + ",".join(f"{label}={n}/{d}" for label, (n, d) in cases) + "]"
    return text


def verdict_of(v):
    """The fmt_verdict tuple of an opnlab ScreenVerdict."""
    if v.violated_condition is None:
        return None
    witness = None if v.witness is None else (v.witness.numerator, v.witness.denominator)
    cases = None
    if v.case_witnesses is not None:
        cases = [(label, (q.numerator, q.denominator)) for label, q in v.case_witnesses]
    return v.violated_condition.value, witness, cases


def fmt_row(alpha: int, m: int, p1: int, p2: int, p3: int, perisastri: int) -> str:
    return f"{alpha}:{m},{p1},{p2},{p3},{perisastri}"
