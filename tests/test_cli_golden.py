"""Byte-exact replay of every subcommand in every output format.

``golden/cli_outputs.json`` holds, for each argv below, the exit code and
the exact stdout and stderr that ``opnlab.cli.main`` produced before the
output code was consolidated into one renderer.  Each case is replayed
in-process and must match byte for byte.

The six ``constants`` entries were re-recorded, and only they, when the
constants became integer series with one dyadic bracket builder: the
printed brackets are now the short dyadic ones comparisons use, in place
of exact Dirichlet and Machin partial sums.  Every other entry is the
original recording.

A hypothesis test also replays random sequences of these cases through one
process's ``main()``, between argparse usage errors, ``--help`` and calls
under other sieve caps; each case must still match its record, so no state
carries over from one call to the next.
"""

import functools
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opnlab import primes
from opnlab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

_FORMATS = ("human", "csv", "jsonl")
_COMMANDS = (
    ["sigma", "28"],
    ["sigma", "3^3*5*7"],
    ["screen", "945"],
    ["screen", "3^2*5^3*7^2"],
    ["radical", "3", "5", "7", "--mode", "alpha2"],
    ["radical", "3", "11", "13", "17", "19", "23", "29", "31", "37"],
    ["table", "--m-min", "9", "--m-max", "10"],
    ["constants", "--alpha", "1", "--width", "1e-10"],
    ["constants", "--alpha", "2", "--width", "1e-10"],
    # rejected at the input boundary: exit 2, empty stdout, one stderr line
    ["radical", "4", "5"],
    ["radical", "2", "3"],
    ["radical", "3", "3"],
    ["screen", "3^2*4"],
)
CASES = [cmd + ["--format", fmt] for cmd in _COMMANDS for fmt in _FORMATS]


@functools.cache
def _golden():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, capsys, monkeypatch):
    monkeypatch.delenv("OPNLAB_PRIME_CAP", raising=False)
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert {"argv": argv, "exit": code, "stdout": out, "stderr": err} == _golden()[tuple(argv)]



# Calls run between golden cases: argparse usage errors and --help leave
# main() by SystemExit, and OPNLAB_PRIME_CAP sets a tight or a bad cap.
_DISTURBANCES = [
    (["frobnicate"], {}, 2),
    ([], {}, 2),
    (["--help"], {}, 0),
    (["table", "--help"], {}, 0),
    (["sigma"], {}, 2),
    (["radical", "3", "x"], {}, 2),
    (["constants", "--width"], {}, 2),
    (["table", "--format", "xml"], {}, 2),
    (["screen", "945", "--bogus"], {}, 2),
    (["table", "--format", "csv"], {"OPNLAB_PRIME_CAP": "50"}, 2),
    (["sigma", "945", "--format", "jsonl"], {"OPNLAB_PRIME_CAP": "50"}, 0),
    (["sigma", "945"], {"OPNLAB_PRIME_CAP": "junk"}, 2),
]
_STEPS = [(case, {}, None) for case in CASES] + _DISTURBANCES


def _call(argv, env):
    """(exit, stdout, stderr) of one in-process main() call under ``env``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("OPNLAB_PRIME_CAP", None)
        os.environ.update(env)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_STEPS), min_size=2, max_size=8))
def test_one_process_replays_each_case_like_a_fresh_one(steps):
    with pytest.MonkeyPatch.context() as patch:  # restores the cap the last call set
        patch.setattr(primes, "_cap", primes.prime_cap())
        for argv, env, want in steps:
            code, out, err = _call(argv, env)
            if want is None:
                record = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
                assert record == _golden()[tuple(argv)]
            else:
                assert code == want, (argv, env, err)
