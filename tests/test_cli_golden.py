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
"""

import functools
import json
from pathlib import Path

import pytest

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
