"""CLI output pinned byte for byte.

``golden/cli.json`` holds, for every README CLI example and a few edge
inputs (unresolved squares and witness primes over Q(x), degree-3 bounds,
extra places, equal classes, error exits), each in both output formats:
the argv, the format, the exit status and the exact stdout of ``cli.main``.
"""

import json
from pathlib import Path

import pytest

from ramgenus.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['format']}:{' '.join(c['argv'])}" for c in CASES]
)
def test_cli_output_matches_golden(case, capsys):
    status = main(case["argv"] + ["--format", case["format"]])
    assert (status, capsys.readouterr().out) == (case["exit"], case["stdout"])
