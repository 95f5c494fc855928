"""Argparse output pinned byte for byte.

``golden/usage.json`` holds the ``--help`` text of the top-level parser and
of every subcommand, and the stderr of a few usage errors (a missing
positional, an unknown command, a missing required option), each with its
exit status, recorded at an 80-column terminal width.
"""

import json
from pathlib import Path

import pytest

from ramgenus.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "usage.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_usage_output_matches_golden(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == (case["exit"], case["stdout"], case["stderr"])
