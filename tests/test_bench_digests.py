"""The benchmark's seed-7 digests, pinned in tier-1.

The benchmark hashes the kind, check summary and error of the first ops of
each workload's stream. A change that breaks a name or an output the
benchmark reads changes that hash, so it fails here first. The modules under
``bench/`` are imported read-only, with the path setup of
``bench/tests/conftest.py``; ops run in process with no alarm timer, and
``cli-cold`` calls ``cli.main`` in process instead of a child.
"""

import contextlib
import hashlib
import io
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cli_cold  # noqa: E402
import function_fields  # noqa: E402
import q_algebras  # noqa: E402
import worker  # noqa: E402

from ramgenus import cli  # noqa: E402


def _cli_in_process(argv, limit_s):
    """The runner contract of ``cli_cold.ops``: (exit status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


@pytest.mark.parametrize("stream, expected", [
    (lambda: q_algebras.ops(7), "7bec27d490f6d2d2"),
    (lambda: function_fields.ops(7), "b3fe5c0508bb5681"),
    (lambda: cli_cold.ops(7, _cli_in_process), "2c0be1713556f9ee"),
], ids=["q-algebras", "function-fields", "cli-cold"])
def test_seed_7_digest(stream, expected):
    digest = hashlib.sha256()
    for op in islice(stream(), worker.DIGEST_OPS):
        _, summary, error = worker.execute(op, None, False)
        digest.update(f"{op.kind}|{summary}|{error}\n".encode())
    assert digest.hexdigest()[:16] == expected
