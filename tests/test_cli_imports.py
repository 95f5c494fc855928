"""Importing the CLI loads no module that only code generation needs.

``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
each decorated class compiles fresh source that no bytecode cache keeps, so
every CLI process would pay for both before doing any work. ``-S`` keeps the
site hooks of the installation out of the check."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import ramgenus.cli
print(" ".join(m for m in ("dataclasses", "inspect", "ast") if m in sys.modules))
"""


def test_cli_import_loads_no_code_generation_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
