"""The library and the CLI run without importing sympy, which only the tests use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import io, sys
from contextlib import redirect_stdout
from ramgenus import (
    PolyQ, RationalFunction, SymbolAlgebraFF, WeierstrassCurve, genus_bound, ram_V_over_Q,
)
import ramgenus.cli

rf = lambda cs: RationalFunction.of(PolyQ.of(cs))
D = SymbolAlgebraFF(2, rf([1, 3, 1]), rf([-2, 0, 0, 1]))
ram_V_over_Q(D)
genus_bound(D)
assert ram_V_over_Q(SymbolAlgebraFF(2, rf([3]), rf([1, 0, 0, 0, 1])))[0].ramified
WeierstrassCurve.from_coefficients(-7, 14, -8)
with redirect_stdout(io.StringIO()):
    status = ramgenus.cli.main(["ff-ramify", "(x^2 + 3x + 1, x + 2; n=2, k=Q)"])
assert status == 0, status
assert "sympy" not in sys.modules, "sympy was imported"
"""


def test_library_and_cli_do_not_import_sympy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
