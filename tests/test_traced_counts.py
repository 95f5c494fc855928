"""The benchmark tracer's call counts on the first seed-7 function-fields ops.

A speed-up that moves work out of a traced function (or calls it fewer
times) changes what ``bench/spans.py`` reports for that layer. Pinning the
counts here makes such a change visible in tier-1 first. The run is in a
fresh interpreter, since ``spans.install`` rebinds module globals; the
modules under ``bench/`` are imported read-only.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json
from itertools import islice
import function_fields, spans, worker
tracer = spans.Tracer()
spans.install(tracer)
for op in islice(function_fields.ops(7), 100):
    _, _, error = worker.execute(op, tracer, False)
    assert error is None, (op.kind, error)
out = spans.summarize(tracer.spans)
print(json.dumps({name: row["calls"] for name, row in out.items()}))
"""

# a speed-up inside these layers leaves each count as it is
COUNTS = {
    "qpoly.factor_q": 55,
    "qpoly.rational_roots": 10,
    "gfpoly.poly_factor_fp": 110,
    "gfpoly.residue_class_is_nth_power": 310,
    "funcfield.tame_residue": 386,
}


def test_first_100_seed_7_function_fields_ops():
    path = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(proc.stdout.splitlines()[-1])
    assert {name: calls.get(name) for name in COUNTS} == COUNTS
