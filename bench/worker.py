"""One workload process: set up, run ops, print one JSON result line.

    python bench/worker.py '{"workload": ..., "seed": ..., "mode": ...}'

Modes:
  setup    set up (imports, input generation, warm-up) and stop;
  defects  set up, then run only the known-defect rows;
  run      set up, then run exactly ``ops`` ops if given, else ops for
           ``seconds`` and at least ``min_ops``; with spans if ``traced``;
           then the known-defect rows if ``defects``.

run.py starts this script with the environment that points Python at the
checkout's ``src``; the workload modules are imported only after the setup
clock starts, so their import of ramgenus (and sympy) counts as setup.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import spans
from common import CheckFailed, reference_child_ms, reference_ms

BENCH = Path(__file__).resolve().parent
IN_PROCESS = {"q-algebras": "q_algebras", "function-fields": "function_fields"}
DIGEST_OPS = 100  # the digest covers the first ops, the same for every run of a seed
REF_EVERY_S = 0.25  # how often the speed reference runs between in-process ops
REF_CHILD_EVERY_S = 0.5  # how often the reference child runs between CLI ops; an
# op is read against the mean of the readings just before and just after it


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


class CliRunner:
    """Runs CLI children, untraced (``-m ramgenus.cli``) or through
    cli_child.py; span files of traced children are summarized after the
    timed region by ``collect``."""

    def __init__(self, traced: bool, spans_dir: Path):
        self.traced = traced
        self.spans_dir = spans_dir
        self.pending: list[Path] = []
        self.layers: dict = {}
        self.count = 0

    def __call__(self, argv: list[str], limit_s: float):
        if self.traced:
            self.count += 1
            path = self.spans_dir / f"child-{os.getpid()}-{self.count}.json"
            self.pending.append(path)
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(path), *argv]
        else:
            cmd = [sys.executable, "-m", "ramgenus.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=limit_s)
        return proc.returncode, proc.stdout

    def collect(self) -> None:
        for path in self.pending:
            if path.exists():
                spans.merge(self.layers, spans.summarize(spans.Spans.from_json(path.read_text())))
                path.unlink()
        self.pending.clear()


def execute(op, tracer=None, in_process: bool = True):
    """Time one op and check its result: returns (seconds, summary, error)."""
    if in_process:
        signal.setitimer(signal.ITIMER_REAL, op.limit_s)
    if tracer is not None:
        tracer.active = True
    result, error = None, None
    start = time.perf_counter()
    try:
        result = op.call()
    except (OpTimeout, subprocess.TimeoutExpired):
        error = f"timeout after {op.limit_s} s"
    except Exception as exc:  # any raise is a failed op, recorded by name
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, 0)
    summary = ""
    if error is None:
        try:
            summary = op.check(result)
        except CheckFailed as exc:
            error = f"check failed: {exc}"
        except Exception as exc:  # a check that cannot read the result fails the op
            error = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, summary, error


def run_stream(stream, cfg, tracer, runner, in_process):
    records = []
    deadline = time.perf_counter() + cfg.get("seconds", 0)
    seen: set = set()
    digest = hashlib.sha256()
    repeats = 0
    next_ref = 0.0
    ref = 0.0
    before = 0.0 if in_process else reference_child_ms()
    pending: list[list] = []  # CLI ops waiting for the reference child after them

    def read_child_reference() -> None:
        nonlocal before
        after = reference_child_ms()
        for record in pending:
            record[4] = (before + after) / 2
        pending.clear()
        before = after

    for op in stream:
        n = len(records)
        if "ops" in cfg:
            if n >= cfg["ops"]:
                break
        elif n >= cfg["min_ops"] and time.perf_counter() >= deadline:
            break
        if in_process and time.perf_counter() >= next_ref:
            ref = sorted(reference_ms() for _ in range(3))[1]
            next_ref = time.perf_counter() + REF_EVERY_S
        elapsed, summary, error = execute(op, tracer, in_process)
        if runner is not None and runner.traced:
            runner.collect()
        if op.keys and all(k in seen for k in op.keys):
            repeats += 1
        seen.update(op.keys)
        if n < DIGEST_OPS:
            digest.update(f"{op.kind}|{summary}|{error}\n".encode())
        records.append([op.kind, op.cls, elapsed, error, ref])
        if not in_process:
            pending.append(records[-1])
            if time.perf_counter() >= next_ref:
                read_child_reference()
                next_ref = time.perf_counter() + REF_CHILD_EVERY_S
    if pending:
        read_child_reference()
    return records, digest.hexdigest()[:16], repeats


def run_defects(defects, in_process):
    rows = []
    for op in defects:
        elapsed, summary, error = execute(op, None, in_process)
        rows.append({"name": op.kind, "ms": elapsed * 1e3,
                     "state": "ok" if error is None else "failed",
                     "detail": error or summary})
    return rows


def main(cfg: dict) -> dict:
    start = time.perf_counter()
    name = cfg["workload"]
    in_process = name in IN_PROCESS
    runner = None
    tracer = None
    if in_process:
        module = importlib.import_module(IN_PROCESS[name])
        if name == "function-fields":
            import sympy  # noqa: F401  (paid once per process, as a script would)
        stream = module.ops(cfg["seed"])
        warm = module.warmup(cfg["seed"])
        defects = module.defects()
        signal.signal(signal.SIGALRM, _alarm)
    else:
        import cli_cold as module

        spans_dir = Path(cfg["spans_dir"])
        runner = CliRunner(bool(cfg.get("traced")), spans_dir)
        stream = module.ops(cfg["seed"], runner)
        warm = module.warmup(cfg["seed"], CliRunner(False, spans_dir))
        defects = module.defects(CliRunner(False, spans_dir))
    warm_errors = [e for _, _, e in (execute(op, None, in_process) for op in warm) if e]
    setup_s = time.perf_counter() - start
    reference = reference_ms if in_process else reference_child_ms
    out = {"setup_s": setup_s, "setup_ref_ms": [reference() for _ in range(5 if in_process else 3)],
           "warmup_errors": warm_errors, "excluded": module.EXCLUDED}
    if cfg["mode"] == "setup":
        return out
    if cfg["mode"] == "defects":
        out["defects"] = run_defects(defects, in_process)
        return out
    if cfg.get("traced") and in_process:
        tracer = spans.Tracer()
        spans.install(tracer)
    records, digest, repeats = run_stream(stream, cfg, tracer, runner, in_process)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    out.update({
        "records": records,
        "digest": digest,
        "repeat_share": repeats / max(1, len(records)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    })
    if tracer is not None:
        out["layers"] = spans.summarize(tracer.spans)
    elif runner is not None and runner.traced:
        out["layers"] = runner.layers
    if cfg.get("defects"):
        out["defects"] = run_defects(defects, in_process)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
