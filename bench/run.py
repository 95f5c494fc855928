"""The ramgenus benchmark: three seeded workloads, every output checked.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the root of a checkout. Without --workload it runs all three.
Benchmark harnesses call it once per workload as
``--workload NAME --seed N --seconds S --trace 0|1``; S is ``run_seconds``
from BENCHMARK.json, which equals RUN_SECONDS, the run length the metric
bounds were measured at. Each workload runs in fresh processes
(bench/worker.py) with one caller in a closed loop. With --trace 0 it
prints the end-to-end metrics, timings scaled to a fixed machine speed (see
measure) and unscaled; with --trace 1 it runs the same ops twice,
untraced and then with spans around the library's public functions, and
prints the per-layer metrics and the tracing overhead. Text rows come
first; the last line of standard output is one JSON object. The full
result is also written under .bench_build/results/.

The checkout's ``src`` is put on PYTHONPATH and byte code goes to
.bench_build/pycache, so the run reads and writes nothing outside the
checkout except the interpreter and its installed packages. Without
``src/ramgenus`` the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
sys.pycache_prefix = str(BUILD / "pycache")

from common import (  # noqa: E402
    REF_CHILD_NOMINAL_MS, REF_NOMINAL_MS, median, min_samples, nearest_rank, samples_beyond,
)
from spans import LAYERS  # noqa: E402

WORKLOADS = ("q-algebras", "function-fields", "cli-cold")
RUN_SECONDS = 30  # run_seconds in BENCHMARK.json
SETUP_RUNS = 5  # setup_s is the median over this many fresh processes
TRACE_OPS = {"q-algebras": 2000, "function-fields": 400, "cli-cold": 60}
MIN_OPS = min_samples(0.9)  # 100: ten samples beyond p90
WORKER_TIMEOUT_S = 170
MODULES = ("__init__", "brauerq", "cli", "elliptic", "errors", "exactarith",
           "funcfield", "gfpoly", "localsymbols", "qpoly")
DEFECTS = ("composite_cofactor", "distinguish_12_primes", "oracle_check_151")
DEFECT_WORKLOADS = ("q-algebras", "cli-cold")  # the workloads whose rows are DEFECTS

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"cli.interp_start_ms": "ms", "cli.import_ms": "ms", "cli.sympy_import_ms": "ms"}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
    units.update({
        "exactarith.factor.failed": "count",
        "brauerq.distinguishing_field.square_class_calls": "count",
        "funcfield.tame_residue.unresolved": "count",
        "trace.busy_ms": "ms",
        "trace.overhead_pct": "%",
        "machine.ref_ms": "ms",
    })
    for name in DEFECTS:
        units[f"defect.{name}.failed"] = "count"
        units[f"defect.{name}.ms"] = "ms"
    for module in MODULES:
        units[f"loc.{module}"] = "lines"
    units["loc.total"] = "lines"
    return units


PER_LAYER = per_layer_units()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def build(env) -> None:
    """Byte-compile src and bench and warm sympy's lazily loaded modules, so
    that no measured process compiles anything."""
    code = (
        "import compileall, sys\n"
        "ok = all(compileall.compile_dir(d, quiet=1) for d in sys.argv[1:])\n"
        "from ramgenus.qpoly import PolyQ, factor_q\n"
        "import ramgenus.cli\n"
        "factor_q(PolyQ.of([-2, 0, 1]))\n"
        "sys.exit(0 if ok else 1)\n"
    )
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "bench")],
                   env=env, check=True, timeout=600, cwd=ROOT)


def worker(env, cfg: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), json.dumps(cfg)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {cfg['workload']}/{cfg['mode']} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _base_cfg(name: str, seed: int, mode: str) -> dict:
    return {"workload": name, "seed": seed, "mode": mode,
            "spans_dir": str(BUILD / "spans")}


def _failures(records) -> list[str]:
    return [f"{r[0]}: {r[3]}" for r in records if r[3]]


def _timings(lat_ms: list[float], setup_s: float, rss_mb: float) -> dict:
    lat = sorted(lat_ms)
    return {
        "setup_s": setup_s,
        "throughput_ops_s": len(lat) / (sum(lat) / 1e3),
        "latency_p50_ms": nearest_rank(lat, 0.5),
        "latency_p90_ms": nearest_rank(lat, 0.9),
        "peak_rss_mb": rss_mb,
    }


def nominal_ref_ms(name: str) -> float:
    return REF_CHILD_NOMINAL_MS if name == "cli-cold" else REF_NOMINAL_MS


def measure(env, name: str, seed: int, seconds: int) -> dict:
    """End-to-end metrics of one workload, tracing off.

    Times are scaled to a fixed machine speed: the worker times a fixed
    piece of reference work next to the ops, and each op's time is
    multiplied by the reference's nominal time over the one read with it.
    In-process ops are read against common.reference_ms, timed in the
    worker at most a quarter second before them; a CLI op against the mean
    of the last reading before it and the first after it of
    common.reference_child_ms, a reference child process timed about every
    half second between CLI ops. On a shared host whose speed drifts by tens
    of percent within a minute, this keeps runs made at different times
    comparable; the unscaled figures are printed as well.

    In-process workloads run their ops in two fresh processes of half the
    time each, the second repeating exactly the ops of the first, and an
    op's time is the lesser of its two. cli-cold, at a third of a second per
    op, has time for one pass only.
    """
    rounds = 2 if name != "cli-cold" else 1
    setup_only = [worker(env, _base_cfg(name, seed, "setup")) for _ in range(SETUP_RUNS - rounds)]
    cfg = _base_cfg(name, seed, "run")
    first = worker(env, dict(cfg, seconds=seconds / rounds, min_ops=MIN_OPS, defects=True))
    passes = [first]
    if rounds == 2:
        passes.append(worker(env, dict(cfg, ops=len(first["records"]))))
    nominal = nominal_ref_ms(name)
    setups = [(p["setup_s"], nominal / median(p["setup_ref_ms"]))
              for p in setup_only + passes]
    per_op = list(zip(*(p["records"] for p in passes)))
    raw_ms = [min(r[2] for r in recs) * 1e3 for recs in per_op]
    scaled_ms = [min(r[2] * nominal / r[4] for r in recs) * 1e3 for recs in per_op]
    records = [(recs[0][0], recs[0][1], t, next((r[3] for r in recs if r[3]), None))
               for recs, t in zip(per_op, scaled_ms)]
    failures = _failures(records) + [e for p in passes for e in p["warmup_errors"]]
    if any(p["digest"] != first["digest"] for p in passes):
        failures.append("digest: the passes disagree on the results of the same ops")
    rss = max(p["peak_rss_mb"] for p in passes)
    by_rank = sorted(records, key=lambda r: r[2])
    n = len(records)
    classes = {}
    for _, cls, _, _ in records:
        classes[cls] = classes.get(cls, 0) + 1
    return {
        "metrics": _timings(scaled_ms, median([s * k for s, k in setups]), rss),
        "raw": _timings(raw_ms, median([s for s, _ in setups]), rss),
        "ref_ms": median([r[4] for p in passes for r in p["records"]]),
        "ops": n,
        "failures": failures,
        "p90_tail": samples_beyond(n, 0.9),
        "p50_class": by_rank[max(0, -(-n // 2) - 1)][1],
        "p90_class": by_rank[max(0, -(-9 * n // 10) - 1)][1],
        "class_shares": {c: k / n for c, k in sorted(classes.items())},
        "setup_runs_s": [s for s, _ in setups],
        "digest": first["digest"],
        "repeat_share": first["repeat_share"],
        "defects": first["defects"],
        "excluded": first["excluded"],
    }


def bare_children_ms(env, codes: list[str], rounds: int = 7) -> list[list[float]]:
    """Wall times of ``python -c code`` for each code, one per round; the
    codes run interleaved, so that a slow spell of the host hits every code
    of a round alike."""
    times: list[list[float]] = [[] for _ in codes]
    for _ in range(rounds):
        for code, out in zip(codes, times):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            out.append((time.perf_counter() - start) * 1e3)
    return times


def loc_rows() -> dict[str, int]:
    """Line count of each module in MODULES (0 once a module is removed),
    and of all of ``src/ramgenus/*.py``."""
    src = ROOT / "src" / "ramgenus"
    rows = {f"loc.{m}": len(p.read_text().splitlines()) if (p := src / f"{m}.py").is_file() else 0
            for m in MODULES}
    rows["loc.total"] = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    return rows


def trace(env, name: str, seed: int) -> dict:
    """Per-layer metrics: the same ops untraced, then traced.

    Every per-layer value is measured in every workload's traced run: the
    wrappers are installed on every layer, so a layer the workload never
    calls reads 0 calls as counted; the known-defect rows of all workloads
    and the bare-process times are measured here too, since they do not
    depend on the workload's op mix.
    """
    cfg = _base_cfg(name, seed, "run")
    cfg["ops"] = TRACE_OPS[name]
    plain = worker(env, dict(cfg, traced=0))
    traced = worker(env, dict(cfg, traced=1))
    defects = [row for w in DEFECT_WORKLOADS
               for row in worker(env, _base_cfg(w, seed, "defects"))["defects"]]
    plain_busy = sum(r[2] for r in plain["records"])
    traced_busy = sum(r[2] for r in traced["records"])
    # each time over the speed reference read just before it, as in measure()
    ratios = [(t[2] / t[4]) / (p[2] / p[4]) for p, t in zip(plain["records"], traced["records"])]
    layers = traced["layers"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layers[layer]["calls"]
        metrics[f"{layer}.self_ms"] = layers[layer]["self_ms"]
    metrics["exactarith.factor.failed"] = layers["exactarith.factor"]["failed"]
    metrics["brauerq.distinguishing_field.square_class_calls"] = (
        layers["brauerq.distinguishing_field"]["square_class_calls"])
    metrics["funcfield.tame_residue.unresolved"] = layers["funcfield.tame_residue"]["unresolved"]
    metrics["trace.busy_ms"] = traced_busy * 1e3
    metrics["machine.ref_ms"] = median([r[4] for r in traced["records"]])
    # the median ratio of an op's traced to untraced time: a slow spell of
    # the machine during one pass moves it less than the busy-time totals
    metrics["trace.overhead_pct"] = 100 * (median(ratios) - 1)
    for row in defects:
        metrics[f"defect.{row['name']}.failed"] = int(row["state"] != "ok")
        metrics[f"defect.{row['name']}.ms"] = row["ms"]
    start, cli, sym = bare_children_ms(env, ["pass", "import ramgenus.cli", "import sympy"])
    metrics["cli.interp_start_ms"] = median(start)
    # each import less the interpreter start of the same round
    metrics["cli.import_ms"] = median([c - s for c, s in zip(cli, start)])
    metrics["cli.sympy_import_ms"] = median([y - s for y, s in zip(sym, start)])
    metrics.update(loc_rows())
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"per-layer rows not measured: {sorted(set(PER_LAYER) - set(metrics))}, "
                           f"not declared: {sorted(set(metrics) - set(PER_LAYER))}")
    return {
        "metrics": {key: metrics[key] for key in PER_LAYER},
        "ops": len(traced["records"]),
        "failures": _failures(plain["records"]) + _failures(traced["records"]),
        "layer_shares": {layer: row["self_ms"] / (traced_busy * 1e3)
                         for layer, row in sorted(layers.items(), key=lambda t: -t[1]["self_ms"])},
        "repeat_share": traced["repeat_share"],
        "busy_ratio": traced_busy / plain_busy,
        "defects": defects,
        "excluded": plain["excluded"],
    }


def report(name: str, res: dict, trace_mode: bool) -> None:
    units = PER_LAYER if trace_mode else END_TO_END
    print(f"== {name}")
    for key, value in res["metrics"].items():
        print(f"  {key:<52} {value:>14.4f} {units[key]}")
    if not trace_mode:
        print(f"  ops_attempted {res['ops'] + len(res['defects'])}, ops_failed "
              f"{len(res['failures']) + sum(d['state'] != 'ok' for d in res['defects'])} "
              f"(timed ops {res['ops']}, {res['p90_tail']} samples beyond p90)")
        print(f"  class shares {res['class_shares']}; p50 in {res['p50_class']}, "
              f"p90 in {res['p90_class']}")
        print(f"  speed reference {res['ref_ms']:.3f} ms (times above are scaled to "
              f"{nominal_ref_ms(name)} ms); unscaled: " + ", ".join(
                  f"{k} {v:.4f}" for k, v in res["raw"].items() if k != "peak_rss_mb"))
        print(f"  setup runs {['%.3f' % s for s in res['setup_runs_s']]} s; "
              f"repeat share {res['repeat_share']:.3f}; digest {res['digest']}")
        for key, value in loc_rows().items():
            print(f"  {key:<52} {value:>14} lines (informational)")
    else:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in list(res["layer_shares"].items())[:10])
        print(f"  {res['ops']} ops, run untraced and then traced (busy time ratio "
              f"{res['busy_ratio']:.3f}); repeat share {res['repeat_share']:.3f}")
        print(f"  self-time shares of traced busy time: {shares}")
        calls = res["metrics"]["brauerq.distinguishing_field.calls"]
        if calls:
            per_call = res["metrics"]["brauerq.distinguishing_field.square_class_calls"] / calls
            print(f"  square_class calls per distinguishing_field call {per_call:.1f}")
    for row in res["defects"]:
        print(f"  known-defect row {row['name']}: {row['state']} in {row['ms']:.1f} ms "
              f"({row['detail'][:120]})")
    for row, reason in res["excluded"].items():
        print(f"  left out {row}: {reason}")
    for failure in res["failures"][:10]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ramgenus" / "__init__.py").is_file():
        print(f"no ramgenus sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    (BUILD / "spans").mkdir(parents=True, exist_ok=True)
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    build(env)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        if args.trace:
            results[name] = trace(env, name, args.seed)
        else:
            results[name] = measure(env, name, args.seed, args.seconds)
        report(name, results[name], bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (BUILD / "results" / f"{tag}.json").write_text(json.dumps(results, indent=1))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    failed = sum(len(res["failures"]) for res in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(res["ops"] for res in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
