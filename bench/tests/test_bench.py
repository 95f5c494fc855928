"""Tests of the benchmark's own arithmetic, tracing and checks.

    python -m pytest bench/tests
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import spans
from common import (
    Algebra,
    CheckFailed,
    hilbert_symbol,
    min_samples,
    nearest_rank,
    samples_beyond,
)
from spans import Spans, Tracer, self_times, summarize


def _spans(rows, names):
    """rows: (name, parent index, start, end, flags)."""
    s = Spans(names)
    for name, parent, start, end, flags in rows:
        s.add(names.index(name), parent, start, end, flags)
    return s


def test_self_time_subtracts_direct_children_only():
    s = _spans([
        ("a", -1, 0, 100, 0),
        ("b", 0, 10, 40, 0),
        ("c", 0, 50, 90, 0),
        ("d", 2, 60, 70, 0),
    ], ["a", "b", "c", "d"])
    assert self_times(s) == [30, 30, 30, 10]
    assert sum(self_times(s)) == 100  # self times partition the root span


def test_self_time_of_a_function_that_calls_itself():
    # tame_residue at infinity calls tame_residue at the place (x)
    names = ["funcfield.tame_residue", "funcfield.tame_symbol"]
    s = _spans([
        ("funcfield.tame_residue", -1, 0, 100, spans.MARKED),
        ("funcfield.tame_residue", 0, 20, 80, spans.MARKED),
        ("funcfield.tame_symbol", 1, 30, 50, 0),
    ], names)
    out = summarize(s)
    residue = out["funcfield.tame_residue"]
    assert residue["calls"] == 2
    assert residue["self_ms"] == pytest.approx((40 + 40) / 1e6)
    assert out["funcfield.tame_symbol"]["self_ms"] == pytest.approx(20 / 1e6)
    assert residue["unresolved"] == 1  # one verdict, not one per nesting level


def test_square_class_calls_count_those_inside_distinguishing_field():
    names = ["brauerq.distinguishing_field", "brauerq.embeds", "localsymbols.square_class"]
    s = _spans([
        ("brauerq.distinguishing_field", -1, 0, 100, 0),
        ("localsymbols.square_class", 0, 1, 2, 0),
        ("brauerq.embeds", 0, 3, 10, 0),
        ("localsymbols.square_class", 2, 4, 5, 0),
        ("localsymbols.square_class", -1, 200, 201, 0),
    ], names)
    assert summarize(s)["brauerq.distinguishing_field"]["square_class_calls"] == 2


def test_tracer_records_parents_failures_and_inactive_calls():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")

    def boom():
        raise ValueError("x")

    outer = tracer.wrap(lambda: inner(inner(1)), "outer")
    failing = tracer.wrap(boom, "failing")
    assert outer() == 3  # inactive: no spans
    assert len(tracer.spans) == 0
    tracer.active = True
    assert outer() == 3
    with pytest.raises(ValueError):
        failing()
    tracer.active = False
    out = summarize(tracer.spans)
    assert out["outer"]["calls"] == 1 and out["inner"]["calls"] == 2
    assert list(tracer.spans.parent) == [-1, 0, 0, -1]
    assert out["failing"]["failed"] == 1
    assert Spans.from_json(tracer.spans.to_json()).parent.tolist() == [-1, 0, 0, -1]


def test_p90_needs_one_hundred_samples():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert min_samples(0.9) == 100
    values = list(range(1, 101))
    assert nearest_rank(values, 0.9) == 90
    assert nearest_rank(values, 0.5) == 50
    assert nearest_rank([7.0], 0.9) == 7.0


def test_install_wraps_every_alias_of_an_imported_function():
    # in a fresh interpreter, since install rebinds module globals
    script = (
        "import ramgenus, spans\n"
        "from ramgenus import brauerq, elliptic, exactarith, funcfield\n"
        "original = exactarith.factor\n"
        "aliases = [m for m in (ramgenus, brauerq, elliptic, exactarith) if m.factor is original]\n"
        "assert len(aliases) == 4, aliases\n"
        "t = spans.Tracer()\n"
        "spans.install(t)\n"
        "assert all(m.factor is exactarith.factor is not original for m in aliases)\n"
        "assert exactarith.factor.__wrapped__ is original\n"
        "assert funcfield.is_prime is exactarith.is_prime\n"
        "t.active = True\n"
        "brauerq.ramification_set(brauerq.QuaternionQ(-1, 3))\n"
        "elliptic.elliptic_genus_bound(elliptic.WeierstrassCurve.from_coefficients(0, -1, 0))\n"
        "t.active = False\n"
        "out = spans.summarize(t.spans)\n"
        "assert out['exactarith.factor']['calls'] >= 3, out\n"
        "assert out['elliptic.WeierstrassCurve.from_coefficients']['calls'] == 1\n"
        "assert out['qpoly.rational_roots']['calls'] == 1\n"
    )
    bench = os.path.dirname(spans.__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([bench, os.path.join(bench, "..", "src")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_reference_hilbert_symbol_agrees_with_the_library():
    import ramgenus as rg

    entries = [-15, -6, -3, -2, -1, 2, 3, 5, 6, 7, 10, 12, 18, 27, 50]
    for a in entries:
        for b in entries:
            for p in (2, 3, 5, 7, None):
                v = rg.REAL_PLACE if p is None else rg.PlaceQ.finite(p)
                assert hilbert_symbol(a, b, p) == rg.hilbert(a, b, v), (a, b, p)


def test_checks_reject_wrong_answers():
    import ramgenus as rg
    import q_algebras

    D = Algebra(-1, 3, [3])
    op = q_algebras.ramify_op(D, "cheap")
    assert op.check(op.call()) == "ram 2,3"
    with pytest.raises(CheckFailed):
        op.check(rg.ramification_set(rg.QuaternionQ(-1, 7)))  # {2, 7}
    factor_op = q_algebras.factor_op(91)
    with pytest.raises(CheckFailed):
        factor_op.check(rg.PrimeFactorization(1, ((7, 1), (11, 1))))


def _stub_ops(n):
    from common import Op

    return iter([Op(f"op{i}", "cheap", lambda: None, lambda _: "") for i in range(n)])


@pytest.mark.parametrize("every_s, expected", [
    (0.0, [150.0, 250.0, 350.0]),  # a reading after every op
    (1e9, [150.0, 250.0, 250.0]),  # the first op at once, the rest at the end
])
def test_cli_ops_are_read_against_the_reference_children_around_them(
        monkeypatch, every_s, expected):
    import worker

    readings = iter([100.0, 200.0, 300.0, 400.0])
    monkeypatch.setattr(worker, "reference_child_ms", lambda: next(readings))
    monkeypatch.setattr(worker, "REF_CHILD_EVERY_S", every_s)
    records, _, _ = worker.run_stream(_stub_ops(3), {"ops": 3}, None, None, False)
    assert [r[4] for r in records] == expected


def test_cli_cold_p90_lies_inside_the_sympy_ops():
    import cli_cold

    seen = []
    ops = [op for op, _ in zip(cli_cold.ops(1, lambda argv, limit: seen.append(argv)), range(200))]
    for op in ops:
        op.call()
    order = {"cheap": 0, "oracle": 1, "sympy": 2}  # by time per op, fastest first
    classes = sorted(order[op.cls] for op in ops)
    assert [classes.count(k) for k in range(3)] == [140, 20, 40]
    assert nearest_rank(classes, 0.5) == nearest_rank(classes, 0.65) == 0
    assert nearest_rank(classes, 0.85) == nearest_rank(classes, 0.95) == 2
    formats = {}
    for op, argv in zip(ops, seen):
        formats.setdefault(op.kind, set()).add(argv[-1])
    assert all(f == {"text", "structured"} for f in formats.values())
    assert max(cli_cold.ORACLE_PRIMES) < 83


def test_cli_polynomials_parse_back():
    from ramgenus.cli import parse_algebra

    import cli_cold

    a, b = [3, 0, -1, 2], [-5, 1]
    D = parse_algebra(f"({cli_cold.fmt_poly(a)}, {cli_cold.fmt_poly(b)}; n=2, k=Q)")
    assert D.a.num.coeffs == tuple(Fraction(c) for c in a)
    assert D.b.num.coeffs == tuple(Fraction(c) for c in b)


def test_benchmark_json_matches_the_runner():
    import json
    import re
    from pathlib import Path

    import run

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]


CLI_REQUESTS = [
    ["ramify", "(-1, 3)"],
    ["embed", "-1", "(-1, 3)"],
    ["distinguish", "(-1, 3)", "(-1, 7)"],
    ["unramified-group", "--places", "inf,2,3"],
    ["elliptic-bound", "roots = -1,0,1"],
    ["ff-ramify", "(x^3 + 1, x; n=2, k=F7)"],
    ["genus-bound", "(x^2 + 1, 3; n=2, k=Q)"],
    ["oracle-check", "(-1, 3)"],
]


@pytest.mark.parametrize("argv", CLI_REQUESTS, ids=lambda argv: argv[0])
def test_text_output_parses_to_the_structured_result(argv, capsys):
    from ramgenus.cli import main

    import cli_cold

    outs = []
    for fmt in ("text", "structured"):
        main(argv + ["--format", fmt])
        outs.append(capsys.readouterr().out)
    assert cli_cold._text(outs[0], argv[0]) == cli_cold._structured(outs[1], argv[0])


def test_cli_checks_read_text_output(capsys):
    from ramgenus.cli import main

    import cli_cold

    main(["ramify", "(-1, 7)", "--format", "text"])
    out = capsys.readouterr().out
    assert cli_cold._check_ram(Algebra(-1, 7, [2, 7]))(cli_cold._text(out, "ramify")) == "2,7"
    with pytest.raises(CheckFailed):
        cli_cold._check_ram(Algebra(-1, 3, [2, 3]))(cli_cold._text(out, "ramify"))
