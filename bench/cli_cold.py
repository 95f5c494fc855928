"""cli-cold: one ``python -m ramgenus.cli`` child process per op, run one
after another (one caller, closed loop), alternating text and structured
output.

Why: interpreter start, import, parse and render only show up when every
request pays for its own process; the in-process workloads pay them once,
in setup.

Ops come in blocks of twenty in a fixed pattern: fourteen cheap, two
oracle and four sympy ops. Cheap ops are the README's commands on small
inputs: ramify, embed, distinguish, unramified-group, ff-ramify and
genus-bound over F_p, and elliptic-bound. Oracle ops are oracle-check or
ramify --oracle at a prime from 59 to 79, which run ``hilbert_oracle``
cold; they take two to four times a cheap op. Sympy ops are ff-ramify and
genus-bound over Q(x), which pay the sympy import cold, the slowest class
at about five times a cheap op. So the median lies inside the cheap ops
and the 90th percentile at the middle of the sympy ops, away from every
class boundary: a 90th percentile that fell among inputs whose times
differ by the input (an oracle prime) moved with the seed.
"""

from __future__ import annotations

import json
import random
import re

from common import (
    SQUAREFREE_D,
    Algebra,
    CheckFailed,
    Op,
    distinguisher_pair,
    euler_phi,
    is_local_square,
    legendre,
    primes_between,
    ram_strings,
    random_poly,
    require,
    small_algebra,
)

BLOCK = "CCCSCCOCSCCCCSCCOCSC"  # C cheap, O oracle, S sympy
KINDS = {
    "C": ("ramify", "embed", "distinguish", "unramified-group", "ff-ramify-fp",
          "genus-bound-fp", "elliptic-bound"),
    "O": ("oracle-check", "ramify-oracle"),
    "S": ("ff-ramify-q", "genus-bound-q"),
}
ORACLE_PRIMES = primes_between(59, 79)
FP_PRIMES = primes_between(3, 101)


def fmt_poly(coeffs: list[int]) -> str:
    """Ascending integer coefficients as CLI input, e.g. "3x^2 - x + 5"."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        body = "x" if i == 1 else f"x^{i}" if i else ""
        text = body if mag == 1 and body else f"{mag}{body}"
        terms.append(("-" if c < 0 else "+", text))
    if not terms:
        return "0"
    sign, first = terms[0]
    out = ("-" if sign == "-" else "") + first
    for sign, text in terms[1:]:
        out += f" {sign} {text}"
    return out


def _as_text(value):
    """A structured result with every scalar as render_text prints it."""
    if isinstance(value, dict):
        return {key: _as_text(val) for key, val in value.items()}
    if isinstance(value, list):
        return [_as_text(val) for val in value]
    return str(value)


def _structured(out: str, command: str):
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"structured output does not parse: {exc}") from exc
    require(doc.get("command") == command, f"command {doc.get('command')!r} != {command!r}")
    return _as_text(doc["result"])


NOTE = re.compile(r"  \[[^\]]*\]$")  # an inline note after a value


def _parse_block(lines: list[tuple[int, str]]):
    """The value that ``_fmt_value`` printed as ``lines`` (indent, text)."""
    if not lines:
        return {}
    if lines[0][1] == "(none)":
        return []
    indent = lines[0][0]
    items: list[tuple[str, list]] = []  # (head line, lines below it)
    for depth, text in lines:
        if depth == indent:
            items.append((text, []))
        else:
            items[-1][1].append((depth, text))
    if items[0][0].startswith("- "):
        out = []
        for head, below in items:
            body = head[2:]
            if ": " in body or body.endswith(":"):  # a dict printed as a list item
                out.append(_parse_block([(indent + 2, body)] + below))
            else:
                out.append(body)
        return out
    out = {}
    for head, below in items:
        key, _, val = head.partition(":")
        val = NOTE.sub("", val[1:]) if val else None
        out[key] = _parse_block(below) if val is None else val
    return out


def _text(out: str, command: str):
    """The ``result:`` section of text output, parsed to the shape of the
    structured result with every scalar as a string."""
    lines = out.splitlines()
    require(lines[:1] == [f"command: {command}"], f"text output of {command} malformed")
    require("result:" in lines, f"text output of {command} has no result")
    body = []
    for line in lines[lines.index("result:") + 1:]:
        if not line.startswith("  "):
            break
        text = line.lstrip(" ")
        body.append((len(line) - len(text), text))
    return _parse_block(body)


def cli_op(runner, kind: str, cls: str, argv: list[str], fmt: str, check_result,
           statuses=(0,), limit_s: float = 60.0) -> Op:
    """``check_result`` receives the result in the same form from either
    output format (structured, or text parsed back: nested dicts and lists
    with every scalar as the text prints it) and returns a summary."""
    command = argv[0]
    parse = _structured if fmt == "structured" else _text

    def check(outcome) -> str:
        status, out = outcome
        require(status in statuses, f"{command} exited {status}, allowed {statuses}")
        return f"{kind} {status} {check_result(parse(out, command))}"

    return Op(kind, cls, lambda: runner(argv + ["--format", fmt], limit_s), check,
              limit_s=limit_s)


def _check_ram(D: Algebra):
    def check(result) -> str:
        require(result["ramified_places"] == ram_strings(D.ram), f"ramify {D}")
        require(int(result["count"]) == len(D.ram) and len(D.ram) % 2 == 0, "ramification count")
        return ",".join(result["ramified_places"])
    return check


def _fp_algebra_text(rng, heavy_field: bool) -> tuple[str, int]:
    if heavy_field:
        a, b = random_poly(rng, rng.randint(1, 3), 5), random_poly(rng, rng.randint(0, 2), 5)
        return f"({fmt_poly(a)}, {fmt_poly(b)}; n=2, k=Q)", 2
    p = rng.choice(FP_PRIMES)
    n = 2 if p == 3 else rng.choice((2, 3))
    a, b = random_poly(rng, rng.randint(2, 5), p // 2), random_poly(rng, rng.randint(1, 3), p // 2)
    return f"({fmt_poly(a)}, {fmt_poly(b)}; n={n}, k=F{p})", n


def _ff_check(n: int, char_q: bool):
    def check(result) -> str:
        places = [e["place"] for e in result["ramified_places"]]
        require(len(set(places)) == len(places) == int(result["count"]), "ff-ramify places")
        if n == 2 and not char_q:
            require(len(places) % 2 == 0, "odd ramification over F_p(x)")
        return ",".join(places)
    return check


def _bound_check(n: int):
    def check(result) -> str:
        r = int(result["ramified_count"])
        require(r == len(result["ramified_places"]), "r mismatch")
        require(int(result["bound"]) == euler_phi(n) ** r,
                "bound is not phi(n)^r")
        return result["bound"]
    return check


def _cheap(rng, runner, kind: str, fmt: str) -> Op:
    if kind == "ramify":
        D = small_algebra(rng)
        return cli_op(runner, kind, "cheap", ["ramify", str(D)], fmt, _check_ram(D))
    if kind == "embed":
        D, d = small_algebra(rng), rng.choice(SQUAREFREE_D)

        def check(result) -> str:
            expected = all(not is_local_square(d, v) for v in D.ram)
            require(result["embeds"] == str(expected), f"embed {d} {D}")
            return result["embeds"]
        return cli_op(runner, kind, "cheap", ["embed", str(d), str(D)], fmt, check)
    if kind == "distinguish":
        D1, D2 = distinguisher_pair(rng, rng.choice((2, 3, 4, 5)))

        def check(result) -> str:
            require(result["equivalent"] == str(D1.ram == D2.ram), "equivalence")
            if result["witness"] != "None":
                require(result["embeds_in_first"] != result["embeds_in_second"],
                        "witness embeds into both or neither")
            return result["witness"]
        return cli_op(runner, kind, "cheap", ["distinguish", str(D1), str(D2)], fmt, check)
    if kind == "unramified-group":
        primes = sorted(rng.sample(FP_PRIMES[:10] + [2], rng.randint(1, 5)))
        places = ",".join(["inf"] + [str(p) for p in primes])

        def check(result) -> str:
            require(int(result["count"]) == 2 ** len(primes) == len(result["classes"]), "count")
            return result["count"]
        return cli_op(runner, kind, "cheap", ["unramified-group", "--places", places], fmt, check)
    if kind == "elliptic-bound":
        roots = sorted(rng.sample(range(-100, 101), 3))
        curve = "roots = " + ",".join(map(str, roots))
        if rng.random() < 0.5:
            a, b, c = roots
            curve = "y^2 = " + fmt_poly([-a * b * c, a * b + a * c + b * c, -(a + b + c), 1])

        def check(result) -> str:
            require(result["roots"] == [str(r) for r in roots], "roots")
            require("inf" in result["S"] and "2" in result["S"], "S misses inf or 2")
            return result["bound"]
        return cli_op(runner, kind, "cheap", ["elliptic-bound", curve], fmt, check)
    text, n = _fp_algebra_text(rng, False)
    if kind == "ff-ramify-fp":
        return cli_op(runner, kind, "cheap", ["ff-ramify", text], fmt, _ff_check(n, False))
    return cli_op(runner, kind, "cheap", ["genus-bound", text], fmt, _bound_check(n))


def oracle_op(runner, D: Algebra, kind: str, fmt: str, cls: str, limit_s: float = 60.0) -> Op:
    if kind == "ramify-oracle":
        def check_ramify(result) -> str:
            require(result["oracle_checked"] == "True", "oracle not run")
            return _check_ram(D)(result)
        return cli_op(runner, kind, cls, ["ramify", str(D), "--oracle"], fmt, check_ramify,
                      limit_s=limit_s)

    def check(result) -> str:
        require(result["mismatches"] == "0", "oracle mismatch")
        for row in result["checks"]:
            require(row["hilbert"] == row["oracle"], f"oracle disagrees at {row['place']}")
        return str(len(result["checks"]))
    return cli_op(runner, kind, cls, ["oracle-check", str(D)], fmt, check, limit_s=limit_s)


def _oracle(rng, runner, kind: str, fmt: str) -> Op:
    p = rng.choice(ORACLE_PRIMES)
    a = next(a for a in (-1, 2, -2, 3, -3, 5, 6, 7) if legendre(a, p) == -1)
    return oracle_op(runner, Algebra(a, p, [p] + [q for q in (2, 3, 5, 7) if a % q == 0]),
                     kind, fmt, "oracle")


def _sympy(rng, runner, kind: str, fmt: str) -> Op:
    text, _ = _fp_algebra_text(rng, True)
    if kind == "ff-ramify-q":
        return cli_op(runner, kind, "sympy", ["ff-ramify", text], fmt, _ff_check(2, True),
                      statuses=(0, 4))
    return cli_op(runner, kind, "sympy", ["genus-bound", text], fmt, _bound_check(2),
                  statuses=(0, 4))


MAKE = {"C": _cheap, "O": _oracle, "S": _sympy}


def ops(seed: int, runner):
    """The endless op stream for one seed; ``runner(argv, limit_s)`` runs
    one CLI invocation and returns (exit status, stdout)."""
    rng = random.Random(f"cli-cold/{seed}")
    made = {c: 0 for c in KINDS}
    while True:
        for c in BLOCK:
            kinds = KINDS[c]
            fmt = ("text", "structured")[made[c] // len(kinds) % 2]  # each kind in both
            yield MAKE[c](rng, runner, kinds[made[c] % len(kinds)], fmt)
            made[c] += 1


def warmup(seed: int, runner) -> list[Op]:
    rng = random.Random(f"cli-cold/warmup/{seed}")
    return [_cheap(rng, runner, "ramify", "structured"),
            _sympy(rng, runner, "ff-ramify-q", "structured")]


def defects(runner) -> list[Op]:
    op = oracle_op(runner, Algebra(-1, 151, [151]), "oracle-check", "structured", "defect", 30.0)
    op.kind = "oracle_check_151"
    return [op]


EXCLUDED = {
    "oracle_check_307": "oracle-check at p = 307: hilbert_oracle enumerates all p^3 "
    "triples when the answer is -1, 18 s for that place alone",
}
