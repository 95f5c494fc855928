"""Command-line front end.

``COMMANDS`` maps each command (ramify, embed, distinguish, unramified-group,
ff-ramify, genus-bound, elliptic-bound, oracle-check) to its handler, help and
arguments; every handler returns one ``Report``. Input grammar is exact
(rationals as p/q, polynomials in x with ^), read by a one-regex lexer and a
recursive-descent parser that refuses exponents, degrees and coefficient bit
lengths above fixed caps; output is a human-readable text report or a single
JSON document with fields {command, inputs, result, factors?, provenance[]}
(see README for the format contract).

Exit codes: 0 success; 2 parse error; 3 precondition failure; 5 oracle
cross-check mismatch.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from ._value import Value
from .brauerq import (
    QuadraticField,
    QuaternionQ,
    candidate_places,
    distinguishing_field,
    embeds,
    enumerate_unramified,
    ramification_set,
)
from .elliptic import WeierstrassCurve, elliptic_genus_bound, s_unit_square_classes
from .errors import ParseError, RamgenusError
from .funcfield import RationalFunction, SymbolAlgebraFF, genus_bound, residues
from .localsymbols import REAL_PLACE, PlaceQ, hilbert, hilbert_oracle
from .qpoly import PolyQ


class OracleMismatchError(RamgenusError):
    """The closed-form symbol and the search oracle disagreed."""


class InputSizeError(RamgenusError):
    """A well-formed input asks for more than the parser expands."""


# powers are expanded densely at parse time, in time about quadratic in the
# exponent; x^999999999 would allocate 10^9 coefficients. So is every sum and
# product, and each is refused before it is formed if its degree would pass
# MAX_DEGREE (((x+1)^256)^256 would reach degree 65,536) or if the bit length of
# its coefficients, estimated from the operands, would pass MAX_BITS
# (((3^256)^256)^256 would have 26.6 million bits)
MAX_EXPONENT = MAX_DEGREE = 256
MAX_BITS = 4096


EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_ORACLE_MISMATCH = 5


# -- lexer ---------------------------------------------------------------------


class _Token(Value):
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: object, pos: int):
        self._set(kind, value, pos)


# a number, with "/ denominator" when a digit follows the slash; a name; one
# punctuation character; else any one non-space character, which is refused
_TOKEN = re.compile(r"(\d+)(?:\s*/\s*(\d+))?|(\w+)|([-+*/^(),;=])|\S")


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN.finditer(text):
        num, den, name, punct = m.groups()
        i = m.start()
        if num:
            if den and int(den) == 0:
                raise ParseError("zero denominator", text, i)
            toks.append(_Token("num", Fraction(int(num), int(den or 1)), i))
        elif name and name[0].isalpha():  # \w also matches "_" and digits like "²"
            toks.append(_Token("name", name, i))
        elif punct:
            toks.append(_Token(punct, punct, i))
        else:
            raise ParseError(f"unexpected character {text[i]!r}", text, i)
    toks.append(_Token("end", None, len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}", self.text, tok.pos)
        return self.next()

    # expression grammar over Q(x)

    def parse_expr(self) -> RationalFunction:
        value = self.parse_term()
        while self.peek().kind in ("+", "-"):
            tok = self.next()
            rhs = self.parse_term()
            (n1, d1, h1), (n2, d2, h2) = _size(value), _size(rhs)
            _cap(max(n1 + d2, n2 + d1, d1 + d2), h1 + h2, tok.pos)
            value = value + rhs if tok.kind == "+" else value + (-rhs)
        return value

    def parse_term(self) -> RationalFunction:
        value = self.parse_power()
        while True:
            tok = self.peek()
            if tok.kind in ("*", "/"):
                self.next()
                rhs = self.parse_power()
                if tok.kind == "/":
                    if rhs.is_zero():
                        raise ParseError("division by zero", self.text, self.peek().pos)
                    rhs = rhs.inverse()
            elif tok.kind == "num" or tok.kind == "(" or (
                tok.kind == "name" and tok.value == "x"
            ):
                rhs = self.parse_power()  # implicit multiplication
            else:
                return value
            (n1, d1, h1), (n2, d2, h2) = _size(value), _size(rhs)
            _cap(max(n1 + n2, d1 + d2), h1 + h2, tok.pos)
            value = value * rhs

    def parse_power(self) -> RationalFunction:
        """A signed power: the signs before it apply to the power, as in
        Python, so -a^b is -(a^b) at the start of a term and after * or /."""
        sign = 1
        while self.peek().kind in ("+", "-"):
            if self.next().kind == "-":
                sign = -sign
        value = self.parse_atom()
        if self.peek().kind == "^":
            self.next()
            neg = False
            if self.peek().kind == "-":
                self.next()
                neg = True
            tok = self.expect("num")
            e = tok.value
            if e.denominator != 1:
                raise ParseError("exponent must be an integer", self.text, tok.pos)
            if e > MAX_EXPONENT:
                raise InputSizeError(
                    f"exponent above the cap of {MAX_EXPONENT} (at position {tok.pos})")
            n, d, h = _size(value)
            _cap(int(e) * max(n, d), int(e) * h, tok.pos)
            value = value.pow(-int(e) if neg else int(e))
        return -value if sign < 0 else value

    def parse_atom(self) -> RationalFunction:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return _const_rf(tok.value)
        if tok.kind == "name" and tok.value == "x":
            self.next()
            return RationalFunction.of(PolyQ.x())
        if tok.kind == "(":
            self.next()
            value = self.parse_expr()
            self.expect(")")
            return value
        raise ParseError("expected a number, x, or '('", self.text, tok.pos)


def _size(rf: RationalFunction) -> tuple[int, int, int]:
    """Degrees of numerator and denominator, and the largest bit length of a
    coefficient's numerator or denominator."""
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in rf.num.coeffs + rf.den.coeffs)
    return rf.num.degree, rf.den.degree, bits


def _cap(degree: int, bits: int, pos: int) -> None:
    for what, size, cap in (("degree", degree, MAX_DEGREE),
                            ("coefficient bit length", bits, MAX_BITS)):
        if size > cap:
            raise InputSizeError(f"{what} above the cap of {cap} (at position {pos})")


def _const_rf(q: Fraction) -> RationalFunction:
    return RationalFunction.of(PolyQ.constant(q))


def _as_fraction(rf: RationalFunction, text: str, pos: int) -> Fraction:
    if not rf.is_constant():
        raise ParseError("expected a rational number, not a polynomial", text, pos)
    return rf.num.constant_value() / rf.den.constant_value()


def _to_fp(rf: RationalFunction, p: int, text: str, pos: int) -> RationalFunction:
    try:
        num = rf.num.reduce_mod(p)
        den = rf.den.reduce_mod(p)
    except ZeroDivisionError:
        raise ParseError(f"entry is not p-integral at {p}", text, pos)
    if den.is_zero():
        raise ParseError(f"denominator vanishes mod {p}", text, pos)
    return RationalFunction(num, den)


def parse_rational(text: str) -> Fraction:
    parser = _Parser(text)
    pos = parser.peek().pos
    value = parser.parse_expr()
    parser.expect("end")
    return _as_fraction(value, text, pos)


def parse_algebra(text: str) -> QuaternionQ | SymbolAlgebraFF:
    """Parse "(a, b)" as a quaternion algebra over Q, or
    "(f, g; n=N, k=FP|Q)" as a symbol algebra over F_p(x) or Q(x)."""
    parser = _Parser(text)
    parser.expect("(")
    first_pos = parser.peek().pos
    a = parser.parse_expr()
    parser.expect(",")
    second_pos = parser.peek().pos
    b = parser.parse_expr()
    if parser.peek().kind == ")":
        parser.next()
        parser.expect("end")
        return QuaternionQ(
            _as_fraction(a, text, first_pos), _as_fraction(b, text, second_pos)
        )
    parser.expect(";")
    tok = parser.expect("name")
    if tok.value != "n":
        raise ParseError("expected n=<degree>", text, tok.pos)
    parser.expect("=")
    ntok = parser.expect("num")
    if ntok.value.denominator != 1 or ntok.value < 2:
        raise ParseError("degree n must be an integer >= 2", text, ntok.pos)
    n = int(ntok.value)
    parser.expect(",")
    tok = parser.expect("name")
    if tok.value != "k":
        raise ParseError("expected k=F<p> or k=Q", text, tok.pos)
    parser.expect("=")
    ktok = parser.expect("name")
    parser.expect(")")
    parser.expect("end")
    if ktok.value == "Q":
        return SymbolAlgebraFF(n, a, b)
    if ktok.value.startswith("F") and ktok.value[1:].isdecimal():
        p = int(ktok.value[1:])
        return SymbolAlgebraFF(
            n, _to_fp(a, p, text, first_pos), _to_fp(b, p, text, second_pos)
        )
    raise ParseError("base field must be F<p> or Q", text, ktok.pos)


def parse_curve(text: str) -> WeierstrassCurve:
    """Parse "y^2 = x^3 + A x^2 + B x + C" or "roots = a,b,c"."""
    parser = _Parser(text)
    tok = parser.peek()
    if tok.kind == "name" and tok.value == "roots":
        parser.next()
        parser.expect("=")
        vals = []
        for idx in range(3):
            pos = parser.peek().pos
            vals.append(_as_fraction(parser.parse_expr(), text, pos))
            if idx < 2:
                parser.expect(",")
        parser.expect("end")
        return WeierstrassCurve.from_roots(*vals)
    if not (tok.kind == "name" and tok.value == "y"):
        raise ParseError("expected 'y^2 = ...' or 'roots = a,b,c'", text, tok.pos)
    parser.next()
    parser.expect("^")
    two = parser.expect("num")
    if two.value != 2:
        raise ParseError("left side must be y^2", text, two.pos)
    parser.expect("=")
    rhs_pos = parser.peek().pos
    rhs = parser.parse_expr()
    parser.expect("end")
    if rhs.den.degree != 0:
        raise ParseError("right side must be a polynomial", text, rhs_pos)
    f = rhs.num.scale(1 / rhs.den.constant_value())
    if f.degree != 3 or not f.is_monic():
        raise ParseError("right side must be a monic cubic in x", text, rhs_pos)
    return WeierstrassCurve.from_coefficients(f.coeffs[2], f.coeffs[1], f.coeffs[0])


def parse_places(text: str) -> list[PlaceQ]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if chunk == "inf":
            out.append(REAL_PLACE)
        elif chunk.isdecimal():
            out.append(PlaceQ.finite(int(chunk)))
        else:
            raise ParseError(f"bad place {chunk!r} (use a prime or 'inf')", text, 0)
    return out


# -- reports -------------------------------------------------------------------


class Report(Value):
    """One run's outcome; ``to_document`` is the structured-output contract.

    ``inline_notes`` annotates numeric result keys in the text rendering and
    is deliberately not part of the structured document.
    """

    __slots__ = ("command", "inputs", "result", "factors", "provenance", "exit_status",
                 "inline_notes")

    def __init__(self, command: str, inputs: dict, result: object, factors: dict | None = None,
                 provenance: list[str] | None = None, exit_status: int = EXIT_OK,
                 inline_notes: dict | None = None):
        self._set(command, inputs, result, factors, [] if provenance is None else provenance,
                  exit_status, {} if inline_notes is None else inline_notes)

    def to_document(self) -> dict:
        doc = {"command": self.command, "inputs": self.inputs, "result": self.result}
        if self.factors is not None:
            doc["factors"] = self.factors
        doc["provenance"] = self.provenance
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        doc = json.loads(text)
        return cls(
            command=doc["command"],
            inputs=doc["inputs"],
            result=doc["result"],
            factors=doc.get("factors"),
            provenance=list(doc["provenance"]),
        )


def _fmt_value(value, notes_by_key: dict | None = None, indent: str = "  ") -> list[str]:
    lines = []
    if isinstance(value, dict):
        for key, val in value.items():
            note = ""
            if notes_by_key and key in notes_by_key:
                note = f"  [{notes_by_key[key]}]"
            if isinstance(val, (dict, list)):
                lines.append(f"{indent}{key}:{note}")
                lines.extend(_fmt_value(val, None, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {val}{note}")
    elif isinstance(value, list):
        if not value:
            lines.append(f"{indent}(none)")
        for val in value:
            if isinstance(val, dict):
                sub = _fmt_value(val, None, indent + "  ")
                if sub:
                    sub[0] = indent + "- " + sub[0].lstrip()
                lines.extend(sub)
            elif isinstance(val, list):
                lines.append(f"{indent}- " + ", ".join(str(v) for v in val))
            else:
                lines.append(f"{indent}- {val}")
    else:
        lines.append(f"{indent}{value}")
    return lines


def render_text(report: Report) -> str:
    notes = report.inline_notes or None
    lines = [f"command: {report.command}"]
    for key, val in report.inputs.items():
        lines.append(f"input {key}: {val}")
    lines.append("result:")
    lines.extend(_fmt_value(report.result, notes))
    if report.factors:
        lines.append("factors:")
        lines.extend(_fmt_value(report.factors, notes))
    if report.provenance:
        lines.append("provenance:")
        for note in report.provenance:
            lines.append(f"  - {note}")
    return "\n".join(lines)


# -- command implementations -----------------------------------------------------


_RECIPROCITY = "even ramification count and product formula: Hilbert reciprocity (ABHN exact sequence)"
_EMBED_RULE = (
    "local-global subfield criterion: Q(sqrt(d)) embeds iff d is a nonsquare "
    "in Q_v at every ramified place v"
)
_TAME_RULE = (
    "tame residue: (a,b) ramifies at w iff (-1)^(v(a)v(b)) a^(v(b)) b^(-v(a)) "
    "is not an n-th power in the residue field at w"
)


def _quaternion(text: str, command: str) -> QuaternionQ:
    D = parse_algebra(text)
    if not isinstance(D, QuaternionQ):
        raise ParseError(f"{command} expects a quaternion algebra over Q", text, 0)
    return D


def _symbol(text: str, command: str) -> SymbolAlgebraFF:
    D = parse_algebra(text)
    if not isinstance(D, SymbolAlgebraFF):
        raise ParseError(
            f"{command} expects a symbol algebra (f, g; n=N, k=FP|Q)", text, 0
        )
    return D


def _oracle_rows(D: QuaternionQ, places):
    """Yield, place by place, the closed-form symbol next to the search
    oracle's answer (the sign test at the real place)."""
    for v in places:
        expected = hilbert(D.a, D.b, v)
        if v.is_infinite:
            got = -1 if D.a < 0 and D.b < 0 else 1
            route = "sign test"
        else:
            got = hilbert_oracle(D.a, D.b, v.p)
            route = "mod p^k search with Hensel lifting"
        yield {"place": str(v), "hilbert": expected, "oracle": got, "route": route}


def _cmd_ramify(args) -> Report:
    D = _quaternion(args.algebra, "ramify")
    if args.oracle:
        for row in _oracle_rows(D, candidate_places(D)):
            if row["oracle"] != row["hilbert"]:
                raise OracleMismatchError(
                    f"hilbert={row['hilbert']} but oracle={row['oracle']} "
                    f"at place {row['place']} for {D}"
                )
    ram = ramification_set(D)
    return Report(
        command="ramify",
        inputs={"algebra": args.algebra},
        result={
            "ramified_places": [str(v) for v in ram],
            "count": len(ram),
            "division_algebra": not ram.is_empty(),
            "oracle_checked": bool(args.oracle),
        },
        provenance=[
            "ramified places: v where the local symbol (a,b)_v = -1",
            _RECIPROCITY,
        ],
        inline_notes={"count": "even by Hilbert reciprocity"},
    )


def _cmd_embed(args) -> Report:
    d = parse_rational(args.d)
    D = _quaternion(args.algebra, "embed")
    fieldq = QuadraticField.from_rational(d)
    answer = embeds(fieldq, D)
    ram = ramification_set(D)
    return Report(
        command="embed",
        inputs={"d": args.d, "algebra": args.algebra},
        result={
            "field": str(fieldq),
            "squarefree_d": fieldq.d,
            "embeds": answer,
            "ramified_places": [str(v) for v in ram],
        },
        provenance=[_EMBED_RULE],
        inline_notes={"squarefree_d": "squarefree representative of the square class"},
    )


def _cmd_distinguish(args) -> Report:
    D1 = _quaternion(args.first, "distinguish")
    D2 = _quaternion(args.second, "distinguish")
    witness = distinguishing_field(D1, D2, max_witness=args.max_witness)
    if witness is None:
        result = {"equivalent": True, "witness": None}
    else:
        result = {
            "equivalent": False,
            "witness": witness.d,
            "field": str(witness),
            "embeds_in_first": embeds(witness, D1),
            "embeds_in_second": embeds(witness, D2),
        }
    result["ramified_first"] = [str(v) for v in ramification_set(D1)]
    result["ramified_second"] = [str(v) for v in ramification_set(D2)]
    return Report(
        command="distinguish",
        inputs={"first": args.first, "second": args.second},
        result=result,
        provenance=[
            "equal ramification sets mean the classes coincide (local-global injectivity)",
            "witness search: weak approximation picks d a square at one place of the "
            "symmetric difference and a nonsquare at all ramified places of the other algebra",
            _EMBED_RULE,
        ],
        inline_notes={"witness": "verified to embed on exactly one side"},
    )


def _cmd_unramified_group(args) -> Report:
    places = parse_places(args.places)
    classes = enumerate_unramified(places)
    return Report(
        command="unramified-group",
        inputs={"places": args.places},
        result={
            "classes": [str(ram) for ram in classes],
            "count": len(classes),
            "expected_count": 2 ** (len(set(places)) - 1),
        },
        provenance=[
            "classes unramified outside S = even-sized subsets of S "
            "(kernel of the summed local invariants)",
            "count 2^(|S|-1): over Q the kernel has index 2 (one real place, "
            "no complex ones)",
        ],
        inline_notes={
            "count": "kernel of the summed invariants on S",
            "expected_count": "2^(|S|-1)",
        },
    )


def _cmd_ff_ramify(args) -> Report:
    D = _symbol(args.algebra, "ff-ramify")
    entries = [{"place": str(res.place)} for res in residues(D) if res.ramified]
    return Report(
        command="ff-ramify",
        inputs={"algebra": args.algebra},
        result={"ramified_places": entries, "count": len(entries)},
        provenance=[
            _TAME_RULE,
            "candidate places: divisors of the entries plus the degree place",
        ],
    )


def _cmd_genus_bound(args) -> Report:
    D = _symbol(args.algebra, "genus-bound")
    bound = genus_bound(D)
    if D.char > 0:
        unram_note = "unramified Brauer group of F_p(x) is trivial (factor 1)"
    else:
        unram_note = (
            "Stability Theorem (Rapinchuk-Rapinchuk): quaternion algebras over Q(x) "
            "have trivial genus (factor 1; the unramified 2-torsion 2Br(Q) is infinite)"
        )
    return Report(
        command="genus-bound",
        inputs={"algebra": args.algebra},
        result={
            "bound": bound.bound,
            "ramified_count": bound.r,
            "ramified_places": [str(w) for w in bound.ramified],
        },
        factors={
            "unramified_order": bound.unramified_order,
            "phi_factor": bound.phi_factor,
        },
        provenance=[
            "genus size <= |unramified n-torsion| * phi(n)^r, r = number of "
            "ramified places (Euler phi counts the possible residue characters)",
            unram_note,
            _TAME_RULE,
        ],
        inline_notes={
            "bound": "unramified order * phi(n)^r",
            "ramified_count": "r in the phi(n)^r factor",
            "unramified_order": unram_note,
            "phi_factor": "phi(n)^r",
        },
    )


def _cmd_elliptic_bound(args) -> Report:
    curve = parse_curve(args.curve)
    extra = parse_places(args.extra_places) if args.extra_places else []
    report_data = elliptic_genus_bound(curve, extra)
    S = report_data.S
    return Report(
        command="elliptic-bound",
        inputs={"curve": args.curve, "extra_places": args.extra_places or ""},
        result={
            "bound": report_data.bound,
            "S": [str(v) for v in S],
            "S_tags": {str(v): S.tag(v) for v in S},
            "discriminant": str(curve.discriminant()),
            "roots": [str(r) for r in curve.roots],
            "t": report_data.t,
            "c": report_data.c,
        },
        factors={
            "two_power": report_data.two_power,
            "cl_factor": report_data.cl_factor,
            "unit_factor": report_data.unit_factor,
            "breakdown": f"{report_data.two_power} * {report_data.cl_factor} * {s_unit_square_classes(S)}^2",
        },
        provenance=[
            "bound = 2^(|S|-t) * |2-torsion of the S-class group|^2 * "
            "|S-units modulo squares|^2, with t = 1 + number of complex places",
            "S contains the real place, the places over 2 and over the cubic "
            "discriminant, and every prime where a coefficient has negative valuation",
            "over Q: S-class group is trivial and the S-units are {±1} times one "
            "generator per finite place, giving 2^(1+#finite) square classes",
        ],
        inline_notes={
            "bound": "2^(|S|-t) * |2Cl_S|^2 * |U_S/U_S^2|^2",
            "discriminant": "cubic discriminant, the squared product of root differences",
            "t": "c + 1",
            "c": "number of complex places of Q",
            "two_power": "2^(|S|-t)",
            "cl_factor": "|2Cl_S|^2, trivial over Q",
            "unit_factor": "|U_S/U_S^2|^2 with 2^(1+#finite) unit square classes",
        },
    )


def _cmd_oracle_check(args) -> Report:
    D = _quaternion(args.algebra, "oracle-check")
    places = parse_places(args.places) if args.places else candidate_places(D)
    rows = list(_oracle_rows(D, places))
    mismatches = sum(row["oracle"] != row["hilbert"] for row in rows)
    return Report(
        command="oracle-check",
        inputs={"algebra": args.algebra, "places": args.places or "auto"},
        result={"checks": rows, "mismatches": mismatches},
        provenance=[
            "closed-form local symbol vs exhaustive search modulo p^k for "
            "primitive solutions of z^2 = a x^2 + b y^2 with Hensel-lifting acceptance",
        ],
        exit_status=EXIT_ORACLE_MISMATCH if mismatches else EXIT_OK,
        inline_notes={"mismatches": "agreement of the two independent routes"},
    )


# -- entry point ----------------------------------------------------------------


# command name -> (handler, help, [(argument name or flag, add_argument keywords)])
COMMANDS = {
    "ramify": (_cmd_ramify, "ramified places of (a, b) over Q", [
        ("algebra", {"help": 'e.g. "(-1, 3)"'}),
        ("--oracle", {"action": "store_true",
                      "help": "cross-check every place against the brute-force oracle"}),
    ]),
    "embed": (_cmd_embed, "does Q(sqrt(d)) embed into (a, b)?", [
        ("d", {"help": "rational whose square class defines the field"}),
        ("algebra", {"help": 'e.g. "(-1, 7)"'}),
    ]),
    "distinguish": (_cmd_distinguish, "quadratic field embedding into exactly one algebra", [
        ("first", {}),
        ("second", {}),
        ("--max-witness", {"type": int, "default": 10**6, "help": "search cap on |d|"}),
    ]),
    "unramified-group": (_cmd_unramified_group, "quaternion classes over Q unramified outside S", [
        ("--places", {"required": True, "help": "comma list, e.g. inf,2,3"}),
    ]),
    "ff-ramify": (_cmd_ff_ramify, "ramified geometric places of a symbol algebra", [
        ("algebra", {"help": 'e.g. "(x, x; n=2, k=F3)"'}),
    ]),
    "genus-bound": (_cmd_genus_bound, "genus-size bound for a symbol algebra", [("algebra", {})]),
    "elliptic-bound": (_cmd_elliptic_bound,
                       "genus bound over the function field of a split elliptic curve", [
        ("curve", {"help": 'e.g. "y^2 = x^3 - x" or "roots = 0,1,-1"'}),
        ("--extra-places", {"default": "", "help": "comma list of primes to add to S"}),
    ]),
    "oracle-check": (_cmd_oracle_check, "compare hilbert against the search oracle", [
        ("algebra", {}),
        ("--places", {"default": "", "help": "comma list (default: candidate places)"}),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text",
                        help="text report or a single JSON document")
    parser = argparse.ArgumentParser(
        prog="ramgenus",
        description="Exact ramification data, embedding criteria, and genus "
        "bounds for quaternion and symbol algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def run(argv) -> tuple[Report, int, str]:
    """Execute one request: returns (report, exit status, output format)."""
    args = build_parser().parse_args(argv)
    report = args.func(args)
    return report, report.exit_status, args.format


def main(argv=None) -> int:
    try:
        report, status, fmt = run(argv if argv is not None else sys.argv[1:])
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH
    except (RamgenusError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if fmt == "structured":
        print(report.to_json())
    else:
        print(render_text(report))
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
