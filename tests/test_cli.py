import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramgenus.brauerq import QuaternionQ
from ramgenus.cli import (
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    MAX_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    InputSizeError,
    Report,
    _tokenize,
    main,
    parse_algebra,
    parse_curve,
    parse_places,
    parse_rational,
    run,
)
from ramgenus.errors import ParseError
from ramgenus.funcfield import SymbolAlgebraFF
from ramgenus.localsymbols import REAL_PLACE, PlaceQ, hilbert


class TestParsing:
    def test_quaternion(self):
        D = parse_algebra("(-1, 3)")
        assert isinstance(D, QuaternionQ)
        assert (D.a, D.b) == (Fraction(-1), Fraction(3))

    def test_quaternion_fractions(self):
        D = parse_algebra("(4/9, -7/2)")
        assert (D.a, D.b) == (Fraction(4, 9), Fraction(-7, 2))

    def test_symbol_algebra_fp(self):
        D = parse_algebra("(x, x; n=2, k=F3)")
        assert isinstance(D, SymbolAlgebraFF)
        assert D.n == 2 and D.char == 3
        assert str(D.a) == "x"

    def test_symbol_algebra_q(self):
        D = parse_algebra("((x^2+1)/x, x - 1; n=2, k=Q)")
        assert D.char == 0
        assert str(D.a.num) == "x^2 + 1" and str(D.a.den) == "x"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_algebra("(1/0, 2)")
        assert err.value.position == 1

    def test_polynomial_entry_in_quaternion_rejected(self):
        with pytest.raises(ParseError):
            parse_algebra("(x, 3)")

    def test_coefficient_grammar(self):
        D = parse_algebra("(3/2 x^2 - x + 1/4, x; n=2, k=Q)")
        assert D.a.num.coeffs == (Fraction(1, 4), Fraction(-1), Fraction(3, 2))

    def test_whitespace_insensitive(self):
        assert parse_algebra("(x,x;n=2,k=F3)") == parse_algebra(
            "( x , x ; n = 2 , k = F3 )"
        )
        assert parse_algebra("(-1,3)") == parse_algebra("( -1 , 3 )")

    def test_exponent_cap(self):
        assert parse_algebra(f"(x^{MAX_EXPONENT}, x; n=2, k=F5)").a.num.degree == MAX_EXPONENT
        assert parse_rational(f"2^-{MAX_EXPONENT}") == Fraction(1, 2**MAX_EXPONENT)
        for text in (f"(x^{MAX_EXPONENT + 1}, x; n=2, k=F5)", f"(3, 2^-{MAX_EXPONENT + 1})"):
            with pytest.raises(InputSizeError) as err:
                parse_algebra(text)
            assert not isinstance(err.value, ParseError)

    def test_degree_cap_on_products_sums_and_powers(self):
        # the degree a sum, product or power would reach is checked before it
        # is expanded; results of degree MAX_DEGREE still parse
        d = MAX_DEGREE
        for text in (f"x^{d - 1} * x", f"x^{d} + 1/x^0", f"1/(x+1)^{d - 1} + x",
                     f"(x^{d // 2})^2"):
            assert max(parse_algebra(f"({text}, x; n=2, k=F5)").a.num.degree, 0) <= d
        for text in (f"x^{d} * x", f"x^{d}(x+1)", f"x / (1/x^{d})", f"1/x^{d} + 1/(x+1)",
                     f"(x^{d // 2 + 1})^2", f"((x+1)^{d})^{d}", f"(x+1)^{d} - 1/(x+2)^{d}"):
            with pytest.raises(InputSizeError, match=f"cap of {d}"):
                parse_algebra(f"({text}, x; n=2, k=F5)")

    def test_coefficient_cap_on_products_sums_and_powers(self):
        # the bit length of coefficients is estimated from the operands (the
        # sum of theirs, or the exponent times the base's) before the result
        # is formed; 2^255 has 256 bits
        assert MAX_BITS == 16 * 256
        for text in ("(2^255)^16", "(2^255)^8 (2^255)^8", "(2^255)^8 - 1/(2^255)^8",
                     "(2^255 x + 1)^16"):
            parse_algebra(f"({text}, x; n=2, k=Q)")
        for text in ("(2^255)^17", "(2^255)^9 * (2^255)^8", "(2^255)^9 + (2^255)^8",
                     "1/(2^255)^9 + 1/(2^255)^8", "(2^255 x + 1)^17", "((3^256)^256)^256"):
            with pytest.raises(InputSizeError, match=f"cap of {MAX_BITS}"):
                parse_algebra(f"({text}, x; n=2, k=Q)")

    def test_rational(self):
        assert parse_rational("-10") == -10
        assert parse_rational("7/4") == Fraction(7, 4)
        with pytest.raises(ParseError):
            parse_rational("x + 1")

    def test_sign_applies_to_the_power_after_it(self):
        # -a^b is -(a^b) at the start of a term and after * or /, as in Python
        cases = ["3*-2^2", "-2^2", "3 - -2^2", "3 + -2^2", "2*--3^2", "-3/-2^3", "3*+2^2",
                 "2^-2*-3", "(-2)^2*-1", "-(1/2)^3/-2^-1", "1 - 2*-3^2 + 4/-2^2"]
        for text in cases:
            assert parse_rational(text) == eval(text.replace("^", "**")), text
        assert parse_algebra("(x/-x^2, 3*-x^2; n=2, k=Q)") == parse_algebra(
            "(-1/x, -3x^2; n=2, k=Q)")
        # a long sign chain after * is read by a loop, not by recursion
        assert parse_rational("3*" + "-" * 5001 + "2^2") == -12

    def test_curve_coefficient_form(self):
        curve = parse_curve("y^2 = x^3 - x")
        assert curve.roots == (Fraction(-1), Fraction(0), Fraction(1))

    def test_curve_roots_form(self):
        curve = parse_curve("roots = 0, 1, -1")
        assert curve.roots == (Fraction(-1), Fraction(0), Fraction(1))

    def test_curve_must_be_monic_cubic(self):
        with pytest.raises(ParseError):
            parse_curve("y^2 = x^2 - 1")
        with pytest.raises(ParseError):
            parse_curve("y^2 = 2x^3 - 1")

    def test_places(self):
        assert parse_places("inf,2,3") == [REAL_PLACE, PlaceQ.finite(2), PlaceQ.finite(3)]
        with pytest.raises(ParseError):
            parse_places("inf,abc")


def _reference_tokenize(text):
    """The hand-written scanner that ``_tokenize`` replaced, kept as the
    reference for its token kinds, values, positions and errors."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            k = j
            while k < n and text[k].isspace():
                k += 1
            if k < n and text[k] == "/":
                m = k + 1
                while m < n and text[m].isspace():
                    m += 1
                if m < n and text[m].isdigit():
                    e = m
                    while e < n and text[e].isdigit():
                        e += 1
                    den = int(text[m:e])
                    if den == 0:
                        raise ParseError("zero denominator", text, i)
                    toks.append(("num", Fraction(num, den), i))
                    i = e
                    continue
            toks.append(("num", Fraction(num), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),;=":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", text, i)
    toks.append(("end", None, n))
    return toks


def _tokens(text):
    return [(t.kind, t.value, t.pos) for t in _tokenize(text)]


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.position


class TestLexer:
    # the grammar's alphabet, whitespace, two stray ASCII characters, a
    # non-ASCII letter, a full-width digit (a decimal digit for int()) and a
    # Roman numeral (alphanumeric but no letter, so it cannot start a name)
    ALPHABET = "0123456789+-*/^(),;=xyknFQrots_ \t\n$.é３Ⅻ"

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=40))
    @example("3 / 4x")
    @example("3/ 0")
    @example("12/")
    @example("1/2/3")
    @example("x_1é")
    @example("_x")
    @example("３/４")
    def test_matches_the_reference_scanner(self, text):
        assert _outcome(_tokens, text) == _outcome(_reference_tokenize, text)


class TestCommands:
    def test_ramify(self):
        report, status, fmt = run(["ramify", "(-1,3)"])
        assert status == EXIT_OK and fmt == "text"
        assert report.result["ramified_places"] == ["2", "3"]

    def test_ramify_with_a_sign_after_a_product(self):
        # (3, 2*-2^2) is (3, -8), which is split; (-1, 2*-3^2) is (-1, -18)
        report, status, _ = run(["ramify", "(3, 2*-2^2)"])
        assert status == EXIT_OK and report.result["ramified_places"] == []
        report, status, _ = run(["ramify", "(-1, 2*-3^2)"])
        assert status == EXIT_OK and report.result["ramified_places"] == ["2", "inf"]

    def test_ramify_with_oracle(self):
        report, status, _ = run(["ramify", "(-1,3)", "--oracle"])
        assert status == EXIT_OK
        assert report.result["oracle_checked"] is True

    def test_embed(self):
        report, status, _ = run(["embed", "10", "(-1,7)"])
        assert status == EXIT_OK and report.result["embeds"] is True
        report, _, _ = run(["embed", "10", "(-1,3)"])
        assert report.result["embeds"] is False

    def test_distinguish(self):
        report, status, _ = run(["distinguish", "(-1,3)", "(-1,7)"])
        assert status == EXIT_OK
        assert report.result["embeds_in_first"] != report.result["embeds_in_second"]

    def test_unramified_group(self):
        report, status, _ = run(["unramified-group", "--places", "inf,2,3"])
        assert status == EXIT_OK
        assert report.result["count"] == 4 == report.result["expected_count"]

    def test_ff_ramify(self):
        report, status, _ = run(["ff-ramify", "(x, x; n=2, k=F3)"])
        assert status == EXIT_OK
        assert [e["place"] for e in report.result["ramified_places"]] == ["(x)", "inf"]

    def test_ff_ramify_proven_square_exits_zero(self):
        # 2 is a square modulo x^2 - 2 though not in Q: a proven verdict,
        # where a prime scan could only leave the place unresolved
        report, status, _ = run(["ff-ramify", "(2, x^2 - 2; n=2, k=Q)"])
        assert status == EXIT_OK
        assert report.result == {"ramified_places": [], "count": 0}

    def test_genus_bound(self):
        report, status, _ = run(["genus-bound", "(x, x; n=2, k=F3)"])
        assert status == EXIT_OK
        assert report.result["bound"] == 1
        assert report.factors == {"unramified_order": 1, "phi_factor": 1}

    @pytest.mark.parametrize(
        "algebra, note",
        [
            ("(x, x; n=2, k=F3)", "unramified Brauer group of F_p(x) is trivial (factor 1)"),
            (
                "(2, x^2 - 2; n=2, k=Q)",
                "Stability Theorem (Rapinchuk-Rapinchuk): quaternion algebras over Q(x) "
                "have trivial genus (factor 1; the unramified 2-torsion 2Br(Q) is infinite)",
            ),
        ],
    )
    def test_genus_bound_grounding_per_base_field(self, algebra, note):
        # over Q(x) the factor 1 is not a group order: 2Br(Q) is infinite
        report, status, _ = run(["genus-bound", algebra])
        assert status == EXIT_OK and report.factors["unramified_order"] == 1
        assert report.provenance[1] == note
        assert report.inline_notes["unramified_order"] == note

    def test_genus_bound_degree_three(self):
        report, _, _ = run(["genus-bound", "(x, x + 1; n=3, k=F7)"])
        r = report.result["ramified_count"]
        assert report.result["bound"] == 2**r
        assert report.factors["phi_factor"] == 2**r

    def test_elliptic_bound(self):
        report, status, _ = run(["elliptic-bound", "y^2 = x^3 - x"])
        assert status == EXIT_OK
        assert report.result["bound"] == 32
        assert report.factors["two_power"] == 2
        assert report.factors["unit_factor"] == 16
        assert report.result["S"] == ["2", "inf"]

    def test_elliptic_bound_extra_places(self):
        report, _, _ = run(
            ["elliptic-bound", "y^2 = x^3 - x", "--extra-places", "3"]
        )
        assert report.result["bound"] == 256

    def test_oracle_check(self):
        report, status, _ = run(["oracle-check", "(-1,3)"])
        assert status == EXIT_OK and report.result["mismatches"] == 0


class TestMainExitCodes:
    def test_success(self, capsys):
        assert main(["ramify", "(-1,3)"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ramified places" in out or "ramified_places" in out

    def test_parse_error(self, capsys):
        assert main(["ramify", "(1/0, 2)"]) == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_precondition_error(self, capsys):
        # split algebra: the embedding criterion refuses to answer
        assert main(["embed", "10", "(1, 5)"]) == EXIT_PRECONDITION
        assert "error" in capsys.readouterr().err

    def test_witness_cap_zero_exhausts_the_search(self, capsys):
        argv = ["distinguish", "(-1, -1)", "(2, 5)", "--max-witness"]
        assert main(argv + ["0"]) == EXIT_PRECONDITION
        assert "no witness with |d| <= 0" in capsys.readouterr().err
        assert main(argv + ["1"]) == EXIT_OK
        assert "Q(sqrt(-1))" in capsys.readouterr().out

    def test_proven_square_exits_zero(self, capsys):
        assert main(["ff-ramify", "(2, x^2 - 2; n=2, k=Q)"]) == EXIT_OK
        assert "count: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["ff-ramify", "(x^999999999, x; n=2, k=F5)"],
        ["ramify", "(2^999999999, 3)"],
    ])
    def test_exponent_above_the_cap_fails_at_once(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == EXIT_PRECONDITION
        assert time.perf_counter() - start < 5
        assert f"cap of {MAX_EXPONENT}" in capsys.readouterr().err

    def test_entry_past_the_rho_budget_fails_at_once(self, capsys):
        # the product of the primes after 2^70 and 2^71
        n = 2_787_593_149_816_327_892_763_980_872_944_807_277_756_691
        start = time.perf_counter()
        assert main(["ramify", f"({n}, 3)"]) == EXIT_PRECONDITION
        assert time.perf_counter() - start < 5
        assert "Brent-rho steps" in capsys.readouterr().err

    def test_2048_bit_entry_past_the_rho_budget_fails_at_once(self, capsys):
        # the budget counts word squarings, so a product of two 1024-bit
        # primes, inside the coefficient cap, is given up in seconds
        import sympy

        n = sympy.nextprime(2**1023) * sympy.nextprime(2**1024)
        start = time.perf_counter()
        assert main(["ramify", f"({n}, 3)"]) == EXIT_PRECONDITION
        assert time.perf_counter() - start < 10
        assert "Brent-rho steps" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["((x+1)^256)^256", "((x+1)^256)^2", "(x+1)^256 (x+1)^256"])
    def test_degree_above_the_cap_fails_at_once(self, entry, capsys):
        start = time.perf_counter()
        assert main(["ff-ramify", f"({entry}, x; n=2, k=Q)"]) == EXIT_PRECONDITION
        assert time.perf_counter() - start < 2  # expanding (x+1)^256 over Q alone takes 0.15 s
        assert f"cap of {MAX_DEGREE}" in capsys.readouterr().err

    def test_quotient_of_degree_96_over_q_parses_at_once(self):
        # reducing the quotient by a gcd in Q[x]: Euclid on Fraction
        # coefficients takes about 40 s on it, the primitive gcd on the
        # integer models a tenth of a second
        start = time.perf_counter()
        D = parse_algebra("(((x+1)^96 + 3)/((x+2)^96 + 5), x; n=2, k=Q)")
        assert time.perf_counter() - start < 2
        assert (D.a.num.degree, D.a.den.degree) == (96, 96) and D.a.den.is_monic()

    @pytest.mark.parametrize("argv", [
        ["ramify", "(((3^256)^256)^256, 3)"],
        ["ff-ramify", "((3^256 x + 1)^256, x; n=2, k=Q)"],
    ])
    def test_coefficients_above_the_cap_fail_at_once(self, argv, capsys):
        start = time.perf_counter()
        assert main(argv) == EXIT_PRECONDITION
        assert time.perf_counter() - start < 2  # expanding either one takes 8-10 s
        assert f"cap of {MAX_BITS}" in capsys.readouterr().err

    def test_superscript_digit_is_a_parse_error(self, capsys):
        # str.isdigit holds for "²" but int() refuses it, so it is no digit
        assert main(["ramify", "(²,3)"]) == EXIT_PARSE
        assert "unexpected character '²' (at position 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["unramified-group", "--places", "inf,²"], "bad place '²'"),
        (["elliptic-bound", "roots = 0,1,-1", "--extra-places", "²"], "bad place '²'"),
        (["ff-ramify", "(x, x; n=2, k=F²)"], "base field must be F<p> or Q"),
    ])
    def test_superscript_digit_in_a_place_or_field_is_a_parse_error(self, argv, message, capsys):
        # places and k=F<p> accept what str.isdecimal accepts, as int() does
        assert main(argv) == EXIT_PARSE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_characteristic_that_is_not_prime(self, p, capsys):
        assert main(["ff-ramify", f"(x, x; n=2, k=F{p})"]) == EXIT_PRECONDITION
        assert f"characteristic {p} is not prime" in capsys.readouterr().err

    def test_structured_format(self, capsys):
        assert main(["ramify", "(-1,3)", "--format", "structured"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "ramify"
        assert doc["result"]["ramified_places"] == ["2", "3"]

    def test_unramified_order_flag_rejected(self, capsys):
        # the unramified factor is known (1) on every supported base field
        with pytest.raises(SystemExit) as exc:
            main(["genus-bound", "(x, x; n=2, k=F3)", "--unramified-order", "8"])
        assert exc.value.code == 2
        assert "--unramified-order" in capsys.readouterr().err

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "(-1,3)"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()


class TestOracleMismatch:
    """Exit 5 on both oracle paths, with the search oracle made to disagree
    with the closed-form symbol at every finite place."""

    @pytest.fixture(autouse=True)
    def negated_oracle(self, monkeypatch):
        def oracle(a, b, p):
            return -hilbert(a, b, PlaceQ.finite(p))

        monkeypatch.setattr("ramgenus.cli.hilbert_oracle", oracle)

    def test_ramify_oracle(self, capsys):
        assert main(["ramify", "(-1,3)", "--oracle"]) == EXIT_ORACLE_MISMATCH
        out, err = capsys.readouterr()
        assert out == ""
        assert "oracle mismatch:" in err

    def test_oracle_check(self, capsys):
        argv = ["oracle-check", "(-1,3)", "--format", "structured"]
        assert main(argv) == EXIT_ORACLE_MISMATCH
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["mismatches"] == 2  # places 2 and 3; inf is a sign test


class TestStructuredOutput:
    COMMANDS = [
        ["ramify", "(-1,3)"],
        ["embed", "10", "(-1,7)"],
        ["distinguish", "(-1,3)", "(-1,7)"],
        ["unramified-group", "--places", "inf,2,3"],
        ["ff-ramify", "(x, x; n=2, k=F3)"],
        ["genus-bound", "(x, x; n=2, k=F3)"],
        ["elliptic-bound", "y^2 = x^3 - x"],
        ["oracle-check", "(-1,3)"],
    ]

    def test_round_trip(self):
        for argv in self.COMMANDS:
            report, _, _ = run(argv)
            parsed = Report.from_json(report.to_json())
            assert parsed.to_document() == report.to_document()

    def test_documented_fields(self):
        for argv in self.COMMANDS:
            report, _, _ = run(argv)
            doc = report.to_document()
            assert set(doc) <= {"command", "inputs", "result", "factors", "provenance"}
            assert {"command", "inputs", "result", "provenance"} <= set(doc)

    def test_deterministic(self):
        for argv in self.COMMANDS:
            first, _, _ = run(argv)
            second, _, _ = run(argv)
            assert first.to_json() == second.to_json()
