import random
import time
from fractions import Fraction

import pytest

from ramgenus import funcfield, gfpoly, qpoly
from ramgenus.cli import parse_algebra
from ramgenus.errors import UnsupportedFieldError, ZeroValuationError
from ramgenus.exactarith import is_rational_square
from ramgenus.funcfield import (
    FFPlace,
    RationalFunction,
    SymbolAlgebraFF,
    genus_bound,
    places_of,
    ram_V,
    ram_V_over_Q,
    residues,
    tame_residue,
    tame_symbol,
)
from ramgenus.gfpoly import PolyFp, fq_inv, residue_class_is_nth_power
from ramgenus.qpoly import PolyQ

from enumerate_fp import irreducible_monics


def rf_fp(p, num, den=None):
    return RationalFunction(
        PolyFp.of(p, num), PolyFp.of(p, den) if den else PolyFp.constant(p, 1)
    )


def rf_q(num, den=None):
    return RationalFunction(
        PolyQ.of(num), PolyQ.of(den) if den else PolyQ.constant(1)
    )


def random_rf(rng, p, max_deg=3, polynomial=False):
    def poly(nonzero):
        while True:
            f = PolyFp(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, max_deg + 1))))
            if not nonzero or not f.is_zero():
                return f

    num = poly(True)
    den = poly(True) if not polynomial else PolyFp.constant(p, 1)
    return RationalFunction(num, den)


class TestPlacesOf:
    def test_trusted_places_equal_public_ones(self):
        # places_of and residues build their places from factorizer output
        # without the constructor's checks; they compare, hash and print
        # like the places that FFPlace.finite and FFPlace.infinity build
        rng = random.Random(47)
        algebras = [SymbolAlgebraFF(3, random_rf(rng, 7), random_rf(rng, 7)) for _ in range(8)]
        algebras += [SymbolAlgebraFF(2, rf_q([-2, 0, 1], [0, 1]), rf_q([3, 1], [1, 0, 1])),
                     SymbolAlgebraFF(2, rf_q([Fraction(1, 2), 0, 3]), rf_q([-1], [5, -1]))]
        for D in algebras:
            found = [w for f in (D.a, D.b) for w, _ in places_of(f)]
            found += [res.place for res in residues(D)]
            for w in found:
                public = FFPlace.infinity(w.char) if w.is_infinite else FFPlace.finite(w.pi)
                assert w == public and hash(w) == hash(public) and repr(w) == repr(public)

    def test_x_over_f3(self):
        f = rf_fp(3, (0, 1))
        assert [(str(w), v) for w, v in places_of(f)] == [("(x)", 1), ("inf", -1)]

    def test_divisor_degree_bookkeeping(self):
        f = rf_fp(3, (1, 0, 1), (0, 1))  # (x^2+1)/x: degrees 2 - 1 - 1 = 0
        got = [(str(w), v) for w, v in places_of(f)]
        assert got == [("(x)", -1), ("(x^2 + 1)", 1), ("inf", -1)]

    def test_constant_has_no_places(self):
        assert places_of(rf_fp(5, (3,))) == []
        assert places_of(rf_q([Fraction(7, 2)])) == []

    def test_rejects_zero(self):
        with pytest.raises(ZeroValuationError):
            places_of(rf_fp(3, (0,)))

    def test_degree_sum_zero_bulk(self):
        rng = random.Random(79)
        for _ in range(300):
            p = rng.choice([3, 5, 7])
            f = random_rf(rng, p)
            assert sum(v * w.degree for w, v in places_of(f)) == 0

    def test_factorizer_places_skip_irreducibility_test(self, monkeypatch):
        import ramgenus.funcfield as ff

        def refuse(_):
            raise AssertionError("irreducibility re-tested")

        monkeypatch.setattr(ff, "is_irreducible_q", refuse)
        monkeypatch.setattr(ff, "is_irreducible_fp", refuse)
        got_q = [(str(w), v) for w, v in places_of(rf_q([-2, 0, 1], [1, 0, 1]))]
        assert got_q == [("(x^2 - 2)", 1), ("(x^2 + 1)", -1)]
        got_fp = [(str(w), v) for w, v in places_of(rf_fp(3, (1, 0, 1), (0, 1)))]
        assert got_fp == [("(x)", -1), ("(x^2 + 1)", 1), ("inf", -1)]

    def test_degree_place_skips_the_primality_test(self, monkeypatch):
        # the characteristic comes from an already validated PolyFp
        import ramgenus.funcfield as ff

        D = SymbolAlgebraFF(2, rf_fp(10007, (1, 0, 1), (0, 1)), rf_fp(10007, (3, 1)))
        want, inf = residues(D), FFPlace.infinity(10007)
        monkeypatch.setattr(ff, "is_prime", lambda _: pytest.fail("characteristic re-tested"))
        assert residues(D) == want and want[-1].place == inf
        assert places_of(D.a)[-1] == (inf, -1)

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError):
            FFPlace.infinity(4)
        with pytest.raises(ValueError):
            FFPlace.finite(PolyQ.of([-1, 0, 1]))
        with pytest.raises(ValueError):
            FFPlace.finite(PolyFp.of(5, (1, 0, 1)))  # x^2 + 1 = (x - 2)(x + 2) over F_5
        with pytest.raises(ValueError, match="char does not match"):
            FFPlace(7, PolyFp.x(5))
        with pytest.raises(ValueError, match="char does not match"):
            FFPlace(5, PolyQ.x())
        with pytest.raises(TypeError):
            FFPlace(5, (0, 1))
        w = places_of(rf_q([1, 0, 1]))[0][0]
        assert w == FFPlace.finite(PolyQ.of([1, 0, 1]))

    def test_infinity_model_valuation_matches_degree_formula(self):
        rng = random.Random(83)
        xplace3 = FFPlace.finite(PolyFp.x(3))
        for _ in range(100):
            f = random_rf(rng, 3)
            model = f.at_infinity_model()
            assert model.valuation_at(xplace3) == f.den.degree - f.num.degree


class TestRationalFunction:
    def test_pow_matches_repeated_products(self):
        rng = random.Random(113)
        cases = [random_rf(rng, 5, 2) for _ in range(6)]
        cases += [rf_q([1, -2, 3], [2, 0, 1]), rf_q([Fraction(1, 2), 1], [-1, 1]), rf_q([-3])]
        for f in cases:
            one = f * f.inverse()
            power = one
            for e in range(41):
                assert f.pow(e) == power
                power = power * f
            power = one
            for e in range(4):
                assert f.pow(-e) == power
                power = power * f.inverse()

    def test_constructor_refusals(self):
        with pytest.raises(TypeError):
            RationalFunction(PolyFp.x(5), PolyQ.constant(1))
        with pytest.raises(ValueError, match="mixed characteristics"):
            RationalFunction(PolyFp.x(5), PolyFp.constant(7, 1))
        for zero in (PolyFp.of(5, (0,)), PolyQ.of([0])):
            with pytest.raises(ZeroDivisionError):
                RationalFunction(zero._like((0, 1)), zero)

    def test_coprime_high_height_quotient_reduces_at_once(self):
        # x^64 + 3 C over a random monic g of degree 64, both with 256-bit
        # coefficients: once a full primitive remainder sequence
        rng = random.Random(17)
        C = [rng.getrandbits(256) * rng.choice([-1, 1]) for _ in range(64)]
        num = PolyQ.of([3 * c for c in C] + [1])
        den = PolyQ.of([rng.getrandbits(256) * rng.choice([-1, 1]) for _ in range(64)] + [1])
        start = time.perf_counter()
        f = RationalFunction(num, den)
        assert time.perf_counter() - start < 0.5
        assert (f.num, f.den) == (num, den)


class TestTameResidue:
    def test_x_x_at_x_over_f3(self):
        D = SymbolAlgebraFF(2, rf_fp(3, (0, 1)), rf_fp(3, (0, 1)))
        w = FFPlace.finite(PolyFp.x(3))
        res = tame_residue(D, w)
        # t = -1 = 2 mod (x); squares mod 3 are {1}, so ramified
        assert res.residue_class == PolyFp.constant(3, 2)
        assert res.ramified is True

    def test_unit_entries_unramified(self):
        D = SymbolAlgebraFF(2, rf_fp(3, (0, 1)), rf_fp(3, (0, 1)))
        w = FFPlace.finite(PolyFp.of(3, (1, 1)))
        res = tame_residue(D, w)
        assert res.ramified is False

    def test_place_over_another_base_field_rejected(self):
        D = SymbolAlgebraFF(2, rf_fp(5, (0, 1)), rf_fp(5, (1, 1)))
        for w in (FFPlace.infinity(7), FFPlace.finite(PolyFp.x(7)), FFPlace.infinity(0),
                  FFPlace.finite(PolyQ.x())):
            with pytest.raises(ValueError, match="different base fields"):
                tame_residue(D, w)
        with pytest.raises(ValueError, match="different base fields"):
            tame_residue(SymbolAlgebraFF(2, rf_q([0, 1]), rf_q([1, 1])), FFPlace.infinity(5))

    def test_odd_valuation_product_at_each_kind_of_place(self):
        # v(a) v(b) odd, so -1 enters the residue: the degree place over F_5
        # and over Q, a finite place over F_7 and one over Q
        pi7, piq = rf_fp(7, (1, 0, 1)), rf_q([1, 0, 1])
        cases = [
            (SymbolAlgebraFF(2, rf_fp(5, (0, 2)), rf_fp(5, (4, 1, 0, 3))), FFPlace.infinity(5),
             PolyFp.constant(5, 4), False),
            (SymbolAlgebraFF(2, rf_q([0, 2]), rf_q([1, 0, 0, 3])), FFPlace.infinity(0),
             Fraction(-3, 8), True),
            (SymbolAlgebraFF(3, rf_fp(7, (6, 3), (1, 1)) * pi7.pow(3), rf_fp(7, (5, 2)) * pi7.pow(-1)),
             FFPlace.finite(PolyFp.of(7, (1, 0, 1))), PolyFp.of(7, (6, 4)), True),
            (SymbolAlgebraFF(2, rf_q([-2, 3]) * piq.pow(3), rf_q([5, 0, 1]) * piq.pow(-1)),
             FFPlace.finite(PolyQ.of([1, 0, 1])), PolyQ.of([Fraction(1, 416), Fraction(3, 832)]),
             True),
        ]
        for D, w, residue, ramified in cases:
            assert D.a.valuation_at(w) * D.b.valuation_at(w) % 2 == 1
            got, want = tame_residue(D, w), _residue_reference(D, w)
            if D.char:
                pi = PolyFp.x(D.char) if w.is_infinite else w.pi
                assert got.ramified == (not residue_class_is_nth_power(want, pi, D.n))
            elif w.is_infinite:
                want = want.constant_value()
                assert got.ramified == (not is_rational_square(want))
            else:
                assert got.ramified == (not qpoly.is_square_mod(want, w.pi))
            assert got.residue_class == want == residue, str(D)
            assert got.ramified is ramified, str(D)

    def test_degree_place_runs_no_irreducibility_test(self, monkeypatch):
        # the degree place is read through x -> 1/x at pi = x, which needs no
        # model algebra and no validated place
        import ramgenus.funcfield as ff

        calls = []
        for name in ("is_irreducible_fp", "is_irreducible_q"):
            real = getattr(ff, name)
            monkeypatch.setattr(ff, name, lambda f, real=real: calls.append(f) or real(f))
        x3, xq = rf_fp(3, (0, 1)), rf_q([0, 1])
        res_fp = tame_residue(SymbolAlgebraFF(2, x3, x3), FFPlace.infinity(3))
        res_q = tame_residue(SymbolAlgebraFF(2, rf_q([-2, 0, 0, 1]), xq), FFPlace.infinity(0))
        assert res_fp.ramified is True and res_fp.residue_class == PolyFp.constant(3, 2)
        assert res_q.ramified is True and res_q.residue_class == -1
        assert calls == []

    def test_square_constant_splits_everywhere(self):
        rng = random.Random(89)
        for p in (3, 5, 7):
            c = rng.choice([c for c in range(1, p)])
            D = SymbolAlgebraFF(
                2, rf_fp(p, (c * c % p,)), random_rf(rng, p)
            )
            assert ram_V(D) == []

    def test_residue_multiplicativity(self):
        # residue class of (a1*a2, b) equals the product of the classes
        rng = random.Random(97)
        for _ in range(60):
            p = rng.choice([3, 5])
            a1, a2, b = (random_rf(rng, p, 2) for _ in range(3))
            places = {w for w, _ in places_of(a1 * a2)} | {w for w, _ in places_of(b)}
            places.add(FFPlace.infinity(p))
            for w in places:
                t12 = tame_symbol(SymbolAlgebraFF(2, a1 * a2, b), w)
                t1 = tame_symbol(SymbolAlgebraFF(2, a1, b), w)
                t2 = tame_symbol(SymbolAlgebraFF(2, a2, b), w)
                if w.is_infinite:
                    # tame_symbol already works in the x -> 1/x model there
                    w = FFPlace.finite(PolyFp.x(p))
                r12 = t12.residue_at(w)
                r1 = t1.residue_at(w)
                r2 = t2.residue_at(w)
                pi = w.pi
                ratio = r12 * fq_inv(r1 * r2 % pi, pi) % pi
                assert residue_class_is_nth_power(ratio, pi, 2)


def _residue_reference(D, w):
    t = tame_symbol(D, w)
    if w.is_infinite:
        # tame_symbol already works in the x -> 1/x model there
        w = FFPlace.finite(PolyFp.x(D.char) if D.char else PolyQ.x())
    return t.residue_at(w)


def _check_direct_residues(D, seen):
    """tame_residue's class equals the reference at every candidate place;
    records the valuation patterns covered in ``seen``."""
    places = {w for w, _ in places_of(D.a)} | {w for w, _ in places_of(D.b)}
    places.add(FFPlace.infinity(D.char))
    for w in places:
        got = tame_residue(D, w).residue_class
        want = _residue_reference(D, w)
        if D.char == 0 and w.degree == 1:
            want = want.constant_value()  # residue field Q: a rational
        assert got == want, (str(D), str(w))
        va, vb = D.a.valuation_at(w), D.b.valuation_at(w)
        seen["negative"] |= va < 0 or vb < 0
        seen["both"] |= va != 0 and vb != 0
        seen["high"] |= max(abs(va), abs(vb)) >= 3


class TestDirectResidue:
    """tame_residue forms the residue in k[x]/(pi); the tame symbol built in
    k(x) and reduced at the place is the reference."""

    def test_against_tame_symbol_over_fp(self):
        # at p = 2^31 - 1 the cubic places are past the word bound, so their
        # residues are formed on lists
        rng = random.Random(127)
        seen = dict.fromkeys(("negative", "both", "high"), False)
        for _ in range(60):
            p = rng.choice([3, 5, 7, 2**31 - 1])
            n = rng.choice([2, 3]) if p != 3 else 2
            if p < 2**31 - 1:
                pi = RationalFunction.of(rng.choice(irreducible_monics(p, 2)))
            else:
                # (x + t)^3 - c is irreducible for c not a cube, as p = 1 mod 3
                c = rng.choice([c for c in range(2, 30) if pow(c, (p - 1) // 3, p) != 1])
                shift = PolyFp.of(p, (rng.randrange(p), 1))
                pi = RationalFunction.of(shift * shift * shift - PolyFp.constant(p, c))
            a = random_rf(rng, p, 2) * pi.pow(rng.randint(-4, 4))
            b = random_rf(rng, p, 2) * pi.pow(rng.randint(-4, 4))
            _check_direct_residues(SymbolAlgebraFF(n, a, b), seen)
        assert all(seen.values())

    def test_against_tame_symbol_over_q(self):
        rng = random.Random(131)
        pis = [rf_q(c) for c in ([0, 1], [1, 1], [-2, 1], [1, 0, 1], [-2, 0, 1], [1, 1, 1])]
        seen = dict.fromkeys(("negative", "both", "high"), False)
        for _ in range(25):
            def entry():
                num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
                den = [rng.randint(-3, 3) for _ in range(rng.randint(1, 2))]
                if not any(num) or not any(den):
                    return entry()
                return rf_q(num, den) * rng.choice(pis).pow(rng.randint(-3, 3))

            _check_direct_residues(SymbolAlgebraFF(2, entry(), entry()), seen)
        assert all(seen.values())


class TestDegreePlaceResidue:
    """At the degree place the residue is read from the leading coefficients
    and v_inf = deg den - deg num; the tame symbol in the x -> 1/x model is
    the reference. Entries have non-monic numerators and |v_inf| >= 2 of both
    signs."""

    @staticmethod
    def _entry(rng, poly, v):
        # deg den - deg num = v, the numerator's leading coefficient not 1
        num_deg = rng.randint(max(0, -v), 3 + max(0, -v))
        return RationalFunction(poly(num_deg, None), poly(num_deg + v, 1))

    def _check(self, D, seen):
        w = FFPlace.infinity(D.char)
        got = tame_residue(D, w)
        want = _residue_reference(D, w)
        if D.char:
            assert got.residue_class == want, str(D)
            assert got.ramified == (not residue_class_is_nth_power(want, want.x(D.char), D.n))
        else:
            want = want.constant_value()
            assert got.residue_class == want and type(got.residue_class) is Fraction, str(D)
            assert got.ramified == (not is_rational_square(want))
        va, vb = D.a.valuation_at(w), D.b.valuation_at(w)
        assert D.a.num.leading() != 1 and D.b.num.leading() != 1
        seen.update(v for v in (va, vb) if abs(v) >= 2)

    def test_over_fp(self):
        rng = random.Random(137)
        seen: set[int] = set()
        for _ in range(80):
            p = rng.choice([5, 7, 13, 31])
            n = rng.choice([2, 3])

            def poly(deg, lead):
                coeffs = [rng.randrange(p) for _ in range(deg)] + [lead or rng.randint(2, p - 1)]
                return PolyFp(p, tuple(coeffs))

            va, vb = rng.choice([-3, -2, 2, 3]), rng.choice([-3, -2, -1, 0, 1, 2, 3])
            if rng.random() < 0.5:
                va, vb = vb, va
            self._check(SymbolAlgebraFF(n, self._entry(rng, poly, va), self._entry(rng, poly, vb)),
                        seen)
        assert {-3, -2, 2, 3} <= seen

    def test_over_q(self):
        rng = random.Random(139)
        seen: set[int] = set()
        for _ in range(40):
            def poly(deg, lead):
                coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg)]
                leads = [2, -1, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)]
                return PolyQ(tuple(coeffs) + (lead or rng.choice(leads),))

            va, vb = rng.choice([-3, -2, 2, 3]), rng.choice([-3, -2, -1, 0, 1, 2, 3])
            if rng.random() < 0.5:
                va, vb = vb, va
            self._check(SymbolAlgebraFF(2, self._entry(rng, poly, va), self._entry(rng, poly, vb)),
                        seen)
        assert {-3, -2, 2, 3} <= seen


class TestRamV:
    def test_x_x_over_f3(self):
        D = SymbolAlgebraFF(2, rf_fp(3, (0, 1)), rf_fp(3, (0, 1)))
        assert [str(w) for w in ram_V(D)] == ["(x)", "inf"]

    def test_steinberg(self):
        rng = random.Random(101)
        for p in (3, 5, 7):
            for _ in range(20):
                f = random_rf(rng, p)
                one = rf_fp(p, (1,))
                g = one + (-f)
                if f.is_zero() or g.is_zero():
                    continue
                D = SymbolAlgebraFF(2, f, g)
                assert ram_V(D) == []

    def test_minus_one_x_over_f7(self):
        # Euler criterion decides: (-1)^3 = -1 mod 7, so -1 is a nonsquare
        # and the symbol ramifies at (x) and infinity
        assert pow(-1 % 7, (7 - 1) // 2, 7) == 7 - 1
        D = SymbolAlgebraFF(2, rf_fp(7, (-1,)), rf_fp(7, (0, 1)))
        assert [str(w) for w in ram_V(D)] == ["(x)", "inf"]

    def test_constant_entries_unramified(self):
        D = SymbolAlgebraFF(2, rf_fp(5, (2,)), rf_fp(5, (3,)))
        assert ram_V(D) == []

    def test_even_count_bulk(self):
        # Faddeev parity: the invariant sum over all places vanishes, so the
        # number of ramified places of a quaternion symbol is even
        rng = random.Random(103)
        for _ in range(1000):
            p = rng.choice([3, 5])
            D = SymbolAlgebraFF(2, random_rf(rng, p), random_rf(rng, p))
            assert len(ram_V(D)) % 2 == 0

    def test_exhaustive_scan_agrees(self):
        # candidate-set completeness: scanning every place of degree <= 3
        # finds exactly the ramified places that ram_V reports there
        rng = random.Random(107)
        for p in (3, 5):
            universe = [FFPlace.finite(pi) for pi in irreducible_monics(p, 3)]
            universe.append(FFPlace.infinity(p))
            for _ in range(10):
                D = SymbolAlgebraFF(2, random_rf(rng, p), random_rf(rng, p))
                reported = set(ram_V(D))
                scanned = {w for w in universe if tame_residue(D, w).ramified}
                assert scanned == {w for w in reported if w.degree <= 3 or w.is_infinite}


class TestRamVOverQ:
    def test_x_x(self):
        x = rf_q([0, 1])
        out = ram_V_over_Q(SymbolAlgebraFF(2, x, x))
        assert [(str(r.place), r.ramified) for r in out] == [("(x)", True), ("inf", True)]

    def test_shifted_pair(self):
        a, b = rf_q([-1, 1]), rf_q([1, 1])
        out = ram_V_over_Q(SymbolAlgebraFF(2, a, b))
        by_place = {str(r.place): r for r in out}
        # residues 1/2 ~ 2, -2, -1 at the three places; 2 * (-2) * (-1) = 4
        # is a rational square, as Faddeev reciprocity demands
        assert sorted(by_place) == ["(x + 1)", "(x - 1)", "inf"]
        assert all(r.ramified for r in out)
        res = by_place["(x - 1)"]
        # tame symbol reduces to 1/2, the square class of 2: a proven nonsquare
        assert res.residue_class == Fraction(1, 2)
        assert res.ramified is True

    def test_square_constant_entry(self):
        D = SymbolAlgebraFF(2, rf_q([Fraction(9, 4)]), rf_q([3, 0, 1]))
        assert ram_V_over_Q(D) == []

    def test_higher_degree_proven_via_witness(self):
        # (x, x^2 - 2) at (x^2 - 2): residue is sqrt(2), a nonsquare in
        # Q(sqrt 2), whose norm -2 is already a rational nonsquare
        D = SymbolAlgebraFF(2, rf_q([0, 1]), rf_q([-2, 0, 1]))
        out = {str(r.place): r for r in ram_V_over_Q(D)}
        assert out["(x^2 - 2)"].ramified is True

    def test_unresolved_square(self):
        # (2, x^2 - 2) at (x^2 - 2): residue 2 = (sqrt 2)^2 is a square in
        # the residue field, though not in Q. Square images modulo primes
        # could never prove this; the exact test shows the place unramified
        D = SymbolAlgebraFF(2, rf_q([2]), rf_q([-2, 0, 1]))
        assert ram_V_over_Q(D) == []
        assert ram_V(D) == []

    def test_x4_plus_1_unresolved(self):
        # x^4 + 1 is reducible modulo every prime, so no reduction keeps the
        # residue field; the exact test still proves 3 a nonsquare in Q(zeta_8)
        D = SymbolAlgebraFF(2, rf_q([3]), rf_q([1, 0, 0, 0, 1]))
        out = ram_V_over_Q(D)
        assert [(str(r.place), r.ramified) for r in out] == [("(x^4 + 1)", True)]

    @pytest.mark.parametrize(
        "a, b, ramified",
        [
            ([1, 0, 0, 0, 0, 0, 0, 0, 1], [5], ["(x^8 + 1)"]),
            ([1, 0, 0, 1, 0, 0, 1], [7], ["(x^6 + x^3 + 1)"]),
            ([2], [-2, 0, 1], []),
            (
                [-1] + [0] * 11 + [1],
                [3, 1],
                ["(x + 1)", "(x + 3)", "(x^2 - x + 1)", "(x^2 + 1)", "(x^2 + x + 1)",
                 "(x^4 - x^2 + 1)"],
            ),
        ],
    )
    def test_exact_verdicts_at_higher_degree_places(self, a, b, ramified):
        # no reduction modulo a prime decides these: x^8 + 1 and the place
        # x^4 - x^2 + 1 of x^12 - 1 are reducible modulo every prime, and a
        # rational constant is a square in every finite field of even degree
        D = SymbolAlgebraFF(2, rf_q(a), rf_q(b))
        assert [str(w) for w in ram_V(D)] == ramified
        assert all(type(r.ramified) is bool for r in residues(D))

    def test_rejects_higher_degree_symbols(self):
        x = rf_q([0, 1])
        with pytest.raises(UnsupportedFieldError):
            ram_V_over_Q(SymbolAlgebraFF(3, x, x))


def _stall_quotient(d):
    # places (x) and the two degree-d factors, where Euclid on Fraction
    # coefficients and Trager's M at every place once stalled the residues
    return parse_algebra(f"(((x+1)^{d} + 3)/((x+2)^{d} + 5), x; n=2, k=Q)")


def _square_family(d):
    # (x + 1)^(-2) at the place x^d + 3: a square with a square norm
    return parse_algebra(f"(x^{d} + 3, (x + 1)^2; n=2, k=Q)")


class TestResidueStalls:
    """High-degree places over Q(x), verdicts recorded with Euclid on
    Fraction coefficients and Trager's norm method at every place."""

    @pytest.mark.parametrize("d", [32, 48])
    def test_quotient_family_verdicts(self, d):
        out = residues(_stall_quotient(d))
        assert [(w.place.degree, w.ramified) for w in out] == [(1, True), (d, True), (d, True), (1, False)]
        assert [str(out[0].place), str(out[3].place)] == ["(x)", "inf"]

    @pytest.mark.parametrize("d", [16, 24])
    def test_square_family_is_unramified(self, d):
        out = residues(_square_family(d))
        assert [str(w.place) for w in out] == ["(x + 1)", f"(x^{d} + 3)", "inf"]
        assert [w.ramified for w in out] == [False, False, False]

    @pytest.mark.parametrize("family", [_stall_quotient, _square_family])
    def test_residue_classes_match_the_tame_symbol(self, family):
        D = family(16)
        for res in residues(D):
            want = _residue_reference(D, res.place)
            if res.place.degree == 1:
                want = want.constant_value()
                assert type(res.residue_class) is Fraction
            else:
                assert type(res.residue_class) is PolyQ
            assert res.residue_class == want, str(res.place)


class TestResidueCallCounts:
    """The order of the checks over Q(x), pinned by call counts: a nonsquare
    proven by the norm or the local sieve never builds Trager's
    characteristic polynomial, and the residue pass inverts on the integer
    model, never through fq_inv on a PolyQ."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"char_poly": 0, "sieve": 0, "fq_inv": []}
        char_poly, sieve, inverse = qpoly._char_poly, qpoly._local_nonsquare, funcfield.fq_inv

        def count_char_poly(r, f):
            calls["char_poly"] += 1
            return char_poly(r, f)

        def count_sieve(r, f):
            calls["sieve"] += 1
            return sieve(r, f)

        def count_fq_inv(a, pi):
            calls["fq_inv"].append(type(a).__name__)
            return inverse(a, pi)

        monkeypatch.setattr(qpoly, "_char_poly", count_char_poly)
        monkeypatch.setattr(qpoly, "_local_nonsquare", count_sieve)
        monkeypatch.setattr(funcfield, "fq_inv", count_fq_inv)
        monkeypatch.setattr(gfpoly, "fq_inv", count_fq_inv)
        return calls

    def test_nonsquares_never_reach_trager(self, monkeypatch):
        calls = self._count(monkeypatch)
        D = _stall_quotient(16)
        out = residues(D)
        assert [w.ramified for w in out] == [True, True, True, False]
        # x^(-1) at x^16 + ... + 4 has the square norm 1/4, so the sieve decides
        assert calls == {"char_poly": 0, "sieve": 1, "fq_inv": []}
        tame_symbol(D, out[1].place).residue_at(out[1].place)
        assert calls["fq_inv"] == ["PolyQ"]  # the counter sees a PolyQ inverse

    def test_a_square_passes_norm_and_sieve_then_trager(self, monkeypatch):
        calls = self._count(monkeypatch)
        assert [w.ramified for w in residues(_square_family(8))] == [False, False, False]
        assert calls["sieve"] == 1 and calls["char_poly"] >= 1 and calls["fq_inv"] == []

    def test_the_norm_decides_most_places(self, monkeypatch):
        calls = self._count(monkeypatch)
        D = SymbolAlgebraFF(2, rf_q([3]), rf_q([1, 1, 0, 1]))  # N(3) = 27 at x^3 + x + 1
        assert [str(w) for w in ram_V(D)] == ["(x^3 + x + 1)", "inf"]
        assert calls == {"char_poly": 0, "sieve": 0, "fq_inv": []}


class TestGenusBound:
    def test_f3_quaternion_singleton(self):
        D = SymbolAlgebraFF(2, rf_fp(3, (0, 1)), rf_fp(3, (0, 1)))
        out = genus_bound(D)
        assert out.bound == 1 and out.r == 2 and out.phi_factor == 1

    def test_degree_three_over_f7(self):
        # phi(3)^r = 2^r
        D = SymbolAlgebraFF(3, rf_fp(7, (0, 1)), rf_fp(7, (1, 1)))
        out = genus_bound(D)
        assert out.bound == 2**out.r

    def test_degree_four_over_f3(self):
        # gcd(4, 3^deg - 1) handling: phi(4)^r = 2^r
        D = SymbolAlgebraFF(4, rf_fp(3, (0, 1)), rf_fp(3, (1, 1)))
        out = genus_bound(D)
        assert out.bound == 2**out.r
        assert out.r == len(ram_V(D))

    def test_exponent_two_over_qx(self):
        x = rf_q([0, 1])
        out = genus_bound(SymbolAlgebraFF(2, x, x))
        assert out.bound == 1

    def test_char_mismatch_rejected(self):
        with pytest.raises(UnsupportedFieldError):
            SymbolAlgebraFF(3, rf_fp(3, (0, 1)), rf_fp(3, (0, 1)))

    def test_invalid_symbols_rejected(self):
        x5 = rf_fp(5, (0, 1))
        for n in (1, 0, -2):
            with pytest.raises(ValueError, match="at least 2"):
                SymbolAlgebraFF(n, x5, x5)
        for a, b in ((x5, rf_fp(7, (0, 1))), (x5, rf_q([0, 1])), (rf_q([0, 1]), x5)):
            with pytest.raises(ValueError, match="different base fields"):
                SymbolAlgebraFF(2, a, b)
        for a, b in ((rf_fp(5, (0,)), x5), (x5, rf_fp(5, (0,))), (rf_q([0]), rf_q([0, 1]))):
            with pytest.raises(ZeroValuationError):
                SymbolAlgebraFF(2, a, b)
