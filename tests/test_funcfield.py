import random
from fractions import Fraction

import pytest

from ramgenus.errors import UnsupportedFieldError, ZeroValuationError
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
from ramgenus.gfpoly import PolyFp, fq_inv, irreducible_monics, residue_class_is_nth_power
from ramgenus.qpoly import PolyQ


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

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError):
            FFPlace.finite(PolyQ.of([-1, 0, 1]))
        with pytest.raises(ValueError):
            FFPlace.finite(PolyFp.of(5, (1, 0, 1)))  # x^2 + 1 = (x - 2)(x + 2) over F_5
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
            for e in range(6):
                assert f.pow(e) == power
                power = power * f
            power = one
            for e in range(4):
                assert f.pow(-e) == power
                power = power * f.inverse()


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
        rng = random.Random(127)
        seen = dict.fromkeys(("negative", "both", "high"), False)
        for _ in range(60):
            p = rng.choice([3, 5, 7])
            n = rng.choice([2, 3]) if p != 3 else 2
            pi = RationalFunction.of(rng.choice(irreducible_monics(p, 2)))
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
