import random
import time
from fractions import Fraction

import pytest
import sympy

from ramgenus.errors import ZeroValuationError
from ramgenus.qpoly import PolyQ, factor_q, is_irreducible_q, is_square_mod, rational_roots


def random_polyq(rng, max_deg, nonzero=True):
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(deg + 1)
        ]
        f = PolyQ(tuple(coeffs))
        if not nonzero or not f.is_zero():
            return f


class TestArithmetic:
    def test_divmod_round_trip(self):
        rng = random.Random(29)
        for _ in range(200):
            f = random_polyq(rng, 6)
            g = random_polyq(rng, 4)
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero() or r.degree < g.degree

    def test_evaluate_and_reverse(self):
        f = PolyQ.of([1, 0, 1])  # x^2 + 1
        assert f.evaluate(2) == 5
        assert f.reverse() == f
        g = PolyQ.of([0, 0, 1])  # x^2
        assert g.reverse() == PolyQ.constant(1)

    def test_reduce_mod(self):
        f = PolyQ.of([Fraction(1, 2), 1])
        g = f.reduce_mod(3)
        assert g.coeffs == (2, 1)  # 1/2 = 2 mod 3
        with pytest.raises(ZeroDivisionError):
            f.reduce_mod(2)
        for p in (0, 1, 4):  # p is checked first, as the constructor of PolyFp does
            with pytest.raises(ValueError, match=f"characteristic {p} is not prime"):
                f.reduce_mod(p)

    def test_str_unit_coefficients(self):
        assert str(PolyQ.of([1, -1, 1])) == "x^2 - x + 1"
        assert str(PolyQ.of([1, 0, -1, 0, 1])) == "x^4 - x^2 + 1"
        assert str(PolyQ.of([-1, -1])) == "-x - 1"
        assert str(PolyQ.of([0, 1, Fraction(-1, 2), -2])) == "-2*x^3 - 1/2*x^2 + x"

    def test_integer_model(self):
        f = PolyQ.of([Fraction(1, 2), Fraction(3, 4)])
        content, ints = f.integer_model()
        assert ints == (2, 3)
        assert content == Fraction(1, 4)


def euclid_gcd(f: PolyQ, g: PolyQ) -> PolyQ:
    """The reference: Euclid on Fraction coefficients, made monic."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


class TestGcd:
    def test_against_fraction_euclid(self):
        # random pairs with a planted common factor, degree at most 12
        rng = random.Random(1976)
        for _ in range(200):
            h = random_polyq(rng, 4)
            f = random_polyq(rng, 12 - h.degree) * h
            g = random_polyq(rng, 12 - h.degree) * h
            d = f.gcd(g)
            assert d == euclid_gcd(f, g), (str(f), str(g))
            assert d.is_monic() and (d % h.monic()).is_zero()

    def test_zero_and_constant_operands(self):
        zero, c = PolyQ(()), PolyQ.constant(Fraction(-3, 4))
        f = PolyQ.of([Fraction(1, 2), -3, Fraction(5, 3)])
        for a, b in ((zero, zero), (f, zero), (zero, f), (c, zero), (zero, c), (c, f), (f, c), (f, f)):
            assert a.gcd(b) == euclid_gcd(a, b), (str(a), str(b))
        assert zero.gcd(zero).is_zero()
        assert f.gcd(zero) == f.monic() and c.gcd(f) == PolyQ.constant(1)


class TestFactor:
    def test_difference_of_squares(self):
        f = PolyQ.of([-1, 0, 1])
        const, parts = factor_q(f)
        assert const == 1
        assert parts == [(PolyQ.of([-1, 1]), 1), (PolyQ.of([1, 1]), 1)]

    def test_x4_plus_1_irreducible(self):
        # reducible mod every prime, irreducible over Q: the exact route must get it
        f = PolyQ.of([1, 0, 0, 0, 1])
        assert is_irreducible_q(f)

    def test_reconstruction(self):
        rng = random.Random(31)
        for _ in range(80):
            f = random_polyq(rng, 5)
            if f.is_constant():
                continue
            const, parts = factor_q(f)
            prod = PolyQ.constant(const)
            for g, mult in parts:
                assert g.is_monic()
                for _ in range(mult):
                    prod = prod * g
            assert prod == f

    def test_rejects_zero(self):
        with pytest.raises(ZeroValuationError):
            factor_q(PolyQ(()))


class TestRationalRoots:
    def test_cubic_with_rational_roots(self):
        # (x - 1/2)(x + 2)(x - 3)
        f = PolyQ.of([Fraction(-1, 2), 1]) * PolyQ.of([2, 1]) * PolyQ.of([-3, 1])
        assert rational_roots(f) == [Fraction(-2), Fraction(1, 2), Fraction(3)]

    def test_zero_constant_term(self):
        f = PolyQ.of([0, -1, 0, 1])  # x^3 - x
        assert rational_roots(f) == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_irrational(self):
        assert rational_roots(PolyQ.of([-2, 0, 1])) == []

    def test_roots_near_1e9(self):
        # |a0| is about 1e27, far beyond any scan of its divisors
        roots = [Fraction(-(10**9 + 9)), Fraction(10**9 - 3), Fraction(10**9 + 7)]
        f = PolyQ.constant(1)
        for r in roots:
            f = f * PolyQ.of([-r, 1])
        start = time.perf_counter()
        assert rational_roots(f) == roots
        assert time.perf_counter() - start < 1.0

    def test_distinct_roots_of_non_monic_product(self):
        # 0 and -2/3 are repeated roots; 5x^2 + 7 has none
        f = (
            PolyQ.of([Fraction(-(10**9 + 7), 3), 1])
            * PolyQ.of([5, 0, 7])
            * PolyQ.of([0, 0, 0, 1])
            * PolyQ.of([2, 3])
            * PolyQ.of([2, 3])
        )
        assert rational_roots(f) == [Fraction(-2, 3), Fraction(0), Fraction(10**9 + 7, 3)]


def sympy_factor_q(f: PolyQ) -> tuple[Fraction, list[tuple[PolyQ, int]]]:
    """The reference: sympy's factor_list over QQ, in factor_q's normal form."""
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)]
    const, parts = sympy.Poly(coeffs, x, domain="QQ").factor_list()
    constant = Fraction(int(const.p), int(const.q))
    out = []
    for poly, mult in parts:
        g = PolyQ(tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())))
        constant *= g.leading() ** mult
        out.append((g.monic(), int(mult)))
    out.sort(key=lambda t: t[0].sort_key())
    return constant, out


class TestFactorAgainstSympy:
    @staticmethod
    def random_product(rng, max_deg=12, height=20, mults=(1, 1, 1, 2, 3), f=None):
        """A product of random non-monic rational factors, some repeated,
        times f (a random constant if not given)."""
        if f is None:
            f = PolyQ.constant(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)))
        while True:
            d = rng.randint(1, 4)
            g = PolyQ(
                tuple(Fraction(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(d))
                + (Fraction(rng.randint(1, 5), rng.randint(1, 2)),)
            )
            mult = rng.choice(mults)
            if f.degree + d * mult > max_deg:
                return f
            for _ in range(mult):
                f = f * g

    def test_random_products(self):
        rng = random.Random(1969)
        for _ in range(150):
            f = self.random_product(rng)
            if f.is_constant():
                continue
            assert factor_q(f) == sympy_factor_q(f), str(f)
        # squarefree over Q but not modulo the first prime p not dividing the
        # leading coefficient: x^2 + x + 1 = (x - 1)^2 mod 3, x^3 - 2 =
        # (x + 1)^3 mod 3, and 3x^2 + 3x - 3 = 3 (x - 2)^2 mod 5 (3 | lc);
        # then multiplicities up to 4 on top of them
        w, c, v = PolyQ.of([1, 1, 1]), PolyQ.of([-2, 0, 0, 1]), PolyQ.of([-3, 3, 3])
        for f in (w, w * c, v, v * w, v * c * PolyQ.of([1, 0, 1])):
            assert factor_q(f) == sympy_factor_q(f), str(f)
        for base in (w, c, v, w * w * w * w, c * c * v):
            for _ in range(8):
                f = self.random_product(rng, max_deg=16, mults=(1, 2, 3, 4), f=base)
                assert factor_q(f) == sympy_factor_q(f), str(f)

    def test_coefficients_near_1e9(self):
        rng = random.Random(15)
        for _ in range(40):
            f = PolyQ.constant(1)
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 3)
                f = f * PolyQ.of(
                    [10**9 + rng.randint(-50, 50) for _ in range(d)] + [rng.randint(1, 3)]
                )
            assert factor_q(f) == sympy_factor_q(f), str(f)

    def test_reducible_mod_every_prime(self):
        # x^4 + 1 and x^4 - 10x^2 + 1 split mod every prime but are irreducible
        f, g = PolyQ.of([1, 0, 0, 0, 1]), PolyQ.of([1, 0, -10, 0, 1])
        for h in (f, g, f * g, f * g * g):
            assert factor_q(h) == sympy_factor_q(h), str(h)
        assert factor_q(f * g)[1] == [(g, 1), (f, 1)]  # sorted by (degree, coefficients)

    def test_cyclotomic(self):
        x = sympy.Symbol("x")
        for n in range(1, 31):
            coeffs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
            phi = PolyQ.of([int(c) for c in reversed(coeffs)])
            assert factor_q(phi) == (Fraction(1), [(phi, 1)]), n
            xn1 = PolyQ.of([-1] + [0] * (n - 1) + [1])  # x^n - 1 = prod of Phi_d, d | n
            assert factor_q(xn1) == sympy_factor_q(xn1), n


def random_irreducible(rng, degree, height=3):
    """A monic irreducible polynomial of the given degree over Q."""
    while True:
        pi = PolyQ.of([rng.randint(-height, height) for _ in range(degree)] + [1])
        if is_irreducible_q(pi):
            return pi


class TestIsSquareMod:
    def test_against_sympy_factoring_over_the_number_field(self):
        # the reference: does y^2 - r factor over QQ(alpha), alpha a root of pi?
        y = sympy.Symbol("y")
        rng = random.Random(2024)
        verdicts = {True: 0, False: 0}
        while min(verdicts.values()) < 20:
            pi = random_irreducible(rng, rng.randint(2, 4))
            t = PolyQ.of([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(pi.degree)])
            r = t * t % pi if rng.random() < 0.5 else t
            if r.is_zero():
                continue
            K = sympy.QQ.algebraic_field(sympy.CRootOf(sympy.Poly(pi.coeffs[::-1], y), 0))
            assert K.mod.to_list() == list(pi.coeffs[::-1])
            alpha_r = K([sympy.QQ(c.numerator, c.denominator) for c in r.coeffs[::-1]])
            _, parts = sympy.Poly([K.one, K.zero, -alpha_r], y, domain=K).factor_list()
            expected = sum(mult for _, mult in parts) == 2
            assert is_square_mod(r, pi) == expected, (str(r), str(pi))
            verdicts[expected] += 1

    def test_forced_squares(self):
        rng = random.Random(6)
        for degree in range(2, 7):
            for _ in range(30):
                pi = random_irreducible(rng, degree)
                t = PolyQ.of(
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, degree))]
                )
                if not (t % pi).is_zero():
                    assert is_square_mod(t * t % pi, pi), (str(t), str(pi))

    def test_norm_and_cyclotomic_cases(self):
        x2_2, x4_1 = PolyQ.of([-2, 0, 1]), PolyQ.of([1, 0, 0, 0, 1])
        assert is_square_mod(PolyQ.constant(2), x2_2)  # (x)^2
        assert not is_square_mod(PolyQ.x(), x2_2)  # norm -2
        # Q(zeta_8) contains sqrt(2), sqrt(-2) and i, but not sqrt(3)
        for c, square in ((2, True), (-2, True), (-1, True), (3, False), (6, False)):
            assert is_square_mod(PolyQ.constant(c), x4_1) is square, c
        with pytest.raises(ZeroValuationError):
            is_square_mod(x4_1, x4_1)
