import random
import time
from fractions import Fraction

import pytest
import sympy

from ramgenus.errors import ZeroValuationError
from ramgenus.qpoly import PolyQ, factor_q, is_irreducible_q, rational_roots


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

    def test_integer_model(self):
        f = PolyQ.of([Fraction(1, 2), Fraction(3, 4)])
        content, ints = f.integer_model()
        assert ints == (2, 3)
        assert content == Fraction(1, 4)


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
    def random_product(rng, max_deg=12, height=20):
        """A product of random non-monic rational factors, some repeated."""
        f = PolyQ.constant(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)))
        while True:
            d = rng.randint(1, 4)
            g = PolyQ(
                tuple(Fraction(rng.randint(-height, height), rng.randint(1, 3)) for _ in range(d))
                + (Fraction(rng.randint(1, 5), rng.randint(1, 2)),)
            )
            mult = rng.choice((1, 1, 1, 2, 3))
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
