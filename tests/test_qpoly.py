import math
import pickle
import random
import time
from fractions import Fraction
from itertools import zip_longest

import pytest
import sympy
from sympy.polys.subresultants_qq_zz import sylvester
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramgenus.errors import ZeroValuationError
from ramgenus.exactarith import is_rational_square
from ramgenus import gfpoly, qpoly
from ramgenus.gfpoly import PolyFp, _add_mod, _divmod, _inv_mod, _mul, _mul_mod
from ramgenus.qpoly import (
    PolyQ, _factor_squarefree, _pdivmod, _resultant_z, factor_q, is_irreducible_q, is_square_mod,
    rational_roots,
)


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


def fraction_add(f: PolyQ, g: PolyQ) -> PolyQ:
    """The reference: coefficientwise Fraction addition."""
    n = max(len(f.coeffs), len(g.coeffs))
    a = f.coeffs + (Fraction(0),) * (n - len(f.coeffs))
    b = g.coeffs + (Fraction(0),) * (n - len(g.coeffs))
    return PolyQ(tuple(x + y for x, y in zip(a, b)))


def fraction_mul(f: PolyQ, g: PolyQ) -> PolyQ:
    """The reference: the schoolbook product on Fraction coefficients."""
    out = [Fraction(0)] * max(len(f.coeffs) + len(g.coeffs) - 1, 0)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return PolyQ(tuple(out))


def fraction_divmod(f: PolyQ, g: PolyQ) -> tuple[PolyQ, PolyQ]:
    """The reference: long division on Fraction coefficients."""
    rem = list(f.coeffs)
    inv = 1 / g.leading()
    dq = g.degree
    q = [Fraction(0)] * max(len(rem) - dq, 0)
    for i in range(len(rem) - 1, dq - 1, -1):
        c = rem[i] * inv
        if c:
            q[i - dq] = c
            for j, b in enumerate(g.coeffs):
                rem[i - dq + j] -= c * b
    return PolyQ(tuple(q)), PolyQ(tuple(rem[:dq]))


def assert_model(f: PolyQ) -> None:
    """f's integer model (content, primitive) is f: content * primitive ==
    coeffs, the primitive part is primitive with a positive leading
    coefficient, and the content is 0 exactly for the zero polynomial."""
    content, prim = f.integer_model()
    assert all(type(c) is Fraction for c in f.coeffs), repr(f)
    assert all(type(c) is int for c in prim), repr(f)
    assert tuple(content * c for c in prim) == f.coeffs, repr(f)
    assert (content == 0) == f.is_zero() == (prim == ())
    if prim:
        assert prim[-1] > 0 and math.gcd(*prim) == 1, repr(f)


def random_operand(rng) -> PolyQ:
    """Zero, a constant, or a polynomial of degree up to 6 whose leading
    coefficient may be negative or have a denominator."""
    kind = rng.random()
    if kind < 0.1:
        return PolyQ(())
    if kind < 0.25:
        return PolyQ.constant(Fraction(rng.choice([-7, -1, 1, 3]), rng.randint(1, 5)))
    return random_polyq(rng, 6)


class TestModelArithmetic:
    """Ring operations against the Fraction reference, and the integer model
    of every result."""

    def test_against_fraction_reference(self):
        rng = random.Random(1969)
        for _ in range(400):
            f, g = random_operand(rng), random_operand(rng)
            for got, want in (
                (f + g, fraction_add(f, g)),
                (f - g, fraction_add(f, PolyQ(tuple(-c for c in g.coeffs)))),
                (f * g, fraction_mul(f, g)),
            ):
                assert got == want, (str(f), str(g))
                assert_model(got)
            if not g.is_zero():
                q, r = divmod(f, g)
                assert (q, r) == fraction_divmod(f, g), (str(f), str(g))
                assert_model(q)
                assert_model(r)

    def test_models_of_derived_polynomials(self):
        rng = random.Random(1970)
        for _ in range(100):
            f, g = random_operand(rng), random_operand(rng)
            results = [f, -f, f.scale(Fraction(-2, 3)), f.scale(0), f.derivative(),
                       f.reverse(), f.monic(), f.gcd(g)]
            if f.degree > 0:
                results += [g % f, g.pow_mod(3, f)]
                results += [u for u, _ in factor_q(f)[1]]
            for h in results:
                assert_model(h)

    def test_model_of_public_constructor(self):
        for coeffs in ((), (0,), (0, 0), (Fraction(-3, 4),), (1, 2, 0),
                       (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6), -2)):
            assert_model(PolyQ(tuple(Fraction(c) for c in coeffs)))
            assert_model(PolyQ.of(coeffs))

    def test_value_does_not_depend_on_construction(self):
        built = [
            (PolyQ.of([1, 2]) * PolyQ.constant(2), PolyQ.of([2, 4, 0])),
            (PolyQ.of([Fraction(1, 3), 1]) + PolyQ.of([Fraction(2, 3), -1]), PolyQ.constant(1)),
            (PolyQ.of([1, 1]) - PolyQ.of([1, 1]), PolyQ(())),
            (divmod(PolyQ.of([-1, 0, 2]), PolyQ.of([1, 2]))[0], PolyQ.of([Fraction(-1, 2), 1])),
            (PolyQ.of([3, 6, 9]).monic(), PolyQ.of([Fraction(1, 3), Fraction(2, 3), 1])),
            (PolyQ.of([0, 4, 0, 2]).derivative(), PolyQ.of([4, 0, 6])),
        ]
        for a, b in built:
            assert a == b and hash(a) == hash(b)
            assert repr(a) == repr(b) and str(a) == str(b)
            assert pickle.dumps(a) == pickle.dumps(b)
            c = pickle.loads(pickle.dumps(a))
            assert c == b and repr(c) == repr(b)
            assert c.integer_model() == b.integer_model() == a.integer_model()

    def test_integer_model_is_stored(self):
        f = PolyQ.of([Fraction(1, 2), Fraction(-3, 4)])
        assert f.integer_model() is f.integer_model()
        assert f.integer_model() == (Fraction(-1, 4), (-2, 3))


def sympy_pdiv(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    x = sympy.Symbol("x")
    A, B = (sympy.Poly(list(reversed(f)) or [0], x, domain="ZZ") for f in (a, b))
    q, r = sympy.pdiv(A, B)
    return ([int(c) for c in reversed(q.all_coeffs())] if not q.is_zero else [],
            [int(c) for c in reversed(r.all_coeffs())] if not r.is_zero else [])


class TestPseudoDivision:
    """_pdivmod, the one pseudo-division in Z[x], against sympy's pdiv."""

    def test_against_sympy(self):
        rng = random.Random(1981)
        for _ in range(300):
            def poly(deg):
                cs = [rng.randint(-30, 30) for _ in range(deg)]
                return cs + [rng.choice([-4, -3, -1, 1, 1, 2, 7])]
            a = poly(rng.randint(0, 9)) if rng.random() > 0.05 else []
            b = poly(rng.randint(0, 5))
            q, r = _pdivmod(a, b)
            assert (q, r) == sympy_pdiv(a, b), (a, b)
            k = max(len(a) - len(b) + 1, 0)
            lhs = [c * b[-1] ** k for c in a]
            rhs = [u + v for u, v in zip_longest(_mul(q, b), r, fillvalue=0)]
            assert lhs == gfpoly._trim(rhs), (a, b)

    def test_edge_operands(self):
        cases = [
            ([1, 2], [3, 0, 1]),  # deg a < deg b: q = 0, r = a
            ([5], [1, 1]), ([], [2, 3]),
            ([1, 0, 0, 0, 1], [-1, 0, 1]), ([4, 0, 3, 0, 0, 2], [1, 1]),  # monic b
            ([3, 1, 4, 1, 5], [-2]), ([7, -3, 2], [9, -5]),
        ]
        for a, b in cases:
            assert _pdivmod(a, b) == sympy_pdiv(a, b), (a, b)
        assert _pdivmod([1, 2], [3, 0, 1]) == ([], [1, 2])
        assert _pdivmod([0, 0, 1], [-1, 1]) == ([1, 1], [1])


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

    def test_coprime_pairs_that_meet_modulo_2_31_minus_1(self):
        # coprime over Q, but with a common factor modulo 2^31 - 1
        P = 2**31 - 1
        x = PolyQ.x()
        pairs = [
            (x, PolyQ.of([P, 1])),
            (PolyQ.of([1, 1]) * PolyQ.of([2, 1]), PolyQ.of([1 + P, 1]) * PolyQ.of([3, 1])),
            (PolyQ.of([1, 0, 1]), PolyQ.of([1 + 2 * P, 0, 1]) * PolyQ.of([5, 7])),
        ]
        for f, g in pairs:
            assert f.gcd(g) == euclid_gcd(f, g) == PolyQ.constant(1), (str(f), str(g))
            assert g.gcd(f) == PolyQ.constant(1)

    def test_leading_coefficient_divisible_by_2_31_minus_1(self):
        # modulo that prime such a pair drops degree, and its gcd there says
        # nothing about the gcd over Q
        P = 2**31 - 1
        h = PolyQ.of([1, P])
        pairs = [
            (h * PolyQ.of([2, 1]), h * PolyQ.of([3, 1])),
            (h * PolyQ.of([2, 1]), PolyQ.of([3, 1])),
            (PolyQ.of([1, 0, P]), PolyQ.of([1, 1])),
            (h * h * PolyQ.of([-1, 0, 1]), h * PolyQ.of([1, 1])),
            (PolyQ.of([7, 0, 3 * P]) * PolyQ.of([1, 2]), PolyQ.of([1, 2]) * PolyQ.of([5, P])),
        ]
        for f, g in pairs:
            assert f.gcd(g) == euclid_gcd(f, g), (str(f), str(g))
            assert g.gcd(f) == euclid_gcd(g, f), (str(g), str(f))


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
        # a nonzero constant is its own content, with no irreducible factor
        assert factor_q(PolyQ.constant(Fraction(-3, 2))) == (Fraction(-3, 2), [])
        assert not is_irreducible_q(PolyQ.constant(2))
        # every linear is irreducible, whatever its leading coefficient
        for lead in (Fraction(2, 3), Fraction(-5, 7), -3):
            for c in (0, Fraction(1, 2), -4):
                assert is_irreducible_q(PolyQ.of([c, lead]))


def eisenstein_stall(seed=17, degree=64, bits=256):
    """x^degree + 3 C(x): C random with bits-bit coefficients and C(0) prime
    to 3, so the input is Eisenstein at 3, irreducible, and not squarefree
    modulo 3."""
    rng = random.Random(seed)
    C = [rng.getrandbits(bits) * rng.choice([-1, 1]) for _ in range(degree)]
    C[0] += 0 if C[0] % 3 else 1
    return PolyQ.of([3 * c for c in C] + [1]), rng


class TestFactorStalls:
    def test_eisenstein_degree_64(self):
        f, _ = eisenstein_stall()
        start = time.perf_counter()
        assert factor_q(f) == (Fraction(1), [(f, 1)])
        assert time.perf_counter() - start < 0.5


class TestFactorCallCounts:
    """factor_q splits modulo one prime, from its own distinct-degree pass:
    poly_factor_fp is never called, and the equal-degree split runs at one
    prime, not at all when the factor degrees prove irreducibility."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"poly_factor_fp": 0, "split_primes": set()}
        factor, split = gfpoly.poly_factor_fp, gfpoly._equal_degree_split

        def count_factor(f):
            calls["poly_factor_fp"] += 1
            return factor(f)

        def count_split(f, d, frob, p, rng):
            calls["split_primes"].add(p)
            return split(f, d, frob, p, rng)

        for module in (gfpoly, qpoly):
            monkeypatch.setattr(module, "poly_factor_fp", count_factor, raising=False)
            monkeypatch.setattr(module, "_equal_degree_split", count_split, raising=False)
        return calls

    def test_reducible_mod_every_prime(self, monkeypatch):
        calls = self._count(monkeypatch)
        f = PolyQ.of([1, 0, 0, 0, 1]) * PolyQ.of([1, 0, -10, 0, 1]) * PolyQ.of([-2, 1])
        assert factor_q(f) == sympy_factor_q(f)
        assert calls["poly_factor_fp"] == 0 and len(calls["split_primes"]) == 1

    def test_repeated_factors(self, monkeypatch):
        calls = self._count(monkeypatch)
        w = PolyQ.of([1, 1, 1])  # (x - 1)^2 mod 3
        f = w * w * w * PolyQ.of([-2, 0, 0, 1]) * PolyQ.of([3, 1]) * PolyQ.of([3, 1])
        assert factor_q(f) == sympy_factor_q(f)
        assert calls["poly_factor_fp"] == 0 and len(calls["split_primes"]) == 1

    def test_degrees_alone_prove_irreducibility(self, monkeypatch):
        calls = self._count(monkeypatch)
        f, _ = eisenstein_stall()
        for g in (f, PolyQ.of([-2, 0, 0, 0, 0, 1]), PolyQ.of([1, 1, 1])):
            assert is_irreducible_q(g), str(g)
        assert calls == {"poly_factor_fp": 0, "split_primes": set()}


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
        with pytest.raises(ZeroValuationError):
            rational_roots(PolyQ.of([]))

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


def tree_lift(f, factors, p, modulus):
    """Reference for ``_hensel_lift``: the factor tree over every modular
    factor, the linear ones included (von zur Gathen-Gerhard, Alg. 15.17)."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, modulus)
        return [[c * inv % modulus for c in f]]
    half = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for u in factors[:half]:
        g = _mul_mod(g, u, p)
    for u in factors[half:]:
        h = _mul_mod(h, u, p)
    s = _inv_mod(g, h, p)
    t = _divmod(_add_mod([1], _mul(s, g), p, -1), h, p)[0]
    m = p
    while m < modulus:
        g, h, s, t = qpoly._hensel_step(f, g, h, s, t, m)
        m *= m
    return tree_lift(g, factors[:half], p, modulus) + tree_lift(h, factors[half:], p, modulus)


def elliptic_cubic(rng):
    """A cubic with three integer roots, drawn as the benchmark's
    ``elliptic_coefficients`` ops draw them: one root of size 10^3 to 10^4."""
    roots = {rng.choice((-1, 1)) * rng.randint(1000, 10**4)}
    while len(roots) < 3:
        roots.add(rng.choice((-1, 1)) * rng.randint(1, 300))
    f = [1]
    for r in roots:
        f = _mul(f, [-r, 1])
    return f


class TestHenselLift:
    """Linear factors lift as p-adic roots, the rest through the factor tree;
    the lifts equal the tree's over all factors, entry by entry."""

    SHAPES = ("all linear", "one nonlinear", "several nonlinear", "no linear")

    @staticmethod
    def shape(factors):
        linear = sum(len(u) == 2 for u in factors)
        nonlinear = len(factors) - linear
        if not nonlinear:
            return "all linear"
        if not linear:
            return "no linear"
        return "one nonlinear" if nonlinear == 1 else "several nonlinear"

    @pytest.mark.parametrize("p", (2, 3, 5, 7, 10007))
    def test_against_the_factor_tree(self, p):
        rng = random.Random(p)
        seen = dict.fromkeys(self.SHAPES, 0)
        for trial in range(3000):
            if trial % 2:
                f = elliptic_cubic(rng)
            else:
                f = [1]
                for _ in range(rng.randint(2, 4)):
                    f = _mul(f, [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [1])
                f = [rng.choice((1, 2, 3, -5)) * c for c in f]
            fp = PolyFp(p, tuple(f))
            if f[-1] % p == 0 or fp.gcd(fp.derivative()).degree > 0:
                continue  # f must stay squarefree of the same degree mod p
            factors = [list(g.coeffs) for g, _ in gfpoly.poly_factor_fp(fp)]
            if len(factors) < 2:
                continue
            rng.shuffle(factors)
            modulus = p
            while modulus <= 10**40:
                modulus *= modulus
            lifted = qpoly._hensel_lift(f, factors, p, modulus)
            assert lifted == tree_lift(f, factors, p, modulus), (p, f, factors)
            product = [f[-1]]
            for u in lifted:
                product = _mul_mod(product, u, modulus)
            assert product == [c % modulus for c in f]
            seen[self.shape(factors)] += 1
            if min(seen.values()) >= 10:
                break
        assert min(seen.values()) >= 10, seen


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


def trager_reference(r: PolyQ, pi: PolyQ) -> bool:
    """Trager's norm method alone, on Fraction polynomials: the norm
    (-1)^d M(0) of the characteristic polynomial M of r, then the
    factorization of M(y^2) once r is made to generate Q[x]/(pi)."""
    d = pi.degree
    b = pi.coeffs[::-1]

    def char_poly(r):
        tr_x = [Fraction(d)]
        for j in range(1, d):
            tr_x.append(-j * b[j] - sum(b[i] * tr_x[j - i] for i in range(1, j)))
        traces, c = [tr_x[0]], [Fraction(1)]
        power = PolyQ.constant(1)
        for k in range(1, d + 1):
            power = power * r % pi
            traces.append(sum(a * t for a, t in zip(power.coeffs, tr_x)))
            c.append(-sum(c[i] * traces[k - i] for i in range(k)) / k)
        return PolyQ(tuple(reversed(c)))

    M = char_poly(r)
    if not is_rational_square((-1) ** d * M.constant_value()):
        return False
    s = 0
    while M.gcd(M.derivative()).degree > 0:
        s += 1
        c = PolyQ.of((1, s))
        M = char_poly(r * c * c % pi)
    _, ints = PolyQ(tuple(v for a in M.coeffs for v in (a, 0))).integer_model()
    return len(_factor_squarefree(list(ints))) > 1


def norm_reference(u: PolyQ, pi: PolyQ) -> Fraction:
    """N(u) as the determinant of multiplication by u, by sympy."""
    d = pi.degree
    columns = []
    power = u % pi
    x = PolyQ.x()
    for _ in range(d):
        columns.append(list(power.coeffs) + [0] * (d - len(power.coeffs)))
        power = power * x % pi
    det = sympy.Matrix(d, d, lambda i, j: sympy.Rational(str(columns[j][i]))).det()
    return Fraction(int(det.p), int(det.q))


small = st.integers(-4, 4)


@st.composite
def monic_irreducibles(draw):
    degree = draw(st.integers(2, 6))
    pi = PolyQ.of(draw(st.lists(small, min_size=degree, max_size=degree)) + [1])
    assume(is_irreducible_q(pi))
    return pi


@st.composite
def residues_mod(draw, pi):
    coeffs = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                      min_size=1, max_size=pi.degree)
    t = PolyQ.of(draw(coeffs))
    assume(not (t % pi).is_zero())
    return t


class TestIsSquareModAgainstTrager:
    """is_square_mod agrees with Trager's method alone on forced squares and
    on nonsquares whose norm is a square, the case the norm cannot settle."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_forced_squares(self, data):
        pi = data.draw(monic_irreducibles())
        t = data.draw(residues_mod(pi))
        q = data.draw(st.sampled_from([1, 4, Fraction(9, 4)]))
        r = t * t % pi
        assert is_square_mod(r.scale(q), pi) is True
        assert trager_reference(r.scale(q), pi) is True

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_square_norms(self, data):
        pi = data.draw(monic_irreducibles())
        t = data.draw(residues_mod(pi))
        u = data.draw(residues_mod(pi))
        if pi.degree % 2:
            # N(u N(u)) = N(u)^(d + 1) is a square for odd d
            u = u.scale(norm_reference(u, pi))
        else:
            # a rational constant has the square norm q^d for even d
            u = PolyQ.constant(data.draw(st.sampled_from([-3, -2, -1, 2, 3, 5, 6, Fraction(1, 2)])))
        r = t * t * u % pi
        assert is_square_mod(r, pi) == trager_reference(r, pi), (str(r), str(pi))


class TestPowMod:
    def test_against_repeated_products(self):
        # e runs from -3 to 40, a negative e only on a base prime to the
        # modulus, where it is the inverse of f^(-e)
        rng = random.Random(61)
        one = PolyQ.constant(1)
        for _ in range(30):
            f = random_polyq(rng, 4, nonzero=False)
            modulus = random_polyq(rng, 3)
            if modulus.is_constant():
                continue
            powers = [one]
            for _ in range(40):
                powers.append(powers[-1] * f % modulus)
            for e, power in enumerate(powers):
                assert f.pow_mod(e, modulus) == power
            if f.gcd(modulus).degree > 0:
                continue
            for e in (1, 2, 3):
                inv = f.pow_mod(-e, modulus)
                assert inv.degree < modulus.degree and inv * powers[e] % modulus == one

    def test_constant_modulus(self):
        # k[x]/(c) is the zero ring for a nonzero constant c, so every power
        # is 0 there, e = 0 included, as 1 % c is
        for f, c in ((PolyFp.of(5, (1, 2)), PolyFp.constant(5, 3)),
                     (PolyQ.of([1, 2]), PolyQ.constant(Fraction(2, 3)))):
            one = f._like((1,))
            assert (one % c).is_zero()
            for e in (0, 1, 2, 5):
                assert f.pow_mod(e, c) == f.scale(0), (str(f), str(c), e)


def random_integer_poly(rng, p, max_deg):
    """An integer PolyQ of degree 1..max_deg whose leading coefficient and
    constant term are prime to p, so reduction mod p keeps the degree of it
    and of its reversal."""
    while True:
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(2, max_deg + 1))]
        if coeffs[0] % p and coeffs[-1] % p:
            return PolyQ.of(coeffs)


class TestReductionModP:
    """The operations that do not depend on the ring commute with reduction
    modulo p: the PolyQ result reduced equals the PolyFp result."""

    def test_commutes_with_reduction(self):
        rng = random.Random(2311)
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7, 10007])
            f, g = random_integer_poly(rng, p, 6), random_integer_poly(rng, p, 6)
            fp, gp = f.reduce_mod(p), g.reduce_mod(p)
            assert (f - g).reduce_mod(p) == fp - gp
            assert (-f).reduce_mod(p) == -fp
            assert f.reverse().reduce_mod(p) == fp.reverse()
            m = PolyQ.of([rng.randint(-20, 20) for _ in range(rng.randint(1, 4))] + [1])
            mp = m.reduce_mod(p)
            # a negative e only on a base invertible mod (m, p); then
            # Res(f, m) is prime to p and the inverse over Q is p-integral
            invertible = fp.gcd(mp).degree == 0
            for e in range(-3 if invertible else 0, 13):
                assert f.pow_mod(e, m).reduce_mod(p) == fp.pow_mod(e, mp), (str(f), str(m), p, e)


class TestPowModErrors:
    def test_modulus_of_another_characteristic(self):
        f, m = PolyFp.of(3, (1, 1)), PolyFp.of(5, (1, 0, 1))
        for e in (0, 1, 2, -1):
            with pytest.raises(ValueError):
                f.pow_mod(e, m)
        with pytest.raises(ValueError):
            f - m

    def test_zero_modulus(self):
        for f in (PolyFp.of(5, (1, 2)), PolyQ.of([1, 2])):
            zero = f.scale(0)
            for e in (0, 1):
                with pytest.raises(ZeroDivisionError):
                    f.pow_mod(e, zero)


class TestInverse:
    def test_inverse_against_products(self):
        rng = random.Random(77)
        for _ in range(60):
            pi = random_polyq(rng, 5)
            if pi.degree < 1 or not is_irreducible_q(pi):
                continue
            a = random_polyq(rng, 7)
            if (a % pi).is_zero():
                continue
            inv = a.pow_mod(-1, pi)
            assert inv.degree < pi.degree
            assert a * inv % pi == PolyQ.constant(1), (str(a), str(pi))
            assert a.pow_mod(-2, pi) == inv * inv % pi

    def test_inverse_past_the_first_lift_prime(self):
        # Res(x^2 - 2, x - 65536) = 2^32 - 2 = 2 (2^31 - 1), so the p-adic
        # inverse is lifted from the prime after 2^31 - 1
        pi, a = PolyQ.of([-2, 0, 1]), PolyQ.of([-65536, 1])
        assert _resultant_z([-2, 0, 1], [-65536, 1]) == 2 * qpoly._LIFT_PRIME
        inv = a.pow_mod(-1, pi)
        assert inv == PolyQ.of([Fraction(-65536, 4294967294), Fraction(-1, 4294967294)])
        assert a * inv % pi == PolyQ.constant(1)

    def test_inverse_of_zero(self):
        pi = PolyQ.of([-2, 0, 1])
        for a in (PolyQ.of([]), pi, pi * PolyQ.of([1, 3])):
            with pytest.raises(ZeroDivisionError):
                a.pow_mod(-1, pi)


def sympy_resultant(a: list[int], b: list[int]) -> int:
    """Res(a, b) as the determinant of sympy's Sylvester matrix, for a or b
    nonzero. sympy.resultant agrees with it up to sign only: in sympy 1.14,
    Res(x^3 - 11x^2 - 10x + 6, b) for a b of degree 5 is prod b(alpha) =
    48084642 and sympy.resultant gives -48084642."""
    x = sympy.Symbol("x")
    A, B = (sum(c * x**i for i, c in enumerate(f)) for f in (a, b))
    det = int(sylvester(A, B, x).det())
    assert abs(int(sympy.resultant(A, B, x))) == abs(det)
    return det


class TestResultant:
    """_resultant_z, the subresultant algorithm on int lists, against sympy."""

    def test_edge_operands(self):
        cases = [
            ([], [1, 2]), ([3, 1], []),  # zero
            ([5], [7]), ([-2], [1, 0, 1]), ([1, 0, 3], [4]),  # constants
            ([1, 2, 3], [4, 5, 6]), ([-1, 0, 0, 2], [3, 1, 0, -5]),  # equal degrees
            ([1, 0, 0, 0, 1], [0, 1, 0, 1]),  # degree drops by two in the sequence
            ([-1, 0, 1], [1, 1]), ([2, 3, 1], [6, 5, 1]),  # common factors
            ([1, 0, 0, 0, 0, 0, 1], [3, 0, 0, 0, 2]),
        ]
        for a, b in cases:
            assert _resultant_z(a, b) == sympy_resultant(a, b), (a, b)

    def test_random_against_sympy(self):
        rng = random.Random(4096)
        for _ in range(80):
            def poly(deg):
                cs = [rng.randint(-20, 20) for _ in range(deg)]
                return cs + [rng.choice([-3, -2, -1, 1, 2, 5])]
            da = rng.randint(0, 7)
            a, b = poly(da), poly(rng.choice([da, rng.randint(0, 7)]))
            if rng.random() < 0.2:
                common = poly(rng.randint(1, 2))
                a, b = _mul(a, common), _mul(b, common)
            assert _resultant_z(a, b) == sympy_resultant(a, b), (a, b)


def _sieve_cases():
    x4_1 = PolyQ.of([1, 0, 0, 0, 1])  # reducible modulo every prime
    x4_81 = PolyQ.of([Fraction(1, 81), 0, 0, 0, 1])  # 3 in every denominator; Q(zeta_8) again
    return [(x4_1, 3, False), (x4_1, 2, True), (x4_81, 3, False), (x4_81, -2, True)]


class TestLocalSieve:
    """The sieve proves nonsquares whose norm is a square; a nonsquare it
    proves never reaches Trager's characteristic polynomial."""

    @pytest.mark.parametrize("pi, c, square", _sieve_cases())
    def test_constants_in_q_zeta8(self, pi, c, square, monkeypatch):
        calls = []
        real = qpoly._char_poly
        monkeypatch.setattr(qpoly, "_char_poly", lambda r, f: calls.append(r) or real(r, f))
        _, f = qpoly._monic_model(pi)
        r = [c]
        assert is_rational_square(qpoly._resultant_z(f, r))  # the norm cannot decide
        assert qpoly._local_nonsquare(r, f) is not square
        assert is_square_mod(PolyQ.constant(c), pi) is square
        assert trager_reference(PolyQ.constant(c), pi) is square
        assert bool(calls) is square

    def test_a_nonsquare_norm_stops_before_the_sieve(self, monkeypatch):
        seen = []
        monkeypatch.setattr(qpoly, "_local_nonsquare", lambda r, f: seen.append(r))
        monkeypatch.setattr(qpoly, "_char_poly", lambda r, f: seen.append(r))
        assert not is_square_mod(PolyQ.x(), PolyQ.of([-2, 0, 1]))  # norm -2
        assert not is_square_mod(PolyQ.constant(3), PolyQ.of([1, 0, 1, 0, 0, 1]))  # 3^5
        assert seen == []

    def test_primes_dividing_the_discriminant_are_skipped(self):
        # f = theta^4 + 3^12 is theta^4 mod 3 and stays unused there; the
        # verdict for 3 comes from p = 17, where x^4 + 1 splits into lines
        _, f = qpoly._monic_model(PolyQ.of([Fraction(1, 81), 0, 0, 0, 1]))
        assert f == [3**12, 0, 0, 0, 1]
        assert 17 in qpoly._SIEVE_PRIMES and qpoly._local_nonsquare([3], f)
