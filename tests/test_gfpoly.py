import random
import time
from math import gcd, isqrt

import pytest

from ramgenus import gfpoly
from ramgenus.errors import UnsupportedFieldError, ZeroValuationError
from ramgenus.qpoly import PolyQ
from ramgenus.gfpoly import (
    PolyFp,
    _add_mod,
    _divmod,
    _fits_words,
    _frobenius,
    _mul,
    _power,
    _product_mod,
    _rem,
    _squarefree_ddf,
    _norm,
    _trim,
    is_irreducible_fp,
    is_square_fq,
    poly_factor_fp,
    residue_class_is_nth_power,
)

from enumerate_fp import irreducible_monics, monic_polys


def brute_is_irreducible(f: PolyFp) -> bool:
    """Oracle: no monic divisor of degree 1..deg(f)-1 (exhaustive)."""
    if f.degree < 1:
        return False
    for d in range(1, f.degree):
        for g in monic_polys(f.p, d):
            if (f % g).is_zero():
                return False
    return True


def factored_irreducible(f: PolyFp) -> bool:
    """Reference: f factors as one irreducible of multiplicity 1."""
    parts = poly_factor_fp(f)
    return len(parts) == 1 and parts[0][1] == 1


def random_of_degree(rng, p, deg):
    """A random polynomial of exactly this degree, not necessarily monic."""
    return PolyFp(p, tuple(rng.randrange(p) for _ in range(deg)) + (rng.randrange(1, p),))


def random_poly(rng, p, max_deg, nonzero=True):
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [rng.randrange(p) for _ in range(deg + 1)]
        f = PolyFp(p, tuple(coeffs))
        if not nonzero or not f.is_zero():
            return f


def divisors_of_every_lead(rng):
    """(p, g) at p = 10007 and 2^31 - 1: divisors of degree 0 to 4 with the
    leading coefficients 1, p - 1 and random ones."""
    for p in (10007, 2**31 - 1):
        for lead in (1, p - 1) + tuple(rng.randrange(2, p - 1) for _ in range(4)):
            for deg in range(5):
                yield p, PolyFp(p, tuple(rng.randrange(p) for _ in range(deg)) + (lead,))


class TestArithmetic:
    def test_divmod_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rng.choice([2, 3, 5, 7])
            f = random_poly(rng, p, 6)
            g = random_poly(rng, p, 4)
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero() or r.degree < g.degree
        for p, g in divisors_of_every_lead(rng):
            f = random_poly(rng, p, 6)
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero() or r.degree < g.degree

    def test_gcd_divides_both(self):
        rng = random.Random(13)
        for _ in range(200):
            p = rng.choice([3, 5, 7])
            f = random_poly(rng, p, 5)
            g = random_poly(rng, p, 5)
            h = f.gcd(g)
            assert (f % h).is_zero() and (g % h).is_zero()
        for p, c in divisors_of_every_lead(rng):
            # a common factor c of any leading coefficient divides the gcd
            f, g = random_poly(rng, p, 3) * c, random_poly(rng, p, 3) * c
            h = f.gcd(g)
            assert h.is_monic() and (f % h).is_zero() and (g % h).is_zero()
            assert (h % c).is_zero()

    def test_divmod_mod_prime_powers(self):
        # Hensel lifting and the p-adic inverse divide mod p^k by monic
        # divisors, of dividends that need not be reduced
        rng = random.Random(19)
        for m in (3**5, 7**4, 10007**2, 2**62):
            for _ in range(50):
                a = _trim([rng.randrange(-m, 2 * m) for _ in range(rng.randint(0, 9))])
                b = [rng.randrange(m) for _ in range(rng.randint(0, 4))] + [1]
                q, r = _divmod(a, b, m)
                assert len(r) < len(b) and all(0 <= c < m for c in q + r)
                assert _add_mod(_mul(q, b), r, m) == _trim([c % m for c in a])

    @pytest.mark.parametrize("b, m", [
        ([1, 3], 9), ([2, 6], 36), ([1, 0, 10007], 10007**2), ([5, 7], 7),
    ])
    def test_divmod_refuses_a_non_unit_leading_coefficient(self, b, m):
        with pytest.raises(ValueError):
            _divmod([1, 2, 3, 4], b, m)

    def test_rem_is_the_remainder_of_divmod(self):
        # non-monic divisors, moduli p, p^k and 2^62, unreduced dividends
        # (negative or past m) and dividends shorter than the divisor
        rng = random.Random(23)
        for m in (2, 3, 10007, 2**31 - 1, 3**5, 7**4, 10007**2, 2**62):
            for _ in range(60):
                a = _trim([rng.randrange(-3 * m, 3 * m) for _ in range(rng.randint(0, 9))])
                lead = rng.choice([1, m - 1] + [c for c in (2, 3, 5, 7) if gcd(c, m) == 1])
                b = [rng.randrange(m) for _ in range(rng.randint(0, 5))] + [lead]
                assert _rem(a, b, m) == _divmod(a, b, m)[1], (m, a, b)

    @pytest.mark.parametrize("b, m", [([1, 3], 9), ([5, 7], 7)])
    def test_rem_refuses_a_non_unit_leading_coefficient(self, b, m):
        with pytest.raises(ValueError):
            _rem([1, 2, 3, 4], b, m)

    def test_str(self):
        f = PolyFp.of(3, (2, 0, 1))
        assert str(f) == "x^2 + 2"

    def test_pow_mod_against_repeated_products(self):
        # the modulus need not be monic: its remainders are those of its
        # monic associate; e runs from -3 to 40, a negative e only on a
        # base prime to the modulus, where it is the inverse of f^(-e)
        rng = random.Random(29)
        for _ in range(150):
            p = rng.choice([2, 3, 5, 7, 10007])
            f = random_poly(rng, p, 5)
            modulus = random_poly(rng, p, 4)
            if modulus.is_constant():
                continue
            powers = [PolyFp.constant(p, 1)]
            for _ in range(40):
                powers.append(powers[-1] * f % modulus)
            for e, power in enumerate(powers):
                assert f.pow_mod(e, modulus) == power
            if f.gcd(modulus).degree > 0:
                continue
            for e in (1, 2, 3):
                inv = f.pow_mod(-e, modulus)
                assert inv.degree < modulus.degree and inv * powers[e] % modulus == powers[0]


def list_product_mod(f, m):
    """Reference for ``_product_mod``: the unpacked list kernel."""
    return lambda u, v: _divmod(_mul(u, v), f, m)[1]


def random_reduced(rng, m, n):
    """A random int list of degree below n, entries in [0, m), trimmed."""
    return _trim([rng.randrange(m) for _ in range(rng.randint(1, n))])


def last_inside_word_bound(n):
    """The largest m with 2 n m^2 < 2^64."""
    return isqrt((2**63 - 1) // n)


class TestWordPackedProducts:
    """Products modulo a fixed f and m, packed at 64 bits per coefficient
    within the word bound 2 deg(f) m^2 < 2^64 and on lists past it, against
    the list kernel."""

    MODULI = (2, 3, 10007, 2**31 - 1, 2**61 - 1)
    DEGREES = (1, 2, 3, 10, 64, 256)

    @staticmethod
    def check(f, m, rng):
        n, product, want = len(f) - 1, _product_mod(f, m), list_product_mod(f, m)
        top = [m - 1] * n  # every word at its largest
        operands = [[], [rng.randrange(1, m)], [m - 1], top]
        operands += [random_reduced(rng, m, n) for _ in range(3)]
        for u in operands:
            for v in operands:  # u is v on the diagonal, where one pack is squared
                assert product(u, v) == want(u, v), (m, n, u, v)

    @pytest.mark.parametrize("n", DEGREES)
    def test_against_the_list_kernel(self, n):
        rng = random.Random(61 + n)
        for m in self.MODULI:
            self.check([rng.randrange(m) for _ in range(n)] + [1], m, rng)
            self.check([1] * (n + 1), m, rng)  # x^n - f is m - 1 in every word

    @pytest.mark.parametrize("n", DEGREES)
    def test_either_side_of_the_word_bound(self, n):
        rng = random.Random(67 + n)
        last = last_inside_word_bound(n)
        assert _fits_words(n, last) and not _fits_words(n, last + 1)
        for m in (last, last + 1):
            self.check([1] * (n + 1), m, rng)
            self.check([rng.randrange(m) for _ in range(n)] + [1], m, rng)

    @pytest.mark.parametrize("n", (2, 3, 10, 64))
    def test_frobenius_against_the_pth_power(self, n):
        # the table's map h -> h^p, packed rows or columns, against h^p by
        # list products; at 10, the primes either side of the word bound
        from sympy import nextprime, prevprime

        rng = random.Random(71 + n)
        last = last_inside_word_bound(n)
        primes = self.MODULI + ((prevprime(last + 1), nextprime(last)) if n == 10 else ())
        for p in primes:
            f = [rng.randrange(p) for _ in range(n)] + [1]
            frob, want = _frobenius(f, p), list_product_mod(f, p)
            for h in ([], [rng.randrange(1, p)], [p - 1] * n, random_reduced(rng, p, n)):
                assert frob(h) == (_power(h, p, want) if h else []), (p, n, h)


class TestFrobeniusRows:
    """The table of ``_frobenius``, x^(i p) mod f for i < deg f, is read back
    as the images of x^i and checked against ``PolyFp.pow_mod``; the power
    x^p multiplies by x as shifts."""

    @pytest.mark.parametrize("p", (2, 3, 10007, 2**61 - 1))
    def test_rows_against_pow_mod(self, p):
        rng = random.Random(p % 1000)
        moduli = [[1] * 4, [0, 0, 1], [0] * 5 + [1], [p - 1, 0, 0, 1]]  # x^2, x^5: f(0) = 0
        moduli += [[rng.randrange(p) for _ in range(n)] + [1] for n in (2, 3, 4, 7, 10)]
        for f in moduli:
            n, F = len(f) - 1, PolyFp(p, tuple(f))
            frob = _frobenius(f, p)
            for i in range(n):
                row = list(PolyFp(p, (0,) * i + (1,)).pow_mod(p, F).coeffs)
                assert frob([0] * i + [1]) == row, (p, f, i)
        assert not _fits_words(10, 2**61 - 1)


class TestMixedRings:
    """Arithmetic between F_p[x] and Q[x] raises TypeError naming both rings,
    in either order; another characteristic stays a ValueError."""

    OPS = [
        lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g, divmod,
        lambda f, g: f // g, lambda f, g: f % g, lambda f, g: f.gcd(g),
        lambda f, g: f.pow_mod(2, g), lambda f, g: f.pow_mod(-1, g),
    ]

    @pytest.mark.parametrize("op", OPS)
    def test_each_operation_in_both_orders(self, op):
        fp, q = PolyFp.of(5, [1, 1]), PolyQ.of([1, 1])
        with pytest.raises(TypeError, match=r"F_5\[x\] and Q\[x\]"):
            op(fp, q)
        with pytest.raises(TypeError, match=r"Q\[x\] and F_5\[x\]"):
            op(q, fp)
        with pytest.raises(ValueError, match="mixed characteristics"):
            op(fp, PolyFp.of(7, [1, 1]))

    def test_other_operands_are_named_by_type(self):
        with pytest.raises(TypeError, match="F_5\\[x\\] and int"):
            PolyFp.of(5, [1, 1]) * 3
        with pytest.raises(TypeError, match="Q\\[x\\] and int"):
            PolyQ.of([1, 1]) + 3


class TestPublicConstructor:
    def test_validates_and_reduces(self):
        with pytest.raises(ValueError):
            PolyFp(6, (1,))
        assert PolyFp(5, (7, 5, 0)).coeffs == (2,)
        assert PolyFp.of(5, [0, 5, 10]).coeffs == ()

    def test_kernel_results_equal_public_ones(self):
        # results built by the trusted constructor compare and hash like
        # the same polynomial built through the public one
        p = 7
        f, g = PolyFp.of(p, (3, 0, 5, 1)), PolyFp.of(p, (2, 6, 1))
        results = [
            f.pow_mod(9, g),
            divmod(f, g)[0],
            divmod(f, g)[1],
            f * g,
            f + g,
            f - f,
            -f,
            f.scale(3),
            f.scale(0),
            f.scale(p),
            f.scale(-1),
            f.monic(),
            f.gcd(g),
            f.derivative(),
            f.reverse(),
        ]
        for r in results:
            assert type(r.coeffs) is tuple
            public = PolyFp(p, tuple(r.coeffs))
            assert r == public and hash(r) == hash(public)
            assert all(0 <= c < p for c in r.coeffs)
            assert not r.coeffs or r.coeffs[-1] != 0
        assert f.scale(0) == f.scale(p) == PolyFp(p, ())
        assert f.scale(-1) == PolyFp(p, (4, 0, 2, 6))


class TestFactor:
    def test_x_squared_minus_one_f3(self):
        f = PolyFp.of(3, (-1, 0, 1))
        parts = poly_factor_fp(f)
        assert parts == [
            (PolyFp.of(3, (1, 1)), 1),
            (PolyFp.of(3, (2, 1)), 1),
        ]
        # every product of two distinct linears over F_3, against its roots;
        # on these inputs Cantor-Zassenhaus draws constant r too
        for lead in (1, 2):
            for a, b in ((0, 1), (0, 2), (1, 2)):
                f = PolyFp.of(3, (lead,)) * PolyFp.of(3, (-a, 1)) * PolyFp.of(3, (-b, 1))
                roots = [c for c in range(3) if f.evaluate(c) == 0]
                assert roots == [a, b]
                parts = poly_factor_fp(f)
                assert [m for _, m in parts] == [1, 1] and all(g.degree == 1 for g, _ in parts)
                assert sorted(-g.coeffs[0] % 3 for g, _ in parts) == roots

    def test_random_generator_only_for_a_split(self, monkeypatch):
        # every distinct-degree part one irreducible: no draw, no generator
        built = []

        class Counted(random.Random):
            def __init__(self, seed):
                built.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(gfpoly.random, "Random", Counted)
        x, quad, cubic = PolyFp.x(7), PolyFp.of(7, [1, 0, 1]), PolyFp.of(7, [3, 0, 0, 1])
        for f, factors in [
            (x, [(x, 1)]),
            (x * x * x * quad * quad * cubic, [(x, 3), (quad, 2), (cubic, 1)]),
            (x * _power(quad, 7, PolyFp.__mul__) * cubic, [(x, 1), (quad, 7), (cubic, 1)]),
        ]:
            assert poly_factor_fp(f) == factors
        assert built == []
        f = x * (x + PolyFp.constant(7, 1))  # one part of two linears: split
        assert [g for g, _ in poly_factor_fp(f)] == [x, x + PolyFp.constant(7, 1)]
        assert built == [repr(("gfpoly", 7, f.coeffs))]

    def test_x_is_irreducible(self):
        for p in (2, 3, 5, 7, 11):
            assert poly_factor_fp(PolyFp.x(p)) == [(PolyFp.x(p), 1)]

    def test_x_squared_plus_one_f3(self):
        f = PolyFp.of(3, (1, 0, 1))
        assert all(f.evaluate(c) != 0 for c in range(3))  # no roots: irreducible
        assert poly_factor_fp(f) == [(f, 1)]

    def test_rejects_zero(self):
        with pytest.raises(ZeroValuationError):
            poly_factor_fp(PolyFp(5, ()))
        # a nonzero constant has no irreducible factor and is not irreducible
        assert poly_factor_fp(PolyFp(5, (3,))) == []
        assert not is_irreducible_fp(PolyFp(5, (3,)))

    def test_reconstruction_bulk(self):
        rng = random.Random(17)
        for _ in range(250):
            p = rng.choice([2, 3, 5, 7])
            f = random_poly(rng, p, 7)
            if f.is_constant():
                continue
            parts = poly_factor_fp(f)
            prod = PolyFp.constant(p, f.leading())
            for g, mult in parts:
                for _ in range(mult):
                    prod = prod * g
            assert prod == f

    def test_factors_pass_bruteforce_irreducibility(self):
        rng = random.Random(19)
        for _ in range(80):
            p = rng.choice([2, 3, 5, 7])
            f = random_poly(rng, p, 4)
            if f.is_constant():
                continue
            for g, _ in poly_factor_fp(f):
                assert brute_is_irreducible(g)

    def test_repeated_factors(self):
        p = 3
        g = PolyFp.of(p, (1, 1))
        h = PolyFp.of(p, (1, 0, 1))
        f = g * g * g * h  # multiplicity 3 = char, exercises the p-th-root path
        assert poly_factor_fp(f) == [(g, 3), (h, 1)]


def sympy_factors(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """Reference: sympy's factorization over F_p, as monic factors with
    multiplicities in poly_factor_fp's order (sympy is only a test reference)."""
    from sympy import Poly, symbols

    _, parts = Poly(list(reversed(f.coeffs)), symbols("x"), modulus=f.p).factor_list()
    out = [(PolyFp(f.p, tuple(reversed(g.all_coeffs()))).monic(), m) for g, m in parts]
    return sorted(out, key=lambda t: t[0].sort_key())


def random_irreducibles(rng, p, d, count):
    """``count`` distinct monic irreducibles of degree d over F_p (by sympy)."""
    from sympy import Poly, symbols

    found: list[PolyFp] = []
    while len(found) < count:
        f = PolyFp(p, tuple(rng.randrange(p) for _ in range(d)) + (1,))
        if f not in found and Poly(list(reversed(f.coeffs)), symbols("x"), modulus=p).is_irreducible:
            found.append(f)
    return found


class TestSquarefreeDdf:
    @staticmethod
    def degrees(f, p):
        ddf = _squarefree_ddf(f, p)
        return None if ddf is None else sorted(d for g, d in ddf[1] for _ in range((len(g) - 1) // d))

    def test_against_full_factorization(self):
        # the degrees of poly_factor_fp's factors, or None where a factor repeats
        rng = random.Random(808)
        for _ in range(300):
            p = rng.choice([3, 5, 7, 11, 13])
            f = [rng.randrange(-20, 21) for _ in range(rng.randint(1, 9))] + [rng.choice([1, 2, -3])]
            if f[-1] % p == 0:
                continue
            parts = poly_factor_fp(PolyFp(p, tuple(f)))
            want = None if any(m > 1 for _, m in parts) else sorted(u.degree for u, _ in parts)
            assert self.degrees(f, p) == want, (f, p)

    def test_repeated_and_inseparable_factors(self):
        assert _squarefree_ddf([1, 2, 1], 5) is None  # (x + 1)^2
        assert _squarefree_ddf([1, 0, 0, 1], 3) is None  # x^3 + 1 = (x + 1)^3 mod 3
        assert self.degrees([1, 0, 0, 0, 1], 17) == [1, 1, 1, 1]
        assert self.degrees([1, 0, 0, 0, 1], 3) == [2, 2]


class TestFactorAgainstSympy:
    # products modulo a squarefree part are packed at 10007 and, past degree
    # 2, on lists at 2^31 - 1 (the word bound)
    PRIMES = (2, 3, 101, 10007, 2**31 - 1)

    def test_random_polynomials(self):
        rng = random.Random(41)
        for p in self.PRIMES:
            for _ in range(40):
                f = random_of_degree(rng, p, rng.randint(1, 12))
                assert poly_factor_fp(f) == sympy_factors(f), (p, f.coeffs)

    def test_random_products_with_repeated_factors(self):
        rng = random.Random(43)
        for p in self.PRIMES:
            for _ in range(15):
                f = PolyFp.constant(p, rng.randrange(1, p))
                while True:
                    g = random_of_degree(rng, p, rng.randint(1, 3))
                    if f.degree + 2 * g.degree > 12:
                        break
                    f = f * g * (g if rng.random() < 0.5 else PolyFp.constant(p, 1))
                if not f.is_constant():
                    assert poly_factor_fp(f) == sympy_factors(f), (p, f.coeffs)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_products_of_distinct_irreducibles_of_one_degree(self, d):
        # equal-degree splitting (the trace at p = 2, the norm at odd p) must
        # separate two or more factors of the same degree, three or more up
        # to d = 4
        rng = random.Random(47 + d)
        for p in self.PRIMES:
            count = 12 // d
            if p <= 3:  # few irreducibles of degree d exist
                count = min(count, len([g for g in irreducible_monics(p, d) if g.degree == d]))
            if count < 2:
                continue
            for _ in range(3):
                k = rng.randint(min(3, count), count)
                factors = random_irreducibles(rng, p, d, k)
                f = PolyFp.constant(p, rng.randrange(1, p))
                for g in factors:
                    f = f * g
                assert poly_factor_fp(f) == sympy_factors(f), (p, d, f.coeffs)
                assert len(poly_factor_fp(f)) == k

    def test_three_of_one_degree_in_characteristic_two(self):
        # F_2 has fewer than three irreducibles of each degree up to 3, so the
        # trace branch meets three equal-degree factors at degree 4
        quartics = [g for g in irreducible_monics(2, 4) if g.degree == 4]
        assert len(quartics) == 3
        f = quartics[0] * quartics[1] * quartics[2]
        assert poly_factor_fp(f) == sympy_factors(f) == [(g, 1) for g in quartics]

    def test_frobenius_images_times_pth_powers(self):
        # f(x^p) * g^p has derivative 0, so all of it goes round as its p-th
        # root, more than once when f(x^p) is itself a p-th power
        rng = random.Random(53)
        for p, max_deg in ((2, 3), (3, 2)):
            for _ in range(40):
                f = random_of_degree(rng, p, rng.randint(0, max_deg))
                g = random_of_degree(rng, p, rng.randint(1, max_deg))
                f_of_xp = PolyFp(p, tuple(c if j == 0 else 0 for c in f.coeffs for j in range(p)))
                g_to_p = PolyFp.constant(p, 1)
                for _ in range(p):
                    g_to_p = g_to_p * g
                h = f_of_xp * g_to_p
                assert h.derivative().is_zero()
                assert poly_factor_fp(h) == sympy_factors(h), (p, h.coeffs)

    def test_multiplicities_around_the_characteristic(self):
        # multiplicities below p, equal to p, divisible by p and above p meet
        # in one input: those prime to p are read off gcd(f, f'), the others
        # go round again as the p-th root of what that gcd leaves
        rng = random.Random(59)
        for p in (2, 3, 5, 7):
            for trial in range(25):
                count = rng.randint(1, 3)
                mults = [1, p, 2 * p] if trial == 0 else [rng.randint(1, 2 * p + 1) for _ in range(count)]
                f = PolyFp.constant(p, rng.randrange(1, p))
                for e in mults:
                    g = random_of_degree(rng, p, rng.randint(1, 2))
                    for _ in range(e):
                        f = f * g
                assert poly_factor_fp(f) == sympy_factors(f), (p, mults, f.coeffs)


class TestIrreducibility:
    def test_against_bruteforce(self):
        for p in (2, 3, 5, 7):
            rng = random.Random(p)
            for _ in range(60):
                f = random_poly(rng, p, 4)
                if f.is_constant():
                    continue
                assert is_irreducible_fp(f) == brute_is_irreducible(f)

    def test_products_of_two_half_degree_irreducibles(self):
        # g^2 and g*h with g, h irreducible of degree n/2 have no factor of
        # lower degree: g^2 is rejected as not squarefree, g*h by its one
        # distinct-degree part, of degree n/2
        rng = random.Random(31)
        for p, n in ((2, 4), (3, 4), (5, 4), (2, 6), (3, 6)):
            half = [f for f in irreducible_monics(p, n // 2) if f.degree == n // 2]
            for _ in range(4):
                g, h = rng.choice(half), rng.choice(half)
                for f in (g * g, g * h):
                    lead = rng.randrange(1, p)
                    for poly in (f, f.scale(lead)):
                        assert poly.degree == n
                        assert not brute_is_irreducible(poly)
                        assert not is_irreducible_fp(poly)

    def test_against_factorization_at_large_p(self):
        # the distinct-degree pass at primes where the Frobenius table starts
        # from a power x^p of many bits, against the full factorization;
        # both verdicts occur at every degree
        rng = random.Random(37)
        for p in (101, 10007):
            for deg in range(2, 11):
                seen = {True: 0, False: 0}
                while min(seen.values()) < 3:
                    f = random_of_degree(rng, p, deg)
                    expected = factored_irreducible(f)
                    assert is_irreducible_fp(f) == expected
                    seen[expected] += 1

    def test_degree_64_at_large_p_at_once(self):
        # a fixed degree-64 irreducible over F_10007 (seed 29, confirmed by
        # the factorizer), and it times x + 3, are each decided in one
        # distinct-degree pass
        p = 10007
        rng = random.Random(29)
        f = PolyFp(p, tuple(rng.randrange(p) for _ in range(64)) + (1,))
        assert factored_irreducible(f)
        for poly, expected in ((f, True), (f * PolyFp.of(p, (3, 1)), False)):
            start = time.perf_counter()
            assert is_irreducible_fp(poly) is expected
            assert time.perf_counter() - start < 0.5

    def test_counts(self):
        # Gauss: #monic irreducibles of degree n over F_p is
        # (1/n) sum_{d | n} mu(d) p^(n/d)
        def mobius(d):
            out, q = 1, 2
            while d > 1:
                if d % q == 0:
                    d //= q
                    if d % q == 0:
                        return 0
                    out = -out
                q += 1
            return out

        for p, top in ((2, 8), (3, 6), (5, 4), (7, 3)):
            found = irreducible_monics(p, top)
            for n in range(1, top + 1):
                expected = sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
                assert sum(1 for f in found if f.degree == n) == expected


class TestResidueField:
    def test_inverse(self):
        rng = random.Random(23)
        pi = PolyFp.of(3, (1, 0, 1))
        for _ in range(50):
            a = random_poly(rng, 3, 1, nonzero=True)
            inv = a.pow_mod(-1, pi)
            assert (a * inv % pi) == PolyFp.constant(3, 1)

    def test_square_examples(self):
        pi3 = PolyFp.x(3)
        assert is_square_fq(PolyFp.constant(3, 1), pi3)
        assert not is_square_fq(PolyFp.constant(3, 2), pi3)
        pi7 = PolyFp.x(7)
        assert is_square_fq(PolyFp.constant(7, 2), pi7)  # 3^2 = 2 mod 7

    def test_rejects_zero_and_char2(self):
        with pytest.raises(ZeroValuationError):
            is_square_fq(PolyFp.constant(3, 0), PolyFp.x(3))
        with pytest.raises(UnsupportedFieldError):
            is_square_fq(PolyFp.constant(2, 1), PolyFp.x(2))

    def test_against_exhaustive_squaring(self):
        # every field F_q with odd q = p^deg <= 343, no exceptions
        from ramgenus.exactarith import is_prime

        cases = [
            (p, deg)
            for p in range(3, 344, 2)
            if is_prime(p)
            for deg in range(1, 6)
            if p**deg <= 343
        ]
        assert len(cases) > 60
        for p, deg in cases:
            pi = next(f for f in irreducible_monics(p, deg) if f.degree == deg)
            elements = [
                PolyFp(p, tuple(cs))
                for cs in _tuples(p, deg)
                if any(cs)
            ]
            squares = {(e * e % pi).coeffs for e in elements}
            for e in elements:
                assert is_square_fq(e, pi) == ((e % pi).coeffs in squares)

    def test_norm_is_product_over_roots(self):
        # f splits into distinct linear factors, so the product of g over
        # its roots is a product of values
        rng = random.Random(41)
        for _ in range(200):
            p = rng.choice([2, 3, 7, 101])
            roots = rng.sample(range(p), rng.randint(0, min(p, 5)))
            f = PolyFp.constant(p, 1)
            for a in roots:
                f = f * PolyFp.of(p, (-a, 1))
            g = random_poly(rng, p, 6, nonzero=False)
            expected = 1
            for a in roots:
                expected = expected * g.evaluate(a) % p
            assert _norm(f.coeffs, g.coeffs, p) == expected

    def test_nth_power_against_exponent_reference(self):
        # r^((q-1)/g) = 1 with g = gcd(n, q-1), over monic and non-monic
        # irreducible moduli; both the norm branch (g | p-1) and the
        # exponentiation branch (g not dividing p-1) occur
        rng = random.Random(43)
        branches = {True: 0, False: 0}
        for p in (3, 5, 7, 13, 31, 101):
            for deg in range(1, 7):
                moduli = []
                while len(moduli) < 2:
                    f = random_of_degree(rng, p, deg)
                    if factored_irreducible(f):
                        moduli.append(f)
                moduli.append(moduli[0].monic())
                for pi in moduli:
                    q = p**deg
                    for _ in range(4):
                        r = random_poly(rng, p, 2 * deg)
                        if (r % pi).is_zero():
                            continue
                        for n in range(2, 7):
                            g = gcd(n, q - 1)
                            branches[(p - 1) % g == 0] += 1
                            expected = r.pow_mod((q - 1) // g, pi) == PolyFp.constant(p, 1)
                            assert residue_class_is_nth_power(r, pi, n) == expected
        assert min(branches.values()) > 100

    def test_nth_power_class_gcd_handling(self):
        # q = 7: cubes have index gcd(3, 6) = 3; 2 generates the cubes? 2^2=4, 2^3=1
        pi = PolyFp.x(7)
        cubes = {pow(x, 3, 7) for x in range(1, 7)}
        for r in range(1, 7):
            expected = r in cubes
            assert residue_class_is_nth_power(PolyFp.constant(7, r), pi, 3) == expected
        # n = 4 over F_7: gcd(4, 6) = 2, so the test degrades to squares
        squares = {pow(x, 2, 7) for x in range(1, 7)}
        for r in range(1, 7):
            assert residue_class_is_nth_power(PolyFp.constant(7, r), pi, 4) == (
                r in squares
            )


def _tuples(p, deg):
    if deg == 0:
        yield ()
        return
    for rest in _tuples(p, deg - 1):
        for c in range(p):
            yield (c,) + rest
