import random

import pytest

from ramgenus.errors import UnsupportedFieldError, ZeroValuationError
from ramgenus.gfpoly import (
    PolyFp,
    fq_inv,
    irreducible_monics,
    is_irreducible_fp,
    is_square_fq,
    monic_polys,
    poly_factor_fp,
    residue_class_is_nth_power,
)


def brute_is_irreducible(f: PolyFp) -> bool:
    """Oracle: no monic divisor of degree 1..deg(f)-1 (exhaustive)."""
    if f.degree < 1:
        return False
    for d in range(1, f.degree):
        for g in monic_polys(f.p, d):
            if (f % g).is_zero():
                return False
    return True


def random_poly(rng, p, max_deg, nonzero=True):
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [rng.randrange(p) for _ in range(deg + 1)]
        f = PolyFp(p, tuple(coeffs))
        if not nonzero or not f.is_zero():
            return f


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

    def test_gcd_divides_both(self):
        rng = random.Random(13)
        for _ in range(200):
            p = rng.choice([3, 5, 7])
            f = random_poly(rng, p, 5)
            g = random_poly(rng, p, 5)
            h = f.gcd(g)
            assert (f % h).is_zero() and (g % h).is_zero()

    def test_str(self):
        f = PolyFp.of(3, (2, 0, 1))
        assert str(f) == "x^2 + 2"

    def test_pow_mod_against_repeated_products(self):
        # the modulus need not be monic: its remainders are those of its
        # monic associate
        rng = random.Random(29)
        for _ in range(150):
            p = rng.choice([2, 3, 5, 7, 10007])
            f = random_poly(rng, p, 5)
            modulus = random_poly(rng, p, 4)
            if modulus.is_constant():
                continue
            power = PolyFp.constant(p, 1)
            for e in range(8):
                got = f.pow_mod(e, modulus)
                assert got == (power if e == 0 else power % modulus)
                power = power * f


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


class TestFactor:
    def test_x_squared_minus_one_f3(self):
        f = PolyFp.of(3, (-1, 0, 1))
        parts = poly_factor_fp(f)
        assert parts == [
            (PolyFp.of(3, (1, 1)), 1),
            (PolyFp.of(3, (2, 1)), 1),
        ]

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
        # lower degree, so only the last gcd of the test can reject them
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
            inv = fq_inv(a, pi)
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
