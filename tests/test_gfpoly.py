import random
from math import gcd

import pytest

from ramgenus.errors import UnsupportedFieldError, ZeroValuationError
from ramgenus.gfpoly import (
    PolyFp,
    _norm,
    fq_inv,
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


class TestFactorAgainstSympy:
    PRIMES = (2, 3, 101, 10007)

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
        # f(x^p) * g^p has derivative 0, so the squarefree decomposition takes
        # the p-th-root path, more than once when f(x^p) is itself a p-th power
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

    def test_against_factorization_at_large_p(self):
        # p = 10007 is 3 mod 4, so -1 is a nonsquare and the sign
        # (-1)^(n(n-1)/2) of the discriminant decides degrees 2, 3, 6, 7, 10;
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
