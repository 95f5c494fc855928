import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ramgenus.brauerq import QuaternionQ, ramification_set
from ramgenus.errors import PrimalityRangeError, ZeroValuationError
from ramgenus.exactarith import (
    euler_phi,
    factor,
    is_prime,
    is_rational_square,
    jacobi,
    legendre,
    legendre_fraction,
    smallest_nonresidue,
    squarefree_part,
    unit_part,
    valuation,
)


def trial_division(n: int) -> dict[int, int]:
    """Independent factorization oracle."""
    out: dict[int, int] = {}
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactor:
    def test_unit(self):
        f = factor(1)
        assert f.sign == 1 and f.factors == ()
        assert f.value() == 1

    def test_negative(self):
        f = factor(-12)
        assert f.sign == -1
        assert f.as_dict() == {2: 2, 3: 1}

    def test_360360_against_trial_division(self):
        expected = trial_division(360360)
        assert factor(360360).as_dict() == expected
        assert expected == {2: 3, 3: 2, 5: 1, 7: 1, 11: 1, 13: 1}

    def test_zero_rejected(self):
        with pytest.raises(ZeroValuationError):
            factor(0)

    def test_round_trip_bulk(self):
        rng = random.Random(360360)
        for _ in range(1000):
            n = rng.randint(1, 2**64)
            if rng.random() < 0.5:
                n = -n
            f = factor(n)
            assert f.value() == n
            assert all(is_prime(p) for p in f.primes())

    @given(st.integers(min_value=1, max_value=2**48))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n):
        assert factor(n).value() == n

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert factor(p * q).as_dict() == {p: 1, q: 1}

    def test_prime_square_beyond_trial_division(self):
        p = 1_000_003
        assert factor(p * p).as_dict() == {p: 2}

    @pytest.mark.parametrize(
        "n",
        [
            2053 * 999_983,  # both primes in (2^11, 10^6)
            3049 * 7919,
            1_073_741_789 * 1_073_741_827,  # both primes near 2^30
            1_073_741_783 * 1_073_741_789 * 7,
            2053**2,  # q^2 for a prime q in (2^11, 10^6)
            999_983**2,
            (2**61 - 1) * (2**31 - 1),  # composite cofactor past the MR range
        ],
    )
    def test_against_sympy(self, n):
        assert factor(n).as_dict() == sympy.factorint(n)

    def test_composite_cofactor_past_mr_range_ramifies(self):
        p, q = 2**61 - 1, 2**31 - 1
        ram = ramification_set(QuaternionQ(p * q, 3))
        assert {v.p for v in ram} == {q, p}

    def test_unproven_prime_is_not_emitted(self):
        with pytest.raises(PrimalityRangeError):
            factor(2**89 - 1)

    def test_strong_pseudoprime_to_bases_up_to_37(self):
        # the least strong pseudoprime to the prime bases 2..37
        # (Sorenson-Webster); base 41 witnesses it
        n = 318_665_857_834_031_151_167_461
        assert not is_prime(n)
        assert factor(n).as_dict() == sympy.factorint(n)


class TestValuation:
    def test_examples(self):
        assert valuation(10, 2) == 1
        assert valuation(Fraction(9, 4), 2) == -2
        assert valuation(10, 3) == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroValuationError):
            valuation(Fraction(0), 5)

    def test_unit_part(self):
        assert unit_part(Fraction(12), 2) == 3
        assert unit_part(Fraction(9, 8), 2) == 9
        assert unit_part(Fraction(9, 8), 2) * 2 ** valuation(Fraction(9, 8), 2) == Fraction(9, 8)

    def test_legendre_of_unit_fraction(self):
        # (n/d | p) = (n*d | p): 2/3 = 2 * 3^{-1} = 4 mod 5, a residue
        assert legendre_fraction(Fraction(2, 3), 5) == 1
        assert legendre_fraction(Fraction(2, 1), 5) == -1

    @given(
        st.fractions(min_value=-999, max_value=999).filter(lambda q: q != 0),
        st.fractions(min_value=-999, max_value=999).filter(lambda q: q != 0),
        st.sampled_from([2, 3, 5, 7, 13]),
    )
    @settings(max_examples=200, deadline=None)
    def test_additive(self, a, b, p):
        assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


class TestJacobi:
    def test_identity(self):
        for n in (1, 3, 9, 15, 105):
            assert jacobi(1, n) == 1

    def test_squares_oracle_small(self):
        # squares mod 3 = {0, 1}: 10 = 1 mod 3 is a residue
        assert jacobi(10, 3) == 1
        # squares mod 7 = {0, 1, 2, 4}: 10 = 3 mod 7 is not
        assert jacobi(10, 7) == -1

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            jacobi(3, 4)
        with pytest.raises(ValueError):
            jacobi(3, -5)

    def test_matches_bruteforce_legendre_below_200(self):
        for p in range(3, 200, 2):
            if not is_prime(p):
                continue
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert jacobi(a, p) == expected
                assert legendre(a, p) == expected

    def test_multiplicative(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(1, 400) * 2 + 1
            a, b = rng.randint(-500, 500), rng.randint(-500, 500)
            assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


class TestPrimality:
    def test_known_values(self):
        assert is_prime(2) and is_prime(3) and is_prime(1_000_003)
        assert not is_prime(1) and not is_prime(561) and not is_prime(2**31)

    def test_range_guard(self):
        with pytest.raises(PrimalityRangeError):
            is_prime(3_317_044_064_679_887_385_961_981 + 12)


class TestHelpers:
    def test_euler_phi(self):
        def brute(n):
            from math import gcd

            return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

        for n in range(1, 60):
            assert euler_phi(n) == brute(n)

    def test_smallest_nonresidue(self):
        assert smallest_nonresidue(3) == 2
        assert smallest_nonresidue(7) == 3
        assert smallest_nonresidue(13) == 2

    def test_rational_square(self):
        assert is_rational_square(Fraction(4, 9))
        assert is_rational_square(0)
        assert not is_rational_square(Fraction(2))
        assert not is_rational_square(Fraction(-4))

    def test_squarefree_part(self):
        assert squarefree_part(Fraction(8)) == 2
        assert squarefree_part(Fraction(-18)) == -2
        assert squarefree_part(Fraction(2, 3)) == 6
        assert squarefree_part(Fraction(49)) == 1
