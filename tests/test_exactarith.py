import random
import time
from fractions import Fraction
from itertools import islice

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ramgenus.brauerq import QuaternionQ, ramification_set
from ramgenus.errors import FactorBudgetExhausted, PrimalityRangeError, ZeroValuationError
from ramgenus.exactarith import (
    _MR_BASES,
    euler_phi,
    factor,
    is_prime,
    is_rational_square,
    jacobi,
    legendre,
    primes_after,
    smallest_nonresidue,
    squarefree_part,
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

    @pytest.mark.parametrize(
        "n",
        [
            61 * 67,  # primes on both sides of 64
            509 * 521,  # of 512
            2039 * 2053,  # of 2048, the trial-division bound
            2039**3,
            2**64,
            3**40 * 2039,
            2047 * 2053,  # 2047 = 23 * 89
            2 * 4_214_807,  # a prime cofactor just below 2053^2
            2 * 4_194_319,  # the first prime above 2048^2
            2053 * 2063,  # the composite cofactors just above 2053^2
            3 * 4_214_851,
        ],
    )
    def test_against_sympy_at_block_edges(self, n):
        assert factor(n).as_dict() == sympy.factorint(n)

    def test_composite_cofactor_past_mr_range_ramifies(self):
        p, q = 2**61 - 1, 2**31 - 1
        ram = ramification_set(QuaternionQ(p * q, 3))
        assert {v.p for v in ram} == {q, p}

    def test_rho_gives_up_past_its_budget(self):
        # the primes after 2^70 and 2^71: rho would need about 2^35 steps
        n = sympy.nextprime(2**70) * sympy.nextprime(2**71)
        start = time.perf_counter()
        with pytest.raises(FactorBudgetExhausted):
            factor(n)
        assert time.perf_counter() - start < 5

    def test_rho_budget_counts_word_squarings(self):
        # a 2048-bit semiprime: each step squares modulo n, 32^2 word
        # squarings, so the budget runs out after 4,096 steps, not 2^22
        n = sympy.nextprime(2**1023) * sympy.nextprime(2**1024)
        assert n.bit_length() == 2048
        start = time.perf_counter()
        with pytest.raises(FactorBudgetExhausted, match="in 4096 Brent-rho steps"):
            factor(n)
        assert time.perf_counter() - start < 10

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

    def test_base_not_prime_rejected(self):
        # these looped forever (1, -1) or divided by zero (0)
        for p in (1, -1, 0, -2, 4, 15):
            with pytest.raises(ValueError, match=f"{p} is not prime"):
                valuation(5, p)

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


def strong_probable_prime(n: int, a: int) -> bool:
    """The strong probable-prime test of odd n > 2 to the base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# (k, psi_k): the least odd composite that is a strong probable prime to each
# of the first k prime bases (Jaeschke, Math. Comp. 61, 1993; Sorenson and
# Webster, Math. Comp. 86, 2017; OEIS A014233). psi_7 = psi_8, psi_9 = psi_10
# = psi_11; psi_13 is the end of the deterministic range.
PSI = [
    (1, 2_047),
    (2, 1_373_653),
    (3, 25_326_001),
    (4, 3_215_031_751),
    (5, 2_152_302_898_747),
    (6, 3_474_749_660_383),
    (7, 341_550_071_728_321),
    (8, 341_550_071_728_321),
    (9, 3_825_123_056_546_413_051),
    (12, 318_665_857_834_031_151_167_461),
    (13, 3_317_044_064_679_887_385_961_981),
]


class TestPsiTable:
    @pytest.mark.parametrize("k, psi", PSI)
    def test_least_pseudoprime_is_rejected(self, k, psi):
        assert not sympy.isprime(psi)
        assert all(strong_probable_prime(psi, a) for a in _MR_BASES[:k])
        if k < len(_MR_BASES):
            assert not is_prime(psi)
        else:
            with pytest.raises(PrimalityRangeError):
                is_prime(psi)

    def test_against_sympy_in_every_band(self):
        rng = random.Random(2047)
        edges = [3] + sorted({psi for _, psi in PSI})
        for lo, hi in zip(edges, edges[1:]):
            for _ in range(300):
                n = rng.randrange(lo, hi - 1) | 1  # odd, below hi
                assert is_prime(n) == sympy.isprime(n), n

    @pytest.mark.parametrize(
        "n",
        [
            2047, 3277, 4033, 4681, 8321,  # strong pseudoprimes to base 2
            561, 1105, 1729, 2465, 2821, 6601, 8911,  # Carmichael numbers
        ],
    )
    def test_pseudoprimes_rejected(self, n):
        assert not sympy.isprime(n)
        assert not is_prime(n)


class TestPrimality:
    def test_known_values(self):
        assert is_prime(2) and is_prime(3) and is_prime(1_000_003)
        assert not is_prime(1) and not is_prime(561) and not is_prime(2**31)

    def test_range_guard(self):
        with pytest.raises(PrimalityRangeError):
            is_prime(3_317_044_064_679_887_385_961_981 + 12)


class TestPrimesAfter:
    def test_matches_sympy(self):
        for start in (-5, 0, 1, 2, 997, 1000):
            expected = list(sympy.primerange(start + 1, 10**4))
            assert list(islice(primes_after(start), len(expected))) == expected

    def test_starts_right_after_n(self):
        assert list(islice(primes_after(2), 5)) == [3, 5, 7, 11, 13]
        assert next(primes_after(7919)) == 7927
        assert next(primes_after(7920)) == 7927


class TestHelpers:
    def test_euler_phi(self):
        def brute(n):
            from math import gcd

            return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

        for n in range(1, 60):
            assert euler_phi(n) == brute(n)
        for n in (0, -1):
            with pytest.raises(ValueError):
                euler_phi(n)

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
