"""Integer and rational primitives: factorization, primality, Legendre/Jacobi
symbols, p-adic valuations, and square-class helpers.

``factor`` removes the primes below 2^11 by one gcd per block of them, then
splits a proven-composite cofactor by Brent-rho under a fixed budget of word
squarings. Miller-Rabin runs only the bases that n's size needs, read off the
least strong pseudoprimes psi_k (Jaeschke, Math. Comp. 61, 1993;
Sorenson-Webster, Math. Comp. 86, 2017; OEIS A014233).

Rationals are plain ``fractions.Fraction`` values throughout the package:
Fraction already guarantees a positive denominator, a reduced representation,
and a unique zero, which is exactly the invariant set we need.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, prod

from ._value import Value
from .errors import FactorBudgetExhausted, PrimalityRangeError, ZeroValuationError

# Deterministic Miller-Rabin: below psi_k, the least odd composite that is a
# strong probable prime to each of the first k prime bases, those k bases
# decide; _MR_K keeps the smallest k for each value (psi_7 = psi_8, psi_9 =
# psi_11). All 13 certify primality below _MR_LIMIT = psi_13 (psi_12 ~ 3.2e23).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
           3_474_749_660_383, 341_550_071_728_321, 3_825_123_056_546_413_051,
           318_665_857_834_031_151_167_461)
_MR_K = (1, 2, 3, 4, 5, 6, 7, 9, 12, 13)  # bases needed below each psi, then all
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# factor removes the primes below _TRIAL_BOUND by blocks [lo, hi), each kept
# with the product of its primes; larger factors are left to Brent-rho
_TRIAL_BOUND = 1 << 11
_SIEVE = bytearray([0, 0]) + bytearray([1]) * (_TRIAL_BOUND - 2)
for _p in range(2, isqrt(_TRIAL_BOUND) + 1):
    if _SIEVE[_p]:
        _SIEVE[_p * _p::_p] = bytes(len(range(_p * _p, _TRIAL_BOUND, _p)))
_BLOCKS = tuple(
    (lo, block, prod(block))
    for lo, hi in ((2, 64), (64, 512), (512, _TRIAL_BOUND))
    for block in [tuple(compress(range(lo, hi), _SIEVE[lo:hi]))]
)

# Brent-rho's budget in word squarings: a round of length r takes 2r steps, each
# a squaring modulo n charged ceil(bits(n)/64)^2, so the time per unit stays
# about flat as n grows. The largest split in tests, psi_12 (79 bits), costs
# 2,097,144 (524,286 steps), the benchmark's, a 92-bit cofactor, 262,136;
# a 70-bit least factor needs ~2^35 steps
_RHO_BUDGET = 1 << 22


def _mr_composite(n: int) -> bool:
    """Does one of the first k bases in _MR_BASES witness that odd n > 41 is
    composite, for the smallest k with n < psi_k (all 13 from _MR_LIMIT on)?

    A witness proves compositeness at any size; passing the bases proves
    primality only below _MR_LIMIT.
    """
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:_MR_K[bisect_right(_MR_PSI, n)]]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return True
    return False


def _range_error(n: int) -> PrimalityRangeError:
    return PrimalityRangeError(
        f"{n} exceeds the deterministic Miller-Rabin range"
    )


def is_prime(n: int) -> bool:
    """Deterministic primality test for 1 < n < ~3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise _range_error(n)
    return not _mr_composite(n)


def primes_after(n: int):
    """Yield the primes greater than n, in increasing order."""
    while True:
        n += 1
        if is_prime(n):
            yield n


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant).

    Deterministic: sweeps polynomial offsets c = 1, 2, ... in order, and
    raises FactorBudgetExhausted once _RHO_BUDGET word squarings are spent,
    each step charged ceil(bits(n)/64)^2 of them.
    """
    budget, cost = _RHO_BUDGET, (-(-n.bit_length() // 64)) ** 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            budget -= 2 * r * cost
            if budget < 0:
                raise FactorBudgetExhausted(f"no factor of {n} in {_RHO_BUDGET // cost} Brent-rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


class PrimeFactorization(Value):
    """Signed prime factorization: sign * prod(p^e) reconstructs the integer.

    ``factors`` is a tuple of (prime, exponent) pairs sorted by prime.
    """

    __slots__ = ("sign", "factors")

    def __init__(self, sign: int, factors: tuple[tuple[int, int], ...]):
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        self._set(sign, factors)

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent(self, p: int) -> int:
        return self.as_dict().get(p, 0)

    def squarefree_part(self) -> int:
        """The squarefree integer representing value() modulo squares."""
        d = self.sign
        for p, e in self.factors:
            if e % 2:
                d *= p
        return d


def factor(n: int) -> PrimeFactorization:
    """Factor a nonzero integer.

    The primes below 2^11 go by one gcd per block of them, until n < lo^2 for
    the bottom lo of a block, when what is left is 1 or prime. A larger
    cofactor is split by Brent-rho once Miller-Rabin has proved it composite,
    and emitted as prime only when the Miller-Rabin bases certify it. So the
    time grows with the second-largest prime factor, not the largest; a
    probable prime past ~3.3e24 raises PrimalityRangeError instead of being
    emitted unproven, and a split past the rho budget FactorBudgetExhausted.
    """
    if n == 0:
        raise ZeroValuationError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    counts: dict[int, int] = {}
    for lo, block, product in _BLOCKS:
        if n < lo * lo:
            break
        g = gcd(n, product)  # squarefree; past p*p > g it is 1 or prime
        for p in block:
            if p * p > g:
                break
            if g % p == 0:
                g //= p
                counts[p], n = _p_split(n, p)
        if g > 1:
            counts[g], n = _p_split(n, g)
    else:
        lo = _TRIAL_BOUND
    # no prime below lo divides what is left, so any m < lo*lo left is prime
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m >= lo * lo and _mr_composite(m):
            g = _brent_rho(m)
            stack += (g, m // g)
        elif m >= _MR_LIMIT:
            raise _range_error(m)
        else:
            counts[m] = counts.get(m, 0) + 1
    return PrimeFactorization(sign, tuple(sorted(counts.items())))


def _p_split(n: int, p: int) -> tuple[int, int]:
    """(v, n / p^v) with v = v_p(n), for a nonzero integer n and p > 1."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def valuation(a: Fraction | int, p: int) -> int:
    """p-adic valuation v_p(a) for nonzero rational a and a prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a = Fraction(a)
    if a == 0:
        raise ZeroValuationError("v_p(0) is +infinity")
    return _p_split(a.numerator, p)[0] - _p_split(a.denominator, p)[0]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n; equals Legendre for prime n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs odd positive n")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def euler_phi(n: int) -> int:
    """Euler's totient of a positive integer."""
    if n < 1:
        raise ValueError("phi is defined for positive integers")
    phi = 1
    for p, e in factor(n).factors:
        phi *= (p - 1) * p ** (e - 1)
    return phi


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue modulo an odd prime p."""
    u = 2
    while legendre(u, p) != -1:
        u += 1
    return u


def is_rational_square(a: Fraction | int) -> bool:
    """Exact test: is a the square of a rational?"""
    a = Fraction(a)
    if a < 0:
        return False
    rn = isqrt(a.numerator)
    rd = isqrt(a.denominator)
    return rn * rn == a.numerator and rd * rd == a.denominator


def squarefree_part(a: Fraction | int) -> int:
    """Squarefree integer representing the class of nonzero a modulo squares.

    n/d and n*d differ by the square d^2, so the answer is the squarefree
    part of numerator * denominator.
    """
    a = Fraction(a)
    if a == 0:
        raise ZeroValuationError("0 has no square class")
    return factor(a.numerator * a.denominator).squarefree_part()
