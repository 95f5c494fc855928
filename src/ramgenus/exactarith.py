"""Integer and rational primitives: factorization, primality, Legendre/Jacobi
symbols, p-adic valuations, and square-class helpers.

Rationals are plain ``fractions.Fraction`` values throughout the package:
Fraction already guarantees a positive denominator, a reduced representation,
and a unique zero, which is exactly the invariant set we need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import PrimalityRangeError, ZeroValuationError

Rational = Fraction

# Deterministic Miller-Rabin: the first 13 prime bases certify primality for
# all n < 3,317,044,064,679,887,385,961,981, the least strong pseudoprime to
# all of them (Sorenson-Webster); without 41 the bound would be 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# factor trial-divides up to here; larger factors are left to Brent-rho
_TRIAL_BOUND = 1 << 11


def _mr_composite(n: int) -> bool:
    """Does some base in _MR_BASES witness that odd n > 41 is composite?

    A witness proves compositeness at any size; passing every base proves
    primality only below _MR_LIMIT.
    """
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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

    Deterministic: sweeps polynomial offsets c = 1, 2, ... in order.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
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


@dataclass(frozen=True)
class PrimeFactorization:
    """Signed prime factorization: sign * prod(p^e) reconstructs the integer.

    ``factors`` is a tuple of (prime, exponent) pairs sorted by prime.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

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

    Trial division up to 2^11; a larger cofactor is split by Brent-rho once
    Miller-Rabin has proved it composite, and emitted as prime only when the
    Miller-Rabin bases certify it. So the time grows with the second-largest
    prime factor, not the largest, and a probable prime past ~3.3e24 raises
    PrimalityRangeError instead of being emitted unproven.
    """
    if n == 0:
        raise ZeroValuationError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    counts: dict[int, int] = {}

    def bump(p: int, e: int = 1) -> None:
        counts[p] = counts.get(p, 0) + e

    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
            bump(p)
    d = 7
    # wheel over residues coprime to 30
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d <= _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            n //= d
            bump(d)
        d += wheel[i]
        i = (i + 1) % 8
    # no prime below d divides what is left, so any m < d*d left is prime
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m >= d * d and _mr_composite(m):
            g = _brent_rho(m)
            stack.append(g)
            stack.append(m // g)
        elif m >= _MR_LIMIT:
            raise _range_error(m)
        else:
            bump(m)
    return PrimeFactorization(sign, tuple(sorted(counts.items())))


def valuation(a: Fraction | int, p: int) -> int:
    """p-adic valuation v_p(a) for nonzero rational a."""
    a = Fraction(a)
    if a == 0:
        raise ZeroValuationError("v_p(0) is +infinity")
    v = 0
    n = a.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = a.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def unit_part(a: Fraction | int, p: int) -> Fraction:
    """a / p^{v_p(a)}: the p-adic unit factor of a nonzero rational."""
    return Fraction(a) / Fraction(p) ** valuation(a, p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def legendre_fraction(a: Fraction | int, p: int) -> int:
    """Legendre symbol of a p-adic unit rational: (n/d | p) = (n*d | p)."""
    a = Fraction(a)
    return legendre(a.numerator * a.denominator, p)


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
    if n == 1:
        return 1
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
