"""Square classes and Hilbert symbols over the completions Q_v.

``hilbert`` uses the classical closed-form local formulas (Legendre symbols of
unit parts at odd p, the mod-8 characters at 2, the sign test at the real
place). ``hilbert_oracle`` decides the same question by exhaustive search for
primitive solutions of z^2 = a x^2 + b y^2 modulo prime powers with a
Hensel-lifting acceptance criterion, and never touches the formulas, so the
two routes stay independent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroValuationError
from .exactarith import is_prime, legendre, smallest_nonresidue


@functools.total_ordering
@dataclass(frozen=True, order=False)
class PlaceQ:
    """A place of Q: a finite prime p, or the real place (p is None)."""

    p: int | None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def finite(cls, p: int) -> "PlaceQ":
        return cls(p)

    @classmethod
    def _from_factor(cls, p: int) -> "PlaceQ":
        """The place of a prime that ``factor`` has just certified; skips the
        primality test that the constructor runs."""
        place = object.__new__(cls)
        object.__setattr__(place, "p", p)
        return place

    @classmethod
    def real_infinity(cls) -> "PlaceQ":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    def _key(self) -> tuple[int, int]:
        # the real place sorts after every finite prime
        return (1, 0) if self.p is None else (0, self.p)

    def __lt__(self, other: "PlaceQ") -> bool:
        return self._key() < other._key()

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)


REAL_PLACE = PlaceQ.real_infinity()


@dataclass(frozen=True)
class LocalSquareClass:
    """An element of Q_v^x / (Q_v^x)^2 in canonical form.

    parity is v(a) mod 2 (always 0 at the real place). The meaning of
    ``unit`` depends on the place:
      * odd p: the Legendre symbol (+1/-1) of the unit part;
      * p = 2: the unit part modulo 8 (one of 1, 3, 5, 7);
      * real place: the sign of a (parity stays 0).
    """

    place: PlaceQ
    parity: int
    unit: int

    def is_identity(self) -> bool:
        return self.parity == 0 and self.unit == 1

    def __mul__(self, other: "LocalSquareClass") -> "LocalSquareClass":
        if self.place != other.place:
            raise ValueError("cannot multiply classes at different places")
        parity = (self.parity + other.parity) % 2
        if self.place.p == 2:
            unit = self.unit * other.unit % 8
        else:
            unit = self.unit * other.unit
        return LocalSquareClass(self.place, parity, unit)

    def representative(self) -> int:
        """Canonical coset label: {1, u, p, up} for odd p (u the smallest
        non-residue), {±1, ±2, ±5, ±10} for p = 2, {±1} at the real place."""
        p = self.place.p
        if p is None:
            return self.unit
        if p == 2:
            label = {1: 1, 3: -5, 5: 5, 7: -1}[self.unit]
            return label * 2 if self.parity else label
        u = smallest_nonresidue(p)
        label = 1 if self.unit == 1 else u
        return label * p if self.parity else label


def _class_parts(a: Fraction | int, p: int | None) -> tuple[int, int]:
    """(parity, unit) of nonzero a in Q_p^x modulo squares, as
    ``LocalSquareClass`` stores them; p is None at the real place."""
    n, d = _num_den(a)
    if not n:
        raise ZeroValuationError("0 has no square class")
    if p is None:
        return 0, 1 if n > 0 else -1
    w, unit = _local_split(n, d, p)
    if p == 2:
        return w % 2, unit % 8
    return w % 2, legendre(unit, p)


def square_class(a: Fraction | int, v: PlaceQ) -> LocalSquareClass:
    """The class of nonzero a in Q_v^x modulo squares."""
    return LocalSquareClass(v, *_class_parts(a, v.p))


def is_local_square(a: Fraction | int, v: PlaceQ) -> bool:
    """Is nonzero a a square in Q_v? ``square_class(a, v).is_identity()``
    without building the class."""
    return _class_parts(a, v.p) == (0, 1)


def _eps(u: int) -> int:
    """(u-1)/2 mod 2 for odd u."""
    return (u - 1) // 2 % 2


def _omega(u: int) -> int:
    """(u^2-1)/8 mod 2 for odd u."""
    return (u * u - 1) // 8 % 2


def _num_den(a) -> tuple[int, int]:
    """Numerator and positive denominator of a rational in lowest terms.
    ``int`` and ``Fraction`` are read directly; anything else goes through
    ``Fraction()`` once."""
    if type(a) is not int and type(a) is not Fraction:
        a = Fraction(a)
    return a.as_integer_ratio()


def _strip(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _local_split(n: int, d: int, p: int) -> tuple[int, int]:
    """(v_p(n/d), unit proxy): the proxy n0*d0 is a p-unit integer in the same
    square class of Q_p as the unit part of n/d (n0/d0 and n0*d0 differ by
    d0^2)."""
    if n % p and d % p:
        return 0, n * d
    vn, n0 = _strip(n, p)
    vd, d0 = _strip(d, p)
    return vn - vd, n0 * d0


def hilbert(a: Fraction | int, b: Fraction | int, v: PlaceQ) -> int:
    """Hilbert symbol (a,b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial
    solution over Q_v. Closed-form local formulas; symmetric and
    bimultiplicative, and it depends only on the square classes of a and b."""
    an, ad = _num_den(a)
    bn, bd = _num_den(b)
    if not an or not bn:
        raise ZeroValuationError("Hilbert symbol needs nonzero entries")
    p = v.p
    if p is None:
        return -1 if an < 0 and bn < 0 else 1
    alpha, ua = _local_split(an, ad, p)
    beta, ub = _local_split(bn, bd, p)
    if p == 2:
        u, w = ua % 8, ub % 8
        exp = _eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if exp % 2 else 1
    exp = alpha * beta * ((p - 1) // 2)
    sym = -1 if exp % 2 else 1
    if beta % 2:
        sym *= legendre(ua, p)
    if alpha % 2:
        sym *= legendre(ub, p)
    return sym


@dataclass(frozen=True)
class LocalInvariant:
    """An element of (1/2)Z/Z: the local invariant of a quaternion class."""

    value: Fraction

    def __post_init__(self):
        if self.value not in (Fraction(0), Fraction(1, 2)):
            raise ValueError("quaternion invariants are 0 or 1/2")

    def __add__(self, other: "LocalInvariant") -> "LocalInvariant":
        return LocalInvariant((self.value + other.value) % 1)


def invariant(a: Fraction | int, b: Fraction | int, v: PlaceQ) -> LocalInvariant:
    """inv_v of the class of (a,b): 0 if split at v, 1/2 otherwise."""
    return LocalInvariant(Fraction(0) if hilbert(a, b, v) == 1 else Fraction(1, 2))


# -- independent oracle --------------------------------------------------------
#
# Decides solvability of z^2 = a x^2 + b y^2 over Q_p by breadth-first search
# for primitive solutions modulo p, p^2, ..., p^k, accepting a candidate P as
# soon as the Hensel criterion v(f(P)) >= 2 e + 1 holds, where e is the
# minimum valuation of the gradient (2ax, 2by, -2z) at P. Primitive solutions
# that never reach the criterion die out by level k because some coordinate of
# a primitive triple is a unit, which caps e at v(2) + max(v(a), v(b)). The
# search runs on the reduced entries, whose valuations are 0 or 1, so the
# depth is fixed: k = 5, or k = 8 at p = 2 (a mod-8 lifting margin).
#
# Scaling a triple by a unit changes neither f = 0 mod p^j nor the gradient
# valuations, so the search keeps one triple per scaling class, the one whose
# first unit coordinate is 1 (the coordinates before it are multiples of p).
# Its lifts keep that coordinate at 1 and lift the other two, so level 1 visits
# p^2 + p + 1 triples and each later level p^2 per frontier triple, not p^3.
#
# Entry normalization uses only square scalings of the variables (x -> x/t),
# which are elementary substitutions: replacing a by a * t^2 (clearing the
# denominator, dropping even powers of p) cannot change solvability. Units
# congruent mod p (mod 8 for p = 2) differ by a square of Z_p -- that is the
# same one-variable Newton iteration the search itself applies to z^2 - u --
# so unit representatives are reduced that far for memoization.


def _hensel_accepts(
    fval: int, grads: tuple[int, int, int], p: int, level: int, modulus: int
) -> bool:
    def val(n: int) -> int:
        if n % modulus == 0:
            return level
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    e = min(val(g) for g in grads)
    return fval % modulus == 0 and 2 * e + 1 <= level


def _projective_points(p: int):
    """One triple per point of the projective plane over F_p, the one whose
    first nonzero coordinate is 1."""
    for y in range(p):
        for z in range(p):
            yield 1, y, z
    for z in range(p):
        yield 0, 1, z
    yield 0, 0, 1


@functools.lru_cache(maxsize=None)
def _oracle_search(p: int, va: int, ua: int, vb: int, ub: int) -> int:
    k = 8 if p == 2 else 5
    a = p**va * ua
    b = p**vb * ub

    def f(x: int, y: int, z: int) -> int:
        return a * x * x + b * y * y - z * z

    frontier: list[tuple[int, int, int]] = []
    for x, y, z in _projective_points(p):
        val = f(x, y, z)
        if val % p:
            continue
        if _hensel_accepts(val, (2 * a * x, 2 * b * y, -2 * z), p, 1, p):
            return 1
        frontier.append((x, y, z))
    modulus = p
    for level in range(2, k + 1):
        step = modulus
        modulus *= p
        nxt: list[tuple[int, int, int]] = []
        for point in frontier:
            i, j = (n for n in range(3) if n != point.index(1))  # the coordinates to lift
            for di in range(p):
                for dj in range(p):
                    lift = list(point)
                    lift[i] += di * step
                    lift[j] += dj * step
                    x, y, z = lift
                    val = f(x, y, z)
                    if val % modulus:
                        continue
                    if _hensel_accepts(
                        val, (2 * a * x, 2 * b * y, -2 * z), p, level, modulus
                    ):
                        return 1
                    nxt.append((x, y, z))
        if not nxt:
            return -1
        frontier = nxt
    if frontier:  # pragma: no cover - cannot happen if k >= 2*e_max + 1
        raise ArithmeticError("oracle search did not converge")
    return -1


_ORACLE_PRIMES: set[int] = set()


def hilbert_oracle(
    a: Fraction | int,
    b: Fraction | int,
    p: int,
    allow_dyadic: bool = False,
) -> int:
    """Brute-force Hilbert symbol over Q_p (odd p; p = 2 behind a flag).

    Drops even powers of p from both entries, then searches for primitive
    solutions of z^2 = a x^2 + b y^2 modulo p^k, k = 5 (odd p) or 8 (p = 2),
    accepting via the nonsingular Hensel criterion. The reduced entries have
    valuation 0 or 1, so entries of any valuation are accepted.
    """
    an, ad = _num_den(a)
    bn, bd = _num_den(b)
    if not an or not bn:
        raise ZeroValuationError("Hilbert symbol needs nonzero entries")
    if p not in _ORACLE_PRIMES:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        _ORACLE_PRIMES.add(p)
    if p == 2 and not allow_dyadic:
        raise ValueError("p = 2 requires allow_dyadic=True (mod-8 criterion)")
    va, ua = _local_split(an, ad, p)
    vb, ub = _local_split(bn, bd, p)
    m = 8 if p == 2 else p  # units congruent mod m share a square class
    return _oracle_search(p, va % 2, ua % m, vb % 2, ub % m)
