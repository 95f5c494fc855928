"""Polynomial arithmetic over F_p, factorization, and residue-field tests.

Polynomials are stored as tuples of coefficients in ascending degree order
with the zero polynomial represented by the empty tuple. All values are
immutable; every operation returns a fresh polynomial.

Internal arithmetic runs on plain lists of ints (``_mul``, ``_mul_mod``,
``_add_mod``, ``_divmod_monic``, shared with the Hensel lifting in
``qpoly``), reduced once per product. Only the public constructors (``PolyFp(...)``, ``of``,
``constant``, ``x``) check the characteristic and reduce coefficients;
ring operations build their results with the trusted ``PolyFp._make``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd as int_gcd

from .errors import UnsupportedFieldError, ZeroValuationError
from .exactarith import is_prime

_KNOWN_PRIMES: set[int] = set()


def _check_char(p: int) -> None:
    if p not in _KNOWN_PRIMES:
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        _KNOWN_PRIMES.add(p)


# -- int-list kernel ----------------------------------------------------------
#
# Polynomials below are lists of ints, ascending; results are trimmed of
# trailing zeros and reduced into [0, m) for the modulus m (a prime p, or
# p^k during Hensel lifting).


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a: list[int], b: list[int]) -> list[int]:
    """The product in Z[x], unreduced (empty if either factor is)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([c % m for c in _mul(a, b)])


def _add_mod(a: list[int], b: list[int], m: int, sign: int = 1) -> list[int]:
    """a + sign*b mod m."""
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _trim([(x + sign * y) % m for x, y in zip(a, b)])


def _divmod_monic(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Division with remainder mod m by a monic b; a need not be reduced."""
    db = len(b) - 1
    rem = list(a)
    q = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % m
        if c:
            q[i - db] = c
            for j, y in enumerate(b):
                rem[i - db + j] -= c * y
    return _trim(q), _trim([c % m for c in rem[:db]])


def _monic_coeffs(f: "PolyFp") -> list[int]:
    """The coefficients of f scaled to be monic; f nonzero."""
    lead = f.coeffs[-1]
    if lead == 1:
        return list(f.coeffs)
    inv = pow(lead, -1, f.p)
    return [c * inv % f.p for c in f.coeffs]


def _pow_mod(a, e: int, f: list[int], p: int) -> list[int]:
    """a^e mod (f, p) for e >= 1 and a monic f, left to right: every step
    squares, then multiplies by a when the exponent bit is set, so no
    squaring follows the last bit."""
    base = _divmod_monic(a, f, p)[1]
    out = base
    for bit in bin(e)[3:]:
        out = _divmod_monic(_mul(out, out), f, p)[1]
        if bit == "1":
            out = _divmod_monic(_mul(out, base), f, p)[1]
    return out


@dataclass(frozen=True)
class PolyFp:
    """A polynomial over F_p: coefficients ascending, trailing zeros stripped."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _check_char(self.p)
        cs = tuple(c % self.p for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def _make(cls, p: int, coeffs) -> "PolyFp":
        """Trusted constructor for kernel results: p is a known prime and the
        coefficients are already reduced into [0, p) and trimmed."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "p", p)
        object.__setattr__(poly, "coeffs", tuple(coeffs))
        return poly

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of(cls, p: int, coeffs) -> "PolyFp":
        return cls(p, tuple(coeffs))

    @classmethod
    def constant(cls, p: int, c: int) -> "PolyFp":
        return cls(p, (c,))

    @classmethod
    def x(cls, p: int) -> "PolyFp":
        return cls(p, (0, 1))

    # -- basic structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ZeroValuationError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_value(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def _check(self, other: "PolyFp") -> None:
        if self.p != other.p:
            raise ValueError("mixed characteristics")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        return PolyFp._make(self.p, _add_mod(self.coeffs, other.coeffs, self.p))

    def __neg__(self) -> "PolyFp":
        return PolyFp._make(self.p, [-c % self.p for c in self.coeffs])

    def __sub__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        return PolyFp._make(self.p, _add_mod(self.coeffs, other.coeffs, self.p, -1))

    def __mul__(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        return PolyFp._make(self.p, _mul_mod(self.coeffs, other.coeffs, self.p))

    def scale(self, c: int) -> "PolyFp":
        p = self.p
        c %= p
        if not c:
            return PolyFp._make(p, ())
        return PolyFp._make(p, [a * c % p for a in self.coeffs])

    def __divmod__(self, other: "PolyFp") -> tuple["PolyFp", "PolyFp"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        lead = other.coeffs[-1]
        q, r = _divmod_monic(self.coeffs, _monic_coeffs(other), p)
        if lead != 1:
            inv = pow(lead, -1, p)
            q = [c * inv % p for c in q]
        return PolyFp._make(p, q), PolyFp._make(p, r)

    def __floordiv__(self, other: "PolyFp") -> "PolyFp":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyFp") -> "PolyFp":
        return divmod(self, other)[1]

    def monic(self) -> "PolyFp":
        if self.is_zero():
            return self
        return PolyFp._make(self.p, _monic_coeffs(self))

    def gcd(self, other: "PolyFp") -> "PolyFp":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "PolyFp":
        p = self.p
        return PolyFp._make(p, _trim([i * c % p for i, c in enumerate(self.coeffs) if i]))

    def evaluate(self, x0: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x0 + c) % self.p
        return acc

    def reverse(self) -> "PolyFp":
        """x^deg * f(1/x): the coefficient list reversed."""
        return PolyFp._make(self.p, _trim(list(reversed(self.coeffs))))

    def pow_mod(self, e: int, modulus: "PolyFp") -> "PolyFp":
        if e < 0:
            return fq_inv(self.pow_mod(-e, modulus), modulus)
        self._check(modulus)
        if modulus.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if e == 0:
            return PolyFp._make(self.p, (1,))
        return PolyFp._make(self.p, _pow_mod(self.coeffs, e, _monic_coeffs(modulus), self.p))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return " + ".join(parts)

    def sort_key(self) -> tuple:
        return (self.degree, self.coeffs[::-1])


# -- residue field F_p[x]/(pi) ----------------------------------------------


def fq_inv(a: PolyFp, pi: PolyFp) -> PolyFp:
    """Inverse of a modulo pi via the extended Euclidean algorithm."""
    a = a % pi
    if a.is_zero():
        raise ZeroDivisionError("inverse of 0 in residue field")
    p = a.p
    r0, r1 = pi, a
    s0, s1 = PolyFp(p, ()), PolyFp.constant(p, 1)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    # r0 is a nonzero constant gcd
    return s0.scale(pow(r0.constant_value(), -1, p)) % pi


def is_square_fq(r: PolyFp, pi: PolyFp) -> bool:
    """Is r a square in the residue field F_p[x]/(pi)?  Euler criterion
    r^((q-1)/2) = 1 with q = p^deg(pi); odd p only."""
    p = r.p
    if p == 2:
        raise UnsupportedFieldError("square test in characteristic 2 is out of scope")
    if not pi.is_monic() or not is_irreducible_fp(pi):
        raise ValueError("modulus must be a monic irreducible polynomial")
    if (r % pi).is_zero():
        raise ZeroValuationError("square test of 0 in the residue field")
    q = p**pi.degree
    return r.pow_mod((q - 1) // 2, pi) == PolyFp.constant(p, 1)


def residue_class_is_nth_power(r: PolyFp, pi: PolyFp, n: int) -> bool:
    """Is r an n-th power in F_q^x, q = p^deg(pi)?

    The n-th power subgroup has index g = gcd(n, q-1), so the test is
    r^((q-1)/g) = 1; this also handles g < n correctly (the class group
    F_q^x / (F_q^x)^n is cyclic of order g).
    """
    p = r.p
    if (r % pi).is_zero():
        raise ZeroValuationError("power-class test of 0 in the residue field")
    q = p**pi.degree
    g = int_gcd(n, q - 1)
    return r.pow_mod((q - 1) // g, pi) == PolyFp.constant(p, 1)


# -- factorization over F_p ---------------------------------------------------


def _squarefree_decomposition(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """Monic squarefree decomposition [(g_i, m_i)] with f = prod g_i^{m_i},
    correct in characteristic p (handles f' = 0 via the Frobenius identity
    a^p = a on F_p)."""
    p = f.p
    out: list[tuple[PolyFp, int]] = []

    def rec(g: PolyFp, mult: int) -> None:
        if g.is_constant():
            return
        d = g.derivative()
        if d.is_zero():
            # g(x) = h(x^p) = h1(x)^p with h1 the p-th-root coefficient poly
            root = PolyFp(p, tuple(g.coeffs[::p]))
            rec(root, mult * p)
            return
        c = g.gcd(d)
        w = g // c
        i = 1
        while not w.is_constant():
            y = w.gcd(c)
            z = w // y
            if not z.is_constant():
                out.append((z.monic(), mult * i))
            w = y
            c = c // y
            i += 1
        if not c.is_constant():
            rec(c, mult)

    rec(f.monic(), 1)
    return out


def _distinct_degree(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """Split a monic squarefree f into [(product of irreducibles of degree d, d)]."""
    p = f.p
    out = []
    x = PolyFp.x(p)
    h = x
    g = f
    d = 0
    while g.degree > 2 * (d + 1) - 1 and not g.is_constant():
        d += 1
        h = h.pow_mod(p, g)
        factor_d = g.gcd(h - x)
        if not factor_d.is_constant():
            out.append((factor_d, d))
            g = g // factor_d
            h = h % g
    if not g.is_constant():
        out.append((g, g.degree))
    return out


def _equal_degree_split(f: PolyFp, d: int, rng: random.Random) -> list[PolyFp]:
    """Cantor-Zassenhaus: split a monic squarefree product of irreducibles of
    equal degree d into the irreducibles."""
    p = f.p
    if f.degree == d:
        return [f]
    one = PolyFp.constant(p, 1)
    while True:
        r = PolyFp(p, tuple(rng.randrange(p) for _ in range(f.degree)))
        if r.is_constant():
            continue
        if p == 2:
            # trace map sum r^(2^i) over the degree-d subfield
            t = r % f
            acc = t
            for _ in range(d - 1):
                t = t * t % f
                acc = (acc + t) % f
            g = f.gcd(acc)
        else:
            g = f.gcd(r)
            if g.is_constant():
                e = (p**d - 1) // 2
                g = f.gcd(r.pow_mod(e, f) - one)
        if not g.is_constant() and g.degree < f.degree:
            return _equal_degree_split(g, d, rng) + _equal_degree_split(
                f // g, d, rng
            )


def poly_factor_fp(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """Factor a nonzero polynomial over F_p into monic irreducibles.

    Returns [(monic irreducible, multiplicity)] sorted by (degree, coeffs);
    the product times f's leading coefficient reconstructs f.
    """
    if f.is_zero():
        raise ZeroValuationError("cannot factor the zero polynomial")
    if f.is_constant():
        return []
    # seeded per input so results are reproducible run to run
    rng = random.Random(("gfpoly", f.p, f.coeffs).__repr__())
    out: list[tuple[PolyFp, int]] = []
    for g, mult in _squarefree_decomposition(f):
        for prod, d in _distinct_degree(g):
            for irr in _equal_degree_split(prod, d, rng):
                out.append((irr.monic(), mult))
    out.sort(key=lambda t: t[0].sort_key())
    return out


def is_irreducible_fp(f: PolyFp) -> bool:
    """Ben-Or's irreducibility test for a nonconstant polynomial over F_p.

    A reducible f of degree n has an irreducible factor of some degree
    i <= n/2, which divides x^(p^i) - x; so f is irreducible exactly when
    gcd(x^(p^i) - x, f) = 1 for i = 1 .. n/2. The test stops at the first
    nontrivial gcd.
    """
    if f.degree < 1:
        return False
    if f.degree == 1:
        return True
    p = f.p
    m = _monic_coeffs(f)
    h = [0, 1]
    for _ in range(f.degree // 2):
        h = _pow_mod(h, p, m, p)
        if not f.gcd(PolyFp._make(p, _add_mod(h, [0, 1], p, -1))).is_constant():
            return False
    return True


def monic_polys(p: int, degree: int):
    """Yield all monic polynomials of the given degree over F_p."""
    if degree == 0:
        yield PolyFp.constant(p, 1)
        return
    counters = [0] * degree
    while True:
        yield PolyFp(p, tuple(counters) + (1,))
        i = 0
        while i < degree:
            counters[i] += 1
            if counters[i] < p:
                break
            counters[i] = 0
            i += 1
        else:
            return


def irreducible_monics(p: int, max_degree: int) -> list[PolyFp]:
    """All monic irreducible polynomials over F_p of degree 1..max_degree."""
    out = []
    for d in range(1, max_degree + 1):
        for f in monic_polys(p, d):
            if is_irreducible_fp(f):
                out.append(f)
    return out
