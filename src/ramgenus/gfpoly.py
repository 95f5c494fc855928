"""Polynomial arithmetic over F_p, factorization, and residue-field tests.

Polynomials are stored as tuples of coefficients in ascending degree order
with the zero polynomial represented by the empty tuple. All values are
immutable; every operation returns a fresh polynomial.

Internal arithmetic runs on plain lists of ints (``_mul``, ``_mul_mod``,
``_add_mod``, ``_divmod_monic``, the monic ``_gcd``, the inverse
``_inv_mod``; ``qpoly``'s Hensel lifting and its set-up share them), reduced
once per product. Only the public constructors (``PolyFp(...)``, ``of``,
``constant``, ``x``) check p and reduce coefficients; ring operations build
their results with the trusted ``PolyFp._make``.

``PolyFp`` and ``qpoly.PolyQ`` share the base ``_Poly`` (structure, ``monic``,
``pow_mod``, printing) and ``fq_inv``, the inverse in k[x]/(pi); each has
its own gcd, and PolyFp overrides what the int-list kernel runs faster.

``poly_factor_fp`` runs all three stages on int lists and builds a PolyFp
only for each irreducible it returns. Per squarefree part it builds one
Frobenius table of x^(i p) mod f (``_frobenius``), which the distinct-degree
and the equal-degree stage both apply.

Power-class tests in F_p[x]/(pi) reduce to F_p through the norm, a resultant
by Euclid (``_norm``), whenever the class-group order divides p - 1; every
n = 2 test does. For odd p, ``is_irreducible_fp`` rejects most reducible
polynomials by the Legendre symbol of the discriminant (Stickelberger)
before Ben-Or's test.
"""

from __future__ import annotations

import random
from math import gcd as int_gcd
from operator import mul

from ._value import Value
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


def _monic(a, p: int) -> list[int]:
    """a scaled to be monic mod p; a nonzero and reduced."""
    if a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b mod p (empty when both are)."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod_monic(a, b, p)[1]
    return _monic(a, p) if a else a


def _inv_mod(a, f: list[int], p: int) -> list[int]:
    """a^(-1) mod (f, p) for a monic f and an a prime to f, by the extended
    Euclidean algorithm; s * a = r mod f holds for every remainder r."""
    r0, r1 = f, _divmod_monic(a, f, p)[1]
    s0, s1 = [], [1]
    while len(r1) > 1:
        inv = pow(r1[-1], -1, p)
        q, r = _divmod_monic(r0, [c * inv % p for c in r1], p)
        r0, r1 = r1, r
        s0, s1 = s1, _add_mod(s0, _mul([c * inv for c in q], s1), p, -1)
    if not r1:
        raise ZeroDivisionError("inverse of 0 in residue field")
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


def _norm(f: list[int], g, p: int) -> int:
    """The product of g over the roots of a monic f, mod p: the resultant
    Res(f, g), by Euclid in O(deg f * deg g) (Cohen, section 3.3). Each step
    uses Res(f, g) = Res(f, g mod f) and, for r = g mod f of degree k with
    leading coefficient c, Res(f, r) = (-1)^(deg f * k) c^(deg f) Res(r/c, f)."""
    out = 1
    while len(f) > 1:
        r = _divmod_monic(g, f, p)[1]
        if not r:
            return 0
        m, k, c = len(f) - 1, len(r) - 1, r[-1]
        out = out * pow(c, m, p) % p
        if m * k % 2:
            out = -out % p
        inv = pow(c, -1, p)
        f, g = [x * inv % p for x in r], f
    return out


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


class _Poly(Value):
    """What a dense polynomial over a field k does independently of k:
    ``coeffs`` ascending with trailing zeros stripped, structure, ``monic``,
    ``pow_mod`` and printing. A subclass supplies ``gcd``, ``_like(coeffs)``
    (a polynomial over the same field) and ``_inv(c)`` (a scalar inverse)."""

    __slots__ = ()

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

    def leading(self):
        if not self.coeffs:
            raise ZeroValuationError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self._inv(self.leading()))

    def pow_mod(self, e: int, modulus):
        """self^e in k[x]/(modulus), left to right; for e < 0 the inverse of
        self^(-e)."""
        if e < 0:
            return fq_inv(self.pow_mod(-e, modulus), modulus)
        if modulus.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if e == 0:
            return self._like((1,))
        base = self % modulus
        out = base
        for bit in bin(e)[3:]:
            out = out * out % modulus
            if bit == "1":
                out = out * base % modulus
        return out

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
                continue
            coeff = {1: "", -1: "-"}.get(c, f"{c}*")
            parts.append(coeff + ("x" if i == 1 else f"x^{i}"))
        return " + ".join(parts).replace("+ -", "- ")

    def sort_key(self) -> tuple:
        return (self.degree, self.coeffs[::-1])


class PolyFp(_Poly):
    """A polynomial over F_p: coefficients ascending, trailing zeros stripped."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple[int, ...]):
        _check_char(p)
        cs = tuple(c % p for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def _make(cls, p: int, coeffs) -> "PolyFp":
        """Trusted constructor for kernel results: p is a known prime and the
        coefficients are already reduced into [0, p) and trimmed."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "p", p)
        object.__setattr__(poly, "coeffs", tuple(coeffs))
        return poly

    def _like(self, coeffs) -> "PolyFp":
        return PolyFp._make(self.p, coeffs)

    def _inv(self, c: int) -> int:
        return pow(c, -1, self.p)

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
        q, r = _divmod_monic(self.coeffs, _monic(other.coeffs, p), p)
        if lead != 1:
            inv = pow(lead, -1, p)
            q = [c * inv % p for c in q]
        return PolyFp._make(p, q), PolyFp._make(p, r)

    def gcd(self, other: "PolyFp") -> "PolyFp":
        self._check(other)
        return PolyFp._make(self.p, _gcd(self.coeffs, other.coeffs, self.p))

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
        p = self.p
        return PolyFp._make(p, _pow_mod(self.coeffs, e, _monic(modulus.coeffs, p), p))


# -- residue field k[x]/(pi) ---------------------------------------------------


def fq_inv(a: _Poly, pi: _Poly) -> _Poly:
    """Inverse of a modulo pi via the extended Euclidean algorithm, for
    polynomials over F_p (on int lists) or Q."""
    if isinstance(a, PolyFp):
        a._check(pi)
        return PolyFp._make(a.p, _inv_mod(a.coeffs, _monic(pi.coeffs, a.p), a.p))
    a = a % pi
    if a.is_zero():
        raise ZeroDivisionError("inverse of 0 in residue field")
    r0, r1 = pi, a
    s0, s1 = a._like(()), a._like((1,))
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    # r0 is a nonzero constant gcd
    return s0.scale(a._inv(r0.constant_value())) % pi


def is_square_fq(r: PolyFp, pi: PolyFp) -> bool:
    """Is r a square in the residue field F_p[x]/(pi)?  Euler criterion
    r^((q-1)/2) = 1 with q = p^deg(pi), which is N(r)^((p-1)/2) = 1 for
    the norm N(r) in F_p (see ``residue_class_is_nth_power``); odd p only."""
    p = r.p
    if p == 2:
        raise UnsupportedFieldError("square test in characteristic 2 is out of scope")
    if not pi.is_monic() or not is_irreducible_fp(pi):
        raise ValueError("modulus must be a monic irreducible polynomial")
    if (r % pi).is_zero():
        raise ZeroValuationError("square test of 0 in the residue field")
    return residue_class_is_nth_power(r, pi, 2)


def residue_class_is_nth_power(r: PolyFp, pi: PolyFp, n: int) -> bool:
    """Is r an n-th power in F_q^x, q = p^deg(pi), for an irreducible pi?

    The n-th power subgroup has index g = gcd(n, q-1), so the test is
    r^((q-1)/g) = 1; this also handles g < n correctly (the class group
    F_q^x / (F_q^x)^n is cyclic of order g). When g divides p-1 (every
    n = 2 test with p odd), (q-1)/g = (1 + p + ... + p^(d-1)) (p-1)/g and
    r^(1 + p + ... + p^(d-1)) is the norm N(r) in F_p, the product of r over
    the roots of pi; so the test is N(r)^((p-1)/g) = 1 in F_p.
    """
    p, m = r.p, _monic(pi.coeffs, r.p)
    r = _divmod_monic(r.coeffs, m, p)[1]
    if not r:
        raise ZeroValuationError("power-class test of 0 in the residue field")
    q = p**pi.degree
    g = int_gcd(n, q - 1)
    if (p - 1) % g == 0:
        return pow(_norm(m, r, p), (p - 1) // g, p) == 1
    return _pow_mod(r, (q - 1) // g, m, p) == [1]


# -- factorization over F_p ---------------------------------------------------


def _squarefree_decomposition(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Monic squarefree decomposition [(g_i, m_i)] of a monic f, with
    f = prod g_i^{m_i}, correct in characteristic p (handles f' = 0 via the
    Frobenius identity a^p = a on F_p)."""
    out: list[tuple[list[int], int]] = []

    def rec(g: list[int], mult: int) -> None:
        if len(g) < 2:
            return
        d = _trim([i * c % p for i, c in enumerate(g) if i])
        if not d:
            # g(x) = h(x^p) = h(x)^p, and h is monic
            rec(g[::p], mult * p)
            return
        c = _gcd(g, d, p)
        w = _divmod_monic(g, c, p)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(w, c, p)
            z = _divmod_monic(w, y, p)[0]
            if len(z) > 1:
                out.append((z, mult * i))
            w = y
            c = _divmod_monic(c, y, p)[0]
            i += 1
        rec(c, mult)

    rec(f, 1)
    return out


def _frobenius(f: list[int], p: int):
    """h -> h^p mod f, for a monic f of degree n >= 2 and deg h < n: Frobenius
    is F_p-linear, so it is applied from the table x^(i p) mod f, i < n (von
    zur Gathen-Gerhard, ch. 14), built from one power by p and n - 2
    products. One more remainder gives h^p modulo a divisor of f."""
    n = len(f) - 1
    rows = [[1], _pow_mod([0, 1], p, f, p)]
    for _ in range(n - 2):
        rows.append(_divmod_monic(_mul(rows[-1], rows[1]), f, p)[1])
    cols = list(zip(*(row + [0] * (n - len(row)) for row in rows)))
    return lambda h: _trim([sum(map(mul, h, col)) % p for col in cols])


def _distinct_degree(f: list[int], frob, p: int) -> list[tuple[list[int], int]]:
    """Split a monic squarefree f into [(product of irreducibles of degree d, d)],
    with ``frob`` the Frobenius of F_p[x]/(f)."""
    out = []
    h, g, d = [0, 1], f, 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = frob(h)  # x^(p^d) mod f
        part = _gcd(g, _add_mod(h, [0, 1], p, -1), p)
        if len(part) > 1:
            out.append((part, d))
            g = _divmod_monic(g, part, p)[0]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree_split(f: list[int], d: int, frob, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus: split a monic squarefree product of irreducibles of
    equal degree d into the irreducibles, ``frob`` the Frobenius modulo a
    multiple of f. For random r, d - 1 Frobenius steps give the trace
    r + r^2 + ... + r^(2^(d-1)) (p = 2) or the norm r^(1 + p + ... + p^(d-1))
    (odd p), whose power by (p - 1)/2 is r^((p^d - 1)/2); modulo each factor
    either lies in F_p, so its gcd with f (less 1 for odd p) often splits f."""
    if len(f) - 1 == d:
        return [f]
    while True:
        r = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(r) < 2:
            continue
        t = acc = r
        for _ in range(d - 1):
            t = _divmod_monic(frob(t), f, p)[1]
            acc = _add_mod(acc, t, p) if p == 2 else _divmod_monic(_mul(acc, t), f, p)[1]
        if p != 2:
            acc = _add_mod(_pow_mod(acc, (p - 1) // 2, f, p), [1], p, -1)
        g = _gcd(f, acc, p)
        if 1 < len(g) < len(f):
            return _equal_degree_split(g, d, frob, p, rng) + _equal_degree_split(
                _divmod_monic(f, g, p)[0], d, frob, p, rng
            )


def poly_factor_fp(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """Factor a nonzero polynomial over F_p into monic irreducibles.

    Returns [(monic irreducible, multiplicity)] sorted by (degree, coeffs);
    the product times f's leading coefficient reconstructs f. All three
    stages run on int lists; a PolyFp is built for each irreducible only.
    """
    if f.is_zero():
        raise ZeroValuationError("cannot factor the zero polynomial")
    if f.is_constant():
        return []
    p = f.p
    # seeded per input so results are reproducible run to run
    rng = random.Random(("gfpoly", p, f.coeffs).__repr__())
    out: list[tuple[PolyFp, int]] = []
    for g, mult in _squarefree_decomposition(_monic(f.coeffs, p), p):
        frob = _frobenius(g, p) if len(g) > 2 else None  # a linear g needs none
        for prod, d in _distinct_degree(g, frob, p):
            out += [(PolyFp._make(p, u), mult) for u in _equal_degree_split(prod, d, frob, p, rng)]
    out.sort(key=lambda t: t[0].sort_key())
    return out


def is_irreducible_fp(f: PolyFp) -> bool:
    """Ben-Or's irreducibility test for a nonconstant polynomial over F_p,
    behind a discriminant pre-filter for odd p.

    Stickelberger (Swan 1962): a squarefree f of degree n over F_p, p odd,
    with r irreducible factors has (disc f / p) = (-1)^(n - r). So an
    irreducible f has a nonzero discriminant whose Legendre symbol is
    (-1)^(n-1); any other f is rejected after one resultant,
    disc f = (-1)^(n(n-1)/2) Res(f, f') for monic f. The filter only
    rejects. What it lets through goes to Ben-Or: a reducible f of degree n
    has an irreducible factor of some degree i <= n/2, which divides
    x^(p^i) - x; so f is irreducible exactly when gcd(x^(p^i) - x, f) = 1
    for i = 1 .. n/2. The test stops at the first nontrivial gcd.
    """
    n = f.degree
    if n < 1:
        return False
    if n == 1:
        return True
    p = f.p
    m = _monic(f.coeffs, p)
    if p != 2:
        disc = _norm(m, [i * c for i, c in enumerate(m) if i], p)
        if n * (n - 1) // 2 % 2:
            disc = -disc % p
        if disc == 0 or pow(disc, (p - 1) // 2, p) != (1 if n % 2 else p - 1):
            return False
    h = [0, 1]
    for _ in range(n // 2):
        h = _pow_mod(h, p, m, p)
        if len(_gcd(m, _add_mod(h, [0, 1], p, -1), p)) > 1:
            return False
    return True
