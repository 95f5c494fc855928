"""Polynomial arithmetic over F_p, factorization, and residue-field tests.

Polynomials are stored as tuples of coefficients in ascending degree order
with the zero polynomial represented by the empty tuple. All values are
immutable; every operation returns a fresh polynomial.

Internal arithmetic runs on plain lists of ints (``_mul``, ``_mul_mod``,
``_add_mod``, ``_divmod_monic``, the monic ``_gcd``, the inverse
``_inv_mod``; ``qpoly``'s products, Hensel lifting and inverse share them),
reduced once per product. Repeated products modulo one monic f and prime p
(``_product_mod``: powers, the Frobenius table, norms, tame residues) pack
each list into one int at 64 bits per coefficient, multiply once and reduce
word by word, whenever 2 deg(f) p^2 < 2^64, the word bound; past it they are
``_divmod_monic(_mul(u, v), f, p)``. Only the public constructors
(``PolyFp(...)``, ``of``, ``constant``, ``x``) check p and reduce
coefficients; ring operations build their results with the trusted
``PolyFp._make`` (over ``Value._new``).

``PolyFp`` and ``qpoly.PolyQ`` share the base ``_Poly``, every operation that
does not depend on the ring, and ``fq_inv``, the inverse in k[x]/(pi). Each
runs its ring kernels, gcd and inverse on ints, PolyFp on residues mod p and
PolyQ on its stored integer model. Every power, over F_p, Q and k(x), is
the one square-and-multiply ``_power``.

``poly_factor_fp`` takes ``qpoly.factor_q``'s route on int lists and builds
a PolyFp only for each irreducible it returns. Per squarefree part one
Frobenius table of x^(i p) mod f (``_frobenius``) serves the distinct-degree
stage, which alone decides ``is_irreducible_fp`` (``_squarefree_ddf``), and
the equal-degree stage.

Power-class tests in F_p[x]/(pi) reduce to F_p through the norm, a resultant
by Euclid (``_norm``), whenever the class-group order divides p - 1; every
n = 2 test does.
"""

from __future__ import annotations

import random
from functools import cache
from math import gcd as int_gcd
from operator import mul
from struct import Struct

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


def _derivative(a, p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(a) if i])


def _power(base, e: int, mul):
    """base^e for e >= 1 under the product mul, left to right: every step
    squares, then multiplies by base when the exponent bit is set, so no
    squaring follows the last bit."""
    out = base
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, base)
    return out


# -- word-packed products ------------------------------------------------------
#
# A reduced polynomial packs into one int at 64 bits per coefficient, so one
# bignum product replaces the double loop of ``_mul`` (Kronecker substitution;
# von zur Gathen-Gerhard, section 8.4). Modulo a monic f of degree n and m,
# a word of such a product sums at most n terms below m^2, the reduction in
# ``_product_mod`` adds at most n more, and a Frobenius row sum has n terms:
# no word reaches 2 n m^2, so below 2^64, the word bound, none carries.

_WORD = (1 << 64) - 1


def _fits_words(n: int, m: int) -> bool:
    """The word bound for products modulo a degree-n polynomial and m."""
    return 2 * n * m * m < 1 << 64


@cache
def _words(k: int) -> Struct:
    return Struct(f"<{k}Q")


def _pack(a) -> int:
    return int.from_bytes(_words(len(a)).pack(*a), "little")


def _unpack(w: int, n: int, m: int) -> list[int]:
    """The low n words of w, each reduced mod m."""
    return _trim([c % m for c in _words(n).unpack(w.to_bytes(8 * n, "little"))])


def _product_mod(f: list[int], m: int):
    """(u, v) -> u v mod (f, m) for a monic f and reduced u, v. Within the word
    bound the packed product is reduced from its top word k = deg(u v) down
    to n = deg f: word k stands for c x^k, c its value mod m, and
    x^k = x^(k-n) g modulo f for g = x^n - f, so c x^(k-n) g, g packed with
    entries in [0, m), is added below it; the words from n up are dropped at
    the end, and no word goes negative. Past the bound, ``_divmod_monic``."""
    n = len(f) - 1
    if not _fits_words(n, m):
        return lambda u, v: _divmod_monic(_mul(u, v), f, m)[1]
    g, low = _pack([-c % m for c in f[:-1]]), (1 << 64 * n) - 1

    def product(u, v):
        if not u or not v:
            return []
        w = _pack(u)
        w *= w if u is v else _pack(v)
        for k in range(len(u) + len(v) - 2, n - 1, -1):
            c = (w >> 64 * k & _WORD) % m
            if c:
                w += c * g << 64 * (k - n)
        return _unpack(w & low, n, m)

    return product


def _pow_mod(a, e: int, f: list[int], p: int) -> list[int]:
    """a^e mod (f, p) for e >= 1 and a monic f."""
    return _power(_divmod_monic(a, f, p)[1], e, _product_mod(f, p))


def _norm_power(r: list[int], d: int, frob, f: list[int], p: int) -> list[int]:
    """r^((p^d - 1)/2) mod (f, p) for odd p and a reduced r: the norm
    r^(1 + p + ... + p^(d-1)) by d - 1 steps of ``frob``, the Frobenius
    modulo a multiple of f, raised to (p - 1)/2."""
    product = _product_mod(f, p)
    t = norm = r
    for _ in range(d - 1):
        t = _divmod_monic(frob(t), f, p)[1]
        norm = product(norm, t)
    return _power(norm, (p - 1) // 2, product)


class _Poly(Value):
    """A dense polynomial over a field k, ``coeffs`` ascending without trailing
    zeros, and all it does independently of k: structure, negation,
    subtraction, ``reverse``, ``monic``, ``pow_mod`` and printing. A subclass
    supplies the ring kernels ``__add__``, ``__mul__``, ``scale``,
    ``__divmod__``, ``gcd``, ``_inverse``, ``_like(coeffs)`` and ``_inv(c)``."""

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

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self._inv(self.leading()))

    def reverse(self):
        """x^deg * f(1/x): the coefficient list reversed."""
        return self._like(_trim(list(self.coeffs[::-1])))

    def pow_mod(self, e: int, modulus):
        """self^e in k[x]/(modulus), left to right; for e < 0 the inverse of
        self^(-e). The first remainder refuses a zero modulus, and over F_p
        one of another characteristic; k[x]/(c) is 0 for a constant c."""
        if e < 0:
            return self.pow_mod(-e, modulus)._inverse(modulus)
        base = self % modulus
        return base._power_mod(e, modulus) if e else self._like((1,)) % modulus

    def _power_mod(self, e: int, modulus):
        """self^e mod modulus for e >= 1 and a reduced self, by ring products
        and remainders; a ring with a faster kernel overrides it."""
        return _power(self, e, lambda u, v: u * v % modulus)

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
        self._set(p, tuple(_trim([c % p for c in coeffs])))

    @classmethod
    def _make(cls, p: int, coeffs) -> "PolyFp":
        """Trusted constructor for kernel results: p is a known prime and the
        coefficients are already reduced into [0, p) and trimmed."""
        return cls._new(p, tuple(coeffs))

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

    def _inverse(self, modulus: "PolyFp") -> "PolyFp":
        self._check(modulus)
        p = self.p
        return PolyFp._make(p, _inv_mod(self.coeffs, _monic(modulus.coeffs, p), p))

    def derivative(self) -> "PolyFp":
        return PolyFp._make(self.p, _derivative(self.coeffs, self.p))

    def evaluate(self, x0: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x0 + c) % self.p
        return acc

    def _power_mod(self, e: int, modulus: "PolyFp") -> "PolyFp":
        """The power on int lists, modulo the monic associate of modulus."""
        p = self.p
        return PolyFp._make(p, _pow_mod(self.coeffs, e, _monic(modulus.coeffs, p), p))

    pow_mod = _Poly.pow_mod  # bench/spans.py wraps PolyFp.__dict__["pow_mod"]


# -- residue field k[x]/(pi) ---------------------------------------------------


def fq_inv(a: _Poly, pi: _Poly) -> _Poly:
    """Inverse of a modulo pi: over F_p by the extended Euclidean algorithm
    on int lists, over Q on the monic integer model (``qpoly._inv_z``)."""
    return a._inverse(pi)


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


def _frobenius(f: list[int], p: int):
    """h -> h^p mod f, for a monic f of degree n >= 2 and deg h < n: Frobenius
    is F_p-linear, so it is applied from the table x^(i p) mod f, i < n (von
    zur Gathen-Gerhard, ch. 14), built from one power by p and n - 2
    products; within the word bound as one sum of packed rows h_i x^(i p).
    One more remainder gives h^p modulo a divisor of f."""
    n = len(f) - 1
    product = _product_mod(f, p)
    rows = [[1], _power([0, 1], p, product)]
    for _ in range(n - 2):
        rows.append(product(rows[-1], rows[1]))
    if _fits_words(n, p):
        packed = [_pack(row) for row in rows]
        return lambda h: _unpack(sum(map(mul, h, packed)), n, p)
    cols = list(zip(*(row + [0] * (n - len(row)) for row in rows)))
    return lambda h: _trim([sum(map(mul, h, col)) % p for col in cols])


def _distinct_degree(f: list[int], p: int):
    """(frob, [(product of the irreducibles of degree d, d)]) for a monic
    squarefree f, with ``frob`` the Frobenius of F_p[x]/(f); f of degree
    below 2 needs none (None), and a constant f has no parts."""
    frob = _frobenius(f, p) if len(f) > 2 else None
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
    return frob, out


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
        if p == 2:
            t = acc = r
            for _ in range(d - 1):
                t = _divmod_monic(frob(t), f, p)[1]
                acc = _add_mod(acc, t, p)
        else:
            acc = _add_mod(_norm_power(r, d, frob, f, p), [1], p, -1)
        g = _gcd(f, acc, p)
        if 1 < len(g) < len(f):
            return _equal_degree_split(g, d, frob, p, rng) + _equal_degree_split(
                _divmod_monic(f, g, p)[0], d, frob, p, rng
            )


def poly_factor_fp(f: PolyFp) -> list[tuple[PolyFp, int]]:
    """Factor a nonzero polynomial over F_p into monic irreducibles.

    Returns [(monic irreducible, multiplicity)] sorted by (degree, coeffs);
    the product times f's leading coefficient reconstructs f. As in
    ``factor_q``, the squarefree part rest / g, g = gcd(rest, rest'), is
    factored, and each irreducible's multiplicity is one more than the
    number of times it divides g. What is left of g is then h(x^p) = h^p,
    and its root h goes round again with the multiplicities multiplied by p.
    """
    if f.is_zero():
        raise ZeroValuationError("cannot factor the zero polynomial")
    if f.is_constant():
        return []
    p = f.p
    # seeded per input so results are reproducible run to run
    rng = random.Random(("gfpoly", p, f.coeffs).__repr__())
    out: list[tuple[PolyFp, int]] = []
    rest, scale = _monic(f.coeffs, p), 1
    while len(rest) > 1:
        g = _gcd(rest, _derivative(rest, p), p)
        frob, parts = _distinct_degree(_divmod_monic(rest, g, p)[0], p)
        for prod, d in parts:
            for u in _equal_degree_split(prod, d, frob, p, rng):
                mult, (q, r) = scale, _divmod_monic(g, u, p)
                while not r:
                    g, mult, (q, r) = q, mult + scale, _divmod_monic(q, u, p)
                out.append((PolyFp._make(p, u), mult))
        rest, scale = g[::p], scale * p
    out.sort(key=lambda t: t[0].sort_key())
    return out


def _squarefree_ddf(f, p: int):
    """(frob, [(product of the irreducibles of degree d, d)]) for f mod p,
    f an integer polynomial whose leading coefficient p does not divide, or
    None when f is not squarefree mod p: the distinct-degree stage alone,
    no splitting; ``frob`` is the Frobenius modulo f (None for a linear f)."""
    m = _monic([c % p for c in f], p)
    if len(_gcd(m, _derivative(m, p), p)) > 1:
        return None
    return _distinct_degree(m, p)


def is_irreducible_fp(f: PolyFp) -> bool:
    """Is a nonconstant f irreducible over F_p?  Decided by the first stage
    of ``poly_factor_fp``, as ``is_irreducible_q`` reads ``factor_q``: f is
    irreducible exactly when it is squarefree and its distinct-degree
    factorization is one part of degree deg f."""
    if f.degree < 1:
        return False
    ddf = _squarefree_ddf(f.coeffs, f.p)
    return ddf is not None and ddf[1][0][1] == f.degree
