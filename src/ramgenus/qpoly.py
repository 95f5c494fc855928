"""Polynomial arithmetic over Q, with exact factorization into irreducibles.

``PolyQ`` keeps its Fraction coefficients beside its integer model, a content
times a primitive integer polynomial, and runs every ring operation on that
model: sums over a common denominator, products of the primitive parts
(primitive by Gauss's lemma), division by the one pseudo-division in Z[x]
(``_pdivmod``); results are built by the trusted ``PolyQ._make`` (over
``Value._new``). What does not depend on the ring (structure, negation,
subtraction, ``reverse``, ``monic``, ``pow_mod``, printing) comes from
``gfpoly._Poly``, shared with PolyFp. The gcd settles coprime pairs modulo one
prime and runs a primitive remainder sequence otherwise (``_gcd_z``), the
resultant is the subresultant algorithm (``_resultant_z``), and factorization
follows Zassenhaus (1969; von zur Gathen-Gerhard, Modern Computer Algebra,
ch. 15): the squarefree part f / gcd(f, f'), factor degrees modulo up to three
small primes by distinct-degree factorization, equal-degree splitting of those
parts modulo one of them, lifting past a Mignotte bound (Newton's iteration
for the roots, quadratic Hensel lifting for the other factors), and
recombination of lifted factors checked by exact division.

A residue field K = Q[x]/(pi) is worked in on its monic integer model
Z[theta]/(f), theta = lc(P) x for the primitive model P of pi: products are
exact remainders by the monic f, powers are ``gfpoly._power`` over those
products, and the inverse of b (``PolyQ._inverse``, or ``pow_mod(-1, pi)``) is
v / res with res = Res(f, b) and v integral, lifted p-adically past a
Hadamard bound (``_inv_z``). Squareness in K is decided by the norm,
a local sieve modulo a few primes and Trager's norm method, in that order
(``is_square_mod``). It is self-contained: no computer-algebra system is
imported.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, zip_longest
from math import comb, isqrt, lcm
from math import gcd as int_gcd
from operator import mul

from .errors import ZeroValuationError
from .exactarith import primes_after
from .gfpoly import (
    PolyFp, _add_mod, _check_char, _divmod, _equal_degree_split, _gcd, _inv_mod, _mul,
    _mul_mod, _norm_power, _Poly, _power, _rem, _squarefree_ddf, _trim,
)

class PolyQ(_Poly):
    """A polynomial over Q: ``coeffs`` Fractions ascending, normalized, and
    the derived ``_model``, its integer model, on which ring operations run."""

    __slots__ = ("coeffs", "_model")

    def __init__(self, coeffs: tuple[Fraction, ...]):
        cs = tuple(_trim([Fraction(c) for c in coeffs]))
        den = lcm(*(c.denominator for c in cs))
        ints = [c.numerator * (den // c.denominator) for c in cs]
        self._set(cs, _model_of(ints, Fraction(1, den)))

    @classmethod
    def _make(cls, ints, scale: Fraction) -> "PolyQ":
        """Trusted constructor for kernel results: scale * ints, for any int list."""
        content, prim = model = _model_of(_trim(list(ints)), scale)
        n, d = content.numerator, content.denominator
        return cls._new(tuple(Fraction(n * c, d) for c in prim), model)

    def _like(self, coeffs) -> "PolyQ":
        return PolyQ(tuple(coeffs))

    def _inv(self, c: Fraction) -> Fraction:
        return 1 / c

    def gcd(self, other: "PolyQ") -> "PolyQ":
        """The monic gcd, from the primitive gcd of the integer models."""
        self._check(other)
        g = _gcd_z(self._model[1], other._model[1])
        return PolyQ._make(g, Fraction(1, g[-1]) if g else Fraction(0))

    @classmethod
    def of(cls, coeffs) -> "PolyQ":
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, c) -> "PolyQ":
        return cls((Fraction(c),))

    @classmethod
    def x(cls) -> "PolyQ":
        return cls((Fraction(0), Fraction(1)))

    def constant_value(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        """The sum over the common denominator of the contents."""
        self._check(other)
        (ca, A), (cb, B) = self._model, other._model
        den = lcm(ca.denominator, cb.denominator)
        sa, sb = (c.numerator * (den // c.denominator) for c in (ca, cb))
        ints = [sa * a + sb * b for a, b in zip_longest(A, B, fillvalue=0)]
        return PolyQ._make(ints, Fraction(1, den))

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        self._check(other)
        (ca, A), (cb, B) = self._model, other._model
        return PolyQ._make(_mul(A, B), ca * cb)

    def scale(self, c) -> "PolyQ":
        return PolyQ._make(self._model[1], self._model[0] * Fraction(c))

    def __divmod__(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        (ca, A), (cb, B) = self._model, other._model
        q, r = _pdivmod(A, B)
        ca /= B[-1] ** max(len(A) - len(B) + 1, 0)  # ca A = ca (q B + r) / lc(B)^k
        return PolyQ._make(q, ca / cb), PolyQ._make(r, ca)

    def derivative(self) -> "PolyQ":
        return PolyQ._make([i * a for i, a in enumerate(self._model[1]) if i], self._model[0])

    def evaluate(self, x0) -> Fraction:
        x0 = Fraction(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def _inverse(self, modulus: "PolyQ") -> "PolyQ":
        """self^(-1) in Q[x]/(modulus), on the monic integer model."""
        if self.is_zero() or modulus.degree < 1:
            raise ZeroDivisionError("inverse of 0 in residue field")
        P, f = _monic_model(modulus)
        return _from_theta(*_power_product(f, P[-1], [(*self._model, -1)]), P[-1])

    def integer_model(self) -> tuple[Fraction, tuple[int, ...]]:
        """(content, primitive integer coefficients): f = content * primitive,
        the primitive part with positive leading coefficient; (0, ()) for 0."""
        return self._model

    def reduce_mod(self, p: int) -> PolyFp:
        """Reduction modulo a prime p; requires every denominator to be a p-unit."""
        _check_char(p)
        c, A = self._model
        if c.denominator % p == 0:  # the primitive part has a coefficient prime to p
            raise ZeroDivisionError(f"{self} is not p-integral at {p}")
        c = c.numerator * pow(c.denominator, -1, p)
        return PolyFp(p, tuple(c * a for a in A))


def _model_of(ints: list[int], scale: Fraction) -> tuple[Fraction, tuple[int, ...]]:
    """The integer model (content, primitive part) of scale * ints, ints trimmed."""
    if not ints or not scale:
        return Fraction(0), ()
    prim = _primitive(ints)
    return scale * (ints[-1] // prim[-1]), tuple(prim)


# -- gcd and factorization in Z[x] --------------------------------------------
#
# Integer polynomials below are lists of ints, ascending and without trailing
# zeros; "mod m" results are reduced into [0, m). The list kernel
# (``_mul``, ``_mul_mod``, ``_add_mod``, ``_divmod``, ``_inv_mod``) is
# gfpoly's, used here mod p and p^k.


def _primitive(a) -> list[int]:
    """a over its content, leading coefficient positive (empty if a is)."""
    g = int_gcd(*a)
    return [c // g for c in a] if a and a[-1] > 0 else [-c // g for c in a]


def _pdivmod(a, b) -> tuple[list[int], list[int]]:
    """(q, r) with lc(b)^k a = q b + r, deg r < deg b, k = max(deg a - deg b + 1, 0),
    for b != 0 in Z[x] (pseudo-division; Knuth, TAOCP vol. 2, 4.6.1): a is
    scaled by lc(b)^k first, so every step divides exactly."""
    db, lb, k = len(b) - 1, b[-1], len(a) - len(b) + 1
    if k <= 0:
        return [], list(a)
    s, q = lb**k, [0] * k
    rem = [c * s for c in a]
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] // lb
        if c:
            q[i - db] = c
            for j in range(db):
                rem[i - db + j] -= c * b[j]
    return q, _trim(rem[:db])


# The prime that settles coprime gcds (``_gcd_z``) and the first prime the
# p-adic inverse is lifted from (``_inv_z``).
_LIFT_PRIME = (1 << 31) - 1


def _gcd_z(a, b) -> list[int]:
    """The primitive part of gcd(a, b) in Z[x] (empty when both are).

    Coprime pairs are settled modulo ``_LIFT_PRIME`` = p first: when p divides
    neither leading coefficient, the gcd in Z[x] keeps its degree mod p and
    divides both there, so a constant gcd mod p proves a and b coprime. Any
    other pair runs the primitive remainder sequence (Knuth, TAOCP vol. 2,
    4.6.1): each remainder is the pseudo-remainder over its content, so no
    coefficient is a fraction or outgrows the subresultants."""
    if len(a) < len(b):
        a, b = b, a
    p = _LIFT_PRIME
    if len(b) > 1 and a[-1] % p and b[-1] % p:
        if len(_gcd([c % p for c in a], [c % p for c in b], p)) == 1:
            return [1]
    while len(b) > 1:
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return [1] if b else _primitive(a)


def _resultant_z(a, b) -> int:
    """Res(a, b) of integer polynomials (0 if either is zero), by the
    subresultant algorithm (Collins 1967; Cohen, Alg. 3.3.7): each
    pseudo-remainder is divided exactly by g h^delta, so the coefficients
    stay integers no larger than the subresultants."""
    if not a or not b:
        return 0
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -1
    if len(b) == 1:
        return s * b[0] ** (len(a) - 1)
    ca, cb = int_gcd(*a), int_gcd(*b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a, b = [c // ca for c in a], [c // cb for c in b]
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = _pdivmod(a, b)[1]
        if not r:
            return 0
        div = g * h**delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    da = len(a) - 1
    return s * t * (b[0] ** da // h ** (da - 1))


def _inv_z(b, f) -> tuple[list[int], int]:
    """(v, res) with v b = res mod f, res = Res(f, b), for a monic f and a
    reduced b prime to f; b^(-1) = v / res in Q[x]/(f).

    v = res b^(-1) mod f is integral: its coefficients are minors of the
    Sylvester matrix of f and b, at most ||f||^(deg b) ||b||^(deg f) by
    Hadamard. It is computed modulo p^(2^k) past twice that bound, from the
    inverse modulo a prime p not dividing res by Newton's iteration
    v <- v (2 - b v) (von zur Gathen-Gerhard, ch. 9), and read off as
    symmetric residues.
    """
    res = _resultant_z(f, b)
    if not res:
        raise ZeroDivisionError("inverse of 0 in residue field")
    if len(f) == 2:
        return [1], res
    bound = (isqrt(sum(c * c for c in f)) + 1) ** (len(b) - 1) * (
        isqrt(sum(c * c for c in b)) + 1
    ) ** (len(f) - 1)
    p = _LIFT_PRIME if res % _LIFT_PRIME else next(q for q in primes_after(_LIFT_PRIME) if res % q)
    v, m = _inv_mod(b, f, p), p
    while m <= 2 * bound:
        m *= m
        e = _add_mod([2], _rem(_mul(b, v), f, m), m, -1)
        v = _rem(_mul(v, e), f, m)
    return _trim([c - m if 2 * c > m else c for c in (res * c % m for c in v)]), res


def _exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g in Z[x], or None when g does not divide f there."""
    dg, lg = len(g) - 1, g[-1]
    rem = list(f)
    q = [0] * (len(f) - dg)
    for i in range(len(rem) - 1, dg - 1, -1):
        c, r = divmod(rem[i], lg)
        if r:
            return None
        if c:
            q[i - dg] = c
            for j, y in enumerate(g):
                rem[i - dg + j] -= c * y
    return None if any(rem[:dg]) else q


def _hensel_step(f, g, h, s, t, m: int):
    """One quadratic Hensel step (von zur Gathen-Gerhard, Alg. 15.10).

    From f = g h and s g + t h = 1 mod m, with h monic, deg s < deg h and
    deg t < deg g, return (g, h, s, t) satisfying the same mod m^2.
    """
    m2 = m * m
    e = _add_mod(f, _mul_mod(g, h, m2), m2, -1)
    q, r = _divmod(_mul_mod(s, e, m2), h, m2)
    g = _add_mod(_add_mod(g, _mul_mod(t, e, m2), m2), _mul_mod(q, g, m2), m2)
    h = _add_mod(h, r, m2)
    b = _add_mod(_add_mod(_mul_mod(s, g, m2), _mul_mod(t, h, m2), m2), [1], m2, -1)
    c, d = _divmod(_mul_mod(s, b, m2), h, m2)
    s = _add_mod(s, d, m2, -1)
    t = _add_mod(_add_mod(t, _mul_mod(t, b, m2), m2, -1), _mul_mod(c, g, m2), m2, -1)
    return g, h, s, t


def _hensel_lift(f: list[int], factors: list, p: int, modulus: int) -> list[list[int]]:
    """Lift f = lc(f) * prod(factors) mod p, the factors monic and pairwise
    coprime mod p, to monic factors mod ``modulus`` = p^(2^j), in their order.

    A linear factor x - r is a simple root r of the squarefree f mod p, lifted
    by Newton's iteration r <- r - f(r) / f'(r) mod p^(2^k); the others are
    lifted from f / prod (x - r) mod ``modulus``, lc(f) times their product.
    Two or more of those split into the products g (times lc(f)) and h of two
    halves, with s g + t h = 1 mod p from ``_inv_mod``; that split is lifted
    quadratically, and each half is lifted on in turn (the factor tree of von
    zur Gathen-Gerhard, Alg. 15.17, depth first). Hensel lifts are unique.
    """
    if len(factors) == 1:
        inv = pow(f[-1], -1, modulus)
        return [[c * inv % modulus for c in f]]
    if any(len(u) == 2 for u in factors):
        lin, rest = [], [u for u in factors if len(u) > 2]
        for r, m in [(-u[0] % p, p) for u in factors if len(u) == 2]:
            while m < modulus:
                m, v, d = m * m, 0, 0
                for c in reversed(f):
                    v, d = (v * r + c) % m, (d * r + v) % m
                r = (r - v * pow(d, -1, m)) % m
            lin.append([-r % modulus, 1])
        if rest:
            h = [1]
            for u in lin:
                h = _mul_mod(h, u, modulus)
            rest = _hensel_lift(_divmod(f, h, modulus)[0], rest, p, modulus)
        return [lin.pop(0) if len(u) == 2 else rest.pop(0) for u in factors]
    half = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for u in factors[:half]:
        g = _mul_mod(g, u, p)
    for u in factors[half:]:
        h = _mul_mod(h, u, p)
    s = _inv_mod(g, h, p)
    t = _divmod(_add_mod([1], _mul(s, g), p, -1), h, p)[0]
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, factors[:half], p, modulus) + _hensel_lift(
        h, factors[half:], p, modulus
    )


def _subset_degrees(degrees: list[int]) -> set[int]:
    sums = {0}
    for k in degrees:
        sums |= {s + k for s in sums}
    return sums


def _factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors in Z[x] of a primitive squarefree f with positive
    leading coefficient (Zassenhaus).

    The degrees of the factors of f are found modulo up to three primes p
    that do not divide lc(f) and keep f squarefree, by distinct-degree
    factorization alone (``gfpoly._squarefree_ddf``); a second and third
    prime are tried only while the primes seen so far leave more than one
    factor. A true factor's degree is a subset sum of the modular factor
    degrees at every prime, so when no proper degree is common to all of
    them f is irreducible. Otherwise, at the prime with the fewest factors,
    each distinct-degree part is split into irreducibles by Cantor-Zassenhaus
    (``gfpoly._equal_degree_split``, seeded per input), those are
    Hensel-lifted, and subsets of the lifted factors are recombined,
    smallest first.
    """
    n = len(f) - 1
    if n == 1:
        return [f]
    allowed = set(range(n + 1))
    tried = []
    for p in primes_after(2):
        if f[-1] % p == 0:
            continue
        ddf = _squarefree_ddf(f, p)
        if ddf is None:
            continue
        degrees = [d for g, d in ddf[1] for _ in range((len(g) - 1) // d)]
        allowed &= _subset_degrees(degrees)
        if len(allowed) == 2:  # only 0 and n
            return [f]
        tried.append((len(degrees), p, ddf))
        if len(tried) == 3:
            break
    _, p, (frob, parts) = min(tried, key=lambda t: t[0])
    # the seed poly_factor_fp takes for f mod p, so the splits are the ones it makes
    rng = random.Random(("gfpoly", p, tuple(c % p for c in f)).__repr__())
    factors = [u for g, d in parts for u in _equal_degree_split(g, d, frob, p, rng)]
    return _recombine(f, factors, p, allowed)


def _recombine(f: list[int], factors: list, p: int, allowed: set[int]) -> list[list[int]]:
    """Zassenhaus recombination with the leading-coefficient trick.

    Every factor g of f of degree k < deg f gives lc(f) g / lc(g), an integer
    polynomial whose j-th coefficient is at most C(k, j) M(f) in absolute
    value (Mignotte; M(f) <= ||f||_2 is the Mahler measure, and
    M(g) <= |lc(g) / lc(f)| M(f)). The lift modulus exceeds twice that bound,
    so the symmetric residue of lc(f) times a product of lifted factors is
    that polynomial exactly when the subset belongs to a true factor; a
    candidate is kept only if its primitive part divides f in Z[x]. Factors
    found later divide f too, so the bound and the modulus stay valid.
    """
    n = len(f) - 1
    bound = comb(n, n // 2) * (isqrt(sum(c * c for c in f)) + 1)
    modulus = p
    while modulus <= 2 * bound:
        modulus *= modulus
    lifted = _hensel_lift(f, factors, p, modulus)
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            if sum(len(lifted[i]) - 1 for i in subset) not in allowed:
                continue
            cand = [f[-1]]
            for i in subset:
                cand = _mul_mod(cand, lifted[i], modulus)
            g = _primitive([c - modulus if 2 * c > modulus else c for c in cand])
            if g[0] == 0 or f[0] % g[0]:
                continue  # f(0) != 0, so a factor's constant term divides it
            q = _exact_quotient(f, g)
            if q is None:
                continue
            out.append(g)
            f = q
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    out.append(f)
    return out


def factor_q(f: PolyQ) -> tuple[Fraction, list[tuple[PolyQ, int]]]:
    """Factor a nonzero f over Q into (constant, [(monic irreducible, mult)]).

    constant * prod(factor^mult) == f exactly; the constant is lc(f) and the
    factors are sorted by (degree, coefficients). Powers of x are split off
    first; ``_factor_squarefree`` factors the squarefree part rest / g of
    the rest, g = gcd(rest, rest'), and each irreducible's multiplicity is
    one more than the number of times it divides g, as in ``poly_factor_fp``.
    """
    if f.is_zero():
        raise ZeroValuationError("cannot factor the zero polynomial")
    _, ints = f.integer_model()
    shift = next(i for i, c in enumerate(ints) if c)
    rest = list(ints[shift:])
    found: list[tuple[list[int], int]] = [([0, 1], shift)] if shift else []
    if len(rest) > 1:
        g = _gcd_z(rest, [i * c for i, c in enumerate(rest) if i])
        for u in _factor_squarefree(_exact_quotient(rest, g)):
            mult, q = 1, _exact_quotient(g, u)
            while q is not None:
                g, mult, q = q, mult + 1, _exact_quotient(q, u)
            found.append((u, mult))
    out = [(PolyQ._make(g, Fraction(1, g[-1])), mult) for g, mult in found]
    out.sort(key=lambda t: t[0].sort_key())
    return f.leading(), out


def is_irreducible_q(f: PolyQ) -> bool:
    """Exact irreducibility over Q for a nonconstant polynomial."""
    if f.degree < 1:
        return False
    _, parts = factor_q(f)
    return len(parts) == 1 and parts[0][1] == 1


def rational_roots(f: PolyQ) -> list[Fraction]:
    """All rational roots, sorted, multiplicity ignored: the roots of the
    linear factors of f over Q (0 among them when x divides f)."""
    if f.is_zero():
        raise ZeroValuationError("every rational is a root of 0")
    _, parts = factor_q(f)
    return sorted(-g.coeffs[0] for g, _ in parts if g.degree == 1)


# -- the residue field Q[x]/(pi) on its monic integer model --------------------
#
# For a monic pi of degree d with primitive integer model P, L = lc(P), the
# element theta = L x of K = Q[x]/(pi) has the monic minimal polynomial
# f(theta) = L^(d-1) P(theta / L) in Z[theta], and an integer polynomial F
# of degree m is F~(theta) / L^m with F~(theta) = L^m F(theta / L) integral.
# Residues, inverses and square tests run on such int lists modulo f, with
# one Fraction scalar kept apart.


def _monic_model(pi: PolyQ) -> tuple[list[int], list[int]]:
    """(P, f): the primitive integer model P of a nonconstant pi, and the
    monic model f of the residue field, theta = lc(P) x."""
    P = list(pi.integer_model()[1])
    L, d = P[-1], len(P) - 1
    return P, [c * L ** (d - 1 - j) for j, c in enumerate(P[:-1])] + [1]


def _to_theta(F, L: int) -> list[int]:
    """F~ with F(x) = F~(theta) / L^(deg F)."""
    m = len(F) - 1
    return [c * L ** (m - j) for j, c in enumerate(F)] if L != 1 else list(F)


def _from_theta(W: list[int], scale: Fraction, L: int) -> PolyQ:
    """scale * W(theta) as a polynomial in x, theta = L x."""
    return PolyQ._make([c * L**j for j, c in enumerate(W)], scale)


def _power_product(f: list[int], L: int, parts) -> tuple[list[int], Fraction]:
    """(W, s) with s W(theta) = prod (c F)^e in Q[x]/(pi), for the monic model
    f of pi, theta = L x, and parts (c, F, e): a nonzero rational c, an
    integer polynomial F prime to pi and an exponent e != 0. The positive and
    the negative powers are multiplied apart on int lists, and the product of
    the negative ones is inverted once (``_inv_z``)."""
    def mul_mod(u, v):
        return _pdivmod(_mul(u, v), f)[1]

    top, bottom, s = [1], [1], Fraction(1)
    for c, F, e in parts:
        s *= (c / L ** (len(F) - 1)) ** e
        u = _power(_pdivmod(_to_theta(F, L), f)[1], abs(e), mul_mod)
        if e > 0:
            top = mul_mod(top, u)
        else:
            bottom = mul_mod(bottom, u)
    if bottom != [1]:
        v, res = _inv_z(bottom, f)
        top, s = mul_mod(top, v), s / res
    return top, s


# The odd primes the local sieve tries before Trager's method. They change the
# time a square test takes, never its verdict.
_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


def _char_poly(r: list[int], f: list[int]) -> list[int]:
    """The characteristic polynomial M of multiplication by r on
    Q[theta]/(f), for a monic f and r in Z[theta]: monic in Z[y], as r is
    integral. The traces Tr(theta^j) are the power sums of the roots of f
    and Tr(r^k) follow from them; Newton's identities k c_k =
    -sum_{i<k} c_i Tr(r^(k-i)) then divide exactly."""
    d = len(f) - 1
    b = f[::-1]  # f = y^d + b[1] y^(d-1) + ... + b[d]
    tr_x = [d]
    for j in range(1, d):
        tr_x.append(-j * b[j] - sum(b[i] * tr_x[j - i] for i in range(1, j)))
    traces, c = [d], [1]  # M = y^d + c[1] y^(d-1) + ... + c[d]
    power = [1]
    for k in range(1, d + 1):
        power = _pdivmod(_mul(power, r), f)[1]
        traces.append(sum(map(mul, power, tr_x)))
        c.append(-sum(c[i] * traces[k - i] for i in range(k)) // k)
    return c[::-1]


def _local_nonsquare(r: list[int], f: list[int]) -> bool:
    """Does some prime p of ``_SIEVE_PRIMES`` prove r a nonsquare in
    K = Q[theta]/(f), deg f >= 2?

    When f is squarefree mod p, Z_p[theta]/(f) is a product of unramified
    rings whose residue fields are F_p[theta]/(pi_i), pi_i the factors of f
    mod p. A square root of r in K lies in each of those rings where r is a
    unit, so r is a square modulo every pi_i it does not vanish on; a pi_i
    where the norm of r to F_p is a nonsquare proves r a nonsquare. The
    factors need not be split apart: modulo the product g of the factors of
    degree k (distinct-degree factorization), n = r^(1 + p + ... + p^(k-1))
    is that norm modulo each factor, so n^((p-1)/2) is 1 modulo g, once the
    factors where r vanishes are divided out, exactly when r is a square at
    every factor of g. A prime where f stays irreducible adds nothing to the
    rational norm.
    """
    for p in _SIEVE_PRIMES:
        ddf = _squarefree_ddf(f, p)
        if ddf is None:
            continue
        frob, parts = ddf
        rp = _trim([c % p for c in r])
        for g, k in parts:
            if k == len(f) - 1:
                break  # f is irreducible mod p
            g = _divmod(g, _gcd(g, rp, p), p)[0]  # r a unit modulo all of g
            if len(g) == 1:
                continue
            if _norm_power(_rem(rp, g, p), k, frob, g, p) != [1]:
                return True
    return False


def _is_square_z(r: list[int], f: list[int]) -> bool:
    """``is_square_mod`` on the monic model: is the nonzero r in Z[theta],
    of degree below deg f, a square in Q[theta]/(f), f monic irreducible?"""
    norm = _resultant_z(f, r)
    if norm < 0 or isqrt(norm) ** 2 != norm:
        return False
    if len(f) == 2:
        return True  # over Q the norm is r itself
    if _local_nonsquare(r, f):
        return False
    M, s = _char_poly(r, f), 0
    while len(_gcd_z(M, [i * c for i, c in enumerate(M) if i])) > 1:
        s += 1
        M = _char_poly(_pdivmod(_mul(r, _mul([1, s], [1, s])), f)[1], f)
    return len(_factor_squarefree([v for c in M for v in (c, 0)][:-1])) > 1


def is_square_mod(r: PolyQ, pi: PolyQ) -> bool:
    """Is r a square in K = Q[x]/(pi)?  Exact, for pi monic irreducible.

    On the monic model f of K (theta = L x), r = c R(x) is c R~(theta) / L^m,
    m = deg R, in the square class of the integral element
    c.numerator c.denominator L^(m mod 2) R~(theta). Three checks follow, in
    this order (``_is_square_z``), and each verdict is a proof:

    - the norm: N(s^2) = N(s)^2, so an integer norm N(r) = Res(f, r) that is
      not a square proves a nonsquare; most nonsquares stop here;
    - the local sieve (``_local_nonsquare``): a square is a square in every
      residue field of K at a prime where it is a unit, so a nonsquare
      modulo a factor of f mod p proves a nonsquare;
    - Trager's method (SYMSAC 1976) for what survives: r is multiplied by
      squares (1 + s theta)^2 until its characteristic polynomial M is
      squarefree (at most d(d-1) values of s fail), so that r generates K
      with minimal polynomial M. Then M(y^2), the norm of y^2 - r and
      squarefree since M is and M(0) != 0, factors as N(y - t) N(y + t)
      when r = t^2, and is the minimal polynomial of sqrt(r), of degree
      2d, otherwise; r is a square exactly when M(y^2) is reducible over Q.
    """
    P, f = _monic_model(pi)
    c, R = r.integer_model()
    rt = _pdivmod(_to_theta(R, P[-1]), f)[1]
    if not rt:
        raise ZeroValuationError("square test of 0 in the residue field")
    scale = c.numerator * c.denominator * P[-1] ** ((len(R) - 1) % 2)
    return _is_square_z([scale * v for v in rt], f)
