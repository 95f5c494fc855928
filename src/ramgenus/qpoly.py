"""Polynomial arithmetic over Q, with exact factorization into irreducibles.

Arithmetic is Fraction arithmetic on coefficients stored ascending with
trailing zeros stripped; structure, Euclid, ``pow_mod`` and printing come
from ``gfpoly._Poly``, which PolyQ shares with PolyFp. Factorization works
in Z[x] on the primitive integer model (Zassenhaus 1969; von zur
Gathen-Gerhard, Modern Computer Algebra, ch. 15): squarefree parts,
factorization modulo a small prime with ``gfpoly.poly_factor_fp``,
quadratic Hensel lifting past a Mignotte bound, and recombination of lifted
factors checked by exact division. The same factorizer decides squareness in
a number field Q[x]/(pi) through Trager's norm method. It is self-contained:
no computer-algebra system is imported.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, isqrt
from math import gcd as int_gcd

from .errors import ZeroValuationError
from .exactarith import is_rational_square, primes_after
from .gfpoly import PolyFp, _add_mod, _Poly, _divmod_monic, _mul_mod, fq_inv, poly_factor_fp


class PolyQ(_Poly):
    """A polynomial over Q: Fraction coefficients ascending, normalized."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        cs = tuple(Fraction(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    def _like(self, coeffs) -> "PolyQ":
        return PolyQ(tuple(coeffs))

    def _inv(self, c: Fraction) -> Fraction:
        return 1 / c

    # bound in the class body as well as inherited, so that PolyQ.gcd can be
    # wrapped (traced, patched) apart from PolyFp.gcd
    gcd = _Poly.gcd

    @classmethod
    def of(cls, coeffs) -> "PolyQ":
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def constant(cls, c) -> "PolyQ":
        return cls((Fraction(c),))

    @classmethod
    def x(cls) -> "PolyQ":
        return cls((Fraction(0), Fraction(1)))

    def constant_value(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return PolyQ(tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        if self.is_zero() or other.is_zero():
            return PolyQ(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyQ(tuple(out))

    def scale(self, c) -> "PolyQ":
        c = Fraction(c)
        return PolyQ(tuple(a * c for a in self.coeffs))

    def __divmod__(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        inv = 1 / other.leading()
        dq = other.degree
        q = [Fraction(0)] * max(len(rem) - dq, 0)
        for i in range(len(rem) - 1, dq - 1, -1):
            c = rem[i] * inv
            if c:
                q[i - dq] = c
                for j, b in enumerate(other.coeffs):
                    rem[i - dq + j] -= c * b
        return PolyQ(tuple(q)), PolyQ(tuple(rem))

    def derivative(self) -> "PolyQ":
        return PolyQ(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def evaluate(self, x0) -> Fraction:
        x0 = Fraction(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def reverse(self) -> "PolyQ":
        """x^deg * f(1/x)."""
        return PolyQ(tuple(reversed(self.coeffs)))

    def integer_model(self) -> tuple[Fraction, tuple[int, ...]]:
        """(content, primitive integer coefficients): f = content * primitive."""
        if self.is_zero():
            return Fraction(0), ()
        from math import lcm

        den = 1
        for c in self.coeffs:
            den = lcm(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = int_gcd(g, abs(v))
        sign = 1 if ints[-1] > 0 else -1
        g *= sign
        return Fraction(g, den), tuple(v // g for v in ints)

    def reduce_mod(self, p: int) -> PolyFp:
        """Reduction modulo p; requires every denominator to be a p-unit."""
        out = []
        for c in self.coeffs:
            if c.denominator % p == 0:
                raise ZeroDivisionError(f"coefficient {c} is not p-integral at {p}")
            out.append(c.numerator * pow(c.denominator, -1, p) % p)
        return PolyFp(p, tuple(out))


# -- factorization in Z[x] ----------------------------------------------------
#
# Integer polynomials below are lists of ints, ascending and without trailing
# zeros; "mod m" results are reduced into [0, m). The list kernel
# (``_mul_mod``, ``_add_mod``, ``_divmod_monic``) is gfpoly's, used here
# mod p^k.


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
    q, r = _divmod_monic(_mul_mod(s, e, m2), h, m2)
    g = _add_mod(_add_mod(g, _mul_mod(t, e, m2), m2), _mul_mod(q, g, m2), m2)
    h = _add_mod(h, r, m2)
    b = _add_mod(_add_mod(_mul_mod(s, g, m2), _mul_mod(t, h, m2), m2), [1], m2, -1)
    c, d = _divmod_monic(_mul_mod(s, b, m2), h, m2)
    s = _add_mod(s, d, m2, -1)
    t = _add_mod(_add_mod(t, _mul_mod(t, b, m2), m2, -1), _mul_mod(c, g, m2), m2, -1)
    return g, h, s, t


def _hensel_lift(f: list[int], factors: list[PolyFp], modulus: int) -> list[list[int]]:
    """Lift f = lc(f) * prod(factors) mod p, the factors monic and pairwise
    coprime mod p, to monic factors mod ``modulus`` = p^(2^j).

    The factors are split in two halves, the two-factor split is lifted
    quadratically, and each half is lifted on in turn (the factor tree of
    von zur Gathen-Gerhard, Alg. 15.17, walked depth first).
    """
    if len(factors) == 1:
        inv = pow(f[-1], -1, modulus)
        return [[c * inv % modulus for c in f]]
    p = factors[0].p
    half = len(factors) // 2
    g0 = PolyFp(p, (f[-1],))
    for u in factors[:half]:
        g0 = g0 * u
    h0 = PolyFp.constant(p, 1)
    for u in factors[half:]:
        h0 = h0 * u
    s0 = fq_inv(g0, h0)
    t0 = (PolyFp.constant(p, 1) - s0 * g0) // h0
    g, h, s, t = (list(u.coeffs) for u in (g0, h0, s0, t0))
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, factors[:half], modulus) + _hensel_lift(
        h, factors[half:], modulus
    )


def _subset_degrees(factors: list[PolyFp]) -> set[int]:
    sums = {0}
    for u in factors:
        sums |= {s + u.degree for s in sums}
    return sums


def _factor_squarefree(
    f: list[int], first: tuple[int, list[PolyFp]] | None = None
) -> list[list[int]]:
    """Irreducible factors in Z[x] of a primitive squarefree f with positive
    leading coefficient (Zassenhaus).

    f is factored modulo up to three primes p that do not divide lc(f) and
    keep f squarefree (``first`` is one such factorization, if known); a
    second and third prime are tried only while the factorizations seen so
    far have more than one factor. A true factor's degree is a subset sum of
    the modular factor degrees at every prime, so when no proper degree is
    common to all of them f is irreducible. Otherwise the prime with the
    fewest factors is Hensel-lifted and subsets of its lifted factors are
    recombined, smallest first.
    """
    n = len(f) - 1
    if n == 1:
        return [f]
    allowed = set(range(n + 1))
    tried: list[list[PolyFp]] = []
    primes = primes_after(first[0] if first else 2)
    while len(tried) < 3:
        if first is not None:
            factors, first = first[1], None
        else:
            p = next(primes)
            if f[-1] % p == 0:
                continue
            parts = poly_factor_fp(PolyFp(p, tuple(f)))
            if any(mult > 1 for _, mult in parts):
                continue
            factors = [u for u, _ in parts]
        if len(factors) == 1:
            return [f]
        allowed &= _subset_degrees(factors)
        if len(allowed) == 2:  # only 0 and n
            return [f]
        tried.append(factors)
    factors = min(tried, key=len)
    return _recombine(f, factors, allowed)


def _recombine(f: list[int], factors: list[PolyFp], allowed: set[int]) -> list[list[int]]:
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
    p = factors[0].p
    modulus = p
    while modulus <= 2 * bound:
        modulus *= modulus
    lifted = _hensel_lift(f, factors, modulus)
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            if sum(len(lifted[i]) - 1 for i in subset) not in allowed:
                continue
            cand = [f[-1]]
            for i in subset:
                cand = _mul_mod(cand, lifted[i], modulus)
            cand = [c - modulus if 2 * c > modulus else c for c in cand]
            content = 0
            for c in cand:
                content = int_gcd(content, c)
            g = [c // content for c in cand]
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


def _yun(f: PolyQ) -> list[tuple[PolyQ, int]]:
    """Squarefree decomposition over Q (Yun): [(monic g_i, i)] with g_i
    squarefree, pairwise coprime and f = lc(f) prod g_i^i."""
    d = f.derivative()
    a = f.gcd(d)
    b, c = f // a, d // a
    out = []
    i = 1
    while not b.is_constant():
        d = c - b.derivative()
        a = b.gcd(d)
        if not a.is_constant():
            out.append((a, i))
        b, c = b // a, d // a
        i += 1
    return out


def factor_q(f: PolyQ) -> tuple[Fraction, list[tuple[PolyQ, int]]]:
    """Factor a nonzero f over Q into (constant, [(monic irreducible, mult)]).

    constant * prod(factor^mult) == f exactly; the constant is lc(f) and the
    factors are sorted by (degree, coefficients). Powers of x are split off
    first. If the rest stays squarefree modulo the first prime p not dividing
    its leading coefficient, it is squarefree over Q and that factorization
    mod p is reused; otherwise Yun's algorithm splits it into squarefree
    parts. Each part is factored by ``_factor_squarefree``.
    """
    if f.is_zero():
        raise ZeroValuationError("cannot factor the zero polynomial")
    if f.is_constant():
        return f.constant_value(), []
    _, ints = f.integer_model()
    shift = next(i for i, c in enumerate(ints) if c)
    rest = list(ints[shift:])
    found: list[tuple[list[int], int]] = [([0, 1], shift)] if shift else []
    if len(rest) == 2:
        found.append((rest, 1))
    elif len(rest) > 2:
        p = next(q for q in primes_after(2) if rest[-1] % q)
        parts = poly_factor_fp(PolyFp(p, tuple(rest)))
        if all(mult == 1 for _, mult in parts):
            found += [(g, 1) for g in _factor_squarefree(rest, (p, [u for u, _ in parts]))]
        else:
            for part, mult in _yun(PolyQ.of(rest)):
                _, prim = part.integer_model()
                found += [(g, mult) for g in _factor_squarefree(list(prim))]
    out = [(PolyQ(tuple(Fraction(c, g[-1]) for c in g)), mult) for g, mult in found]
    out.sort(key=lambda t: t[0].sort_key())
    return f.leading(), out


def is_irreducible_q(f: PolyQ) -> bool:
    """Exact irreducibility over Q for a nonconstant polynomial."""
    if f.degree < 1:
        return False
    if f.degree == 1:
        return True
    _, parts = factor_q(f)
    return len(parts) == 1 and parts[0][1] == 1


def rational_roots(f: PolyQ) -> list[Fraction]:
    """All rational roots, sorted, multiplicity ignored: the roots of the
    linear factors of f over Q (0 among them when x divides f)."""
    if f.is_zero():
        raise ZeroValuationError("every rational is a root of 0")
    _, parts = factor_q(f)
    return sorted(-g.coeffs[0] for g, _ in parts if g.degree == 1)


def _char_poly(r: PolyQ, pi: PolyQ) -> PolyQ:
    """The characteristic polynomial of multiplication by r on Q[x]/(pi), pi
    monic, from the traces of r^k by Newton's identities."""
    d = pi.degree
    b = pi.coeffs[::-1]  # pi = x^d + b[1] x^(d-1) + ... + b[d]
    tr_x = [Fraction(d)]  # Tr(x^j), the power sums of the roots of pi
    for j in range(1, d):
        tr_x.append(-j * b[j] - sum(b[i] * tr_x[j - i] for i in range(1, j)))
    traces, c = [tr_x[0]], [Fraction(1)]  # M = y^d + c[1] y^(d-1) + ... + c[d]
    power = r._like((1,))
    for k in range(1, d + 1):
        power = power * r % pi
        traces.append(sum(a * t for a, t in zip(power.coeffs, tr_x)))
        c.append(-sum(c[i] * traces[k - i] for i in range(k)) / k)
    return PolyQ(tuple(reversed(c)))


def is_square_mod(r: PolyQ, pi: PolyQ) -> bool:
    """Is r a square in K = Q[x]/(pi)?  Exact, for pi monic irreducible.

    With M the characteristic polynomial of r on K, d = deg pi, a square has
    a square norm (-1)^d M(0); this settles most nonsquares. Otherwise r is
    multiplied by squares (1 + s x)^2 until M is squarefree (at most d(d-1)
    values of s fail), so that r generates K with minimal polynomial M. Then
    r is a square exactly when the norm M(y^2) of y^2 - r, squarefree since
    M is and M(0) != 0, is reducible over Q (Trager, SYMSAC 1976).
    """
    if (r % pi).is_zero():
        raise ZeroValuationError("square test of 0 in the residue field")
    M = _char_poly(r, pi)
    if not is_rational_square((-1) ** pi.degree * M.constant_value()):
        return False
    s = 0
    while M.gcd(M.derivative()).degree > 0:
        s += 1
        c = PolyQ.of((1, s))
        M = _char_poly(r * c * c % pi, pi)
    _, ints = PolyQ(tuple(v for a in M.coeffs for v in (a, 0))).integer_model()
    return len(_factor_squarefree(list(ints))) > 1
