"""Geometric places of k(x) for k in {F_p, Q}, tame residue maps for symbol
algebras, ramification sets, and the resulting genus bounds.

The residue of the degree-n symbol (a, b) at a place w is encoded by the
class of the tame symbol

    t = (-1)^(v(a) v(b)) * a^(v(b)) * b^(-v(a))

in the residue field modulo n-th powers: the symbol is unramified at w
exactly when that class is trivial. ``tame_residue`` forms the class at
every place from the valuations and unit parts of the entries: at a finite
place pi in k[x]/(pi), on int lists over F_p and on the monic integer model
of the residue field over Q (``qpoly``), where squareness is decided by the
norm, a local sieve and Trager's method; at the degree place, where
v(f) = deg den - deg num and the unit part is lc(num), as a constant of k.
``tame_symbol`` builds t itself in k(x) as a reference, through x -> 1/x at
the degree place, so its residue there is read at (x).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce

from ._value import Value
from .errors import UnsupportedFieldError, ZeroValuationError
from .exactarith import euler_phi, is_prime, is_rational_square
from .gfpoly import (
    PolyFp,
    _divmod_monic,
    _inv_mod,
    _power,
    _product_mod,
    fq_inv,
    is_irreducible_fp,
    poly_factor_fp,
    residue_class_is_nth_power,
)
from .qpoly import (
    PolyQ,
    _exact_quotient,
    _from_theta,
    _is_square_z,
    _monic_model,
    _power_product,
    factor_q,
    is_irreducible_q,
)


class FFPlace(Value):
    """A geometric place of k(x): a monic irreducible polynomial over k, or
    the degree place at infinity (pi is None). char is p for F_p and 0 for Q.
    """

    __slots__ = ("char", "pi")

    def __init__(self, char: int, pi: PolyFp | PolyQ | None):
        if pi is None:
            if char != 0 and not is_prime(char):
                raise ValueError("char must be 0 (for Q) or a prime")
        elif isinstance(pi, PolyFp):
            if char != pi.p:
                raise ValueError("char does not match the polynomial")
            if not pi.is_monic() or not is_irreducible_fp(pi):
                raise ValueError(f"{pi} is not monic irreducible over F_{char}")
        elif isinstance(pi, PolyQ):
            if char != 0:
                raise ValueError("char does not match the polynomial")
            if not pi.is_monic() or not is_irreducible_q(pi):
                raise ValueError(f"{pi} is not monic irreducible over Q")
        else:
            raise TypeError("pi must be PolyFp, PolyQ, or None")
        self._set(char, pi)

    @classmethod
    def finite(cls, pi: PolyFp | PolyQ) -> "FFPlace":
        return cls(pi.p if isinstance(pi, PolyFp) else 0, pi)

    @classmethod
    def infinity(cls, char: int) -> "FFPlace":
        return cls(char, None)

    @property
    def is_infinite(self) -> bool:
        return self.pi is None

    @property
    def degree(self) -> int:
        """Residue field degree over k (1 for the infinite place)."""
        return 1 if self.pi is None else self.pi.degree

    def sort_key(self) -> tuple:
        if self.pi is None:
            return (1, 0, ())
        return (0,) + self.pi.sort_key()

    def __lt__(self, other: "FFPlace") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return "inf" if self.pi is None else f"({self.pi})"


class RationalFunction(Value):
    """An element of k(x) in reduced form: gcd(num, den) = 1, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyFp | PolyQ, den: PolyFp | PolyQ):
        if type(num) is not type(den):
            raise TypeError("numerator and denominator over different fields")
        if isinstance(num, PolyFp) and num.p != den.p:
            raise ValueError("mixed characteristics")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        else:
            den = den._like((1,))
        lead = den.leading()
        if lead != 1:
            inv = den._inv(lead)
            num, den = num.scale(inv), den.scale(inv)
        self._set(num, den)

    @classmethod
    def of(cls, num: PolyFp | PolyQ, den: PolyFp | PolyQ | None = None):
        return cls(num, den if den is not None else num._like((1,)))

    @property
    def char(self) -> int:
        return self.num.p if isinstance(self.num, PolyFp) else 0

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0")
        return RationalFunction(self.den, self.num)

    def pow(self, e: int) -> "RationalFunction":
        if e < 0:
            return self.inverse().pow(-e)
        if e == 0:
            return RationalFunction.of(self.num._like((1,)))
        return _power(self, e, operator.mul)

    def at_infinity_model(self) -> "RationalFunction":
        """The function f(1/x); its valuation at the place (x) equals the
        valuation of f at infinity (deg den - deg num)."""
        if self.is_zero():
            return self
        rn, rd = self.num.reverse(), self.den.reverse()
        shift = self.den.degree - self.num.degree
        x_power = rn._like((0,) * abs(shift) + (1,))
        if shift >= 0:
            return RationalFunction(rn * x_power, rd)
        return RationalFunction(rn, rd * x_power)

    def valuation_at(self, place: FFPlace) -> int:
        """v_w(f) for nonzero f."""
        if self.is_zero():
            raise ZeroValuationError("v(0) is +infinity")
        if place.is_infinite:
            return self.den.degree - self.num.degree
        return _split_off(self.num, place.pi)[0] - _split_off(self.den, place.pi)[0]

    def residue_at(self, place: FFPlace):
        """The image of f in the residue field at a place where v(f) = 0.

        Finite place: (num mod pi) * (den mod pi)^(-1), a polynomial of degree
        < deg pi. Infinite place: the constant f(1/x)|_{x=0} of the base field.
        """
        if place.is_infinite:
            model = self.at_infinity_model()
            # x is monic irreducible over every k: the place (x) needs no test
            return model.residue_at(FFPlace._new(self.char, self.num._like((0, 1))))
        pi = place.pi
        n, d = self.num % pi, self.den % pi
        if n.is_zero() or d.is_zero():
            raise ZeroValuationError(f"{self} is not a unit at {place}")
        return n * fq_inv(d, pi) % pi

    def __str__(self) -> str:
        if self.den.is_constant():
            return str(self.num)
        return f"({self.num})/({self.den})"


def _split_off(poly, pi) -> tuple[int, object]:
    """(m, u mod pi) for a nonzero poly = pi^m * u with pi not dividing u."""
    m = 0
    while True:
        q, r = divmod(poly, pi)
        if not r.is_zero():
            return m, r
        poly, m = q, m + 1


def places_of(f: RationalFunction) -> list[tuple[FFPlace, int]]:
    """All places with v(f) != 0, each with its valuation.

    The numerator and denominator are factored into monic irreducibles, and
    the degree place enters with deg den - deg num when that is nonzero. The
    valuations satisfy sum v * deg(place) = 0 (principal divisors have
    degree zero).
    """
    if f.is_zero():
        raise ZeroValuationError("0 has no divisor")
    vals: dict[FFPlace, int] = {}

    def absorb(poly, sign: int) -> None:
        if poly.is_constant():
            return
        if isinstance(poly, PolyFp):
            parts = poly_factor_fp(poly)
        else:
            _, parts = factor_q(poly)
        for pi, mult in parts:
            place = FFPlace._new(f.char, pi)  # a monic irreducible: no re-test
            vals[place] = vals.get(place, 0) + sign * mult

    absorb(f.num, 1)
    absorb(f.den, -1)
    vinf = f.den.degree - f.num.degree
    if vinf:
        vals[FFPlace._new(f.char, None)] = vinf  # char read off a valid f
    out = [(place, v) for place, v in vals.items() if v != 0]
    out.sort(key=lambda t: t[0].sort_key())
    return out


class SymbolAlgebraFF(Value):
    """The degree-n symbol algebra (a, b) over k(x), n prime to char k."""

    __slots__ = ("n", "a", "b")

    def __init__(self, n: int, a: RationalFunction, b: RationalFunction):
        if n < 2:
            raise ValueError("symbol degree must be at least 2")
        if a.char != b.char:
            raise ValueError("entries over different base fields")
        if a.is_zero() or b.is_zero():
            raise ZeroValuationError("symbol entries must be nonzero")
        if a.char > 0 and math.gcd(n, a.char) != 1:
            raise UnsupportedFieldError(f"degree {n} not prime to characteristic {a.char}")
        self._set(n, a, b)

    @property
    def char(self) -> int:
        return self.a.char

    def __str__(self) -> str:
        k = f"F{self.char}" if self.char else "Q"
        return f"({self.a}, {self.b}; n={self.n}, k={k})"


class TameResidue(Value):
    """Residue data of a symbol algebra at one place.

    ``ramified`` is a proven verdict. ``residue_class`` is the tame-symbol
    image in the residue field (a polynomial of degree < deg pi, or a
    base-field constant at infinity and at degree-1 places over Q).
    ``certainty`` is a constant that ``bench/function_fields.py`` still reads.
    """

    __slots__ = ("place", "residue_class", "ramified")
    certainty = "proven"

    def __init__(self, place: FFPlace, residue_class: object, ramified: bool):
        self._set(place, residue_class, ramified)


def tame_symbol(D: SymbolAlgebraFF, w: FFPlace) -> RationalFunction:
    """(-1)^(v(a)v(b)) a^(v(b)) b^(-v(a)), a unit at w. At the degree place
    it is built in the x -> 1/x model, so its residue is read at (x)."""
    if w.is_infinite:
        a = D.a.at_infinity_model()
        b = D.b.at_infinity_model()
        w = FFPlace._new(D.char, a.num._like((0, 1)))  # (x) needs no test
    else:
        a, b = D.a, D.b
    va, vb = a.valuation_at(w), b.valuation_at(w)
    t = a.pow(vb) * b.pow(-va)
    if va * vb % 2:
        t = -t
    return t


def tame_residue(D: SymbolAlgebraFF, w: FFPlace) -> TameResidue:
    """Residue of the symbol at w: unramified iff the tame symbol reduces to
    an n-th power in the residue field.

    Each polynomial f of the entries is split as pi^v u at w, and the residue
    is (-1)^(v_a v_b) u_a^(v_b) u_b^(-v_a). At the degree place v = -deg f and
    u = lc f (den is monic): a constant of k, the residue of
    ``tame_symbol(D, w)`` at (x), as that works in the x -> 1/x model there.
    At a finite place it is ``tame_symbol(D, w).residue_at(w)``, formed on
    int lists over F_p and over Q on integer models, where v counts exact
    divisions by the primitive model of pi (Gauss's lemma). Over Q(x) the
    verdict is exact: ``is_rational_square`` at the degree place, elsewhere
    the norm, a local sieve and Trager's method (``qpoly._is_square_z``).
    """
    if w.char != D.char:
        raise ValueError("place and algebra live over different base fields")
    p = D.char
    if p == 0 and D.n != 2:
        raise UnsupportedFieldError("over Q(x) only degree-2 symbols are supported")
    pi = None if w.is_infinite else w.pi.coeffs
    if pi is not None and not p:
        P, f = _monic_model(w.pi)
    vals, units = [], []
    for poly in (D.a.num, D.a.den, D.b.num, D.b.den):
        if pi is None:
            v, u = -poly.degree, poly.leading()
        elif p:
            v, (q, u) = 0, _divmod_monic(poly.coeffs, pi, p)
            while not u:
                v, (q, u) = v + 1, _divmod_monic(q, pi, p)
        else:
            c, F = poly.integer_model()
            v, q = 0, _exact_quotient(F, P)
            while q is not None:
                v, F, q = v + 1, q, _exact_quotient(q, P)
            u = c, F
        vals.append(v)
        units.append(u)
    va, vb = vals[0] - vals[1], vals[2] - vals[3]
    # a unit 1 adds nothing: every den's at the degree place (den is monic),
    # and a polynomial entry's den at a finite place over F_p
    parts = [(u, e) for u, e in zip(units, (vb, -vb, -va, va)) if e and u not in (1, [1])]
    sign = -1 if va * vb % 2 else 1
    if pi is None and p:
        c = sign
        for u, e in parts:
            c = c * pow(u, e, p) % p
        residue = PolyFp._make(p, (c % p,))
        ramified = not residue_class_is_nth_power(residue, PolyFp._make(p, (0, 1)), D.n)
    elif pi is None:
        residue = math.prod((u**e for u, e in parts), start=Fraction(sign))
        ramified = not is_rational_square(residue)
    elif p:
        product = _product_mod(pi, p)
        top = [_power(u, e, product) for u, e in parts if e > 0]
        bottom = [_power(u, -e, product) for u, e in parts if e < 0]
        if bottom:
            top.append(_inv_mod(reduce(product, bottom), pi, p))
        unit = reduce(product, top) if top else [1]
        residue = PolyFp._make(p, [c * sign % p for c in unit])
        ramified = not residue_class_is_nth_power(residue, w.pi, D.n)
    else:
        if sign < 0:
            parts.append(((Fraction(-1), [1]), 1))
        W, s = _power_product(f, P[-1], [(c, F, e) for (c, F), e in parts])
        residue = _from_theta(W, s, P[-1])
        if len(f) == 2:
            residue = residue.constant_value()
        ramified = not _is_square_z([s.numerator * s.denominator * c for c in W], f)
    return TameResidue(w, residue, ramified)


def residues(D: SymbolAlgebraFF) -> list[TameResidue]:
    """The residue at every candidate place: the places dividing an entry,
    and the degree place.

    Outside them both entries are units and the tame symbol is 1, so a place
    missing from the list is provably unramified.
    """
    places = {p for p, _ in places_of(D.a)} | {p for p, _ in places_of(D.b)}
    places.add(FFPlace._new(D.char, None))  # char read off a valid algebra
    return [tame_residue(D, w) for w in sorted(places, key=FFPlace.sort_key)]


def ram_V(D: SymbolAlgebraFF) -> list[FFPlace]:
    """All geometric places where the symbol algebra over k(x) ramifies."""
    return [res.place for res in residues(D) if res.ramified]


def ram_V_over_Q(D: SymbolAlgebraFF) -> list[TameResidue]:
    """The residues at the places where a quaternion symbol over Q(x)
    ramifies: ``ram_V`` with the residue data kept."""
    if D.char != 0:
        raise UnsupportedFieldError("ram_V_over_Q expects entries in Q(x)")
    return [res for res in residues(D) if res.ramified]


class FFGenusBound(Value):
    """Genus-size bound |nBr(K)_V| * phi(n)^r for a symbol algebra over k(x).

    The unramified factor is 1 on both supported base fields. Over F_p(x),
    Faddeev's exact sequence sends every class unramified at all places,
    infinity included, to Br(F_p) = 0. Over Q(x) with n = 2, quaternion
    algebras over Q have trivial genus, and the Stability Theorem of
    Rapinchuk-Rapinchuk carries that to Q(x). ``unresolved`` is an empty
    constant that ``bench/function_fields.py`` still reads.
    """

    __slots__ = ("bound", "unramified_order", "phi_factor", "n", "r", "ramified")
    unresolved = ()

    def __init__(self, bound: int, unramified_order: int, phi_factor: int, n: int, r: int,
                 ramified: tuple[FFPlace, ...]):
        self._set(bound, unramified_order, phi_factor, n, r, ramified)


def genus_bound(D: SymbolAlgebraFF) -> FFGenusBound:
    """Bound on the number of same-maximal-subfield classes of the symbol.

    bound = phi(n)^r with r the number of ramified geometric places; the
    unramified factor is 1 (see ``FFGenusBound``). Over Q(x) only n = 2 is
    supported.
    """
    ramified = tuple(e.place for e in residues(D) if e.ramified)
    phi_factor = euler_phi(D.n) ** len(ramified)
    return FFGenusBound(
        bound=phi_factor,
        unramified_order=1,
        phi_factor=phi_factor,
        n=D.n,
        r=len(ramified),
        ramified=ramified,
    )
