"""Geometric places of k(x) for k in {F_p, Q}, tame residue maps for symbol
algebras, ramification sets, and the resulting genus bounds.

The residue of the degree-n symbol (a, b) at a place w is encoded by the
class of the tame symbol

    t = (-1)^(v(a) v(b)) * a^(v(b)) * b^(-v(a))

in the residue field modulo n-th powers: the symbol is unramified at w
exactly when that class is trivial. The place at infinity is handled through
the substitution x -> 1/x, which turns it into the place (x) of the
transformed functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnsupportedFieldError, ZeroValuationError
from .exactarith import euler_phi, is_prime, is_rational_square
from .gfpoly import (
    PolyFp,
    fq_inv,
    is_irreducible_fp,
    poly_factor_fp,
    residue_class_is_nth_power,
)
from .qpoly import PolyQ, factor_q, is_irreducible_q, is_square_mod


@dataclass(frozen=True)
class FFPlace:
    """A geometric place of k(x): a monic irreducible polynomial over k, or
    the degree place at infinity (pi is None). char is p for F_p and 0 for Q.
    """

    char: int
    pi: PolyFp | PolyQ | None

    def __post_init__(self):
        if self.pi is None:
            if self.char != 0 and not is_prime(self.char):
                raise ValueError("char must be 0 (for Q) or a prime")
            return
        if isinstance(self.pi, PolyFp):
            if self.char != self.pi.p:
                raise ValueError("char does not match the polynomial")
            if not self.pi.is_monic() or not is_irreducible_fp(self.pi):
                raise ValueError(f"{self.pi} is not monic irreducible over F_{self.char}")
        elif isinstance(self.pi, PolyQ):
            if self.char != 0:
                raise ValueError("char does not match the polynomial")
            if not self.pi.is_monic() or not is_irreducible_q(self.pi):
                raise ValueError(f"{self.pi} is not monic irreducible over Q")
        else:
            raise TypeError("pi must be PolyFp, PolyQ, or None")

    @classmethod
    def finite(cls, pi: PolyFp | PolyQ) -> "FFPlace":
        return cls(pi.p if isinstance(pi, PolyFp) else 0, pi)

    @classmethod
    def _from_factor(cls, pi: PolyFp | PolyQ) -> "FFPlace":
        """The finite place of a monic irreducible that a factorizer has just
        produced; skips the irreducibility test that the constructor runs."""
        place = object.__new__(cls)
        object.__setattr__(place, "char", pi.p if isinstance(pi, PolyFp) else 0)
        object.__setattr__(place, "pi", pi)
        return place

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


@dataclass(frozen=True)
class RationalFunction:
    """An element of k(x) in reduced form: gcd(num, den) = 1, den monic."""

    num: PolyFp | PolyQ
    den: PolyFp | PolyQ

    def __post_init__(self):
        num, den = self.num, self.den
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
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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
        out = RationalFunction.of(self.num._like((1,)))
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

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
            return model.residue_at(FFPlace._from_factor(self.num._like((0, 1))))
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


def _valuation_and_unit(f: RationalFunction, pi) -> tuple[int, object]:
    """(v, u mod pi) for a nonzero f = pi^v * u with u a unit at pi."""
    vn, n = _split_off(f.num, pi)
    if f.den.is_constant():  # den is monic, so this is den = 1
        return vn, n
    vd, d = _split_off(f.den, pi)
    return vn - vd, n * fq_inv(d, pi) % pi


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
            place = FFPlace._from_factor(pi)
            vals[place] = vals.get(place, 0) + sign * mult

    absorb(f.num, 1)
    absorb(f.den, -1)
    vinf = f.den.degree - f.num.degree
    if vinf:
        vals[FFPlace.infinity(f.char)] = vinf
    out = [(place, v) for place, v in vals.items() if v != 0]
    out.sort(key=lambda t: t[0].sort_key())
    return out


@dataclass(frozen=True)
class SymbolAlgebraFF:
    """The degree-n symbol algebra (a, b) over k(x), n prime to char k."""

    n: int
    a: RationalFunction
    b: RationalFunction

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("symbol degree must be at least 2")
        if self.a.char != self.b.char:
            raise ValueError("entries over different base fields")
        if self.a.is_zero() or self.b.is_zero():
            raise ZeroValuationError("symbol entries must be nonzero")
        if self.char > 0 and math.gcd(self.n, self.char) != 1:
            raise UnsupportedFieldError(
                f"degree {self.n} not prime to characteristic {self.char}"
            )

    @property
    def char(self) -> int:
        return self.a.char

    def __str__(self) -> str:
        k = f"F{self.char}" if self.char else "Q"
        return f"({self.a}, {self.b}; n={self.n}, k={k})"


@dataclass(frozen=True)
class TameResidue:
    """Residue data of a symbol algebra at one place.

    ``ramified`` is a proven verdict. ``residue_class`` is the tame-symbol
    image in the residue field (a polynomial of degree < deg pi, or a
    base-field constant at infinity and at degree-1 places over Q).
    ``certainty`` is a constant that ``bench/function_fields.py`` still reads.
    """

    place: FFPlace
    residue_class: object
    ramified: bool
    certainty = "proven"


def tame_symbol(D: SymbolAlgebraFF, w: FFPlace) -> RationalFunction:
    """(-1)^(v(a)v(b)) a^(v(b)) b^(-v(a)), a unit at w."""
    if w.is_infinite:
        a = D.a.at_infinity_model()
        b = D.b.at_infinity_model()
        w = FFPlace._from_factor(a.num._like((0, 1)))
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

    The residue (-1)^(v_a v_b) u_a^(v_b) u_b^(-v_a) is formed in k[x]/(pi)
    from the valuations v and the unit parts u of the entries at pi; it
    equals ``tame_symbol(D, w).residue_at(w)``. At the degree place the
    entries are read through x -> 1/x, with pi = x. Over Q(x) squareness is
    decided exactly: by ``is_rational_square`` where the residue field is Q,
    by Trager's norm method (``qpoly.is_square_mod``) above degree 1.
    """
    if w.char != D.char:
        raise ValueError("place and algebra live over different base fields")
    if w.is_infinite:
        a, b = D.a.at_infinity_model(), D.b.at_infinity_model()
        pi = a.num._like((0, 1))
    else:
        a, b, pi = D.a, D.b, w.pi
    va, ua = _valuation_and_unit(a, pi)
    vb, ub = _valuation_and_unit(b, pi)
    residue = ua.pow_mod(vb, pi) * ub.pow_mod(-va, pi) % pi
    if va * vb % 2:
        residue = -residue
    if D.char > 0:
        ramified = not residue_class_is_nth_power(residue, pi, D.n)
    elif D.n != 2:
        raise UnsupportedFieldError("over Q(x) only degree-2 symbols are supported")
    elif pi.degree == 1:
        residue = residue.constant_value()
        ramified = not is_rational_square(residue)
    else:
        ramified = not is_square_mod(residue, pi)
    return TameResidue(w, residue, ramified)


def residues(D: SymbolAlgebraFF) -> list[TameResidue]:
    """The residue at every candidate place: the places dividing an entry,
    and the degree place.

    Outside them both entries are units and the tame symbol is 1, so a place
    missing from the list is provably unramified.
    """
    places = {p for p, _ in places_of(D.a)} | {p for p, _ in places_of(D.b)}
    places.add(FFPlace.infinity(D.char))
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


@dataclass(frozen=True)
class FFGenusBound:
    """Genus-size bound |nBr(K)_V| * phi(n)^r for a symbol algebra over k(x).

    The unramified factor is 1 on both supported base fields. Over F_p(x),
    Faddeev's exact sequence sends every class unramified at all places,
    infinity included, to Br(F_p) = 0. Over Q(x) with n = 2, quaternion
    algebras over Q have trivial genus, and the Stability Theorem of
    Rapinchuk-Rapinchuk carries that to Q(x). ``unresolved`` is an empty
    constant that ``bench/function_fields.py`` still reads.
    """

    bound: int
    unramified_order: int
    phi_factor: int
    n: int
    r: int
    ramified: tuple[FFPlace, ...]
    unresolved = ()


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
