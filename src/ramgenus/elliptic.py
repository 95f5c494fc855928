"""Genus bound for quaternion algebras over the function field of a split
elliptic curve y^2 = (x-a)(x-b)(x-c) over Q.

The bound is 2^(|S|-t) * |2Cl_S|^2 * |U_S/U_S^2|^2 where S is a finite set of
places containing the real place, the places over 2 and over the cubic
discriminant, and every prime where a coefficient fails to be integral;
t = 1 + (number of complex places). Over Q the S-class group is trivial and
U_S = {±1} x Z^(#finite S), so every factor is explicit.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .errors import RamgenusError
from .exactarith import factor
from .localsymbols import REAL_PLACE, PlaceQ
from .qpoly import PolyQ, rational_roots

ARCHIMEDEAN = "archimedean"
DIVIDES_TWO = "divides-two"
DIVIDES_DISCRIMINANT = "divides-discriminant"
NEGATIVE_COEFFICIENT_VALUATION = "negative-coefficient-valuation"
USER_ADDED = "user-added"


class NotSplitError(RamgenusError, ValueError):
    """The cubic does not have three distinct rational roots."""


def cubic_discriminant(alpha, beta, gamma) -> Fraction:
    """Discriminant of x^3 + alpha x^2 + beta x + gamma; for a split cubic it
    equals the squared product of root differences."""
    a, b, c = Fraction(alpha), Fraction(beta), Fraction(gamma)
    return (
        18 * a * b * c - 4 * a**3 * c + a**2 * b**2 - 4 * b**3 - 27 * c**2
    )


class WeierstrassCurve(Value):
    """y^2 = x^3 + alpha x^2 + beta x + gamma with three distinct rational
    roots (the split hypothesis is verified, never assumed)."""

    __slots__ = ("alpha", "beta", "gamma", "roots")

    def __init__(self, alpha: Fraction, beta: Fraction, gamma: Fraction,
                 roots: tuple[Fraction, Fraction, Fraction]):
        alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
        rts = tuple(sorted(Fraction(r) for r in roots))
        a, b, c = rts
        if len({a, b, c}) != 3:
            raise NotSplitError("roots must be pairwise distinct")
        if alpha != -(a + b + c) or beta != a * b + a * c + b * c or gamma != -a * b * c:
            raise NotSplitError("coefficients do not match the stated roots")
        self._set(alpha, beta, gamma, rts)

    @classmethod
    def from_roots(cls, a, b, c) -> "WeierstrassCurve":
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        return cls(-(a + b + c), a * b + a * c + b * c, -a * b * c, (a, b, c))

    @classmethod
    def from_coefficients(cls, alpha, beta, gamma) -> "WeierstrassCurve":
        alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
        f = PolyQ.of([gamma, beta, alpha, 1])
        roots = rational_roots(f)
        if len(roots) != 3:
            raise NotSplitError(
                f"x^3 + {alpha} x^2 + {beta} x + {gamma} does not split over Q"
            )
        return cls(alpha, beta, gamma, (roots[0], roots[1], roots[2]))

    def discriminant(self) -> Fraction:
        return cubic_discriminant(self.alpha, self.beta, self.gamma)

    def __str__(self) -> str:
        f = PolyQ.of([self.gamma, self.beta, self.alpha, 1])
        return f"y^2 = {f}"


class ExceptionalSet(Value):
    """The finite place set S with per-place provenance tags."""

    __slots__ = ("places", "provenance")

    def __init__(self, places: tuple[PlaceQ, ...], provenance: tuple[tuple[PlaceQ, str], ...]):
        ordered = tuple(sorted(set(places)))
        if REAL_PLACE not in ordered:
            raise ValueError("S must contain the real place")
        self._set(ordered, provenance)

    def __iter__(self):
        return iter(self.places)

    def __len__(self) -> int:
        return len(self.places)

    @property
    def finite_count(self) -> int:
        return sum(1 for v in self.places if not v.is_infinite)

    def tag(self, v: PlaceQ) -> str:
        return dict(self.provenance)[v]

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.places) + "}"


def build_S(curve: WeierstrassCurve, extra=()) -> ExceptionalSet:
    """The minimal S for the curve, union any user-supplied places.

    Membership rules, in provenance precedence order: the real place; places
    over 2; places where the discriminant has nonzero valuation; places where
    some coefficient has negative valuation; user-added places.
    """
    delta = curve.discriminant()  # nonzero: the roots are distinct
    tags = {REAL_PLACE: ARCHIMEDEAN, PlaceQ.finite(2): DIVIDES_TWO}
    for p in sorted(
        set(factor(delta.numerator).primes()) | set(factor(delta.denominator).primes())
    ):
        tags.setdefault(PlaceQ.finite(p), DIVIDES_DISCRIMINANT)
    denom_primes: set[int] = set()
    for coeff in (curve.alpha, curve.beta, curve.gamma):
        denom_primes.update(factor(coeff.denominator).primes())
    for p in sorted(denom_primes):
        tags.setdefault(PlaceQ.finite(p), NEGATIVE_COEFFICIENT_VALUATION)
    for v in extra:
        tags.setdefault(v, USER_ADDED)
    places = tuple(sorted(tags))
    return ExceptionalSet(places, tuple(sorted(tags.items(), key=lambda t: t[0])))


def s_unit_square_classes(S: ExceptionalSet) -> int:
    """|U_S/U_S^2| over Q: one sign class plus one generator per finite prime
    in S, so 2^(1 + #finite)."""
    return 2 ** (1 + S.finite_count)


class GenusBoundReport(Value):
    """The assembled bound with the provenance of each factor.

    bound = two_power * cl_factor * unit_factor, with
    two_power = 2^(|S|-t), cl_factor = |2Cl_S|^2, unit_factor = |U_S/U_S^2|^2,
    and t = c + 1 where c counts complex places (c = 0 over Q).
    """

    __slots__ = ("bound", "two_power", "cl_factor", "unit_factor", "S", "t", "c")

    def __init__(self, bound: int, two_power: int, cl_factor: int, unit_factor: int,
                 S: ExceptionalSet, t: int, c: int):
        if bound != two_power * cl_factor * unit_factor:
            raise ValueError("factors do not multiply to the bound")
        if t != c + 1:
            raise ValueError("t must equal c + 1")
        self._set(bound, two_power, cl_factor, unit_factor, S, t, c)


def elliptic_genus_bound(curve: WeierstrassCurve, extra=()) -> GenusBoundReport:
    """Bound for the genus of a quaternion division algebra over the function
    field of the split curve, via the order of the unramified 2-torsion."""
    S = build_S(curve, extra)
    c = 0  # Q has one real embedding and no complex places
    t = c + 1
    two_power = 2 ** (len(S) - t)
    cl = 1  # |2Cl_S|: the class group of any ring of S-integers of Q is trivial
    units = s_unit_square_classes(S)
    return GenusBoundReport(
        bound=two_power * cl**2 * units**2,
        two_power=two_power,
        cl_factor=cl**2,
        unit_factor=units**2,
        S=S,
        t=t,
        c=c,
    )
