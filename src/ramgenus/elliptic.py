"""Genus bound for quaternion algebras over the function field of a split
elliptic curve y^2 = (x-a)(x-b)(x-c) over Q.

The bound is 2^(|S|-t) * |2Cl_S|^2 * |U_S/U_S^2|^2 where S is a finite set of
places containing the real place, the places over 2 and over the cubic
discriminant, and every prime where a coefficient fails to be integral;
t = 1 + (number of complex places). Over Q the S-class group is trivial and
U_S = {±1} x Z^(#finite S), so every factor is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import RamgenusError
from .exactarith import factor, valuation
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


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + alpha x^2 + beta x + gamma with three distinct rational
    roots (the split hypothesis is verified, never assumed)."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    roots: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        rts = tuple(sorted(Fraction(r) for r in self.roots))
        object.__setattr__(self, "roots", rts)
        a, b, c = rts
        if len({a, b, c}) != 3:
            raise NotSplitError("roots must be pairwise distinct")
        if (
            self.alpha != -(a + b + c)
            or self.beta != a * b + a * c + b * c
            or self.gamma != -a * b * c
        ):
            raise NotSplitError("coefficients do not match the stated roots")

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


@dataclass(frozen=True)
class ExceptionalSet:
    """The finite place set S with per-place provenance tags."""

    places: tuple[PlaceQ, ...]
    provenance: tuple[tuple[PlaceQ, str], ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.places)))
        object.__setattr__(self, "places", ordered)
        if REAL_PLACE not in ordered:
            raise ValueError("S must contain the real place")

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
    delta = curve.discriminant()
    if delta == 0:
        raise NotSplitError("discriminant is zero; the curve is not elliptic")
    tags: dict[PlaceQ, str] = {REAL_PLACE: ARCHIMEDEAN}

    def add(v: PlaceQ, tag: str) -> None:
        tags.setdefault(v, tag)

    add(PlaceQ.finite(2), DIVIDES_TWO)
    for p in sorted(
        set(factor(delta.numerator).primes()) | set(factor(delta.denominator).primes())
    ):
        add(PlaceQ.finite(p), DIVIDES_DISCRIMINANT)
    denom_primes: set[int] = set()
    for coeff in (curve.alpha, curve.beta, curve.gamma):
        if coeff != 0:
            denom_primes.update(
                p for p in factor(coeff.denominator).primes() if valuation(coeff, p) < 0
            )
    for p in sorted(denom_primes):
        add(PlaceQ.finite(p), NEGATIVE_COEFFICIENT_VALUATION)
    for v in extra:
        add(v, USER_ADDED)
    places = tuple(sorted(tags))
    return ExceptionalSet(places, tuple(sorted(tags.items(), key=lambda t: t[0])))


def two_class_group_order(S: ExceptionalSet) -> int:
    """|2Cl_S(Q)|: the class group of any ring of S-integers of Q is trivial."""
    return 1


def s_unit_square_classes(S: ExceptionalSet) -> int:
    """|U_S/U_S^2| over Q: one sign class plus one generator per finite prime
    in S, so 2^(1 + #finite)."""
    return 2 ** (1 + S.finite_count)


@dataclass(frozen=True)
class GenusBoundReport:
    """The assembled bound with the provenance of each factor.

    bound = two_power * cl_factor * unit_factor, with
    two_power = 2^(|S|-t), cl_factor = |2Cl_S|^2, unit_factor = |U_S/U_S^2|^2,
    and t = c + 1 where c counts complex places (c = 0 over Q).
    """

    bound: int
    two_power: int
    cl_factor: int
    unit_factor: int
    S: ExceptionalSet
    t: int
    c: int

    def __post_init__(self):
        if self.bound != self.two_power * self.cl_factor * self.unit_factor:
            raise ValueError("factors do not multiply to the bound")
        if self.t != self.c + 1:
            raise ValueError("t must equal c + 1")


def elliptic_genus_bound(curve: WeierstrassCurve, extra=()) -> GenusBoundReport:
    """Bound for the genus of a quaternion division algebra over the function
    field of the split curve, via the order of the unramified 2-torsion."""
    S = build_S(curve, extra)
    c = 0  # Q has one real embedding and no complex places
    t = c + 1
    two_power = 2 ** (len(S) - t)
    cl = two_class_group_order(S)
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
