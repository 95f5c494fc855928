"""Quaternion algebras (a,b) over Q: ramification sets, isomorphism tests,
the quadratic-subfield embedding criterion, the weak-approximation
distinguisher, and enumeration of classes unramified outside a finite set.

Everything rests on the local-global principle for quaternion classes: a
class is determined by the finite, even-sized set of places where it stays
nonsplit, and the sum of its local invariants vanishes (Hilbert reciprocity).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import (
    SplitAlgebraError,
    WitnessSearchExhausted,
    ZeroValuationError,
)
from .exactarith import factor, is_rational_square, squarefree_part
from .localsymbols import REAL_PLACE, PlaceQ, hilbert, square_class


@dataclass(frozen=True)
class QuaternionQ:
    """The quaternion algebra (a, b) over Q: i^2 = a, j^2 = b, ij = -ji.

    The pair is a presentation, not a canonical form; two different pairs
    may well present isomorphic algebras.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.a == 0 or self.b == 0:
            raise ZeroValuationError("quaternion entries must be nonzero")

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


@dataclass(frozen=True)
class RamificationSet:
    """The finite set of places where a quaternion class is nonsplit.

    Hilbert reciprocity forces even cardinality, which the constructor
    enforces as a sanity check on its callers.
    """

    places: tuple[PlaceQ, ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.places)))
        if len(ordered) % 2:
            raise ValueError(
                "a ramification set has even size (reciprocity violated?)"
            )
        object.__setattr__(self, "places", ordered)

    def __iter__(self):
        return iter(self.places)

    def __len__(self) -> int:
        return len(self.places)

    def __contains__(self, v: PlaceQ) -> bool:
        return v in self.places

    def is_empty(self) -> bool:
        return not self.places

    def __str__(self) -> str:
        return "{" + ", ".join(str(v) for v in self.places) + "}"


def candidate_places(D: QuaternionQ) -> list[PlaceQ]:
    """Finite superset of the ramification set: primes dividing either entry,
    together with 2 and the real place (everywhere else both entries are
    odd-prime units, where the symbol splits)."""
    primes = {2}
    for q in (D.a, D.b):
        primes.update(factor(q.numerator).primes())
        primes.update(factor(q.denominator).primes())
    places = [PlaceQ.finite(p) for p in sorted(primes)]
    places.append(REAL_PLACE)
    return places


def ramification_set(D: QuaternionQ) -> RamificationSet:
    """All places v with (a,b) nonsplit over Q_v."""
    ram = [v for v in candidate_places(D) if hilbert(D.a, D.b, v) == -1]
    return RamificationSet(tuple(ram))


def is_division(D: QuaternionQ) -> bool:
    """A quaternion algebra is division iff it is nonsplit somewhere."""
    return not ramification_set(D).is_empty()


def is_isomorphic(D1: QuaternionQ, D2: QuaternionQ) -> bool:
    """Quaternion algebras over Q are isomorphic iff their ramification sets
    agree (local-global determination of the class, plus equal dimension)."""
    return ramification_set(D1) == ramification_set(D2)


@dataclass(frozen=True)
class QuadraticField:
    """Q(sqrt(d)), stored as the squarefree integer representative of the
    square class of d; d = 1 (a rational square) is rejected."""

    d: int

    def __post_init__(self):
        if self.d == 0:
            raise ZeroValuationError("0 does not define a quadratic field")
        if factor(self.d).squarefree_part() != self.d:
            raise ValueError(f"{self.d} is not squarefree")
        if self.d == 1:
            raise ValueError("d = 1 gives Q, not a quadratic field")

    @classmethod
    def from_rational(cls, q: Fraction | int) -> "QuadraticField":
        q = Fraction(q)
        if q == 0:
            raise ZeroValuationError("0 does not define a quadratic field")
        if is_rational_square(q):
            raise ValueError(f"{q} is a rational square; Q(sqrt) is just Q")
        return cls(squarefree_part(q))

    def __str__(self) -> str:
        return f"Q(sqrt({self.d}))"


def embeds(field: QuadraticField, D: QuaternionQ) -> bool:
    """Does Q(sqrt(d)) embed into the division algebra D?

    Local-global criterion: yes iff d is a nonsquare in Q_v at every place v
    where D is nonsplit. Raises SplitAlgebraError for split D, where the
    question degenerates (everything embeds in the matrix algebra).
    """
    ram = ramification_set(D)
    if ram.is_empty():
        raise SplitAlgebraError(f"{D} is split; embedding criterion needs division")
    return all(not square_class(field.d, v).is_identity() for v in ram)


_SIEVE_BLOCK = 1 << 16


def _squarefree_candidates(limit: int):
    """Squarefree d ordered by |d|, positive before negative, skipping 1.

    A segmented sieve: each block [lo, hi) crosses out the multiples of q^2
    for 2 <= q <= sqrt(hi - 1). Blocks double in width up to 2^16, so an
    early witness costs a small block and memory stays bounded for any limit.
    """
    yield -1
    lo, width = 2, 64
    while lo <= limit:
        hi = min(lo + width, limit + 1)
        free = bytearray(b"\x01") * (hi - lo)
        for q in range(2, isqrt(hi - 1) + 1):
            q2 = q * q
            start = -lo % q2
            free[start::q2] = bytes(len(range(start, hi - lo, q2)))
        for n in itertools.compress(range(lo, hi), free):
            yield n
            yield -n
        lo, width = hi, min(2 * width, _SIEVE_BLOCK)


def distinguishing_field(
    D1: QuaternionQ, D2: QuaternionQ, max_witness: int = 10**6
) -> QuadraticField | None:
    """A quadratic field embedding into exactly one of two division algebras.

    Returns None when the ramification sets agree (the classes coincide, so
    no quadratic field can tell them apart). Otherwise picks the smallest
    place v0 in the symmetric difference and searches squarefree d, ordered
    by |d| with positive first, that is a local square at v0 and a nonsquare
    at every ramified place of the other algebra; the result is re-verified
    through ``embeds`` before being returned.
    """
    r1, r2 = ramification_set(D1), ramification_set(D2)
    if r1.is_empty() or r2.is_empty():
        raise SplitAlgebraError("both algebras must be division")
    if r1 == r2:
        return None
    diff = sorted(set(r1.places) ^ set(r2.places))
    v0 = diff[0]
    other = r2 if v0 in r1 else r1
    for d in _squarefree_candidates(max_witness):
        if not square_class(d, v0).is_identity():
            continue
        if any(square_class(d, v).is_identity() for v in other):
            continue
        field = QuadraticField(d)
        e1, e2 = embeds(field, D1), embeds(field, D2)
        if e1 == e2:  # pragma: no cover - the criterion above rules this out
            raise ArithmeticError("witness failed self-verification")
        return field
    raise WitnessSearchExhausted(
        f"no witness with |d| <= {max_witness} for {D1} vs {D2}"
    )


def enumerate_unramified(S) -> list[RamificationSet]:
    """All quaternion classes over Q unramified outside S, listed by their
    ramification sets: exactly the even-sized subsets of S.

    S must contain the real place and at least one more place; the count is
    2^(|S|-1) (the kernel of the summed invariant map on S).
    """
    places = sorted(set(S))
    if REAL_PLACE not in places:
        raise ValueError("S must contain the real place")
    if len(places) < 2:
        raise ValueError("S must contain at least two places")
    out = []
    for size in range(0, len(places) + 1, 2):
        for combo in itertools.combinations(places, size):
            out.append(RamificationSet(combo))
    return out
