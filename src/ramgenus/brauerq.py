"""Quaternion algebras (a,b) over Q: ramification sets, isomorphism tests,
the quadratic-subfield embedding criterion, the weak-approximation
distinguisher, and enumeration of classes unramified outside a finite set.

Everything rests on the local-global principle for quaternion classes: a
class is determined by the finite, even-sized set of places where it stays
nonsplit, and the sum of its local invariants vanishes (Hilbert reciprocity).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import isqrt

from ._value import Value
from .errors import (
    SplitAlgebraError,
    WitnessSearchExhausted,
    ZeroValuationError,
)
from .exactarith import factor, is_rational_square, squarefree_part
from .localsymbols import REAL_PLACE, PlaceQ, hilbert, is_local_square


class QuaternionQ(Value):
    """The quaternion algebra (a, b) over Q: i^2 = a, j^2 = b, ij = -ji.

    The pair is a presentation, not a canonical form; two different pairs
    may well present isomorphic algebras.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        a, b = Fraction(a), Fraction(b)
        if a == 0 or b == 0:
            raise ZeroValuationError("quaternion entries must be nonzero")
        self._set(a, b)

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


class RamificationSet(Value):
    """The finite set of places where a quaternion class is nonsplit.

    Hilbert reciprocity forces even cardinality, which the constructor
    enforces as a sanity check on its callers.
    """

    __slots__ = ("places",)

    def __init__(self, places: tuple[PlaceQ, ...]):
        ordered = tuple(sorted(set(places)))
        if len(ordered) % 2:
            raise ValueError(
                "a ramification set has even size (reciprocity violated?)"
            )
        self._set(ordered)

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
    # factor has certified each p, so the places skip the primality test
    places = [PlaceQ._new(p) for p in sorted(primes)]
    places.append(REAL_PLACE)
    return places


@functools.lru_cache(maxsize=1024)
def ramification_set(D: QuaternionQ) -> RamificationSet:
    """All places v with (a,b) nonsplit over Q_v.

    Memoized on the algebra's value, so ``embeds``, ``is_isomorphic`` and
    ``distinguishing_field`` asking again about an equal algebra reuse one
    set; a call that raises is not cached.
    """
    ram = [v for v in candidate_places(D) if hilbert(D.a, D.b, v) == -1]
    return RamificationSet(tuple(ram))


def is_division(D: QuaternionQ) -> bool:
    """A quaternion algebra is division iff it is nonsplit somewhere."""
    return not ramification_set(D).is_empty()


def is_isomorphic(D1: QuaternionQ, D2: QuaternionQ) -> bool:
    """Quaternion algebras over Q are isomorphic iff their ramification sets
    agree (local-global determination of the class, plus equal dimension)."""
    return ramification_set(D1) == ramification_set(D2)


class QuadraticField(Value):
    """Q(sqrt(d)), stored as the squarefree integer representative of the
    square class of d; d = 1 (a rational square) is rejected."""

    __slots__ = ("d",)

    def __init__(self, d: int):
        if d == 0:
            raise ZeroValuationError("0 does not define a quadratic field")
        if factor(d).squarefree_part() != d:
            raise ValueError(f"{d} is not squarefree")
        if d == 1:
            raise ValueError("d = 1 gives Q, not a quadratic field")
        self._set(d)

    @classmethod
    def from_rational(cls, q: Fraction | int) -> "QuadraticField":
        q = Fraction(q)
        if q == 0:
            raise ZeroValuationError("0 does not define a quadratic field")
        if is_rational_square(q):
            raise ValueError(f"{q} is a rational square; Q(sqrt) is just Q")
        # squarefree by construction, and not 1 as q is no square
        return cls._new(squarefree_part(q))

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
    return all(not is_local_square(field.d, v) for v in ram)


_SIEVE_BLOCK = 1 << 16
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_KEPT = bytes.maketrans(b"\x02\x03", b"\x01\x01")


def _class_patterns(v: PlaceQ, square: bool) -> tuple[int, bytes, bytes]:
    """(period, plus, minus) for the class of squares in Q_v, or of
    nonsquares when ``square`` is false: byte r of plus (of minus) is 1 when
    d = n (d = -n) lies in the class for every squarefree n = r modulo the
    period. The period is 1 at the real place, 8 at 2 (a squarefree d is a
    2-adic square iff d = 1 mod 8) and p at an odd prime (iff d is a nonzero
    square mod p)."""
    p = v.p
    if p is None:
        plus, minus = b"\x01", b"\x00"
    elif p == 2:
        plus, minus = (bytes(sign * r % 8 == 1 for r in range(8)) for sign in (1, -1))
    else:
        squares = bytearray(p)
        for x in range(1, (p + 1) // 2):
            squares[x * x % p] = 1
        plus, minus = bytes(squares), bytes(squares[:1] + squares[:0:-1])
    if not square:
        plus, minus = plus.translate(_FLIP), minus.translate(_FLIP)
    return len(plus), plus, minus


def _squarefree_candidates(limit: int, wanted=()):
    """Squarefree d with |d| <= limit, ordered by |d|, positive before
    negative, skipping 1 (none when limit < 1), less those that the sieve
    finds outside a wanted local class: ``wanted`` holds pairs (v, square),
    asking for d to be a square in Q_v or a nonsquare there.

    A segmented sieve: each block [lo, hi) crosses out the multiples of q^2
    for 2 <= q <= sqrt(hi - 1). Blocks double in width up to 2^16, so an
    early witness costs a small block and memory stays bounded for any limit.
    A wanted class at the real place, at 2, or at an odd prime below the
    block width is a byte pattern periodic in n (``_class_patterns``), tiled
    across the block and ANDed in as an integer, once for d = n and once for
    d = -n. Classes at larger primes, and d = -1, are left to the caller's
    exact tests.
    """
    if limit < 1:
        return
    yield -1
    pending = sorted(wanted, key=lambda item: item[0].p or 1, reverse=True)
    patterns, tiles = [], []
    lo, width, tiled = 2, 64, 0
    while lo <= limit:
        hi = min(lo + width, limit + 1)
        size = hi - lo
        free = bytearray(b"\x01") * size
        for q in range(2, isqrt(hi - 1) + 1):
            q2 = q * q
            start = -lo % q2
            free[start::q2] = bytes(len(range(start, size, q2)))
        if tiled < width:
            # widths only grow: each pattern is tiled once per width, as an
            # int covering a block and one period, and shifted per block
            while pending and (pending[-1][0].p or 1) < width:
                patterns.append(_class_patterns(*pending.pop()))
            tiles = []
            for period, plus, minus in patterns:
                reps = width // period + 2
                plus, minus = plus * reps, minus * reps
                tiles.append((period, int.from_bytes(plus, "little"), int.from_bytes(minus, "little")))
            tiled = width
        pos = neg = int.from_bytes(free, "little")
        for period, plus, minus in tiles:
            shift = 8 * (lo % period)
            pos &= plus >> shift
            neg &= minus >> shift
        # byte i: bit 0 keeps d = lo + i, bit 1 keeps d = -(lo + i); found
        # by bytes.find, as survivors are sparse once the classes bite
        flags = (pos | neg << 1).to_bytes(size, "little")
        kept = flags.translate(_KEPT)
        i = kept.find(1)
        while i >= 0:
            if flags[i] & 1:
                yield lo + i
            if flags[i] & 2:
                yield -(lo + i)
            i = kept.find(1, i + 1)
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
    through ``embeds`` before being returned. The candidates come from a
    sieve on these local classes (``_squarefree_candidates``); each survivor
    is tested exactly here, so the sieve changes which d are tested, never
    which one is returned.
    """
    r1, r2 = ramification_set(D1), ramification_set(D2)
    if r1.is_empty() or r2.is_empty():
        raise SplitAlgebraError("both algebras must be division")
    if r1 == r2:
        return None
    diff = sorted(set(r1.places) ^ set(r2.places))
    v0 = diff[0]
    other = r2 if v0 in r1 else r1
    wanted = [(v0, True)] + [(v, False) for v in other]
    for d in _squarefree_candidates(max_witness, wanted):
        if not is_local_square(d, v0):
            continue
        if any(is_local_square(d, v) for v in other):
            continue
        field = QuadraticField._new(d)  # the sieve yields squarefree d != 0, 1
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
    combos = list(
        itertools.chain.from_iterable(
            itertools.combinations(places, size) for size in range(0, len(places) + 1, 2)
        )
    )
    # combinations of a sorted list stay sorted: the classes need no checks
    return RamificationSet._new_many(combos)
