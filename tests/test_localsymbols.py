import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramgenus.errors import ZeroValuationError
from ramgenus.exactarith import factor, legendre
from ramgenus.localsymbols import (
    REAL_PLACE,
    LocalInvariant,
    PlaceQ,
    _oracle_search,
    _projective_points,
    hilbert,
    hilbert_oracle,
    invariant,
    is_local_square,
    square_class,
)


def random_rational(rng, height=50):
    while True:
        n = rng.randint(-height, height)
        if n:
            return Fraction(n, rng.randint(1, height))


def support_places(*values):
    primes = {2}
    for q in values:
        primes.update(factor(q.numerator).primes())
        primes.update(factor(q.denominator).primes())
    return [PlaceQ.finite(p) for p in sorted(primes)] + [REAL_PLACE]


class TestPlaceQ:
    def test_ordering(self):
        places = [REAL_PLACE, PlaceQ.finite(5), PlaceQ.finite(2)]
        assert sorted(places) == [PlaceQ.finite(2), PlaceQ.finite(5), REAL_PLACE]

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PlaceQ.finite(6)


class TestSquareClass:
    def test_ten_is_square_in_q3(self):
        assert square_class(10, PlaceQ.finite(3)).is_identity()
        assert is_local_square(10, PlaceQ.finite(3))

    def test_ten_not_square_in_q2(self):
        assert not square_class(10, PlaceQ.finite(2)).is_identity()

    def test_global_square_everywhere(self):
        for v in (PlaceQ.finite(2), PlaceQ.finite(3), PlaceQ.finite(7), REAL_PLACE):
            assert square_class(4, v).is_identity()

    def test_representatives(self):
        assert square_class(10, PlaceQ.finite(2)).representative() == 10
        assert square_class(-1, PlaceQ.finite(2)).representative() == -1
        assert square_class(18, PlaceQ.finite(3)).representative() == 2
        assert square_class(-5, REAL_PLACE).representative() == -1
        # odd p, nonresidue unit times p
        assert square_class(6, PlaceQ.finite(3)).representative() == 6  # 2 * 3

    def test_dyadic_labels_cover_the_eight_classes(self):
        two = PlaceQ.finite(2)
        labels = {
            square_class(a, two).representative()
            for a in (1, -1, 2, -2, 5, -5, 10, -10)
        }
        assert labels == {1, -1, 2, -2, 5, -5, 10, -10}
        # 6 = 2 * 3 and -10 = 2 * (-5) share a class: 3 = -5 mod 8
        assert square_class(6, two).representative() == -10

    def test_label_is_in_its_own_class(self):
        # the representative is a member of the class it names
        rng = random.Random(127)
        for _ in range(200):
            a = random_rational(rng)
            for v in support_places(a):
                rep = square_class(a, v).representative()
                assert square_class(Fraction(rep), v) == square_class(a, v)

    def test_class_of_product_is_product_of_classes(self):
        rng = random.Random(41)
        for _ in range(300):
            a, b = random_rational(rng), random_rational(rng)
            for v in support_places(a, b):
                cls_ab = square_class(a * b, v)
                assert cls_ab == square_class(a, v) * square_class(b, v)
        with pytest.raises(ValueError, match="different places"):
            square_class(2, PlaceQ.finite(3)) * square_class(2, PlaceQ.finite(5))

    def test_zero_rejected(self):
        with pytest.raises(ZeroValuationError):
            square_class(0, REAL_PLACE)


class TestHilbert:
    def test_worked_quaternion_pair(self):
        # (-1, 3) is nonsplit exactly at 2 and 3
        for p, expected in ((2, -1), (3, -1), (5, 1), (7, 1), (11, 1)):
            assert hilbert(-1, 3, PlaceQ.finite(p)) == expected
        assert hilbert(-1, 3, REAL_PLACE) == 1
        # (-1, 7) is nonsplit exactly at 2 and 7
        for p, expected in ((2, -1), (3, 1), (5, 1), (7, -1), (11, 1)):
            assert hilbert(-1, 7, PlaceQ.finite(p)) == expected

    def test_one_splits(self):
        rng = random.Random(43)
        for _ in range(50):
            b = random_rational(rng)
            for v in support_places(b):
                assert hilbert(1, b, v) == 1

    def test_symmetric_and_bimultiplicative(self):
        rng = random.Random(47)
        for _ in range(200):
            a, b, c = (random_rational(rng, 30) for _ in range(3))
            for v in support_places(a, b, c):
                assert hilbert(a, b, v) == hilbert(b, a, v)
                assert hilbert(a, b * c, v) == hilbert(a, b, v) * hilbert(a, c, v)

    def test_unramified_outside_support(self):
        # tame splitting: odd p with v_p(a) = v_p(b) = 0 gives +1
        rng = random.Random(53)
        for _ in range(100):
            a, b = random_rational(rng), random_rational(rng)
            for p in (101, 103, 997):
                if a.numerator % p and a.denominator % p and b.numerator % p and b.denominator % p:
                    assert hilbert(a, b, PlaceQ.finite(p)) == 1

    def test_product_formula(self):
        rng = random.Random(59)
        for _ in range(300):
            a, b = random_rational(rng), random_rational(rng)
            prod = 1
            for v in support_places(a, b):
                prod *= hilbert(a, b, v)
            assert prod == 1

    @given(
        st.fractions(min_value=-200, max_value=200).filter(lambda q: q != 0),
        st.fractions(min_value=-200, max_value=200).filter(lambda q: q != 0),
        st.sampled_from([2, 3, 5, 7, 11]),
    )
    @settings(max_examples=150, deadline=None)
    def test_square_scaling_invariance(self, a, b, p):
        # the symbol only sees square classes
        v = PlaceQ.finite(p)
        assert hilbert(a, b, v) == hilbert(a * 9, b * Fraction(1, 4), v)


class TestOracle:
    def test_examples(self):
        assert hilbert_oracle(-1, 3, 3) == -1
        assert hilbert_oracle(1, 5, 7) == 1
        assert hilbert_oracle(7, 7, 7) == hilbert(7, 7, PlaceQ.finite(7))

    def test_rejects_non_prime(self):
        for p in (1, 4, 9, 15):
            with pytest.raises(ValueError, match=f"{p} is not prime"):
                hilbert_oracle(3, 5, p)

    def test_dyadic_flag(self):
        # p = 2 runs the mod-8 search with no flag
        v = PlaceQ.finite(2)
        for a, b in ((2, 3), (-1, -1), (3, 5), (-1, 3), (5, Fraction(1, 2))):
            assert hilbert_oracle(a, b, 2) == hilbert(a, b, v), (a, b)

    def test_agreement_at_any_valuation(self):
        # the search runs on the reduced entries, so no valuation is out of reach
        units = [Fraction(u) for u in (-7, -3, -1, 1, 2, 3, 5)]
        units += [Fraction(1, 3), Fraction(-5, 7), Fraction(11, 5)]
        for p in (2, 3, 5, 7):
            v = PlaceQ.finite(p)
            pu = [u for u in units if u.numerator % p and u.denominator % p]
            entries = [u * Fraction(p) ** e for u in pu for e in range(-9, 10)]
            for a in entries:
                for b in entries[::7]:
                    got = hilbert_oracle(a, b, p)
                    assert got == hilbert(a, b, v), (a, b, p)

    def test_entries_share_a_cache_entry_across_odd_valuations(self):
        # the search runs on reduced entries, so p^3 u and p u reach the same
        # cache key (the depth no longer grows with |v_p|)
        for p, u, b in ((3, 2, 5), (5, 2, 3), (7, 3, -1), (2, 3, 5)):
            before = _oracle_search.cache_info()
            first = hilbert_oracle(p**3 * u, b, p)
            mid = _oracle_search.cache_info()
            second = hilbert_oracle(p * u, b, p)
            after = _oracle_search.cache_info()
            assert first == second == hilbert(p * u, b, PlaceQ.finite(p))
            assert mid.currsize - before.currsize <= 1
            assert after.currsize == mid.currsize
            assert after.hits == mid.hits + 1

    def test_agreement_at_valuations_two_to_four(self):
        units = [Fraction(u) for u in (-7, -3, -1, 1, 3, 5, 7)]
        units += [Fraction(1, 3), Fraction(-5, 7), Fraction(11, 5)]
        for p in (2, 3, 5):
            v = PlaceQ.finite(p)
            pu = [u for u in units if u.numerator % p and u.denominator % p]
            deep = [u * Fraction(p) ** e for u in pu for e in (-4, -3, -2, 2, 3, 4)]
            shallow = [u * Fraction(p) ** e for u in pu for e in (-1, 0, 1)]
            for a in deep:
                for b in shallow + deep:
                    got = hilbert_oracle(a, b, p)
                    assert got == hilbert(a, b, v), (a, b, p)

    def test_agreement_small_grid(self):
        vals = [Fraction(n) for n in (-10, -5, -3, -2, -1, 1, 2, 3, 5, 10)]
        vals += [Fraction(1, 2), Fraction(-3, 4), Fraction(9, 5)]
        for p in (3, 5):
            v = PlaceQ.finite(p)
            for a in vals:
                for b in vals:
                    assert hilbert_oracle(a, b, p) == hilbert(a, b, v), (a, b, p)

    def test_agreement_dyadic_grid(self):
        vals = [Fraction(n) for n in (-6, -3, -2, -1, 1, 2, 3, 5, 6, 7)]
        v = PlaceQ.finite(2)
        for a in vals:
            for b in vals:
                assert hilbert_oracle(a, b, 2) == hilbert(a, b, v)

    def test_projective_points_one_per_scaling_class(self):
        for p in (2, 3, 5, 7):
            points = list(_projective_points(p))
            assert len(set(points)) == len(points) == p * p + p + 1
            for t in itertools.product(range(p), repeat=3):
                if any(t):
                    hits = [q for q in points
                            if any(tuple(u * c % p for c in q) == t for u in range(1, p))]
                    assert len(hits) == 1, (p, t)

    def test_agreement_at_large_primes(self):
        # (a, p) with a a nonresidue is -1: the search then runs to level 2
        for p in (101, 151, 307):
            v = PlaceQ.finite(p)
            seen = set()
            for a in (-1, 2, -2, 3, 5, 6, 7):
                for b in (p, -2 * p, 3, Fraction(1, p)):
                    got = hilbert_oracle(a, b, p)
                    assert got == hilbert(a, b, v), (a, b, p)
                    seen.add(got)
            assert seen == {1, -1}


    def test_agreement_with_both_entries_divisible_by_p(self):
        # (p a', p b') for every pair of units a', b' of either sign up to 4p
        for p in (2, 3, 5, 7):
            v = PlaceQ.finite(p)
            units = [s * u for u in range(1, 4 * p + 1) if u % p for s in (1, -1)]
            for ua in units:
                for ub in units:
                    a, b = p * ua, p * ub
                    assert hilbert_oracle(a, b, p) == hilbert(a, b, v), (a, b, p)

    @pytest.mark.parametrize("a, b, p", [(3 * 79, 5 * 79, 79), (2 * 151, 3 * 151, 151), (151, 151, 151)])
    def test_both_entries_divisible_by_p_at_once(self, a, b, p):
        _oracle_search.cache_clear()
        start = time.perf_counter()
        got = hilbert_oracle(a, b, p)
        assert time.perf_counter() - start < 0.5
        assert got == hilbert(a, b, PlaceQ.finite(p))


class TestInvariant:
    def test_hamilton_at_infinity(self):
        assert invariant(-1, -1, REAL_PLACE).value == Fraction(1, 2)

    def test_split_at_five(self):
        assert invariant(-1, 3, PlaceQ.finite(5)).value == 0

    def test_dyadic_matches_oracle(self):
        inv = invariant(2, 3, PlaceQ.finite(2))
        oracle = hilbert_oracle(2, 3, 2)
        assert (inv.value == 0) == (oracle == 1)

    def test_additive(self):
        half = LocalInvariant(Fraction(1, 2))
        zero = LocalInvariant(Fraction(0))
        assert (half + half).value == 0
        assert (half + zero).value == Fraction(1, 2)


# The Fraction path that the int kernel replaced, kept verbatim as a reference.


def _ref_strip(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _ref_local_split(q, p):
    n, d = q.numerator, q.denominator
    if n % p and d % p:
        return 0, n * d
    vn, n0 = _ref_strip(n, p)
    vd, d0 = _ref_strip(d, p)
    return vn - vd, n0 * d0


def _ref_eps(u):
    return (u - 1) // 2 % 2


def _ref_omega(u):
    return (u * u - 1) // 8 % 2


def _ref_square_class(a, p):
    a = Fraction(a)
    if p is None:
        return 0, 1 if a > 0 else -1
    w, unit = _ref_local_split(a, p)
    if p == 2:
        return w % 2, unit % 8
    return w % 2, legendre(unit, p)


def _ref_hilbert(a, b, p):
    a, b = Fraction(a), Fraction(b)
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    alpha, ua = _ref_local_split(a, p)
    beta, ub = _ref_local_split(b, p)
    if p == 2:
        u, w = ua % 8, ub % 8
        exp = _ref_eps(u) * _ref_eps(w) + alpha * _ref_omega(w) + beta * _ref_omega(u)
        return -1 if exp % 2 else 1
    exp = alpha * beta * ((p - 1) // 2)
    sym = -1 if exp % 2 else 1
    if beta % 2:
        sym *= legendre(ua, p)
    if alpha % 2:
        sym *= legendre(ub, p)
    return sym


class TestIntKernel:
    PRIMES = (2, 3, 5, 7, 13, None)
    GRID = [
        Fraction(n, d)
        for d in range(1, 61)
        for n in range(-60, 61)
        if n and gcd(abs(n), d) == 1
    ]

    @staticmethod
    def forms(q):
        """q as a Fraction and, when it is an integer, as an int too."""
        return (q, q.numerator) if q.denominator == 1 else (q,)

    def test_square_class_matches_fraction_path(self):
        for p in self.PRIMES:
            v = REAL_PLACE if p is None else PlaceQ.finite(p)
            for q in self.GRID:
                parity, unit = _ref_square_class(q, p)
                for a in self.forms(q):
                    cls = square_class(a, v)
                    assert (cls.place, cls.parity, cls.unit) == (v, parity, unit), (a, p)
                    assert is_local_square(a, v) is (parity == 0 and unit == 1), (a, p)

    def test_hilbert_matches_fraction_path(self):
        rng = random.Random(139)
        ints = [Fraction(n) for n in range(-60, 61) if n]
        pairs = [(a, b) for a in ints for b in ints[::3]]
        pairs += [(rng.choice(self.GRID), rng.choice(self.GRID)) for _ in range(6000)]
        for p in self.PRIMES:
            v = REAL_PLACE if p is None else PlaceQ.finite(p)
            for a, b in pairs:
                expected = _ref_hilbert(a, b, p)
                for x in self.forms(a):
                    for y in self.forms(b):
                        assert hilbert(x, y, v) == expected, (x, y, p)
