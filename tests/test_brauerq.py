import itertools
import random
from fractions import Fraction

import pytest

from ramgenus.brauerq import (
    QuadraticField,
    QuaternionQ,
    RamificationSet,
    _squarefree_candidates,
    candidate_places,
    distinguishing_field,
    embeds,
    enumerate_unramified,
    is_division,
    is_isomorphic,
    ramification_set,
)
from ramgenus.errors import SplitAlgebraError, ZeroValuationError
from ramgenus.exactarith import factor
from ramgenus.localsymbols import REAL_PLACE, PlaceQ


def random_rational(rng, height=60):
    while True:
        n = rng.randint(-height, height)
        if n:
            return Fraction(n, rng.randint(1, height))


class TestRamificationSet:
    def test_worked_examples(self):
        assert ramification_set(QuaternionQ(-1, 3)).places == (
            PlaceQ.finite(2),
            PlaceQ.finite(3),
        )
        assert ramification_set(QuaternionQ(-1, 7)).places == (
            PlaceQ.finite(2),
            PlaceQ.finite(7),
        )

    def test_split(self):
        assert ramification_set(QuaternionQ(1, 5)).is_empty()

    def test_hamilton(self):
        ram = ramification_set(QuaternionQ(-1, -1))
        assert ram.places == (PlaceQ.finite(2), REAL_PLACE)
        assert is_division(QuaternionQ(-1, -1))

    def test_parity_bulk(self):
        rng = random.Random(61)
        for _ in range(300):
            D = QuaternionQ(random_rational(rng), random_rational(rng))
            assert len(ramification_set(D)) % 2 == 0

    def test_scaling_invariance(self):
        rng = random.Random(67)
        for _ in range(100):
            a, b = random_rational(rng), random_rational(rng)
            t, s = random_rational(rng, 12), random_rational(rng, 12)
            D = QuaternionQ(a, b)
            scaled = QuaternionQ(a * t * t, b * s * s)
            assert ramification_set(D) == ramification_set(scaled)

    def test_odd_cardinality_rejected(self):
        with pytest.raises(ValueError):
            RamificationSet((PlaceQ.finite(2),))

    def test_public_constructor_sorts_and_dedupes(self):
        two, three, five = PlaceQ.finite(2), PlaceQ.finite(3), PlaceQ.finite(5)
        ram = RamificationSet((REAL_PLACE, three, five, two, three, REAL_PLACE))
        assert ram.places == (two, three, five, REAL_PLACE)
        with pytest.raises(ValueError):
            RamificationSet((three, two, three, five))

    def test_candidate_places_skip_primality_test(self, monkeypatch):
        import ramgenus.localsymbols as ls

        calls = []
        real_is_prime = ls.is_prime

        def counting(n):
            calls.append(n)
            return real_is_prime(n)

        monkeypatch.setattr(ls, "is_prime", counting)
        D = QuaternionQ(Fraction(-3 * 7**2 * 1009, 5 * 11), 2**61 - 1)
        places = candidate_places(D)
        assert [v.p for v in places] == [2, 3, 5, 7, 11, 1009, 2**61 - 1, None]
        assert calls == []
        assert places[1] == PlaceQ.finite(3) and hash(places[1]) == hash(PlaceQ.finite(3))
        with pytest.raises(ValueError):
            PlaceQ.finite(4)
        assert 4 in calls

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroValuationError):
            QuaternionQ(0, 3)


class TestIsomorphism:
    def test_worked_example(self):
        assert not is_isomorphic(QuaternionQ(-1, 3), QuaternionQ(-1, 7))

    def test_swap_symmetry(self):
        rng = random.Random(71)
        for _ in range(100):
            a, b = random_rational(rng), random_rational(rng)
            assert is_isomorphic(QuaternionQ(a, b), QuaternionQ(b, a))

    def test_classic_presentations(self):
        # (-1, -1) and (-1, -2) both ramify exactly at {2, inf}
        assert is_isomorphic(QuaternionQ(-1, -1), QuaternionQ(-1, -2))
        assert not is_isomorphic(QuaternionQ(-1, -1), QuaternionQ(-2, -5))


class TestQuadraticField:
    def test_squarefree_reduction(self):
        assert QuadraticField.from_rational(Fraction(8)).d == 2
        assert QuadraticField.from_rational(Fraction(2, 3)).d == 6
        assert QuadraticField.from_rational(-4).d == -1

    def test_rejects_squares(self):
        with pytest.raises(ValueError):
            QuadraticField.from_rational(Fraction(4, 9))
        with pytest.raises(ValueError):
            QuadraticField(12)


class TestEmbeds:
    def test_worked_example(self):
        ell = QuadraticField(10)
        assert embeds(ell, QuaternionQ(-1, 7))
        assert not embeds(ell, QuaternionQ(-1, 3))

    def test_gaussian_in_hamilton(self):
        assert embeds(QuadraticField(-1), QuaternionQ(-1, -1))

    def test_split_algebra_rejected(self):
        with pytest.raises(SplitAlgebraError):
            embeds(QuadraticField(10), QuaternionQ(1, 5))


class TestDistinguish:
    def test_worked_example(self):
        D1, D2 = QuaternionQ(-1, 3), QuaternionQ(-1, 7)
        field = distinguishing_field(D1, D2)
        assert field is not None
        assert embeds(field, D1) != embeds(field, D2)
        # d = 10 is one valid witness; the deterministic search returns -2,
        # which is smaller in the |d|-then-sign order and equally valid
        assert field.d == -2

    def test_equivalent_pair(self):
        D = QuaternionQ(-1, 3)
        assert distinguishing_field(D, QuaternionQ(3, -1)) is None

    def test_hamilton_vs_other(self):
        D1, D2 = QuaternionQ(-1, -1), QuaternionQ(-1, 3)
        field = distinguishing_field(D1, D2)
        assert embeds(field, D1) != embeds(field, D2)

    def test_split_input_rejected(self):
        with pytest.raises(SplitAlgebraError):
            distinguishing_field(QuaternionQ(1, 3), QuaternionQ(-1, 3))

    def test_search_cap(self):
        from ramgenus.errors import WitnessSearchExhausted

        with pytest.raises(WitnessSearchExhausted):
            distinguishing_field(QuaternionQ(-1, 3), QuaternionQ(-1, 7), max_witness=1)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_search_cap_below_one_admits_no_witness(self, cap):
        # d = -1 has |d| = 1, over any cap below 1
        from ramgenus.errors import WitnessSearchExhausted

        D1, D2 = QuaternionQ(-1, -1), QuaternionQ(2, 5)
        with pytest.raises(WitnessSearchExhausted):
            distinguishing_field(D1, D2, max_witness=cap)
        assert distinguishing_field(D1, D2, max_witness=1).d == -1

    def test_deterministic(self):
        D1, D2 = QuaternionQ(-2, -5), QuaternionQ(-1, 7)
        assert distinguishing_field(D1, D2) == distinguishing_field(D1, D2)

    def test_random_division_pairs(self):
        rng = random.Random(73)
        found = 0
        while found < 40:
            D1 = QuaternionQ(random_rational(rng, 30), random_rational(rng, 30))
            D2 = QuaternionQ(random_rational(rng, 30), random_rational(rng, 30))
            if not is_division(D1) or not is_division(D2):
                continue
            found += 1
            field = distinguishing_field(D1, D2)
            if field is None:
                assert ramification_set(D1) == ramification_set(D2)
            else:
                assert embeds(field, D1) != embeds(field, D2)


class TestSquarefreeCandidates:
    @staticmethod
    def by_factoring(limit):
        """Reference definition: squarefree d by |d|, positive first."""
        yield -1
        for n in range(2, limit + 1):
            if factor(n).squarefree_part() == n:
                yield n
                yield -n

    def test_small_limits(self):
        for limit in (1, 2, 3, 4):
            assert list(_squarefree_candidates(limit)) == list(
                self.by_factoring(limit)
            )

    def test_block_edges(self):
        ref = list(self.by_factoring(10**5))
        # sieve blocks start at 2 and double from 64 up to 2^16 wide
        edges, lo, width = [], 2, 64
        while lo <= 10**5:
            edges.append(lo)
            lo, width = lo + width, min(2 * width, 1 << 16)
        for limit in sorted({e + k for e in edges for k in (-2, -1, 0, 1)}):
            if limit >= 1:
                expected = [d for d in ref if abs(d) <= limit]
                assert list(_squarefree_candidates(limit)) == expected
        assert list(_squarefree_candidates(10**5)) == ref


class TestEnumerateUnramified:
    def test_minimal_set(self):
        S = [REAL_PLACE, PlaceQ.finite(2)]
        classes = enumerate_unramified(S)
        assert [c.places for c in classes] == [
            (),
            (PlaceQ.finite(2), REAL_PLACE),
        ]

    def test_three_places(self):
        S = [REAL_PLACE, PlaceQ.finite(2), PlaceQ.finite(3)]
        classes = enumerate_unramified(S)
        assert len(classes) == 4
        assert all(len(c) % 2 == 0 for c in classes)

    def test_counts_up_to_ten(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        for size in range(2, 11):
            S = [REAL_PLACE] + [PlaceQ.finite(p) for p in primes[: size - 1]]
            assert len(enumerate_unramified(S)) == 2 ** (size - 1)

    def test_matches_public_constructor(self):
        # the public constructor over every even subset, as the classes were
        # built before the trusted constructor
        def reference(S):
            places = sorted(set(S))
            return [
                RamificationSet(combo)
                for size in range(0, len(places) + 1, 2)
                for combo in itertools.combinations(places, size)
            ]

        primes = [89, 5, 211, 2, 47, 1009, 13, 373, 29, 3, 7]
        rng = random.Random(149)
        for size in range(2, 13):
            S = [REAL_PLACE] + [PlaceQ.finite(p) for p in primes[: size - 1]]
            shuffled = rng.sample(S, len(S))
            doubled = shuffled + rng.sample(S, rng.randint(1, len(S)))
            expected = reference(S)
            for given in (S, shuffled, doubled):
                got = enumerate_unramified(given)
                assert got == expected
                assert all(type(c.places) is tuple for c in got)

    def test_no_place_comparison_or_hash_per_class(self, monkeypatch):
        counts = {"lt": 0, "hash": 0}
        real_lt, real_hash = PlaceQ.__lt__, PlaceQ.__hash__

        def lt(self, other):
            counts["lt"] += 1
            return real_lt(self, other)

        def hash_(self):
            counts["hash"] += 1
            return real_hash(self)

        S = [REAL_PLACE] + [PlaceQ.finite(p) for p in (37, 2, 31, 3, 29, 5, 23, 7, 19, 11, 13)]
        monkeypatch.setattr(PlaceQ, "__lt__", lt)
        monkeypatch.setattr(PlaceQ, "__hash__", hash_)
        classes = enumerate_unramified(S)
        monkeypatch.undo()
        assert len(classes) == 2048
        # sorting and deduplicating S once costs O(|S| log |S|) of each; the
        # public constructor would cost more than that per class
        assert counts["lt"] < 100 and counts["hash"] < 100, counts
        assert counts["lt"] > 0 and counts["hash"] > 0

    def test_rejects_bad_sets(self):
        with pytest.raises(ValueError):
            enumerate_unramified([PlaceQ.finite(2), PlaceQ.finite(3)])
        with pytest.raises(ValueError):
            enumerate_unramified([REAL_PLACE])
