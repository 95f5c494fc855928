import itertools
import random
import time
from fractions import Fraction
from math import prod

import pytest

from ramgenus import brauerq
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
from ramgenus.errors import (
    PrimalityRangeError,
    SplitAlgebraError,
    WitnessSearchExhausted,
    ZeroValuationError,
)
from ramgenus.exactarith import factor, is_prime
from ramgenus.localsymbols import REAL_PLACE, PlaceQ, is_local_square

# primes = 3 mod 4: (-1, b) ramifies at each that divides b once
PRIMES_3_MOD_4 = [p for p in range(3, 200) if p % 4 == 3 and is_prime(p)]


def random_rational(rng, height=60):
    while True:
        n = rng.randint(-height, height)
        if n:
            return Fraction(n, rng.randint(1, height))

def block_edges(limit):
    """Where the candidate sieve starts its blocks: at 2, then widths doubling
    from 64 up to 2^16."""
    edges, lo, width = [], 2, 64
    while lo <= limit:
        edges.append(lo)
        lo, width = lo + width, min(2 * width, 1 << 16)
    return edges


def scan_witness(D1, D2, max_witness=10**6):
    """The per-candidate witness scan that the block sieve replaced, kept as
    the reference: every squarefree d by |d|, positive first, tested at v0 and
    at each ramified place of the other algebra."""
    r1, r2 = ramification_set(D1), ramification_set(D2)
    if r1 == r2:
        return None
    v0 = min(set(r1.places) ^ set(r2.places))
    other = r2 if v0 in r1 else r1
    for d in TestSquarefreeCandidates.by_factoring(max_witness):
        if is_local_square(d, v0) and not any(is_local_square(d, v) for v in other):
            return QuadraticField(d)
    raise WitnessSearchExhausted(f"no witness with |d| <= {max_witness}")


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
        # the places built without the test equal and hash like public ones
        public = [PlaceQ.finite(v.p) for v in places[:-1]] + [PlaceQ.real_infinity()]
        assert places == public and list(map(hash, places)) == list(map(hash, public))
        with pytest.raises(ValueError):
            PlaceQ.finite(4)
        assert 4 in calls

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroValuationError):
            QuaternionQ(0, 3)


class TestRamificationMemo:
    def test_equal_algebra_reuses_the_set(self, monkeypatch):
        ramification_set.cache_clear()
        calls = []
        real_hilbert = brauerq.hilbert
        monkeypatch.setattr(
            brauerq, "hilbert", lambda a, b, v: calls.append(v) or real_hilbert(a, b, v)
        )
        first = ramification_set(QuaternionQ(-3, Fraction(10, 7)))
        assert calls
        calls.clear()
        for a, b in ((Fraction(-3), "10/7"), ("-3", Fraction(20, 14)), (-3, "20/14")):
            assert ramification_set(QuaternionQ(a, b)) == first
        assert calls == []

    def test_callers_share_the_sets(self, monkeypatch):
        ramification_set.cache_clear()
        D1, D2 = QuaternionQ(-1, 3 * 7 * 11), QuaternionQ(-1, 3)
        ramification_set(D1), ramification_set(D2)
        calls = []
        real_hilbert = brauerq.hilbert
        monkeypatch.setattr(
            brauerq, "hilbert", lambda a, b, v: calls.append(v) or real_hilbert(a, b, v)
        )
        field = distinguishing_field(QuaternionQ(-1, 231), QuaternionQ("-1", "3"))
        assert embeds(field, D1) != embeds(field, D2)
        assert not is_isomorphic(D1, D2) and is_division(D2)
        assert calls == []

    def test_errors_are_not_cached(self):
        ramification_set.cache_clear()
        D = QuaternionQ(2**89 - 1, 3)
        for _ in range(2):
            with pytest.raises(PrimalityRangeError):
                ramification_set(D)
        assert ramification_set.cache_info().currsize == 0


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
        with pytest.raises(ValueError, match="d = 1"):
            QuadraticField(1)

    def test_rejects_zero(self):
        with pytest.raises(ZeroValuationError):
            QuadraticField(0)
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroValuationError):
                QuadraticField.from_rational(zero)

    def test_derived_fields_equal_public_ones(self):
        # from_rational and distinguishing_field build their fields without
        # the constructor's squarefree check; they must equal, hash and
        # print like the field built through it
        built = [QuadraticField.from_rational(q)
                 for q in (Fraction(8), Fraction(2, 3), -4, Fraction(-45, 7), 10**6 + 3)]
        for D1, D2 in ((QuaternionQ(-1, 3), QuaternionQ(-1, 7)),
                       (QuaternionQ(-1, -1), QuaternionQ(-2, -5)),
                       (QuaternionQ(3, 7), QuaternionQ(-1, 11))):
            field = distinguishing_field(D1, D2)
            if field is not None:
                built.append(field)
        assert len(built) > 5
        for field in built:
            public = QuadraticField(field.d)
            assert type(field.d) is int
            assert field == public and hash(field) == hash(public)
            assert repr(field) == repr(public) and str(field) == str(public)


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


    def test_eighteen_ramified_primes_at_once(self):
        # the per-candidate scan tests about 1.2 million candidates here
        D1 = QuaternionQ(-1, prod(PRIMES_3_MOD_4[:18]))
        start = time.perf_counter()
        field = distinguishing_field(D1, QuaternionQ(-1, 3))
        assert time.perf_counter() - start < 0.5
        assert field.d == 961089

    def test_twenty_ramified_primes_exhaust_the_cap_at_once(self):
        D1 = QuaternionQ(-1, prod(PRIMES_3_MOD_4[:20]))
        start = time.perf_counter()
        with pytest.raises(WitnessSearchExhausted):
            distinguishing_field(D1, QuaternionQ(-1, 3))
        assert time.perf_counter() - start < 0.5


class TestSievedScan:
    """``distinguishing_field`` against ``scan_witness``, the per-candidate
    scan."""

    def test_random_pairs(self):
        rng = random.Random(157)
        small = [p for p in range(2, 200) if is_prime(p)]

        def entry():
            n = rng.choice((-1, 1)) * prod(rng.sample(small, rng.randint(0, 4)))
            return Fraction(n, rng.choice((1, 1, 2, 3, 5, 7)))

        pairs = []
        while len(pairs) < 80:
            D1, D2 = QuaternionQ(entry(), entry()), QuaternionQ(entry(), entry())
            if is_division(D1) and is_division(D2):
                pairs.append((D1, D2))
        # up to 12 ramified primes = 3 mod 4: witnesses past the first blocks
        for _ in range(30):
            m = prod(rng.sample(PRIMES_3_MOD_4[:16], rng.randint(2, 12)))
            pairs.append((QuaternionQ(-1, m), QuaternionQ(-1, rng.choice(PRIMES_3_MOD_4[:5]))))
        # a ramified prime above 2^16, which the sieve never reaches; an even
        # count of primes = 3 mod 4 keeps 2 out of the first set, so v0 = 2
        # and the big prime is among the places that want a nonsquare
        for big in (65539, 131071, 2**31 - 1):
            for _ in range(4):
                m = prod(rng.sample(PRIMES_3_MOD_4[:14], 2 * rng.randint(0, 5) + 1))
                D1, D2 = QuaternionQ(-1, big * m), QuaternionQ(-1, 3)
                assert PlaceQ.finite(big) in ramification_set(D1)
                assert min(set(ramification_set(D1)) ^ set(ramification_set(D2))).p == 2
                pairs.append((D1, D2))
        for D1, D2 in pairs:
            assert distinguishing_field(D1, D2) == scan_witness(D1, D2)

    @pytest.mark.parametrize(
        "b, witness",
        [
            (prod(PRIMES_3_MOD_4[:14]), 47033),
            (65539 * prod(PRIMES_3_MOD_4[:13]), 93057),
            (131071 * prod(PRIMES_3_MOD_4[1:14]), -86447),
        ],
    )
    def test_caps_at_block_edges(self, b, witness):
        D1, D2 = QuaternionQ(-1, b), QuaternionQ(-1, 3)
        assert scan_witness(D1, D2).d == witness
        for cap in sorted({e + k for e in block_edges(2 * abs(witness)) for k in (-1, 0, 1)}):
            if abs(witness) <= cap:
                assert distinguishing_field(D1, D2, max_witness=cap).d == witness
            else:
                with pytest.raises(WitnessSearchExhausted):
                    distinguishing_field(D1, D2, max_witness=cap)


class TestSquarefreeCandidates:
    @pytest.fixture(scope="class")
    def to_1e5(self):
        return list(self.by_factoring(10**5))

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

    def test_block_edges(self, to_1e5):
        ref = to_1e5
        for limit in sorted({e + k for e in block_edges(10**5) for k in (-2, -1, 0, 1)}):
            if limit >= 1:
                expected = [d for d in ref if abs(d) <= limit]
                assert list(_squarefree_candidates(limit)) == expected
        assert list(_squarefree_candidates(10**5)) == ref

    @pytest.mark.parametrize(
        "wanted",
        [
            [(REAL_PLACE, True), (PlaceQ.finite(2), False), (PlaceQ.finite(3), False)],
            [(PlaceQ.finite(2), True), (PlaceQ.finite(3), False), (PlaceQ.finite(7), False),
             (PlaceQ.finite(11), False), (REAL_PLACE, False)],
            [(PlaceQ.finite(5), True), (PlaceQ.finite(13), False), (PlaceQ.finite(67), False)],
            [(PlaceQ.finite(3), True), (PlaceQ.finite(4099), False), (PlaceQ.finite(65521), True)],
            [(PlaceQ.finite(2), True), (PlaceQ.finite(7), False), (PlaceQ.finite(65537), False)],
        ],
    )
    def test_wanted_classes_at_block_edges(self, wanted, to_1e5):
        # 67 is sieved from the block of width 128 on, 4099 from width 8192,
        # 65521 from width 2^16; 65537 never is
        def exact(d):
            return all(is_local_square(d, v) == square for v, square in wanted)

        every = to_1e5
        full = list(_squarefree_candidates(10**5, wanted))
        assert set(full) <= set(every) and len(set(full)) == len(full)
        assert full == sorted(full, key=lambda d: (abs(d), d < 0))
        assert [d for d in full if exact(d)] == [d for d in every if exact(d)]
        # a cap cuts the last block short and changes nothing before it
        for limit in sorted({e + k for e in block_edges(10**5) for k in (-1, 0, 1)}):
            expected = [d for d in full if abs(d) <= limit]
            assert list(_squarefree_candidates(limit, wanted)) == expected

    def test_sieve_decides_places_below_the_block_width(self):
        sieved = [(REAL_PLACE, False), (PlaceQ.finite(2), True), (PlaceQ.finite(3), False),
                  (PlaceQ.finite(61), True)]
        got = list(_squarefree_candidates(10**5, sieved + [(PlaceQ.finite(65537), False)]))
        assert got[0] == -1 and len(got) > 100
        assert all(is_local_square(d, v) == square for d in got[1:] for v, square in sieved)
        # 65537 is left to the caller's exact test
        assert any(is_local_square(d, PlaceQ.finite(65537)) for d in got)


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
