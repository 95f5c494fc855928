"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time
from fractions import Fraction
from math import gcd

from ramgenus.brauerq import (
    QuadraticField,
    QuaternionQ,
    distinguishing_field,
    embeds,
    enumerate_unramified,
    is_division,
    ramification_set,
)
from ramgenus.cli import run
from ramgenus.elliptic import WeierstrassCurve, elliptic_genus_bound
from ramgenus.exactarith import factor, squarefree_part
from ramgenus.funcfield import (
    FFPlace,
    RationalFunction,
    SymbolAlgebraFF,
    genus_bound,
    places_of,
    ram_V,
    tame_residue,
    tame_symbol,
)
from ramgenus.gfpoly import PolyFp, residue_class_is_nth_power
from ramgenus.localsymbols import REAL_PLACE, PlaceQ, hilbert, hilbert_oracle

from enumerate_fp import irreducible_monics


def report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS ({detail})")


def random_fraction(rng, height):
    while True:
        n = rng.randint(-height, height)
        if n:
            return Fraction(n, rng.randint(1, height))


def random_poly_fp(rng, p, max_deg):
    while True:
        f = PolyFp(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, max_deg + 1))))
        if not f.is_zero():
            return f


def random_rf_fp(rng, p, max_deg):
    return RationalFunction(random_poly_fp(rng, p, max_deg), random_poly_fp(rng, p, max_deg))


def test_criterion_1_quadratic_subfield_example():
    """Two quaternion algebras distinguished by their quadratic subfields."""
    t0 = time.perf_counter()
    D1, D2 = QuaternionQ(-1, 3), QuaternionQ(-1, 7)
    assert [str(v) for v in ramification_set(D1)] == ["2", "3"]
    assert [str(v) for v in ramification_set(D2)] == ["2", "7"]
    ell = QuadraticField(10)
    assert embeds(ell, D2) is True
    assert embeds(ell, D1) is False
    witness = distinguishing_field(D1, D2)
    assert witness is not None
    assert embeds(witness, D1) != embeds(witness, D2)
    # d = 10 is the example's witness; any verified witness is accepted and
    # the deterministic search returns the smaller d = -2
    assert embeds(QuadraticField(10), D2) and not embeds(QuadraticField(10), D1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "quadratic-subfield example",
           f"witness d={witness.d}, verified both sides, {elapsed:.3f}s")


def test_criterion_2_split_curve_example():
    """y^2 = x^3 - x: S = {inf, 2}, factors 2 * 4^2, bound 32."""
    curve = WeierstrassCurve.from_coefficients(0, -1, 0)
    out = elliptic_genus_bound(curve)
    assert [str(v) for v in out.S] == ["2", "inf"]
    assert out.two_power == 2
    assert out.unit_factor == 16 == 4**2
    assert out.cl_factor == 1
    assert out.bound == 32
    cli_report, status, _ = run(["elliptic-bound", "y^2 = x^3 - x"])
    assert status == 0 and cli_report.result["bound"] == 32
    report(2, "split-curve example", "S={inf,2}, bound 2*4^2=32, CLI agrees")


def test_criterion_3_reciprocity():
    """Product formula and even ramification parity, 1000 random pairs."""
    t0 = time.perf_counter()
    rng = random.Random(20240331)
    for _ in range(1000):
        a = random_fraction(rng, 10**4)
        b = random_fraction(rng, 10**4)
        D = QuaternionQ(a, b)
        ram = ramification_set(D)
        assert len(ram) % 2 == 0
        primes = {2}
        for q in (a, b):
            primes.update(factor(q.numerator).primes())
            primes.update(factor(q.denominator).primes())
        prod = hilbert(a, b, REAL_PLACE)
        for p in primes:
            prod *= hilbert(a, b, PlaceQ.finite(p))
        assert prod == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, "Hilbert reciprocity", f"1000 pairs, height <= 10^4, {elapsed:.2f}s")


def test_criterion_4_oracle_equivalence():
    """hilbert == hilbert_oracle exhaustively: |num|, |den| <= 30,
    p in {2, 3, 5, 7, 11, 13}, plus the sign test at the real place."""
    values = [
        Fraction(n, d)
        for d in range(1, 31)
        for n in range(-30, 31)
        if n and gcd(abs(n), d) == 1
    ]
    checked = 0
    for p in (2, 3, 5, 7, 11, 13):
        v = PlaceQ.finite(p)
        for a in values:
            for b in values:
                if hilbert(a, b, v) != hilbert_oracle(a, b, p):
                    raise AssertionError(f"mismatch at p={p}: ({a}, {b})")
                checked += 1
    for a in values:
        neg_a = a < 0
        for b in values:
            assert hilbert(a, b, REAL_PLACE) == (-1 if neg_a and b < 0 else 1)
            checked += 1
    report(4, "oracle equivalence",
           f"{len(values)} rationals, {checked} checks, zero mismatches")


def test_criterion_5_unramified_group_counts():
    """|classes unramified outside S| = 2^(|S|-1) for 2 <= |S| <= 10, and it
    equals the elliptic module's two_power for matching S."""
    for primes in (
        [2, 3, 5, 7, 11, 13, 17, 19, 23],
        [89, 5, 211, 2, 47, 1009, 13, 373, 29],
    ):
        for size in range(2, 11):
            S = [REAL_PLACE] + [PlaceQ.finite(p) for p in primes[: size - 1]]
            assert len(enumerate_unramified(S)) == 2 ** (size - 1)
    curves = [
        WeierstrassCurve.from_coefficients(0, -1, 0),
        WeierstrassCurve.from_roots(0, 2, -3),
        WeierstrassCurve.from_roots(Fraction(1, 3), 1, 5),
        WeierstrassCurve.from_roots(Fraction(1, 5), 0, 25),
    ]
    extras = [[], [PlaceQ.finite(31)], [PlaceQ.finite(31), PlaceQ.finite(37)]]
    pairs = 0
    for curve in curves:
        for extra in extras:
            out = elliptic_genus_bound(curve, extra)
            assert out.two_power == len(enumerate_unramified(out.S.places))
            pairs += 1
    report(5, "unramified group counts",
           f"sizes 2..10 and {pairs} curve/extra cross-checks")


def test_criterion_6_genus_one_certificates():
    """100 random quaternion symbols over F_3(x) and over F_5(x), polynomial
    entries of degree <= 3: bound exactly 1, and the ramification set matches
    an exhaustive scan of every place of degree <= 3 plus infinity."""
    rng = random.Random(6174)
    total = 0
    for p in (3, 5):
        universe = [FFPlace.finite(pi) for pi in irreducible_monics(p, 3)]
        universe.append(FFPlace.infinity(p))
        for _ in range(100):
            a = RationalFunction.of(random_poly_fp(rng, p, 3))
            b = RationalFunction.of(random_poly_fp(rng, p, 3))
            D = SymbolAlgebraFF(2, a, b)
            out = genus_bound(D)
            assert out.bound == 1
            reported = set(ram_V(D))
            scanned = {w for w in universe if tame_residue(D, w).ramified}
            # entries have degree <= 3, so every candidate place lies in the
            # degree <= 3 universe and the scan is a complete cross-check
            assert reported == scanned
            total += 1
    report(6, "genus-one certificates", f"{total} symbols, scan-confirmed")


def test_criterion_7_steinberg():
    """ram_V((f, 1-f)) is empty, 100 random f per p in {3, 5, 7}."""
    rng = random.Random(271828)
    total = 0
    for p in (3, 5, 7):
        one = RationalFunction.of(PolyFp.constant(p, 1))
        count = 0
        while count < 100:
            f = random_rf_fp(rng, p, 3)
            g = one + (-f)
            if f.is_zero() or g.is_zero():
                continue
            assert ram_V(SymbolAlgebraFF(2, f, g)) == []
            count += 1
            total += 1
    report(7, "Steinberg splitting", f"{total} symbols, all split")


def test_criterion_8_equal_ramification_same_subfields():
    """200 random pairs with equal ramification sets agree on embeds for 50
    sampled quadratic fields each (same-subfields property over Q)."""
    rng = random.Random(577215)

    def random_division(height=40):
        while True:
            D = QuaternionQ(random_fraction(rng, height), random_fraction(rng, height))
            if is_division(D):
                return D

    pool: dict[tuple, QuaternionQ] = {}
    pairs = []
    while len(pairs) < 200:
        D = random_division()
        key = ramification_set(D).places
        if key in pool and (pool[key].a, pool[key].b) != (D.a, D.b):
            pairs.append((pool[key], D))
        pool[key] = D
        if len(pairs) < 200 and rng.random() < 0.25:
            t = random_fraction(rng, 8)
            s = random_fraction(rng, 8)
            pairs.append((D, QuaternionQ(D.a * t * t, D.b * s * s)))

    fields = []
    while len(fields) < 50:
        d = squarefree_part(Fraction(rng.randint(-300, 300) or 2))
        if d != 1:
            fields.append(QuadraticField(d))

    disagreements = 0
    for D1, D2 in pairs:
        assert ramification_set(D1) == ramification_set(D2)
        for ell in fields:
            if embeds(ell, D1) != embeds(ell, D2):
                disagreements += 1
    assert disagreements == 0
    report(8, "equal ramification, same subfields",
           f"{len(pairs)} pairs x {len(fields)} fields, zero disagreements")


def test_criterion_9_function_field_invariants():
    """Degree-sum-zero and residue bimultiplicativity, 1000 random inputs each."""
    rng = random.Random(141421)
    for _ in range(1000):
        p = rng.choice([3, 5, 7])
        f = random_rf_fp(rng, p, 4)
        assert sum(v * w.degree for w, v in places_of(f)) == 0

    for _ in range(1000):
        p = rng.choice([3, 5])
        a1 = random_rf_fp(rng, p, 2)
        a2 = random_rf_fp(rng, p, 2)
        b = random_rf_fp(rng, p, 2)
        candidates = {w for w, _ in places_of(a1 * a2)} | {w for w, _ in places_of(b)}
        candidates.add(FFPlace.infinity(p))
        w = sorted(candidates, key=lambda q: q.sort_key())[rng.randrange(len(candidates))]
        t12 = tame_symbol(SymbolAlgebraFF(2, a1 * a2, b), w)
        t1 = tame_symbol(SymbolAlgebraFF(2, a1, b), w)
        t2 = tame_symbol(SymbolAlgebraFF(2, a2, b), w)
        if w.is_infinite:
            w = FFPlace.finite(PolyFp.x(p))
        r12 = t12.residue_at(w)
        r1, r2 = t1.residue_at(w), t2.residue_at(w)
        ratio = r12 * (r1 * r2).pow_mod(-1, w.pi) % w.pi
        assert residue_class_is_nth_power(ratio, w.pi, 2)
    report(9, "function-field invariants",
           "1000 degree-sum checks + 1000 bimultiplicativity checks")
