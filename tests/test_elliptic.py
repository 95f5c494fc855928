import random
from fractions import Fraction

import pytest

from ramgenus.brauerq import enumerate_unramified
from ramgenus.elliptic import (
    ARCHIMEDEAN,
    DIVIDES_DISCRIMINANT,
    DIVIDES_TWO,
    NEGATIVE_COEFFICIENT_VALUATION,
    USER_ADDED,
    ExceptionalSet,
    GenusBoundReport,
    NotSplitError,
    WeierstrassCurve,
    build_S,
    cubic_discriminant,
    elliptic_genus_bound,
    s_unit_square_classes,
)
from ramgenus.exactarith import squarefree_part
from ramgenus.localsymbols import REAL_PLACE, PlaceQ


class TestDiscriminant:
    def test_worked_example(self):
        assert cubic_discriminant(0, -1, 0) == 4  # x^3 - x

    def test_triple_root(self):
        assert cubic_discriminant(0, 0, 0) == 0  # x^3

    def test_repeated_root(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2
        assert cubic_discriminant(0, -3, 2) == 0

    def test_equals_squared_root_differences(self):
        rng = random.Random(109)
        for _ in range(300):
            roots = set()
            while len(roots) < 3:
                roots.add(Fraction(rng.randint(-20, 20), rng.randint(1, 8)))
            a, b, c = sorted(roots)
            curve = WeierstrassCurve.from_roots(a, b, c)
            expected = (a - b) ** 2 * (b - c) ** 2 * (a - c) ** 2
            assert curve.discriminant() == expected


class TestCurveConstruction:
    def test_from_coefficients(self):
        curve = WeierstrassCurve.from_coefficients(0, -1, 0)
        assert curve.roots == (Fraction(-1), Fraction(0), Fraction(1))

    def test_not_split_rejected(self):
        with pytest.raises(NotSplitError):
            WeierstrassCurve.from_coefficients(0, 0, -2)  # x^3 - 2
        with pytest.raises(NotSplitError):
            WeierstrassCurve.from_coefficients(0, -3, 2)  # repeated root
        with pytest.raises(NotSplitError):
            WeierstrassCurve.from_roots(1, 1, 2)
        with pytest.raises(NotSplitError, match="do not match"):
            WeierstrassCurve(0, 0, 0, (-1, 0, 1))  # x^3 against the roots of x^3 - x

    def test_coefficient_root_consistency(self):
        curve = WeierstrassCurve.from_roots(Fraction(1, 2), -2, 3)
        # expanding (x - a)(x - b)(x - c) must recover the coefficients
        assert curve.alpha == -(Fraction(1, 2) - 2 + 3)
        assert curve.gamma == -(Fraction(1, 2) * -2 * 3)


class TestBuildS:
    def test_worked_example(self):
        curve = WeierstrassCurve.from_coefficients(0, -1, 0)
        S = build_S(curve)
        assert [str(v) for v in S] == ["2", "inf"]
        assert S.tag(REAL_PLACE) == ARCHIMEDEAN
        assert S.tag(PlaceQ.finite(2)) == DIVIDES_TWO

    def test_discriminant_primes_included(self):
        # y^2 = x^3 - 9x: delta = -4 * (-9)^3 = 2916 = 2^2 * 3^6
        curve = WeierstrassCurve.from_coefficients(0, -9, 0)
        assert curve.discriminant() == 2916
        S = build_S(curve)
        assert PlaceQ.finite(3) in S.places
        assert S.tag(PlaceQ.finite(3)) == DIVIDES_DISCRIMINANT

    def test_negative_valuation_rule(self):
        # roots 1/5, 0, 25: delta is a 5-adic unit but alpha has v_5 < 0,
        # so 5 enters S through the coefficient rule alone
        curve = WeierstrassCurve.from_roots(Fraction(1, 5), 0, 25)
        assert curve.discriminant().denominator % 5 != 0
        assert curve.discriminant().numerator % 5 != 0
        S = build_S(curve)
        assert S.tag(PlaceQ.finite(5)) == NEGATIVE_COEFFICIENT_VALUATION

    def test_user_added(self):
        curve = WeierstrassCurve.from_coefficients(0, -1, 0)
        S = build_S(curve, [PlaceQ.finite(7)])
        assert S.tag(PlaceQ.finite(7)) == USER_ADDED

    def test_idempotence(self):
        curve = WeierstrassCurve.from_coefficients(0, -1, 0)
        S1 = build_S(curve)
        S2 = build_S(curve, S1.places)
        assert S1.places == S2.places

    def test_set_without_the_real_place_rejected(self):
        p3 = PlaceQ.finite(3)
        with pytest.raises(ValueError, match="real place"):
            ExceptionalSet((p3,), ((p3, USER_ADDED),))

    def test_degenerate_rejected(self):
        with pytest.raises(NotSplitError):
            WeierstrassCurve.from_roots(0, 1, 1)


class TestSUnits:
    def _set(self, primes):
        places = (REAL_PLACE,) + tuple(PlaceQ.finite(p) for p in primes)
        return ExceptionalSet(places, tuple((v, "test") for v in places))

    def test_examples(self):
        assert s_unit_square_classes(self._set([2])) == 4
        assert s_unit_square_classes(self._set([])) == 2

    def test_enumeration_oracle(self):
        # S = {inf, 2, 3, 5}: squarefree S-units modulo squares are exactly
        # +-2^e 3^f 5^g, and there are 16 of them
        classes = set()
        for sign in (1, -1):
            for e in (0, 1):
                for f in (0, 1):
                    for g in (0, 1):
                        classes.add(squarefree_part(sign * 2**e * 3**f * 5**g))
        assert len(classes) == 16
        assert s_unit_square_classes(self._set([2, 3, 5])) == 16


class TestBound:
    def test_worked_example(self):
        curve = WeierstrassCurve.from_coefficients(0, -1, 0)
        report = elliptic_genus_bound(curve)
        assert report.bound == 32
        assert report.two_power == 2
        assert report.cl_factor == 1
        assert report.unit_factor == 16
        assert report.t == 1 and report.c == 0

    def test_extra_place(self):
        curve = WeierstrassCurve.from_coefficients(0, -1, 0)
        report = elliptic_genus_bound(curve, [PlaceQ.finite(3)])
        assert report.bound == 2**2 * (2**3) ** 2 == 256

    def test_monotone_in_S(self):
        curve = WeierstrassCurve.from_roots(0, 2, -3)
        base = elliptic_genus_bound(curve)
        grown = base
        for p in (7, 11, 13):
            bigger = elliptic_genus_bound(curve, [PlaceQ.finite(p)])
            assert bigger.bound >= base.bound
            grown = bigger
        assert grown.bound > base.bound

    def test_factor_consistency(self):
        rng = random.Random(113)
        for _ in range(50):
            roots = set()
            while len(roots) < 3:
                roots.add(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            report = elliptic_genus_bound(WeierstrassCurve.from_roots(*sorted(roots)))
            assert report.bound == report.two_power * report.cl_factor * report.unit_factor

    def test_report_checks_its_factors(self):
        report = elliptic_genus_bound(WeierstrassCurve.from_coefficients(0, -1, 0))
        fields = dict(bound=report.bound, two_power=report.two_power, cl_factor=report.cl_factor,
                      unit_factor=report.unit_factor, S=report.S, t=report.t, c=report.c)
        assert GenusBoundReport(**fields) == report
        with pytest.raises(ValueError, match="multiply to the bound"):
            GenusBoundReport(**dict(fields, bound=report.bound + 1))
        with pytest.raises(ValueError, match="c \\+ 1"):
            GenusBoundReport(**dict(fields, t=2))

    def test_two_power_matches_unramified_enumeration(self):
        for roots in [(0, 1, -1), (0, 2, -3), (Fraction(1, 3), 1, 5)]:
            report = elliptic_genus_bound(WeierstrassCurve.from_roots(*roots))
            assert report.two_power == len(enumerate_unramified(report.S.places))
