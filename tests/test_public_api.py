"""The public boundary: the package's exports, and what the local-symbol
functions accept. They take anything ``Fraction()`` takes and answer as they
would for that Fraction."""

from decimal import Decimal
from fractions import Fraction

import pytest

import ramgenus
from ramgenus import REAL_PLACE, PlaceQ, hilbert, hilbert_oracle, square_class
from ramgenus.errors import ZeroValuationError
from ramgenus.localsymbols import is_local_square

EXPORTS = [
    "ExceptionalSet",
    "FFGenusBound",
    "FFPlace",
    "GenusBoundReport",
    "LocalInvariant",
    "LocalSquareClass",
    "ParseError",
    "PlaceQ",
    "PolyFp",
    "PolyQ",
    "PrimeFactorization",
    "QuadraticField",
    "QuaternionQ",
    "RamgenusError",
    "RamificationSet",
    "RationalFunction",
    "REAL_PLACE",
    "SplitAlgebraError",
    "SymbolAlgebraFF",
    "TameResidue",
    "UnsupportedFieldError",
    "WeierstrassCurve",
    "WitnessSearchExhausted",
    "ZeroValuationError",
    "build_S",
    "cubic_discriminant",
    "distinguishing_field",
    "elliptic_genus_bound",
    "embeds",
    "enumerate_unramified",
    "euler_phi",
    "factor",
    "genus_bound",
    "hilbert",
    "hilbert_oracle",
    "invariant",
    "is_division",
    "is_isomorphic",
    "is_prime",
    "is_square_fq",
    "jacobi",
    "legendre",
    "places_of",
    "poly_factor_fp",
    "ram_V",
    "ram_V_over_Q",
    "ramification_set",
    "s_unit_square_classes",
    "square_class",
    "tame_residue",
    "valuation",
]

# every kind of input Fraction() accepts, with values on both sides of the
# places below (units, odd and even valuations, both signs)
INPUTS = [3, -12, 50, Fraction(3, 4), Fraction(-9, 20), "3/4", "-7/5", "18", 0.5, -2.5,
          True, Decimal("1.25")]
ZEROS = [0, Fraction(0), "0", "0/7", "-0", 0.0, -0.0, False, Decimal(0)]
PLACES = [PlaceQ.finite(2), PlaceQ.finite(3), PlaceQ.finite(5), REAL_PLACE]


def test_exports_are_pinned():
    assert ramgenus.__all__ == EXPORTS
    assert all(hasattr(ramgenus, name) for name in EXPORTS)


def test_every_input_form_answers_as_its_fraction():
    for x in INPUTS:
        q = Fraction(x)
        for v in PLACES:
            assert square_class(x, v) == square_class(q, v), (x, v)
            assert is_local_square(x, v) is is_local_square(q, v), (x, v)
            for y in INPUTS:
                assert hilbert(x, y, v) == hilbert(q, Fraction(y), v), (x, y, v)
        for y in INPUTS:
            r = Fraction(y)
            assert hilbert_oracle(x, y, 3) == hilbert_oracle(q, r, 3), (x, y)
            assert hilbert_oracle(x, y, 5) == hilbert(q, r, PlaceQ.finite(5)), (x, y)
            assert hilbert_oracle(x, y, 2, allow_dyadic=True) == hilbert(q, r, PLACES[0])


def test_zero_raises_in_every_form():
    for zero in ZEROS:
        for v in PLACES:
            with pytest.raises(ZeroValuationError):
                square_class(zero, v)
            with pytest.raises(ZeroValuationError):
                is_local_square(zero, v)
            with pytest.raises(ZeroValuationError):
                hilbert(zero, 3, v)
            with pytest.raises(ZeroValuationError):
                hilbert("3/4", zero, v)
        with pytest.raises(ZeroValuationError):
            hilbert_oracle(zero, 3, 3)
        with pytest.raises(ZeroValuationError):
            hilbert_oracle(Fraction(1, 2), zero, 2, allow_dyadic=True)


def test_inputs_fraction_rejects_are_rejected():
    for bad, error in (("x", ValueError), (float("nan"), ValueError), (None, TypeError)):
        with pytest.raises(error):
            square_class(bad, REAL_PLACE)
        with pytest.raises(error):
            hilbert(bad, 3, PLACES[1])
        with pytest.raises(error):
            hilbert_oracle(3, bad, 3)
