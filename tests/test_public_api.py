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
            assert hilbert_oracle(x, y, 2) == hilbert(q, r, PLACES[0])


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
            hilbert_oracle(Fraction(1, 2), zero, 2)


def test_inputs_fraction_rejects_are_rejected():
    for bad, error in (("x", ValueError), (float("nan"), ValueError), (None, TypeError)):
        with pytest.raises(error):
            square_class(bad, REAL_PLACE)
        with pytest.raises(error):
            hilbert(bad, 3, PLACES[1])
        with pytest.raises(error):
            hilbert_oracle(3, bad, 3)


def _value_cases():
    """(class, fields, differing fields) for every exported value class."""
    from ramgenus import (
        ExceptionalSet, FFGenusBound, FFPlace, GenusBoundReport, LocalInvariant,
        LocalSquareClass, PolyFp, PolyQ, PrimeFactorization, QuadraticField, QuaternionQ,
        RamificationSet, RationalFunction, SymbolAlgebraFF, TameResidue, WeierstrassCurve,
    )

    p3, p5 = PlaceQ.finite(3), PlaceQ.finite(5)
    x5 = PolyFp(5, (0, 1))
    place, inf5 = FFPlace(5, x5), FFPlace(5, None)
    rf = RationalFunction(x5, PolyFp(5, (1,)))
    rf2 = RationalFunction(PolyFp(5, (2,)), PolyFp(5, (1,)))
    S = ExceptionalSet((REAL_PLACE,), ((REAL_PLACE, "archimedean"),))
    S2 = ExceptionalSet((p3, REAL_PLACE), ((p3, "user-added"), (REAL_PLACE, "archimedean")))
    genus = dict(bound=2, two_power=1, cl_factor=1, unit_factor=2, S=S, t=1, c=0)
    bound = dict(bound=1, unramified_order=1, phi_factor=1, n=2, r=0, ramified=())
    return [
        (PrimeFactorization, dict(sign=1, factors=((2, 1),)), dict(sign=-1, factors=((2, 1),))),
        (PlaceQ, dict(p=3), dict(p=5)),
        (LocalSquareClass, dict(place=p3, parity=0, unit=1), dict(place=p3, parity=0, unit=-1)),
        (LocalInvariant, dict(value=Fraction(1, 2)), dict(value=Fraction(0))),
        (QuaternionQ, dict(a=Fraction(-1), b=Fraction(3)), dict(a=Fraction(-1), b=Fraction(7))),
        (RamificationSet, dict(places=(p3, REAL_PLACE)), dict(places=(p5, REAL_PLACE))),
        (QuadraticField, dict(d=-1), dict(d=2)),
        (PolyFp, dict(p=5, coeffs=(1, 2)), dict(p=5, coeffs=(1, 3))),
        (PolyQ, dict(coeffs=(Fraction(1), Fraction(2))), dict(coeffs=(Fraction(1),))),
        (FFPlace, dict(char=5, pi=x5), dict(char=5, pi=None)),
        (RationalFunction, dict(num=x5, den=PolyFp(5, (1,))), dict(num=x5, den=PolyFp(5, (1, 1)))),
        (SymbolAlgebraFF, dict(n=2, a=rf, b=rf2), dict(n=3, a=rf, b=rf2)),
        (TameResidue, dict(place=place, residue_class=2, ramified=True),
         dict(place=inf5, residue_class=2, ramified=True)),
        (FFGenusBound, bound, dict(bound, n=3)),
        (WeierstrassCurve, dict(alpha=Fraction(0), beta=Fraction(-1), gamma=Fraction(0),
                                roots=(Fraction(-1), Fraction(0), Fraction(1))),
         dict(alpha=Fraction(-3), beta=Fraction(2), gamma=Fraction(0),
              roots=(Fraction(0), Fraction(1), Fraction(2)))),
        (ExceptionalSet, dict(places=S.places, provenance=S.provenance),
         dict(places=S2.places, provenance=S2.provenance)),
        (GenusBoundReport, genus, dict(genus, bound=4, unit_factor=4, S=S2)),
    ]


VALUE_CASES = _value_cases()


def test_every_exported_value_class_is_covered():
    classes = [getattr(ramgenus, name) for name in EXPORTS]
    exported = {c.__name__ for c in classes
                if isinstance(c, type) and not issubclass(c, Exception)}
    assert {cls.__name__ for cls, _, _ in VALUE_CASES} == exported


@pytest.mark.parametrize("cls, fields, other", VALUE_CASES,
                         ids=[cls.__name__ for cls, _, _ in VALUE_CASES])
def test_value_semantics(cls, fields, other):
    """What the value classes promise: construction by position and by the
    documented field names, equality and hashing on the fields, immutability,
    a repr naming the class, and copies equal to the original."""
    import copy
    import pickle

    a, b, c = cls(*fields.values()), cls(**fields), cls(**other)
    assert a == b and hash(a) == hash(b)
    assert a != c and not a == c
    assert a != (a,) and a != fields
    for name, value in fields.items():
        assert getattr(b, name) == value
        with pytest.raises(AttributeError):
            setattr(b, name, value)
    assert repr(a).startswith(cls.__name__ + "(")
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_only_the_value_module_fills_values():
    """How a value is filled is decided in ``_value`` alone: no other module
    of the package names ``object.__setattr__`` or ``object.__new__``, or
    reaches for a slot's ``__set__``."""
    import ast
    from pathlib import Path

    package = Path(__file__).resolve().parent.parent / "src" / "ramgenus"
    modules = sorted(package.glob("*.py"))
    assert "_value.py" in {path.name for path in modules}
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules if path.name != "_value.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and (
            node.attr == "__set__" or node.attr in ("__setattr__", "__new__")
            and isinstance(node.value, ast.Name) and node.value.id == "object")
    ]
    assert found == []
