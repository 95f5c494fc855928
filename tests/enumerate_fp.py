"""Enumeration of monic polynomials over F_p, for exhaustive checks."""

from ramgenus.gfpoly import PolyFp, is_irreducible_fp


def monic_polys(p: int, degree: int):
    """Yield all monic polynomials of the given degree over F_p."""
    if degree == 0:
        yield PolyFp.constant(p, 1)
        return
    counters = [0] * degree
    while True:
        yield PolyFp(p, tuple(counters) + (1,))
        i = 0
        while i < degree:
            counters[i] += 1
            if counters[i] < p:
                break
            counters[i] = 0
            i += 1
        else:
            return


def irreducible_monics(p: int, max_degree: int) -> list[PolyFp]:
    """All monic irreducible polynomials over F_p of degree 1..max_degree."""
    out = []
    for d in range(1, max_degree + 1):
        for f in monic_polys(p, d):
            if is_irreducible_fp(f):
                out.append(f)
    return out
