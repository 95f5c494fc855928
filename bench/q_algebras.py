"""q-algebras: library calls over Q in one process, one caller, closed loop.

Why: stresses exactarith, localsymbols and brauerq, and never touches
gfpoly, qpoly, sympy or process start.

Ops come in blocks of twenty, fourteen cheap and six heavy, in a fixed
pattern so every run has the same class shares. Cheap ops (ramify, embed,
is_isomorphic, enumerate_unramified) use entries of small height, products
of primes below 60, where ``hilbert`` and ``square_class`` do the work.
The heavy ops are three ops on an entry of up to 64 bits with a prime
cofactor of 30 to 34 bits, where ``factor``'s trial division dominates; two
distinguisher pairs, with 2 to 10 ramified places between them; and one
``enumerate_unramified`` over 12 places, which keeps ``factor`` near two
thirds of the busy time. The heavy ops on big entries are the top 15% of
op times, so p90 lies inside them. An algebra is ramified, then embedded
into, then distinguished against another one, and half of the second
algebras come from a pool of algebras seen before.

Every algebra is built with a known factorization of its entries, so its
ramification set is recomputed with the textbook Hilbert-symbol formulas
(``common.Algebra``) and compared with the library's answer.
"""

from __future__ import annotations

import random

import ramgenus as rg

from common import (
    SMALL_PRIMES,
    SQUAREFREE_D,
    Algebra,
    Op,
    big_algebra,
    distinguisher_pair,
    is_local_square,
    is_squarefree,
    ram_strings,
    require,
    small_algebra,
)

BLOCK = "CCHCCHCCCHCCHCCHCCCH"  # C cheap, H heavy


# -- ops -------------------------------------------------------------------------


def _check_ram(D: Algebra, result) -> str:
    got = [str(v) for v in result]
    require(got == ram_strings(D.ram), f"ramification of {D.key}: {got} != {ram_strings(D.ram)}")
    require(len(got) % 2 == 0, "odd ramification set")
    for v in result:
        require(rg.hilbert(D.a, D.b, v) == -1, f"hilbert is not -1 at {v}")
    return "ram " + ",".join(got)


def ramify_op(D: Algebra, cls: str) -> Op:
    return Op("ramify", cls, lambda: rg.ramification_set(rg.QuaternionQ(D.a, D.b)),
              lambda r: _check_ram(D, r), (D.key,))


def embed_op(d: int, D: Algebra, cls: str) -> Op:
    def check(result) -> str:
        expected = all(not is_local_square(d, v) for v in D.ram)
        require(result is expected, f"embeds({d}, {D.key}) = {result}")
        return f"embed {d} {result}"

    return Op("embed", cls, lambda: rg.embeds(rg.QuadraticField(d), rg.QuaternionQ(D.a, D.b)),
              check, (D.key,))


def isomorphic_op(D1: Algebra, D2: Algebra, cls: str) -> Op:
    def check(result) -> str:
        require(result is (D1.ram == D2.ram), f"is_isomorphic {D1.key} {D2.key}")
        return f"iso {result}"

    return Op("is_isomorphic", cls,
              lambda: rg.is_isomorphic(rg.QuaternionQ(D1.a, D1.b), rg.QuaternionQ(D2.a, D2.b)), check, (D1.key, D2.key))


def _check_witness(D1: Algebra, D2: Algebra, field) -> str:
    if field is None:
        require(D1.ram == D2.ram, "no witness for algebras with different ramification")
        return "dist none"
    d = field.d
    require(is_squarefree(d) and d != 1, f"witness {d} is not squarefree")
    e1 = all(not is_local_square(d, v) for v in D1.ram)
    e2 = all(not is_local_square(d, v) for v in D2.ram)
    require(e1 != e2, f"witness {d} embeds into both or neither")
    return f"dist {d}"


def distinguish_op(D1: Algebra, D2: Algebra, cls: str, limit_s: float = 10.0) -> Op:
    return Op("distinguish", cls,
              lambda: rg.distinguishing_field(rg.QuaternionQ(D1.a, D1.b), rg.QuaternionQ(D2.a, D2.b)),
              lambda f: _check_witness(D1, D2, f), (D1.key, D2.key), limit_s)


def enumerate_op(places: list[int | None], cls: str) -> Op:
    def call():
        S = [rg.REAL_PLACE if p is None else rg.PlaceQ.finite(p) for p in places]
        return rg.enumerate_unramified(S)

    def check(result) -> str:
        names = set(ram_strings(places))
        require(len(result) == 2 ** (len(places) - 1), "count is not 2^(|S|-1)")
        seen = set()
        for ram in result:
            got = tuple(str(v) for v in ram)
            require(len(got) % 2 == 0 and set(got) <= names, f"bad class {got}")
            seen.add(got)
        require(len(seen) == len(result), "repeated class")
        return f"enum {len(result)}"

    return Op("enumerate_unramified", cls, call, check)


def factor_op(n: int) -> Op:
    def check(f) -> str:
        require(f.value() == n, f"factor({n}) does not round-trip")
        for p, _ in f.factors:
            require(rg.is_prime(p), f"factor({n}) returned composite {p}")
        return f"factor {f.factors}"

    return Op("factor", "heavy", lambda: rg.factor(n), check)


# -- the op stream -----------------------------------------------------------------


def _big_op(rng, turn: int) -> Op:
    H = big_algebra(rng)
    if turn == 0:
        return ramify_op(H, "heavy")
    if turn == 1:
        return embed_op(rng.choice(SQUAREFREE_D), H, "heavy")
    if turn == 2:
        return factor_op(H.b)
    return isomorphic_op(H, Algebra(H.a * 4, H.b, H.primes), "heavy")


def _block(rng, pool: list[Algebra], block: int) -> list[Op]:
    """Fourteen cheap ops on two small algebras A and B (B from the pool of
    recent algebras half of the time), then six heavy ops."""
    cheap = []
    pairs = []
    for _ in range(2):
        A = small_algebra(rng)
        B = rng.choice(pool) if pool and rng.random() < 0.5 else small_algebra(rng)
        pool.append(A)
        del pool[:-16]
        pairs.append((A, B))
        other = A if rng.random() < 0.5 else small_algebra(rng)
        places = [None] + sorted(rng.sample(SMALL_PRIMES, rng.randint(1, 6)))
        cheap += [
            ramify_op(A, "cheap"),
            embed_op(rng.choice(SQUAREFREE_D), A, "cheap"),
            isomorphic_op(A, Algebra(other.a * 9, other.b, other.primes + [3]), "cheap"),
            embed_op(rng.choice(SQUAREFREE_D), B, "cheap"),
            ramify_op(B, "cheap"),
            enumerate_op(places, "cheap"),
            embed_op(rng.choice(SQUAREFREE_D), A, "cheap"),
        ]
    heavy = [
        _big_op(rng, block % 4),
        distinguish_op(*pairs[rng.randrange(2)], "heavy"),
        _big_op(rng, (block + 1) % 4),
        enumerate_op([None] + sorted(rng.sample(SMALL_PRIMES, 11)), "heavy"),
        _big_op(rng, (block + 2) % 4),
        distinguish_op(*distinguisher_pair(rng, rng.choice((6, 7, 9))), "heavy"),
    ]
    order = iter(cheap), iter(heavy)
    return [next(order[c == "H"]) for c in BLOCK]


def ops(seed: int):
    """The endless op stream for one seed."""
    rng = random.Random(f"q-algebras/{seed}")
    pool: list[Algebra] = []
    block = 0
    while True:
        yield from _block(rng, pool, block)
        block += 1


def warmup(seed: int) -> list[Op]:
    rng = random.Random(f"q-algebras/warmup/{seed}")
    pool: list[Algebra] = []
    return _block(rng, pool, 0)[:10]


# -- known-defect rows and inputs left out ---------------------------------------

M61, M31 = 2**61 - 1, 2**31 - 1
TWELVE = [31, 59, 67, 71, 127, 139, 151, 179, 191, 199, 227, 251]


def defects() -> list[Op]:
    comp = Algebra(M61 * M31, 3, [M61, M31, 3])
    comp_op = ramify_op(comp, "defect")
    comp_op.kind, comp_op.limit_s = "composite_cofactor", 10.0
    m = 1
    for p in TWELVE:
        m *= p
    dist = distinguish_op(Algebra(-1, m, TWELVE), Algebra(-1, 3, [3]), "defect", 30.0)
    dist.kind = "distinguish_12_primes"
    return [comp_op, dist]


EXCLUDED = {
    "distinguish_18_primes": "distinguisher against (-1, 3) with 18 or more ramified "
    "primes: 42 s at 18, and the 10^6 witness cap is exhausted near 20",
}

