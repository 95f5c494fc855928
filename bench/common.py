"""Pieces shared by the workloads: the op record, order statistics, and
small number-theory helpers written independently of ramgenus so that input
generation and output checks do not lean on the code under test."""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class CheckFailed(Exception):
    """An op returned, but its output broke an invariant."""


@dataclass
class Op:
    """One library call or one CLI invocation.

    ``call`` does the work that is timed; ``check`` runs untimed on its
    result and returns a canonical summary for the run digest, or raises
    CheckFailed. ``keys`` name the algebras the op touches (for the share
    of ops on an algebra seen before).
    """

    kind: str
    cls: str
    call: Callable[[], object]
    check: Callable[[object], str]
    keys: tuple = ()
    limit_s: float = 10.0


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- order statistics -----------------------------------------------------------


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule: the smallest sample with at
    least a share q of the samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


MIN_TAIL = 10  # a reported percentile needs this many samples beyond it


def min_samples(q: float) -> int:
    """Fewest samples for which the q-quantile has MIN_TAIL samples beyond."""
    n = 1
    while samples_beyond(n, q) < MIN_TAIL:
        n += 1
    return n


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# -- machine speed reference -----------------------------------------------------

# Times are reported at the machine speed where reference_ms() reads this.
REF_NOMINAL_MS = 2.5


def reference_ms() -> float:
    """Time one fixed piece of pure-Python work (Fractions, dict inserts,
    modular powers, integer arithmetic) that uses nothing from ramgenus.

    The hosts this runs on are shared, and their speed can drift by tens of
    percent within a minute; this work slows down with the ops, so timing it
    between them measures the speed they ran at."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i, i + 7)
        table[(i, i * i)] = pow(i, 65537, 1000003)
    x = 1
    for _ in range(3000):
        x = (x * 1103515245 + 12345) % (1 << 61)
    return (time.perf_counter() - start) * 1e3


# CLI op times are reported at the speed where reference_child_ms() reads this.
REF_CHILD_NOMINAL_MS = 80.0
REF_CHILD_CODE = (
    "import argparse, dataclasses, decimal, fractions, json\n"
    "acc = fractions.Fraction(0)\n"
    "for i in range(1, 800):\n"
    "    acc += fractions.Fraction(i, i + 7)\n"
)


def reference_child_ms() -> float:
    """Time one fresh interpreter that imports a few standard modules and
    does a fixed piece of pure-Python work, nothing from ramgenus.

    A CLI op is a child process, and reference_ms() read in the parent
    between two children does not follow the children's speed: on a shared
    host the time of the same command swings by a third from one stretch
    of seconds to the next while the parent's readings scatter without
    following it. A child that starts an interpreter and imports as the
    CLI does slows down with it, so timing one just before and just after
    a CLI op measures the speed that op ran at."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_CHILD_CODE], check=True, capture_output=True,
                   timeout=60)
    return (time.perf_counter() - start) * 1e3


# -- number theory, independent of ramgenus ------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases (deterministic below
    3.3e24, far above anything the generators draw)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(max(lo, 2), hi + 1) if probable_prime(n)]


def random_prime(rng, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if probable_prime(n):
            return n


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def small_factor(n: int) -> dict[int, int]:
    """Trial division; only for the small numbers the checks meet."""
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def random_poly(rng, degree: int, bound: int) -> list[int]:
    """Ascending integer coefficients in [-bound, bound], leading one nonzero."""
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    return coeffs + [rng.choice((-1, 1)) * rng.randint(1, bound)]


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in small_factor(n).values())


def is_local_square(d: int, p: int | None) -> bool:
    """Is the squarefree integer d a square in Q_p (p None: in R)?"""
    if p is None:
        return d > 0
    if d % p == 0:
        return False
    if p == 2:
        return d % 8 == 1
    return legendre(d, p) == 1


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in small_factor(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


# -- quaternion algebras over Q with known factorizations -----------------------

SMALL_PRIMES = primes_between(2, 60)
DIST_PRIMES = [p for p in primes_between(3, 103) if p % 4 == 3]  # 14 primes
SQUAREFREE_D = [d for d in range(-60, 61) if d != 1 and is_squarefree(d)]


def _strip(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a: int, b: int, p: int | None) -> int:
    """(a, b)_p for nonzero integers by the classical formulas."""
    if p is None:
        return -1 if a < 0 and b < 0 else 1
    va, u = _strip(a, p)
    vb, w = _strip(b, p)
    if p == 2:
        eps = lambda t: (t - 1) // 2 % 2  # noqa: E731
        omega = lambda t: (t * t - 1) // 8 % 2  # noqa: E731
        e = eps(u) * eps(w) + va * omega(w) + vb * omega(u)
        return -1 if e % 2 else 1
    sym = -1 if va * vb * ((p - 1) // 2) % 2 else 1
    if vb % 2:
        sym *= legendre(u, p)
    if va % 2:
        sym *= legendre(w, p)
    return sym


class Algebra:
    """Entries (a, b) with the primes that divide them, known by construction."""

    def __init__(self, a: int, b: int, primes):
        self.a, self.b = a, b
        self.primes = sorted(set(primes) | {2})
        self.ram = tuple(
            v for v in self.primes + [None] if hilbert_symbol(a, b, v) == -1
        )

    @property
    def key(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


def ram_strings(ram) -> list[str]:
    return ["inf" if v is None else str(v) for v in ram]


def _smooth(rng, avoid: int, count: int) -> tuple[int, list[int]]:
    ps = [p for p in SMALL_PRIMES if p != avoid]
    chosen = rng.sample(ps, count)
    n = rng.choice((1, -1))
    for p in chosen:
        n *= p
    return n, chosen


def division_algebra(rng, p: int, cofactor_primes: int = 1) -> Algebra:
    """(a, p*t) with a a nonresidue mod p, so the algebra ramifies at p."""
    t, t_primes = _smooth(rng, p, cofactor_primes)
    while True:
        a, a_primes = _smooth(rng, p, rng.randint(1, 2))
        if legendre(a, p) == -1:
            return Algebra(a, p * t, a_primes + t_primes + [p])


def small_algebra(rng) -> Algebra:
    return division_algebra(rng, rng.choice(SMALL_PRIMES[1:]))


def big_algebra(rng) -> Algebra:
    """One entry of up to 64 bits with a prime cofactor of 30 to 34 bits, so
    trial division runs to its square root."""
    return division_algebra(rng, random_prime(rng, 2**30, 2**34), 4)


def distinguisher_pair(rng, k: int) -> tuple[Algebra, Algebra]:
    """(-1, m) with m a product of k primes = 3 mod 4 against (-1, q)."""
    chosen = rng.sample(DIST_PRIMES, k)
    m = 1
    for p in chosen:
        m *= p
    q = rng.choice(DIST_PRIMES[:5])
    return Algebra(-1, m, chosen), Algebra(-1, q, [q])
