"""Self-contained classical criteria: the C4 and quaternion classification
of quadratic fields by discriminant factorizations, and the Heisenberg
classification of cyclic degree-ell fields ramified at three primes.

These are standalone (Kronecker symbols only, even discriminants
included) and double as cross-checks of the general engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .arith import (
    PrimePower,
    _prime_disc_parts,
    check_disc_bound,
    is_prime,
    kronecker,
    power_residue_char,
    underlying_prime,
)


@dataclass(frozen=True)
class FactorizationWitness:
    """Coprime fundamental-discriminant factorization d = prod(parts),
    with the symbol evidence that certifies it."""

    parts: tuple[int, ...]
    symbol_checks: tuple[tuple[str, int], ...]

    def to_json(self) -> dict:
        return {
            "parts": list(self.parts),
            "symbol_checks": [[s, v] for s, v in self.symbol_checks],
        }


@dataclass(frozen=True)
class CriterionReport:
    exists: bool
    witnesses: tuple[FactorizationWitness, ...]
    count_per_witness: int

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "witnesses": [w.to_json() for w in self.witnesses],
            "count_per_witness": self.count_per_witness,
        }


def _splits(n, k):
    """Unordered partitions of range(n) into k nonempty blocks, as tuples
    of index tuples, each block ascending."""
    if k == 2:
        for r in range(1, n):
            for idx in itertools.combinations(range(n), r):
                if 0 in idx:  # fix part 0 in the first block: unordered
                    yield idx, tuple(i for i in range(n) if i not in idx)
        return
    assert k == 3
    for ra in range(1, n - 1):
        for ia in itertools.combinations(range(1, n), ra):
            block_a = (0,) + ia
            rest = [i for i in range(n) if i not in block_a]
            for rb in range(1, len(rest)):
                for ib in itertools.combinations(rest[1:], rb - 1):
                    block_b = (rest[0],) + ib
                    yield block_a, block_b, tuple(i for i in rest if i not in block_b)


def _check_field(d: int) -> list[int]:
    """prime_discriminants(d) for a field discriminant d (so d != 1)."""
    parts = _prime_disc_parts(d) if d != 1 else None
    if parts is None:
        raise ValueError(f"{d} is not a fundamental discriminant of a field")
    check_disc_bound(abs(d))
    return parts


def c4_criterion(d: int) -> CriterionReport:
    """Existence of an unramified cyclic quartic extension of the
    quadratic field of discriminant d: some coprime factorization
    d = d1*d2 with (d1/p) = 1 for all p | d2 and vice versa."""
    return c4_from_parts(_check_field(d))


def c4_from_parts(parts: list[int]) -> CriterionReport:
    """c4_criterion on the prime discriminants of d, sorted by |.|."""
    primes = [underlying_prime(f) for f in parts]
    witnesses = []
    for b1, b2 in _splits(len(parts), 2):
        d1 = prod(parts[i] for i in b1)
        d2 = prod(parts[i] for i in b2)
        # symbols (d1 / p) for p | d2, then (d2 / p) for p | d1
        checks = [
            (f"({x}/{p})", kronecker(x, p))
            for x, block in ((d1, b2), (d2, b1))
            for p in sorted(primes[i] for i in block)
        ]
        if all(v == 1 for _, v in checks):
            witnesses.append(FactorizationWitness(tuple(sorted((d1, d2))), tuple(checks)))
    count = 2 ** (len(parts) - 2) if witnesses else 0
    return CriterionReport(bool(witnesses), tuple(witnesses), count)


def h8_criterion(d: int) -> CriterionReport:
    """Existence of an unramified quaternion extension normal over Q:
    some coprime factorization d = d1*d2*d3, at most one part negative,
    with (d_i d_j / p) = 1 for all p | d_k, all three rotations."""
    return h8_from_parts(_check_field(d))


def h8_from_parts(parts: list[int]) -> CriterionReport:
    """h8_criterion on the prime discriminants of d, sorted by |.|."""
    primes = [underlying_prime(f) for f in parts]
    witnesses = []
    for blocks in _splits(len(parts), 3):
        triple = [prod(parts[i] for i in block) for block in blocks]
        if sum(1 for t in triple if t < 0) > 1:
            continue
        checks = []
        ok = True
        for k in range(3):
            i, j = [t for t in range(3) if t != k]
            dij = triple[i] * triple[j]
            for p in sorted(primes[m] for m in blocks[k]):
                v = kronecker(dij, p)
                checks.append((f"({dij}/{p})", v))
                if v != 1:
                    ok = False
        if ok:
            witnesses.append(FactorizationWitness(tuple(sorted(triple)), tuple(checks)))
    count = 2 ** (len(parts) - 3) if witnesses else 0
    return CriterionReport(bool(witnesses), tuple(witnesses), count)


@dataclass(frozen=True)
class HeisenbergReport:
    exists: bool
    solutions: tuple[tuple[int, int, int], ...]
    characters: tuple[tuple[str, int], ...]
    count: int

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "solutions": [list(s) for s in self.solutions],
            "characters": [[s, v] for s, v in self.characters],
            "count": self.count,
        }


def heisenberg_criterion(ell: int, p: int, q: int, r: int) -> HeisenbergReport:
    """Existence of an unramified Heisenberg extension of the cyclic
    degree-ell field ramified exactly at p, q, r.

    Decides by brute force over (A, B, C) in (Z/ell)^3 with A+B+C != 0
    against the three linear character equations; when a solution exists
    there are ell - 1 extensions (one per extension class).
    """
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"{ell} is not an odd prime")
    primes = (p, q, r)
    if len(set(primes)) != 3:
        raise ValueError("p, q, r must be distinct")
    for x in primes:
        if not is_prime(x):
            raise ValueError(f"{x} is not prime")
        if x == ell:
            raise ValueError(f"discriminant must be coprime to {ell}")
        if (x - 1) % ell != 0:
            raise ValueError(f"{x} is not 1 mod {ell}")

    def chi(a: int, b: int) -> int:
        return power_residue_char(a, PrimePower(b, ell - 1), ell)

    c_pq, c_pr = chi(p, q), chi(p, r)
    c_qp, c_qr = chi(q, p), chi(q, r)
    c_rp, c_rq = chi(r, p), chi(r, q)
    characters = (
        (f"({p}/{q}^{ell - 1})", c_pq),
        (f"({p}/{r}^{ell - 1})", c_pr),
        (f"({q}/{p}^{ell - 1})", c_qp),
        (f"({q}/{r}^{ell - 1})", c_qr),
        (f"({r}/{p}^{ell - 1})", c_rp),
        (f"({r}/{q}^{ell - 1})", c_rq),
    )
    solutions = []
    for a in range(ell):
        for b in range(ell):
            for c in range(ell):
                if (a + b + c) % ell == 0:
                    continue
                if (
                    (c_pq * (-a) + c_pr * b) % ell == 0
                    and (c_qp * a + c_qr * (-c)) % ell == 0
                    and (c_rp * (-b) + c_rq * c) % ell == 0
                ):
                    solutions.append((a, b, c))
    exists = bool(solutions)
    return HeisenbergReport(exists, tuple(solutions), characters, ell - 1 if exists else 0)
