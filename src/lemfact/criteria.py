"""Self-contained classical criteria: the C4 and quaternion classification
of quadratic fields by discriminant factorizations, and the Heisenberg
classification of cyclic degree-ell fields ramified at three primes.

These are standalone (Kronecker symbols only, even discriminants
included) and double as cross-checks of the general engine.

A split of d divides its prime discriminants into blocks, each a bitmask
over their indices held with the indices.  The C4 and quaternion
conditions on a split are conditions on each block alone, since the
product of the other blocks is d divided by it.  Both criteria stop at
the first symbol that is not 1; H8 decides each mask once per d and takes
a block's sign from the parity of the negative parts under its mask.  A
block product is taken only for symbols or a witness.  The splits of up
to _SPLITS_MEMO_MAX prime discriminants are enumerated once per process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .abelian import DESK_SUBGROUP_BOUND
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


# _splits keeps the partitions of range(n) for n up to this limit: all of
# them take 1.9 MB, 0.9 MB of it the 9,075 three-block splits of n = 10,
# where the 259,578 of n = 13 alone would take 20 MB.  Larger n stream.
_SPLITS_MEMO_MAX = 10
_SPLITS_MEMO: dict[tuple[int, int], tuple] = {}


def _stream_splits(n, k):
    """Unordered partitions of range(n) into k nonempty blocks.  A block is
    (mask, indices): its indices ascending, and the bits set at them; the
    splits that share a block share one such pair."""
    blocks = {}

    def block(idx):
        mask = sum(1 << i for i in idx)
        return blocks.setdefault(mask, (mask, idx))

    if k == 2:
        for r in range(1, n):
            for idx in itertools.combinations(range(n), r):
                if 0 in idx:  # fix part 0 in the first block: unordered
                    yield block(idx), block(tuple(i for i in range(n) if i not in idx))
        return
    assert k == 3
    for ra in range(1, n - 1):
        for ia in itertools.combinations(range(1, n), ra):
            block_a = (0,) + ia
            rest = [i for i in range(n) if i not in block_a]
            for rb in range(1, len(rest)):
                for ib in itertools.combinations(rest[1:], rb - 1):
                    block_b = (rest[0],) + ib
                    block_c = tuple(i for i in rest if i not in block_b)
                    yield block(block_a), block(block_b), block(block_c)


def _splits(n, k):
    """_stream_splits(n, k), in the same order; a tuple kept per (n, k)
    for n <= _SPLITS_MEMO_MAX, a fresh generator above it (always truthy,
    as every such n has splits)."""
    if n > _SPLITS_MEMO_MAX:
        return _stream_splits(n, k)
    splits = _SPLITS_MEMO.get((n, k))
    if splits is None:
        splits = _SPLITS_MEMO[n, k] = tuple(_stream_splits(n, k))
    return splits


def _check_field(d: int) -> list[int]:
    """prime_discriminants(d) for a field discriminant d (so d != 1)."""
    parts = _prime_disc_parts(d) if d != 1 else None
    if parts is None:
        raise ValueError(f"{d} is not a fundamental discriminant of a field")
    check_disc_bound(abs(d))
    return parts


_NO_WITNESS = CriterionReport(False, (), 0)


def _good(rest, parts, indices) -> bool:
    """Whether the block S of d = prod(parts) at these indices is good,
    given rest = d/d_S: (rest / p) = 1 for every p in S (underlying_prime
    inline, as this is the criteria's inner loop)."""
    for i in indices:
        f = parts[i]
        if kronecker(rest, 2 if f % 2 == 0 else abs(f)) != 1:
            return False
    return True


def _witness(parts, d, split, order) -> FactorizationWitness:
    """The witness of a split into good blocks.  Its symbols all equal 1,
    so its checks are rebuilt block by block in order: (d/d_S / p) = 1 for
    each p in S, ascending."""
    values = [prod(parts[i] for i in indices) for _, indices in split]
    checks = tuple(
        (f"({d // values[k]}/{p})", 1)
        for k in order
        for p in sorted(underlying_prime(parts[i]) for i in split[k][1])
    )
    return FactorizationWitness(tuple(sorted(values)), checks)


def c4_criterion(d: int) -> CriterionReport:
    """Existence of an unramified cyclic quartic extension of the
    quadratic field of discriminant d: some coprime factorization
    d = d1*d2 with (d1/p) = 1 for all p | d2 and vice versa."""
    return c4_from_parts(_check_field(d))


def c4_from_parts(parts: list[int]) -> CriterionReport:
    """c4_criterion on the prime discriminants of d, sorted by |.|.

    A split (b1, b2) is a witness when both blocks are good; its checks
    list (d1/p) for p | d2, then (d2/p) for p | d1.  Every block meets
    one split only, so nothing is kept per block."""
    splits = _splits(len(parts), 2)
    if not splits:
        return _NO_WITNESS
    d = prod(parts)
    witnesses = []
    for split in splits:
        (_, a), (_, b) = split
        d_a = prod(parts[i] for i in a)
        if _good(d // d_a, parts, a) and _good(d_a, parts, b):
            witnesses.append(_witness(parts, d, split, (1, 0)))
    if not witnesses:
        return _NO_WITNESS
    return CriterionReport(True, tuple(witnesses), 2 ** (len(parts) - 2))


def h8_criterion(d: int) -> CriterionReport:
    """Existence of an unramified quaternion extension normal over Q:
    some coprime factorization d = d1*d2*d3, at most one part negative,
    with (d_i d_j / p) = 1 for all p | d_k, all three rotations."""
    return h8_from_parts(_check_field(d))


def h8_from_parts(parts: list[int]) -> CriterionReport:
    """h8_criterion on the prime discriminants of d, sorted by |.|.

    A split into three good blocks, at most one of them negative, is a
    witness; its checks list (d_i d_j / p) for p | d_k, k = 1, 2, 3."""
    splits = _splits(len(parts), 3)
    if not splits:
        return _NO_WITNESS
    d = prod(parts)
    neg = sum(1 << i for i, f in enumerate(parts) if f < 0)
    goodness = {}
    witnesses = []
    # The sign test comes first only to save symbols: by reciprocity, three
    # good blocks never hold two negative ones.  With at most one negative
    # part, no split does.
    signed = neg & (neg - 1)
    for split in splits:
        a, b, c = split
        if signed and (
            ((a[0] & neg).bit_count() & 1)
            + ((b[0] & neg).bit_count() & 1)
            + ((c[0] & neg).bit_count() & 1)
        ) > 1:
            continue
        for mask, indices in split:
            ok = goodness.get(mask)
            if ok is None:
                ok = goodness[mask] = _good(d // prod(parts[i] for i in indices), parts, indices)
            if not ok:
                break
        else:
            witnesses.append(_witness(parts, d, split, (0, 1, 2)))
    if not witnesses:
        return _NO_WITNESS
    return CriterionReport(True, tuple(witnesses), 2 ** (len(parts) - 3))


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
    there are ell - 1 extensions (one per extension class).  Raises
    ValueError, after the checks on its input, when ell^3 exceeds
    DESK_SUBGROUP_BOUND, the limit of the Heisenberg preset.
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
    if ell**3 > DESK_SUBGROUP_BOUND:
        # the brute force below walks all ell^3 triples, as many as the
        # Heisenberg preset's Gab has elements
        raise ValueError(f"{ell**3} triples (A, B, C) exceed bound {DESK_SUBGROUP_BOUND}")

    # chi[x, y] = (x / y^(ell - 1)), over the ordered pairs of p, q, r
    chi = {
        (x, y): power_residue_char(x, PrimePower(y, ell - 1), ell)
        for x, y in itertools.permutations(primes, 2)
    }
    characters = tuple((f"({x}/{y}^{ell - 1})", c) for (x, y), c in chi.items())
    solutions = []
    for a in range(ell):
        for b in range(ell):
            for c in range(ell):
                if (a + b + c) % ell == 0:
                    continue
                if (
                    (chi[p, q] * (-a) + chi[p, r] * b) % ell == 0
                    and (chi[q, p] * a + chi[q, r] * (-c)) % ell == 0
                    and (chi[r, p] * (-b) + chi[r, q] * c) % ell == 0
                ):
                    solutions.append((a, b, c))
    exists = bool(solutions)
    return HeisenbergReport(exists, tuple(solutions), characters, ell - 1 if exists else 0)
