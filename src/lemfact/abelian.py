"""Finite abelian groups as tuples of cyclic moduli.

A group is a direct product of cyclic groups C_{m_1} x ... x C_{m_k};
elements are coordinate tuples reduced mod the respective moduli.  The
factor list is *not* normalized to invariant-factor form: C_3 x C_3 x C_3
stays as written.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import mul

DESK_SUBGROUP_BOUND = 2**16
# candidate matrices of enumerate_automorphisms: C2^3 has 512, C2^4 65536
DESK_AUT_BOUND = 2**10

Elem = tuple[int, ...]


@dataclass(frozen=True)
class AbGroup:
    """Direct product of cyclic groups of the given orders (all >= 1)."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if any(m < 1 for m in self.moduli):
            raise ValueError(f"moduli must be >= 1, got {self.moduli}")

    # cached in the instance __dict__, which the frozen dataclass does not
    # guard; eq, hash and repr read the fields only
    @cached_property
    def order(self) -> int:
        return prod(self.moduli)

    @cached_property
    def exponent(self) -> int:
        """Smallest n >= 1 with n*x = 0 for all x; 1 for the trivial group."""
        return lcm(*self.moduli) if self.moduli else 1

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def zero(self) -> Elem:
        return (0,) * len(self.moduli)

    def elements(self):
        """All elements in row-major lexicographic coordinate order."""
        return itertools.product(*(range(m) for m in self.moduli))

    def reduce(self, x) -> Elem:
        return tuple(c % m for c, m in zip(x, self.moduli))

    def contains(self, x) -> bool:
        return len(x) == len(self.moduli) and all(
            0 <= c < m for c, m in zip(x, self.moduli)
        )

    def check_elem(self, x):
        if len(x) != len(self.moduli):
            raise ValueError(f"element {x} has wrong length for moduli {self.moduli}")

    def add(self, x: Elem, y: Elem) -> Elem:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    def sub(self, x: Elem, y: Elem) -> Elem:
        return tuple((a - b) % m for a, b, m in zip(x, y, self.moduli))

    def neg(self, x: Elem) -> Elem:
        return tuple((-a) % m for a, m in zip(x, self.moduli))

    def smul(self, n: int, x: Elem) -> Elem:
        return tuple((n * a) % m for a, m in zip(x, self.moduli))


def cyclic(n: int) -> AbGroup:
    return AbGroup((n,))


@lru_cache(maxsize=1 << 16)
def elem_order(G: AbGroup, x: Elem) -> int:
    """Least n >= 1 with n*x = 0; divides the group exponent."""
    G.check_elem(x)
    n = 1
    for c, m in zip(x, G.moduli):
        n = lcm(n, m // gcd(c, m))
    return n


def _closure(zero, gens, op) -> frozenset:
    """All elements reachable from zero by repeatedly applying op(x, g)
    with g in gens: the subgroup generated by gens in a finite group.

    The generators are taken in turn, and one already reached is skipped.
    Each kept g extends the subgroup S of those kept before it: no x*g
    with x in S lies in S, and the new elements are closed under every
    kept generator.  So an element meets the generators kept when it is
    reached, and each one kept later once, not every generator given."""
    seen = {zero}
    kept = []
    for g in gens:
        if g in seen:
            continue
        kept.append(g)
        frontier = [op(x, g) for x in seen]
        seen.update(frontier)
        while frontier:
            x = frontier.pop()
            for k in kept:
                y = op(x, k)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return frozenset(seen)


def subgroup_generated(G: AbGroup, gens) -> frozenset:
    """Explicit element set of <gens>; groups in scope are desk-scale."""
    if G.order > DESK_SUBGROUP_BOUND:
        raise ValueError(f"group order {G.order} exceeds bound {DESK_SUBGROUP_BOUND}")
    return _closure(G.zero(), [G.reduce(g) for g in gens], G.add)


def is_subgroup(G: AbGroup, H) -> bool:
    """Whether H is the subgroup it generates, closed from 0 under adding
    its elements (_closure): about |H| sums, where closing every pair
    takes |H|^2."""
    H = frozenset(H)
    return G.zero() in H and _closure(G.zero(), H, G.add) == H


def generates(G: AbGroup, gens) -> bool:
    """Whether gens generate G, by the rank of gens mod each prime p
    dividing |G|; the reference for maximal_subgroup_masks."""
    # gens generates G iff it generates every G/pG with p prime: a proper
    # subgroup lies in a maximal one, of some prime index p, which contains
    # pG.  G/pG is F_p on the coordinates i with p | m_i.
    gens = set(gens)
    if len(gens) < min_generators(G):
        # k elements span no layer of dimension above k
        return False
    return all(
        _rank_mod([[g[i] % p for i in coords] for g in gens], p) == len(coords)
        for p, coords in _prime_layers(G)
    )


@lru_cache(maxsize=1 << 10)
def _prime_layers(G: AbGroup) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(p, the coordinates i with p | m_i) for each prime p dividing |G|."""
    primes = set()
    for m in G.moduli:
        p = 2
        while p * p <= m:
            if m % p == 0:
                primes.add(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            primes.add(m)
    return tuple(
        (p, tuple(i for i, m in enumerate(G.moduli) if m % p == 0)) for p in sorted(primes)
    )


def min_generators(G: AbGroup) -> int:
    """The fewest elements that generate G: the largest dimension of a
    layer G/pG."""
    return max((len(coords) for _, coords in _prime_layers(G)), default=0)


def maximal_subgroup_masks(G: AbGroup, elems) -> dict:
    """x -> the bitmask of the maximal subgroups of G that contain x, for
    each x in elems.

    A maximal subgroup has prime index p and contains pG, so it is the
    kernel of a nonzero functional on G/pG, unique up to a scalar.  Bit f
    stands for the f-th functional, layer by layer (_prime_layers); a
    layer's functionals are their coefficients on its coordinates with the
    first nonzero one 1, in lexicographic order.  So there are
    F = sum over p of (p^k - 1)/(p - 1) bits, k = dim G/pG.  A set
    generates G exactly when no maximal subgroup contains it (P. Hall,
    The Eulerian functions of a group, 1936), so when the AND of its masks
    is 0.
    """
    layers = [
        (p, coords, [
            (0,) * j + (1,) + tail
            for j in range(len(coords))
            for tail in itertools.product(range(p), repeat=len(coords) - j - 1)
        ])
        for p, coords in _prime_layers(G)
    ]
    masks = {}
    for x in elems:
        mask = 0
        bit = 1
        for p, coords, functionals in layers:
            v = [x[i] % p for i in coords]
            for f in functionals:
                if not sum(map(mul, f, v)) % p:
                    mask |= bit
                bit <<= 1
        masks[x] = mask
    return masks


def _rank_mod(rows, p: int) -> int:
    """Rank over F_p of a matrix of residues mod p, as a list of rows."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        top = next((r for r in rows if r[col]), None)
        if top is None:
            continue
        rows.remove(top)
        inv = pow(top[col], -1, p)
        rows = [
            [(x - f * y) % p for x, y in zip(r, top)] if (f := r[col] * inv % p) else r
            for r in rows
        ]
        rank += 1
    return rank


def hom_count(G: AbGroup, A: AbGroup) -> int:
    """#Hom(G, A) = prod of gcds of the cyclic factor orders."""
    return prod(gcd(m, n) for m in G.moduli for n in A.moduli)


def torsion_count(A: AbGroup, n: int) -> int:
    """#A[n], the number of elements killed by n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return prod(gcd(m, n) for m in A.moduli)


@dataclass(frozen=True)
class AbHom:
    """Homomorphism given by an integer matrix; column j is the image of
    the j-th standard generator of the domain."""

    domain: AbGroup
    codomain: AbGroup
    matrix: tuple[tuple[int, ...], ...]  # rows x cols = codomain.rank x domain.rank

    def __post_init__(self):
        rows, cols = self.codomain.rank, self.domain.rank
        if len(self.matrix) != rows or any(len(r) != cols for r in self.matrix):
            raise ValueError("matrix shape does not match domain/codomain")
        for j, m in enumerate(self.domain.moduli):
            col = tuple(self.matrix[i][j] for i in range(rows))
            if any((m * c) % n != 0 for c, n in zip(col, self.codomain.moduli)):
                raise ValueError(f"column {j} not killed by modulus {m}: not well defined")

    def __call__(self, x: Elem) -> Elem:
        self.domain.check_elem(x)
        return tuple(
            sum(self.matrix[i][j] * x[j] for j in range(self.domain.rank)) % n
            for i, n in enumerate(self.codomain.moduli)
        )


def enumerate_automorphisms(A: AbGroup) -> list[AbHom]:
    """All invertible endomorphisms of A, by brute force over the
    #Hom(A, A) candidate matrices, at most DESK_AUT_BOUND of them.  A
    candidate is kept when its columns, the images of the basis, generate
    A: an endomorphism of a finite group is onto, so bijective, exactly
    when its image, the subgroup the columns generate, is all of A."""
    n = hom_count(A, A)
    if n > DESK_AUT_BOUND:
        raise ValueError(f"{n} candidate automorphisms exceed bound {DESK_AUT_BOUND}")
    elements = list(A.elements())
    # candidate image of generator j: any element killed by moduli[j]
    candidates = [
        [x for x in elements if all((m * c) % n == 0 for c, n in zip(x, A.moduli))]
        for m in A.moduli
    ]
    return [
        AbHom(A, A, tuple(zip(*cols)))
        for cols in itertools.product(*candidates)
        if generates(A, cols)
    ]
