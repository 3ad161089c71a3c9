"""Finite abelian groups as tuples of cyclic moduli.

A group is a direct product of cyclic groups C_{m_1} x ... x C_{m_k};
elements are coordinate tuples reduced mod the respective moduli.  The
factor list is *not* normalized to invariant-factor form: C_3 x C_3 x C_3
stays as written.  Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd, lcm, prod

DESK_SUBGROUP_BOUND = 2**16
DESK_AUT_BOUND = 256

Elem = tuple[int, ...]


@dataclass(frozen=True)
class AbGroup:
    """Direct product of cyclic groups of the given orders (all >= 1)."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if any(m < 1 for m in self.moduli):
            raise ValueError(f"moduli must be >= 1, got {self.moduli}")

    @property
    def order(self) -> int:
        return prod(self.moduli)

    @property
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


def group_exponent(G: AbGroup) -> int:
    return G.exponent


def subgroup_generated(G: AbGroup, gens, bound: int = DESK_SUBGROUP_BOUND) -> frozenset:
    """Explicit element set of <gens>; groups in scope are desk-scale."""
    if G.order > bound:
        raise ValueError(f"group order {G.order} exceeds bound {bound}")
    seen = {G.zero()}
    frontier = [G.zero()]
    gens = [G.reduce(g) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def is_subgroup(G: AbGroup, H) -> bool:
    H = set(H)
    if G.zero() not in H:
        return False
    return all(G.add(x, y) in H for x in H for y in H)


def subgroup_index(G: AbGroup, H) -> int:
    if not is_subgroup(G, H):
        raise ValueError("H is not a subgroup")
    q, r = divmod(G.order, len(H))
    assert r == 0
    return q


def generated_subgroup_order(G: AbGroup, gens) -> int:
    """Order of <gens> without materializing elements (Smith form)."""
    k = len(G.moduli)
    if k == 0:
        return 1
    rows = [list(g) for g in gens] + [
        [G.moduli[i] if j == i else 0 for j in range(k)] for i in range(k)
    ]
    d, _, _ = smith_normal_form(rows)
    # lattice L with Z^k >= L >= M (M = diag lattice); index of L in Z^k
    # is the product of the nonzero Smith invariants
    idx = prod(d[i][i] for i in range(min(len(rows), k)) if d[i][i] != 0)
    return G.order // idx


def generates(G: AbGroup, gens) -> bool:
    return _generates(G, frozenset(gens))


@lru_cache(maxsize=1 << 16)
def _generates(G: AbGroup, gens: frozenset) -> bool:
    # memoised: the same image sets recur across base fields of one extension
    return generated_subgroup_order(G, gens) == G.order


def hom_count(G: AbGroup, A: AbGroup) -> int:
    """#Hom(G, A) = prod of gcds of the cyclic factor orders."""
    return prod(gcd(m, n) for m in G.moduli for n in A.moduli)


def torsion_count(A: AbGroup, n: int) -> int:
    """#A[n], the number of elements killed by n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return prod(gcd(m, n) for m in A.moduli)


def torsion_subgroup(A: AbGroup, n: int) -> frozenset:
    return frozenset(x for x in A.elements() if all((n * c) % m == 0 for c, m in zip(x, A.moduli)))


def multiple_subgroup(A: AbGroup, n: int) -> frozenset:
    """The subgroup n*A = {n*a : a in A}."""
    return frozenset(A.smul(n, x) for x in A.elements())


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

    def compose(self, other: "AbHom") -> "AbHom":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        rows = self.codomain.rank
        cols = other.domain.rank
        mid = self.domain.rank
        mat = tuple(
            tuple(
                sum(self.matrix[i][k] * other.matrix[k][j] for k in range(mid))
                % self.codomain.moduli[i]
                for j in range(cols)
            )
            for i in range(rows)
        )
        return AbHom(other.domain, self.codomain, mat)


def identity_hom(A: AbGroup) -> AbHom:
    n = A.rank
    return AbHom(A, A, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def enumerate_automorphisms(A: AbGroup, bound: int = DESK_AUT_BOUND) -> list[AbHom]:
    """All invertible endomorphisms of A, by brute force at desk scale."""
    if A.order > bound:
        raise ValueError(f"group order {A.order} exceeds bound {bound}")
    elements = list(A.elements())
    full = set(elements)
    # candidate image of generator j: any element killed by moduli[j]
    candidates = [
        [x for x in elements if all((m * c) % n == 0 for c, n in zip(x, A.moduli))]
        for m in A.moduli
    ]
    auts = []
    for cols in itertools.product(*candidates):
        mat = tuple(tuple(col[i] for col in cols) for i in range(A.rank))
        h = AbHom(A, A, mat)
        if {h(x) for x in elements} == full:
            auts.append(h)
    return auts


# --- integer linear algebra -------------------------------------------------

def smith_normal_form(M):
    """Smith normal form over Z.

    Returns (D, U, V) with D = U*M*V, U and V unimodular and D diagonal
    (nonnegative; no divisibility chain).  Input is a list of rows; plain
    Python ints, so no overflow.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D = [list(r) for r in M]
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, q):
        Dd, Ds = D[dst], D[src]
        for k in range(cols):
            Dd[k] += q * Ds[k]
        Ud, Us = U[dst], U[src]
        for k in range(rows):
            Ud[k] += q * Us[k]

    def addmul_col(dst, src, q):
        for r in D:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # clear column t
            for i in range(t + 1, rows):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    addmul_row(i, t, -q)
                    if D[i][t] != 0:
                        swap_rows(i, t)
            if any(D[i][t] != 0 for i in range(t + 1, rows)):
                continue
            # clear row t
            for j in range(t + 1, cols):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    addmul_col(j, t, -q)
                    if D[t][j] != 0:
                        swap_cols(j, t)
            if all(D[i][t] == 0 for i in range(t + 1, rows)) and all(
                D[t][j] == 0 for j in range(t + 1, cols)
            ):
                break
        t += 1

    # positive diagonal (divisibility chain is not needed by any caller)
    for i in range(min(rows, cols)):
        if D[i][i] < 0:
            for k in range(cols):
                D[i][k] = -D[i][k]
            for k in range(rows):
                U[i][k] = -U[i][k]
    return D, U, V


def solve_modular_linear(M, target, moduli):
    """Solve M*x = target where row i is read mod moduli[i].

    Returns an integer solution vector or None.  Reduced to an exact
    integer system by adjoining modulus columns, then Smith reduction.
    """
    rows = len(M)
    if rows != len(target) or rows != len(moduli):
        raise ValueError("dimension mismatch")
    cols = len(M[0]) if rows else 0
    if rows == 0:
        return [0] * cols
    # [M | diag(moduli)] * (x, y) = target over Z
    A = [list(M[i]) + [moduli[i] if j == i else 0 for j in range(rows)] for i in range(rows)]
    D, U, V = smith_normal_form(A)
    s = [sum(U[i][k] * target[k] for k in range(rows)) for i in range(rows)]
    total = cols + rows
    w = [0] * total
    for i in range(rows):
        d = D[i][i] if i < min(rows, total) else 0
        if d == 0:
            if s[i] != 0:
                return None
        else:
            q, r = divmod(s[i], d)
            if r != 0:
                return None
            w[i] = q
    z = [sum(V[i][k] * w[k] for k in range(total)) for i in range(total)]
    return z[:cols]
