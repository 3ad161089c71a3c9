"""The cocycle-table reference for lemfact.cocycle.

lemfact keeps an extension as the value of its H^2 class key and reads
everything from closed forms in the key.  Here an extension is a table
c(g, h): TableExtension reads the pairing, the lift powers, Y_E and the
total group off its table, and the generator tables of H^2 (carries and
bilinear terms) are built entry by entry.  The tests
compare the closed forms against these on every class they enumerate,
and on coboundary-shifted copies.  closure is the plain breadth-first
search that abelian._closure refines.  H2_PAIRS are the shapes (Gab, A)
whose classes the tests enumerate, and subgroups lists the subgroups of
their Gab.
"""

from __future__ import annotations

from itertools import combinations

from lemfact.abelian import AbGroup, Elem, elem_order, subgroup_generated
from lemfact.cocycle import Cocycle, _mod_multiples


SMALL_PAIRS = [
    (AbGroup((2,)), AbGroup((2,))),
    (AbGroup((2, 2)), AbGroup((2,))),
    (AbGroup((4,)), AbGroup((2,))),
    (AbGroup((3,)), AbGroup((3,))),
    (AbGroup((2, 4)), AbGroup((2,))),
    (AbGroup((2, 2)), AbGroup((4,))),
    (AbGroup((2, 2, 2)), AbGroup((2,))),
    (AbGroup((6,)), AbGroup((2, 2))),
]


# (Gab moduli, A moduli, |H^2(Gab, A)|)
CLASS_COUNTS = [
    ((2,), (2,), 2), ((2, 2), (2,), 8), ((3,), (3,), 3), ((2,), (4,), 2), ((4,), (2,), 2),
    ((2, 3), (6,), 6), ((2, 2, 2), (4,), 64), ((2, 4), (4,), 16),
]


H2_PAIRS = list(dict.fromkeys(SMALL_PAIRS + [(AbGroup(g), AbGroup(a)) for g, a, _ in CLASS_COUNTS]))


def subgroups(gab):
    """Each subgroup of Gab generated by two elements, and Gab: every
    subgroup, for the shapes of H2_PAIRS."""
    els = list(gab.elements())
    subs = {subgroup_generated(gab, [x, y]) for x in els for y in els} | {frozenset(els)}
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def closure(zero, gens, op) -> frozenset:
    """All elements reachable from zero by repeatedly applying op(x, g)
    with g in gens, each element meeting every generator."""
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = op(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


class TableExtension:
    """An extension of Gab by A given by a cocycle table, nonzero entries
    only; every value is read off the table."""

    def __init__(self, gab: AbGroup, a: AbGroup, table: Cocycle):
        self.gab = gab
        self.a = a
        self.table = table
        self._ye = None

    def c(self, g: Elem, h: Elem) -> Elem:
        return self.table.get((g, h), self.a.zero())

    def pairing(self, x: Elem, y: Elem) -> Elem:
        """Commutator of lifts of x and y: c(x,y) - c(y,x)."""
        return self.a.sub(self.c(x, y), self.c(y, x))

    def power_class(self, y: Elem) -> Elem:
        """A-part of the |y|-th power of the lift (0, y)."""
        acc = self.a.zero()
        cur = y
        for _ in range(elem_order(self.gab, y) - 1):
            acc = self.a.add(acc, self.c(cur, y))
            cur = self.gab.add(cur, y)
        return acc

    def y_set(self) -> frozenset:
        """The y with power_class(y) in |y|*A."""
        if self._ye is None:
            zero = self.a.zero()
            self._ye = frozenset(
                y for y in self.gab.elements()
                if _mod_multiples(self.a, elem_order(self.gab, y), self.power_class(y)) == zero
            )
        return self._ye

    def in_y_set(self, y: Elem) -> bool:
        return y in self.y_set()

    def key(self):
        """The universal-coefficient coordinates of the class: the pairing
        on each basis pair i < j, and each basis lift power mod m_i*A."""
        k = self.gab.rank
        basis = [tuple(int(t == i) for t in range(k)) for i in range(k)]
        pairs = tuple(self.pairing(x, y) for x, y in combinations(basis, 2))
        powers = tuple(
            _mod_multiples(self.a, m, self.power_class(e)) for m, e in zip(self.gab.moduli, basis)
        )
        return pairs, powers

    def ext_zero(self):
        return (self.a.zero(), self.gab.zero())

    def ext_mul(self, x, y):
        a1, g1 = x
        a2, g2 = y
        return (self.a.add(self.a.add(a1, a2), self.c(g1, g2)), self.gab.add(g1, g2))

    def ext_elements(self):
        return ((a, g) for a in self.a.elements() for g in self.gab.elements())

    def ext_order(self, x) -> int:
        zero = self.ext_zero()
        cur = x
        n = 1
        while cur != zero:
            cur = self.ext_mul(cur, x)
            n += 1
        return n

    def ext_generated(self, gens) -> frozenset:
        return closure(self.ext_zero(), list(gens), self.ext_mul)


def add_tables(a: AbGroup, t1: Cocycle, t2: Cocycle) -> Cocycle:
    out = dict(t1)
    for k, v in t2.items():
        w = a.add(out.get(k, a.zero()), v)
        if w == a.zero():
            out.pop(k, None)
        else:
            out[k] = w
    return out


def sub_tables(a: AbGroup, t1: Cocycle, t2: Cocycle) -> Cocycle:
    """Entrywise difference of two tables."""
    return add_tables(a, t1, {k: a.neg(v) for k, v in t2.items()})


def carry_table(gab: AbGroup, a: AbGroup, i: int, av: Elem) -> Cocycle:
    """Cocycle inflated from the standard extension of C_{m_i}: value av
    times the carry of coordinate i."""
    if av == a.zero():
        return {}
    m = gab.moduli[i]
    return {(g, h): av for g in gab.elements() for h in gab.elements() if g[i] + h[i] >= m}


def bilinear_table(gab: AbGroup, a: AbGroup, i: int, j: int, bv: Elem) -> Cocycle:
    """Cocycle g_i * h_j * bv; bv must be killed by gcd(m_i, m_j)."""
    table = {}
    for g in gab.elements():
        for h in gab.elements():
            v = a.smul(g[i] * h[j], bv)
            if v != a.zero():
                table[(g, h)] = v
    return table


def key_table(gab: AbGroup, a: AbGroup, pairs, powers) -> Cocycle:
    """The sum of the carry table of each a_i and the bilinear table of
    each b_ij: the canonical cocycle of the key (pairs, powers)."""
    table = {}
    for i, av in enumerate(powers):
        table = add_tables(a, table, carry_table(gab, a, i, av))
    for (i, j), bv in zip(combinations(range(gab.rank), 2), pairs):
        table = add_tables(a, table, bilinear_table(gab, a, i, j, bv))
    return table


def coboundary_table(gab: AbGroup, a: AbGroup, phi) -> Cocycle:
    """The 2-coboundary of a 1-cochain phi (with phi(0) = 0)."""
    table = {}
    for g in gab.elements():
        for h in gab.elements():
            v = a.sub(a.add(phi[g], phi[h]), phi[gab.add(g, h)])
            if v != a.zero():
                table[(g, h)] = v
    return table


def d4_table() -> Cocycle:
    """D4 = <r, s | r^4 = s^2 = 1, srs = r^-1> as a central extension of
    C2 x C2 (images of r, s) by <r^2> = C2, via the section (i,j) -> r^i
    s^j: c(g, h) = 1 where the product of the sections of g and h is r^2
    times the section of g + h."""
    gab = AbGroup((2, 2))

    def mul(x, y):
        # (r^i s^j)(r^k s^l) = r^(i + (-1)^j k) s^(j+l)
        i, j = x
        k, l = y
        return ((i + (k if j == 0 else -k)) % 4, (j + l) % 2)

    table = {}
    for g in gab.elements():
        for h in gab.elements():
            i, j = mul(g, h)
            ref = gab.add(g, h)
            diff = (i - ref[0]) % 4
            assert diff in (0, 2) and j == ref[1]
            if diff:
                table[(g, h)] = (1,)
    return table
