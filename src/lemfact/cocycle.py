"""Central extensions of finite abelian groups as values of their H^2 class.

For Gab = C_{m_1} x ... x C_{m_k}, universal coefficients give H^2(Gab, A)
= (+)_i A/m_i*A (+) (+)_{i<j} A[gcd(m_i, m_j)], and a class is named by
its key: the commutator pairing b_ij on each basis pair i < j, and each
basis lift power a_i, read mod m_i*A.  Both are additive in a cocycle and
vanish on coboundaries, so two cocycles are cohomologous iff their keys
are equal.  A CentralExtension is the value (Gab, A, key): equal keys are
equal extensions, with one hash, so cohomologous extensions share every
memo.  Everything is read from the key through the canonical cocycle

    c(g, h) = sum_i [g_i + h_i >= m_i]*a_i + sum_{i<j} g_i*h_j*b_ij,

and the total group E is the set A x Gab with (a1,g1)*(a2,g2) =
(a1+a2+c(g1,g2), g1+g2), walked on demand.  Tables come in through
from_table and from_json, which keep only their key; check_cocycle and
is_coboundary answer about the table they are given.  .table, to_json
and from_json raise past |Gab|^2 = DESK_SUBGROUP_BOUND entries.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from math import gcd, prod
from operator import mul

from .abelian import (
    DESK_SUBGROUP_BOUND,
    AbGroup,
    Elem,
    _closure,
    elem_order,
    enumerate_automorphisms,
    is_subgroup,
    maximal_subgroup_masks,
    torsion_count,
)

Cocycle = dict[tuple[Elem, Elem], Elem]


class CentralExtension:
    """The extension of Gab by A with class key (pairs, powers): pairs
    holds b_ij for i < j in the order of combinations(range(k), 2), powers
    the a_i.  Both are reduced on construction, each a_i to the first
    element of its coset of m_i*A, so the value is the class.  Not to be
    changed after construction, which computes the hash once."""

    def __init__(self, gab: AbGroup, a: AbGroup, pairs, powers):
        self.gab = gab
        self.a = a
        self.pairs = tuple(map(a.reduce, pairs))
        self.powers = tuple(_mod_multiples(a, m, x) for m, x in zip(gab.moduli, powers))
        self._hash = hash((gab, a, self.pairs, self.powers))
        # per coordinate t of A: the t-th coordinates of the b_ij, then the a_i
        self._cols = [tuple(x[t] for x in self.pairs + self.powers) for t in range(a.rank)]
        self._ye = None

    def __eq__(self, other):
        if not isinstance(other, CentralExtension):
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and (self.gab, self.a, self.pairs, self.powers)
            == (other.gab, other.a, other.pairs, other.powers)
        )

    def __hash__(self):
        return self._hash

    @classmethod
    def from_table(cls, gab: AbGroup, a: AbGroup, table: Cocycle) -> "CentralExtension":
        """The class of a cocycle table, given by its nonzero entries: the
        pairing on each basis pair and each basis lift power, read off the
        table.  The table is not checked (check_cocycle)."""
        zero = a.zero()

        def c(g, h):
            return table.get((g, h), zero)

        basis = _basis(gab)
        pairs = [a.sub(c(x, y), c(y, x)) for x, y in itertools.combinations(basis, 2)]
        return cls(gab, a, pairs, [_lift_power(gab, a, c, e) for e in basis])

    def _combine(self, coefs) -> Elem:
        """The sum of coefs times b_ij (i < j), then a_i, reduced in A;
        coefficients left out count 0."""
        return tuple([sum(map(mul, coefs, col)) % n for col, n in zip(self._cols, self.a.moduli)])

    def c(self, g: Elem, h: Elem) -> Elem:
        """The canonical cocycle at (g, h)."""
        coefs = [gi * hj for (gi, _), (_, hj) in itertools.combinations(zip(g, h), 2)]
        coefs += [gi + hi >= m for gi, hi, m in zip(g, h, self.gab.moduli)]
        return self._combine(coefs)

    @property
    def table(self) -> Cocycle:
        """The nonzero entries of the canonical cocycle, |Gab|^2 at most."""
        _check_table_size(self.gab)
        zero = self.a.zero()
        els = list(self.gab.elements())
        return {(g, h): v for g in els for h in els if (v := self.c(g, h)) != zero}

    # --- pairing and restriction ------------------------------------

    def pairing(self, x: Elem, y: Elem) -> Elem:
        """Commutator of lifts of x and y: c(x,y) - c(y,x), bilinear,
        sum_{i<j} (x_i*y_j - x_j*y_i)*b_ij."""
        self.gab.check_elem(x)
        self.gab.check_elem(y)
        return self._combine(
            [xi * yj - xj * yi for (xi, yi), (xj, yj) in itertools.combinations(zip(x, y), 2)]
        )

    def power_class(self, y: Elem) -> Elem:
        """A-part of the n-th power of the canonical lift (0, y), n = |y|:
        sum_i (n*y_i/m_i)*a_i + n(n-1)/2 * sum_{i<j} y_i*y_j*b_ij, as the
        carries of coordinate i add up to n*y_i/m_i and the bilinear terms
        to sum_{t<n} t*y_i*y_j*b_ij, b_ij being killed by m_i."""
        n = elem_order(self.gab, y)
        t = n * (n - 1) // 2
        coefs = [t * yi * yj for yi, yj in itertools.combinations(y, 2)]
        coefs += [n * yi // m for yi, m in zip(y, self.gab.moduli)]
        return self._combine(coefs)

    def in_y_set(self, y: Elem) -> bool:
        """Whether y lies in Y_E: its cyclic restriction class vanishes,
        i.e. power_class(y) lies in |y|*A."""
        n = elem_order(self.gab, y)
        return _mod_multiples(self.a, n, self.power_class(y)) == self.a.zero()

    def y_set(self) -> frozenset:
        """Y_E, the elements y with in_y_set(y)."""
        if self._ye is None:
            self._ye = frozenset(filter(self.in_y_set, self.gab.elements()))
        return self._ye

    # --- total group -------------------------------------------------

    def ext_zero(self):
        return (self.a.zero(), self.gab.zero())

    def ext_mul(self, x, y):
        a1, g1 = x
        a2, g2 = y
        return (self.a.add(self.a.add(a1, a2), self.c(g1, g2)), self.gab.add(g1, g2))

    def ext_elements(self):
        return ((a, g) for a in self.a.elements() for g in self.gab.elements())

    def ext_order(self, x) -> int:
        """|x| for x = (a, g): n times the order in A of n*a +
        power_class(g), n = |g|, as A is central and x^n is that element
        of A."""
        av, g = x
        n = elem_order(self.gab, g)
        return n * elem_order(self.a, self.a.add(self.a.smul(n, av), self.power_class(g)))

    def ext_generated(self, gens) -> frozenset:
        return _closure(self.ext_zero(), list(gens), self.ext_mul)

    # --- serialization ----------------------------------------------

    def to_json(self) -> dict:
        _check_table_size(self.gab)
        els = list(self.gab.elements())
        return {
            "Gab": list(self.gab.moduli),
            "A": list(self.a.moduli),
            "cocycle": [[list(self.c(g, h)) for h in els] for g in els],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CentralExtension":
        gab = AbGroup(tuple(json_field(data, "Gab", list, "extension JSON", int)))
        a = AbGroup(tuple(json_field(data, "A", list, "extension JSON", int)))
        _check_table_size(gab)
        els = list(gab.elements())
        rows = json_field(data, "cocycle", list, "extension JSON", list)
        if len(rows) != len(els) or any(len(r) != len(els) for r in rows):
            raise ValueError("cocycle array has wrong shape")
        table = {}
        for i, g in enumerate(els):
            for j, h in enumerate(els):
                v = _json_ints(rows[i][j], "cocycle entry")
                if not a.contains(v):
                    raise ValueError(f"entry {v} not reduced in A")
                if v != a.zero():
                    table[(g, h)] = v
        check_cocycle(gab, a, table)
        return cls.from_table(gab, a, table)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def _check_table_size(gab: AbGroup) -> None:
    """Raise before any work when a table over gab, |Gab|^2 entries, has
    more than DESK_SUBGROUP_BOUND of them: from_json would check the
    cocycle identity on up to floor(log2 |Gab|) + 1 rows of |Gab|^2
    pairs each (check_cocycle)."""
    if gab.order**2 > DESK_SUBGROUP_BOUND:
        raise ValueError(
            f"cocycle table of {gab.order**2} entries exceeds bound {DESK_SUBGROUP_BOUND}"
        )


def _basis(gab: AbGroup) -> list[Elem]:
    k = gab.rank
    return [tuple(int(t == i) for t in range(k)) for i in range(k)]


def _lift_power(gab: AbGroup, a: AbGroup, c, y: Elem) -> Elem:
    """A-part of the |y|-th power of the lift (0, y) under the cocycle c:
    sum_{t=1}^{|y|-1} c(t*y, y)."""
    acc = a.zero()
    cur = y
    for _ in range(elem_order(gab, y) - 1):
        acc = a.add(acc, c(cur, y))
        cur = gab.add(cur, y)
    return acc


def check_cocycle(gab: AbGroup, a: AbGroup, table: Cocycle):
    """Raise unless the table (its nonzero entries) is normalized and
    satisfies the 2-cocycle identity c(g,h) + c(g+h,k) = c(h,k) + c(g,h+k)
    in A.

    The error names the first triple in row-major (g, h, k) order that
    fails.  Entries need not be reduced in A, but must have its rank.
    The defect D(g,h,k) = c(g,h) + c(g+h,k) - c(h,k) - c(g,h+k) is the
    coboundary of c, so its own coboundary vanishes (A is a trivial
    module), which reads D(g1+g2,h,k) = D(g2,h,k) + D(g1,g2+h,k) -
    D(g1,g2,h+k) + D(g1,g2,h): the rows g on which D vanishes form a
    subgroup.  So a row in the subgroup generated by the rows that passed
    passes and is skipped, and the first row tested that fails is the
    first failing row.  Each row that passes at least doubles that
    subgroup, so at most floor(log2 |Gab|) + 1 rows are tested, each on
    its |Gab|^2 pairs (h, k); from_json runs this on every table it
    reads."""
    zero_a = a.zero()
    zero_g = gab.zero()

    def c(g, h):
        return table.get((g, h), zero_a)

    els = list(gab.elements())
    for g in els:
        if c(zero_g, g) != zero_a or c(g, zero_g) != zero_a:
            raise ValueError(f"cocycle not normalized at {g}")
    for g in els:
        for h in els:
            if len(v := c(g, h)) != a.rank:
                raise ValueError(f"cocycle entry {v} at {(g, h)} has wrong length for A")
    add, aadd, get = gab.add, a.add, table.get
    passed = []
    subgroup = {zero_g}
    for g in els:
        if g in subgroup:
            continue
        for h in els:
            gh = add(g, h)
            cgh = c(g, h)
            for k in els:
                left = aadd(cgh, get((gh, k), zero_a))
                if left != aadd(get((h, k), zero_a), get((g, add(h, k)), zero_a)):
                    raise ValueError(f"cocycle identity fails at {(g, h, k)}")
        passed.append(g)
        subgroup = _closure(zero_g, passed, add)


def _json_is(value, kind: type) -> bool:
    """isinstance(value, kind) for parsed JSON, where true and false are
    not ints (bool subclasses int)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def json_field(data, key: str, kind: type, what: str, items: type | None = None):
    """data[key] from parsed JSON, checked to be a kind (and, when items is
    given, a list of items); a ValueError naming the missing key or the
    wrong type otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    if key not in data:
        raise ValueError(f"{what} lacks key {key!r}")
    value = data[key]
    if not _json_is(value, kind):
        article = "an" if kind.__name__[0] in "aeiou" else "a"
        raise ValueError(f"{what} key {key!r} must be {article} {kind.__name__}, "
                         f"not {type(value).__name__}")
    if items is not None:
        for x in value:
            if not _json_is(x, items):
                raise ValueError(f"{what} key {key!r} must hold {items.__name__}s, "
                                 f"not {type(x).__name__}")
    return value


def _json_ints(value, what: str) -> Elem:
    """A group element from parsed JSON: a list of ints, as a tuple; a
    ValueError naming what otherwise."""
    if not isinstance(value, list) or not all(_json_is(x, int) for x in value):
        raise ValueError(f"{what} must be a list of ints, not {json.dumps(value)}")
    return tuple(value)


# --- class key ------------------------------------------------------------

def _mod_multiples(a: AbGroup, m: int, x: Elem) -> Elem:
    """Canonical representative of x + m*A: m*C_n = gcd(m, n)*C_n, so each
    coordinate is read mod gcd(m, n)."""
    return tuple(c % gcd(m, n) for c, n in zip(x, a.moduli))


# --- coboundary decision -------------------------------------------------

def is_coboundary(gab: AbGroup, a: AbGroup, table: Cocycle):
    """Decide whether c(g,h) = phi(g) + phi(h) - phi(g+h) for some
    1-cochain phi with phi(0) = 0, c being the table's entries.

    Returns (True, phi) with phi a dict Gab -> A, or (False, None).  A
    nonzero class key rules phi out for any table.  On a zero key each
    basis vector e_i lifts to (x_i, e_i) with m_i*x_i = -(the table's
    power of (0, e_i)); the lifts commute, so sigma(g) = prod_i (x_i,
    e_i)^(g_i) is a section and phi = -(A-part of sigma) when the table
    is a cocycle.  Checking every entry against phi decides a table that
    is not a cocycle.
    """
    zero_a = a.zero()

    def c(g, h):
        return table.get((g, h), zero_a)

    ext = CentralExtension.from_table(gab, a, table)
    if any(v != zero_a for v in ext.pairs + ext.powers):
        return False, None
    lifts = []
    for m, e in zip(gab.moduli, _basis(gab)):
        x = []
        for p, n in zip(_lift_power(gab, a, c, e), a.moduli):
            d = gcd(m, n)
            x.append(-(p // d) * pow(m // d, -1, n // d) % (n // d))
        lifts.append((tuple(x), e))
    phi = {}
    for g in gab.elements():
        s, sg = zero_a, gab.zero()
        for (x, e), gi in zip(lifts, g):
            for _ in range(gi):
                s, sg = a.add(a.add(s, x), c(sg, e)), gab.add(sg, e)
        phi[g] = a.neg(s)
    if all(
        c(g, h) == a.sub(a.add(phi[g], phi[h]), phi[gab.add(g, h)])
        for g in phi
        for h in phi
    ):
        return True, phi
    return False, None


def cohomologous(e1: CentralExtension, e2: CentralExtension) -> bool:
    if e1.gab != e2.gab or e1.a != e2.a:
        raise ValueError("extensions live over different groups")
    return e1 == e2


# --- automorphism action -------------------------------------------------

def aut_stabilizer_order(ext: CentralExtension) -> int:
    """Number of automorphisms of A fixing the class [c] (i.e. alpha∘c
    cohomologous to c).  alpha is additive, so it moves the class key
    coordinate by coordinate and maps x + m*A into alpha(x) + m*A."""
    return _aut_counts(ext)[1]


def class_orbit_size(ext: CentralExtension) -> int:
    n_aut, stab = _aut_counts(ext)
    assert n_aut % stab == 0
    return n_aut // stab


@lru_cache(maxsize=1 << 10)
def _aut_counts(ext: CentralExtension) -> tuple[int, int]:
    """(|Aut(A)|, aut_stabilizer_order(ext)), from one enumeration of
    Aut(A): both depend on the class alone."""
    # memoised: every classify call with a witness reads both
    auts = enumerate_automorphisms(ext.a)
    stab = sum(
        CentralExtension(ext.gab, ext.a, map(alpha, ext.pairs), map(alpha, ext.powers)) == ext
        for alpha in auts
    )
    return len(auts), stab


# --- admissible pairs ----------------------------------------------------

def order_preserving_lifts(ext: CentralExtension, h_sub: frozenset):
    """Elements x of E with |x| = |pi(x)| and pi(x) outside H: the
    possible inertia generators of an extension unramified over the field
    cut out by Gab/H.  In the order of ext_elements: the (a, g) with g
    outside H and n*a + power_class(g) = 0, n = |g| (ext_order)."""
    a = ext.a
    powers = {
        g: (elem_order(ext.gab, g), ext.power_class(g))
        for g in ext.gab.elements()
        if g not in h_sub
    }
    for av in a.elements():
        for g, (n, p) in powers.items():
            if a.add(a.smul(n, av), p) == a.zero():
                yield av, g


def is_admissible_pair(ext: CentralExtension, h_sub: frozenset):
    """Whether (pi^{-1}(H), E) is an admissible pair: the total group must
    be generated by lifts x with |x| = |pi(x)| and pi(x) outside H.

    Returns (bool, diagnostic string).
    """
    if not is_subgroup(ext.gab, h_sub):
        return False, "H is not a subgroup of Gab"
    gens = list(order_preserving_lifts(ext, frozenset(h_sub)))
    if not gens:
        return False, "no order-preserving lifts outside H"
    generated = ext.ext_generated(gens)
    if len(generated) == ext.a.order * ext.gab.order:
        return True, "ok"
    return False, f"lifts generate only {len(generated)} of {ext.a.order * ext.gab.order} elements"


# --- enumeration of H^2 --------------------------------------------------

# classes of H^2(Gab, A) that enumerate_central_extensions lists: the
# quaternion_pair_hits search over (C2^3, C2) has 64, (C2^4, C2) 1024;
# each class is a key of O(rank^2) values, but quaternion_pair_hits walks
# the total group of each class with a quaternion preimage (is_admissible_pair)
DESK_H2_BOUND = 2**7


def enumerate_central_extensions(gab: AbGroup, a: AbGroup):
    """One extension per class of H^2(Gab, A), built from its key.

    Each A/m_i*A coordinate is the lexicographically first element of its
    coset, so coordinate t runs over range(gcd(m_i, n_t)); each pair
    value runs over A[gcd(m_i, m_j)].  Deterministic: classes come in
    lexicographic order of (carries, bilinear values).
    Raises ValueError, before any work, past DESK_H2_BOUND classes:
    prod_i #A[m_i] * prod_{i<j} #A[gcd(m_i, m_j)] for Gab = C_{m_1} x ...
    x C_{m_k}.
    """
    orders = [gcd(mi, mj) for mi, mj in itertools.combinations(gab.moduli, 2)]
    classes = prod(torsion_count(a, m) for m in gab.moduli) * prod(
        torsion_count(a, g) for g in orders
    )
    if classes > DESK_H2_BOUND:
        raise ValueError(f"{classes} H^2 classes exceed bound {DESK_H2_BOUND}")
    carry_choices = [
        itertools.product(*(range(gcd(m, n)) for n in a.moduli)) for m in gab.moduli
    ]
    pair_choices = [
        [x for x in a.elements() if a.smul(g, x) == a.zero()] for g in orders
    ]
    return [
        CentralExtension(gab, a, bils, carries)
        for carries in itertools.product(*carry_choices)
        for bils in itertools.product(*pair_choices)
    ]


# --- presets -------------------------------------------------------------

def split_extension(gab: AbGroup, a: AbGroup) -> CentralExtension:
    zero, k = a.zero(), gab.rank
    return CentralExtension(gab, a, [zero] * (k * (k - 1) // 2), [zero] * k)


def _d4_extension():
    """D4 = <r, s | r^4 = s^2 = 1, srs = r^-1> as a central extension of
    C2 x C2 (images of r, s) by <r^2> = C2: the commutator of r and s
    and the square of r are r^2, the square of s is 1."""
    ext = CentralExtension(AbGroup((2, 2)), AbGroup((2,)), [(1,)], [(1,), (0,)])
    h_sub = frozenset({(0, 0), (1, 0)})  # <rbar>; preimage is <r> = C4
    return ext, h_sub


def _triangular_extension(p: int) -> CentralExtension:
    """The extension of C_p^3 by C_p with pairing 1 on every basis pair
    i < j and no lift powers: c(g, h) = g0*h1 + g0*h2 + g1*h2 mod p."""
    return CentralExtension(AbGroup((p, p, p)), AbGroup((p,)), [(1,)] * 3, [(0,)] * 3)


def _heisenberg_extension(ell: int):
    """Extension of C_ell^3 (basis xbar, ybar, sigmabar) by C_ell with
    commutator pairing [e_i, e_j] = z for i < j and all lifts of order ell."""
    from .arith import is_prime

    if ell == 2 or not is_prime(ell):
        raise ValueError("Heisenberg preset needs an odd prime")
    if ell**3 > DESK_SUBGROUP_BOUND:
        # the base field check rejects this Gab, and Y_E lists its elements
        raise ValueError(f"group order {ell**3} exceeds bound {DESK_SUBGROUP_BOUND}")
    ext = _triangular_extension(ell)
    h_sub = frozenset((i, j, 0) for i in range(ell) for j in range(ell))  # <xbar, ybar>
    return ext, h_sub


def _is_quaternion8(ext: CentralExtension, h_sub) -> bool:
    """Whether the preimage A x H of H is Q8: order 8, one element of
    order 2 (ext_order), and nonabelian, the commutator of two lifts
    being the pairing of their images."""
    a = ext.a
    if a.order * len(h_sub) != 8:
        return False
    if sum(ext.ext_order((av, g)) == 2 for av in a.elements() for g in h_sub) != 1:
        return False
    return any(ext.pairing(x, y) != a.zero() for x in h_sub for y in h_sub)


def _pullback(ext: CentralExtension, phi) -> CentralExtension:
    """The extension pulled back along an automorphism phi of Gab, with
    cocycle c(phi(g), phi(h)): its key is the pairing and the lift powers
    at the images of the basis."""
    images = [phi(e) for e in _basis(ext.gab)]
    return CentralExtension(
        ext.gab,
        ext.a,
        [ext.pairing(x, y) for x, y in itertools.combinations(images, 2)],
        map(ext.power_class, images),
    )


@lru_cache(maxsize=None)
def quaternion_pair_hits():
    """All (class, H) pairs over (C2^3, C2) whose middle group contains
    the quaternion group as an index-2 admissible subgroup, in
    deterministic enumeration order.  The index-2 subgroups H are one per
    bit of maximal_subgroup_masks, all set in the mask of 0, and the
    preimage of each H is tested for Q8 from the class key
    (_is_quaternion8)."""
    gab = AbGroup((2, 2, 2))
    a = AbGroup((2,))
    masks = maximal_subgroup_masks(gab, gab.elements())
    index2 = sorted((frozenset(x for x, m in masks.items() if m >> f & 1)
                     for f in range(masks[gab.zero()].bit_length())), key=sorted)
    hits = []
    for ext in enumerate_central_extensions(gab, a):
        for h_sub in index2:
            if _is_quaternion8(ext, h_sub) and is_admissible_pair(ext, h_sub)[0]:
                hits.append((ext, h_sub))
                break
    return tuple(hits)


def quaternion_pair_class_count() -> int:
    """Number of quaternion (class, H) hits up to simultaneous relabeling
    of the C2^3 basis: cohomology distinguishes base-changed copies of
    one pair, so uniqueness of the pair means a single orbit here."""
    auts = enumerate_automorphisms(AbGroup((2, 2, 2)))
    reps = []
    for ext, h_sub in quaternion_pair_hits():
        if not any(
            frozenset(phi(x) for x in h_sub) == rh and _pullback(rext, phi) == ext
            for rext, rh in reps
            for phi in auts
        ):
            reps.append((ext, h_sub))
    return len(reps)


def _h8_pair():
    """The unique quaternion pair over (C2^3, C2): the class with no
    carries and pairing 1 on every basis pair, c(g, h) = g0*h1 + g0*h2 +
    g1*h2 mod 2, with H = <(0,1,1), (1,0,1)>, whose preimage is H8.  It is
    the first hit of quaternion_pair_hits, which the tests compare it
    with."""
    h_sub = frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)})
    return _triangular_extension(2), h_sub


_PRESET_NAMES = ("C4_D4", "H8_pair", "Heisenberg", "split")


def preset(name: str, param=None):
    """Named extensions with their designated subgroup H of Gab.

    Returns (CentralExtension, H) where H is a frozenset of Gab elements
    (None for "split" with no designated subgroup).
    """
    if name == "C4_D4":
        return _d4_extension()
    if name == "H8_pair":
        return _h8_pair()
    if name == "Heisenberg":
        if param is None:
            raise ValueError("Heisenberg preset needs the odd prime ell")
        return _heisenberg_extension(int(param))
    if name == "split":
        if param is None:
            raise ValueError("split preset needs (Gab moduli, A moduli)")
        gab_moduli, a_moduli = param
        return split_extension(AbGroup(tuple(gab_moduli)), AbGroup(tuple(a_moduli))), None
    raise ValueError(f"unknown preset {name!r}; choose from {_PRESET_NAMES}")
