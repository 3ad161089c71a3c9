"""Central extensions of finite abelian groups via normalized 2-cocycles.

An extension of Gab by A is stored as an explicit table c(g,h) in A with
c(0,g) = c(g,0) = 0.  The total group E is the set A x Gab with
(a1,g1)*(a2,g2) = (a1+a2+c(g1,g2), g1+g2); it is materialized on demand.
Each class of H^2(Gab, A) is named by its universal-coefficient
coordinates (see _class_key); class equality, the Aut(A) stabilizer and
Y_E read those coordinates instead of whole tables.  The H^2 enumeration
builds one table per key, and is_coboundary reads phi off a section
built from the key: neither solves a linear system.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from math import gcd, prod
from operator import add

from .abelian import (
    DESK_SUBGROUP_BOUND,
    AbGroup,
    Elem,
    _closure,
    elem_order,
    enumerate_automorphisms,
    is_subgroup,
    subgroup_generated,
    torsion_count,
)

Cocycle = dict[tuple[Elem, Elem], Elem]


class CentralExtension:
    def __init__(self, gab: AbGroup, a: AbGroup, table: Cocycle):
        self.gab = gab
        self.a = a
        self.table = table
        self._ye = None
        self._aut_counts = None

    def c(self, g: Elem, h: Elem) -> Elem:
        v = self.table.get((g, h))
        return v if v is not None else self.a.zero()

    def check_cocycle(self):
        """Raise unless the table is normalized and satisfies the
        2-cocycle identity c(g,h) + c(g+h,k) = c(h,k) + c(g,h+k) in A.

        Every triple is tested in row-major (g, h, k) order and the error
        names the first that fails.  Entries need not be reduced in A, but
        must have its rank.  Cubic in |Gab|; from_json runs it on every
        table it reads.  The loop runs on element indices: each entry is
        one int holding its reduced coordinates (or their negatives) in
        fields of width 4*max(m), so c(g,h) + c(g+h,k) - c(h,k) - c(g,h+k)
        is a sum of four such ints without carries, and the identity holds
        iff every field reads 0, m, 2m or 3m."""
        a = self.a
        zero_a = a.zero()
        zero_g = self.gab.zero()
        els = list(self.gab.elements())
        for g in els:
            if self.c(zero_g, g) != zero_a or self.c(g, zero_g) != zero_a:
                raise ValueError(f"cocycle not normalized at {g}")
        width = 4 * max(a.moduli, default=1)

        def pack(v):
            return sum(x * width**t for t, x in enumerate(v))

        index = {g: i for i, g in enumerate(els)}
        sums = [[index[self.gab.add(g, h)] for h in els] for g in els]
        packed = {}  # entry -> (c, -c), packed
        vals, negs = [], []
        for g in els:
            row = [self.c(g, h) for h in els]
            for h, v in zip(els, row):
                if v not in packed:
                    if len(v) != a.rank:
                        raise ValueError(f"cocycle entry {v} at {(g, h)} has wrong length for A")
                    packed[v] = pack(a.reduce(v)), pack(a.neg(v))
            vals.append([packed[v][0] for v in row])
            negs.append([packed[v][1] for v in row])
        zeros = frozenset(
            pack(j * m for j, m in zip(js, a.moduli))
            for js in itertools.product(range(4), repeat=a.rank)
        )
        n = len(els)
        neg_flat = [x for row in negs for x in row]  # -c(h, k) at h*n + k
        sum_flat = [x for row in sums for x in row]  # index of h + k at h*n + k
        for g, val_g, neg_g, sum_g in zip(els, vals, negs, sums):
            # c(g,h) + c(g+h,k) - c(h,k) - c(g,h+k) over (h, k) in row-major order
            lhs = [cgh + x for cgh, gh in zip(val_g, sum_g) for x in vals[gh]]
            total = list(map(add, lhs, map(add, neg_flat, map(neg_g.__getitem__, sum_flat))))
            if not zeros.issuperset(total):
                i = next(i for i, t in enumerate(total) if t not in zeros)
                raise ValueError(f"cocycle identity fails at {(g, els[i // n], els[i % n])}")

    # --- pairing and restriction ------------------------------------

    def pairing(self, x: Elem, y: Elem) -> Elem:
        """Commutator of lifts of x and y: c(x,y) - c(y,x)."""
        self.gab.check_elem(x)
        self.gab.check_elem(y)
        return self.a.sub(self.c(x, y), self.c(y, x))

    def power_class(self, y: Elem) -> Elem:
        """A-part of the |y|-th power of the canonical lift (0, y)."""
        n = elem_order(self.gab, y)
        acc = self.a.zero()
        cur = y
        for _ in range(n - 1):
            acc = self.a.add(acc, self.c(cur, y))
            cur = self.gab.add(cur, y)
        return acc

    def y_set(self) -> frozenset:
        """Y_E: elements whose cyclic restriction class vanishes, i.e.
        power_class(y) lies in |y|*A."""
        if self._ye is None:
            zero = self.a.zero()
            self._ye = frozenset(
                y for y in self.gab.elements()
                if _mod_multiples(self.a, elem_order(self.gab, y), self.power_class(y)) == zero
            )
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
        zero = self.ext_zero()
        cur = x
        n = 1
        while cur != zero:
            cur = self.ext_mul(cur, x)
            n += 1
        return n

    def ext_generated(self, gens) -> frozenset:
        return _closure(self.ext_zero(), list(gens), self.ext_mul)

    # --- serialization ----------------------------------------------

    def to_json(self) -> dict:
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
        ext = cls(gab, a, table)
        ext.check_cocycle()
        return ext

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


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


# --- table arithmetic ----------------------------------------------------

def add_tables(a: AbGroup, t1: Cocycle, t2: Cocycle) -> Cocycle:
    out = dict(t1)
    for k, v in t2.items():
        w = a.add(out.get(k, a.zero()), v)
        if w == a.zero():
            out.pop(k, None)
        else:
            out[k] = w
    return out


# --- class key ------------------------------------------------------------

def _mod_multiples(a: AbGroup, m: int, x: Elem) -> Elem:
    """Canonical representative of x + m*A: m*C_n = gcd(m, n)*C_n, so each
    coordinate is read mod gcd(m, n)."""
    return tuple(c % gcd(m, n) for c, n in zip(x, a.moduli))


def _class_key(ext: CentralExtension):
    """Coordinates of [c] under universal coefficients, H^2(Gab, A) =
    (+)_i A/m_i*A (+) (+)_{i<j} A[gcd(m_i, m_j)] for Gab = C_{m_1} x ... x
    C_{m_k}: the commutator pairing on each basis pair i < j, and each basis
    lift power read mod m_i*A.  Both are additive in the table and vanish
    on coboundaries, so two cocycles are cohomologous iff their keys are
    equal."""
    gab = ext.gab
    k = gab.rank
    basis = [tuple(int(t == i) for t in range(k)) for i in range(k)]
    pairs = tuple(ext.pairing(basis[i], basis[j]) for i in range(k) for j in range(i + 1, k))
    powers = tuple(
        _mod_multiples(ext.a, m, ext.power_class(e)) for m, e in zip(gab.moduli, basis)
    )
    return pairs, powers


# --- coboundary decision -------------------------------------------------

def is_coboundary(gab: AbGroup, a: AbGroup, table: Cocycle):
    """Decide whether c(g,h) = phi(g) + phi(h) - phi(g+h) for some
    1-cochain phi with phi(0) = 0.

    Returns (True, phi) with phi a dict Gab -> A, or (False, None).  A
    nonzero class key rules phi out for any table.  On a zero key each
    basis vector e_i lifts to (x_i, e_i) with m_i*x_i = -power_class(e_i);
    the lifts commute, so sigma(g) = prod_i (x_i, e_i)^(g_i) is a section
    and phi = -(A-part of sigma) when the table is a cocycle.  Checking
    every entry against phi decides a table that is not a cocycle.
    """
    ext = CentralExtension(gab, a, table)
    pairs, powers = _class_key(ext)
    zero_a = a.zero()
    if any(v != zero_a for v in pairs + powers):
        return False, None
    lifts = []
    for i, m in enumerate(gab.moduli):
        e = tuple(int(t == i) for t in range(gab.rank))
        x = []
        for p, n in zip(ext.power_class(e), a.moduli):
            d = gcd(m, n)
            x.append(-(p // d) * pow(m // d, -1, n // d) % (n // d))
        lifts.append((tuple(x), e))
    phi = {}
    for g in gab.elements():
        s = ext.ext_zero()
        for lift, gi in zip(lifts, g):
            for _ in range(gi):
                s = ext.ext_mul(s, lift)
        phi[g] = a.neg(s[0])
    if all(
        ext.c(g, h) == a.sub(a.add(phi[g], phi[h]), phi[gab.add(g, h)])
        for g in phi
        for h in phi
    ):
        return True, phi
    return False, None


def cohomologous(e1: CentralExtension, e2: CentralExtension) -> bool:
    if e1.gab != e2.gab or e1.a != e2.a:
        raise ValueError("extensions live over different groups")
    return _class_key(e1) == _class_key(e2)


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


def _aut_counts(ext: CentralExtension) -> tuple[int, int]:
    """(|Aut(A)|, aut_stabilizer_order(ext)), from one enumeration of
    Aut(A), kept on ext: both depend on the extension alone."""
    if ext._aut_counts is None:
        pairs, powers = key = _class_key(ext)
        moduli = ext.gab.moduli
        auts = enumerate_automorphisms(ext.a)
        stab = sum(
            (
                tuple(map(alpha, pairs)),
                tuple(_mod_multiples(ext.a, m, alpha(x)) for m, x in zip(moduli, powers)),
            ) == key
            for alpha in auts
        )
        ext._aut_counts = (len(auts), stab)
    return ext._aut_counts


# --- admissible pairs ----------------------------------------------------

def order_preserving_lifts(ext: CentralExtension, h_sub: frozenset):
    """Elements x of E with |x| = |pi(x)| and pi(x) outside H: the
    possible inertia generators of an extension unramified over the field
    cut out by Gab/H."""
    for x in ext.ext_elements():
        g = x[1]
        if g in h_sub:
            continue
        if ext.ext_order(x) == elem_order(ext.gab, g):
            yield x


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

# classes of H^2(Gab, A) that enumerate_central_extensions builds: the
# quaternion_pair_hits search over (C2^3, C2) has 64, (C2^4, C2) 1024;
# each is a |Gab|^2-entry table to build
DESK_H2_BOUND = 2**7


def _carry_table(gab: AbGroup, a: AbGroup, i: int, av: Elem) -> Cocycle:
    """Cocycle inflated from the standard extension of C_{m_i}: value av
    times the carry of coordinate i."""
    table = {}
    m = gab.moduli[i]
    if av == a.zero():
        return table
    for g in gab.elements():
        for h in gab.elements():
            if g[i] + h[i] >= m:
                table[(g, h)] = av
    return table


def _bilinear_table(gab: AbGroup, a: AbGroup, i: int, j: int, bv: Elem) -> Cocycle:
    """Cocycle g_i * h_j * bv; bv must be killed by gcd(m_i, m_j)."""
    table = {}
    if bv == a.zero():
        return table
    for g in gab.elements():
        if g[i] == 0:
            continue
        for h in gab.elements():
            if h[j] == 0:
                continue
            v = a.smul(g[i] * h[j], bv)
            if v != a.zero():
                table[(g, h)] = v
    return table


def enumerate_central_extensions(gab: AbGroup, a: AbGroup):
    """One normalized-cocycle representative per class of H^2(Gab, A).

    Builds one table per class key: the sum of the carry cocycle of each
    factor C_{m_i} with value the key's coordinate in A/m_i*A, and the
    bilinear cocycle of each factor pair i < j with value the key's
    coordinate in A[gcd(m_i, m_j)].  Each A/m_i*A coordinate is the
    lexicographically first element of its coset, so coordinate t runs
    over range(gcd(m_i, n_t)).  Deterministic: classes come in
    lexicographic order of (carries, bilinear values).
    Raises ValueError, before any work, past DESK_H2_BOUND classes:
    prod_i #A[m_i] * prod_{i<j} #A[gcd(m_i, m_j)] for Gab = C_{m_1} x ...
    x C_{m_k}.
    """
    k = gab.rank
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    orders = [gcd(gab.moduli[i], gab.moduli[j]) for i, j in pairs]
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
    out = []
    for carries in itertools.product(*carry_choices):
        base = {}
        for i, av in enumerate(carries):
            base = add_tables(a, base, _carry_table(gab, a, i, av))
        for bils in itertools.product(*pair_choices):
            table = base
            for (i, j), bv in zip(pairs, bils):
                table = add_tables(a, table, _bilinear_table(gab, a, i, j, bv))
            out.append(CentralExtension(gab, a, table))
    return out


# --- presets -------------------------------------------------------------

def split_extension(gab: AbGroup, a: AbGroup) -> CentralExtension:
    return CentralExtension(gab, a, {})


def _d4_extension():
    """D4 = <r, s | r^4 = s^2 = 1, srs = r^-1> as a central extension of
    C2 x C2 (images of r, s) by <r^2> = C2, via the section (i,j) -> r^i s^j."""
    gab = AbGroup((2, 2))
    a = AbGroup((2,))

    def mul(x, y):
        # (r^i s^j)(r^k s^l) = r^(i + (-1)^j k) s^(j+l)
        i, j = x
        k, l = y
        return ((i + (k if j == 0 else -k)) % 4, (j + l) % 2)

    table = {}
    for g in gab.elements():
        for h in gab.elements():
            i, j = mul((g[0], g[1]), (h[0], h[1]))
            ref = ((g[0] + h[0]) % 2, (g[1] + h[1]) % 2)
            diff = (i - ref[0]) % 4
            assert diff in (0, 2) and j == ref[1]
            if diff:
                table[(g, h)] = (1,)
    ext = CentralExtension(gab, a, table)
    h_sub = frozenset({(0, 0), (1, 0)})  # <rbar>; preimage is <r> = C4
    return ext, h_sub


def _triangular_extension(p: int) -> CentralExtension:
    """The extension of C_p^3 by C_p with c(g, h) = g0*h1 + g0*h2 + g1*h2
    mod p: no carries, and pairing 1 on every basis pair i < j."""
    gab = AbGroup((p, p, p))
    table = {}
    for g in gab.elements():
        for h in gab.elements():
            v = (g[0] * h[1] + g[0] * h[2] + g[1] * h[2]) % p
            if v:
                table[(g, h)] = (v,)
    return CentralExtension(gab, AbGroup((p,)), table)


def _heisenberg_extension(ell: int):
    """Extension of C_ell^3 (basis xbar, ybar, sigmabar) by C_ell with
    commutator pairing [e_i, e_j] = z for i < j and all lifts of order ell."""
    from .arith import is_prime

    if ell == 2 or not is_prime(ell):
        raise ValueError("Heisenberg preset needs an odd prime")
    if ell**3 > DESK_SUBGROUP_BOUND:
        # the base field check rejects this Gab; the table has ell^6 entries
        raise ValueError(f"group order {ell**3} exceeds bound {DESK_SUBGROUP_BOUND}")
    ext = _triangular_extension(ell)
    h_sub = frozenset((i, j, 0) for i in range(ell) for j in range(ell))  # <xbar, ybar>
    return ext, h_sub


def _is_quaternion8(ext: CentralExtension, subset) -> bool:
    """Order 8, a unique involution, nonabelian."""
    subset = list(subset)
    if len(subset) != 8:
        return False
    involutions = sum(1 for x in subset if x != ext.ext_zero() and ext.ext_order(x) == 2)
    if involutions != 1:
        return False
    return any(
        ext.ext_mul(x, y) != ext.ext_mul(y, x) for x in subset for y in subset
    )


def _pullback_table(ext: CentralExtension, phi) -> Cocycle:
    """Pull the cocycle back along an automorphism of Gab."""
    table = {}
    for g in ext.gab.elements():
        for h in ext.gab.elements():
            v = ext.c(phi(g), phi(h))
            if v != ext.a.zero():
                table[(g, h)] = v
    return table


@lru_cache(maxsize=None)
def quaternion_pair_hits():
    """All (class, H) pairs over (C2^3, C2) whose middle group contains
    the quaternion group as an index-2 admissible subgroup, in
    deterministic enumeration order."""
    gab = AbGroup((2, 2, 2))
    a = AbGroup((2,))
    index2 = []
    for gens in itertools.combinations([g for g in gab.elements() if g != gab.zero()], 2):
        h = subgroup_generated(gab, gens)
        if len(h) == 4 and h not in index2:
            index2.append(h)
    index2.sort(key=sorted)
    hits = []
    for ext in enumerate_central_extensions(gab, a):
        for h_sub in index2:
            preimage = [(av, g) for av in a.elements() for g in h_sub]
            if _is_quaternion8(ext, preimage) and is_admissible_pair(ext, h_sub)[0]:
                hits.append((ext, h_sub))
                break
    return tuple(hits)


def quaternion_pair_class_count() -> int:
    """Number of quaternion (class, H) hits up to simultaneous relabeling
    of the C2^3 basis: cohomology distinguishes base-changed copies of
    one pair, so uniqueness of the pair means a single orbit here."""
    hits = quaternion_pair_hits()
    gab = AbGroup((2, 2, 2))
    a = AbGroup((2,))
    auts = enumerate_automorphisms(gab)
    reps = []
    for ext, h_sub in hits:
        key = _class_key(ext)
        if not any(
            frozenset(phi(x) for x in h_sub) == rh
            and _class_key(CentralExtension(gab, a, _pullback_table(rext, phi))) == key
            for rext, rh in reps
            for phi in auts
        ):
            reps.append((ext, h_sub))
    return len(reps)


@lru_cache(maxsize=None)
def _h8_pair():
    """Canonical representative of the unique quaternion pair over
    (C2^3, C2): the class with no carries and pairing 1 on every basis
    pair, c(g, h) = g0*h1 + g0*h2 + g1*h2 mod 2, with H = <(0,1,1),
    (1,0,1)>, whose preimage is H8.  It is the first hit of
    quaternion_pair_hits, which the tests compare it with.  Memoised: the
    solver memos are keyed on the extension object, so every call returns
    the same one."""
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
