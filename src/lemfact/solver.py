"""Ramification assignments and the existence/counting pipeline for
unramified central embedding problems.

An assignment maps each ramified odd prime q to an inertia image y_q in
Y_E; a witness holds it with its signed coprime discriminant
factorization {d_y}, both as sorted tuples.  The general engine is
restricted to tame odd ramification: every q must be coprime to
2 * |Gab| * |A|.  The lift test reads one character per ordered pair of
primes (p, q), the discrete log of p mod q, whatever the images at q.
"""

from __future__ import annotations

import itertools
import logging
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import gcd, prod
from operator import and_, getitem, mul
from types import MappingProxyType
from typing import NamedTuple

from .abelian import (
    DESK_SUBGROUP_BOUND,
    AbGroup,
    Elem,
    elem_order,
    generates,
    hom_count,
    is_subgroup,
    maximal_subgroup_masks,
    min_generators,
    subgroup_generated,
    torsion_count,
)
from .arith import _power_residue_char, is_prime, prime_star
from .cocycle import (
    CentralExtension,
    _json_ints,
    aut_stabilizer_order,
    class_orbit_size,
    json_field,
)

logger = logging.getLogger("lemfact")

DEFAULT_ASSIGNMENT_BOUND = 10**6  # lift-test prefixes: choices of all primes but the last


@dataclass(frozen=True)
class RamAssignment:
    """Inertia data of a homomorphism: ramified prime -> element of Y_E."""

    ext: CentralExtension
    entries: tuple[tuple[int, Elem], ...]  # sorted by prime

    def __post_init__(self):
        if not self.entries:
            raise ValueError("assignment needs at least one ramified prime")
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        gab = self.ext.gab
        wild = 2 * gab.order * self.ext.a.order
        ye = self.ext.y_set()
        for q, y in self.entries:
            if not is_prime(q) or gcd(q, wild) != 1:
                raise ValueError(f"prime {q} is not tame/odd for this extension")
            if y not in ye:
                raise ValueError(f"inertia image {y} is not in Y_E")
            n = elem_order(gab, y)
            if n == 1:
                raise ValueError(f"prime {q} carries trivial inertia")
            if (q - 1) % n != 0:
                raise ValueError(f"order {n} of {y} does not divide {q}-1")
        if len({q for q, _ in self.entries}) != len(self.entries):
            raise ValueError("duplicate prime in assignment")


@dataclass(frozen=True)
class BaseFieldData:
    """The abelian base field K: a subgroup H of Gab (K corresponds to
    Gab/H) and, per ramified prime q, the inertia image in Gab/H given by
    a coset representative in Gab coordinates."""

    h_sub: frozenset
    primes: tuple[tuple[int, Elem], ...]

    def validate(self, ext: CentralExtension):
        """Raise ValueError unless this is base field data over ext.

        In this order: H is a subgroup of Gab; there is a ramified prime;
        each image has the rank of Gab; Gab is desk-scale; H and the
        images generate Gab (else K is too small).  These read only (ext,
        H, the distinct images) and run once per such triple
        (_image_orders).  Then, per prime in the given order, on every
        call: q is an odd prime, its image lies outside H, and the order
        of the image's coset divides q - 1.  The first failing check
        raises."""
        orders = _image_orders(
            ext, frozenset(self.h_sub), tuple(dict.fromkeys(g for _, g in self.primes))
        )
        for q, g in self.primes:
            if not is_prime(q) or q == 2:
                raise ValueError(f"{q} is not an odd prime")
            n = orders[g]
            if n == 1:
                raise ValueError(f"prime {q} is unramified in K (image in H)")
            if (q - 1) % n != 0:
                raise ValueError(f"inertia order {n} at {q} does not divide {q}-1")

    @classmethod
    def from_json(cls, data: dict, ext: CentralExtension) -> "BaseFieldData":
        gens = [_json_ints(g, "H generator")
                for g in json_field(data, "H", list, "base field data", list)]
        for g in gens:
            ext.gab.check_elem(g)
        h_sub = subgroup_generated(ext.gab, gens)
        out = cls(h_sub, primes_from_json(data))
        out.validate(ext)
        return out


def primes_from_json(data) -> tuple[tuple[int, Elem], ...]:
    """The (q, inertia image) pairs of the "primes" list of base field
    JSON, {"primes": [{"q": 5, "image": [0, 1]}, ...]}."""
    return tuple(
        (json_field(e, "q", int, "prime entry"),
         tuple(json_field(e, "image", list, "prime entry", int)))
        for e in json_field(data, "primes", list, "base field data")
    )


@lru_cache(maxsize=1 << 10)
def _image_orders(ext: CentralExtension, h_sub: frozenset, images: tuple) -> MappingProxyType:
    """g -> the order of g + H in Gab/H, for the distinct inertia images
    of a base field (1 exactly for g in H), after the checks of
    BaseFieldData.validate that read nothing but (ext, H, images).
    Read-only, as every caller with this key shares it."""
    # memoised: the base fields over one H share few image tuples; a check
    # that raises caches nothing
    gab = ext.gab
    if not is_subgroup(gab, h_sub):
        raise ValueError("H is not a subgroup of Gab")
    if not images:
        raise ValueError("base field data needs at least one ramified prime")
    for g in images:
        gab.check_elem(g)
    if gab.order > DESK_SUBGROUP_BOUND:
        # desk scale: the assignment space lists the elements of Gab
        raise ValueError(f"group order {gab.order} exceeds bound {DESK_SUBGROUP_BOUND}")
    if not generates(gab, [*h_sub, *images]):
        raise ValueError("inertia images do not generate Gab/H: K is too small")
    return MappingProxyType({g: _coset_order(ext, h_sub, g) for g in images})


def _coset_order(ext: CentralExtension, h_sub: frozenset, g: Elem) -> int:
    """The order of g + H in Gab/H."""
    gab = ext.gab
    n = 1
    cur = g
    while cur not in h_sub:
        cur = gab.add(cur, g)
        n += 1
    return n


@lru_cache(maxsize=1 << 10)
def _coset_candidates(ext: CentralExtension, h_sub: frozenset, g: Elem, r: int):
    """The y in Y_E outside H, congruent to g mod H, with |y| dividing r,
    sorted: the candidates of a prime q with q - 1 = r mod exp(Gab), as
    every |y| divides exp(Gab).  Only the coset g + H is read, not Gab."""
    # memoised: the primes of every base field over one H share few cosets
    # and residues
    gab = ext.gab
    return tuple(
        y
        for y in sorted({gab.add(g, x) for x in h_sub})
        if y not in h_sub and r % elem_order(gab, y) == 0 and ext.in_y_set(y)
    )


def _assignment_space(ext: CentralExtension, h_sub: frozenset, kdata: BaseFieldData):
    """The assignments compatible with the base field, as choices.

    Returns (primes, candidates, choices): the ramified primes of kdata
    sorted, per prime the tuple of sorted y in Y_E outside H, congruent to
    its inertia image mod H, with |y| dividing q-1, and an iterator over
    the choices (one candidate per prime, in lexicographic order) whose
    images generate Gab.  candidates is empty when some prime has none.
    """
    h_sub = frozenset(h_sub)
    if h_sub != frozenset(kdata.h_sub):
        raise ValueError("H does not match the base field data")
    kdata.validate(ext)
    gab = ext.gab
    e = gab.exponent
    primes = sorted(kdata.primes)
    candidates = []
    for q, g in primes:
        cands = _coset_candidates(ext, h_sub, g, (q - 1) % e)
        if not cands:
            return primes, (), iter(())
        candidates.append(cands)
    prefixes = prod(map(len, candidates[:-1]))
    if prefixes > DEFAULT_ASSIGNMENT_BOUND:
        raise ValueError(f"{prefixes} lift-test prefixes exceed bound {DEFAULT_ASSIGNMENT_BOUND}")
    choices = (c for c in itertools.product(*candidates) if generates(gab, c))
    return primes, tuple(candidates), choices


def _characters(e: int, qs) -> tuple:
    """The characters of the lift test, flat: for each ordered pair of
    primes p = p_i, q = p_j with i != j, row-major, the character
    L(p, q) of p at q mod gcd(q - 1, e), e = exp(Gab): the discrete log
    of p mod q, read mod the largest order an image at q can have.  The
    test depends on the candidates and these alone."""
    return tuple([
        _power_residue_char(p, q, 1, gcd(q - 1, e))
        for i, p in enumerate(qs)
        for j, q in enumerate(qs)
        if j != i
    ])


def _log_character_mismatches(ext: CentralExtension, qs, candidates, chars) -> None:
    """Log each character of the lift test whose literal value, the
    character of p at q^(n-1) mod exp(A), differs from the direct one,
    L(p, q) mod n, in what a pairing term reads: for each pair p != q,
    in the order of _characters, and each order n of the candidates of
    q, ascending.

    A term <y_q, y_p> with |y_q| = n is killed by n and by exp(A), so it
    reads a character mod gcd(n, exp(A)) only; the test decides with the
    direct one."""
    e = ext.a.exponent
    chars = iter(chars)
    for i, p in enumerate(qs):
        for j, (q, cands) in enumerate(zip(qs, candidates)):
            if j == i:
                continue
            char = next(chars)
            for n in sorted({elem_order(ext.gab, y) for y in cands}):
                direct = char % n
                literal = _power_residue_char(p, q, n - 1, e)
                if (literal - direct) % gcd(n, e):
                    logger.warning(
                        "character scaling mismatch at p=%d: q=%d |y|=%d literal %d vs direct %d",
                        p,
                        q,
                        n,
                        literal,
                        direct,
                    )


@lru_cache(maxsize=1 << 10)
def _lift_survivors(ext: CentralExtension, candidates, chars) -> tuple:
    """The choices that pass the lift test and generate Gab, as
    _lift_solutions gives them: one (prefix, bitmask) pair per prefix of
    the first n - 1 primes' candidate indices with a survivor, in
    lexicographic order, bit c of the bitmask set when the choice
    (*prefix, c) survives.

    A choice generates Gab exactly when the AND of its images' masks
    (_maximal_masks) is 0, which _lift_solutions tests first, so no rank
    is computed and no other choice is built.  Fewer primes than
    min_generators(Gab) generate nothing: then there is no survivor, and
    neither the lift test nor a mask is computed."""
    # memoised: many base fields of one extension share the candidates and
    # the characters, and the survivors depend on nothing else
    if len(candidates) < min_generators(ext.gab):
        return ()
    masks = _maximal_masks(ext.gab, frozenset().union(*candidates))
    rows = [list(map(masks.__getitem__, cands)) for cands in candidates]
    return tuple(_lift_solutions(ext, candidates, chars, rows))


@lru_cache(maxsize=1 << 8)
def _maximal_masks(gab: AbGroup, union: frozenset) -> MappingProxyType:
    """y -> the bitmask of the maximal subgroups of Gab containing y, for
    y in union (abelian.maximal_subgroup_masks).  Read-only, as every
    caller with this key shares it."""
    # memoised: the calls of one extension share few sets of candidate
    # images
    return MappingProxyType(maximal_subgroup_masks(gab, union))


@lru_cache(maxsize=1 << 8)
def _packed_pairing(ext: CentralExtension, union: frozenset, width: int) -> MappingProxyType:
    """(y, z) -> <y, z> for y, z in union, packed as _lift_solutions packs
    A: one integer with coordinate t in bits [t*width, ...).  Read-only,
    as every caller with this key shares it.

    The pairing is bilinear: <y, z> = sum_i z_i <y, e_i> over the basis
    e_i of Gab, so each y pairs with the k basis elements only, and each
    coordinate of <y, z> is a dot product reduced mod its modulus."""
    # memoised: calls of one extension on as many primes with the same
    # candidate images share the table; the width is in the key, as it
    # grows with the number of primes
    k = len(ext.gab.moduli)
    basis = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    layout = [(t * width, m) for t, m in enumerate(ext.a.moduli)]
    table = {}
    for y in union:
        # per coordinate t of A: the t-th coordinates of the <y, e_i>
        cols = list(zip(*(ext.pairing(y, e) for e in basis)))
        for z in union:
            table[y, z] = sum(
                (sum(map(mul, z, col)) % m) << s for col, (s, m) in zip(cols, layout)
            )
    return MappingProxyType(table)


def _lift_solutions(ext: CentralExtension, candidates, chars, masks):
    """The choices whose masks AND to 0 and that pass the Frobenius-sum
    test, given the characters L of _characters: at each prime p_i, the
    sum over j != i of L(p_i, q_j) times <y_j, y_i> vanishes.  L is read
    mod gcd(q_j - 1, exp(Gab)), which |y_j| divides, and |y_j| kills
    <y_j, y_i>, so each term is the paper's.  masks[j][c] belongs to the
    c-th candidate of prime j: the maximal-subgroup masks keep the choices
    that generate Gab, all-zero masks every choice that passes.

    Yields one pair (prefix, bitmask) per prefix of the first n - 1
    primes with a passing choice, in lexicographic order of the prefixes:
    the prefix is the tuple of their candidate indices, and bit c of the
    bitmask is set when the choice (*prefix, c) passes.  The last
    prime's candidates that pass with a prefix come out of the test as
    that bitmask, so no choice is built here.

    The pairing is bilinear, so every term L * <y_q, y_p> is read from
    tables on the pairing of the candidate images, packed for this call's
    field layout, which _packed_pairing memoises on (extension, candidate
    images, layout): the layout's width grows with the number of primes.
    The test is solved for the last prime: the AND of a prefix's masks,
    y_1 .. y_{n-1}, keeps the last prime's candidates whose mask it
    leaves 0 (one bitmask per call and AND value).  Then the sum at p_i
    (i < n) vanishes exactly when its last term L * <y_n, y_i> cancels
    the fixed ones: per i < n, a lookup keeps the last prime's candidates
    giving that term, and the sum at p_n is tested on the few left.
    Each distinct unreduced term or sum is reduced once per call.
    """
    a = ext.a
    n = len(candidates)
    union = set().union(*candidates)
    # an element of A as one integer, coordinate t in bits [t*width, ...),
    # wide enough that no sum of n terms L * <y, z> with L < exp(Gab) carries
    width = (n * ext.gab.exponent * a.exponent).bit_length()
    fields = [(t * width, m) for t, m in enumerate(a.moduli)]
    low = (1 << width) - 1

    def residue(v, sign):
        """v with each coordinate times sign, reduced mod its modulus."""
        return sum((sign * ((v >> s) & low) % m) << s for s, m in fields)

    pairing = _packed_pairing(ext, frozenset(union), width)
    # w[i][b][j][c]: L(p_i, q_j) * <y, z>, unreduced, with y the c-th
    # candidate of prime j and z the b-th candidate of prime i; zero at
    # j = i, where the pairing vanishes
    chars = iter(chars)
    w = []
    for i, zs in enumerate(candidates):
        row = [0 if j == i else next(chars) for j in range(n)]
        w.append([
            [[char * pairing[y, z] for y in cands] for char, cands in zip(row, candidates)]
            for z in zs
        ])
    last = n - 1
    # hits[i][b]: the last prime's term at p_i, reduced -> bitmask of the
    # last prime's candidates giving it, for the b-th candidate of p_i
    hits = [[{} for _ in wi] for wi in w[:last]]
    reduced = {}  # an unreduced term -> its residue
    for hi, wi in zip(hits, w):
        for table, wb in zip(hi, wi):
            for c, x in enumerate(wb[last]):
                if x not in reduced:
                    reduced[x] = residue(x, 1)
                key = reduced[x]
                table[key] = table.get(key, 0) | 1 << c
    cancel = {}  # a sum of terms -> the reduced term that cancels it
    spanning = {}  # AND of a prefix's masks -> the last prime's candidates it spans with
    for idx in itertools.product(*(range(len(cands)) for cands in candidates[:last])):
        m = reduce(and_, map(getitem, masks, idx), -1)
        if m not in spanning:
            spanning[m] = sum(1 << c for c, x in enumerate(masks[last]) if not m & x)
        mask = spanning[m]
        for wi, hi, b in zip(w, hits, idx):
            # map stops before the last prime: the terms fixed by the prefix
            s = sum(map(getitem, wi[b], idx))
            if s not in cancel:
                cancel[s] = residue(s, -1)
            mask &= hi[b].get(cancel[s], 0)
            if not mask:
                break
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            s = sum(map(getitem, w[last][bit.bit_length() - 1], idx))
            if s not in cancel:
                cancel[s] = residue(s, -1)
            if cancel[s]:
                mask ^= bit
        if mask:
            yield idx, mask


def count_extensions(ext: CentralExtension, orders) -> int:
    """Number of unramified solutions per extension class for a witness
    whose inertia images have the given orders |y_q|, one per ramified
    prime: prod_y #A[|y|]^omega(d_y) over the automorphism-stabilizer
    order times #Hom(Gab, A).  omega(d_y) is the number of primes with
    image y, so the numerator is prod over the primes of #A[|y_q|].
    Raises if the formula is not integral."""
    a = ext.a
    numerator = prod(torsion_count(a, n) for n in orders)
    denominator = aut_stabilizer_order(ext) * hom_count(ext.gab, a)
    q, r = divmod(numerator, denominator)
    if r != 0 or q <= 0:
        raise ArithmeticError(
            f"counting formula inconsistency: {numerator}/{denominator}"
        )
    return q


class Witness(NamedTuple):
    """A solution: the inertia assignment ((q, y_q), ...) sorted by prime,
    its factorization ((y, d_y), ...) with d_y != 1 sorted by image, and
    its counts."""

    assignment: tuple[tuple[int, Elem], ...]
    factorization: tuple[tuple[Elem, int], ...]
    count_per_class: int
    classes: int

    def to_json(self) -> dict:
        return {
            "assignment": {str(q): list(y) for q, y in self.assignment},
            "factorization": {",".join(map(str, y)): d for y, d in self.factorization},
            "count_per_class": self.count_per_class,
            "classes": self.classes,
        }


@dataclass(frozen=True)
class Report:
    exists: bool
    witnesses: tuple[Witness, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "witnesses": [w.to_json() for w in self.witnesses],
        }


_NO_SOLUTION = Report(False)  # frozen, so every call without a witness shares it


def classify(ext: CentralExtension, h_sub: frozenset, kdata: BaseFieldData) -> Report:
    """Existence report: every enumerated assignment that passes the
    unramified-lift test, with its factorization and counts.

    The lift test is the paper's criterion: the Frobenius pairing sums
    vanish at every ramified prime.  Nothing is tested at the infinite
    place, as the finite primes decide it: a global lift f~ maps complex
    conjugation c to an involution over f(c), so f(c) lies in Y_E.  By
    Poitou-Tate (Neukirch-Schmidt-Wingberg, Cohomology of Number Fields,
    Thm. 8.6.10), the local obstructions of a global class pair to 0 with
    H^0(Q, A') = Hom(A, {1, -1}), perfectly at R, and the unramified
    primes carry none; so when the finite ones vanish, the one at R does
    too.  At a real place of K, where f(c) = 0, being unramified in the
    narrow sense also needs f~(c) = 0; that depends on the lift and is
    not tested.

    What depends only on (ext, H, the inertia images) runs once per
    such triple, ext being keyed by its class, so that cohomologous
    extensions share it: the base-field checks that read no prime
    (BaseFieldData.validate, _image_orders), each prime's candidates,
    memoised on its coset and (q - 1) mod exp(Gab) (_coset_candidates).
    Each call runs what reads its primes: the per-prime checks, the
    characters and the witnesses.

    The lift test is solved for the last prime, which keeps only the
    candidates that generate Gab with a prefix, by the AND of their
    maximal-subgroup masks, before testing them (_lift_solutions); it
    decides exactly as the per-assignment reference in the tests.  Each
    call computes one character per ordered pair of primes, whatever the
    images (_characters); the survivors, as (prefix, bitmask) pairs, one
    per prefix of the first n - 1 primes with a survivor, are memoised
    on these and the candidates (_lift_survivors).  When exp(A) is
    composite, each character whose literal value mod exp(A) differs
    from the direct one where a pairing term reads it is logged as a
    warning, once per call and order of the candidates at q
    (_log_character_mismatches).  Assignments, factorizations and counts
    are built for witnesses only, from per-prime rows of each candidate's
    entry (q, y), order |y| and factor (q*)^(|y|-1), built once per call:
    per prefix, the first n - 1 entries and their factors, sorted and
    merged by image; per set bit, the last prime's entry, and its factor
    merged into those by bisection.  A Witness is a NamedTuple.  h_sub
    must be the H of kdata.
    """
    primes, candidates, choices = _assignment_space(ext, h_sub, kdata)
    qs = [q for q, _ in primes]
    gab = ext.gab
    wild = 2 * gab.order * ext.a.order
    # each q is prime (kdata.validate), so it divides wild iff it shares a
    # factor with it, and some q does iff their product does
    if len(set(qs)) != len(qs) or gcd(prod(qs), wild) != 1:
        # RamAssignment rejects every choice with an error that depends on
        # the primes alone, raised iff some choice generates Gab; the
        # tables are never built, as a duplicated prime would make its own
        # character ramified
        for choice in choices:
            RamAssignment(ext, tuple(zip(qs, choice)))
        return _NO_SOLUTION
    if not candidates:
        return _NO_SOLUTION
    chars = _characters(gab.exponent, qs)
    if not is_prime(ext.a.exponent):
        # no literal characters for a prime exp(A) = l: a term reads them
        # mod gcd(n, l), and when l divides n, n divides q - 1, so both
        # reduce to the discrete log of p mod l and agree
        _log_character_mismatches(ext, qs, candidates, chars)
    survivors = _lift_survivors(ext, candidates, chars)
    if not survivors:
        return _NO_SOLUTION
    # per prime, per candidate y: the entry (q, y), |y| and (y, (q*)^(|y|-1)),
    # shared by every witness that picks it
    entries = [[(q, y) for y in cands] for q, cands in zip(qs, candidates)]
    orders = [[elem_order(gab, y) for y in cands] for cands in candidates]
    factors = [
        [(y, prime_star(q) ** (n - 1)) for (q, y), n in zip(*row)] for row in zip(entries, orders)
    ]
    # the last prime's rows are read per bit of a survivor's bitmask
    last_entries, last_orders, last_factors = entries.pop(), orders.pop(), factors.pop()
    classes = class_orbit_size(ext)
    counts = {}  # the prefix's orders -> the last prime's order -> the count
    witnesses = []
    for idx, mask in survivors:
        head = tuple(map(getitem, entries, idx))
        ns = tuple(map(getitem, orders, idx))
        tail_counts = counts.setdefault(ns, {})
        fact = sorted(map(getitem, factors, idx))
        for i in range(len(fact) - 1, 0, -1):  # d_y of an image at several primes
            if fact[i - 1][0] == fact[i][0]:
                fact[i - 1] = (fact[i][0], fact[i - 1][1] * fact.pop(i)[1])
        keys = [y for y, _ in fact]
        fact = tuple(fact)
        while mask:
            bit = mask & -mask
            mask ^= bit
            c = bit.bit_length() - 1
            n = last_orders[c]
            if n not in tail_counts:
                tail_counts[n] = count_extensions(ext, (*ns, n))
            y, d = last_factors[c]
            i = bisect_left(keys, y)
            if i < len(keys) and keys[i] == y:  # y is a prefix image: merge d_y
                full = (*fact[:i], (y, fact[i][1] * d), *fact[i + 1:])
            else:
                full = (*fact[:i], last_factors[c], *fact[i:])
            witnesses.append(Witness((*head, last_entries[c]), full, tail_counts[n], classes))
    # no sort: the survivors come in lexicographic order of the candidates,
    # each sorted, so the witnesses are sorted by their entries
    return Report(True, tuple(witnesses))
