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
from operator import add, and_, getitem, mul
from types import MappingProxyType
from typing import NamedTuple

from .abelian import (
    DESK_SUBGROUP_BOUND,
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
    _basis,
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
        raises.  An image is read reduced."""
        self._images(ext)

    def _images(self, ext: CentralExtension) -> MappingProxyType:
        """The checks of validate; returns the map of _image_orders, each
        distinct image -> (its reduction, the order of its coset)."""
        images = _image_orders(
            ext, frozenset(self.h_sub), tuple(dict.fromkeys(g for _, g in self.primes))
        )
        for q, g in self.primes:
            if not is_prime(q) or q == 2:
                raise ValueError(f"{q} is not an odd prime")
            n = images[g][1]
            if n == 1:
                raise ValueError(f"prime {q} is unramified in K (image in H)")
            if (q - 1) % n != 0:
                raise ValueError(f"inertia order {n} at {q} does not divide {q}-1")
        return images

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
    """g -> (g reduced, the order of g + H in Gab/H), for the distinct
    inertia images of a base field as given (order 1 exactly for g in H),
    after the checks of BaseFieldData.validate that read nothing but
    (ext, H, images).  Read-only, as every caller with this key shares it.
    Keyed on the images as given, so that no call reduces them; classify
    keys the plan and the survivors on the reductions."""
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
        # desk scale: the coset walks here and each prime's coset g + H in
        # _plan list up to |Gab| elements
        raise ValueError(f"group order {gab.order} exceeds bound {DESK_SUBGROUP_BOUND}")
    reduced = [gab.reduce(g) for g in images]
    if not generates(gab, [*h_sub, *reduced]):
        raise ValueError("inertia images do not generate Gab/H: K is too small")
    return MappingProxyType({g: (r, _coset_order(ext, h_sub, r)) for g, r in zip(images, reduced)})


def _coset_order(ext: CentralExtension, h_sub: frozenset, g: Elem) -> int:
    """The order of g + H in Gab/H, for g reduced."""
    gab = ext.gab
    n = 1
    cur = g
    while cur not in h_sub:
        cur = gab.add(cur, g)
        n += 1
    return n


class _Plan(NamedTuple):
    """What the lift test and the witnesses read of a base field's shape,
    per prime of the shape; candidates is empty when some prime has none,
    masks, pairing and classes are None when no choice can generate Gab."""

    candidates: tuple  # the sorted y in Y_E outside H, y = g mod H, |y| | q - 1
    orders: tuple  # |y| per candidate
    masks: tuple | None  # the maximal-subgroup mask per candidate
    pairing: tuple | None  # [i][j][b][c]: <y_jc, z_ib> packed; None where the lift test reads none
    classes: tuple | None  # [i][b], i before the last prime: value classes of pairing[i][-1][b]
    width: int  # bits per coordinate of A in a packed element


@lru_cache(maxsize=1 << 8)
def _plan(ext: CentralExtension, h_sub: frozenset, shape: tuple) -> _Plan:
    """The plan of a base field of the given shape, the tuple of (inertia
    image, (q - 1) mod exp(Gab)) over its primes q sorted.  A prime's
    candidates read its coset g + H only, and the residue decides which
    |y| divide q - 1, as every |y| divides exp(Gab).

    Raises before any table is built when the lift-test prefixes, the
    choices of all primes but the last, exceed DEFAULT_ASSIGNMENT_BOUND.
    With fewer primes than min_generators(Gab) nothing generates, and no
    mask or table is built.  Else each candidate gets the bitmask of the
    maximal subgroups containing it (abelian.maximal_subgroup_masks), and
    the pairing gets its tables (_tables)."""
    # memoised: the base fields of one extension and H share few shapes,
    # and the shape fixes everything here
    gab = ext.gab
    # an element of A packed as one integer, coordinate t in bits
    # [t*width, ...), wide enough that no sum of n terms L * <y, z> with
    # L < exp(Gab) carries
    width = (len(shape) * gab.exponent * ext.a.exponent).bit_length()
    coset = {
        (g, r): tuple(
            y
            for y in sorted({gab.add(g, x) for x in h_sub})
            if y not in h_sub and r % elem_order(gab, y) == 0 and ext.in_y_set(y)
        )
        for g, r in set(shape)
    }
    candidates = tuple(coset[key] for key in shape)
    if not all(candidates):
        return _Plan((), (), None, None, None, width)
    prefixes = prod(map(len, candidates[:-1]))
    if prefixes > DEFAULT_ASSIGNMENT_BOUND:
        raise ValueError(f"{prefixes} lift-test prefixes exceed bound {DEFAULT_ASSIGNMENT_BOUND}")
    orders = tuple(tuple([elem_order(gab, y) for y in cands]) for cands in candidates)
    if len(shape) < min_generators(gab):
        return _Plan(candidates, orders, None, None, None, width)
    masks = maximal_subgroup_masks(gab, frozenset().union(*candidates))
    return _Plan(
        candidates,
        orders,
        tuple(tuple([masks[y] for y in cands]) for cands in candidates),
        *_tables(ext, candidates, width),
        width,
    )


def _tables(ext: CentralExtension, candidates, width: int) -> tuple:
    """The pairing and classes of a plan with these candidates per prime.

    pairing[i][j] is the block of rows of the pair of primes i != j, by
    candidate index (_pairing_rows), for the blocks _lift_solutions reads:
    those of each prime before the last two against every other prime,
    and of the prime before the last against the last.  The others are
    None, and the pairs with the same candidates share one block.
    classes[i][b], for i before the last prime, are the value classes of
    the row pairing[i][-1][b]: the pairs (v, bitmask of the last prime's
    candidates c with row[c] = v), by v, at most |A| of them however many
    candidates the last prime has."""
    last = len(candidates) - 1
    pairs = [[(zs, ys) if j != i and (i < last - 1 or j == last) else None
              for j, ys in enumerate(candidates)]
             for i, zs in enumerate(candidates)]
    blocks = {key: _pairing_rows(ext, *key, width) for key in set().union(*pairs) if key}
    classes = {key: tuple(map(_value_classes, blocks[key])) for key in {row[-1] for row in pairs[:-1]}}
    return (
        tuple(tuple(blocks.get(key) for key in row) for row in pairs),
        tuple(classes[row[-1]] for row in pairs[:-1]),
    )


def _value_classes(row) -> tuple:
    """The pairs (v, bitmask of the indices c with row[c] = v), by v."""
    classes = {}
    for c, v in enumerate(row):
        classes[v] = classes.get(v, 0) | 1 << c
    return tuple(sorted(classes.items()))


def _pairing_rows(ext: CentralExtension, zs, ys, width: int) -> tuple:
    """Per z in zs, the tuple of <y, z> for y in ys, packed as
    _lift_solutions packs A: one integer with coordinate t in bits
    [t*width, ...).

    The pairing is bilinear: <y, z> = sum_i z_i <y, e_i> over the basis
    e_i of Gab, so each y pairs with the k basis elements only, and each
    coordinate of the block is one comprehension of dot products, reduced
    mod its modulus."""
    basis = _basis(ext.gab)
    layout = [(t * width, m) for t, m in enumerate(ext.a.moduli)]
    # per coordinate t of A, per y: the t-th coordinates of the <y, e_i>
    cols = zip(*(zip(*(ext.pairing(y, e) for e in basis)) for y in ys))
    block = [(0,) * len(ys)] * len(zs)
    for (s, m), tcols in zip(layout, cols):
        coord = [[sum(map(mul, z, col)) % m << s for col in tcols] for z in zs]
        block = [tuple(map(add, row, part)) for row, part in zip(block, coord)]
    return tuple(block)


def _characters(e: int, qs) -> tuple:
    """The characters of the lift test, flat: for each ordered pair of
    primes p = p_i, q = p_j with i != j, row-major, the character
    L(p, q) of p at q mod gcd(q - 1, e), e = exp(Gab): the discrete log
    of p mod q, read mod the largest order an image at q can have.  The
    test depends on the candidates and these alone."""
    return tuple([
        _power_residue_char(p, q, 1, gcd(q - 1, e)) for p, q in itertools.permutations(qs, 2)
    ])


def _log_character_mismatches(ext: CentralExtension, qs, orders, chars) -> None:
    """Log each character of the lift test whose literal value, the
    character of p at q^(n-1) mod exp(A), differs from the direct one,
    L(p, q) mod n, in what a pairing term reads: for each pair p != q,
    in the order of _characters, and each order n of the candidates of
    q (orders, per prime), ascending.

    A term <y_q, y_p> with |y_q| = n is killed by n and by exp(A), so it
    reads a character mod gcd(n, exp(A)) only; the test decides with the
    direct one."""
    e = ext.a.exponent
    pairs = itertools.permutations(zip(qs, orders), 2)
    for ((p, _), (q, ns)), char in zip(pairs, chars):
        for n in sorted(set(ns)):
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
def _lift_survivors(ext: CentralExtension, h_sub: frozenset, shape: tuple, chars) -> tuple:
    """The choices of the plan of (ext, H, shape) that pass the lift test
    with the characters chars and generate Gab, as _lift_solutions yields
    them; none, and no lift test, when the plan has no masks."""
    # memoised: many base fields of one extension share the shape and the
    # characters, and the survivors depend on nothing else
    plan = _plan(ext, h_sub, shape)
    if plan.masks is None:
        return ()
    return tuple(_lift_solutions(ext, plan, chars))


class _Memo(dict):
    """A dict that fills a missing key with fn(key)."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@lru_cache(maxsize=1 << 12)
def _set_bits(mask: int) -> tuple:
    """The indices of the set bits of mask, lowest first."""
    # memoised: witness building reads the bitmasks of the survivors, which
    # many base fields share
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _lift_solutions(ext: CentralExtension, plan: _Plan, chars):
    """The choices of the plan whose masks AND to 0 and that pass the
    Frobenius-sum test, given the characters L of _characters: at each
    prime p_i, the sum over j != i of L(p_i, q_j) times <y_j, y_i>
    vanishes.  L is read mod gcd(q_j - 1, exp(Gab)), which |y_j| divides,
    and |y_j| kills <y_j, y_i>, so each term is the paper's.  The masks
    keep the choices that generate Gab, and all-zero characters pass
    every choice, so with them this yields exactly the generating ones.

    Yields one pair (prefix, bitmask) per prefix of the first n - 1
    primes with a passing choice, in lexicographic order of the prefixes:
    the prefix is the tuple of their candidate indices, and bit c of the
    bitmask is set when the choice (*prefix, c) passes.  The last
    prime's candidates that pass with a prefix come out of the test as
    that bitmask, so no choice is built here.

    The pairing is bilinear and alternating, and the plan holds its rows
    by candidate index, packed for the plan's field layout, so a term
    L * <y_q, y_p> is a character times an entry of a row; no table of
    products is built.  The test is solved for the last prime: at each
    p_i before it, the sum vanishes exactly when the last term
    L * <y_n, y_i> cancels the others, and a hit table, built per call
    from the plan's value classes, maps the residue the others must take
    to the bitmask of the last prime's candidates that cancel it.  The
    loop runs over the outer prefixes, the choices of all primes but the
    last two.  Per outer prefix, one pass over the candidates b of the
    prime before the last builds its condition rows from the rows of the
    outer candidates against that prime: the AND of the prefix's masks
    (the last prime's candidates it spans Gab with), and per p_i before
    the last the hit of the residue of its other terms.  Their AND is the
    bitmask of each prefix (*outer, b); the sum at p_n is tested on the
    few candidates left.  Each distinct unreduced sum is reduced once per
    call.
    """
    candidates, masks, pairing = plan.candidates, plan.masks, plan.pairing
    n = len(candidates)
    last, row = n - 1, n - 2  # the last prime, and the prime before it
    fields = [(t * plan.width, m) for t, m in enumerate(ext.a.moduli)]
    low = (1 << plan.width) - 1

    def residue(v, sign=1):
        """v with each coordinate times sign, reduced mod its modulus."""
        return sum((sign * ((v >> s) & low) % m) << s for s, m in fields)

    pos, neg = _Memo(residue), _Memo(lambda v: residue(v, -1))
    # per maximal subgroup, as its bit: the last prime's candidates it contains
    inside = {}
    for c, x in enumerate(masks[last]):
        while x:
            f = x & -x
            inside[f] = inside.get(f, 0) | 1 << c
            x ^= f
    everywhere = sum(inside)  # the bits of the subgroups containing some candidate
    full = (1 << len(masks[last])) - 1

    def spanned(m):
        """The last prime's candidates in no maximal subgroup of the bits of m."""
        m &= everywhere
        out = full
        while m:
            f = m & -m
            out &= ~inside[f]
            m ^= f
        return out

    # the AND of a prefix's masks -> the last prime's candidates it spans with
    spanning = _Memo(spanned)
    if n == 1:  # no term pairs
        if spanning[-1]:
            yield (), spanning[-1]
        return
    chars = iter(chars)
    L = [[0 if j == i else next(chars) for j in range(n)] for i in range(n)]
    # hits[i][b]: the residue of the terms of the sum at p_i but the last
    # prime's, for the b-th candidate z of p_i -> the bitmask of the last
    # prime's candidates y with -L(p_i, q_n) <y, z> equal to it
    hits = []
    for char, rows in zip((Li[last] for Li in L), plan.classes):
        hits.append([])
        for classes in rows:
            table = {}
            for v, cs in classes:
                key = neg[char * v]
                table[key] = table.get(key, 0) | cs
            hits[-1].append(table)
    to_row = [pairing[j][row] for j in range(row)]  # outer primes against the row prime
    to_last = [pairing[j][last] for j in range(last)]
    row_chars, last_chars, last_char = L[row][:row], L[last][:row], L[last][row]
    row_terms = list(zip(masks[row], hits[row], to_last[row]))
    # per outer prime p_i and candidate b: its hit table, and its rows
    # against the outer primes, zeros against itself
    outer_terms = []
    for i in range(row):
        zeros = [0] * len(candidates[i])
        outer_terms.append([
            (hits[i][b].get, [zeros if j == i else pairing[i][j][b] for j in range(row)])
            for b in range(len(candidates[i]))
        ])
    for outer in itertools.product(*(range(len(cands)) for cands in candidates[:row])):
        m = reduce(and_, map(getitem, masks, outer), -1)
        # per outer prime p_i: its hit table, the terms of its sum that the
        # outer prefix fixes, and its character at the row prime
        conds = None
        g = None  # per last candidate: the terms at p_n that outer fixes, negated
        # one pass over the candidates b of the row prime, reading the rows
        # of the outer candidates against it; the pairing alternates, so
        # the terms at the row prime but the last one are -sum_j
        # L(p_row, q_j) <y_b, z_j>, z_j the outer candidates
        for b, ((mask_b, hit_b, r), *vals) in enumerate(zip(row_terms, *map(getitem, to_row, outer))):
            mask = spanning[m & mask_b] & hit_b.get(neg[sum(map(mul, row_chars, vals))], 0)
            if not mask:
                continue
            if conds is None:
                conds = [
                    (get, sum(map(mul, Li, map(getitem, rows, outer))), Li[row])
                    for Li, (get, rows) in zip(L, map(getitem, outer_terms, outer))
                ]
            for (get, fixed, char), v in zip(conds, vals):
                if not mask:
                    break
                mask &= get(pos[fixed + char * v], 0)
            if not mask:
                continue
            if g is None:
                g = [0] * len(r)
                for char, rw in zip(last_chars, map(getitem, to_last, outer)):
                    g = list(map(add, g, map(char.__mul__, rw)))
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                c = bit.bit_length() - 1
                if pos[g[c] + last_char * r[c]]:
                    mask ^= bit
            if mask:
                yield (*outer, b), mask


def count_extensions(ext: CentralExtension, orders: tuple) -> int:
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

    What depends only on the base field's shape runs once per (ext, H,
    shape), ext being keyed by its class, so that cohomologous
    extensions share it; the shape is the tuple of (inertia image,
    reduced, (q - 1) mod exp(Gab)) over the primes sorted.  Three memos
    hold it: the base-field checks that read no prime, the reduced images
    and their coset orders, on (ext, H, distinct images as given)
    (BaseFieldData.validate, _image_orders); the plan, on (ext, H,
    shape): per prime its candidates, their orders and maximal-subgroup
    masks, the pairing rows by candidate index and the value classes of
    the rows against the last prime (_plan); and the survivors of the
    lift test, on (ext, H, shape, characters) (_lift_survivors).  Each
    call runs what reads its primes: the per-prime checks, the characters
    and the witnesses.

    The lift test is solved for the last prime, which keeps only the
    candidates that generate Gab with a prefix, by the AND of their
    maximal-subgroup masks, before testing them (_lift_solutions); it
    decides exactly as the per-assignment reference in the tests.  Each
    call computes one character per ordered pair of primes, whatever the
    images (_characters); the survivors are (prefix, bitmask) pairs, one
    per prefix of the first n - 1 primes with a survivor.  When exp(A)
    is composite, each character whose literal value mod exp(A) differs
    from the direct one where a pairing term reads it is logged as a
    warning, once per call and order of the candidates at q
    (_log_character_mismatches).  Assignments, factorizations and counts
    are built for witnesses only, from per-prime rows of each candidate's
    entry (q, y), order |y| and factor (q*)^(|y|-1), built once per call:
    per prefix, the first n - 1 entries and their factors, sorted and
    merged by image; per set bit (_set_bits), the last prime's entry, and
    its factor merged into those by bisection.  A Witness is a NamedTuple,
    made here by tuple.__new__; the counts (count_extensions) are
    computed once per call and orders.  h_sub must be the H of kdata.
    """
    h_sub = frozenset(h_sub)
    if h_sub != frozenset(kdata.h_sub):
        raise ValueError("H does not match the base field data")
    images = kdata._images(ext)  # validate
    gab = ext.gab
    primes = sorted([(q, images[g][0]) for q, g in kdata.primes])
    qs = [q for q, _ in primes]
    e = gab.exponent
    shape = tuple([(g, (q - 1) % e) for q, g in primes])
    plan = _plan(ext, h_sub, shape)
    wild = 2 * gab.order * ext.a.order
    # each q is prime (kdata.validate), so it divides wild iff it shares a
    # factor with it, and some q does iff their product does
    if len(set(qs)) != len(qs) or gcd(prod(qs), wild) != 1:
        # RamAssignment rejects every choice with an error that depends on
        # the primes alone, raised iff some choice generates Gab.  With
        # all-zero characters the kernel passes exactly those; no character
        # is computed, as a duplicated prime would make its own ramified
        found = plan.masks and next(_lift_solutions(ext, plan, [0] * len(qs) ** 2), None)
        if found:
            idx = (*found[0], found[1].bit_length() - 1)
            RamAssignment(ext, tuple(zip(qs, map(getitem, plan.candidates, idx))))
        return _NO_SOLUTION
    if not plan.candidates:
        return _NO_SOLUTION
    chars = _characters(e, qs)
    if not is_prime(ext.a.exponent):
        # no literal characters for a prime exp(A) = l: a term reads them
        # mod gcd(n, l), and when l divides n, n divides q - 1, so both
        # reduce to the discrete log of p mod l and agree
        _log_character_mismatches(ext, qs, plan.orders, chars)
    survivors = _lift_survivors(ext, h_sub, shape, chars)
    if not survivors:
        return _NO_SOLUTION
    # per prime, per candidate y: the entry (q, y), |y| and (y, (q*)^(|y|-1)),
    # shared by every witness that picks it
    entries = [[(q, y) for y in cands] for q, cands in zip(qs, plan.candidates)]
    orders = list(plan.orders)
    factors = [
        [(y, prime_star(q) ** (n - 1)) for (q, y), n in zip(*row)] for row in zip(entries, orders)
    ]
    # the last prime's rows are read per bit of a survivor's bitmask
    last_entries, last_orders, last_factors = entries.pop(), orders.pop(), factors.pop()
    last_images = [y for y, _ in last_factors]
    classes = class_orbit_size(ext)
    counts = {}  # the prefix's orders -> the last prime's order -> the count
    new = tuple.__new__  # a Witness from its fields, without Witness.__new__
    witnesses = []
    append = witnesses.append
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
        for c in _set_bits(mask):
            n = last_orders[c]
            if n not in tail_counts:
                tail_counts[n] = count_extensions(ext, (*ns, n))
            y = last_images[c]
            i = bisect_left(keys, y)
            if i < len(keys) and keys[i] == y:  # y is a prefix image: merge d_y
                full = (*fact[:i], (y, fact[i][1] * last_factors[c][1]), *fact[i + 1:])
            else:
                full = (*fact[:i], last_factors[c], *fact[i:])
            append(new(Witness, ((*head, last_entries[c]), full, tail_counts[n], classes)))
    # no sort: the survivors come in lexicographic order of the candidates,
    # each sorted, so the witnesses are sorted by their entries
    return Report(True, tuple(witnesses))
