"""The per-assignment reference for lemfact.solver.classify.

classify enumerates the choices of inertia images and decides the lift
test and "generates Gab" for all of them at once (solver._lift_solutions).  The functions
here take one assignment at a time, through the checking RamAssignment
and DiscFactorization constructors, and evaluate each Frobenius pairing
sum term by term, in two independent ways: the tests compare classify
against them.  assignment_space lists the candidates from Y_E and the
choices by the rank test, without the solver's plan.  infinite_place_ok
is the sign condition at the infinite place, which classify does not
test (see its docstring).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from lemfact.abelian import AbGroup, Elem, elem_order, generates
from lemfact.arith import PrimePower, power_residue_char, prime_star
from lemfact.cocycle import CentralExtension
from lemfact.solver import (
    DEFAULT_ASSIGNMENT_BOUND,
    BaseFieldData,
    RamAssignment,
)

logger = logging.getLogger("lemfact")


@dataclass(frozen=True)
class DiscFactorization:
    """Signed coprime discriminant factors d_y indexed by Y_E; factors not
    listed default to 1."""

    ext: CentralExtension
    factors: tuple[tuple[Elem, int], ...]  # sorted, d_y != 1 only

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple(sorted((y, d) for y, d in self.factors if d != 1))
        )
        vals = [abs(d) for _, d in self.factors]
        for i, a in enumerate(vals):
            for b in vals[i + 1 :]:
                if gcd(a, b) != 1:
                    raise ValueError("discriminant factors are not coprime")
        for _, d in self.factors:
            if d % 4 not in (0, 1):
                raise ValueError(f"factor {d} is not a discriminant")


def factorization_of(assignment: RamAssignment) -> DiscFactorization:
    """Group the prime discriminants by inertia image:
    d_y = prod over {q : y_q = y} of (q*)^(|y|-1)."""
    gab = assignment.ext.gab
    by_y = {}
    for q, y in assignment.entries:
        n = elem_order(gab, y)
        by_y[y] = by_y.get(y, 1) * prime_star(q) ** (n - 1)
    return DiscFactorization(assignment.ext, tuple(by_y.items()))


def sign_image(ext: CentralExtension, fact: DiscFactorization):
    """The sum of (|y|/2) * y over the negative factors d_y: the element of
    Gab that infinite_place_ok tests."""
    gab = ext.gab
    acc = gab.zero()
    for y, d in fact.factors:
        if d < 0:
            n = elem_order(gab, y)
            if n % 2 != 0:
                raise ValueError(f"negative factor {d} at odd-order {y}")
            acc = gab.add(acc, gab.smul(n // 2, y))
    return acc


def conjugation_image(ext: CentralExtension, assignment: RamAssignment):
    """f(c), the image of complex conjugation c: the sum of ((q-1)/2) * y_q,
    as -1 has discrete log (q-1)/2 mod q.

    It is sign_image unless some image has order divisible by 4: an image
    y of order 4 at q = 5 mod 8 adds 2y here, and its d_y = q^3 is
    positive."""
    gab = ext.gab
    acc = gab.zero()
    for q, y in assignment.entries:
        acc = gab.add(acc, gab.smul((q - 1) // 2, y))
    return acc


def infinite_place_ok(ext: CentralExtension, fact: DiscFactorization) -> bool:
    """Sign condition at the infinite place: sign_image must land in Y_E.

    While no image has order divisible by 4, sign_image is f(c), and the
    condition says that the local embedding problem at R is solvable.
    classify does not test it: by Poitou-Tate (Neukirch-Schmidt-Wingberg,
    Cohomology of Number Fields, Thm. 8.6.10) the condition on f(c)
    follows from the conditions at the finite primes, which the lift test
    decides."""
    return sign_image(ext, fact) in ext.y_set()


def frobenius_pairing_sum(ext: CentralExtension, assignment: RamAssignment, p: int):
    """Character-weighted commutator sum at a ramified prime p, with the
    characters taken mod exp(A) as in the factorized existence criterion.

    The self term q = p has vanishing pairing and is omitted.
    """
    y_p = dict(assignment.entries)[p]
    gab, a = ext.gab, ext.a
    n = a.exponent
    acc = a.zero()
    for q, y_q in assignment.entries:
        if q == p:
            continue
        b_q = elem_order(gab, y_q) - 1
        chi = power_residue_char(p, PrimePower(q, b_q), n)
        acc = a.add(acc, a.smul(chi, ext.pairing(y_q, y_p)))
    return acc


def frobenius_pairing_sum_direct(ext: CentralExtension, assignment: RamAssignment, p: int):
    """Independent evaluation: assemble the Frobenius image coordinatewise
    in the product of the <y_q> and pair it with the inertia image, i.e.
    weight each pairing by the discrete-log class of p mod |y_q|."""
    y_p = dict(assignment.entries)[p]
    gab, a = ext.gab, ext.a
    acc = a.zero()
    for q, y_q in assignment.entries:
        if q == p:
            continue
        n_q = elem_order(gab, y_q)
        k = power_residue_char(p, PrimePower(q, n_q - 1), n_q)
        acc = a.add(acc, a.smul(k, ext.pairing(y_q, y_p)))
    return acc


def has_unramified_lift(ext: CentralExtension, assignment: RamAssignment):
    """Whether the assignment admits an unramified solution: every
    Frobenius pairing sum vanishes.

    Returns (bool, failing_primes).  Decisions use the intrinsic
    (discrete-log) evaluation; a disagreement with the literal mod-exp(A)
    character sum is possible only for composite exponents and is logged,
    once per prime, never silently resolved.
    """
    failing = []
    for p, _ in assignment.entries:
        direct = frobenius_pairing_sum_direct(ext, assignment, p)
        literal = frobenius_pairing_sum(ext, assignment, p)
        if literal != direct:
            logger.warning(
                "character scaling mismatch at p=%d: literal %s vs direct %s",
                p,
                literal,
                direct,
            )
        if direct != ext.a.zero():
            failing.append(p)
    return not failing, failing


@lru_cache(maxsize=1 << 16)
def _generating(G: AbGroup, gens: frozenset) -> bool:
    return generates(G, gens)


def generating(G: AbGroup, gens) -> bool:
    """abelian.generates, memoised on (G, the set of gens): the reference
    and the tests ask about the same choices many times."""
    return _generating(G, frozenset(gens))


def assignment_space(ext: CentralExtension, h_sub: frozenset, kdata: BaseFieldData):
    """The assignments compatible with the base field, as choices.

    Returns (primes, candidates, choices): the ramified primes of kdata
    sorted, per prime the tuple of sorted y in Y_E outside H, congruent to
    its inertia image mod H, with |y| dividing q-1, and an iterator over
    the choices (one candidate per prime, in lexicographic order) whose
    images generate Gab.  candidates is empty when some prime has none.
    The candidates are Y_E filtered, not the coset of H that the solver's
    plan walks."""
    h_sub = frozenset(h_sub)
    if h_sub != frozenset(kdata.h_sub):
        raise ValueError("H does not match the base field data")
    kdata.validate(ext)
    gab = ext.gab
    ye = sorted(ext.y_set())
    primes = sorted(kdata.primes)
    candidates = tuple(
        tuple(
            y
            for y in ye
            if y not in h_sub and gab.sub(y, g) in h_sub and (q - 1) % elem_order(gab, y) == 0
        )
        for q, g in primes
    )
    if not all(candidates):
        return primes, (), iter(())
    choices = (c for c in itertools.product(*candidates) if generating(gab, c))
    return primes, candidates, choices


def enumerate_assignments(ext: CentralExtension, h_sub: frozenset, kdata: BaseFieldData):
    """All assignments compatible with the base field: y_q in Y_E outside
    H, congruent to the given inertia image mod H, with the y_q jointly
    generating Gab.  Deterministic order (primes sorted, candidates in
    lexicographic order).  Raises before the first one when the choices,
    which it visits one by one, exceed DEFAULT_ASSIGNMENT_BOUND."""
    primes, candidates, choices = assignment_space(ext, h_sub, kdata)
    total = prod(map(len, candidates))
    if total > DEFAULT_ASSIGNMENT_BOUND:
        raise ValueError(f"{total} candidate assignments exceed bound {DEFAULT_ASSIGNMENT_BOUND}")
    for choice in choices:
        yield RamAssignment(ext, tuple((q, y) for (q, _), y in zip(primes, choice)))
