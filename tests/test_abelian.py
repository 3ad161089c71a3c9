import random
import time
from functools import reduce
from math import prod
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemfact import abelian
from lemfact.abelian import (
    AbGroup,
    AbHom,
    cyclic,
    elem_order,
    enumerate_automorphisms,
    generates,
    hom_count,
    is_subgroup,
    maximal_subgroup_masks,
    min_generators,
    subgroup_generated,
    torsion_count,
)
from cocycle_reference import closure


def multiple_subgroup(A, n):
    """The subgroup n*A = {n*a : a in A}, element by element."""
    return frozenset(A.smul(n, x) for x in A.elements())


small_matrix = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-30, 30), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@given(small_matrix)
@settings(max_examples=300)
def test_smith_form_is_a_factorization(m):
    d, u, v = smith_normal_form(m)
    assert matmul(matmul(u, m), v) == [list(r) for r in d]
    rows, cols = len(m), len(m[0])
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
            else:
                assert d[i][j] >= 0


def det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([r[:j] + r[j + 1 :] for r in m[1:]])
        for j in range(n)
    )


@given(small_matrix)
@settings(max_examples=200)
def test_smith_transforms_are_unimodular(m):
    _, u, v = smith_normal_form(m)
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)


def bareiss_det(m):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def test_smith_form_on_random_matrices():
    # up to 9 x 9, beyond what the cofactor determinant above can check
    rng = random.Random(20)
    for _ in range(300):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == d
        assert bareiss_det(u) in (1, -1)
        assert bareiss_det(v) in (1, -1)
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        assert all(d[i][i] >= 0 for i in range(min(rows, cols)))


def test_smith_form_of_a_coboundary_system_is_quick():
    # the carry cocycle of (C7, C3) gives a 36 x 42 system that spun for good
    # when the pivot was the first nonzero entry instead of the smallest
    from cocycle_reference import carry_table
    from lemfact.cocycle import is_coboundary

    gab, a = AbGroup((7,)), AbGroup((3,))
    table = carry_table(gab, a, 0, (1,))
    start = time.perf_counter()
    ok, phi = is_coboundary(gab, a, table)
    assert time.perf_counter() - start < 1
    # H^2(C7, C3) = 0: phi is a witness, c(g, h) = phi(g) + phi(h) - phi(g + h)
    assert ok
    for g in gab.elements():
        for h in gab.elements():
            want = a.sub(a.add(phi[g], phi[h]), phi[gab.add(g, h)])
            assert table.get((g, h), a.zero()) == want


def test_elem_order_and_exponent():
    g = AbGroup((4, 6))
    assert elem_order(g, (0, 0)) == 1
    assert elem_order(g, (2, 3)) == 2
    assert elem_order(g, (1, 1)) == 12
    assert g.exponent == 12
    assert g.order == 24
    assert cyclic(7).exponent == 7
    # both are cached on the instance; equality, hash and repr read the
    # moduli only
    assert vars(g) == {"moduli": (4, 6), "exponent": 12, "order": 24}
    fresh = AbGroup((4, 6))
    assert fresh == g and hash(fresh) == hash(g) and repr(fresh) == repr(g) == "AbGroup(moduli=(4, 6))"
    assert AbGroup(()).exponent == 1 and AbGroup(()).order == 1


def test_subgroup_machinery():
    g = AbGroup((2, 2, 2))
    h = subgroup_generated(g, [(1, 0, 0), (0, 1, 0)])
    assert len(h) == 4
    assert is_subgroup(g, h)
    assert not is_subgroup(g, h - {(0, 0, 0)})
    assert not is_subgroup(g, {(0, 0, 0), (1, 0, 0), (0, 1, 0)})
    assert smith_subgroup_order(g, [(1, 1, 0), (0, 1, 1)]) == 4
    assert generates(g, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert not generates(g, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])


def smith_normal_form(M):
    """Smith normal form over Z, for smith_subgroup_order.

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
        # pivot on the smallest nonzero |entry| of the remaining block: the
        # first nonzero one lets the entries grow without bound
        pivot = min(
            ((abs(D[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if D[i][j]),
            default=None,
        )
        if pivot is None:
            break
        swap_rows(t, pivot[1])
        swap_cols(t, pivot[2])
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


def smith_subgroup_order(G, gens) -> int:
    """Order of <gens> from the Smith form of the lattice spanned by gens
    and the moduli: the reference for generates."""
    k = len(G.moduli)
    if k == 0:
        return 1
    rows = [list(g) for g in gens] + [
        [G.moduli[i] if j == i else 0 for j in range(k)] for i in range(k)
    ]
    d, _, _ = smith_normal_form(rows)
    # the index of the lattice in Z^k is the product of the nonzero invariants
    return G.order // prod(d[i][i] for i in range(k) if d[i][i] != 0)


@given(st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=3), st.data())
@settings(max_examples=200)
def test_generated_order_matches_element_set(moduli, data):
    g = AbGroup(tuple(moduli))
    k = data.draw(st.integers(0, 3))
    gens = [
        tuple(data.draw(st.integers(0, m - 1)) for m in moduli) for _ in range(k)
    ]
    assert smith_subgroup_order(g, gens) == len(subgroup_generated(g, gens))


@given(
    st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]), min_size=0, max_size=3),
    st.data(),
)
@settings(max_examples=400)
def test_generates_matches_element_set_and_smith_form(moduli, data):
    # generates tests the rank of gens mod each prime p dividing |G|
    g = AbGroup(tuple(moduli))
    k = data.draw(st.integers(0, 4))
    gens = [
        tuple(data.draw(st.integers(-20, 20)) for _ in moduli) for _ in range(k)
    ]
    expected = len(subgroup_generated(g, gens)) == g.order
    assert generates(g, gens) == expected
    assert (smith_subgroup_order(g, gens) == g.order) == expected


@given(
    st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]), min_size=0, max_size=3),
    st.data(),
)
@settings(max_examples=400)
def test_subgroup_generated_matches_the_bfs_reference(moduli, data):
    # the closure skips generators already reached; the reference applies
    # every generator to every element.  Generators may repeat, be zero or
    # come unreduced
    g = AbGroup(tuple(moduli))
    k = data.draw(st.integers(0, 5))
    gens = [tuple(data.draw(st.integers(-20, 20)) for _ in moduli) for _ in range(k)]
    assert subgroup_generated(g, gens) == closure(g.zero(), [g.reduce(x) for x in gens], g.add)


@pytest.mark.parametrize(
    "moduli",
    [(1, 2), (12,), (6, 10), (9, 3), (4, 4), (2, 2, 2, 2), (3, 3, 3, 3), (5, 5, 5)],
    ids=lambda m: "x".join(map(str, m)),
)
def test_maximal_subgroup_masks_match_rank_and_closure(moduli):
    # gens generate G exactly when the AND of their masks is 0; generates
    # (the rank mod each p) and the element set of <gens> are the references
    g = AbGroup(moduli)
    elements = list(g.elements())
    masks = maximal_subgroup_masks(g, elements)
    # one bit per maximal subgroup: (p^k - 1)/(p - 1) for each layer G/pG
    layers = {}  # p -> dim G/pG, for the primes of these shapes
    for m in moduli:
        for p in (2, 3, 5):
            layers[p] = layers.get(p, 0) + (m % p == 0)
    bits = sum((p**k - 1) // (p - 1) for p, k in layers.items())
    assert masks[g.zero()] == (1 << bits) - 1
    rng = random.Random(20)
    verdicts = set()
    for size in range(1, g.rank + 2):
        for _ in range(40):
            gens = [rng.choice(elements) for _ in range(size)]
            expected = len(subgroup_generated(g, gens)) == g.order
            assert (not reduce(and_, (masks[x] for x in gens))) == expected, gens
            assert generates(g, gens) == expected, gens
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_generates_refuses_too_few_generators_without_rank(monkeypatch):
    def refuse(rows, p):
        raise AssertionError("rank computed")

    monkeypatch.setattr(abelian, "_rank_mod", refuse)
    c2_4, c6_10 = AbGroup((2, 2, 2, 2)), AbGroup((6, 10))
    assert min_generators(c2_4) == 4 and min_generators(c6_10) == 2
    assert not generates(c2_4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    # repeats count once
    assert not generates(c2_4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)])
    assert not generates(c6_10, [(1, 1)])
    with pytest.raises(AssertionError, match="rank computed"):
        generates(c6_10, [(1, 0), (0, 1)])


def test_torsion_and_multiples():
    a = AbGroup((4, 6))
    assert torsion_count(a, 2) == 4
    killed_by_2 = {x for x in a.elements() if a.smul(2, x) == a.zero()}
    assert killed_by_2 == {(0, 0), (2, 0), (0, 3), (2, 3)}
    assert multiple_subgroup(a, 2) == {
        (x, y) for x in (0, 2) for y in (0, 2, 4)
    }
    assert torsion_count(a, 12) == 24


@given(st.lists(st.integers(1, 12), min_size=1, max_size=3), st.integers(1, 24), st.data())
@settings(max_examples=200)
def test_mod_multiples_names_the_cosets_of_multiples(moduli, m, data):
    # the class key reads x + m*A as x mod gcd(m, n) in each C_n
    from lemfact.cocycle import _mod_multiples

    a = AbGroup(tuple(moduli))
    mult = multiple_subgroup(a, m)
    x = tuple(data.draw(st.integers(0, n - 1)) for n in moduli)
    y = tuple(data.draw(st.integers(0, n - 1)) for n in moduli)
    assert (_mod_multiples(a, m, x) == a.zero()) == (x in mult)
    assert (_mod_multiples(a, m, x) == _mod_multiples(a, m, y)) == (a.sub(x, y) in mult)


def test_hom_count_matches_brute_force():
    g, a = AbGroup((2, 4)), AbGroup((6,))
    count = 0
    for c0 in range(6):
        for c1 in range(6):
            if (2 * c0) % 6 == 0 and (4 * c1) % 6 == 0:
                count += 1
    assert hom_count(g, a) == count


def test_hom_well_definedness_rejected():
    with pytest.raises(ValueError):
        AbHom(cyclic(2), cyclic(4), ((1,),))


def test_hom_call_and_compose():
    g = AbGroup((4,))
    dbl = AbHom(g, g, ((2,),))
    assert dbl((3,)) == (2,)
    assert dbl(dbl((1,))) == (0,)
    assert AbHom(g, g, ((1,),))((3,)) == (3,)


@pytest.mark.parametrize(
    "moduli,count",
    [((2,), 1), ((3,), 2), ((4,), 2), ((2, 2), 6), ((2, 2, 2), 168), ((2, 4), 8)],
)
def test_automorphism_counts(moduli, count):
    assert len(enumerate_automorphisms(AbGroup(moduli))) == count


@pytest.mark.parametrize(
    "f,message",
    [
        (lambda: enumerate_automorphisms(AbGroup((2,) * 5)),
         "33554432 candidate automorphisms exceed bound 1024"),
        (lambda: enumerate_automorphisms(AbGroup((2,) * 4)),
         "65536 candidate automorphisms exceed bound 1024"),
        (lambda: subgroup_generated(AbGroup((257, 256)), [(1, 0)]),
         "group order 65792 exceeds bound 65536"),
    ],
    ids=["aut-c2^5", "aut-c2^4", "subgroup"],
)
def test_bounds_raise_before_work(f, message):
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        f()
    assert time.perf_counter() - start < 1
    assert str(exc.value) == message
