import random
import time
from math import isqrt

import pytest

import lemfact.oracle
from lemfact.abelian import AbGroup, elem_order
from lemfact.arith import factorize, is_fundamental_discriminant, prime_discriminants
from lemfact.oracle import (
    QuadForm,
    _exact_log,
    _factor,
    _is_fundamental,
    _prime_discs,
    _square,
    _squarefree,
    class_group_structure,
    class_number,
    compose,
    form_pow,
    four_rank,
    naive_form_count,
    opposite,
    principal_form,
    rank_sweep,
    redei_matrix,
    redei_rank,
    redei_ranks,
    reduce_form,
    reduced_forms,
    square,
    two_rank,
)


def is_reduced(f):
    """Whether f is the reduced form of its class: |b| <= a <= c, with
    b >= 0 when |b| = a or a = c."""
    a, b, c = f.a, f.b, f.c
    if not -a < b <= a <= c:
        return False
    return b >= 0 if a == c else True


DISCS = [d for d in range(-3, -800, -1) if is_fundamental_discriminant(d)]


def test_reduce_examples():
    assert reduce_form(QuadForm(1, 0, 1)) == QuadForm(1, 0, 1)
    assert reduce_form(QuadForm(2, 2, 3)) == QuadForm(2, 2, 3)
    assert reduce_form(QuadForm(3, 2, 1)) == QuadForm(1, 0, 2)


def test_reduce_idempotent_and_class_preserving():
    rng = random.Random(12)
    for _ in range(300):
        a = rng.randrange(1, 30)
        b = rng.randrange(-40, 40)
        cmin = (b * b) // (4 * a) + 1
        c = rng.randrange(cmin, cmin + 40)
        f = QuadForm(a, b, c)
        g = reduce_form(f)
        assert is_reduced(g)
        assert g.disc == f.disc
        assert reduce_form(g) == g


def test_positive_definite_required():
    with pytest.raises(ValueError):
        QuadForm(-1, 0, 1)
    with pytest.raises(ValueError):
        QuadForm(1, 5, 1)  # disc > 0


def test_reduced_forms_minus_23():
    forms = reduced_forms(-23)
    assert forms == [QuadForm(1, 1, 6), QuadForm(2, -1, 3), QuadForm(2, 1, 3)]
    f = QuadForm(2, 1, 3)
    assert compose(f, f) == QuadForm(2, -1, 3)
    assert form_pow(f, 3) == principal_form(-23)


def test_composition_group_laws():
    rng = random.Random(99)
    for d in (-23, -47, -84, -231, -419, -479):
        forms = reduced_forms(d)
        e = principal_form(d)
        for f in forms:
            assert compose(e, f) == f
            assert compose(f, opposite(f)) == e
            assert square(f) == compose(f, f)
        for _ in range(30):
            f, g, h = (rng.choice(forms) for _ in range(3))
            assert compose(f, g) == compose(g, f)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_square_matches_compose_below_5000():
    # the duplication formula against the lattice composition, on every
    # reduced form of every fundamental -5000 < d < 0
    count = 0
    for d in range(-3, -5000, -1):
        if is_fundamental_discriminant(d):
            for f in reduced_forms(d):
                assert square(f) == compose(f, f), f
                count += 1
    assert count > 30000


def test_compose_discriminant_mismatch():
    with pytest.raises(ValueError):
        compose(principal_form(-23), principal_form(-24))


@pytest.mark.parametrize(
    "d,moduli,h",
    [
        (-4, (), 1),
        (-23, (3,), 3),
        (-84, (2, 2), 4),
        (-47, (5,), 5),
        (-71, (7,), 7),
        (-479, (25,), 25),
        (-3299, (3, 9), 27),
    ],
)
def test_class_group_structure(d, moduli, h):
    group, got_h = class_group_structure(d)
    assert group.moduli == moduli
    assert got_h == h


def test_class_group_structure_matches_element_orders():
    # two finite abelian groups with the same number of elements of each
    # order are isomorphic, so the orders of the reduced forms, each found
    # by composing the form with itself until the principal form, decide
    # the structure
    count = 0
    for d in range(-1999, 0):
        if not is_fundamental_discriminant(d):
            continue
        e = principal_form(d)
        orders = []
        for f in reduced_forms(d):
            g, n = f, 1
            while g != e:
                g, n = compose(g, f), n + 1
            orders.append(n)
        moduli = class_group_structure(d)[0].moduli
        group = AbGroup(moduli)
        assert sorted(orders) == sorted(elem_order(group, x) for x in group.elements()), d
        assert all(b % a == 0 for a, b in zip(moduli, moduli[1:])), d
        count += 1
    assert count > 600


def test_class_number_matches_naive_counter():
    for d in DISCS:
        assert naive_form_count(d) == class_number(d)


def test_two_rank_is_genus_theory():
    for d in DISCS:
        assert two_rank(d) == len(prime_discriminants(d)) - 1


def test_four_rank_matches_redei():
    for d in DISCS:
        assert four_rank(d) == redei_rank(d)


def test_four_rank_via_structure():
    for d in (-84, -420, -479, -23, -155, -671):
        group, _ = class_group_structure(d)
        r4 = sum(1 for m in group.moduli if m % 4 == 0)
        assert four_rank(d) == r4


def test_rank_sweep_matches_per_disc():
    sweep = rank_sweep(-800, -2)
    assert set(sweep) == set(DISCS)
    for d in DISCS:
        assert sweep[d] == (two_rank(d), four_rank(d))


def test_rank_sweep_matches_per_disc_large_window():
    # rank_sweep squares only the non-ambiguous forms with b > 0; those
    # are rare below |d| = 800, so compare on a window further out
    lo, hi = -20000, -19700
    discs = [d for d in range(lo, hi) if is_fundamental_discriminant(d)]
    sweep = rank_sweep(lo, hi)
    assert sorted(sweep) == discs
    for d in discs:
        assert sweep[d] == (two_rank(d), four_rank(d)), d


@pytest.mark.parametrize(
    "lo,hi",
    [(-7, -2), (-4, -3), (-12000, -11700), (-11999, -11700), (-11998, -11699)],
    ids=["edge-7", "edge-4", "lo-0-mod-4", "lo-1-mod-4", "lo-2-mod-4"],
)
def test_rank_sweep_windows_match_per_disc(lo, hi):
    discs = [d for d in range(lo, hi) if is_fundamental_discriminant(d)]
    sweep = rank_sweep(lo, hi)
    assert list(sweep) == discs
    for d in discs:
        assert sweep[d] == (two_rank(d), four_rank(d)), d


def _c_bounds(a, bb, lo, hi):
    """The least and the greatest c >= a with lo <= bb - 4ac < hi."""
    return max(a, (bb - hi) // (4 * a) + 1), (bb - lo) // (4 * a)


def reference_rank_sweep(lo, hi):
    """rank_sweep in two passes over every (a, b) up to sqrt(|lo| / 3):
    the first marks each d with an imprimitive reduced form k (a, b, c),
    the second squares one form of each inverse pair of the other d."""
    amax = isqrt(-lo // 3)
    imprimitive = bytearray(hi - lo)  # index d - lo
    for k in range(2, amax + 1):
        for a in range(k, amax + 1, k):
            for b in range(0, a + 1, k):
                bb = b * b
                cmin, cmax = _c_bounds(a, bb, lo, hi)
                # the c in [cmin, cmax] divisible by k, from the largest
                # (the least index d - lo) down, d rising by 4ak per step
                cmax -= cmax % k
                if cmin <= cmax:
                    first = bb - 4 * a * cmax - lo
                    last = first + 4 * a * (cmax - cmin)
                    imprimitive[first:last + 1:4 * a * k] = b"\x01" * ((cmax - cmin) // k + 1)
    fundamental = [d for d in range(lo, hi) if d % 4 < 2 and not imprimitive[d - lo]]
    amb_count = dict.fromkeys(fundamental, 0)
    amb_squares = {d: set() for d in fundamental}
    for a in range(1, amax + 1):
        for b in range(a + 1):
            bb = b * b
            cmin, cmax = _c_bounds(a, bb, lo, hi)
            for c in range(cmin, cmax + 1):
                d = bb - 4 * a * c
                if d not in amb_count:
                    continue
                if b == 0 or b == a or a == c:
                    amb_count[d] += 1
                    if a == 1:
                        amb_squares[d].add((a, b, c))
                    continue
                sa, sb, sc = _square(a, b, c)
                if sb == 0 or sa == sb or sa == sc:
                    amb_squares[d].add((sa, sb, sc))
    out = {}
    for d in fundamental:
        message = f"non-power-of-2 ambiguous counts at {d}"
        out[d] = (
            _exact_log(amb_count[d], 2, message),
            _exact_log(len(amb_squares[d]), 2, message),
        )
    return out


def test_rank_sweep_matches_reference_on_windows():
    rng = random.Random(1729)
    windows = []
    for _ in range(200):
        lo = rng.randint(-30000, -4)
        windows.append((lo, min(lo + rng.randint(1, 400), 0)))
    # windows with an end on e = k^2 d', from lo at each residue mod 4
    for k in (2, 3, 5):
        for dp in (-3, -4, -7, -8, -1103, -1104):
            e = k * k * dp
            for r in range(4):
                windows += [(e - 1 - r, e), (e - 40 - r, e + 1)]
                windows += [(e, min(e + 40 + r, 0)), (e + 1 + r, min(e + 60, 0))]
    for lo, hi in windows:
        sweep = rank_sweep(lo, hi)
        assert list(sweep.items()) == list(reference_rank_sweep(lo, hi).items()), (lo, hi)


@pytest.mark.parametrize(
    "max_disc,lo,message",
    [
        # the first bound check names |d| for d = 1 mod 4, |d/4| for 4 | d
        ("500", -1000, "999 exceeds discriminant bound 500"),
        ("100", -410, "102 exceeds discriminant bound 100"),
        ("100", -420, "105 exceeds discriminant bound 100"),
        (None, -1000010, "|-1000007| exceeds oracle bound 1000000"),
    ],
)
def test_rank_sweep_bound_errors_are_pinned(monkeypatch, max_disc, lo, message):
    if max_disc is None:
        monkeypatch.delenv("LEMFACT_MAX_DISC", raising=False)
    else:
        monkeypatch.setenv("LEMFACT_MAX_DISC", max_disc)
    with pytest.raises(ValueError) as info:
        rank_sweep(lo, -3)
    assert str(info.value) == message


def test_rank_sweep_enforces_oracle_bound(monkeypatch):
    monkeypatch.delenv("LEMFACT_MAX_DISC", raising=False)
    first = next(d for d in range(-(10**9), -3) if is_fundamental_discriminant(d))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^\|{first}\| exceeds oracle bound 1000000$"):
        rank_sweep(-(10**9), -3)
    assert time.perf_counter() - start < 1


# one d for each shape of 2-Sylow subgroup, with the bound
# cap = min(r2, v2(h) - r2) on r4 that rank_sweep squares up to; cap = r4
# for all but -399, so the sweep stops squaring those d early
TWO_SYLOW_SHAPES = [
    (-39, (4,), 1),
    (-95, (8,), 1),
    (-407, (16,), 1),
    (-260, (2, 4), 1),
    (-399, (2, 8), 2),
    (-2379, (4, 4), 2),
    (-1140, (2, 2, 4), 1),
    (-25988, (8, 8), 2),
]


@pytest.mark.parametrize("d,shape,cap", TWO_SYLOW_SHAPES, ids=[str(t[0]) for t in TWO_SYLOW_SHAPES])
def test_rank_sweep_matches_two_sylow(d, shape, cap):
    group, h = class_group_structure(d)
    assert tuple(m & -m for m in group.moduli if m % 2 == 0) == shape
    r2 = len(shape)
    v2 = (h & -h).bit_length() - 1
    assert min(r2, v2 - r2) == cap
    lo, hi = d - 30, min(d + 30, 0)
    sweep = rank_sweep(lo, hi)
    assert sweep[d] == (r2, sum(m % 4 == 0 for m in shape))
    for e, ranks in sweep.items():
        two_part = [m & -m for m in class_group_structure(e)[0].moduli if m % 2 == 0]
        assert ranks == (two_rank(e), four_rank(e)), e
        assert ranks == (len(two_part), sum(m % 4 == 0 for m in two_part)), e


def test_rank_sweep_squares_within_the_lagrange_bound(monkeypatch):
    squared = []

    def counting_square(a, b, c):
        squared.append((a, b, c))
        return _square(a, b, c)

    monkeypatch.setattr(lemfact.oracle, "_square", counting_square)
    # Z/2 x Z/2 (h = 4 = 2^r2): no room for a 4-rank, nothing squared
    assert rank_sweep(-84, -83) == {-84: (2, 0)}
    assert squared == []
    # Z/4 x Z/4 and Z/2 x Z/2 x Z/4: the sweep stops once the 4 and the 2
    # ambiguous squares are found, after 4 of the 6 and 1 of the 4
    # non-ambiguous forms with b > 0
    for d, ranks, count, forms in ((-2379, (2, 2), 4, 6), (-1140, (3, 1), 1, 4)):
        squared.clear()
        assert rank_sweep(d, d + 1) == {d: ranks}
        assert len(squared) == count
        assert len([f for f in reduced_forms(d) if f.b > 0 and not f.is_ambiguous()]) == forms
    # Z/2 x Z/8: the bound 2 is not reached, so every such form is squared
    squared.clear()
    forms = [f for f in reduced_forms(-399) if f.b > 0 and not f.is_ambiguous()]
    assert rank_sweep(-399, -398) == {-399: (2, 1)}
    assert sorted(squared) == sorted((f.a, f.b, f.c) for f in forms)


def test_exact_log():
    assert [_exact_log(n, 2, "unused") for n in (1, 2, 4, 1024)] == [0, 1, 2, 10]
    assert [_exact_log(n, 3, "unused") for n in (1, 3, 9, 243)] == [0, 1, 2, 5]
    for n, p in ((3, 2), (6, 2), (12, 2), (0, 2), (-1, 2), (2, 3), (18, 3), (-3, 3), (10, 5)):
        with pytest.raises(AssertionError, match=f"^count {n}$"):
            _exact_log(n, p, f"count {n}")


def test_redei_matrix_rows_sum_to_zero():
    # the diagonal entry is the product of the off-diagonal symbols in
    # its row, so every row has even weight
    for d in DISCS + [5, 8, 12, 205, 1820, 3 * 5 * 7 * 11 * 4]:
        if d in (0, 1) or not is_fundamental_discriminant(d):
            continue
        for r in redei_matrix(d):
            assert bin(r).count("1") % 2 == 0


def test_redei_rank_prime_discriminant():
    for d in (-4, -8, 8, 5, -3, -7, 13):
        assert redei_rank(d) == 0


def test_redei_positive_examples():
    assert redei_rank(205) >= 1
    assert redei_rank(145) >= 1
    assert redei_rank(65) == 0


REDEI_WINDOWS = [
    (-3000, -2000),
    (2000, 3000),
    (-200, 200),  # across 0 and 1
    (0, 2),
    (1, 2),
    (-8, -7),
    (-16384 - 300, -16384 + 300),  # across the edges of a block
    (16384 - 300, 16384 + 300),
    (-32768 - 500, -32768 + 100),
    (32768 - 100, 32768 + 500),
    (-49152 - 40, -16384 + 40),  # two whole blocks
]


def test_redei_ranks_match_per_disc():
    residues, two_parts = set(), set()
    for lo, hi in REDEI_WINDOWS:
        expected = [
            (d, redei_rank(d)) for d in range(lo, hi) if d != 1 and is_fundamental_discriminant(d)
        ]
        assert list(redei_ranks(lo, hi)) == expected, (lo, hi)
        residues.update(d % 16 for d, _ in expected)
        two_parts.update(v for d, _ in expected for v in _prime_discs(d) if v % 2 == 0)
    assert {8, 12} <= residues and two_parts == {-4, 8, -8}


def test_redei_ranks_check_the_bound_first(monkeypatch):
    monkeypatch.setenv("LEMFACT_MAX_DISC", "1000")
    ranks = redei_ranks(-500, 1002)
    with pytest.raises(ValueError, match="^1001 exceeds discriminant bound 1000$"):
        next(ranks)
    # hi is excluded: the window -1000 <= d <= 1000 is within the bound
    assert list(redei_ranks(-1000, 1001))[-1][0] == 997


def test_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        reduced_forms(5)
    with pytest.raises(ValueError):
        reduced_forms(-20 * 4)
    with pytest.raises(ValueError):
        two_rank(-(10**7))
    with pytest.raises(ValueError):
        redei_rank(45)


def test_squarefree_and_is_fundamental():
    for n in range(1, 20000):
        assert _squarefree(n) == all(pp.e == 1 for pp in factorize(n)), n
    # cofactors past the cube root: a prime square, a product of two
    # primes, a prime, and a square of a prime times a small prime
    p, q = 1000003, 999983
    assert not _squarefree(p * p) and not _squarefree(3 * p * p)
    assert _squarefree(p * q) and _squarefree(p) and _squarefree(7 * p * q)
    for d in range(-30000, 30000):
        assert _is_fundamental(d) == (_prime_discs(d) is not None), d


def test_oracle_bound_error_is_quick_near_2_63(monkeypatch):
    monkeypatch.delenv("LEMFACT_MAX_DISC", raising=False)
    # -p for the prime p = 2^63 - 25 = 3 mod 4: fundamental, and its
    # factorization would take 1.5e9 trial divisions
    d = -(2**63 - 25)
    for e, message in (
        (d, f"|{d}| exceeds oracle bound 1000000"),
        (-100000000000000003, "|-100000000000000003| exceeds oracle bound 1000000"),
        (-(2**62), f"{-(2**62)} is not a fundamental discriminant"),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            four_rank(e)
        assert str(info.value) == message
        assert time.perf_counter() - start < 2


def test_prime_discs_match_arith():
    seen_two_parts = set()
    for d in range(-30000, 30000):
        parts = _prime_discs(d)
        if is_fundamental_discriminant(d):
            assert parts == prime_discriminants(d), d
            seen_two_parts.update(v for v in parts if v % 2 == 0)
        else:
            assert parts is None, d
    assert seen_two_parts == {-4, 8, -8}
    assert _prime_discs(-84) == [-3, -4, -7]
    for n in range(1, 5000):
        assert _factor(n) == [(pp.q, pp.e) for pp in factorize(n)]


def test_oracle_imports_no_factoring_from_arith():
    for name in ("factorize", "is_fundamental_discriminant", "prime_discriminants"):
        assert not hasattr(lemfact.oracle, name)
