"""End-to-end acceptance suite.

Each test prints one PASS line on success; the heavy class-group sweep
over -100000 < d < -3 is computed once and shared.  Everything here is
exact integer arithmetic with zero tolerance.
"""

import itertools
import random

import pytest

from lemfact.abelian import elem_order
from lemfact.arith import factorize, is_fundamental_discriminant, is_prime, prime_discriminants
from lemfact.cocycle import (
    CentralExtension,
    aut_stabilizer_order,
    check_cocycle,
    class_orbit_size,
    preset,
    quaternion_pair_class_count,
)
from lemfact.criteria import c4_criterion, heisenberg_criterion
from lemfact.oracle import class_group_structure, class_number, naive_form_count, rank_sweep, redei_rank
from lemfact.solver import BaseFieldData, classify
from cocycle_reference import TableExtension
from solver_reference import (
    enumerate_assignments,
    frobenius_pairing_sum,
    frobenius_pairing_sum_direct,
)

SWEEP_LO, SWEEP_HI = -100000, -3


@pytest.fixture(scope="module")
def sweep():
    return rank_sweep(SWEEP_LO, SWEEP_HI)


def test_criterion_01_c4_iff_four_rank(sweep):
    mismatches = 0
    for d, (_, r4) in sweep.items():
        crit = c4_criterion(d)
        if crit.exists != (r4 >= 1):
            mismatches += 1
        if crit.exists:
            t = len(prime_discriminants(d))
            assert crit.count_per_witness == 2 ** (t - 2), d
    assert mismatches == 0
    print(f"PASS criterion 1: c4 exists iff four_rank >= 1 on {len(sweep)} discriminants")


def test_criterion_02_four_rank_equals_redei(sweep):
    mismatches = sum(1 for d, (_, r4) in sweep.items() if r4 != redei_rank(d))
    assert mismatches == 0
    print(f"PASS criterion 2: form 4-rank = Redei 4-rank on {len(sweep)} discriminants")


def test_criterion_03_genus_theory_two_rank(sweep):
    mismatches = sum(
        1
        for d, (r2, _) in sweep.items()
        if r2 != len(prime_discriminants(d)) - 1
    )
    assert mismatches == 0
    print(f"PASS criterion 3: two_rank = t - 1 on {len(sweep)} discriminants")


def test_criterion_11_c4_count_is_redei_reichardt(sweep):
    # Redei-Reichardt: d has exactly 2^{r4} - 1 C4 splittings
    mismatches = sum(
        1
        for d, (_, r4) in sweep.items()
        if len(c4_criterion(d).witnesses) != 2**r4 - 1
    )
    assert mismatches == 0
    print(f"PASS criterion 11: #C4 splittings = 2^r4 - 1 on {len(sweep)} discriminants")


def test_criterion_04_heisenberg_duality():
    rng = random.Random(20240501)
    checked = {3: 0, 5: 0}
    positives = 0
    for ell in (3, 5):
        ext, h = preset("Heisenberg", ell)
        assert aut_stabilizer_order(ext) == 1
        assert class_orbit_size(ext) == ell - 1
        pool = [p for p in range(ell + 1, 10**4) if is_prime(p) and p % ell == 1]
        seen = set()
        while checked[ell] < 100:
            triple = tuple(sorted(rng.sample(pool, 3)))
            if triple in seen:
                continue
            seen.add(triple)
            crit = heisenberg_criterion(ell, *triple)
            kdata = BaseFieldData(h, tuple((q, (0, 0, 1)) for q in triple))
            rep = classify(ext, h, kdata)
            assert rep.exists == crit.exists, (ell, triple)
            if rep.exists:
                positives += 1
            for w in rep.witnesses:
                assert w.count_per_class == 1, (ell, triple)
                assert w.classes == ell - 1, (ell, triple)
            checked[ell] += 1
    assert positives >= 1
    print(
        f"PASS criterion 4: Heisenberg duality on {checked[3]}+{checked[5]} triples "
        f"({positives} with solutions), stabilizer 1, orbit ell-1"
    )


def test_criterion_05_c4_d4_duality():
    ext, h = preset("C4_D4", None)
    n = 0
    for d in range(-9999, 10**4, 2):
        if d in (-1, 1) or not is_fundamental_discriminant(d):
            continue
        crit = c4_criterion(d)
        primes = tuple((pp.q, (0, 1)) for pp in factorize(abs(d)))
        rep = classify(ext, h, BaseFieldData(h, primes))
        assert rep.exists == crit.exists, d
        # engine witnesses are labeled assignments: two per coprime split
        assert len(rep.witnesses) == 2 * len(crit.witnesses), d
        omega = len(prime_discriminants(d))
        for w in rep.witnesses:
            assert w.count_per_class == 2 ** (omega - 2), d
            assert w.count_per_class == crit.count_per_witness, d
        n += 1
    print(f"PASS criterion 5: c4_criterion = classify(C4_D4) on {n} odd fundamental d")


def test_criterion_06_h8_counting_formula():
    ext, h = preset("H8_pair", None)
    g0 = next(g for g in sorted(ext.gab.elements()) if g not in h)
    n = 0
    witnesses = 0
    for d in range(5, 10**5, 4):  # odd fundamental d are 1 mod 4
        if not is_fundamental_discriminant(d):
            continue
        pps = factorize(d)
        if len(pps) < 3:
            continue
        primes = tuple((pp.q, g0) for pp in pps)
        rep = classify(ext, h, BaseFieldData(h, primes))
        omega = len(pps)
        for w in rep.witnesses:
            assert w.count_per_class == 2 ** (omega - 3), d
            witnesses += 1
        n += 1
    assert witnesses > 0
    print(
        f"PASS criterion 6: H8 count 2^(omega-3) on {witnesses} witnesses "
        f"from {n} discriminants"
    )


def test_criterion_07_unique_quaternion_pair():
    assert quaternion_pair_class_count() == 1
    print("PASS criterion 7: one admissible quaternion class over (C2^3, C2)")


def test_criterion_08_cocycle_suite():
    from test_cocycle import SMALL_PAIRS, brute_force_coboundary, random_cocycle

    from lemfact.abelian import AbGroup
    from lemfact.cocycle import is_coboundary

    rng = random.Random(41)
    pair_cases = 0
    for gab, a in SMALL_PAIRS:
        for _ in range(6):
            table = random_cocycle(gab, a, rng)
            check_cocycle(gab, a, table)
            ext = CentralExtension.from_table(gab, a, table)
            els = list(gab.elements())
            for _ in range(25):
                x, xp, y = (rng.choice(els) for _ in range(3))
                assert ext.pairing(gab.add(x, xp), y) == a.add(
                    ext.pairing(x, y), ext.pairing(xp, y)
                )
                assert ext.pairing(x, y) == a.neg(ext.pairing(y, x))
                pair_cases += 1
    assert pair_cases >= 1000

    cob_cases = 0
    small = [
        (AbGroup((2,)), AbGroup((2,))),
        (AbGroup((2,)), AbGroup((4,))),
        (AbGroup((2, 2)), AbGroup((2,))),
        (AbGroup((4,)), AbGroup((2,))),
        (AbGroup((3,)), AbGroup((3,))),
        (AbGroup((2, 2)), AbGroup((2, 2))),
        (AbGroup((8,)), AbGroup((2,))),
        (AbGroup((2, 4)), AbGroup((3,))),
    ]
    for gab, a in small:
        for _ in range(1100 // len(small) + 1):
            table = random_cocycle(gab, a, rng)
            assert is_coboundary(gab, a, table)[0] == brute_force_coboundary(
                gab, a, table
            )
            cob_cases += 1
    assert cob_cases >= 1000

    # coordinate-wise lifting over the product of cyclic groups from Y_E
    for name, param in (("C4_D4", None), ("Heisenberg", 3), ("H8_pair", None)):
        ext, _ = preset(name, param)
        gab, a = ext.gab, ext.a
        ys = sorted(y for y in ext.y_set() if y != gab.zero())[:3]
        prod_group = AbGroup(tuple(elem_order(gab, y) for y in ys))

        def push(u):
            out = gab.zero()
            for coef, y in zip(u, ys):
                out = gab.add(out, gab.smul(coef, y))
            return out

        pulled = TableExtension(
            prod_group,
            a,
            {
                (u, v): ext.c(push(u), push(v))
                for u in prod_group.elements()
                for v in prod_group.elements()
            },
        )
        check_cocycle(prod_group, a, pulled.table)
        for u in prod_group.elements():
            for v in prod_group.elements():
                acc = a.zero()
                for i, yi in enumerate(ys):
                    for j, yj in enumerate(ys):
                        acc = a.add(acc, a.smul(u[i] * v[j], ext.pairing(yi, yj)))
                assert pulled.pairing(u, v) == acc
    print(
        f"PASS criterion 8: cocycle suite ({pair_cases} pairing cases, "
        f"{cob_cases} coboundary cases, lifting on 3 presets)"
    )


def test_criterion_09_dual_frobenius():
    rng = random.Random(17)
    checked = 0

    # all Heisenberg ell=3 instances that appear in criterion 4's pool
    ext3, h3 = preset("Heisenberg", 3)
    pool3 = [p for p in range(7, 500) if is_prime(p) and p % 3 == 1]
    for triple in itertools.combinations(pool3[:6], 3):
        kdata = BaseFieldData(h3, tuple((q, (0, 0, 1)) for q in triple))
        for asg in enumerate_assignments(ext3, h3, kdata):
            for p, _ in asg.entries:
                assert frobenius_pairing_sum(ext3, asg, p) == frobenius_pairing_sum_direct(
                    ext3, asg, p
                )
                checked += 1

    # randomized assignments over the presets
    from lemfact.solver import RamAssignment

    targets = [preset("C4_D4", None), preset("Heisenberg", 5), preset("H8_pair", None)]
    while checked < 2000:
        ext, _ = rng.choice(targets)
        ye = sorted(y for y in ext.y_set() if y != ext.gab.zero())
        k = rng.randrange(2, 5)
        entries = []
        used = set()
        while len(entries) < k:
            y = rng.choice(ye)
            n = elem_order(ext.gab, y)
            q = rng.randrange(3, 10**4)
            if q in used or not is_prime(q) or (q - 1) % n or q == 2:
                continue
            if ext.gab.order % q == 0 or ext.a.order % q == 0:
                continue
            used.add(q)
            entries.append((q, y))
        asg = RamAssignment(ext, tuple(entries))
        for p, _ in asg.entries:
            assert frobenius_pairing_sum(ext, asg, p) == frobenius_pairing_sum_direct(
                ext, asg, p
            )
            checked += 1
    print(f"PASS criterion 9: literal = direct Frobenius sums on {checked} evaluations")


def test_criterion_10_oracle_sanity():
    group, h = class_group_structure(-23)
    assert group.moduli == (3,) and h == 3
    n = 0
    for d in range(-3, -1000, -1):
        if not is_fundamental_discriminant(d):
            continue
        assert class_number(d) == naive_form_count(d), d
        n += 1
    print(f"PASS criterion 10: Cl(-23) = C3; h-counts agree on {n} discriminants")
