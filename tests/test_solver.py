import hashlib
import itertools
import json
import logging
import random
import time
from functools import lru_cache
from math import gcd, prod
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lemfact.abelian import (
    AbGroup,
    elem_order,
    enumerate_automorphisms,
    hom_count,
    subgroup_generated,
    torsion_count,
)
from lemfact import abelian, arith, cocycle, solver
from lemfact.arith import factorize, is_fundamental_discriminant, is_prime
from lemfact.cocycle import (
    CentralExtension,
    _aut_counts,
    aut_stabilizer_order,
    check_cocycle,
    class_orbit_size,
    enumerate_central_extensions,
    is_admissible_pair,
    preset,
    split_extension,
)
from lemfact.criteria import heisenberg_criterion
from lemfact.solver import (
    BaseFieldData,
    RamAssignment,
    Report,
    Witness,
    _characters,
    _image_orders,
    _lift_solutions,
    _lift_survivors,
    _plan,
    _tables,
    classify,
    count_extensions,
    primes_from_json,
)
from cocycle_reference import H2_PAIRS, d4_table, subgroups
from solver_reference import (
    DiscFactorization,
    assignment_space,
    conjugation_image,
    enumerate_assignments,
    factorization_of,
    frobenius_pairing_sum,
    frobenius_pairing_sum_direct,
    generating,
    has_unramified_lift,
    infinite_place_ok,
    sign_image,
)


@pytest.fixture(scope="module")
def d4():
    return preset("C4_D4", None)


@pytest.fixture(scope="module")
def heis3():
    return preset("Heisenberg", 3)


def factor_of(fact: DiscFactorization, y) -> int:
    """d_y of a factorization; 1 for an image it does not list."""
    return dict(fact.factors).get(y, 1)


def survivor_indices(pairs) -> list:
    """The choices of the (prefix, bitmask) pairs of _lift_solutions as
    index tuples, in order: (*prefix, c) for each bit c of the bitmask,
    lowest first."""
    return [(*idx, c) for idx, mask in pairs for c in range(mask.bit_length()) if mask >> c & 1]


def shape_of(ext, kdata) -> tuple:
    """The shape classify keys its plan on: (inertia image, (q - 1) mod
    exp(Gab)) over the primes sorted."""
    return tuple((g, (q - 1) % ext.gab.exponent) for q, g in sorted(kdata.primes))


def plan_of(ext, h, kdata):
    """The solver's plan of a base field, as classify reads it."""
    return _plan(ext, frozenset(h), shape_of(ext, kdata))


def assignment_from_factorization(ext, fact: DiscFactorization) -> RamAssignment:
    """Inverse of factorization_of: each prime dividing d_y gets inertia
    image y.  Validates the order-divisibility and shape conditions."""
    gab = ext.gab
    entries = []
    for y, d in fact.factors:
        n = elem_order(gab, y)
        sign = 1
        for pp in factorize(abs(d)):
            if pp.q == 2:
                raise ValueError("general engine requires odd discriminant factors")
            if pp.e != n - 1:
                raise ValueError(
                    f"prime {pp.q} appears to the power {pp.e}, expected |y|-1 = {n - 1}"
                )
            if (pp.q - 1) % n != 0:
                raise ValueError(f"prime {pp.q} incompatible with order {n}")
            sign *= (1 if pp.q % 4 == 1 else -1) ** (n - 1)
            entries.append((pp.q, y))
        if sign != (1 if d > 0 else -1):
            raise ValueError(f"sign of {d} does not match its prime stars")
    return RamAssignment(ext, tuple(entries))


def c4_kdata(ext, h, d):
    primes = tuple((pp.q, (0, 1)) for pp in factorize(abs(d)))
    return BaseFieldData(h, primes)


def h8_kdata(ext, h, d):
    g0 = next(g for g in sorted(ext.gab.elements()) if g not in h)
    return BaseFieldData(h, tuple((pp.q, g0) for pp in factorize(abs(d))))


def heis_kdata(h, primes):
    return BaseFieldData(h, tuple((q, (0, 0, 1)) for q in primes))


def test_assignment_validation(d4):
    ext, _ = d4
    RamAssignment(ext, ((5, (0, 1)), (41, (1, 1))))
    with pytest.raises(ValueError):
        RamAssignment(ext, ())  # empty
    with pytest.raises(ValueError):
        RamAssignment(ext, ((2, (0, 1)),))  # wild prime
    with pytest.raises(ValueError):
        RamAssignment(ext, ((5, (1, 0)),))  # (1,0) not in Y_E
    with pytest.raises(ValueError):
        RamAssignment(ext, ((5, (0, 0)),))  # trivial inertia
    with pytest.raises(ValueError):
        RamAssignment(ext, ((5, (0, 1)), (5, (1, 1))))  # duplicate prime


def test_factorization_round_trip(d4):
    ext, _ = d4
    asg = RamAssignment(ext, ((5, (0, 1)), (41, (1, 1)), (13, (0, 1))))
    fact = factorization_of(asg)
    assert factor_of(fact, (0, 1)) == 65
    assert factor_of(fact, (1, 1)) == 41
    back = assignment_from_factorization(ext, fact)
    assert back.entries == asg.entries


def test_factorization_signs(d4):
    ext, _ = d4
    asg = RamAssignment(ext, ((3, (0, 1)), (7, (1, 1))))
    fact = factorization_of(asg)
    assert factor_of(fact, (0, 1)) == -3
    assert factor_of(fact, (1, 1)) == -7
    assert assignment_from_factorization(ext, fact).entries == asg.entries


def test_factorization_coprimality_enforced(d4):
    ext, _ = d4
    with pytest.raises(ValueError):
        DiscFactorization(ext, (((0, 1), 15), ((1, 1), 21)))
    with pytest.raises(ValueError):
        DiscFactorization(ext, (((0, 1), 7),))  # 7 % 4 == 3: not a discriminant


def test_assignment_from_factorization_rejects_bad_exponent(heis3):
    ext, _ = heis3
    # order-3 image needs q^2 || d_y
    with pytest.raises(ValueError):
        assignment_from_factorization(
            ext, DiscFactorization(ext, (((0, 0, 1), 13),))
        )
    good = DiscFactorization(ext, (((0, 0, 1), 169),))
    asg = assignment_from_factorization(ext, good)
    assert asg.entries == ((13, (0, 0, 1)),)


def test_infinite_place(d4):
    ext, _ = d4
    # negative factor at an order-2 image: acc = y, must stay in Y_E
    fact = factorization_of(RamAssignment(ext, ((3, (0, 1)), (5, (1, 1)))))
    assert infinite_place_ok(ext, fact)
    # -3 at (0, 1) and -7 at (1, 1): the sum (1, 0) is outside Y_E
    fact = factorization_of(RamAssignment(ext, ((3, (0, 1)), (7, (1, 1)))))
    assert fact.factors == (((0, 1), -3), ((1, 1), -7))
    assert (1, 0) not in ext.y_set()
    assert not infinite_place_ok(ext, fact)
    # odd-order images force positive factors, so nothing to check there
    hext, _ = preset("Heisenberg", 3)
    hfact = factorization_of(RamAssignment(hext, ((7, (0, 0, 1)),)))
    assert factor_of(hfact, (0, 0, 1)) == 49
    assert infinite_place_ok(hext, hfact)


# (Gab, A) of the infinite-place sweep: images of order 2, 4 and 6, A
# cyclic and not, classes with A inside the Frattini subgroup of E and
# classes without
INFINITE_PLACE_SHAPES = (
    ((2, 2), (2,)),
    ((2, 2, 2), (2,)),
    ((2, 4), (4,)),
    ((2, 4), (2,)),
    ((4, 4), (2,)),
    ((2, 2), (4,)),
    ((2, 2), (2, 2)),
    ((4,), (2,)),
    ((2, 6), (2,)),
    ((4, 4), (4,)),
)


def admissible_pairs(gab: AbGroup, a: AbGroup):
    """Each (extension, H) over (Gab, A) that is an admissible pair: one
    extension per class of H^2(Gab, A), and each subgroup H of Gab."""
    els = list(gab.elements())
    # each proper subgroup of the shapes above is generated by two
    # elements, and H = Gab leaves no lift outside it
    subgroups = {subgroup_generated(gab, [x, y]) for x in els for y in els}
    subgroups = sorted(subgroups, key=lambda s: (len(s), sorted(s)))
    for ext in enumerate_central_extensions(gab, a):
        # a larger H leaves fewer lifts outside it, so no H that contains an
        # inadmissible one is admissible
        inadmissible = []
        for h in subgroups:
            if any(k < h for k in inadmissible):
                continue
            if is_admissible_pair(ext, h)[0]:
                yield ext, h
            else:
                inadmissible.append(h)


def test_infinite_place_holds_on_every_lift_survivor():
    # classify tests no condition at the infinite place, as the finite
    # primes decide it.  Survivors of the lift test, taken before the
    # counting (which raises on some of these pairs), on ten random fields
    # per admissible pair: each passes infinite_place_ok, and its f(c)
    # lies in Y_E
    pairs = [p for g, a in INFINITE_PLACE_SHAPES for p in admissible_pairs(AbGroup(g), AbGroup(a))]
    assert len(pairs) == 687
    pairs += [preset("C4_D4"), preset("H8_pair")]
    pool = [q for q in range(3, 1300) if is_prime(q)]
    rng = random.Random(3)
    survivors = signed = conjugated = 0
    for ext, h in pairs:
        gab = ext.gab
        tame = [q for q in pool if gab.order * ext.a.order % q]
        images = [g for g in gab.elements() if g not in h]
        made = 0
        while made < 10:
            drawn = rng.sample(tame, rng.randint(2, 4))
            kdata = BaseFieldData(h, tuple((q, rng.choice(images)) for q in drawn))
            try:
                kdata.validate(ext)
            except ValueError:
                # the images do not generate Gab/H, or |y| does not divide q - 1
                continue
            made += 1
            candidates = plan_of(ext, h, kdata).candidates
            if not candidates:
                continue
            qs = sorted(q for q, _ in kdata.primes)
            pairs = _lift_survivors(ext, h, shape_of(ext, kdata), _characters(gab.exponent, qs))
            for idx in survivor_indices(pairs):
                asg = RamAssignment(ext, tuple(zip(qs, map(getitem, candidates, idx))))
                fact = factorization_of(asg)
                assert infinite_place_ok(ext, fact), asg.entries
                fc = conjugation_image(ext, asg)
                assert fc in ext.y_set(), asg.entries
                survivors += 1
                signed += sign_image(ext, fact) != gab.zero()
                conjugated += fc != gab.zero()
    assert survivors > 10_000 and signed > 1000 and conjugated > 1000


def test_classify_c4_205(d4):
    ext, h = d4
    rep = classify(ext, h, c4_kdata(ext, h, 205))
    assert rep.exists
    assert len(rep.witnesses) == 2
    for w in rep.witnesses:
        assert w.count_per_class == 1
        assert w.classes == 1
        assert sorted(abs(d) for _, d in w.factorization) == [5, 41]
    # the two witnesses are the two labelings of the same split
    f0, f1 = (dict(w.factorization) for w in rep.witnesses)
    assert f0[(0, 1)] == f1[(1, 1)] and f0[(1, 1)] == f1[(0, 1)]


def test_classify_c4_negative_cases(d4):
    ext, h = d4
    assert not classify(ext, h, c4_kdata(ext, h, 65)).exists
    assert not classify(ext, h, c4_kdata(ext, h, 5 * 13)).exists
    # a single prime's image cannot generate C2 x C2 on its own
    assert not classify(ext, h, BaseFieldData(h, ((5, (0, 1)),))).exists


def test_classify_heisenberg_duality(heis3):
    ext, h = heis3
    for primes in ((7, 13, 43), (7, 13, 61), (13, 19, 31), (7, 13, 19)):
        rep = classify(ext, h, heis_kdata(h, primes))
        crit = heisenberg_criterion(3, *primes)
        assert rep.exists == crit.exists
        for w in rep.witnesses:
            assert w.count_per_class == 1
            assert w.classes == 2


def test_enumerate_assignments_deterministic(heis3):
    ext, h = heis3
    kdata = heis_kdata(h, (7, 13, 43))
    a1 = [a.entries for a in enumerate_assignments(ext, h, kdata)]
    a2 = [a.entries for a in enumerate_assignments(ext, h, kdata)]
    assert a1 == a2
    assert len(a1) == len(set(a1))
    # prime order in the input does not matter
    kdata_perm = BaseFieldData(h, tuple(reversed(kdata.primes)))
    a3 = [a.entries for a in enumerate_assignments(ext, h, kdata_perm)]
    assert a1 == a3


def test_assignments_generate_gab(heis3):
    ext, h = heis3
    for asg in enumerate_assignments(ext, h, heis_kdata(h, (7, 13, 43))):
        images = [y for _, y in asg.entries]
        assert len(subgroup_generated(ext.gab, images)) == ext.gab.order


def test_count_extensions_formula(d4, heis3):
    ext, h = d4
    for d in (205, 5 * 29 * 41, 5 * 13 * 29 * 41):
        omega = len(factorize(d))
        rep = classify(ext, h, c4_kdata(ext, h, d))
        for w in rep.witnesses:
            assert w.count_per_class == 2 ** (omega - 2)


def test_count_extensions_takes_any_sequence_of_orders(d4, heis3):
    ext, _ = d4
    assert count_extensions(ext, [2, 2]) == count_extensions(ext, (2, 2)) == 1
    assert count_extensions(ext, iter([2, 2, 2])) == 2
    ext, _ = heis3
    assert count_extensions(ext, [3, 3, 3]) == 1


def test_count_formula_raises_on_nongenerating(heis3):
    ext, _ = heis3
    # two primes with images of order 3, such as the collinear (0, 0, 1)
    # and (0, 0, 2), cannot be a classify witness: #A[3]^2 = 9 solutions
    # over the stabilizer order 1 times #Hom(C3^3, C3) = 27 is not integral
    with pytest.raises(ArithmeticError, match="^counting formula inconsistency: 9/27$"):
        count_extensions(ext, (3, 3))


def test_frobenius_literal_equals_direct_prime_exponent(heis3):
    ext, h = heis3
    rng = random.Random(7)
    primes_pool = [q for q in range(7, 2000) if all(q % k for k in range(2, q)) and q % 3 == 1]
    ye = sorted(y for y in ext.y_set() if y != ext.gab.zero())
    checked = 0
    while checked < 300:
        qs = rng.sample(primes_pool, 3)
        entries = tuple((q, rng.choice(ye)) for q in qs)
        asg = RamAssignment(ext, entries)
        for p, _ in asg.entries:
            assert frobenius_pairing_sum(ext, asg, p) == frobenius_pairing_sum_direct(
                ext, asg, p
            )
            checked += 1


def test_has_unramified_lift_reports_failing_primes(heis3):
    ext, h = heis3
    crit = heisenberg_criterion(3, 7, 13, 61)
    assert not crit.exists
    found_failing = False
    for asg in enumerate_assignments(ext, h, heis_kdata(h, (7, 13, 61))):
        ok, failing = has_unramified_lift(ext, asg)
        assert not ok
        assert failing
        found_failing = True
    assert found_failing


def test_report_json_shape(d4):
    ext, h = d4
    rep = classify(ext, h, c4_kdata(ext, h, 205))
    data = rep.to_json()
    assert set(data) == {"exists", "witnesses"}
    for w in data["witnesses"]:
        assert set(w) == {"assignment", "factorization", "count_per_class", "classes"}
        assert set(w["assignment"]) == {"5", "41"}
        assert all(isinstance(v, list) for v in w["assignment"].values())
        assert all("," in k for k in w["factorization"])
    json.dumps(data)


def validate_cases(d4, heis3):
    """(extension, H, primes, the message validate raises, primes with the
    same images that pass or None), for each message of validate, in the
    order it checks them."""
    ext4, h4 = d4
    ext3, h3 = heis3
    big = split_extension(AbGroup((1 << 17,)), AbGroup((2,)))
    y3, y3b = (0, 0, 1), (0, 0, 2)
    return [
        # the checks on (extension, H, images) come before any prime's
        (ext4, frozenset({(0, 0), (1, 0), (0, 1)}), ((2, (0, 1)),),
         "H is not a subgroup of Gab", None),
        (ext4, h4, (), "base field data needs at least one ramified prime", None),
        (ext4, h4, ((2, (0, 1)), (5, (0,)), (7, (0, 0, 0))),
         "element (0,) has wrong length for moduli (2, 2)", None),
        (big, frozenset({(0,)}), ((2, (1,)),), "group order 131072 exceeds bound 65536", None),
        (ext4, frozenset({(0, 0)}), ((2, (0, 1)), (5, (0, 1))),
         "inertia images do not generate Gab/H: K is too small", None),
        # an image in H adds nothing to H
        (ext4, h4, ((5, (1, 0)),), "inertia images do not generate Gab/H: K is too small", None),
        (ext4, frozenset({(0, 0), (0, 1)}), ((5, (0, 1)),),
         "inertia images do not generate Gab/H: K is too small", None),
        # the checks per prime, in the order of the primes
        (ext4, h4, ((2, (0, 1)),), "2 is not an odd prime", ((3, (0, 1)),)),
        (ext4, h4, ((5, (0, 1)), (9, (0, 1))), "9 is not an odd prime", ((5, (0, 1)), (13, (0, 1)))),
        (ext4, h4, ((5, (1, 0)), (9, (0, 1))), "prime 5 is unramified in K (image in H)", None),
        # an unreduced image is read reduced: (2, 0) is 0, in H
        (ext4, h4, ((5, (0, 1)), (13, (2, 0))), "prime 13 is unramified in K (image in H)", None),
        (ext4, h4, ((9, (0, 1)), (5, (1, 0))), "9 is not an odd prime", None),
        (ext3, h3, ((7, y3), (5, y3)), "inertia order 3 at 5 does not divide 5-1",
         ((7, y3), (13, y3))),
        (ext3, h3, ((2, y3), (5, y3)), "2 is not an odd prime", ((7, y3), (13, y3))),
        (ext3, h3, ((5, y3b), (2, y3)), "inertia order 3 at 5 does not divide 5-1",
         ((7, y3b), (13, y3))),
    ]


def test_basefield_validation(d4, heis3):
    for ext, h, primes, message, valid in validate_cases(d4, heis3):
        kdata = BaseFieldData(h, primes)
        # twice: a check that raises must leave no memo behind
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                kdata.validate(ext)
            assert str(exc.value) == message, primes
        if valid is not None:
            # the same H and images, validated without error first
            BaseFieldData(h, valid).validate(ext)
            with pytest.raises(ValueError) as exc:
                kdata.validate(ext)
            assert str(exc.value) == message, primes


def test_unreduced_images_classify_as_reduced(d4):
    # (0, 3) and (0, -1) are (0, 1) in C2 x C2, outside H: the report is
    # the one of the reduced image (validate_cases has (2, 0), which is 0)
    ext, h = d4
    expected = classify(ext, h, c4_kdata(ext, h, 205)).to_json()
    assert expected["exists"]
    for image in ((0, 3), (0, -1)):
        kdata = BaseFieldData(h, ((5, (0, 1)), (41, image)))
        assert classify(ext, h, kdata).to_json() == expected
        assert reference_report(ext, h, kdata) == expected


def test_unreduced_images_share_one_plan_and_one_survivors_entry(d4):
    # (0, 3), (0, -1) and (0, 1) are one element of C2 x C2: the plan and
    # the survivors are keyed on the reduced image, so the three base
    # fields build one plan and run one lift test
    ext, h = d4
    _plan.cache_clear()
    _lift_survivors.cache_clear()
    reports = [classify(ext, h, BaseFieldData(h, ((5, (0, 1)), (41, image)))).to_json()
               for image in ((0, 3), (0, -1), (0, 1))]
    assert reports[0]["exists"] and reports == [reports[0]] * 3
    assert _plan.cache_info().misses == 1
    assert _lift_survivors.cache_info()[:2] == (2, 1)


def test_classify_runs_the_base_field_preamble_once_per_pattern(monkeypatch, d4):
    # 200 C4_D4 and 200 H8_pair fields, interleaved, with random images
    # in the one coset outside H: the checks of validate that read only
    # (extension, H, distinct images) run once per such pattern
    ext4, h4 = d4
    ext8, h8 = preset("H8_pair", None)
    c4_ds = [d for d in range(-2999, 3000, 2) if d not in (-1, 1) and is_fundamental_discriminant(d)]
    h8_ds = [d for d in range(5, 2 * 10**4, 4)
             if is_fundamental_discriminant(d) and len(factorize(d)) >= 3]
    rng = random.Random(22)
    fields = []
    for d4_, d8_ in zip(c4_ds[:200], h8_ds[:200]):
        for ext, h, d in ((ext4, h4, d4_), (ext8, h8, d8_)):
            coset = [g for g in ext.gab.elements() if g not in h]
            fields.append((ext, h, BaseFieldData(
                h, tuple((pp.q, rng.choice(coset)) for pp in factorize(abs(d))))))
    assert len(fields) == 400
    expected = [reference_report(*f) for f in fields]
    patterns = {(id(ext), tuple(dict.fromkeys(g for _, g in kd.primes))) for ext, _, kd in fields}
    calls = []

    def counted(gab, gens):
        calls.append((gab, gens))
        return abelian.generates(gab, gens)

    monkeypatch.setattr(solver, "generates", counted)
    _image_orders.cache_clear()
    assert [classify(*f).to_json() for f in fields] == expected
    assert _image_orders.cache_info().misses == len(patterns) > 2
    # one generates call per pattern, none after it
    assert len(calls) == len(patterns)
    assert sum(bool(e["witnesses"]) for e in expected) > 20


def test_basefield_from_json(d4):
    ext, h = d4
    data = {
        "H": [[1, 0]],
        "primes": [{"q": 5, "image": [0, 1]}, {"q": 41, "image": [0, 1]}],
    }
    kdata = BaseFieldData.from_json(data, ext)
    assert kdata.h_sub == h
    assert kdata.primes == ((5, (0, 1)), (41, (0, 1)))


# --- classify against the reference path ----------------------------------


def reference_witnesses(ext, h, kdata) -> tuple:
    """classify's witnesses rebuilt from enumerate_assignments and
    has_unramified_lift, through the checking RamAssignment and
    factorization_of, counting each witness per factor d_y:
    prod_y #A[|y|]^omega(d_y) / (stabilizer order * #Hom(Gab, A))."""
    witnesses = []
    for asg in enumerate_assignments(ext, h, kdata):
        if not has_unramified_lift(ext, asg)[0]:
            continue
        fact = factorization_of(asg).factors
        count = reference_count(ext, asg.entries, fact)
        witnesses.append(Witness(asg.entries, fact, count, class_orbit_size(ext)))
    witnesses.sort(key=lambda w: w.assignment)
    return tuple(witnesses)


def reference_report(ext, h, kdata) -> dict:
    witnesses = reference_witnesses(ext, h, kdata)
    return Report(bool(witnesses), witnesses).to_json()


def reference_count(ext, assignment, factors) -> int:
    """The count of a witness with the given assignment ((q, y_q), ...) and
    factors ((y, d_y), ...).  d_y is the product of (q*)^(|y| - 1) over the
    primes q with y_q = y, so omega(d_y) is their number, read off the
    assignment without factoring d_y, which may pass the bound of
    arith.factorize."""
    gab, a = ext.gab, ext.a
    numerator = prod(
        torsion_count(a, elem_order(gab, y)) ** sum(yq == y for _, yq in assignment)
        for y, _ in factors
    )
    denominator = aut_stabilizer_order(ext) * hom_count(gab, a)
    count, rest = divmod(numerator, denominator)
    if rest or count <= 0:
        # classify's error, so that the random differential test compares it
        raise ArithmeticError(f"counting formula inconsistency: {numerator}/{denominator}")
    return count


def assert_matches_reference(ext, h, kdata) -> dict:
    rep = classify(ext, h, kdata)
    expected = reference_witnesses(ext, h, kdata)
    # dataclass equality: classify builds its witnesses as plain tuples,
    # the reference through the checking constructors
    assert rep.witnesses == expected, kdata.primes
    entries = [w.assignment for w in rep.witnesses]
    assert entries == sorted(entries), kdata.primes
    got = rep.to_json()
    assert got == Report(bool(expected), expected).to_json(), kdata.primes
    return got


def test_classify_matches_reference_heisenberg3(heis3):
    ext, h = heis3
    pool3 = [p for p in range(7, 500) if is_prime(p) and p % 3 == 1]
    verdicts = set()
    for triple in itertools.combinations(pool3[:6], 3):
        verdicts.add(assert_matches_reference(ext, h, heis_kdata(h, triple))["exists"])
    assert verdicts == {True, False}


def test_classify_matches_reference_heisenberg5():
    ext, h = preset("Heisenberg", 5)
    pool5 = [p for p in range(11, 200) if is_prime(p) and p % 5 == 1]
    verdicts = set()
    for triple in itertools.islice(itertools.combinations(pool5[:6], 3), 10):
        verdicts.add(assert_matches_reference(ext, h, heis_kdata(h, triple))["exists"])
    assert verdicts == {True, False}
    # the largest report of the benchmark's pool (the others have 0 or 480)
    got = assert_matches_reference(ext, h, heis_kdata(h, (2591, 4261, 7331)))
    assert len(got["witnesses"]) == 2400


def test_classify_computes_no_rank_per_solution(monkeypatch):
    # the benchmark's 2,400-witness triple from cold memos: the survivors
    # are told apart by their masks, so only validate's generates call
    # (one rank per layer of Gab) may reach the elimination
    ext, h = preset("Heisenberg", 5)
    kdata = heis_kdata(h, (2591, 4261, 7331))
    calls = []

    def counted(rows, p):
        calls.append(p)
        return rank_mod(rows, p)

    rank_mod = abelian._rank_mod
    monkeypatch.setattr(abelian, "_rank_mod", counted)
    for memo in (_image_orders, _plan, _lift_survivors):
        memo.cache_clear()
    rep = classify(ext, h, kdata)
    assert len(rep.witnesses) == 2400
    assert len(calls) <= len(abelian._prime_layers(ext.gab)) == 1
    assert assert_matches_reference(ext, h, kdata)["exists"]


def test_classify_with_fewer_primes_than_a_layer_builds_no_mask(monkeypatch):
    # Gab = C2^4 needs four generators; H has rank 1 and three primes
    # ramify, so no choice generates Gab and no mask or table is built
    ext, _ = preset("split", ((2, 2, 2, 2), (3,)))
    h = subgroup_generated(ext.gab, [(0, 0, 0, 1)])
    kdata = BaseFieldData(h, ((5, (1, 0, 0, 0)), (7, (0, 1, 0, 0)), (11, (0, 0, 1, 0))))

    def refuse(*args):
        raise AssertionError("mask built")

    monkeypatch.setattr(solver, "maximal_subgroup_masks", refuse)
    monkeypatch.setattr(solver, "_pairing_rows", refuse)
    _plan.cache_clear()
    _lift_survivors.cache_clear()
    plan = plan_of(ext, h, kdata)
    assert [len(c) for c in plan.candidates] == [2, 2, 2]
    assert plan.masks is None and plan.pairing is None and plan.classes is None
    assert classify(ext, h, kdata).to_json() == {"exists": False, "witnesses": []}
    assert reference_report(ext, h, kdata) == {"exists": False, "witnesses": []}


def test_classify_matches_reference_c4(d4):
    ext, h = d4
    n = 0
    for d in range(-1999, 2000, 2):
        if d in (-1, 1) or not is_fundamental_discriminant(d):
            continue
        assert_matches_reference(ext, h, c4_kdata(ext, h, d))
        n += 1
    assert n > 500


def test_classify_matches_reference_h8():
    ext, h = preset("H8_pair", None)
    witnesses = 0
    for d in (105, 165, 1105, 1365, 4305, 5005, 21945):
        assert len(factorize(d)) >= 3 and is_fundamental_discriminant(d)
        kdata = h8_kdata(ext, h, d)
        witnesses += len(assert_matches_reference(ext, h, kdata)["witnesses"])
    assert witnesses > 0


def test_quadratic_presets_need_no_primitive_root(monkeypatch, d4):
    # every image of C4_D4 and H8_pair has order 2, so each character is
    # Euler's criterion: classify runs from cold character caches with
    # primitive_root refusing
    ext4, h4 = d4
    ext8, h8 = preset("H8_pair", None)
    c4_ds = [d for d in range(-1999, 2000, 2) if d not in (-1, 1) and is_fundamental_discriminant(d)]
    fields = [(ext4, h4, c4_kdata(ext4, h4, d)) for d in c4_ds[::40]]
    fields += [(ext8, h8, h8_kdata(ext8, h8, d)) for d in (105, 1105, 1365, 5005, 21945)]

    def refuse(q):
        raise AssertionError(f"primitive root of {q} computed")

    monkeypatch.setattr(arith, "primitive_root", refuse)
    arith._power_residue_char.cache_clear()
    arith.power_residue_char.cache_clear()
    reports = [assert_matches_reference(*f) for f in fields]
    assert len(fields) > 12 and any(r["witnesses"] for r in reports)


def test_cohomologous_tables_share_the_memos(monkeypatch, d4):
    # the D4 multiplication table is cohomologous to the canonical C4_D4
    # cocycle but not equal to it; read through from_json it is the same
    # value, so its classify calls hit every memo the preset filled, and
    # Aut(A) is not enumerated again
    ext, h = d4
    table = d4_table()
    assert table[((0, 1), (1, 0))] == (1,) and ext.c((0, 1), (1, 0)) == (0,)
    els = list(ext.gab.elements())
    loaded = CentralExtension.from_json({
        "Gab": [2, 2], "A": [2],
        "cocycle": [[list(table.get((g, k), (0,))) for k in els] for g in els],
    })
    assert loaded == ext and hash(loaded) == hash(ext) and loaded is not ext
    ds = [d for d in range(-2999, 3000, 2) if d not in (-1, 1) and is_fundamental_discriminant(d)]
    _aut_counts.cache_clear()
    expected = [classify(ext, h, c4_kdata(ext, h, d)).to_json() for d in ds[:50]]
    assert sum(r["exists"] for r in expected) > 10
    calls = []

    def counted(a):
        calls.append(a)
        return enumerate_automorphisms(a)

    monkeypatch.setattr(cocycle, "enumerate_automorphisms", counted)
    memos = (_image_orders, _plan, _lift_survivors)
    before = [memo.cache_info() for memo in memos]
    assert [classify(loaded, h, c4_kdata(loaded, h, d)).to_json() for d in ds[:50]] == expected
    for memo, info in zip(memos, before):
        assert memo.cache_info().misses == info.misses
        assert memo.cache_info().hits >= info.hits + 50
    assert calls == []


def test_classify_memo_matches_reference_cold_and_warm(d4):
    ext4, h4 = d4
    ext8, h8 = preset("H8_pair", None)
    fields = [
        (ext4, h4, c4_kdata(ext4, h4, d))
        for d in range(-2999, 3000, 2)
        if d not in (-1, 1) and is_fundamental_discriminant(d)
    ]
    fields += [
        (ext8, h8, h8_kdata(ext8, h8, d))
        for d in range(5, 2 * 10**4, 4)
        if is_fundamental_discriminant(d) and len(factorize(d)) >= 3
    ]
    expected = [reference_report(*f) for f in fields]
    _lift_survivors.cache_clear()
    _plan.cache_clear()
    assert [classify(*f).to_json() for f in fields] == expected
    cold = _lift_survivors.cache_info()
    # most base fields repeat the candidates and characters of an earlier one
    assert cold.hits > 0 and cold.misses < cold.hits
    assert [classify(*f).to_json() for f in fields] == expected
    warm = _lift_survivors.cache_info()
    assert warm.misses == cold.misses and warm.hits == cold.hits + cold.misses + cold.hits
    assert sum(bool(e["witnesses"]) for e in expected) > 100


def test_classify_memo_hit_names_its_own_primes(d4):
    # 5 * 41 and 5 * 61 share shape and characters: every quadratic
    # character among their primes is trivial
    ext, h = d4
    keys, reports = [], []
    for d in (205, 305):
        kdata = c4_kdata(ext, h, d)
        qs = sorted(q for q, _ in kdata.primes)
        keys.append((shape_of(ext, kdata), _characters(ext.gab.exponent, qs)))
        reports.append(classify(ext, h, kdata))
    assert keys[0] == keys[1]
    hits = _lift_survivors.cache_info().hits
    assert classify(ext, h, c4_kdata(ext, h, 305)).to_json() == reports[1].to_json()
    assert _lift_survivors.cache_info().hits == hits + 1
    for rep, primes in zip(reports, ((5, 41), (5, 61))):
        assert len(rep.witnesses) == 2
        for w in rep.witnesses:
            assert tuple(q for q, _ in w.assignment) == primes
            assert sorted(abs(d) for _, d in w.factorization) == list(primes)


@pytest.mark.parametrize(
    "run",
    [classify, lambda ext, h, kdata: list(enumerate_assignments(ext, h, kdata))],
    ids=["classify", "enumerate_assignments"],
)
def test_h_must_match_the_base_field_data(d4, run):
    ext, h = d4
    kdata = c4_kdata(ext, h, 205)
    # not a subgroup, and not the H of kdata
    with pytest.raises(ValueError, match="^H does not match the base field data$"):
        run(ext, frozenset({(0, 0), (1, 1), (0, 1)}), kdata)
    with pytest.raises(ValueError, match="^H does not match the base field data$"):
        run(ext, frozenset({(0, 0)}), kdata)


def test_plain_set_h_is_accepted(d4):
    ext, h = d4
    kdata = c4_kdata(ext, h, 205)
    expected = classify(ext, h, kdata).to_json()
    assert expected["exists"]
    as_set = BaseFieldData(set(h), kdata.primes)
    for hs, kd in ((set(h), kdata), (h, as_set), (set(h), as_set)):
        assert classify(ext, hs, kd).to_json() == expected
        assert [a.entries for a in enumerate_assignments(ext, hs, kd)] == [
            a.entries for a in enumerate_assignments(ext, h, kdata)
        ]


def composite_exponent_extension():
    """Gab = C4 x C4, A = C4, c(g, h) = g_0 h_1: exp(A) = 4 is composite, so
    the literal mod-4 characters can differ from the direct ones."""
    gab, a = AbGroup((4, 4)), AbGroup((4,))
    table = {
        (g, h): (g[0] * h[1] % 4,)
        for g in gab.elements()
        for h in gab.elements()
        if g[0] * h[1] % 4
    }
    check_cocycle(gab, a, table)
    return CentralExtension.from_table(gab, a, table), subgroup_generated(gab, [(2, 2)])


# three primes with images (1, 0), (0, 1), (2, 0) over
# composite_exponent_extension, and classify's warnings on them.  The prime
# 3 mod 4 carries an order-2 image: its literal character mod 4 is twice
# the quadratic one, so it is even where the direct one is odd
COMPOSITE_MISMATCHES = {
    (293, 73, 59): ["character scaling mismatch at p=73: q=59 |y|=2 literal 2 vs direct 1"],
    (277, 241, 211): [],
    (157, 233, 311): ["character scaling mismatch at p=233: q=311 |y|=2 literal 2 vs direct 1"],
}


def composite_kdata(h, primes):
    return BaseFieldData(h, tuple(zip(primes, ((1, 0), (0, 1), (2, 0)))))


def test_composite_exponent_data_files():
    # the files CI and test_cli classify
    ext, h = composite_exponent_extension()
    data = Path(__file__).parent / "data"
    with open(data / "composite_exponent_extension.json") as fh:
        assert json.load(fh) == ext.to_json()
    with open(data / "composite_exponent_kdata.json") as fh:
        assert BaseFieldData.from_json(json.load(fh), ext) == composite_kdata(h, (293, 73, 59))


def mismatch_primes(messages) -> set:
    """The p of each "character scaling mismatch at p=..." message."""
    prefix = "character scaling mismatch at p="
    assert all(m.startswith(prefix) for m in messages), messages
    return {int(m[len(prefix):].partition(":")[0]) for m in messages}


def logged(caplog, run, *args) -> list:
    """The messages that run(*args) logs at WARNING or above."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lemfact"):
        run(*args)
    return [r.getMessage() for r in caplog.records]


@pytest.mark.parametrize(
    "primes, mismatches",
    [((293, 73, 59), True), ((277, 241, 211), False), ((157, 233, 311), True)],
)
def test_classify_matches_reference_composite_exponent(caplog, primes, mismatches):
    ext, h = composite_exponent_extension()
    kdata = composite_kdata(h, primes)
    from_classify = logged(caplog, classify, ext, h, kdata)
    assert from_classify == COMPOSITE_MISMATCHES[primes]
    assert bool(from_classify) == mismatches
    # the reference logs once per generating choice and p, classify once
    # per character
    from_reference = logged(caplog, reference_witnesses, ext, h, kdata)
    assert mismatch_primes(from_classify) == mismatch_primes(from_reference)
    assert_matches_reference(ext, h, kdata)


def composite_exponent_fields():
    """(extension, H, base field data) of 400 random base fields, 40 for
    each of ten admissible pairs whose inertia images can have order 4:
    over Gab = C4 x C4 with H = <(2, 2)> or 0, the cocycle g_0 h_1 with
    values in A = C4, C2 and C2 x C4 (times (1, 1)); over Gab = C2 x C4
    with H = <(1, 0)> or 0, each class of H^2(Gab, C4) that makes an
    admissible pair.  Each field has three primes below 128, so that the
    reference can factor every d_y.  Not two: over those (C2 x C4, C4)
    classes, many two-prime witnesses have the fractional count 8/16,
    on which classify and the reference both raise."""
    c4sq, c2c4 = AbGroup((4, 4)), AbGroup((2, 4))
    ext, h = composite_exponent_extension()
    pairs = [(ext, h), (ext, frozenset({(0, 0)}))]
    for a, value in ((AbGroup((2,)), (1,)), (AbGroup((2, 4)), (1, 1))):
        e = CentralExtension(c4sq, a, [value], [a.zero()] * 2)
        pairs += [(e, h), (e, frozenset({(0, 0)}))]
    for e in enumerate_central_extensions(c2c4, AbGroup((4,))):
        for hs in (subgroup_generated(c2c4, [(1, 0)]), frozenset({(0, 0)})):
            if is_admissible_pair(e, hs)[0]:
                pairs.append((e, hs))
    assert len(pairs) == 10
    pool = [q for q in range(3, 128) if is_prime(q)]
    rng = random.Random(2017)
    for e, hs in pairs:
        images = [g for g in e.gab.elements() if g not in hs]
        made = 0
        while made < 40:
            kdata = BaseFieldData(hs, tuple((q, rng.choice(images)) for q in rng.sample(pool, 3)))
            try:
                kdata.validate(e)
            except ValueError:
                # the images do not generate Gab/H, or |y| does not divide q - 1
                continue
            made += 1
            yield e, hs, kdata


def test_classify_matches_reference_composite_exponent_sweep(caplog):
    fields = flagged = with_witnesses = 0
    for ext, h, kdata in composite_exponent_fields():
        from_classify = mismatch_primes(logged(caplog, classify, ext, h, kdata))
        from_reference = mismatch_primes(logged(caplog, reference_witnesses, ext, h, kdata))
        # every p the reference flags reads a character that differs
        assert from_classify >= from_reference, kdata.primes
        with_witnesses += assert_matches_reference(ext, h, kdata)["exists"]
        flagged += bool(from_reference)
        fields += 1
    assert fields == 400
    assert flagged > 10 and with_witnesses > 100


def test_classify_decides_without_the_reference(monkeypatch):
    ext, h = composite_exponent_extension()
    fields = [(ext, h, composite_kdata(h, primes)) for primes in COMPOSITE_MISMATCHES]
    fields += composite_exponent_fields()
    expected = [reference_report(*f) for f in fields]

    def refuse(*args, **kwargs):
        raise AssertionError("classify ran the per-assignment reference")

    monkeypatch.setattr(solver.RamAssignment, "__init__", refuse)
    # solved here, not read from an earlier test's memo
    _lift_survivors.cache_clear()
    assert [classify(*f).to_json() for f in fields] == expected


# the shapes the random differential test draws (Gab, A) from: Gab among
# (2, 4), (3, 3), (9,), (2, 2, 2), and (2, 6) and (6,), whose maximal
# subgroups have index 2 and 3, so their masks span two prime layers; A
# among (2,), (4,) and (3,), where some class makes an admissible pair; and
# its primes: each prime gets one of the first ones 1 mod the order of its
# image, or a wild or duplicated one
DIFFERENTIAL_SHAPES = [((2, 4), (2,)), ((2, 4), (4,)), ((3, 3), (3,)), ((9,), (3,)),
                       ((2, 2, 2), (2,)), ((2, 2, 2), (4,)), ((2, 6), (2,)), ((6,), (3,))]
DIFFERENTIAL_PRIMES = [q for q in range(5, 400) if is_prime(q)]


@lru_cache(maxsize=None)
def differential_classes(gab_moduli, a_moduli) -> tuple:
    """Each class of H^2(Gab, A) that makes an admissible pair with some H,
    in enumeration order, with those subgroups H."""
    gab = AbGroup(gab_moduli)
    classes = [
        (e, [h for h in subgroups(gab) if is_admissible_pair(e, h)[0]])
        for e in enumerate_central_extensions(gab, AbGroup(a_moduli))
    ]
    return tuple((e, hs) for e, hs in classes if hs)


def outcome(run):
    """run(), or the type and message of the ValueError or ArithmeticError
    it raises: the errors of classify on its input and of the counts."""
    try:
        return run()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# the caplog fixture is cleared before each run (logged); a profile loaded
# with --hypothesis-profile (tests/conftest.py) can ask for more examples
@given(st.data())
@settings(max_examples=max(1000, settings.default.max_examples), derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_classify_matches_reference_on_random_fields(caplog, data):
    # at most |H|^4 = 1,296 choices per field: neither the bound on the
    # assignments nor the one on the lift-test prefixes is reached
    gab_moduli, a_moduli = data.draw(st.sampled_from(DIFFERENTIAL_SHAPES))
    ext, hs = data.draw(st.sampled_from(differential_classes(gab_moduli, a_moduli)))
    h = data.draw(st.sampled_from(hs))
    gab = ext.gab
    outside = [g for g in gab.elements() if g not in h]
    n = data.draw(st.integers(1, 4))
    # images drawn from the few elements outside H repeat, within a coset
    # of H and across cosets
    images = data.draw(st.lists(st.sampled_from(outside), min_size=n, max_size=n))
    qs = []
    for y in images:
        pool = [q for q in DIFFERENTIAL_PRIMES if (q - 1) % elem_order(gab, y) == 0 and q not in qs]
        qs.append(data.draw(st.sampled_from(pool[:8])))
    if data.draw(st.integers(0, 3)) == 0:
        # a wild prime, dividing 2 |Gab| |A|, or a prime given twice
        wild = [q for q in (2, 3) if 2 * gab.order * ext.a.order % q == 0]
        qs[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from(wild + qs))
    kdata = BaseFieldData(h, tuple(zip(qs, images)))
    runs = []
    classify_log = logged(caplog, lambda: runs.append(outcome(
        lambda: classify(ext, h, kdata).to_json())))
    reference_log = logged(caplog, lambda: runs.append(outcome(
        lambda: reference_report(ext, h, kdata))))
    assert runs[0] == runs[1], (ext.gab, ext.a, ext.pairs, ext.powers, sorted(h), kdata.primes)
    # the reference logs per generating choice that reaches the lift test,
    # classify per character that differs for the orders at q
    assert mismatch_primes(classify_log) >= mismatch_primes(reference_log)


def test_reference_counts_factors_past_the_discriminant_bound():
    # 19 and 37 at image (1,) of C9: d_(1,) = (19 * 37)^8 passes 2^63, and
    # both paths raise the counting error of the pair (C9, C3) with H = 0
    ext, hs = differential_classes((9,), (3,))[0]
    h = next(h for h in hs if len(h) == 1)
    kdata = BaseFieldData(h, ((19, (1,)), (37, (1,))))
    assert (19 * 37) ** 8 > arith.max_disc()
    expected = (ArithmeticError, "counting formula inconsistency: 9/6")
    assert outcome(lambda: classify(ext, h, kdata)) == expected
    assert outcome(lambda: reference_report(ext, h, kdata)) == expected


def mixed_orders_case():
    """The extension and base field of tests/data/mixed_orders_*.json: the
    class of composite_exponent_extension with H = <(1, 0)>, image (0, 2)
    at 53, 17 and 23, and (0, 1) at 149.  53 and 17 are 1 mod 4, so their
    candidates have orders 2 and 4; 23 is 3 mod 4, so its candidates have
    order 2 and their literal characters mod 4 are twice the direct ones."""
    ext, _ = composite_exponent_extension()
    h = subgroup_generated(ext.gab, [(1, 0)])
    images = ((0, 2), (0, 2), (0, 2), (0, 1))
    return ext, h, BaseFieldData(h, tuple(zip((53, 17, 23, 149), images)))


def test_mixed_orders_data_files():
    # the files CI and test_cli classify; the extension file holds the
    # cocycle -g_1 h_0, cohomologous to g_0 h_1 but not equal to it
    ext, h, kdata = mixed_orders_case()
    data = Path(__file__).parent / "data"
    with open(data / "mixed_orders_extension.json") as fh:
        loaded = json.load(fh)
    assert loaded != ext.to_json()
    assert CentralExtension.from_json(loaded) == ext
    with open(data / "mixed_orders_kdata.json") as fh:
        assert BaseFieldData.from_json(json.load(fh), ext) == kdata
    plan = plan_of(ext, h, kdata)
    assert plan.candidates == assignment_space(ext, h, kdata)[1]
    assert [sorted(set(ns)) for ns in plan.orders] == [[2, 4], [2], [2, 4], [4]]
    # a witness with an order-2 image at a prime whose candidates have
    # both orders
    rep = assert_matches_reference(ext, h, kdata)
    assert any(w["assignment"]["17"] == [2, 2] for w in rep["witnesses"])


def test_cold_classify_makes_one_character_call_per_pair_of_primes(monkeypatch):
    # from cold memos, on two primes whose candidates have orders 2 and 4
    # and two whose candidates have one order: n primes make n(n - 1)
    # direct calls, each keyed on the pair and gcd(q - 1, exp(Gab)) alone
    ext, h, kdata = mixed_orders_case()
    calls = []

    def counted(*args):
        calls.append(args)
        return arith._power_residue_char(*args)

    monkeypatch.setattr(solver, "_power_residue_char", counted)
    # exp(A) = 4 is composite: the mismatch log reads literal characters
    monkeypatch.setattr(solver, "_log_character_mismatches", lambda *args: None)
    for memo in (arith._power_residue_char, _image_orders, _plan, _lift_survivors):
        memo.cache_clear()
    assert classify(ext, h, kdata).exists
    qs = sorted(q for q, _ in kdata.primes)
    assert calls == [(p, q, 1, gcd(q - 1, 4)) for p in qs for q in qs if q != p]
    assert len(calls) == 4 * 3


def mixed_orders_fields():
    """(extension, H, base field data) of 300 random base fields over
    Gab = C4 x C4 with H = <(1, 0)>, spread over every admissible class
    with A = C4 and with A = C2: image (0, 2) at a prime 1 mod 4, where the
    candidates can have orders 2 and 4, and (0, 1) at two more.
    The primes lie below 128, so that the reference can factor every d_y."""
    gab = AbGroup((4, 4))
    h = subgroup_generated(gab, [(1, 0)])
    classes = [
        e
        for a in (AbGroup((4,)), AbGroup((2,)))
        for e in enumerate_central_extensions(gab, a)
        if is_admissible_pair(e, h)[0]
    ]
    pool = [q for q in range(5, 128) if is_prime(q) and q % 4 == 1]
    rng = random.Random(25)
    for i in range(300):
        ext = classes[i % len(classes)]
        images = ((0, 2), (0, 1), (0, 1))
        yield ext, h, BaseFieldData(h, tuple(zip(rng.sample(pool, 3), images)))


def test_classify_matches_reference_on_mixed_candidate_orders():
    two_orders = with_witnesses = 0
    for ext, h, kdata in mixed_orders_fields():
        two_orders += any(len(set(ns)) == 2 for ns in plan_of(ext, h, kdata).orders)
        with_witnesses += assert_matches_reference(ext, h, kdata)["exists"]
    assert two_orders > 200 and with_witnesses > 80


def test_direct_character_is_the_pair_character_mod_the_order():
    # _power_residue_char(p, q, n - 1, n), the character of p at q^(n-1)
    # mod n, is L(p, q) = the discrete log of p mod q, read mod any
    # multiple m of n dividing q - 1
    rng = random.Random(2025)
    pool = [q for q in range(3, 2000) if is_prime(q)]
    checked = 0
    for _ in range(400):
        p, q = rng.sample(pool, 2)
        divisors = [n for n in range(2, 13) if (q - 1) % n == 0]
        if not divisors:
            continue
        n = rng.choice(divisors)
        m = n * rng.choice([k for k in range(1, 13) if (q - 1) % (n * k) == 0])
        char = arith._power_residue_char.__wrapped__(p, q, 1, m)
        assert arith._power_residue_char.__wrapped__(p, q, n - 1, n) == char % n, (p, q, n, m)
        checked += 1
    assert checked > 300


def test_classify_logs_nothing_for_a_prime_exponent(caplog, monkeypatch, d4, heis3):
    heis5 = preset("Heisenberg", 5)
    h8 = preset("H8_pair", None)
    # images of order 9 over A = C3 x C3
    gab9, a9 = AbGroup((9, 9)), AbGroup((3, 3))
    ext9 = CentralExtension(gab9, a9, [(1, 2)], [a9.zero()] * 2)
    h9 = subgroup_generated(gab9, [(1, 0)])
    cases = [
        (*heis3, heis_kdata(heis3[1], (7, 13, 43, 61))),
        (*heis5, heis_kdata(heis5[1], (11, 31, 41))),
        (*d4, c4_kdata(*d4, 205)),
        (*d4, c4_kdata(*d4, -1155)),
        (*h8, h8_kdata(*h8, 21945)),
        (ext9, h9, BaseFieldData(h9, tuple((q, (0, 1)) for q in (19, 37, 73)))),
    ]
    calls = []

    def counted(*args):
        calls.append(args)
        return arith._power_residue_char(*args)

    monkeypatch.setattr(solver, "_power_residue_char", counted)
    for ext, h, kdata in cases:
        calls.clear()
        assert logged(caplog, classify, ext, h, kdata) == []
        # the direct characters only, no literal one: one per ordered pair
        # of primes, whatever the candidates
        qs = sorted(q for q, _ in kdata.primes)
        e = ext.gab.exponent
        assert calls == [(p, q, 1, gcd(q - 1, e)) for p in qs for q in qs if q != p]


def test_classify_raises_as_reference_on_bad_primes(heis3):
    split, _ = preset("split", ((6,), (3,)))
    # 3 divides |Gab| * |A|; its order-2 image passes the base-field checks
    wild = BaseFieldData(frozenset({(0,)}), ((3, (3,)), (7, (2,))))
    ext, h = heis3
    dup = BaseFieldData(h, ((7, (0, 0, 1)), (7, (0, 0, 2)), (13, (0, 0, 1))))
    cases = (
        (split, wild.h_sub, wild, "prime 3 is not tame/odd"),
        (ext, h, dup, "duplicate prime in assignment"),
    )
    for e, hs, kdata, message in cases:
        for run in (classify, reference_report):
            with pytest.raises(ValueError, match=message):
                run(e, hs, kdata)


def test_classify_without_generating_choice_ignores_bad_primes(heis3):
    # no choice generates Gab, so no RamAssignment is built: no error,
    # no witness, as in the reference
    split, _ = preset("split", ((2, 2), (7,)))
    # 7 divides |A|; one image cannot generate C2 x C2
    wild = BaseFieldData(frozenset({(0, 0), (1, 0)}), ((7, (0, 1)),))
    ext, h = heis3
    dup = BaseFieldData(h, ((7, (0, 0, 1)), (7, (0, 0, 2))))
    for e, hs, kdata in ((split, wild.h_sub, wild), (ext, h, dup)):
        assert classify(e, hs, kdata).to_json() == {"exists": False, "witnesses": []}
        assert reference_report(e, hs, kdata) == {"exists": False, "witnesses": []}


def test_classify_ignores_bad_primes_when_the_masks_find_no_generating_choice():
    # n >= min_generators(Gab) primes, so the plan holds masks, but Y_E or
    # the order filter removes every candidate that would generate Gab:
    # the kernel finds no generating choice, so no error and no witness,
    # as in the reference
    d4_ext, _ = preset("C4_D4")
    # Y_E leaves out (1, 0), so the coset (0, 1) + <(1, 1)> keeps (0, 1)
    # alone; 5 is duplicated
    h_d4 = frozenset({(0, 0), (1, 1)})
    dup = BaseFieldData(h_d4, ((5, (0, 1)), (5, (0, 1))))
    # D4 on the first two coordinates of C2 x C2 x C3, A = C2: the prime 3
    # divides |Gab|; Y_E leaves out (1, 0, 0) and (1, 0, 1)
    gab, a = AbGroup((2, 2, 3)), AbGroup((2,))
    d4c3 = CentralExtension(gab, a, [(1,), (0,), (0,)], [(1,), (0,), (0,)])
    h_c3 = frozenset({(0, 0, 0), (1, 1, 0)})
    wild_ye = BaseFieldData(h_c3, ((3, (0, 1, 0)), (7, (0, 1, 1))))
    # C2 x C4 split by C3: 3 and 7 are 3 mod 4, so the candidates of order
    # 4, (0, 1) and (0, 3), go, and (1, 0), (1, 2) span one line mod 2
    split, _ = preset("split", ((2, 4), (3,)))
    h_c4 = subgroup_generated(split.gab, [(1, 1)])
    wild_order = BaseFieldData(h_c4, ((3, (1, 0)), (7, (1, 0))))
    cases = ((d4_ext, h_d4, dup), (d4c3, h_c3, wild_ye), (split, h_c4, wild_order))
    for ext, h, kdata in cases:
        assert len(kdata.primes) >= abelian.min_generators(ext.gab)
        plan = plan_of(ext, h, kdata)
        assert plan.masks is not None
        assert plan.candidates == assignment_space(ext, h, kdata)[1]
        # unfiltered, the cosets hold a choice that generates Gab
        cosets = [{ext.gab.add(y, x) for x in h} for _, y in sorted(kdata.primes)]
        assert any(generating(ext.gab, c) for c in itertools.product(*cosets))
        assert classify(ext, h, kdata).to_json() == {"exists": False, "witnesses": []}
        assert reference_report(ext, h, kdata) == {"exists": False, "witnesses": []}


# four primes = 1 mod 3 and their number of classify witnesses
HEIS3_QUADRUPLES = {(7, 13, 19, 31): 96, (7, 13, 31, 61): 0, (7, 13, 43, 61): 192}


@pytest.mark.parametrize("primes", HEIS3_QUADRUPLES)
def test_classify_matches_reference_heisenberg3_four_primes(heis3, primes):
    ext, h = heis3
    got = assert_matches_reference(ext, h, heis_kdata(h, primes))
    assert len(got["witnesses"]) == HEIS3_QUADRUPLES[primes]
    # the counting formula gives ell^(4-3) solutions per class
    assert all(w["count_per_class"] == 3 and w["classes"] == 2 for w in got["witnesses"])


def kernel_choices(ext, h, kdata, masks=True) -> list:
    """The choices _lift_solutions returns on the plan of the base field,
    as images: with the plan's maximal-subgroup masks, or with all-zero
    masks when masks is False.  A plan without tables has fewer primes
    than min_generators(Gab), so no choice generates; with all-zero
    masks it gets its tables here."""
    plan = plan_of(ext, h, kdata)
    cands = plan.candidates
    if masks and plan.masks is None:
        return []
    if not masks:
        pairing, classes = _tables(ext, cands, plan.width)
        plan = plan._replace(masks=tuple((0,) * len(c) for c in cands), pairing=pairing,
                             classes=classes)
    qs = sorted(q for q, _ in kdata.primes)
    found = _lift_solutions(ext, plan, _characters(ext.gab.exponent, qs))
    return [tuple(map(getitem, cands, idx)) for idx in survivor_indices(found)]


def reference_choices(ext, primes, candidates) -> list:
    """The choices, in lexicographic order, that pass the per-assignment
    lift test, generating Gab or not."""
    return [
        c
        for c in itertools.product(*candidates)
        if has_unramified_lift(ext, RamAssignment(ext, tuple(zip(primes, c))))[0]
    ]


@pytest.mark.parametrize("primes", HEIS3_QUADRUPLES)
def test_lift_solutions_match_reference_on_every_choice(heis3, primes):
    # every choice, generating or not: 9^4 of them
    ext, h = heis3
    kdata = heis_kdata(h, primes)
    candidates = assignment_space(ext, h, kdata)[1]
    assert prod(map(len, candidates)) == 9**4
    expected = reference_choices(ext, primes, candidates)
    assert expected
    assert kernel_choices(ext, h, kdata, masks=False) == expected
    survivors = [c for c in expected if generating(ext.gab, c)]
    assert len(survivors) == HEIS3_QUADRUPLES[primes]
    assert kernel_choices(ext, h, kdata) == survivors


def test_lift_solutions_two_coordinate_a_with_order_9_images():
    # A = C3 x C3 packs two coordinates into one integer; the images have
    # order 9 > exp(A), so the characters are taken mod 9
    gab, a = AbGroup((9, 9)), AbGroup((3, 3))
    ext = CentralExtension(gab, a, [(1, 2)], [a.zero()] * 2)
    h = subgroup_generated(gab, [(1, 0)])
    passing = generated = 0
    # no choice of the first three generates Gab; 162 of the fourth do
    for primes in ((19, 37, 73), (37, 109, 199), (73, 163, 271), (19, 109, 181)):
        kdata = BaseFieldData(h, tuple((q, (0, 1)) for q in primes))
        candidates = assignment_space(ext, h, kdata)[1]
        expected = reference_choices(ext, primes, candidates)
        assert kernel_choices(ext, h, kdata, masks=False) == expected
        survivors = [c for c in expected if generating(gab, c)]
        assert kernel_choices(ext, h, kdata) == survivors
        passing += len(expected)
        generated += len(survivors)
    assert 0 < generated < passing < 4 * 9**3


@pytest.mark.parametrize("gab,a", H2_PAIRS, ids=lambda g: "x".join(map(str, g.moduli)))
def test_lift_solutions_match_reference_on_every_class(gab, a):
    # every class, on up to three random base fields of one to four primes
    # over random proper subgroups H (40 draws a class; some classes have
    # no lift outside any H): with the maximal-subgroup masks, the choices
    # that pass the per-assignment lift test and generate Gab, and with
    # all-zero masks every choice that passes
    rng = random.Random(27)
    subs = [s for s in subgroups(gab) if len(s) < gab.order]
    pool = [q for q in range(3, 400) if is_prime(q) and gab.order * a.order % q]
    fields = passing = survivors = 0
    for ext in enumerate_central_extensions(gab, a):
        made = 0
        for _ in range(40):
            h = rng.choice(subs)
            images = [g for g in gab.elements() if g not in h]
            primes = sorted(rng.sample(pool, rng.randint(1, 4)))
            kdata = BaseFieldData(h, tuple((q, rng.choice(images)) for q in primes))
            try:
                kdata.validate(ext)
            except ValueError:
                # the images do not generate Gab/H, or |y| does not divide q - 1
                continue
            candidates = assignment_space(ext, h, kdata)[1]
            if not candidates or prod(map(len, candidates)) > 256:
                continue
            solutions = reference_choices(ext, primes, candidates)
            assert kernel_choices(ext, h, kdata, masks=False) == solutions, kdata
            expected = [c for c in solutions if generating(gab, c)]
            assert kernel_choices(ext, h, kdata) == expected, kdata
            passing += len(solutions)
            survivors += len(expected)
            made += 1
            if made == 3:
                break
        fields += made
    assert fields and passing >= survivors > 0


def candidate_fields():
    """(extension, H, base field data): for every class of the H2_PAIRS
    shapes and every proper subgroup H, each image outside H at a prime
    whose q - 1 its coset order divides, drawn so that q - 1 mod exp(Gab)
    varies; and on Heisenberg 3, 5, 7 and 11, three primes with images
    in three cosets of H."""
    rng = random.Random(29)
    pool = [q for q in range(3, 400) if is_prime(q)]
    for gab, a in H2_PAIRS:
        subs = [s for s in subgroups(gab) if len(s) < gab.order]
        for ext in enumerate_central_extensions(gab, a):
            for h in subs:
                primes = []
                for g in gab.elements():
                    if g in h:
                        continue
                    n = next(k for k in range(2, gab.order + 1) if gab.smul(k, g) in h)
                    primes.append((rng.choice([q for q in pool if (q - 1) % n == 0]), g))
                yield ext, h, BaseFieldData(h, tuple(primes))
    for ell in (3, 5, 7, 11):
        ext, h = preset("Heisenberg", ell)
        qs = rng.sample([q for q in range(3, 1000) if is_prime(q) and q % ell == 1], 3)
        images = ((0, 0, 1), (0, 0, 2), (1, 2, ell - 1))
        yield ext, h, BaseFieldData(h, tuple(zip(qs, images)))


def test_plan_candidates_match_the_reference():
    # the plan walks each prime's coset of H; the reference filters Y_E
    fields = order_cut = ye_cut = 0
    for ext, h, kdata in candidate_fields():
        candidates = assignment_space(ext, h, kdata)[1]
        plan = plan_of(ext, h, kdata)
        assert plan.candidates == candidates, kdata
        assert plan.orders == tuple(
            tuple(elem_order(ext.gab, y) for y in cands) for cands in candidates
        )
        # fields where some prime loses a candidate of its coset to
        # |y| not dividing q - 1, and to Y_E
        cosets = [(q, {ext.gab.add(g, x) for x in h}) for q, g in kdata.primes]
        order_cut += any((q - 1) % elem_order(ext.gab, y) for q, ys in cosets for y in ys)
        ye_cut += any(not ext.in_y_set(y) for _, ys in cosets for y in ys)
        fields += 1
    assert fields > 2000 and order_cut > 50 and ye_cut > 500


def test_lift_solutions_with_fewer_primes_than_generators(heis3):
    # Heisenberg 3 needs three generators; one and two primes whose images
    # generate Gab/H: no choice generates Gab, whatever passes
    ext, h = heis3
    assert abelian.min_generators(ext.gab) == 3
    for primes in ((7,), (7, 13), (13, 43)):
        kdata = heis_kdata(h, primes)
        candidates = assignment_space(ext, h, kdata)[1]
        passing = reference_choices(ext, primes, candidates)
        assert passing
        assert kernel_choices(ext, h, kdata, masks=False) == passing
        assert plan_of(ext, h, kdata).masks is None
        assert kernel_choices(ext, h, kdata) == []
        assert _lift_survivors(ext, h, shape_of(ext, kdata), _characters(3, primes)) == ()


@pytest.mark.parametrize("primes", COMPOSITE_MISMATCHES)
def test_lift_solutions_match_reference_composite_exponent(primes):
    ext, h = composite_exponent_extension()
    kdata = composite_kdata(h, primes)
    candidates = assignment_space(ext, h, kdata)[1]
    passing = reference_choices(ext, sorted(primes), candidates)
    assert kernel_choices(ext, h, kdata, masks=False) == passing
    expected = [c for c in passing if generating(ext.gab, c)]
    assert kernel_choices(ext, h, kdata) == expected


def assert_kernel_matches_reference(ext, h, kdata) -> tuple:
    """_lift_solutions on the plan of the base field against the
    per-assignment reference: with all-zero masks every choice that passes
    the lift test, with the plan's masks those that also generate Gab.
    Returns their numbers."""
    primes = sorted(q for q, _ in kdata.primes)
    candidates = assignment_space(ext, h, kdata)[1]
    solutions = reference_choices(ext, primes, candidates)
    assert kernel_choices(ext, h, kdata, masks=False) == solutions, kdata
    expected = [c for c in solutions if generating(ext.gab, c)]
    assert kernel_choices(ext, h, kdata) == expected, kdata
    return len(solutions), len(expected)


def random_fields(rng, gab, a, n, spread):
    """(extension, H, base field data) for each class of (gab, a): up to
    two base fields of n primes over random proper subgroups H, whose
    primes have at least spread distinct candidate tuples, with at most
    729 choices."""
    subs = [s for s in subgroups(gab) if len(s) < gab.order]
    pool = [q for q in range(3, 400) if is_prime(q) and gab.order * a.order % q]
    for ext in enumerate_central_extensions(gab, a):
        made = 0
        for _ in range(60):
            h = rng.choice(subs)
            images = [g for g in gab.elements() if g not in h]
            kdata = BaseFieldData(h, tuple((q, rng.choice(images)) for q in rng.sample(pool, n)))
            try:
                kdata.validate(ext)
            except ValueError:
                continue
            candidates = plan_of(ext, h, kdata).candidates
            if not candidates or len(set(candidates)) < spread or prod(map(len, candidates)) > 729:
                continue
            yield ext, h, kdata
            made += 1
            if made == 2:
                break


@pytest.mark.parametrize("n", [1, 2])
def test_lift_solutions_with_an_empty_outer_prefix(n):
    # no prime comes before the last two: with one prime the kernel reads
    # no pairing, with two it makes one pass over the first prime's
    # candidates; Heisenberg 3 has three generators, so its choices are
    # compared with all-zero masks only
    rng = random.Random(30 + n)
    fields = passing = generated = 0
    for gab, a in H2_PAIRS:
        for field in random_fields(rng, gab, a, n, 1):
            got = assert_kernel_matches_reference(*field)
            passing, generated, fields = passing + got[0], generated + got[1], fields + 1
    ext, h = preset("Heisenberg", 3)
    for primes in itertools.combinations((7, 13, 19, 31), n):
        assert kernel_choices(ext, h, heis_kdata(h, primes), masks=False) == reference_choices(
            ext, primes, assignment_space(ext, h, heis_kdata(h, primes))[1])
    assert fields > 20 and passing > generated > 0


@pytest.mark.parametrize("n", [4, 5])
def test_lift_solutions_with_distinct_candidates_per_prime(n):
    # two and three outer primes, with at least three distinct candidate
    # tuples among the primes, so the pairs of primes read distinct
    # blocks of pairing rows and value classes
    rng = random.Random(40 + n)
    fields = passing = generated = 0
    for gab, a in H2_PAIRS:
        if abelian.min_generators(gab) > n or len(gab.moduli) < 2:
            continue
        for field in random_fields(rng, gab, a, n, 3):
            got = assert_kernel_matches_reference(*field)
            passing, generated, fields = passing + got[0], generated + got[1], fields + 1
    assert fields > 10 and passing > generated > 0


def test_lift_solutions_with_zero_characters_yield_the_generating_choices():
    # the wild-prime path of classify runs the kernel with n^2 zeros for
    # characters: every term vanishes, so exactly the choices that
    # generate Gab pass
    rng = random.Random(44)
    fields = [*random_fields(rng, AbGroup((4,)), AbGroup((2,)), 1, 1),
              *random_fields(rng, AbGroup((2, 2)), AbGroup((2,)), 2, 1),
              *random_fields(rng, AbGroup((2, 4)), AbGroup((2,)), 4, 2),
              *random_fields(rng, AbGroup((2, 2, 2)), AbGroup((2,)), 5, 3)]
    ext, h = preset("Heisenberg", 3)
    fields.append((ext, h, BaseFieldData(h, tuple(zip((7, 13, 19), ((0, 0, 1), (0, 0, 2), (1, 2, 2)))))))
    sizes = set()
    for ext, h, kdata in fields:
        plan = plan_of(ext, h, kdata)
        n = len(plan.candidates)
        sizes.add(n)
        found = _lift_solutions(ext, plan, [0] * n**2)
        expected = [c for c in itertools.product(*plan.candidates) if generating(ext.gab, c)]
        assert [tuple(map(getitem, plan.candidates, idx)) for idx in survivor_indices(found)] == expected
    assert sizes == {1, 2, 3, 4, 5}


def test_lift_survivors_hold_only_the_generating_solutions():
    # the benchmark's 2,400-witness triple: of the 3,625 choices that pass
    # the lift test, the memo holds the 2,400 that generate Gab, as one
    # (prefix, bitmask) pair for each of 504 of the 625 prefixes; they are
    # the per-assignment reference's choices, and classify's report is the
    # one pinned by its digest
    ext, h = preset("Heisenberg", 5)
    primes = (2591, 4261, 7331)
    kdata = heis_kdata(h, primes)
    candidates = assignment_space(ext, h, kdata)[1]
    passing = kernel_choices(ext, h, kdata, masks=False)
    assert len(passing) == 3625
    expected = [
        c
        for c in itertools.product(*candidates)
        if generating(ext.gab, c)
        and has_unramified_lift(ext, RamAssignment(ext, tuple(zip(primes, c))))[0]
    ]
    assert expected == [c for c in passing if generating(ext.gab, c)]
    _lift_survivors.cache_clear()
    survivors = _lift_survivors(ext, h, shape_of(ext, kdata), _characters(5, primes))
    assert all(type(i) is int for idx, mask in survivors for i in (*idx, mask))
    prefixes = [idx for idx, _ in survivors]
    assert prefixes == sorted(set(prefixes)) and all(mask for _, mask in survivors)
    index = [{y: c for c, y in enumerate(cands)} for cands in candidates]
    assert set(prefixes) == {tuple(map(getitem, index, c[:-1])) for c in expected}
    assert len(survivors) == 504
    choices = [tuple(map(getitem, candidates, idx)) for idx in survivor_indices(survivors)]
    assert choices == expected
    assert len(choices) == 2400
    text = json.dumps(classify(ext, h, kdata).to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5df8c328a70e241a24bf95171a557a61d459af2995d423197a242bfaee603981"
    )


def merge_case(witness) -> str:
    """Which merges classify makes in a witness's factorization: two
    primes before the last share an image ("prefix"), the last prime's
    image is one of theirs ("last"), "both", or "none"."""
    ys = [y for _, y in witness.assignment]
    prefix = len(set(ys[:-1])) < len(ys) - 1
    last = ys[-1] in ys[:-1]
    return {(True, True): "both", (True, False): "prefix", (False, True): "last"}.get(
        (prefix, last), "none"
    )


def test_classify_merges_factorizations_as_reference():
    # classify merges the factors of the first n - 1 primes once per
    # prefix and the last prime's factor into them per witness; witness
    # for witness against the reference, on base fields where each merge
    # occurs.  H8_pair: 66045 = 3 * 5 * 7 * 17 * 37 has witnesses where
    # the last prime's image is the merged image of two earlier ones
    ext8, h8 = preset("H8_pair", None)
    fields = [(ext8, h8, h8_kdata(ext8, h8, d)) for d in (4305, 4845, 36465, 66045)]
    heis, h = preset("Heisenberg", 3)
    fields += [(heis, h, heis_kdata(h, (7, 13, 19, 31))), mixed_orders_case()]
    seen = {}
    triple = 0
    for ext, hs, kdata in fields:
        assert_matches_reference(ext, hs, kdata)
        for w in classify(ext, hs, kdata).witnesses:
            case = merge_case(w)
            seen[case] = seen.get(case, 0) + 1
            ys = [y for _, y in w.assignment]
            triple += ys.count(ys[-1]) > 2
    assert seen.keys() == {"none", "prefix", "last", "both"}, seen
    assert triple > 0


def test_packed_pairing_is_keyed_on_the_layout(heis3):
    # each pair of runs shares the candidate images but not the number of
    # primes, so not the shape, whose length fixes the width of the packed
    # layout: each run has its own plan
    ext, h = heis3
    for primes in ((7, 13, 19), (7, 13, 19, 31)):
        assert_matches_reference(ext, h, heis_kdata(h, primes))
    # A = C3 above has one coordinate, which no width moves.  A = C2 x C2
    # has two, and its pairing here is not a multiple of one vector: the
    # width is 4 bits for three primes and 5 for four.  No choice passes
    # and generates Gab, so the lift test is compared on every choice
    gab, a = AbGroup((2, 2, 2)), AbGroup((2, 2))
    # pairing (1, 0) on the basis pair (0, 1), (0, 1) on (1, 2)
    ext = CentralExtension(gab, a, [(1, 0), (0, 0), (0, 1)], [a.zero()] * 3)
    h = subgroup_generated(gab, [(1, 1, 0)])
    for primes, width in (((3, 5, 7), 4), ((3, 5, 7, 11), 5)):
        images = ((1, 0, 0), (1, 0, 0), (0, 0, 1), (0, 0, 1))
        kdata = BaseFieldData(h, tuple(zip(primes, images)))
        plan = plan_of(ext, h, kdata)
        assert plan.width == width
        # the rows are <y, z> packed: coordinate t in bits [t * width, ...),
        # built for the blocks the lift test reads: each prime before the
        # last two against every other prime, and the prime before the
        # last against the last
        last = len(plan.candidates) - 1
        read = {(i, j) for i in range(last - 1) for j in range(last + 1) if j != i}
        read.add((last - 1, last))
        for i, zs in enumerate(plan.candidates):
            for j, ys in enumerate(plan.candidates):
                block = plan.pairing[i][j]
                if (i, j) not in read:
                    assert block is None, (i, j)
                    continue
                assert len(block) == len(zs)
                for z, row in zip(zs, block):
                    assert len(row) == len(ys)
                    for y, v in zip(ys, row):
                        assert v == sum(x << t * width for t, x in enumerate(ext.pairing(y, z)))
        # the value classes of each row against the last prime: its values,
        # sorted, each with the bitmask of the candidates taking it
        assert len(plan.classes) == last
        for i, rows in enumerate(plan.classes):
            assert len(rows) == len(plan.candidates[i])
            for b, classes in enumerate(rows):
                row = plan.pairing[i][last][b]
                assert [v for v, _ in classes] == sorted(set(row))
                for v, mask in classes:
                    assert mask == sum(1 << c for c, x in enumerate(row) if x == v)
                assert len(classes) <= a.order
        expected = reference_choices(ext, primes, assignment_space(ext, h, kdata)[1])
        assert expected
        assert kernel_choices(ext, h, kdata, masks=False) == expected
        assert kernel_choices(ext, h, kdata) == []


def test_classify_heisenberg5_four_primes():
    # 25^4 = 390,625 choices, solved as 25^3 prefixes
    ext, h = preset("Heisenberg", 5)
    primes = (11, 31, 41, 61)
    start = time.perf_counter()
    rep = classify(ext, h, heis_kdata(h, primes))
    assert time.perf_counter() - start < 2
    assert len(rep.witnesses) == 960
    for w in rep.witnesses:
        # the counting formula gives ell^(4-3) solutions per class
        assert w.count_per_class == 5 == reference_count(ext, w.assignment, w.factorization)
        assert w.classes == 4
        assert has_unramified_lift(ext, RamAssignment(ext, w.assignment))[0]
    found = {tuple(y for _, y in w.assignment) for w in rep.witnesses}
    candidates = assignment_space(ext, h, heis_kdata(h, primes))[1]
    rng = random.Random(5)
    for _ in range(2000):
        choice = tuple(rng.choice(c) for c in candidates)
        expected = generating(ext.gab, choice) and has_unramified_lift(
            ext, RamAssignment(ext, tuple(zip(primes, choice)))
        )[0]
        assert (choice in found) == expected


def test_heisenberg5_json_round_trip_classifies_the_same():
    # from_json checks the cocycle identity on all 125^3 triples of the
    # table it reads; the extension it returns classifies like the preset
    ext, h = preset("Heisenberg", 5)
    start = time.perf_counter()
    back = CentralExtension.from_json(json.loads(json.dumps(ext.to_json())))
    assert time.perf_counter() - start < 5
    with open(Path(__file__).parent / "data" / "heisenberg5_four_primes.json") as fh:
        kdata = BaseFieldData(h, primes_from_json(json.load(fh)))
    assert back == ext
    rep = classify(back, h, kdata)
    assert len(rep.witnesses) == 960
    assert rep.to_json() == classify(ext, h, kdata).to_json()


@pytest.mark.parametrize(
    "run, primes, message",
    [
        # classify visits the prefixes: 25 candidates for each of the first
        # five of six primes
        (classify, (11, 31, 41, 61, 71, 101), "9765625 lift-test prefixes exceed bound 1000000"),
        # the reference visits every choice: 25 candidates for each of five
        (lambda ext, h, kdata: list(enumerate_assignments(ext, h, kdata)), (11, 31, 41, 61, 71),
         "9765625 candidate assignments exceed bound 1000000"),
    ],
    ids=["classify", "enumerate_assignments"],
)
def test_assignment_bound_raises_before_work(run, primes, message):
    ext, h = preset("Heisenberg", 5)
    kdata = heis_kdata(h, primes)
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        run(ext, h, kdata)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == message


def test_classify_heisenberg37_three_primes_raises_at_once():
    # 37^2 = 1,369 candidates a prime: 1,369^2 prefixes
    ext, h = preset("Heisenberg", 37)
    kdata = heis_kdata(h, (149, 223, 593))
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        classify(ext, h, kdata)
    assert time.perf_counter() - start < 1
    assert str(exc.value) == "1874161 lift-test prefixes exceed bound 1000000"


def test_classify_heisenberg11_three_primes_matches_the_criterion():
    # 11^4 = 14,641 prefixes a call, within the bound, where the 11^6
    # choices are not.  Two triples of each verdict, drawn from a seeded
    # pool by the criterion; each witness passes the per-assignment lift
    # test, and random choices are witnesses exactly when they pass it and
    # generate Gab
    ext, h = preset("Heisenberg", 11)
    pool = [q for q in range(23, 2000) if is_prime(q) and q % 11 == 1]
    rng = random.Random(16)
    triples = {True: [], False: []}
    while min(map(len, triples.values())) < 2:
        primes = tuple(sorted(rng.sample(pool, 3)))
        triples[heisenberg_criterion(11, *primes).exists].append(primes)
    for verdict in (True, False):
        for primes in triples[verdict][:2]:
            rep = classify(ext, h, heis_kdata(h, primes))
            assert rep.exists == verdict, primes
            for w in rep.witnesses[:: max(1, len(rep.witnesses) // 50)]:
                assert (w.count_per_class, w.classes) == (1, 10)
                assert has_unramified_lift(ext, RamAssignment(ext, w.assignment))[0]
            found = {tuple(y for _, y in w.assignment) for w in rep.witnesses}
            candidates = assignment_space(ext, h, heis_kdata(h, primes))[1]
            for _ in range(200):
                choice = tuple(rng.choice(c) for c in candidates)
                expected = generating(ext.gab, choice) and has_unramified_lift(
                    ext, RamAssignment(ext, tuple(zip(primes, choice)))
                )[0]
                assert (choice in found) == expected, (primes, choice)
