import itertools
import json
import random
import time
from math import gcd, prod

import pytest

from lemfact.abelian import (
    AbGroup,
    elem_order,
    enumerate_automorphisms,
    hom_count,
    subgroup_generated,
    torsion_count,
)
from lemfact.arith import is_prime
from lemfact import cocycle
from lemfact.cocycle import (
    CentralExtension,
    _mod_multiples,
    aut_stabilizer_order,
    check_cocycle,
    class_orbit_size,
    cohomologous,
    enumerate_central_extensions,
    is_admissible_pair,
    is_coboundary,
    order_preserving_lifts,
    preset,
    quaternion_pair_class_count,
    quaternion_pair_hits,
    split_extension,
)
from lemfact.solver import BaseFieldData, Report, Witness, classify
from cocycle_reference import (
    CLASS_COUNTS,
    H2_PAIRS,
    SMALL_PAIRS,
    TableExtension,
    add_tables,
    closure,
    bilinear_table,
    carry_table,
    coboundary_table,
    key_table,
    sub_tables,
    subgroups,
)
from solver_reference import enumerate_assignments, factorization_of, has_unramified_lift


def torsion_subgroup(a, n):
    """A[n], the elements of A killed by n."""
    return frozenset(x for x in a.elements() if a.smul(n, x) == a.zero())


def map_table(alpha, t):
    """Push a table forward along an endomorphism of A."""
    return {k: alpha(v) for k, v in t.items()}


def commutator_subgroup(ext):
    """Subgroup of A generated by all pairing values; equals [E,E]."""
    els = list(ext.gab.elements())
    return subgroup_generated(ext.a, {ext.pairing(x, y) for x in els for y in els})


def random_cocycle(gab, a, rng):
    """Random linear combination of carry and bilinear generator tables
    plus a random coboundary: covers every class and many representatives."""
    table = {}
    for i, m in enumerate(gab.moduli):
        av = tuple(rng.randrange(n) for n in a.moduli)
        table = add_tables(a, table, carry_table(gab, a, i, av))
    for i in range(gab.rank):
        for j in range(i + 1, gab.rank):
            g = gcd(gab.moduli[i], gab.moduli[j])
            bv = rng.choice(sorted(torsion_subgroup(a, g)))
            table = add_tables(a, table, bilinear_table(gab, a, i, j, bv))
    phi = {
        g: tuple(rng.randrange(n) for n in a.moduli)
        for g in gab.elements()
        if g != gab.zero()
    }
    phi[gab.zero()] = a.zero()
    return add_tables(a, table, coboundary_table(gab, a, phi))


@pytest.fixture(scope="module")
def rng():
    return random.Random(991)


def test_random_cocycles_satisfy_identity(rng):
    for gab, a in SMALL_PAIRS:
        for _ in range(20):
            check_cocycle(gab, a, random_cocycle(gab, a, rng))


def test_preset_cocycles_valid():
    for name, param in (("C4_D4", None), ("H8_pair", None), ("Heisenberg", 3), ("Heisenberg", 5)):
        ext, _ = preset(name, param)
        check_cocycle(ext.gab, ext.a, ext.table)


def reference_check_cocycle(gab, a, table):
    """check_cocycle as a loop of tuple arithmetic over every (g, h, k):
    the reference for its row scan, which skips the rows it can show
    pass."""
    c = TableExtension(gab, a, table).c
    zero_a = a.zero()
    zero_g = gab.zero()
    els = list(gab.elements())
    for g in els:
        if c(zero_g, g) != zero_a or c(g, zero_g) != zero_a:
            raise ValueError(f"cocycle not normalized at {g}")
    add = gab.add
    aadd = a.add
    for g in els:
        for h in els:
            gh = add(g, h)
            cgh = c(g, h)
            for k in els:
                if aadd(cgh, c(gh, k)) != aadd(c(h, k), c(g, add(h, k))):
                    raise ValueError(f"cocycle identity fails at {(g, h, k)}")


def check_outcome(check):
    """None when check passes, its ValueError message otherwise."""
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


def test_check_cocycle_matches_reference(rng):
    # random cocycles; one entry changed by a nonzero element (a non-cocycle,
    # or a non-normalized table on the zero row and column); every entry
    # moved by multiples of the moduli (unreduced, still a cocycle unless a
    # zero row or column gets a nonzero tuple)
    cases = [(gab, a, random_cocycle(gab, a, rng)) for gab, a in SMALL_PAIRS for _ in range(12)]
    cases += [(ext.gab, ext.a, ext.table) for ext, _ in (preset("H8_pair"), preset("Heisenberg", 3))]
    outcomes = []
    for gab, a, table in cases:
        els = list(gab.elements())
        nonzero = [x for x in a.elements() if x != a.zero()]
        changed = dict(table)
        g, h = rng.choice(els), rng.choice(els)
        changed[(g, h)] = a.add(changed.get((g, h), a.zero()), rng.choice(nonzero))
        unreduced = {
            k: tuple(x + m * rng.randrange(-2, 3) for x, m in zip(v, a.moduli))
            for k, v in table.items()
        }
        g, h = rng.choice(els), rng.choice(els)
        unreduced.setdefault((g, h), tuple(m * rng.randrange(1, 3) for m in a.moduli))
        for t in (table, changed, unreduced):
            got = check_outcome(lambda: check_cocycle(gab, a, t))
            assert got == check_outcome(lambda: reference_check_cocycle(gab, a, t)), (gab, a, t)
            outcomes.append(got)
    assert outcomes.count(None) > len(cases)
    assert sum(o is not None and o.startswith("cocycle identity fails") for o in outcomes) > 20
    assert sum(o is not None and o.startswith("cocycle not normalized") for o in outcomes) > 5


def test_check_cocycle_rejects_entries_of_the_wrong_length():
    # the tuple loop compared such entries through zip, which truncates
    gab, a = AbGroup((2,)), AbGroup((2,))
    for v in ((), (1, 0)):
        with pytest.raises(ValueError, match="wrong length"):
            check_cocycle(gab, a, {((1,), (1,)): v})


@pytest.mark.parametrize("moduli", [(4, 2, 2), (4, 4, 2), (4, 2, 2, 2, 2)])
def test_check_cocycle_finds_a_failing_row_after_skipped_rows(monkeypatch, rng, moduli):
    # a cocycle plus 1 at every (g, h) with (g_0, h_0) = (1, 2): the rows
    # with g_0 = 0 still pass, a subgroup of index 4 that the scan closes
    # from a few rows and then skips, and row (1, 0, ...) fails first
    gab, a = AbGroup(moduli), AbGroup((2,))
    table = random_cocycle(gab, a, rng)
    for g in gab.elements():
        for h in gab.elements():
            if (g[0], h[0]) == (1, 2):
                table[(g, h)] = a.add(table.get((g, h), a.zero()), (1,))
    e = (1,) + (0,) * (len(moduli) - 1)
    assert list(gab.elements()).index(e) == gab.order // 4
    expected = f"cocycle identity fails at {(e, e, e)}"
    assert check_outcome(lambda: reference_check_cocycle(gab, a, table)) == expected
    # each row that passes is closed into the subgroup once and at least
    # doubles it: at most log2(|Gab|/4) rows pass before (1, 0, ...) fails
    closures = []

    def counted(zero, gens, op):
        closures.append(len(gens))
        return closure(zero, gens, op)

    monkeypatch.setattr(cocycle, "_closure", counted)
    assert check_outcome(lambda: check_cocycle(gab, a, table)) == expected
    assert closures == list(range(1, len(closures) + 1))
    assert 1 < len(closures) < gab.order.bit_length() - 2


def test_h8_pair_preset_is_the_first_quaternion_hit(monkeypatch):
    # built from its key: no H^2 enumeration, no quaternion or
    # admissibility test, and one value for every call
    def refuse(*args):
        raise AssertionError("the H8_pair preset searched")

    quaternion_pair_hits.cache_clear()
    with monkeypatch.context() as m:
        for name in ("enumerate_central_extensions", "is_admissible_pair", "_is_quaternion8"):
            m.setattr(cocycle, name, refuse)
        ext, h = preset("H8_pair")
        assert preset("H8_pair")[0] == ext
    assert quaternion_pair_hits.cache_info().currsize == 0
    hit, hit_h = quaternion_pair_hits()[0]
    assert ext.table == hit.table
    assert h == hit_h == frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)})
    assert ext == hit and ext.pairs == ((1,),) * 3 and ext.powers == ((0,),) * 3


def test_pairing_bilinear_and_antisymmetric(rng):
    cases = 0
    for gab, a in SMALL_PAIRS:
        for _ in range(8):
            ext = CentralExtension.from_table(gab, a, random_cocycle(gab, a, rng))
            els = list(gab.elements())
            for _ in range(20):
                x, xp, y = (rng.choice(els) for _ in range(3))
                assert ext.pairing(gab.add(x, xp), y) == a.add(
                    ext.pairing(x, y), ext.pairing(xp, y)
                )
                assert ext.pairing(y, gab.add(x, xp)) == a.add(
                    ext.pairing(y, x), ext.pairing(y, xp)
                )
                assert ext.pairing(x, y) == a.neg(ext.pairing(y, x))
                assert ext.pairing(x, x) == a.zero()
                cases += 1
    assert cases >= 1000


def test_pairing_equals_total_group_commutator(rng):
    for gab, a in SMALL_PAIRS[:5]:
        ext = CentralExtension.from_table(gab, a, random_cocycle(gab, a, rng))
        for x in gab.elements():
            for y in gab.elements():
                lx, ly = (a.zero(), x), (a.zero(), y)
                xy = ext.ext_mul(lx, ly)
                yx = ext.ext_mul(ly, lx)
                comm = (a.sub(xy[0], yx[0]), gab.sub(xy[1], yx[1]))
                assert comm == (ext.pairing(x, y), gab.zero())


def test_d4_preset_basics():
    ext, h = preset("C4_D4", None)
    assert ext.gab.moduli == (2, 2)
    assert ext.a.moduli == (2,)
    assert ext.pairing((1, 0), (0, 1)) == (1,)
    assert ext.y_set() == {(0, 0), (0, 1), (1, 1)}
    assert commutator_subgroup(ext) == {(0,), (1,)}
    ok, _ = is_admissible_pair(ext, h)
    assert ok
    # the total group is D4: element orders 1,2,2,2,2,2,4,4
    orders = sorted(ext.ext_order(x) for x in ext.ext_elements())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_c4_class_over_c2():
    gab, a = AbGroup((2,)), AbGroup((2,))
    table = {((1,), (1,)): (1,)}
    check_cocycle(gab, a, table)
    ext = CentralExtension.from_table(gab, a, table)
    assert ext.y_set() == {(0,)}
    assert not is_coboundary(gab, a, table)[0]
    orders = sorted(ext.ext_order(x) for x in ext.ext_elements())
    assert orders == [1, 2, 4, 4]


@pytest.mark.parametrize("ell", [3, 5])
def test_heisenberg_preset(ell):
    ext, h = preset("Heisenberg", ell)
    assert ext.gab.moduli == (ell, ell, ell)
    assert ext.a.moduli == (ell,)
    z = (1,)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert ext.pairing(e1, e2) == z
    assert ext.pairing(e1, e3) == z
    assert ext.pairing(e2, e3) == z
    assert ext.y_set() == frozenset(ext.gab.elements())
    assert commutator_subgroup(ext) == {(i,) for i in range(ell)}
    assert h == frozenset((i, j, 0) for i in range(ell) for j in range(ell))
    ok, _ = is_admissible_pair(ext, h)
    assert ok
    assert aut_stabilizer_order(ext) == 1
    assert class_orbit_size(ext) == ell - 1
    # H(l^3) inside E: the preimage of H has exponent ell and is nonabelian
    preim = [(av, g) for av in ext.a.elements() for g in h]
    assert all(ext.ext_order(x) in (1, ell) for x in preim)


@pytest.mark.parametrize("ell", [p for p in range(3, 38) if all(p % q for q in range(2, p))])
def test_heisenberg_preset_is_quick(ell):
    # built from its key: no table, no Y_E
    start = time.perf_counter()
    ext, h = preset("Heisenberg", ell)
    assert time.perf_counter() - start < 0.1
    assert ext.gab.moduli == (ell,) * 3 and len(h) == ell**2


def test_heisenberg_preset_bound_raises_before_any_work():
    # 41^3 > 2^16: the base field check would reject this Gab
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^group order 68921 exceeds bound 65536$"):
        preset("Heisenberg", 41)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("ell", [3, 5])
def test_heisenberg_determinant_identity(ell):
    # pairing of two lifts with sigma-component 1 is the 2x2 determinant
    # det[[a1-1, b1+1], [a2-1, b2+1]] mod ell
    ext, _ = preset("Heisenberg", ell)
    for a1, b1, a2, b2 in itertools.product(range(ell), repeat=4):
        lhs = ext.pairing((a1, b1, 1), (a2, b2, 1))
        det = ((a1 - 1) * (b2 + 1) - (a2 - 1) * (b1 + 1)) % ell
        assert lhs == (det,)


def test_split_extension_trivialities():
    gab, a = AbGroup((2, 3)), AbGroup((4,))
    ext = split_extension(gab, a)
    assert all(
        ext.pairing(x, y) == a.zero()
        for x in gab.elements()
        for y in gab.elements()
    )
    assert ext.y_set() == frozenset(gab.elements())
    assert is_coboundary(gab, a, ext.table)[0]
    assert class_orbit_size(ext) == 1


def brute_force_coboundary(gab, a, table):
    """Whether table is a coboundary, by an exhaustive search over every
    1-cochain phi (phi(0) = 0, each other value any element of A) for one
    with table(g, h) = phi(g) + phi(h) - phi(g + h) at every (g, h).

    phi is fixed one element at a time, in the order of gab.elements(),
    each value in the order of a.elements(), and each (g, h) is tested as
    soon as phi(g), phi(h) and phi(g + h) are all fixed: a partial phi
    that fails a test is not extended, as every extension fails it too."""
    zero = gab.zero()
    els = [g for g in gab.elements() if g != zero]
    index = {g: i for i, g in enumerate(els)}
    index[zero] = -1
    # tests[i]: the (g, h, g + h, table(g, h)) whose last value fixed is
    # phi(els[i]); only (0, 0) has none, and phi(0) = 0 must fit it
    tests = [[] for _ in els]
    for g in gab.elements():
        for h in gab.elements():
            s = gab.add(g, h)
            want = table.get((g, h), a.zero())
            last = max(index[g], index[h], index[s])
            if last < 0:
                if want != a.zero():
                    return False
            else:
                tests[last].append((g, h, s, want))
    values = list(a.elements())
    phi = {zero: a.zero()}

    def extend(i):
        if i == len(els):
            return True
        for v in values:
            phi[els[i]] = v
            if all(
                want == a.sub(a.add(phi[g], phi[h]), phi[s]) for g, h, s, want in tests[i]
            ) and extend(i + 1):
                return True
        return False

    return extend(0)


def product_walk_coboundary(gab, a, table):
    """brute_force_coboundary's reference: every cochain in turn, each
    tested at every (g, h)."""
    zero = gab.zero()
    els = [g for g in gab.elements() if g != zero]
    for values in itertools.product(list(a.elements()), repeat=len(els)):
        phi = dict(zip(els, values))
        phi[zero] = a.zero()
        if all(
            table.get((g, h), a.zero())
            == a.sub(a.add(phi[g], phi[h]), phi[gab.add(g, h)])
            for g in gab.elements()
            for h in gab.elements()
        ):
            return True
    return False


def test_brute_force_coboundary_matches_product_walk(rng):
    # the pairs with at most 64 cochains, cocycles and tables one entry
    # away from one, which may not be cocycles
    pairs = [(gab, a) for gab, a in SMALL_PAIRS + [(AbGroup((2,)), AbGroup((4,))),
                                                   (AbGroup((2, 2)), AbGroup((2, 2)))]
             if a.order ** (gab.order - 1) <= 64]
    assert len(pairs) == 7
    verdicts = set()
    for gab, a in pairs:
        els = list(gab.elements())
        for n in range(60):
            table = random_cocycle(gab, a, rng)
            if n % 2:
                dv = tuple(rng.randrange(m) for m in a.moduli)
                table = add_tables(a, table, {(rng.choice(els), rng.choice(els)): dv})
            got = brute_force_coboundary(gab, a, table)
            assert got == product_walk_coboundary(gab, a, table), (gab, a, table)
            verdicts.add(got)
    assert verdicts == {True, False}


def test_is_coboundary_matches_brute_force(rng):
    pairs = [
        (AbGroup((2,)), AbGroup((2,))),
        (AbGroup((2,)), AbGroup((4,))),
        (AbGroup((2, 2)), AbGroup((2,))),
        (AbGroup((4,)), AbGroup((2,))),
        (AbGroup((3,)), AbGroup((3,))),
        (AbGroup((2, 2)), AbGroup((2, 2))),
        (AbGroup((8,)), AbGroup((2,))),
        (AbGroup((2, 4)), AbGroup((3,))),
    ]
    cases = 0
    non_cocycles = zero_key_non_cocycles = 0
    for gab, a in pairs:
        trials = 1500 // len(pairs)
        for n in range(trials):
            table = random_cocycle(gab, a, rng)
            if n % 3 == 0:
                # one entry changed: no longer a cocycle, but its class
                # key may still be zero
                g, h = rng.choice(list(gab.elements())), rng.choice(list(gab.elements()))
                dv = tuple(rng.randrange(1, m) if m > 1 else 0 for m in a.moduli)
                table = add_tables(a, table, {(g, h): dv})
            try:
                check_cocycle(gab, a, table)
            except ValueError:
                ext = CentralExtension.from_table(gab, a, table)
                zero_key_non_cocycles += not any(any(v) for v in ext.pairs + ext.powers)
                non_cocycles += 1
            got, phi = is_coboundary(gab, a, table)
            assert got == brute_force_coboundary(gab, a, table)
            if got:
                for g in gab.elements():
                    for h in gab.elements():
                        assert table.get((g, h), a.zero()) == a.sub(
                            a.add(phi[g], phi[h]), phi[gab.add(g, h)]
                        )
            cases += 1
    assert cases >= 1000
    assert non_cocycles >= 300 and zero_key_non_cocycles >= 100


def test_y_set_is_class_invariant(rng):
    for gab, a in SMALL_PAIRS[:6]:
        for _ in range(10):
            table = random_cocycle(gab, a, rng)
            phi = {
                g: tuple(rng.randrange(n) for n in a.moduli) for g in gab.elements()
            }
            phi[gab.zero()] = a.zero()
            shifted = add_tables(a, table, coboundary_table(gab, a, phi))
            e1 = CentralExtension.from_table(gab, a, table)
            e2 = CentralExtension.from_table(gab, a, shifted)
            assert e1.y_set() == e2.y_set()
            assert cohomologous(e1, e2)
            assert e1 == e2 and hash(e1) == hash(e2)


def test_orbit_times_stabilizer(rng):
    for gab, a in SMALL_PAIRS:
        n_aut = len(enumerate_automorphisms(a))
        for _ in range(5):
            ext = CentralExtension.from_table(gab, a, random_cocycle(gab, a, rng))
            assert class_orbit_size(ext) * aut_stabilizer_order(ext) == n_aut


@pytest.mark.parametrize("gab_moduli,a_moduli,classes", CLASS_COUNTS)
def test_enumerate_central_extensions_class_counts(gab_moduli, a_moduli, classes):
    # |H^2(Gab, A)| = prod |A/m_i A| * prod_{i<j} |A[gcd(m_i, m_j)]|
    got = enumerate_central_extensions(AbGroup(gab_moduli), AbGroup(a_moduli))
    assert len(got) == classes
    for e1, e2 in itertools.combinations(got, 2):
        assert not cohomologous(e1, e2)


# --- table-based references for the class key ------------------------------

def reference_h2(gab, a):
    """The table-based H^2 enumeration: the same candidates in the same
    order, each kept unless is_coboundary finds its difference with a class
    kept before to be a coboundary."""
    k = gab.rank
    a_els = list(a.elements())
    pair_choices = [
        (i, j, sorted(torsion_subgroup(a, gcd(gab.moduli[i], gab.moduli[j]))))
        for i in range(k)
        for j in range(i + 1, k)
    ]
    kept = []
    for carries in itertools.product(a_els, repeat=k):
        base = {}
        for i, av in enumerate(carries):
            base = add_tables(a, base, carry_table(gab, a, i, av))
        for bils in itertools.product(*(choices for _, _, choices in pair_choices)):
            table = base
            for (i, j, _), bv in zip(pair_choices, bils):
                table = add_tables(a, table, bilinear_table(gab, a, i, j, bv))
            if not any(is_coboundary(gab, a, sub_tables(a, table, t))[0] for t in kept):
                kept.append(table)
    return kept


def reference_stabilizer_order(gab, a, t):
    """Automorphisms alpha of A with alpha∘c - c a coboundary, table by table."""
    return sum(
        is_coboundary(gab, a, sub_tables(a, map_table(alpha, t), t))[0]
        for alpha in enumerate_automorphisms(a)
    )


@pytest.mark.parametrize("gab,a", H2_PAIRS, ids=lambda g: "x".join(map(str, g.moduli)))
def test_enumerate_central_extensions_matches_table_reference(gab, a):
    assert [e.table for e in enumerate_central_extensions(gab, a)] == reference_h2(gab, a)


def outcome(run):
    """run()'s result, or the type and message of the error it raises."""
    try:
        return run()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def table_report(gab, a, table, h, kdata) -> dict:
    """classify's report rebuilt on the table: the assignments, their lift
    test and their factorizations from TableExtension through the
    per-assignment reference, and the counts from the stabilizer order of
    reference_stabilizer_order, with classify's error on a fractional
    count."""
    ext = TableExtension(gab, a, table)
    stab = reference_stabilizer_order(gab, a, table)
    denominator = stab * hom_count(gab, a)
    witnesses = []
    for asg in enumerate_assignments(ext, h, kdata):
        if not has_unramified_lift(ext, asg)[0]:
            continue
        numerator = prod(torsion_count(a, elem_order(gab, y)) for _, y in asg.entries)
        count, rest = divmod(numerator, denominator)
        if rest:
            raise ArithmeticError(f"counting formula inconsistency: {numerator}/{denominator}")
        classes = len(enumerate_automorphisms(a)) // stab
        witnesses.append(Witness(asg.entries, factorization_of(asg).factors, count, classes))
    return Report(bool(witnesses), tuple(witnesses)).to_json()


@pytest.mark.parametrize("gab,a", H2_PAIRS, ids=lambda g: "x".join(map(str, g.moduli)))
def test_closed_forms_match_the_table_reference(gab, a):
    # every class, as its canonical table (the carry and bilinear tables of
    # its key) and shifted by a random coboundary: the value read off
    # either table is the class, and what the engine reads from the key
    # matches what the table gives
    rng = random.Random(23)
    els = list(gab.elements())
    subs = subgroups(gab)
    pool = [q for q in range(3, 400) if is_prime(q) and gab.order * a.order % q]
    shifted_differ = pairs = reports = 0
    for ext in enumerate_central_extensions(gab, a):
        canonical = key_table(gab, a, ext.pairs, ext.powers)
        assert ext.table == canonical
        phi = {g: tuple(rng.randrange(n) for n in a.moduli) for g in els}
        phi[gab.zero()] = a.zero()
        shifted = add_tables(a, canonical, coboundary_table(gab, a, phi))
        shifted_differ += shifted != canonical
        verdicts = [is_admissible_pair(ext, h) for h in subs]
        admissible = [h for h, (ok, _) in zip(subs, verdicts) if ok]
        pairs += len(admissible)
        fields = []
        for h in admissible:
            images = [g for g in els if g not in h]
            for _ in range(20):
                kdata = BaseFieldData(h, tuple(
                    (q, rng.choice(images)) for q in rng.sample(pool, rng.randint(2, 3))))
                if outcome(lambda: kdata.validate(ext)) is None:
                    fields.append((h, kdata))
                    break
        for table in (canonical, shifted):
            assert CentralExtension.from_table(gab, a, table) == ext
            ref = TableExtension(gab, a, table)
            assert ref.key() == (ext.pairs, ext.powers)
            assert ref.y_set() == ext.y_set()
            for x in els:
                n = elem_order(gab, x)
                assert _mod_multiples(a, n, ext.power_class(x)) == _mod_multiples(
                    a, n, ref.power_class(x))
                for y in els:
                    assert ext.pairing(x, y) == ref.pairing(x, y)
            assert aut_stabilizer_order(ext) == reference_stabilizer_order(gab, a, table)
            assert verdicts == [is_admissible_pair(ref, h) for h in subs]
            for h, kdata in fields:
                got = outcome(lambda: classify(ext, h, kdata).to_json())
                assert got == outcome(lambda: table_report(gab, a, table, h, kdata)), kdata
                reports += 1
    assert shifted_differ or gab.order == 2
    # one base field for each admissible pair, classified on both tables
    assert reports == 2 * pairs


def assert_orders_and_lifts_match_the_walk(ext, subs) -> int:
    """Check, on every element of E, the closed-form order against the
    repeated ext_mul walk on the canonical table, and the order-preserving
    lifts outside each subgroup in subs against the elements the walk
    keeps, in the order of ext_elements.  Returns |E|."""
    gab = ext.gab
    ref = TableExtension(gab, ext.a, ext.table)
    orders = {x: ref.ext_order(x) for x in ref.ext_elements()}
    assert {x: ext.ext_order(x) for x in ext.ext_elements()} == orders
    for h in subs:
        expected = [x for x, n in orders.items() if x[1] not in h and n == elem_order(gab, x[1])]
        assert list(order_preserving_lifts(ext, h)) == expected
    return len(orders)


@pytest.mark.parametrize("gab,a", H2_PAIRS, ids=lambda g: "x".join(map(str, g.moduli)))
def test_ext_order_and_lifts_match_the_table_walk(gab, a):
    subs = subgroups(gab)
    for ext in enumerate_central_extensions(gab, a):
        assert_orders_and_lifts_match_the_walk(ext, subs)


def test_ext_order_and_lifts_match_the_table_walk_heisenberg5():
    ext, h = preset("Heisenberg", 5)
    gab = ext.gab
    subs = [h, frozenset({gab.zero()}), subgroup_generated(gab, [(0, 0, 1)])]
    assert assert_orders_and_lifts_match_the_walk(ext, subs) == 625


@pytest.mark.parametrize("gab,a", H2_PAIRS, ids=lambda g: "x".join(map(str, g.moduli)))
def test_ext_generated_matches_the_bfs_reference(gab, a):
    # on every class: the order-preserving lifts outside each subgroup, as
    # is_admissible_pair closes them, and random sets of elements of E
    rng = random.Random(29)
    subs = subgroups(gab)
    for ext in enumerate_central_extensions(gab, a):
        elements = list(ext.ext_elements())
        gen_sets = [list(order_preserving_lifts(ext, h)) for h in subs]
        gen_sets += [rng.choices(elements, k=rng.randint(1, 4)) for _ in range(10)]
        for gens in gen_sets:
            assert ext.ext_generated(gens) == closure(ext.ext_zero(), gens, ext.ext_mul)


def test_ext_generated_skips_the_generators_it_has_reached(monkeypatch):
    # Heisenberg 5: the 500 order-preserving lifts outside H generate the
    # 625 elements of E in fewer than 5 * |E| products, where applying
    # every lift to every element would take 312,500
    ext, h = preset("Heisenberg", 5)
    lifts = list(order_preserving_lifts(ext, h))
    calls = []
    ext_mul = CentralExtension.ext_mul

    def counted(self, x, y):
        calls.append(None)
        return ext_mul(self, x, y)

    monkeypatch.setattr(CentralExtension, "ext_mul", counted)
    generated = ext.ext_generated(lifts)
    assert (len(lifts), len(generated)) == (500, 625)
    assert len(calls) < 5 * 625


def test_aut_stabilizer_order_matches_table_reference():
    # A with a nontrivial Aut(A) that is not cyclic of prime order
    rng = random.Random(8)
    seen = set()
    for a_moduli in ((4,), (2, 2), (2, 4), (3,)):
        a = AbGroup(a_moduli)
        for gab in (AbGroup((2,)), AbGroup((4,)), AbGroup((2, 2)), AbGroup((2, 4))):
            for _ in range(4):
                table = random_cocycle(gab, a, rng)
                order = aut_stabilizer_order(CentralExtension.from_table(gab, a, table))
                assert order == reference_stabilizer_order(gab, a, table)
                seen.add((a_moduli, order))
    # every stabilizer order a class can have: for C2 x C2, the span of its
    # key values is 0, a line or the whole plane
    assert {(2, 2): {1, 2, 6}, (2, 4): {1, 2, 4, 8}} == {
        am: {o for m, o in seen if m == am} for am in ((2, 2), (2, 4))
    }


def test_cohomologous_matches_brute_force(rng):
    verdicts = []
    for gab, a in (
        (AbGroup((2,)), AbGroup((2,))),
        (AbGroup((2, 2)), AbGroup((2,))),
        (AbGroup((4,)), AbGroup((2,))),
        (AbGroup((3,)), AbGroup((3,))),
        (AbGroup((2,)), AbGroup((4,))),
        (AbGroup((2, 2)), AbGroup((2, 2))),
    ):
        for _ in range(30):
            t1, t2 = random_cocycle(gab, a, rng), random_cocycle(gab, a, rng)
            e1, e2 = (CentralExtension.from_table(gab, a, t) for t in (t1, t2))
            got = cohomologous(e1, e2)
            assert got == brute_force_coboundary(gab, a, sub_tables(a, t1, t2))
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_y_set_matches_element_set_definition(rng):
    # Y_E = {y : power_class(y) in |y|*A}, with |y|*A listed element by element
    exts = [preset(name, p)[0] for name, p in (("C4_D4", None), ("H8_pair", None),
                                                ("Heisenberg", 3))]
    for gab, a in SMALL_PAIRS:
        exts += [CentralExtension.from_table(gab, a, random_cocycle(gab, a, rng))
                 for _ in range(5)]
    for ext in exts:
        gab, a = ext.gab, ext.a
        expected = {
            y
            for y in gab.elements()
            if ext.power_class(y) in {a.smul(elem_order(gab, y), x) for x in a.elements()}
        }
        assert ext.y_set() == expected


def test_enumerate_central_extensions_coprime_orders_is_quick():
    # H^2(C7, C3) = 0; deciding that the carry cocycles are coboundaries
    # used to spin in the Smith form
    start = time.perf_counter()
    got = enumerate_central_extensions(AbGroup((7,)), AbGroup((3,)))
    assert time.perf_counter() - start < 1
    assert len(got) == 1


def test_enumerate_central_extensions_bound_counts_classes():
    # (C2^4, C2) has 1024 classes, each a 256-entry table to build: it
    # raises before the first one
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        enumerate_central_extensions(AbGroup((2,) * 4), AbGroup((2,)))
    assert time.perf_counter() - start < 1
    assert str(exc.value) == "1024 H^2 classes exceed bound 128"


def test_lemma_32_pullback_pairing_is_coordinatewise():
    # pull the extension back along the product of the cyclic groups
    # generated by Y_E: the pairing of tuples is the sum of the
    # coordinate pairings
    for name, param in (("C4_D4", None), ("Heisenberg", 3)):
        ext, _ = preset(name, param)
        gab, a = ext.gab, ext.a
        ys = sorted(y for y in ext.y_set() if y != gab.zero())[:4]
        prod_group = AbGroup(tuple(elem_order(gab, y) for y in ys))

        def push(u):
            out = gab.zero()
            for coef, y in zip(u, ys):
                out = gab.add(out, gab.smul(coef, y))
            return out

        pull = {
            (u, v): ext.c(push(u), push(v))
            for u in prod_group.elements()
            for v in prod_group.elements()
        }
        check_cocycle(prod_group, a, pull)
        pulled = TableExtension(prod_group, a, pull)
        for u in prod_group.elements():
            for v in prod_group.elements():
                acc = a.zero()
                for i in range(len(ys)):
                    for j in range(len(ys)):
                        term = a.smul(u[i] * v[j], ext.pairing(ys[i], ys[j]))
                        acc = a.add(acc, term)
                assert pulled.pairing(u, v) == acc


def test_order_preserving_lifts_d4():
    ext, h = preset("C4_D4", None)
    lifts = list(order_preserving_lifts(ext, h))
    # reflections: lifts of order 2 over the two cosets outside <r>
    assert all(ext.ext_order(x) == elem_order(ext.gab, x[1]) for x in lifts)
    assert all(x[1] not in h for x in lifts)
    assert ext.ext_generated(lifts) == frozenset(ext.ext_elements())


def test_admissibility_rejects_full_h():
    ext, _ = preset("C4_D4", None)
    full = frozenset(ext.gab.elements())
    ok, diag = is_admissible_pair(ext, full)
    assert not ok
    assert diag


def test_quaternion_hits_and_class_count():
    hits = quaternion_pair_hits()
    assert len(hits) == 28
    for ext, h_sub in hits[:3]:
        orders = sorted(ext.ext_order(x) for x in ext.ext_elements())
        assert orders.count(4) == 8 and orders.count(2) == 7
        preim = [(av, g) for av in ext.a.elements() for g in h_sub]
        sub = ext.ext_generated(preim)
        inv = [x for x in sub if ext.ext_order(x) == 2]
        assert len(sub) == 8 and len(inv) == 1
    assert quaternion_pair_class_count() == 1


# the 2-groups among these with one involution are cyclic or Q8; over
# (C2 x C6, C2) some preimage is Q8 x C3, with one involution but order 24
QUATERNION_SHAPES = [((2, 2, 2), (2,)), ((2, 2), (2,)), ((4,), (2,)), ((2,), (4,)),
                     ((2, 4), (2,)), ((2, 2), (4,)), ((2,), (2, 2)), ((2, 6), (2,))]


def test_quaternion_decision_matches_the_table_walk():
    # _is_quaternion8 reads |A x H|, ext_order and the pairing off the class
    # key; the walk multiplies the preimage of H out in the table
    pairs = quaternions = 0
    for gab_moduli, a_moduli in QUATERNION_SHAPES:
        gab, a = AbGroup(gab_moduli), AbGroup(a_moduli)
        for ext in enumerate_central_extensions(gab, a):
            ref = TableExtension(gab, a, ext.table)
            for h_sub in subgroups(gab):
                pre = [(av, g) for av in a.elements() for g in h_sub]
                walked = (
                    len(pre) == 8
                    and sum(ref.ext_order(x) == 2 for x in pre) == 1
                    and any(ref.ext_mul(x, y) != ref.ext_mul(y, x) for x in pre for y in pre)
                )
                assert cocycle._is_quaternion8(ext, h_sub) == walked, (ext.pairs, ext.powers, h_sub)
                pairs += 1
                quaternions += walked
    assert (pairs, quaternions) == (1266, 58)


def test_quaternion_search_reads_the_index2_subgroups_off_the_masks(monkeypatch):
    # the seven subgroups of order 4 of C2^3, sorted, are the ones searched
    gab = AbGroup((2, 2, 2))
    index2 = sorted((h for h in subgroups(gab) if len(h) == 4), key=sorted)
    assert len(index2) == 7
    searched = []

    def record(ext, h_sub):
        searched.append(h_sub)
        return False

    quaternion_pair_hits.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(cocycle, "_is_quaternion8", record)
        assert quaternion_pair_hits() == ()
    quaternion_pair_hits.cache_clear()
    assert searched == index2 * 64


def test_map_table_respects_automorphism():
    gab, a = AbGroup((2, 2)), AbGroup((4,))
    rng2 = random.Random(5)
    table = random_cocycle(gab, a, rng2)
    neg = lambda v: a.neg(v)
    mapped = map_table(neg, table)
    check_cocycle(gab, a, mapped)
    e = CentralExtension.from_table(gab, a, mapped)
    base = CentralExtension.from_table(gab, a, table)
    for x in gab.elements():
        for y in gab.elements():
            assert e.pairing(x, y) == a.neg(base.pairing(x, y))


def test_json_round_trip():
    for name, param in (("C4_D4", None), ("Heisenberg", 3)):
        ext, _ = preset(name, param)
        data = json.loads(ext.dumps())
        back = CentralExtension.from_json(data)
        assert back == ext
        assert back.dumps() == ext.dumps()


def test_tables_past_the_bound_raise_at_once():
    # 343^2 entries > 2^16: nothing lists or reads the table, and from_json
    # raises on the bound before it looks at the shape of the cocycle
    ext, _ = preset("Heisenberg", 7)
    message = "^cocycle table of 117649 entries exceeds bound 65536$"
    start = time.perf_counter()
    for run in (lambda: ext.table, ext.to_json, ext.dumps):
        with pytest.raises(ValueError, match=message):
            run()
    with pytest.raises(ValueError, match=message):
        CentralExtension.from_json({"Gab": [7, 7, 7], "A": [7], "cocycle": []})
    assert time.perf_counter() - start < 0.1


def test_from_json_rejects_bad_tables():
    bad = {"Gab": [2], "A": [2], "cocycle": [[[0], [0]], [[0], [1]]]}
    # c(g,0) != 0: not normalized
    bad["cocycle"] = [[[0], [0]], [[1], [1]]]
    with pytest.raises(ValueError):
        CentralExtension.from_json(bad)
    with pytest.raises(ValueError):
        CentralExtension.from_json({"Gab": [2], "A": [2], "cocycle": [[[0]]]})
