import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemfact.arith import is_fundamental_discriminant, kronecker, prime_discriminants
from lemfact.criteria import c4_criterion, h8_criterion, heisenberg_criterion
from lemfact.oracle import redei_rank


def test_c4_known_positive():
    rep = c4_criterion(205)
    assert rep.exists
    assert [w.parts for w in rep.witnesses] == [(5, 41)]
    assert rep.count_per_witness == 1
    assert all(v == 1 for _, v in rep.witnesses[0].symbol_checks)


def test_c4_known_negatives():
    for d in (5, -4, 8, 65, 105, -84):
        rep = c4_criterion(d)
        assert not rep.exists
        assert rep.count_per_witness == 0


def test_c4_rejects_non_fundamental():
    for d in (12 * 4, 45, 0, 1, -12):
        with pytest.raises(ValueError):
            c4_criterion(d)


def test_c4_count_grows_with_omega():
    rep = c4_criterion(5 * 41 * 61)
    assert rep.exists
    assert rep.count_per_witness == 2


@given(st.integers(-3000, 3000))
@settings(max_examples=500, deadline=None)
def test_c4_witnesses_verify(d):
    if d in (0, 1) or not is_fundamental_discriminant(d):
        return
    rep = c4_criterion(d)
    parts = prime_discriminants(d)
    for w in rep.witnesses:
        d1, d2 = w.parts
        assert d1 * d2 == d
        # the split refines the prime-discriminant factorization
        assert all(d1 % v == 0 or d2 % v == 0 for v in parts)
        for p in {abs(v) if v % 2 else 2 for v in prime_discriminants(d2)}:
            assert kronecker(d1, p) == 1
        for p in {abs(v) if v % 2 else 2 for v in prime_discriminants(d1)}:
            assert kronecker(d2, p) == 1
    if rep.exists:
        assert rep.count_per_witness == 2 ** (len(parts) - 2)


def test_c4_witness_count_is_redei_reichardt():
    # Redei-Reichardt: the C4 splittings of d number 2^{r4} - 1
    for d in range(-1999, 2000):
        if d in (0, 1) or not is_fundamental_discriminant(d):
            continue
        assert len(c4_criterion(d).witnesses) == 2 ** redei_rank(d) - 1, d


def test_h8_small_negatives():
    for d in (5, 105, 120, -84, 408):
        assert not h8_criterion(d).exists


def test_h8_known_hits():
    rep = h8_criterion(-420)
    assert rep.exists
    assert (-4, 5, 21) in [w.parts for w in rep.witnesses]
    # -420 splits into 4 prime discriminants (-4, 5, -3, -7)
    assert rep.count_per_witness == 2
    rep = h8_criterion(1820)
    assert rep.exists
    assert (5, 13, 28) in [w.parts for w in rep.witnesses]
    # omega(1820) = 4 prime discriminants -> 2 per witness
    assert rep.count_per_witness == 2


def test_h8_at_most_one_negative_part():
    for d in range(-3, -3000, -1):
        if not is_fundamental_discriminant(d):
            continue
        for w in h8_criterion(d).witnesses:
            assert sum(1 for t in w.parts if t < 0) <= 1
            assert all(v == 1 for _, v in w.symbol_checks)


def test_heisenberg_hypothesis_errors():
    with pytest.raises(ValueError):
        heisenberg_criterion(2, 7, 13, 43)
    with pytest.raises(ValueError):
        heisenberg_criterion(9, 7, 13, 43)
    with pytest.raises(ValueError):
        heisenberg_criterion(3, 11, 13, 43)  # 11 not 1 mod 3
    with pytest.raises(ValueError):
        heisenberg_criterion(3, 7, 7, 13)
    with pytest.raises(ValueError):
        heisenberg_criterion(3, 3, 7, 13)
    with pytest.raises(ValueError):
        heisenberg_criterion(3, 7, 13, 45)


def test_heisenberg_known_example():
    rep = heisenberg_criterion(3, 7, 13, 43)
    assert rep.exists
    assert rep.count == 2
    assert len(rep.characters) == 6
    for a, b, c in rep.solutions:
        assert (a + b + c) % 3 != 0


def test_heisenberg_solutions_closed_under_scaling():
    for primes in ((7, 13, 43), (7, 19, 37), (13, 19, 31)):
        rep = heisenberg_criterion(3, *primes)
        sols = set(rep.solutions)
        for a, b, c in sols:
            assert ((2 * a) % 3, (2 * b) % 3, (2 * c) % 3) in sols


def test_heisenberg_count_is_ell_minus_one():
    hits = 0
    ps5 = [11, 31, 41, 61, 71, 101, 131, 151]
    import itertools

    for triple in itertools.combinations(ps5, 3):
        rep = heisenberg_criterion(5, *triple)
        if rep.exists:
            hits += 1
            assert rep.count == 4
            # solution count is a union of scaling orbits of size ell-1
            assert len(rep.solutions) % 4 == 0
    assert hits >= 1
