import itertools
import time
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemfact import arith, criteria
from lemfact.arith import (
    is_fundamental_discriminant,
    kronecker,
    prime_discriminants,
    underlying_prime,
)
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


def ref_check_field(d):
    """The field check as the per-d reference functions make it."""
    if not is_fundamental_discriminant(d) or d == 1:
        raise ValueError(f"{d} is not a fundamental discriminant of a field")
    return prime_discriminants(d)


def outcome(f, d):
    try:
        return f(d)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("limit", [None, 10, 20, 30, 100])
def test_check_field_matches_reference(monkeypatch, limit):
    # a limit between |d|/4 and |d| reaches the bound check on |d| after
    # factoring |d/4|: its error must still come, with the same message
    monkeypatch.delenv("LEMFACT_MAX_DISC", raising=False)
    if limit is not None:
        monkeypatch.setenv("LEMFACT_MAX_DISC", str(limit))
    for d in range(-400, 400):
        assert outcome(criteria._check_field, d) == outcome(ref_check_field, d), d


@pytest.mark.parametrize("criterion", [c4_criterion, h8_criterion, prime_discriminants])
@pytest.mark.parametrize("d", [205, -420, -56, 3000116000561])
def test_criterion_factors_once(monkeypatch, criterion, d):
    calls = []
    factorize = arith.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(arith, "factorize", counting)
    criterion(d)
    assert len(calls) == 1


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


# Reference: the criteria as they were written before they took the
# prime discriminants of d, refactoring the product of every block.

def ref_splits(parts, k):
    n = len(parts)
    if k == 2:
        out = []
        for r in range(1, n):
            for idx in itertools.combinations(range(n), r):
                if 0 in idx:
                    rest = [i for i in range(n) if i not in idx]
                    out.append(
                        (prod(parts[i] for i in idx), prod(parts[i] for i in rest))
                    )
        return out
    out = []
    for ra in range(1, n - 1):
        for ia in itertools.combinations(range(1, n), ra):
            block_a = (0,) + ia
            rest = [i for i in range(n) if i not in block_a]
            for rb in range(1, len(rest)):
                for ib in itertools.combinations(rest[1:], rb - 1):
                    block_b = (rest[0],) + ib
                    block_c = [i for i in rest if i not in block_b]
                    out.append(
                        (
                            prod(parts[i] for i in block_a),
                            prod(parts[i] for i in block_b),
                            prod(parts[i] for i in block_c),
                        )
                    )
    return out


def ref_block_primes(block):
    return sorted({underlying_prime(f) for f in prime_discriminants(block)})


def ref_c4_json(d):
    parts = prime_discriminants(d)
    witnesses = []
    for d1, d2 in ref_splits(parts, 2):
        checks = [[f"({d1}/{p})", kronecker(d1, p)] for p in ref_block_primes(d2)]
        checks += [[f"({d2}/{p})", kronecker(d2, p)] for p in ref_block_primes(d1)]
        if all(v == 1 for _, v in checks):
            witnesses.append({"parts": sorted((d1, d2)), "symbol_checks": checks})
    count = 2 ** (len(parts) - 2) if witnesses else 0
    return {"exists": bool(witnesses), "witnesses": witnesses, "count_per_witness": count}


def ref_h8_json(d, sign_filter=True):
    parts = prime_discriminants(d)
    witnesses = []
    for triple in ref_splits(parts, 3):
        if sign_filter and sum(1 for t in triple if t < 0) > 1:
            continue
        checks = []
        for k in range(3):
            i, j = [t for t in range(3) if t != k]
            dij = triple[i] * triple[j]
            checks += [[f"({dij}/{p})", kronecker(dij, p)] for p in ref_block_primes(triple[k])]
        if all(v == 1 for _, v in checks):
            witnesses.append({"parts": sorted(triple), "symbol_checks": checks})
    count = 2 ** (len(parts) - 3) if witnesses else 0
    return {"exists": bool(witnesses), "witnesses": witnesses, "count_per_witness": count}


def test_criteria_match_block_refactoring_reference():
    seen = 0
    for d in range(-2999, 3000):
        if d in (0, 1) or not is_fundamental_discriminant(d):
            continue
        assert c4_criterion(d).to_json() == ref_c4_json(d), d
        assert h8_criterion(d).to_json() == ref_h8_json(d), d
        seen += 1
    assert seen > 1800


# the 3,005 fundamental |d| < 5 * 10^4 with at least four prime
# discriminants, 2,676 of them with two or more negative parts (54 and 52
# below 3000)
OMEGA_4_ROWS = [
    (d, parts) for d, parts in arith.fundamental_discriminants(-49999, 50000) if len(parts) >= 4
]


def test_criteria_from_parts_match_reference_at_omega_4_and_up():
    signed = 0
    for d, parts in OMEGA_4_ROWS:
        assert criteria.c4_from_parts(parts).to_json() == ref_c4_json(d), d
        assert criteria.h8_from_parts(parts).to_json() == ref_h8_json(d), d
        signed += sum(1 for f in parts if f < 0) > 1
    assert (len(OMEGA_4_ROWS), signed) == (3005, 2676)


def test_h8_sign_filter_drops_no_good_split():
    # By reciprocity three good blocks never hold two negative ones, so the
    # sign filter of h8_from_parts only saves symbols: without it the same
    # splits pass.  A block's sign is that of its product: 1820 = 5 * 13 *
    # (-4) * (-7) has the witness (5, 13, 28) with 28 = (-4)(-7).
    for d, parts in OMEGA_4_ROWS:
        assert criteria.h8_from_parts(parts).to_json() == ref_h8_json(d, sign_filter=False), d


# omega 11, past the splits memo: 31 H8 witnesses
OMEGA_11 = 5 * 13 * 17 * 29 * 37 * 41 * 53 * 61 * 73 * 89 * 97


@pytest.mark.parametrize("d", [5 * 13 * 17 * 29 * 37 * 41 * 53, 60060, OMEGA_11])
def test_criteria_match_reference_at_large_omega(d):
    # omega 7 (all parts positive), omega 6 with the 2-part -4, omega 11
    assert len(prime_discriminants(d)) >= 6
    assert h8_criterion(d).to_json() == ref_h8_json(d)
    assert c4_criterion(d).to_json() == ref_c4_json(d)


def test_splits_memo_matches_stream_and_stays_bounded():
    assert len(h8_criterion(OMEGA_11).witnesses) == 31
    assert all(n <= criteria._SPLITS_MEMO_MAX for n, _ in criteria._SPLITS_MEMO)
    for n in range(criteria._SPLITS_MEMO_MAX + 1):
        for k in (2, 3):
            splits = criteria._splits(n, k)
            assert splits == tuple(criteria._stream_splits(n, k)), (n, k)
            for split in splits:
                assert len(split) == k
                assert sorted(i for _, idx in split for i in idx) == list(range(n))
                for mask, idx in split:
                    assert idx and list(idx) == sorted(idx)
                    assert mask == sum(1 << i for i in idx), (n, k, mask, idx)
    assert criteria._splits(criteria._SPLITS_MEMO_MAX, 3) is criteria._splits(
        criteria._SPLITS_MEMO_MAX, 3
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: _splits(n, 3) never puts index 0 in a block of its own, "
    "so no omega = 3 discriminant has an H8 witness",
)
def test_h8_omega_3_witness():
    # 2405 = 5 * 13 * 37 with (5*13 / 37) = (5*37 / 13) = (13*37 / 5) = 1
    assert h8_criterion(2405).exists


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


def test_heisenberg_bound_raises_before_the_brute_force():
    # 10091, 12109 and 30271 are primes 1 mod 1009: the checks on the input
    # pass, and the 1009^3 triples (A, B, C) would take minutes
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        heisenberg_criterion(1009, 10091, 12109, 30271)
    assert time.perf_counter() - start < 0.5
    assert str(exc.value) == "1027243729 triples (A, B, C) exceed bound 65536"
    # the checks on the input still come first; 37 is the largest ell
    # within the bound, like the Heisenberg preset's
    with pytest.raises(ValueError, match="^12111 is not prime$"):
        heisenberg_criterion(1009, 10091, 12109, 12111)
    with pytest.raises(ValueError, match="^68921 triples"):
        heisenberg_criterion(41, 83, 739, 821)
    assert heisenberg_criterion(37, 149, 223, 593).characters


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
