from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemfact import arith
from lemfact.arith import (
    PrimePower,
    factorize,
    fundamental_discriminants,
    is_fundamental_discriminant,
    is_prime,
    kronecker,
    max_disc,
    power_residue_char,
    prime_discriminants,
    prime_star,
    primitive_root,
    underlying_prime,
)


def omega(n):
    """Number of distinct prime divisors of |n| (0 for units)."""
    return len(factorize(abs(n))) if abs(n) != 1 else 0


ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@given(st.integers(2, 10**6))
@settings(max_examples=300)
def test_is_prime_matches_trial_division(n):
    naive = n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))
    assert is_prime(n) == naive


@given(st.integers(1, 10**9))
@settings(max_examples=200)
def test_factorize_reconstructs(n):
    out = factorize(n)
    prod = 1
    for pp in out:
        assert is_prime(pp.q)
        prod *= pp.value
    assert prod == n
    assert [pp.q for pp in out] == sorted({pp.q for pp in out})


def test_omega_and_squarefree():
    assert omega(60) == 3
    assert omega(-60) == 3
    assert omega(1) == 0


def test_fundamental_discriminants():
    for d in (5, 8, -4, -8, -3, 12, 13, -20, 21, 205):
        assert is_fundamental_discriminant(d)
    for d in (2, 3, -5, 25, -12, 45, 0):
        assert not is_fundamental_discriminant(d)


@pytest.mark.parametrize("p,expected", [(5, 5), (13, 13), (3, -3), (7, -7), (11, -11)])
def test_prime_star(p, expected):
    assert prime_star(p) == expected


def test_prime_star_rejects_two():
    with pytest.raises(ValueError):
        prime_star(2)


@given(st.sampled_from(ODD_PRIMES), st.integers(1, 200))
@settings(max_examples=400)
def test_kronecker_matches_euler_criterion(p, a):
    if a % p == 0:
        assert kronecker(a, p) == 0
    else:
        euler = pow(a, (p - 1) // 2, p)
        assert kronecker(a, p) == (1 if euler == 1 else -1)


@given(st.integers(-100, 100), st.integers(-100, 100), st.integers(1, 60))
@settings(max_examples=400)
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(st.integers(-60, 60), st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=400)
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


@given(st.integers(-2000, 2000))
@settings(max_examples=500)
def test_prime_discriminant_factorization(d):
    if d in (0, 1) or not is_fundamental_discriminant(d):
        return
    parts = prime_discriminants(d)
    prod = 1
    for v in parts:
        assert is_fundamental_discriminant(v)
        assert v in (-4, 8, -8) or is_prime(abs(v))
        prod *= v
    assert prod == d
    assert len({underlying_prime(v) for v in parts}) == len(parts)


def per_disc_parts(lo, hi):
    return {
        d: prime_discriminants(d)
        for d in range(lo, hi)
        if d not in (0, 1) and is_fundamental_discriminant(d)
    }


BLOCK = arith._SIEVE_BLOCK


@pytest.mark.parametrize(
    "lo,hi",
    [
        (-5000, 5000),  # crosses 0
        (-2, -1),
        (1, 2),
        (10**10, 10**10 + 300),
        (BLOCK - 150, BLOCK + 150),  # crosses a block boundary
        (-BLOCK - 150, -BLOCK + 150),
        (2 * BLOCK + 7, 3 * BLOCK - 5),  # starts and ends inside one block
        (5 * BLOCK + 100, 7 * BLOCK + 33),  # spans a whole block
    ],
)
def test_sieve_matches_per_disc_reference(lo, hi):
    got = list(fundamental_discriminants(lo, hi))
    ds = [d for d, _ in got]
    assert ds == sorted(set(ds))
    assert dict(got) == per_disc_parts(lo, hi)


def test_sieve_small_blocks(monkeypatch):
    # many short blocks, one of them split by 0, and ranges cut mid-block
    monkeypatch.setattr(arith, "_SIEVE_BLOCK", 64)
    for lo, hi in ((-1000, 1000), (-37, 29), (101, 1000), (-1000, -101)):
        assert dict(fundamental_discriminants(lo, hi)) == per_disc_parts(lo, hi)


@pytest.mark.parametrize("r", range(16))
def test_sieve_progression_starts(monkeypatch, r):
    # a block size that is no multiple of 16 starts each block at another
    # residue, so every class's first d moves from block to block
    monkeypatch.setattr(arith, "_SIEVE_BLOCK", 40)
    for lo in (-800 + r, 800 + r):
        got = list(fundamental_discriminants(lo, lo + 400))
        assert got == list(per_disc_parts(lo, lo + 400).items())


def test_sieve_covers_even_discriminants():
    got = dict(fundamental_discriminants(-5000, 5000))
    assert {d % 16 for d in got} == {1, 5, 9, 13, 8, 12}
    two_parts = {v for parts in got.values() for v in parts if v % 2 == 0}
    assert two_parts == {8, -8, -4}
    assert got[8] == [8] and got[-8] == [-8] and got[-4] == [-4]
    assert got[-24] == [-3, 8] and got[24] == [-3, -8] and got[-84] == [-3, -4, -7]


def test_sieve_checks_bound_before_work(monkeypatch):
    monkeypatch.setenv("LEMFACT_MAX_DISC", "1000")
    with pytest.raises(ValueError, match="^1001 exceeds discriminant bound 1000$"):
        next(fundamental_discriminants(-1001, 3))
    assert len(list(fundamental_discriminants(-1000, 1001))) == len(
        per_disc_parts(-1000, 1001)
    )


@pytest.mark.parametrize("q", ODD_PRIMES)
def test_primitive_root_generates(q):
    g = primitive_root(q)
    seen = set()
    x = 1
    for _ in range(q * (q - 1)):
        x = x * g % (q * q)
        seen.add(x)
    assert len(seen) == q * (q - 1)


def test_primitive_root_large_prime():
    # q * (q - 1) exceeds the default discriminant bound for q > 3.04e9,
    # so only q - 1 may be factored
    q = 1000000000039
    assert is_prime(q)
    g = primitive_root(q)
    divisors = [pp.q for pp in factorize(q - 1)]

    def generates_mod_q2(x):
        # x generates (Z/q^2)^x iff it generates mod q and x^(q-1) != 1 mod q^2
        return all(pow(x, (q - 1) // r, q) != 1 for r in divisors) and pow(
            x, q - 1, q * q
        ) != 1

    assert generates_mod_q2(g)
    assert not any(generates_mod_q2(x) for x in range(2, g))


def test_power_residue_char_matches_brute_force_log():
    # reference: k is the least exponent with g^k = p, read off a table
    # filled by walking the powers of g; the character is k mod m in Z/n
    check = power_residue_char.__wrapped__  # the sweep would flood the cache
    for q in [q for q in range(3, 60) if is_prime(q)]:
        g = primitive_root(q)
        for e in (1, 2):
            mod = q**e
            phi = mod - mod // q
            log = {}
            x = 1
            for k in range(phi):
                log.setdefault(x, k)
                x = x * g % mod
            assert len(log) == phi
            for n in range(2, 13):
                m = gcd(n, phi)
                for p, k in log.items():
                    assert check(p, PrimePower(q, e), n) == (n // m) * (k % m) % n


def test_power_residue_char_large_primes():
    # cubic characters mod q^2 for primes near 10^13: m = gcd(3, phi) = 3,
    # so each is a scan of three powers of zeta
    p, q, r = 10000000000051, 10000000000099, 10000000000129
    expected = {(p, q): 2, (p, r): 2, (q, p): 1, (q, r): 2, (r, p): 2, (r, q): 2}
    for (a, b), chi in expected.items():
        assert power_residue_char(a, PrimePower(b, 2), 3) == chi


def test_power_residue_char_is_legendre_for_n2():
    for q in ODD_PRIMES:
        for p in ODD_PRIMES:
            if p == q:
                continue
            chi = power_residue_char(p, PrimePower(q, 1), 2)
            assert (-1) ** chi == kronecker(p, q)


@given(st.sampled_from(ODD_PRIMES), st.data())
@settings(max_examples=300)
def test_power_residue_char_is_homomorphism(q, data):
    n = data.draw(st.sampled_from([2, 3, 4, 5, 6]))
    p1 = data.draw(st.integers(1, 500).filter(lambda x: x % q))
    p2 = data.draw(st.integers(1, 500).filter(lambda x: x % q))
    qp = PrimePower(q, 1)
    lhs = power_residue_char(p1 * p2, qp, n)
    rhs = (power_residue_char(p1, qp, n) + power_residue_char(p2, qp, n)) % n
    assert lhs == rhs


def test_power_residue_char_prime_power_modulus():
    # mod q^2 the character has more room: gcd(n, q(q-1)) can exceed gcd(n, q-1)
    qp = PrimePower(3, 2)
    vals = {power_residue_char(p, qp, 3) for p in (2, 5, 7, 11, 13, 17)}
    assert vals == {0, 1, 2}


@pytest.mark.parametrize("n", [0, -2])
def test_power_residue_char_rejects_n_below_1(n):
    for run in (power_residue_char, power_residue_char.__wrapped__):
        with pytest.raises(ValueError, match="n must be >= 1"):
            run(3, PrimePower(7, 1), n)


def test_order_two_characters_match_the_primitive_root_scan(monkeypatch):
    # where m = gcd(n, phi) = 2, zeta = g^(phi/2) = -1 for every generator
    # g, so Euler's criterion decides the character without a primitive
    # root; the reference scans the powers of zeta as the general path does
    primes = [q for q in range(3, 200) if is_prime(q)]
    roots = {q: primitive_root(q) for q in primes}

    def refuse(q):
        raise AssertionError(f"primitive root of {q} computed")

    monkeypatch.setattr(arith, "primitive_root", refuse)
    check = arith._power_residue_char.__wrapped__  # the sweep would flood the cache
    cases = 0
    for q in primes:
        for e in (1, 2, 3):
            mod = q**e
            phi = mod - mod // q
            zeta = pow(roots[q], phi // 2, mod)
            for n in range(2, 25, 2):
                if gcd(n, phi) != 2:
                    continue
                for p in [*range(1, 2 * q), mod + 2, 10**6 + 3]:
                    if p % q == 0:
                        continue
                    k = [1, zeta].index(pow(p, phi // 2, mod))
                    assert check(p, q, e, n) == (n // 2) * k, (p, q, e, n)
                    cases += 1
    assert cases > 10**5


def test_max_disc_env_override(monkeypatch):
    monkeypatch.setenv("LEMFACT_MAX_DISC", "1000")
    assert max_disc() == 1000
    with pytest.raises(ValueError):
        factorize(10**6)
    monkeypatch.delenv("LEMFACT_MAX_DISC")
    assert max_disc() == 2**63
