"""Differential tests of arith against sympy, skipped when it is absent."""

import random
from math import gcd

import pytest

from lemfact import arith
from lemfact.arith import (
    PrimePower,
    factorize,
    is_prime,
    kronecker,
    power_residue_char,
    primitive_root,
)

pytest.importorskip("sympy")
from sympy import discrete_log, factorint, isprime, jacobi_symbol  # noqa: E402
from sympy import primitive_root as sympy_root  # noqa: E402

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 75361,
              101101, 126217, 172081, 188461, 278545, 552721, 9999109081)
# the least strong pseudoprime to each prefix of the bases 2, 3, 5, ...: 2047
# passes base 2, 3215031751 bases 2..7, 318665857834031151167461 bases 2..37,
# 3317044064679887385961981 bases 2..41
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051, 318665857834031151167461,
                       3317044064679887385961981)
# the strong Lucas pseudoprimes (Selfridge parameters) below 10^5, OEIS A217255
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                             58519, 75077, 97439)


def test_is_prime_matches_sympy_below_20000():
    assert [n for n in range(1, 20001) if is_prime(n)] == [
        n for n in range(1, 20001) if isprime(n)
    ]


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_pseudoprimes(n):
    assert not isprime(n)
    assert not is_prime(n)


def test_is_prime_matches_sympy_near_pseudoprimes_and_large():
    rng = random.Random(11)
    ns = [n + k for n in CARMICHAEL + STRONG_PSEUDOPRIMES for k in range(-40, 41)]
    ns += [rng.randrange(2, 10**24) for _ in range(2000)]
    ns += [2**61 - 1, 2**89 - 1, 2**64 - 59, 10**18 + 3, 10**24 + 7]
    # past the deterministic bases, where the strong Lucas test decides
    ns += [rng.randrange(34 * 10**23, 10**30) | 1 for _ in range(500)]
    ns += [2**107 - 1, 2**127 - 1, 2**127 + 1]
    assert [n for n in ns if is_prime(n)] == [n for n in ns if isprime(n)]


def strong_probable_prime(n: int, a: int) -> bool:
    """Whether the odd n > 2 passes the Miller-Rabin test to base a."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_runs_the_bases_each_range_needs():
    # below psi_k, the least strong pseudoprime to the first k bases, is_prime
    # runs those k only; each psi_k passes them, so each range is as wide
    # as it can be, and is_prime matches sympy within 40 of each threshold
    thresholds = [psi for psi, _ in arith._MR_ROUNDS] + [arith._MR_LIMIT]
    assert thresholds == list(STRONG_PSEUDOPRIMES)
    for psi, k in arith._MR_ROUNDS:
        assert all(strong_probable_prime(psi, a) for a in arith._MR_BASES[:k])
    assert all(strong_probable_prime(arith._MR_LIMIT, a) for a in arith._MR_BASES)
    ns = [psi + k for psi in thresholds for k in range(-40, 41)]
    assert [n for n in ns if is_prime(n)] == [n for n in ns if isprime(n)]


def test_strong_lucas_pseudoprimes():
    odd = range(3, 10**5, 2)
    assert [n for n in odd if not isprime(n) and arith._strong_lucas(n)] == list(
        STRONG_LUCAS_PSEUDOPRIMES
    )
    assert all(arith._strong_lucas(n) for n in odd if isprime(n))


def test_factorize_matches_factorint():
    rng = random.Random(12)
    ns = list(range(1, 5000))
    ns += [rng.randrange(1, 10**10) for _ in range(200)]
    ns += [1000003 * 1000033, 2**40 * 3**5, 999983**2, 2**31 - 1]
    for n in ns:
        assert {pp.q: pp.e for pp in factorize(n)} == factorint(n), n


def test_kronecker_matches_jacobi_on_odd_n():
    rng = random.Random(13)
    pairs = [(a, n) for a in range(-60, 61) for n in range(1, 200, 2)]
    pairs += [(rng.randrange(-10**15, 10**15), 2 * rng.randrange(10**12) + 1) for _ in range(2000)]
    for a, n in pairs:
        assert kronecker(a, n) == jacobi_symbol(a, n), (a, n)


def test_primitive_root_matches_sympy():
    # arith takes the least root mod q^2; below 10^4 it is the least mod q
    for q in range(3, 10**4, 2):
        if isprime(q):
            assert primitive_root(q) == sympy_root(q), q


def test_power_residue_char_matches_discrete_log():
    ps = [p for p in range(3, 300) if isprime(p)]
    for q in (p for p in range(3, 400) if isprime(p)):
        g = sympy_root(q)
        for n in range(2, 13):
            m = gcd(n, q - 1)
            for p in ps:
                if p == q:
                    continue
                expected = (n // m) * (discrete_log(q, p, g) % m) % n
                assert power_residue_char(p, PrimePower(q, 1), n) == expected, (p, q, n)
