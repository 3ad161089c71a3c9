"""Exact elementary number theory: factorization, discriminants, Kronecker
symbols, primitive roots, and power-residue characters."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

_DEFAULT_MAX_DISC = 2**63

# bases giving a deterministic Miller-Rabin test below _MR_LIMIT; without
# 41 the strong pseudoprime 318665857834031151167461 passes
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (psi_k, k): psi_k is the least strong pseudoprime to the first k bases,
# so below it those k bases decide; listed where psi_k grows (Jaeschke,
# Math. Comp. 61, 1993; Jiang and Deng, Math. Comp. 83, 2014; Sorenson and
# Webster, Math. Comp. 86, 2017).  From the last on, all the bases run
_MR_ROUNDS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)
# the least strong pseudoprime to every base above; from it on, is_prime
# adds a strong Lucas test (Baillie-PSW)
_MR_LIMIT = 3317044064679887385961981


def max_disc() -> int:
    return int(os.environ.get("LEMFACT_MAX_DISC", _DEFAULT_MAX_DISC))


def check_disc_bound(n: int):
    """Raise ValueError when n exceeds max_disc(); reads it once."""
    limit = max_disc()
    if n > limit:
        raise ValueError(f"{n} exceeds discriminant bound {limit}")


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    k = next((k for psi, k in _MR_ROUNDS if n < psi), len(_MR_BASES))
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_LIMIT or _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 1 with Selfridge's
    parameters: the first D of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4 (Baillie and Wagstaff, Math. Comp. 35, 1980)."""
    if isqrt(n) ** 2 == n:  # no D has (D/n) = -1
        return False
    D = 5
    while (j := kronecker(D, n)) != -1:
        if j == 0:
            return n == abs(D)
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k, Q^k mod n from k = 1 along the bits of d (P = 1)
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            u = (u + n if u & 1 else u) // 2
            v = (v + n if v & 1 else v) // 2
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


@dataclass(frozen=True)
class PrimePower:
    q: int
    e: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")
        if self.e < 1:
            raise ValueError("exponent must be >= 1")

    @property
    def value(self) -> int:
        return self.q**self.e


def factorize(n: int) -> list[PrimePower]:
    """Trial-division factorization, primes ascending; [] for n = 1."""
    if n < 1:
        raise ValueError("n must be positive")
    check_disc_bound(n)
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append(PrimePower(p, e))
    d = 5
    step = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append(PrimePower(d, e))
        d += step
        step = 6 - step
    if n > 1:
        out.append(PrimePower(n, 1))
    return out


def _prime_disc_parts(d: int) -> list[int] | None:
    """prime_discriminants(d) from one factorization: of |d| when d = 1
    mod 4, of |d/4| when d/4 = 2, 3 mod 4; None when d is not a
    fundamental discriminant.  The bound is checked on the number
    factored only."""
    if d % 4 == 1:
        m = d
    elif d % 4 == 0 and d // 4 % 4 in (2, 3):
        m = d // 4
    else:
        return None
    factors = factorize(abs(m))
    if any(pp.e > 1 for pp in factors):
        return None
    parts = [prime_star(pp.q) for pp in factors if pp.q != 2]
    two = d // prod(parts)
    return sorted(parts + [two] if two != 1 else parts, key=abs)


def is_fundamental_discriminant(d: int) -> bool:
    return _prime_disc_parts(d) is not None


def prime_star(p: int) -> int:
    """The prime discriminant (-1)^((p-1)/2) * p attached to an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return p if p % 4 == 1 else -p


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), extending the Jacobi symbol to all n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a == 0 and abs(n) != 1:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    # factor out 2s from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    a %= n
    # Jacobi for odd n >= 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def prime_discriminants(d: int) -> list[int]:
    """Unique factorization of a fundamental discriminant into prime
    discriminants (p* for odd p; one of -4, 8, -8 at 2)."""
    parts = _prime_disc_parts(d)
    if parts is None:
        raise ValueError(f"{d} is not a fundamental discriminant")
    check_disc_bound(abs(d))
    return parts


_SIEVE_BLOCK = 1 << 14


def _odd_primes(limit: int):
    """The odd primes <= limit, ascending.  Sieved block by block with the
    odd primes <= isqrt(limit), so memory stays within one block."""
    small = list(_odd_primes(isqrt(limit))) if limit >= 9 else []
    for a in range(3, limit + 1, _SIEVE_BLOCK):  # a stays odd
        b = min(a + _SIEVE_BLOCK, limit + 1)
        marks = bytearray(b"\x01") * (b - a)
        for p in small:
            if p * p >= b:
                break
            s = max(p * p, -(-a // p) * p) - a
            marks[s::p] = bytes(len(range(s, b - a, p)))
        yield from compress(range(a, b, 2), marks[::2])


# the classes of d that can be fundamental, as (residue, modulus, 2-part):
# d = 1 mod 4 has none; d = 12 mod 16 has -4; d = 8 mod 16 has 8 or -8
# as d/8 = 1 or 3 mod 4, so it is walked as its two halves mod 32
_FUNDAMENTAL_CLASSES = ((1, 4, 1), (12, 16, -4), (8, 32, 8), (24, 32, -8))


def fundamental_discriminants(lo: int, hi: int):
    """(d, prime_discriminants(d)) for every fundamental d not in {0, 1}
    with lo <= d < hi, d ascending, from one segmented sieve.

    d is fundamental iff d = 1 mod 4, d = 8 mod 16 or d = 12 mod 16, and
    the odd part of d is squarefree.  Each block of _SIEVE_BLOCK values
    visits only those classes, sieved by the odd primes <= isqrt(max |d|
    in the block): they give the squarefree test and every odd prime
    factor but at most one, the cofactor.  The bound is checked once,
    before any sieving.
    """
    check_disc_bound(max(abs(lo), abs(hi - 1)) if lo < hi else 0)
    a = lo
    while a < hi:
        b = min(hi, (a // _SIEVE_BLOCK + 1) * _SIEVE_BLOCK)
        # per class: first d >= a, step, 2-part, the p* of the sieved
        # primes dividing each d, and 1 where the odd part is squarefree
        progs = []
        for r, m, two in _FUNDAMENTAL_CLASSES:
            s = a + (r - a) % m
            n = len(range(s, b, m))
            squarefree = bytearray(b"\x01") * n
            if s <= 1 < b and m == 4:
                squarefree[(1 - s) // 4] = 0
            progs.append((s, m, two, [[] for _ in range(n)], squarefree))
        for p in _odd_primes(isqrt(max(abs(a), abs(b - 1)))):
            star = p if p % 4 == 1 else -p
            pp = p * p
            for s, m, _, stars, squarefree in progs:
                # p | s + m*j iff j = -s/m mod p, and p^2 | it iff j = -s/m
                # mod p^2
                j = -s * pow(m, -1, pp) % pp
                for i in range(j % p, len(stars), p):
                    stars[i].append(star)
                squarefree[j::pp] = bytes(len(range(j, len(squarefree), pp)))
        rows = []
        for s, m, two, stars, squarefree in progs:
            for d, parts in compress(zip(range(s, b, m), stars), squarefree):
                # the sieved p* arrive ascending in p; the cofactor q* is
                # what d leaves, one prime above all of them
                q = d // two // prod(parts)
                if q != 1:
                    parts.append(q)
                if two != 1:
                    parts.append(two)
                    parts.sort(key=abs)
                rows.append((d, parts))
        # one ascending run per class: the sort merges them, comparing d
        # alone as no two rows share it
        rows.sort()
        yield from rows
        a = b


def underlying_prime(disc_factor: int) -> int:
    """The prime a prime discriminant is ramified at."""
    return 2 if disc_factor % 2 == 0 else abs(disc_factor)


@lru_cache(maxsize=1 << 16)
def primitive_root(q: int) -> int:
    """Smallest positive generator of (Z/q^2)^x, which also generates
    (Z/q^e)^x for every e >= 1.  q must be an odd prime."""
    if q == 2 or not is_prime(q):
        raise ValueError(f"{q} is not an odd prime")
    order = q * (q - 1)
    # q is prime, so only q - 1 needs factoring
    prime_divs = [q] + [pp.q for pp in factorize(q - 1)]
    g = 2
    while any(pow(g, order // r, q * q) == 1 for r in prime_divs):
        g += 1
    return g


@lru_cache(maxsize=1 << 18)
def power_residue_char(p: int, qp: PrimePower, n: int) -> int:
    """Image of p in (Z/q^e)^x modulo n-th powers, as a residue in Z/nZ.

    With phi = q^(e-1)(q-1) and m = gcd(n, phi), p maps to its discrete
    log k (base the engine-wide smallest primitive root g) reduced mod m,
    then embedded into Z/nZ via multiplication by n/m.  Only k mod m is
    needed: p^(phi/m) = zeta^k with zeta = g^(phi/m) of order m, so a scan
    of the m powers of zeta finds it in O(m) steps, m dividing n.  For
    m = 2, zeta = -1 whatever g is (Euler's criterion), and no primitive
    root is computed.
    """
    return _power_residue_char.__wrapped__(p, qp.q, qp.e, n)


@lru_cache(maxsize=1 << 18)
def _power_residue_char(p: int, q: int, e: int, n: int) -> int:
    """power_residue_char(p, PrimePower(q, e), n), keyed on plain integers
    for the solver: q must be prime and e >= 1, which PrimePower would
    check."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if q == 2:
        raise ValueError("power-residue characters require odd q")
    if p % q == 0:
        raise ValueError(f"ramified argument: {p} not coprime to {q}")
    if n == 1:
        return 0
    phi = q ** (e - 1) * (q - 1)
    m = gcd(n, phi)
    if m == 1:
        return 0
    mod = q**e
    x = pow(p, phi // m, mod)
    if m == 2:
        if x == 1:
            return 0
        if x == mod - 1:
            return n // 2
        raise AssertionError(f"{x} is not a square root of 1 mod {mod}")
    zeta = pow(primitive_root(q), phi // m, mod)
    cur = 1
    for k in range(m):
        if cur == x:
            return (n // m) * k % n
        cur = cur * zeta % mod
    raise AssertionError(f"{x} is not a power of {zeta} mod {mod}")
