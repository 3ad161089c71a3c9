"""Imaginary-quadratic class groups from scratch: reduced binary
quadratic forms, Gauss composition via ideal multiplication, the group
structure from the sizes of its p-power kernels, 2- and 4-ranks, and the
Redei matrix.

This is the ground truth the classical criteria are checked against, so
it shares no code path with them beyond the Kronecker symbol (which the
Redei matrix needs by definition) and the discriminant bound check.  It
factors by its own trial division (`_factor`, `_prime_discs` per d;
`redei_ranks` across a block of d at once), and decides whether one d is
fundamental by a squarefree test to the cube root (`_is_fundamental`),
so a d past the oracle bound is refused without being factored.  It
squares a form by the duplication formula (Cohen, GTM 138, Alg. 5.4.7
with f1 = f2) on plain (a, b, c) triples, with the lattice composition
`compose` as its independent reference.  `rank_sweep` takes
fundamentality from primitivity: d is fundamental exactly when every
reduced form of discriminant d is primitive, since g (a, b, c) has
discriminant g^2 disc(a, b, c).  It marks the d with an imprimitive
reduced form as the progressions k^2 d' (k >= 2, d' <= -3 a
discriminant), since k times the principal form of d' is reduced, and
it enumerates only the reduced forms whose discriminant is in its
window, twice: once to count h and the ambiguous forms, and once to
square forms of the d whose h leaves room for a 4-rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import zip_longest
from math import gcd, isqrt, prod

from .abelian import AbGroup
from .arith import check_disc_bound, kronecker, max_disc


@dataclass(frozen=True)
class QuadForm:
    """Positive definite integral binary quadratic form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.disc >= 0:
            raise ValueError(f"({self.a},{self.b},{self.c}) is not positive definite")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_ambiguous(self) -> bool:
        """Order at most 2 in the class group (for reduced forms)."""
        return self.b == 0 or self.a == self.b or self.a == self.c


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced form of the class of the positive definite form
    (a, b, c): -a < b <= a <= c, and b >= 0 when a = c."""
    while True:
        if b > a or b <= -a:
            # translate b into (-a, a]
            k = (a - b) // (2 * a)
            c += k * (b + k * a)
            b += 2 * k * a
        if a <= c:
            break
        a, b, c = c, -b, a
    if a == c and b < 0:
        b = -b
    return a, b, c


def reduce_form(f: QuadForm) -> QuadForm:
    return QuadForm(*_reduce(f.a, f.b, f.c))


def principal_form(d: int) -> QuadForm:
    if d >= 0 or d % 4 not in (0, 1):
        raise ValueError(f"{d} is not a negative discriminant")
    if d % 4 == 0:
        return QuadForm(1, 0, -d // 4)
    return QuadForm(1, 1, (1 - d) // 4)


def opposite(f: QuadForm) -> QuadForm:
    return reduce_form(QuadForm(f.a, -f.b, f.c))


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _module_to_form(gens, d) -> QuadForm:
    """The reduced form of the ideal class spanned by the given
    generators, written as (x, y) for the element (x + y sqrt(d)) / 2."""
    # column reduction to a basis (alpha, 0), (beta, gamma)
    beta_x, gamma = 0, 0
    xs = []
    for x, y in gens:
        if y == 0:
            xs.append(x)
            continue
        if gamma == 0:
            beta_x, gamma = x, y
            continue
        g, u, v = _xgcd(gamma, y)
        new_bx = u * beta_x + v * x
        xs.append((gamma // g) * x - (y // g) * beta_x)
        beta_x, gamma = new_bx, g
    if gamma < 0:
        beta_x, gamma = -beta_x, -gamma
    alpha = abs(reduce(gcd, xs, 0))
    if alpha == 0 or gamma == 0:
        raise ValueError("generators do not span a full module")
    a, r = divmod(alpha, 2 * gamma)
    if r:
        raise AssertionError("module is not an ideal: bad norm")
    b = (beta_x // gamma) % (2 * a)
    if (b * b - d) % (4 * a):
        raise AssertionError("module is not an ideal: bad trace")
    return reduce_form(QuadForm(a, b, (b * b - d) // (4 * a)))


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition: multiply the corresponding ideals [a, (-b+sqrt d)/2]
    and read the product lattice back off in Hermite form."""
    d = f.disc
    if g.disc != d:
        raise ValueError(f"discriminant mismatch: {d} vs {g.disc}")
    a1, b1 = f.a, -f.b
    a2, b2 = g.a, -g.b
    gens = (
        (2 * a1 * a2, 0),
        (a1 * b2, a1),
        (a2 * b1, a2),
        ((b1 * b2 + d) // 2, (b1 + b2) // 2),
    )
    h = _module_to_form(gens, d)
    return reduce_form(QuadForm(h.a, -h.b, h.c))


def _square(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced square of the primitive form (a, b, c), by duplication
    (Cohen, GTM 138, Alg. 5.4.7 with f1 = f2): with g = gcd(a, b) =
    s b + t a, m = a / g and r = -s c mod m, the square is the class of
    (m^2, b + 2 m r, .).  s is needed only mod m, where it is the inverse
    of b / g."""
    g = gcd(a, b)
    m = a // g
    r = -c * pow(b // g, -1, m) % m
    a2 = m * m
    b2 = b + 2 * m * r
    return _reduce(a2, b2, (b2 * b2 - b * b + 4 * a * c) // (4 * a2))


def square(f: QuadForm) -> QuadForm:
    """compose(f, f) for a primitive f, by duplication (_square)."""
    return QuadForm(*_square(f.a, f.b, f.c))


def form_pow(f: QuadForm, n: int) -> QuadForm:
    if n < 0:
        return form_pow(opposite(f), -n)
    result = principal_form(f.disc)
    base = reduce_form(f)
    while n:
        if n & 1:
            result = compose(result, base)
        base = square(base)
        n >>= 1
    return result


def _oracle_limit() -> int:
    return min(10**6, max_disc())


def _factor(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n >= 1, p
    ascending, by trial division; the discriminant bound is checked on n
    first."""
    check_disc_bound(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _prime_discs(d: int) -> list[int] | None:
    """The prime discriminants of d (p* = +-p = 1 mod 4 for odd p; -4, 8
    or -8 at 2), ascending in absolute value, or None when d is not a
    fundamental discriminant.  Factors |d| when d = 1 mod 4 and |d/4| when
    d = 8, 12 mod 16, so the bound check names that number."""
    if d == 1:
        return []
    if d % 4 == 1:
        n = d
    elif d % 16 in (8, 12):
        n = d // 4
    else:
        return None
    factors = _factor(abs(n))
    if any(e > 1 for _, e in factors):
        return None
    parts = [p if p % 4 == 1 else -p for p, _ in factors if p != 2]
    two = d // prod(parts)
    if two != 1:
        parts.append(two)
    return sorted(parts, key=abs)


def _squarefree(n: int) -> bool:
    """Whether n >= 1 is squarefree, by trial division up to the cube root
    of what is left: the cofactor then has at most two prime factors, so
    it is squarefree unless it is a square above 1."""
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    r = isqrt(n)
    return n == 1 or r * r != n


def _is_fundamental(d: int) -> bool:
    """Whether _prime_discs(d) is not None, without factoring: d = 1 mod 4
    or 8, 12 mod 16, and |d| or |d/4| squarefree.  The bound check names
    that number, as _prime_discs does."""
    if d % 4 == 1:
        n = d
    elif d % 16 in (8, 12):
        n = d // 4
    else:
        return False
    check_disc_bound(abs(n))
    return _squarefree(abs(n))


def _check_disc(d: int):
    if d >= 0:
        raise ValueError(f"imaginary quadratic oracle needs d < 0, got {d}")
    if not _is_fundamental(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    limit = _oracle_limit()
    if -d > limit:
        raise ValueError(f"|{d}| exceeds oracle bound {limit}")


def _exact_log(n: int, p: int, message: str) -> int:
    """log_p of a count that theory makes a power of p (genus theory for
    the ambiguous forms, with p = 2; a p-power kernel of the class group);
    AssertionError(message) when it is not."""
    k, m = 0, 1
    while m < n:
        k, m = k + 1, m * p
    if m != n:
        raise AssertionError(message)
    return k


def reduced_forms(d: int) -> list[QuadForm]:
    """All reduced forms of discriminant d, lexicographic in (a, b)."""
    _check_disc(d)
    out = []
    amax = isqrt(-d // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            c, r = divmod(num, 4 * a)
            if r or c < a:
                continue
            if a == c and b < 0:
                continue
            out.append(QuadForm(a, b, c))
    return out


def class_number(d: int) -> int:
    return len(reduced_forms(d))


def naive_form_count(d: int) -> int:
    """Independent count of reduced forms: loop over b and the divisors
    of (b^2 - d)/4; shares no code with reduced_forms."""
    _check_disc(d)
    count = 0
    b = d & 1
    while 3 * b * b <= -d:
        n = (b * b - d) // 4
        a = b if b else 1
        while a * a <= n:
            if a and n % a == 0:
                c = n // a
                if b < a < c:
                    count += 2 if b else 1
                elif b <= a <= c:
                    count += 1
            a += 1
        b += 2
    return count


def class_group_structure(d: int) -> tuple[AbGroup, int]:
    """Invariant factors and order of the form class group, read off the
    sizes of its p-power kernels.

    For each p^k exactly dividing h, round j raises the previous round's
    powers of the reduced forms to the p-th power; the forms whose power
    is then principal are the kernel of p^j, of size p^t_j.  So
    c_j = t_j - t_(j-1) cyclic factors of the p-part have order at least
    p^j, its i-th largest exponent is e_i = #{j : c_j > i}, and the i-th
    largest invariant factor is the product over p of p^e_i."""
    forms = reduced_forms(d)
    h = len(forms)
    e = principal_form(d)
    parts = []
    for p, k in _factor(h):
        powers, t = forms, [0]
        for _ in range(k):
            powers = [form_pow(f, p) for f in powers]
            n = powers.count(e)
            t.append(_exact_log(n, p, f"kernel size {n} is not a power of {p}"))
        c = [b - a for a, b in zip(t, t[1:])]
        parts.append([p ** sum(cj > i for cj in c) for i in range(c[0])])
    invariants = sorted(prod(ms) for ms in zip_longest(*parts, fillvalue=1))
    if prod(invariants) != h:
        raise AssertionError("invariant factors do not multiply to h")
    return AbGroup(tuple(invariants)), h


def two_rank(d: int) -> int:
    """log2 of the number of ambiguous reduced forms."""
    n = sum(1 for f in reduced_forms(d) if f.is_ambiguous())
    return _exact_log(n, 2, f"ambiguous form count {n} is not a power of 2")


def four_rank(d: int) -> int:
    """Dimension of Cl[2] intersected with the squares, by squaring
    every reduced form."""
    forms = reduced_forms(d)
    amb_squares = {g for g in (square(f) for f in forms) if g.is_ambiguous()}
    n = len(amb_squares)
    return _exact_log(n, 2, f"ambiguous square count {n} is not a power of 2")


def _window_pairs(lo: int, hi: int):
    """(a, c, n, bs) for each pair (a, c) with a reduced form (a, b, c),
    0 <= b <= a, of discriminant in [lo, hi): n = lo + 4ac, and bs are
    those b, each giving the form of discriminant lo + b^2 - n."""
    for a in range(1, isqrt(-lo // 3) + 1):
        for c in range(max(a, -hi // (4 * a) + 1), (a * a - lo) // (4 * a) + 1):
            # the b in [0, a] with n <= b^2 < n + hi - lo
            n = lo + 4 * a * c
            bmin = isqrt(n - 1) + 1 if n > 0 else 0
            yield a, c, n, range(bmin, isqrt(min(a * a, n + hi - lo - 1)) + 1)


def rank_sweep(lo: int, hi: int):
    """two_rank and four_rank for every fundamental discriminant in
    [lo, hi), d < 0, via two walks over the reduced forms in range.

    Returns {d: (two_rank, four_rank)}, d ascending.  Both walks run over
    (a, c) and take from [lo, hi) the b with 0 <= b <= a, so every b they
    visit gives a form in the window.  The first counts, per d, the class
    number h (a form with 0 < b < a < c stands for itself and its
    inverse (a, -b, c), also reduced; an ambiguous form for itself) and
    the ambiguous forms, 2^r2 by genus theory.  Cl[4] has order
    2^(r2 + r4) and divides h, so r4 <= cap = min(r2, v2(h) - r2), and
    the second walk squares forms only for the d with cap > 0, until the
    ambiguous squares of d, the principal form among them, number
    2^cap.
    Only one form of each inverse pair is squared: a reduced form with
    b < 0 is never ambiguous, and its square is the inverse of the square
    of (a, -b, c), so it has the same ambiguous reduced form.
    two_rank/four_rank square every form and stay the reference.

    A d = 0, 1 mod 4 has an imprimitive reduced form exactly when
    d = k^2 d' for some k >= 2 and some discriminant d' <= -3: then
    k (1, b0, c0), k times the principal form of d', is reduced, and
    conversely k (a, b, c) reduced makes (a, b, c) reduced of
    discriminant d / k^2.  So the progressions k^2 d' (d' = 0 and 1 mod
    4) with step 4 k^2 are marked first, and every d = 0, 1 mod 4 left
    unmarked is fundamental; no form of a non-fundamental d is squared.
    Raises ValueError, before any enumeration, when the range holds a
    fundamental discriminant past the oracle bound.
    """
    if lo >= hi or hi > 0:
        raise ValueError("need lo < hi <= 0")
    limit = _oracle_limit()
    for d in range(lo, min(hi, -limit)):
        if _is_fundamental(d):
            raise ValueError(f"|{d}| exceeds oracle bound {limit}")
    imprimitive = bytearray(hi - lo)  # index d - lo
    for k in range(2, isqrt(-lo // 3) + 1):
        step = 4 * k * k
        # top = k^2 d' for d' = -4 and -3, the greatest d' = 0 and 1 mod 4;
        # mark the d = top mod step from the least d >= lo up to top
        for top in (-step, -3 * k * k):
            start = (top - lo) % step
            stop = min(top + 1, hi) - lo
            if start < stop:
                imprimitive[start:stop:step] = b"\x01" * len(range(start, stop, step))
    # per d - lo: the ambiguous reduced forms and the inverse pairs of
    # the other reduced forms, counted for every d of the window
    amb = [0] * (hi - lo)
    pairs = [0] * (hi - lo)
    for a, c, n, bs in _window_pairs(lo, hi):
        for b in bs:
            if b == 0 or b == a or a == c:
                amb[b * b - n] += 1
            else:
                pairs[b * b - n] += 1
    # per fundamental d - lo: r2, and for the d with cap > 0 the ambiguous
    # squares found; open_[i] is (those squares, 2^cap) while fewer than
    # 2^cap are found, else None
    two_ranks = {}
    squares_of = {}
    open_ = [None] * (hi - lo)
    for i, count in enumerate(amb):
        d = lo + i
        if d % 4 > 1 or imprimitive[i]:
            continue
        r2 = two_ranks[i] = _exact_log(count, 2, f"non-power-of-2 ambiguous counts at {d}")
        h = 2 * pairs[i] + count
        cap = min(r2, (h & -h).bit_length() - 1 - r2)
        if cap > 0:
            # the principal form is its own square
            squares = squares_of[i] = {(1, d & 1, ((d & 1) - d) // 4)}
            open_[i] = squares, 1 << cap
    for a, c, n, bs in _window_pairs(lo, hi):
        if a == c:
            continue
        for b in bs:
            i = b * b - n
            slot = open_[i]
            if slot is None or b == 0 or b == a:
                continue
            sa, sb, sc = _square(a, b, c)
            if sb == 0 or sa == sb or sa == sc:
                squares, target = slot
                squares.add((sa, sb, sc))
                if len(squares) == target:
                    open_[i] = None
    out = {}
    for i, r2 in two_ranks.items():
        squares = squares_of.get(i)
        message = f"non-power-of-2 ambiguous counts at {lo + i}"
        out[lo + i] = r2, _exact_log(len(squares), 2, message) if squares else 0
    return out


def redei_matrix(d: int):
    """Matrix over F2 indexed by the prime discriminant factors of d;
    rows as bitmasks, bit j set when the symbol is -1."""
    parts = _prime_discs(d)
    if parts is None or d == 1:
        raise ValueError(f"{d} is not a fundamental discriminant of a field")
    check_disc_bound(abs(d))  # not only the |d/4| that _prime_discs factored
    primes = [2 if v % 2 == 0 else abs(v) for v in parts]
    t = len(parts)
    rows = []
    for i in range(t):
        row = 0
        for j in range(t):
            if i == j:
                sym = kronecker(d // parts[i], primes[i])
            else:
                sym = kronecker(parts[j], primes[i])
            if sym == -1:
                row |= 1 << j
        rows.append(row)
    return rows


# redei_ranks factors its window in blocks of this many integers
_REDEI_BLOCK = 1 << 14


def _odd_part(d: int) -> int:
    """|d|, |d/4| or |d/8| for d = 1 mod 4, 12 or 8 mod 16, the odd part
    a fundamental d has squarefree; 0 for the other d."""
    if d % 4 == 1:
        return abs(d)
    if d % 16 == 12:
        return abs(d) >> 2
    if d % 16 == 8:
        return abs(d) >> 3
    return 0


def redei_ranks(lo: int, hi: int):
    """(d, redei_rank(d)) for every fundamental discriminant d != 1 with
    lo <= d < hi, d ascending.

    Each block of _REDEI_BLOCK integers is factored by one trial division
    run across it: each odd p up to isqrt(max |d| in the block) steps
    through the d it divides and is divided out of their odd parts
    (_odd_part).  The primes below p are out by then, so a composite p
    divides no odd part it reaches, and a prime p that divides one twice
    leaves d not fundamental.  What is left is 1 or one prime above the
    rest.  Each symbol (p_j*/p_i) is read once per block.  The diagonal
    entry of row i, the symbol of d/p_i* at p_i, is the product of the
    row's other symbols, as the Kronecker symbol is multiplicative in its
    top argument, so its bit is the parity of theirs.  The bound is
    checked once, before any division.
    """
    check_disc_bound(max(abs(lo), abs(hi - 1)) if lo < hi else 0)
    a = lo
    while a < hi:
        b = min(hi, (a // _REDEI_BLOCK + 1) * _REDEI_BLOCK)
        # per d - a: the odd part left to divide, 0 once d is known not
        # to be fundamental, and the p* divided out so far
        odd = [_odd_part(d) for d in range(a, b)]
        stars = [[] for _ in odd]
        for p in range(3, isqrt(max(abs(a), abs(b - 1))) + 1, 2):
            star = p if p % 4 == 1 else -p
            for i in range(-a % p, b - a, p):
                r = odd[i]
                if r and r % p == 0:
                    r //= p
                    odd[i] = 0 if r % p == 0 else r
                    stars[i].append(star)
        symbol = {}
        for i, r in enumerate(odd):
            d = a + i
            if not r or d == 1:
                continue
            parts = stars[i]
            if r > 1:
                parts.append(r if r % 4 == 1 else -r)
            two = d // prod(parts)
            if two != 1:
                parts.append(two)
                parts.sort(key=abs)
            primes = [2 if v % 2 == 0 else abs(v) for v in parts]
            rows = []
            for k, p in enumerate(primes):
                row = 0
                for j, v in enumerate(parts):
                    if j != k:
                        sym = symbol.get((v, p))
                        if sym is None:
                            sym = symbol[v, p] = kronecker(v, p)
                        if sym == -1:
                            row |= 1 << j
                if bin(row).count("1") % 2:
                    row |= 1 << k
                rows.append(row)
            yield d, len(rows) - 1 - _f2_rank(rows)
        a = b


def _f2_rank(rows) -> int:
    rank = 0
    basis = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
            basis.sort(reverse=True)
            rank += 1
    return rank


def redei_rank(d: int) -> int:
    """4-rank of the narrow class group: t - 1 - rank of the Redei matrix."""
    rows = redei_matrix(d)
    return len(rows) - 1 - _f2_rank(rows)
