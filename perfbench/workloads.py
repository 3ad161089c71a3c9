"""Workload definitions and seeded input plans.

This module never imports lemfact: the inputs handed to the program are
generated here from plain integer arithmetic, so a change to lemfact
cannot change what it is asked to do.

Every workload draws its inputs from a fixed pool, cut into chunks.  A
chunk is the unit whose output digest is recorded in ``reference.json``;
a seed picks which chunks one run measures.  Picks are stratified over
consecutive chunks, so every seed covers the whole input range at the
same density and runs of different seeds do comparable work.  Survey
ranges are cut into chunks of equal estimated cost (cost_offset +
|d|**cost_power per discriminant, fitted to the baseline's chunk timings),
so one survey call costs about the same wherever the seed puts it.
"""

from __future__ import annotations

import random
from math import isqrt

# The reference pool of Heisenberg triples is drawn with this seed; a run's
# own --seed then samples from the pool.
HEISENBERG_POOL_SEED = 1710
HEISENBERG_POOL_PER_VERDICT = 40

WORKLOADS = {
    "survey-c4-oracle": {
        "kind": "survey",
        "criterion": "c4",
        "oracle": True,
        "lo": -20000,
        "hi": -3,
        # reduced_forms is linear in |d|
        "cost_offset": 2500,
        "cost_power": 1,
        "chunks": 80,
        "stratum": 5,
        "picks": 1,
        "why": "survey through the CLI with the class-group oracle on; "
        "oracle.reduced_forms runs twice per d and dominates",
    },
    "survey-h8": {
        "kind": "survey",
        "criterion": "h8",
        "oracle": False,
        "lo": 3,
        "hi": 200000,
        # trial division runs to sqrt(d)
        "cost_offset": 270,
        "cost_power": 0.5,
        "chunks": 80,
        "stratum": 5,
        "picks": 2,
        "why": "survey through the CLI without the oracle; arith.factorize and "
        "the h8 3-way splits dominate, solver and oracle are idle",
    },
    "classify-heisenberg5": {
        "kind": "heisenberg",
        "ell": 5,
        "picks_solution": 1,
        "picks_no_solution": 2,
        "why": "library classify on Heisenberg ell=5 triples, 15625 assignments "
        "each; solver.has_unramified_lift and cocycle.pairing dominate",
    },
    "classify-quadratic": {
        "kind": "quadratic",
        "chunk": 10,
        "stratum": 4,
        "picks": 1,
        "why": "thousands of small classify calls (C4_D4, H8_pair) where "
        "per-call enumeration and Smith-form work dominate",
    },
}


# --- integer helpers, independent of lemfact ---------------------------------

def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


def prime_factors(n: int) -> list[tuple[int, int]]:
    """(p, e) pairs of n >= 1 by trial division, p ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def squarefree(n: int) -> bool:
    return all(e == 1 for _, e in prime_factors(abs(n)))


def is_fundamental(d: int) -> bool:
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


# --- pools -------------------------------------------------------------------

def survey_chunks(spec: dict) -> list[dict]:
    discs = range(spec["lo"], spec["hi"] + 1)
    cost = [spec["cost_offset"] + abs(d) ** spec["cost_power"] for d in discs]
    step = sum(cost) / spec["chunks"]
    bounds, acc = [], 0.0
    for d, c in zip(discs, cost):
        acc += c
        if acc >= step * (len(bounds) + 1) and len(bounds) < spec["chunks"] - 1:
            bounds.append(d)
    out, lo = [], spec["lo"]
    for hi in bounds + [spec["hi"]]:
        out.append({"key": f"{lo}..{hi}", "range": [lo, hi]})
        lo = hi + 1
    return out


def quadratic_items() -> list[dict]:
    """C4_D4 over the odd fundamental d with |d| < 10^4, then H8_pair over
    the fundamental d = 1 mod 4 below 10^5 with at least three prime
    factors.  Each item carries the primes its base field ramifies at."""
    items = []
    for d in range(-9999, 10**4, 2):
        if d in (-1, 1) or not is_fundamental(d):
            continue
        items.append({"ext": "C4_D4", "d": d, "primes": [p for p, _ in prime_factors(abs(d))]})
    for d in range(5, 10**5, 4):
        if not is_fundamental(d):
            continue
        primes = [p for p, _ in prime_factors(d)]
        if len(primes) >= 3:
            items.append({"ext": "H8_pair", "d": d, "primes": primes})
    return items


def quadratic_chunks(spec: dict) -> list[dict]:
    """Chunks of consecutive items, never mixing the two presets."""
    items = quadratic_items()
    out = []
    for ext in ("C4_D4", "H8_pair"):
        part = [it for it in items if it["ext"] == ext]
        for i in range(0, len(part), spec["chunk"]):
            block = part[i : i + spec["chunk"]]
            out.append({"key": f"{ext}:{block[0]['d']}..{block[-1]['d']}", "items": block})
    return out


def heisenberg_primes(ell: int) -> list[int]:
    return [p for p in primes_below(10**4) if p % ell == 1]


def heisenberg_chunk(ell: int, triple) -> dict:
    return {"key": f"{ell}:" + ",".join(map(str, triple)), "triple": list(triple)}


def all_chunks(name: str, reference: dict | None = None) -> list[dict]:
    """Every chunk of the workload's pool.  The Heisenberg pool is the
    recorded one, so it needs the reference data."""
    spec = WORKLOADS[name]
    if spec["kind"] == "survey":
        return survey_chunks(spec)
    if spec["kind"] == "quadratic":
        return quadratic_chunks(spec)
    pool = reference["workloads"][name]["pool"]
    return [heisenberg_chunk(spec["ell"], e["triple"]) for e in pool]


# --- seeded plans ------------------------------------------------------------

def _stratified(rng: random.Random, chunks: list, stratum: int, picks: int) -> list:
    out = []
    for i in range(0, len(chunks), stratum):
        group = chunks[i : i + stratum]
        picked = sorted(rng.sample(range(len(group)), min(picks, len(group))))
        out.extend(group[j] for j in picked)
    return out


def plan(name: str, seed: int, reference: dict) -> list[dict]:
    """The chunks one run of the workload measures, in order."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    if spec["kind"] == "survey":
        return _stratified(rng, survey_chunks(spec), spec["stratum"], spec["picks"])
    if spec["kind"] == "quadratic":
        chunks = quadratic_chunks(spec)
        out = []
        for ext in ("C4_D4", "H8_pair"):
            part = [c for c in chunks if c["items"][0]["ext"] == ext]
            out.extend(_stratified(rng, part, spec["stratum"], spec["picks"]))
        return out
    # A solution triple's cost grows with its witnesses and its primes
    # (count_extensions factors every witness by trial division).  The
    # triples with more than ell - 1 solutions have ell times the witnesses;
    # every run takes them, so no run's tail depends on drawing one.  The
    # other picks are stratified by the sum of the primes.
    pool = reference["workloads"][name]["pool"]
    ell = spec["ell"]
    heavy = [e["triple"] for e in pool if e["solutions"] > ell - 1]
    triples = list(heavy)
    for exists, picks in ((True, spec["picks_solution"]), (False, spec["picks_no_solution"])):
        part = sorted(
            (e["triple"] for e in pool if e["exists"] == exists and e["triple"] not in heavy),
            key=sum,
        )
        triples += _stratified(rng, part, -(-len(part) // picks), 1)
    rng.shuffle(triples)
    verdicts = {tuple(e["triple"]): e["exists"] for e in pool}
    seen = {verdicts[tuple(t)] for t in triples}
    if seen != {True, False}:
        raise AssertionError(f"seed {seed} does not cover both verdicts")
    return [heisenberg_chunk(ell, t) for t in triples]
