"""Command-line front end.

Exit codes: 0 = ran (existence results are data, not exit codes),
1 = selftest failure, 2 = input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import nullcontext
from multiprocessing import Pool

from . import arith, oracle
from .arith import is_fundamental_discriminant, prime_discriminants
from .cocycle import _PRESET_NAMES, CentralExtension, is_admissible_pair, preset
from .criteria import (
    c4_criterion,
    c4_from_parts,
    h8_criterion,
    h8_from_parts,
    heisenberg_criterion,
)
from .solver import BaseFieldData, classify, primes_from_json


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(report_json: dict, text_lines, fmt: str):
    if fmt == "json":
        print(_canonical(report_json))
    else:
        for line in text_lines:
            print(line)


def _parse_ext(spec: str):
    """Preset name (optionally name:param) or a path to an extension
    JSON file.  Returns (CentralExtension, default H or None)."""
    if os.path.exists(spec):
        with open(spec) as fh:
            return CentralExtension.from_json(json.load(fh)), None
    name, _, param = spec.partition(":")
    canon = {n.lower(): n for n in _PRESET_NAMES}.get(name.lower())
    if canon is None:
        raise ValueError(f"unknown extension preset or missing file: {spec!r}")
    if canon == "split":
        if "/" not in param:
            raise ValueError("split preset syntax: split:m1,m2,../n1,n2,..")
        gab_s, a_s = param.split("/", 1)
        arg = ([int(x) for x in gab_s.split(",")], [int(x) for x in a_s.split(",")])
        return preset("split", arg)
    return preset(canon, int(param) if param else None)


def cmd_quadratic(args) -> int:
    """The C4 or H8 criterion, whichever the subcommand set as args.criterion."""
    rep = args.criterion(args.d)
    lines = [f"exists={str(rep.exists).lower()}"]
    for w in rep.witnesses:
        sym = " ".join(f"{s}={v}" for s, v in w.symbol_checks)
        lines.append(f"witness {list(w.parts)}  {sym}")
    if rep.exists:
        lines.append(f"count_per_witness={rep.count_per_witness}")
    _emit(rep.to_json(), lines, args.format)
    return 0


def cmd_heisenberg(args) -> int:
    rep = heisenberg_criterion(args.l, args.p, args.q, args.r)
    lines = [f"exists={str(rep.exists).lower()}"]
    lines += [f"character {s} = {v}" for s, v in rep.characters]
    lines += [f"solution (A,B,C)={s}" for s in rep.solutions]
    if rep.exists:
        lines.append(f"count={rep.count}")
    _emit(rep.to_json(), lines, args.format)
    return 0


def cmd_classify(args) -> int:
    ext, h_default = _parse_ext(args.ext)
    with open(args.kdata) as fh:
        kjson = json.load(fh)
    if isinstance(kjson, dict) and "H" in kjson:
        kdata = BaseFieldData.from_json(kjson, ext)
        h_sub = kdata.h_sub
    else:
        if h_default is None:
            raise ValueError("kdata file lacks H and the extension has no default")
        h_sub = h_default
        kdata = BaseFieldData(h_sub, primes_from_json(kjson))
    try:
        rep = classify(ext, h_sub, kdata)
    except ArithmeticError as exc:
        # the counting formula of a witness is not integral: bad input when
        # (H, E) is not an admissible pair, a fault of the engine otherwise
        admissible, why = is_admissible_pair(ext, h_sub)
        if admissible:
            raise
        raise ValueError(f"not an admissible pair ({why}): {exc}") from exc
    lines = [f"exists={str(rep.exists).lower()}"]
    for w in rep.witnesses:
        lines.append(
            f"witness assignment={dict(w.assignment)} "
            f"factorization={dict(w.factorization)} "
            f"count_per_class={w.count_per_class} classes={w.classes}"
        )
    _emit(rep.to_json(), lines, args.format)
    return 0


_SURVEY_COLUMNS = (
    "d", "omega", "t_prime_discs", "exists", "n_witnesses",
    "count_per_witness", "oracle_two_rank", "oracle_four_rank", "redei_rank",
)

# --jobs starts at most one window per _SURVEY_WINDOW integers of the
# range, so a range that fits in one runs in the calling process
_SURVEY_WINDOW = 256


def _survey_window(window) -> str:
    """The survey rows of the d in [a, b), as CSV (no header) or JSON text."""
    a, b, criterion, with_oracle, fmt = window
    # the oracle sweep of the negative part runs before any row, so its
    # bound error comes first
    ranks = oracle.rank_sweep(a, min(b, 0)) if with_oracle and a < 0 else {}
    from_parts = c4_from_parts if criterion == "c4" else h8_from_parts
    buf = io.StringIO()
    writer = csv.writer(buf)
    for d, parts in arith.fundamental_discriminants(a, b):
        crit = from_parts(parts)
        # for a fundamental d, omega(d) is the number of prime discriminants
        omega = len(parts)
        two_rank = four_rank = redei_rank = ""
        if with_oracle:
            redei_rank = oracle.redei_rank(d)
            if d < 0:
                two_rank, four_rank = ranks[d]
        row = (
            d, omega, omega, crit.exists, len(crit.witnesses),
            crit.count_per_witness, two_rank, four_rank, redei_rank,
        )
        if fmt == "json":
            buf.write(_canonical(dict(zip(_SURVEY_COLUMNS, row))) + "\n")
        else:
            writer.writerow(row)
    return buf.getvalue()


def cmd_survey(args) -> int:
    try:
        lo_s, hi_s = args.range.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"bad range {args.range!r}; expected a..b")
    if lo > hi:
        raise ValueError(f"empty-or-reversed range {args.range!r}")
    if max(abs(lo), abs(hi)) > arith.max_disc():
        raise ValueError("range exceeds the discriminant bound")
    # n windows of equal width, at most one per job and per _SURVEY_WINDOW
    # discriminants; imap keeps their order, so the first error in range
    # order is the one raised, and leaving the pool stops the other workers
    width = hi - lo + 1
    n = min(args.jobs, -(-width // _SURVEY_WINDOW))
    cuts = [lo + k * width // n for k in range(n + 1)]
    windows = [(a, b, args.criterion, args.oracle, args.format) for a, b in zip(cuts, cuts[1:])]
    if n > 1:
        with Pool(n) as pool:
            text = "".join(pool.imap(_survey_window, windows))
    else:
        text = _survey_window(windows[0])
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as out:
        if args.format != "json":
            csv.writer(out).writerow(_SURVEY_COLUMNS)
        out.write(text)
    return 0


def cmd_oracle(args) -> int:
    d = args.d
    if args.which == "redei":
        r = oracle.redei_rank(d)
        _emit({"d": d, "redei_rank": r}, [f"redei_rank({d}) = {r}"], args.format)
    elif args.which == "fourrank":
        r = oracle.four_rank(d)
        _emit({"d": d, "four_rank": r}, [f"four_rank({d}) = {r}"], args.format)
    else:
        group, h = oracle.class_group_structure(d)
        name = " x ".join(f"C{m}" for m in group.moduli) or "trivial"
        _emit(
            {"d": d, "h": h, "invariant_factors": list(group.moduli)},
            [f"Cl({d}) = {name}, h = {h}"],
            args.format,
        )
    return 0


# --- selftest ---------------------------------------------------------------

def _selftest_checks():
    import random

    from .arith import kronecker
    from .cocycle import (
        aut_stabilizer_order,
        check_cocycle,
        class_orbit_size,
        quaternion_pair_class_count,
    )

    rng = random.Random(20240817)

    def kronecker_euler():
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            for a in range(1, p):
                assert kronecker(a, p) == (
                    1 if pow(a, (p - 1) // 2, p) == 1 else -1
                )

    def prime_discriminant_product():
        for d in range(-400, 400):
            if d in (0, 1) or not is_fundamental_discriminant(d):
                continue
            parts = prime_discriminants(d)
            out = 1
            for v in parts:
                out *= v
            assert out == d

    def cocycle_identities():
        for name, param in (("C4_D4", None), ("Heisenberg", 3), ("H8_pair", None)):
            ext, _ = preset(name, param)
            check_cocycle(ext.gab, ext.a, ext.table)
            gab = ext.gab
            els = list(gab.elements())
            for _ in range(100):
                x, y = rng.choice(els), rng.choice(els)
                assert ext.pairing(x, y) == ext.a.neg(ext.pairing(y, x))

    def heisenberg_preset_counts():
        ext, _ = preset("Heisenberg", 3)
        assert aut_stabilizer_order(ext) == 1
        assert class_orbit_size(ext) == 2

    def unique_quaternion_pair():
        assert quaternion_pair_class_count() == 1

    def classify_c4_examples():
        ext, h = preset("C4_D4", None)
        for d, expect in ((205, True), (65, False)):
            primes = tuple(
                (pp.q, (0, 1)) for pp in arith.factorize(abs(d))
            )
            rep = classify(ext, h, BaseFieldData(h, primes))
            assert rep.exists is expect
            assert rep.exists == c4_criterion(d).exists

    def oracle_reduced_sweep():
        sweep = oracle.rank_sweep(-1000, -3)
        windows = {}
        for lo, hi in ((-1000, -701), (-701, -350), (-350, -3)):
            windows.update(oracle.rank_sweep(lo, hi))
        assert list(windows.items()) == list(sweep.items())
        for d, (r2, r4) in sweep.items():
            assert r2 == len(prime_discriminants(d)) - 1
            assert r4 == oracle.redei_rank(d)
            assert c4_criterion(d).exists == (r4 >= 1)
        group, h = oracle.class_group_structure(-23)
        assert group.moduli == (3,) and h == 3
        for d in sorted(sweep)[:200]:
            assert oracle.naive_form_count(d) == oracle.class_number(d)

    return [
        ("kronecker symbol vs euler criterion", kronecker_euler),
        ("prime discriminant factorization product", prime_discriminant_product),
        ("cocycle identity and pairing antisymmetry", cocycle_identities),
        ("heisenberg stabilizer and orbit size", heisenberg_preset_counts),
        ("unique quaternion pair over (C2^3, C2)", unique_quaternion_pair),
        ("classify matches c4 criterion on presets", classify_c4_examples),
        ("oracle sweep: genus theory, redei, c4 equivalence", oracle_reduced_sweep),
    ]


def cmd_selftest(args) -> int:
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and stop
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            return 1
        print(f"ok   {name}")
    print("selftest passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lemfact")
    ap.add_argument("--format", choices=("json", "csv", "text"), default="text")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--max-disc", type=int, default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("c4", help="C4 criterion for a fundamental discriminant")
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_quadratic, criterion=c4_criterion)

    p = sub.add_parser("h8", help="quaternion criterion for a fundamental discriminant")
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_quadratic, criterion=h8_criterion)

    p = sub.add_parser("heisenberg", help="Heisenberg criterion for ell and three primes")
    p.add_argument("l", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=cmd_heisenberg)

    p = sub.add_parser("classify", help="run the general engine on extension + base field data")
    p.add_argument("--ext", required=True, help="preset (name or name:param) or JSON file")
    p.add_argument("--kdata", required=True, help="base field JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("survey", help="criterion sweep over a discriminant range")
    p.add_argument("--range", required=True, help="a..b inclusive")
    p.add_argument("--criterion", choices=("c4", "h8"), required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("oracle", help="class-group oracle")
    p.add_argument("which", choices=("classgroup", "fourrank", "redei"))
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("selftest", help="reduced-scale invariant suite")
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("--jobs must be >= 1")
    saved = os.environ.get("LEMFACT_MAX_DISC")
    if args.max_disc is not None:
        if args.max_disc <= 0:
            ap.error("--max-disc must be positive")
        os.environ["LEMFACT_MAX_DISC"] = str(args.max_disc)
    if args.format == "csv" and args.command != "survey":
        args.format = "text"
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.max_disc is not None:
            if saved is None:
                os.environ.pop("LEMFACT_MAX_DISC", None)
            else:
                os.environ["LEMFACT_MAX_DISC"] = saved


if __name__ == "__main__":
    sys.exit(main())
