import csv
import hashlib
import io
import json
import logging
import time
from pathlib import Path

import pytest

from lemfact import cli, oracle
from lemfact.arith import factorize, is_fundamental_discriminant, prime_discriminants
from lemfact.cli import main
from lemfact.criteria import c4_criterion, h8_criterion

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_c4_text_and_exit_code(capsys):
    code, out, _ = run(capsys, "c4", "205")
    assert code == 0
    assert "exists=true" in out
    assert "[5, 41]" in out
    code, out, _ = run(capsys, "c4", "65")
    assert code == 0  # existence is data, not an exit code
    assert "exists=false" in out


def test_c4_h8_text_output_is_pinned(capsys):
    assert run(capsys, "c4", "205") == (
        0,
        "exists=true\n"
        "witness [5, 41]  (5/41)=1 (41/5)=1\n"
        "count_per_witness=1\n",
        "",
    )
    assert run(capsys, "h8", "-420") == (
        0,
        "exists=true\n"
        "witness [-4, 5, 21]  (-20/3)=1 (-20/7)=1 (105/2)=1 (-84/5)=1\n"
        "count_per_witness=2\n",
        "",
    )


def test_invalid_discriminant_exits_2(capsys):
    code, _, err = run(capsys, "c4", "45")
    assert code == 2
    assert "error" in err


def test_heisenberg_bad_hypothesis_exits_2(capsys):
    code, _, err = run(capsys, "heisenberg", "3", "11", "13", "43")
    assert code == 2
    assert "11" in err


def test_heisenberg_past_the_bound_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "heisenberg", "1009", "10091", "12109", "30271")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == "error: 1027243729 triples (A, B, C) exceed bound 65536\n"


def test_json_round_trip_byte_identical(capsys):
    for args in (
        ("--format", "json", "c4", "205"),
        ("--format", "json", "h8", "-420"),
        ("--format", "json", "heisenberg", "3", "7", "13", "43"),
        ("--format", "json", "oracle", "classgroup", "-23"),
    ):
        code, out, _ = run(capsys, *args)
        assert code == 0
        parsed = json.loads(out)
        again = json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
        assert again == out


def test_oracle_subcommands(capsys):
    code, out, _ = run(capsys, "oracle", "classgroup", "-23")
    assert code == 0 and "C3" in out
    code, out, _ = run(capsys, "oracle", "classgroup", "-4")
    assert code == 0 and "trivial" in out
    code, out, _ = run(capsys, "oracle", "redei", "205")
    assert code == 0 and "= 1" in out
    code, out, _ = run(capsys, "oracle", "fourrank", "-84")
    assert code == 0 and "= 0" in out
    code, _, _ = run(capsys, "oracle", "classgroup", "45")
    assert code == 2


def test_survey_csv_columns_and_consistency(capsys):
    code, out, _ = run(capsys, "survey", "--range=-400..-3", "--criterion", "c4", "--oracle")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows
    assert list(rows[0]) == [
        "d", "omega", "t_prime_discs", "exists", "n_witnesses",
        "count_per_witness", "oracle_two_rank", "oracle_four_rank", "redei_rank",
    ]
    ds = [int(r["d"]) for r in rows]
    assert ds == sorted(ds)
    for r in rows:
        assert (r["exists"] == "True") == (int(r["oracle_four_rank"]) >= 1)
        assert int(r["oracle_two_rank"]) == int(r["t_prime_discs"]) - 1
        assert int(r["oracle_four_rank"]) == int(r["redei_rank"])


def test_survey_positive_range_h8(capsys):
    code, out, _ = run(capsys, "survey", "--range=2..500", "--criterion", "h8")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    from lemfact.arith import is_fundamental_discriminant

    for r in rows:
        assert is_fundamental_discriminant(int(r["d"]))
        assert r["oracle_two_rank"] == ""


def test_survey_jobs_deterministic(capsys):
    _, seq, _ = run(capsys, "survey", "--range=-300..-3", "--criterion", "c4", "--oracle")
    _, par, _ = run(capsys, "--jobs", "3", "survey", "--range=-300..-3", "--criterion", "c4", "--oracle")
    assert seq == par


def per_disc_survey_csv(lo, hi, criterion="c4", with_oracle=True):
    """The survey CSV rebuilt row by row from the per-d references:
    the distinct primes of d, prime_discriminants, the criterion, and with the oracle the
    per-d two_rank/four_rank/redei_rank."""
    columns = (
        "d", "omega", "t_prime_discs", "exists", "n_witnesses",
        "count_per_witness", "oracle_two_rank", "oracle_four_rank", "redei_rank",
    )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for d in range(lo, hi + 1):
        if d in (0, 1) or not is_fundamental_discriminant(d):
            continue
        crit = c4_criterion(d) if criterion == "c4" else h8_criterion(d)
        writer.writerow({
            "d": d,
            "omega": len(factorize(abs(d))),
            "t_prime_discs": len(prime_discriminants(d)),
            "exists": crit.exists,
            "n_witnesses": len(crit.witnesses),
            "count_per_witness": crit.count_per_witness,
            "oracle_two_rank": oracle.two_rank(d) if with_oracle and d < 0 else "",
            "oracle_four_rank": oracle.four_rank(d) if with_oracle and d < 0 else "",
            "redei_rank": oracle.redei_rank(d) if with_oracle else "",
        })
    return buf.getvalue()


@pytest.mark.parametrize("lo,hi", [(-3000, -2500), (-60, 60)])
def test_survey_oracle_matches_per_disc_reference(capsys, lo, hi):
    code, out, _ = run(capsys, "survey", f"--range={lo}..{hi}", "--criterion", "c4", "--oracle")
    assert code == 0
    # compared line by line: a mismatch report on the whole text takes minutes
    expected = per_disc_survey_csv(lo, hi)
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)


@pytest.mark.parametrize("criterion,lo,hi", [("h8", -3000, 3000), ("c4", 1, 4000)])
def test_survey_matches_per_disc_reference(capsys, criterion, lo, hi):
    code, out, _ = run(capsys, "survey", f"--range={lo}..{hi}", "--criterion", criterion)
    assert code == 0
    # compared line by line: a mismatch report on the whole text takes minutes
    expected = per_disc_survey_csv(lo, hi, criterion, with_oracle=False)
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(r["omega"] == r["t_prime_discs"] for r in rows)


def per_disc_survey_json(lo, hi, criterion, with_oracle):
    """The --format json survey lines rebuilt from the per-d references:
    one canonical JSON object per fundamental d."""
    lines = []
    for d in range(lo, hi + 1):
        if d in (0, 1) or not is_fundamental_discriminant(d):
            continue
        crit = c4_criterion(d) if criterion == "c4" else h8_criterion(d)
        row = {
            "d": d,
            "omega": len(factorize(abs(d))),
            "t_prime_discs": len(prime_discriminants(d)),
            "exists": crit.exists,
            "n_witnesses": len(crit.witnesses),
            "count_per_witness": crit.count_per_witness,
            "oracle_two_rank": oracle.two_rank(d) if with_oracle and d < 0 else "",
            "oracle_four_rank": oracle.four_rank(d) if with_oracle and d < 0 else "",
            "redei_rank": oracle.redei_rank(d) if with_oracle else "",
        }
        lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    return lines


@pytest.mark.parametrize(
    "criterion,lo,hi,with_oracle", [("h8", -3000, 3000, False), ("c4", -3000, -2500, True)]
)
def test_survey_json_matches_per_disc_reference(capsys, criterion, lo, hi, with_oracle):
    argv = ["--format", "json", "survey", f"--range={lo}..{hi}", "--criterion", criterion]
    code, out, _ = run(capsys, *argv + ["--oracle"] * with_oracle)
    assert code == 0
    # compared line by line: a mismatch report on the whole text takes minutes
    assert out.splitlines(keepends=True) == per_disc_survey_json(lo, hi, criterion, with_oracle)


def test_survey_h8_jobs_byte_identical(capsys):
    argv = ("survey", "--range=-3000..3000", "--criterion", "h8")
    _, seq, _ = run(capsys, "--jobs", "1", *argv)
    _, par, _ = run(capsys, "--jobs", "2", *argv)
    assert seq == par


def test_survey_oracle_jobs_byte_identical(capsys):
    argv = ("survey", "--range=-3000..-2500", "--criterion", "c4", "--oracle")
    _, seq, _ = run(capsys, "--jobs", "1", *argv)
    _, par, _ = run(capsys, "--jobs", "2", *argv)
    assert seq == par


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the worker count asked
    for and the windows, and maps them lazily and in order in this
    process, so no process starts."""

    sizes = []
    windows = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, windows):
        for window in windows:
            self.windows.append(window)
            yield fn(window)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "windows", [])
    monkeypatch.setattr(cli, "Pool", RecordingPool)
    return RecordingPool


@pytest.mark.parametrize(
    "jobs,lo,hi,workers",
    [
        ("5000", -20, -3, []),  # 18 integers: one window, run in-process
        ("5000", -300, -3, [2]),  # 298 integers: 2 windows
        ("5000", -3000, 3000, [24]),  # 6,001 integers: 24 windows
        ("3", -3000, 3000, [3]),
        ("1", -3000, 3000, []),
        ("2", -3000, 3000, [2]),
    ],
)
def test_survey_jobs_capped_by_chunks(capsys, recording_pool, jobs, lo, hi, workers):
    # the chunks are the windows: at most one per cli._SURVEY_WINDOW integers
    argv = ("survey", f"--range={lo}..{hi}", "--criterion", "h8")
    code, seq, _ = run(capsys, *argv)
    assert code == 0 and recording_pool.sizes == []
    code, par, _ = run(capsys, "--jobs", jobs, *argv)
    assert code == 0 and par == seq
    assert recording_pool.sizes == workers


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("criterion,with_oracle", [("h8", False), ("c4", True)])
def test_survey_windows_match_one_run(capsys, recording_pool, fmt, criterion, with_oracle):
    # the range crosses 0, and the windows of --jobs 2, 3 and 7 start at
    # every residue mod 4
    argv = ["--format", fmt, "survey", "--range=-1201..1500", "--criterion", criterion]
    argv += ["--oracle"] * with_oracle
    code, seq, err = run(capsys, "--jobs", "1", *argv)
    assert (code, err) == (0, "") and seq.count("\n") > 800
    for jobs in (2, 3, 7):
        assert run(capsys, "--jobs", str(jobs), *argv) == (0, seq, "")
    assert recording_pool.sizes == [2, 3, 7]
    starts = [w[0] for w in recording_pool.windows]
    assert len(starts) == 12 and starts.count(-1201) == 3
    assert {a % 4 for a in starts} == {0, 1, 2, 3}


def test_survey_oracle_bound_fails_before_rows(capsys, monkeypatch):
    monkeypatch.delenv("LEMFACT_MAX_DISC", raising=False)

    def no_rows(parts):
        raise AssertionError(f"row for {parts} computed past the oracle bound")

    monkeypatch.setattr(cli, "c4_from_parts", no_rows)
    lo, hi = -1000050, -3
    first = next(d for d in range(lo, hi + 1) if is_fundamental_discriminant(d))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "--max-disc", "2000000",
        "survey", f"--range={lo}..{hi}", "--criterion", "c4", "--oracle",
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == f"error: |{first}| exceeds oracle bound 1000000\n"


def test_survey_oracle_bound_fails_in_two_processes(capsys):
    # a real pool: the first window raises at once, and leaving the pool
    # stops the worker still sweeping the second
    argv = ("--max-disc", "2000000", "survey", "--range=-1000050..-3", "--criterion", "c4",
            "--oracle")
    start = time.perf_counter()
    code, out, err = run(capsys, "--jobs", "2", *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err == run(capsys, "--jobs", "1", *argv)[2]


def test_survey_bound_fails_before_rows(capsys, monkeypatch):
    monkeypatch.delenv("LEMFACT_MAX_DISC", raising=False)

    def no_rows(parts):
        raise AssertionError(f"row for {parts} computed past the bound")

    monkeypatch.setattr(cli, "h8_from_parts", no_rows)
    code, out, err = run(
        capsys, "--max-disc", "1000", "survey", "--range=3..2000", "--criterion", "h8"
    )
    assert (code, out, err) == (2, "", "error: range exceeds the discriminant bound\n")


def test_survey_empty_range(capsys):
    code, out, _ = run(capsys, "survey", "--range=-2..-2", "--criterion", "c4")
    assert code == 0
    assert out.strip().splitlines() == [
        "d,omega,t_prime_discs,exists,n_witnesses,count_per_witness,"
        "oracle_two_rank,oracle_four_rank,redei_rank"
    ]


def test_survey_bad_range_exits_2(capsys):
    code, _, err = run(capsys, "survey", "--range=-3..-300", "--criterion", "c4")
    assert code == 2


def test_survey_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run(
        capsys, "survey", "--range=-100..-3", "--criterion", "c4", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["d"] for r in rows)


def test_classify_matches_c4(tmp_path, capsys):
    kdata = tmp_path / "k.json"
    kdata.write_text(
        json.dumps(
            {
                "H": [[1, 0]],
                "primes": [
                    {"q": 5, "image": [0, 1]},
                    {"q": 41, "image": [0, 1]},
                ],
            }
        )
    )
    code, out, _ = run(
        capsys, "--format", "json", "classify", "--ext", "C4_D4", "--kdata", str(kdata)
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["exists"] is True
    assert len(rep["witnesses"]) == 2


def test_classify_extension_file_round_trip(tmp_path, capsys):
    from lemfact.cocycle import preset

    ext, h = preset("C4_D4", None)
    ext_file = tmp_path / "ext.json"
    ext_file.write_text(json.dumps(ext.to_json()))
    kdata = tmp_path / "k.json"
    kdata.write_text(
        json.dumps(
            {
                "H": [[1, 0]],
                "primes": [
                    {"q": 5, "image": [0, 1]},
                    {"q": 41, "image": [0, 1]},
                ],
            }
        )
    )
    code, out_file, _ = run(
        capsys, "--format", "json", "classify", "--ext", str(ext_file), "--kdata", str(kdata)
    )
    code2, out_preset, _ = run(
        capsys, "--format", "json", "classify", "--ext", "C4_D4", "--kdata", str(kdata)
    )
    assert code == code2 == 0
    assert out_file == out_preset


def test_classify_heisenberg_preset(tmp_path, capsys):
    kdata = tmp_path / "k.json"
    kdata.write_text(
        json.dumps(
            {
                "H": [[1, 0, 0], [0, 1, 0]],
                "primes": [
                    {"q": 7, "image": [0, 0, 1]},
                    {"q": 13, "image": [0, 0, 1]},
                    {"q": 43, "image": [0, 0, 1]},
                ],
            }
        )
    )
    code, out, _ = run(
        capsys, "--format", "json", "classify", "--ext", "heisenberg:3", "--kdata", str(kdata)
    )
    assert code == 0
    assert json.loads(out)["exists"] is True


def test_classify_bad_ext_exits_2(tmp_path, capsys):
    kdata = tmp_path / "k.json"
    kdata.write_text(json.dumps({"H": [[1, 0]], "primes": []}))
    code, out, err = run(capsys, "classify", "--ext", "nosuch", "--kdata", str(kdata))
    assert (code, out) == (2, "")
    assert err == "error: unknown extension preset or missing file: 'nosuch'\n"


@pytest.mark.parametrize(
    "spelling,canonical,kdata",
    [
        ("c4_d4", "C4_D4",
         {"H": [[1, 0]], "primes": [{"q": 5, "image": [0, 1]}, {"q": 41, "image": [0, 1]}]}),
        ("H8_PAIR", "H8_pair", json.loads((DATA / "h8_pair_4305_kdata.json").read_text())),
        ("HeIsEnBeRg:3", "Heisenberg:3",
         {"H": [[1, 0, 0], [0, 1, 0]],
          "primes": [{"q": 7, "image": [0, 0, 1]}, {"q": 13, "image": [0, 0, 1]},
                     {"q": 43, "image": [0, 0, 1]}]}),
        ("SPLIT:2,2/4", "split:2,2/4", {"H": [[1, 0]], "primes": [{"q": 5, "image": [1, 1]}]}),
    ],
)
def test_classify_preset_names_ignore_case(tmp_path, capsys, spelling, canonical, kdata):
    kdata_file = tmp_path / "k.json"
    kdata_file.write_text(json.dumps(kdata))
    printed = [run(capsys, "classify", "--ext", ext, "--kdata", str(kdata_file))
               for ext in (spelling, canonical)]
    assert printed[0] == printed[1]
    assert printed[0][0] == 0 and printed[0][1].startswith("exists=") and printed[0][2] == ""


@pytest.mark.parametrize(
    "h_gens,image,bad",
    [
        ([[1, 0]], [0], "(0,)"),  # too short: used to raise IndexError
        ([[1, 0]], [0, 1, 1], "(0, 1, 1)"),  # too long: used to be truncated
        ([[1]], [0, 1], "(1,)"),  # too-short generator of H
    ],
    ids=["short-image", "long-image", "short-h-generator"],
)
def test_classify_wrong_length_element_exits_2(tmp_path, capsys, h_gens, image, bad):
    kdata = tmp_path / "k.json"
    kdata.write_text(
        json.dumps(
            {"H": h_gens, "primes": [{"q": 5, "image": image}, {"q": 41, "image": [0, 1]}]}
        )
    )
    code, out, err = run(capsys, "classify", "--ext", "C4_D4", "--kdata", str(kdata))
    assert code == 2
    assert out == ""
    assert err == f"error: element {bad} has wrong length for moduli (2, 2)\n"


@pytest.mark.parametrize(
    "ext,kdata,message",
    [
        ("C4_D4", {"primes": [{"q": 5}]}, "prime entry lacks key 'image'"),
        ("C4_D4", {"H": [[1, 0]]}, "base field data lacks key 'primes'"),
        (
            "C4_D4",
            {"H": [[1, 0]], "primes": [{"q": 5, "image": 3}, {"q": 41, "image": [0, 1]}]},
            "prime entry key 'image' must be a list, not int",
        ),
        ("C4_D4", [1, 2], "base field data must be a JSON object, not list"),
        ({"Gab": [2]}, {"H": [[1]], "primes": [{"q": 3, "image": [1]}]},
         "extension JSON lacks key 'A'"),
        (
            "C4_D4",
            {"H": [1, 0], "primes": [{"q": 5, "image": [0, 1]}]},
            "base field data key 'H' must hold lists, not int",
        ),
        (
            "C4_D4",
            {"H": [[1, 0]], "primes": [{"q": [5], "image": [0, 1]}]},
            "prime entry key 'q' must be an int, not list",
        ),
        # coordinates that are not ints: a str used to raise TypeError (exit 1),
        # a float image was accepted
        (
            "C4_D4",
            {"H": [[1, 0]], "primes": [{"q": 5, "image": ["a", 1]}, {"q": 41, "image": [0, 1]}]},
            "prime entry key 'image' must hold ints, not str",
        ),
        (
            "C4_D4",
            {"H": [[1, 0]], "primes": [{"q": 5, "image": [0.5, 1]}, {"q": 41, "image": [0, 1]}]},
            "prime entry key 'image' must hold ints, not float",
        ),
        (
            "C4_D4",
            {"H": [["x", 0]], "primes": [{"q": 5, "image": [0, 1]}, {"q": 41, "image": [0, 1]}]},
            'H generator must be a list of ints, not ["x", 0]',
        ),
        ({"Gab": ["a"], "A": [2], "cocycle": [[[0]]]}, {"H": [[1]], "primes": []},
         "extension JSON key 'Gab' must hold ints, not str"),
        ({"Gab": [2.0], "A": [2], "cocycle": [[[0]]]}, {"H": [[1]], "primes": []},
         "extension JSON key 'Gab' must hold ints, not float"),
        ({"Gab": [2], "A": [2.0], "cocycle": [[[0]]]}, {"H": [[1]], "primes": []},
         "extension JSON key 'A' must hold ints, not float"),
        ({"Gab": [2], "A": [2], "cocycle": [[[0], [0]], [[0], ["1"]]]},
         {"H": [[1]], "primes": []}, 'cocycle entry must be a list of ints, not ["1"]'),
        ({"Gab": [2], "A": [2], "cocycle": [[[0], [0]], [[0], 1]]},
         {"H": [[1]], "primes": []}, "cocycle entry must be a list of ints, not 1"),
        # JSON booleans are not ints, though bool subclasses int in Python
        (
            "C4_D4",
            {"H": [[True, 0]], "primes": [{"q": 5, "image": [0, 1]}, {"q": 41, "image": [0, 1]}]},
            "H generator must be a list of ints, not [true, 0]",
        ),
        (
            "C4_D4",
            {"H": [[1, 0]], "primes": [{"q": 5, "image": [0, True]}, {"q": 41, "image": [0, 1]}]},
            "prime entry key 'image' must hold ints, not bool",
        ),
        (
            "C4_D4",
            {"H": [[1, 0]], "primes": [{"q": True, "image": [0, 1]}]},
            "prime entry key 'q' must be an int, not bool",
        ),
        ({"Gab": [True], "A": [2], "cocycle": [[[0]]]}, {"H": [[1]], "primes": []},
         "extension JSON key 'Gab' must hold ints, not bool"),
    ],
    ids=["no-image", "no-primes", "int-image", "list-kdata", "ext-no-A", "int-h-generator",
         "list-q", "str-image", "float-image", "str-h-generator", "str-gab", "float-gab",
         "float-a", "str-cocycle-entry", "int-cocycle-entry", "bool-h-generator",
         "bool-image", "bool-q", "bool-gab"],
)
def test_classify_malformed_json_exits_2(tmp_path, capsys, ext, kdata, message):
    if isinstance(ext, dict):
        ext_file = tmp_path / "ext.json"
        ext_file.write_text(json.dumps(ext))
        ext = str(ext_file)
    kdata_file = tmp_path / "k.json"
    kdata_file.write_text(json.dumps(kdata))
    code, out, err = run(capsys, "classify", "--ext", ext, "--kdata", str(kdata_file))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_classify_oversized_extension_exits_2_at_once(tmp_path, capsys):
    # the file CI writes: a Gab of 343 elements, whose table of 343^2
    # entries from_json refuses before it reads the cocycle
    ext_file = tmp_path / "big.json"
    ext_file.write_text('{"Gab":[7,7,7],"A":[7],"cocycle":[]}')
    start = time.perf_counter()
    code, out, err = run(
        capsys, "classify", "--ext", str(ext_file),
        "--kdata", str(DATA / "heisenberg7_kdata.json"),
    )
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", "error: cocycle table of 117649 entries exceeds bound 65536\n")


def test_classify_composite_exponent_data(capsys):
    # the files CI classifies through the installed script, which also
    # checks the mismatch warning on stderr
    code, out, _ = run(
        capsys, "classify", "--ext", str(DATA / "composite_exponent_extension.json"),
        "--kdata", str(DATA / "composite_exponent_kdata.json"),
    )
    assert code == 0
    assert out == (DATA / "composite_exponent_classify.txt").read_text()
    assert out.count("\nwitness ") == 4


def test_classify_mixed_orders_data(capsys, caplog):
    # the files CI classifies through the installed script, whose stderr
    # holds the warnings: two primes whose candidates have orders 2 and 4,
    # and a prime 3 mod 4 whose order-2 characters mismatch their literal
    # mod-4 values
    with caplog.at_level(logging.WARNING, logger="lemfact"):
        code, out, _ = run(
            capsys, "classify", "--ext", str(DATA / "mixed_orders_extension.json"),
            "--kdata", str(DATA / "mixed_orders_kdata.json"),
        )
    assert code == 0
    assert out == (DATA / "mixed_orders_classify.txt").read_text()
    warnings = [r.getMessage() + "\n" for r in caplog.records]
    assert "".join(warnings) == (DATA / "mixed_orders_classify.err").read_text()
    assert out.count("\nwitness ") == 8 and len(warnings) == 3


def test_classify_heisenberg5_five_primes_data(capsys):
    # the sha256 CI checks against the installed script: 25^4 lift-test
    # prefixes; in 1,440 of the witnesses two primes share an image, so
    # their factors merge into one d_y
    code, out, err = run(
        capsys, "--format", "json", "classify", "--ext", "Heisenberg:5",
        "--kdata", str(DATA / "heisenberg5_five_primes.json"),
    )
    assert (code, err) == (0, "")
    witnesses = json.loads(out)["witnesses"]
    assert len(witnesses) == 5760
    assert sum(len(w["factorization"]) < len(w["assignment"]) for w in witnesses) == 1440
    digest, name = (DATA / "heisenberg5_five_primes.sha256").read_text().split()
    assert name == "heisenberg5_five.json"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classify_heisenberg7_data(capsys):
    # the sha256 CI checks against the installed script, recorded when the
    # preset was still a cocycle table; the criterion agrees
    code, out, err = run(
        capsys, "--format", "json", "classify", "--ext", "Heisenberg:7",
        "--kdata", str(DATA / "heisenberg7_kdata.json"),
    )
    assert (code, err) == (0, "")
    assert len(json.loads(out)["witnesses"]) == 2016
    digest, name = (DATA / "heisenberg7.sha256").read_text().split()
    assert name == "heisenberg7.json"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    code, out, _ = run(capsys, "heisenberg", "7", "29", "127", "281")
    assert code == 0 and out.startswith("exists=true\n")


def test_classify_heisenberg7_three_images_data(capsys):
    # the sha256 CI checks against the installed script: three images, so
    # the pairing rows differ for each pair of primes
    code, out, err = run(
        capsys, "--format", "json", "classify", "--ext", "Heisenberg:7",
        "--kdata", str(DATA / "heisenberg7_three_images_kdata.json"),
    )
    assert (code, err) == (0, "")
    witnesses = json.loads(out)["witnesses"]
    assert len(witnesses) == 2016
    # each image stays in its prime's coset of H = {(a, b, 0)}
    assert all(
        {q: y[2] for q, y in w["assignment"].items()} == {"29": 1, "113": 2, "281": 3}
        for w in witnesses
    )
    digest, name = (DATA / "heisenberg7_three_images.sha256").read_text().split()
    assert name == "heisenberg7_three_images.json"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classify_heisenberg7_four_primes_data(capsys):
    # the sha256 CI checks against the installed script: 49^3 lift-test
    # prefixes, each row of 49 candidates under a two-prime outer prefix
    code, out, err = run(
        capsys, "--format", "json", "classify", "--ext", "Heisenberg:7",
        "--kdata", str(DATA / "heisenberg7_four_primes.json"),
    )
    assert (code, err) == (0, "")
    assert len(json.loads(out)["witnesses"]) == 4032
    digest, name = (DATA / "heisenberg7_four_primes.sha256").read_text().split()
    assert name == "heisenberg7_four.json"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classify_heisenberg11_data(capsys):
    # the sha256 CI checks against the installed script: 121^2 lift-test
    # prefixes, within the bound; the criterion agrees
    code, out, err = run(
        capsys, "--format", "json", "classify", "--ext", "Heisenberg:11",
        "--kdata", str(DATA / "heisenberg11_kdata.json"),
    )
    assert (code, err) == (0, "")
    assert len(json.loads(out)["witnesses"]) == 13200
    digest, name = (DATA / "heisenberg11.sha256").read_text().split()
    assert name == "heisenberg11.json"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    code, out, _ = run(capsys, "heisenberg", "11", "67", "89", "331")
    assert code == 0 and out.startswith("exists=true\n")


def test_classify_h8_pair_data(capsys):
    # the preset's default H, d = 4305 = 3*5*7*41 with every image
    # (0, 0, 1); the file was recorded when the preset was still the first
    # hit of the H^2 search, and CI diffs the installed script against it
    code, out, err = run(
        capsys, "classify", "--ext", "H8_pair", "--kdata", str(DATA / "h8_pair_4305_kdata.json"),
    )
    assert (code, err) == (0, "")
    assert out == (DATA / "h8_pair_4305_classify.txt").read_text()
    assert out.count("\nwitness ") == 6


@pytest.mark.parametrize(
    "ext,kdata,message",
    [
        ("C4_D4", "c4_d4_unramified_kdata.json", "prime 41 is unramified in K (image in H)"),
        # the image (2, 0) is 0 once reduced, in H
        ("C4_D4", "c4_d4_unreduced_kdata.json", "prime 13 is unramified in K (image in H)"),
        ("Heisenberg:3", "heisenberg3_order_fault_kdata.json",
         "inertia order 3 at 5 does not divide 5-1"),
    ],
    ids=["image-in-h", "unreduced-image-in-h", "order-does-not-divide"],
)
def test_classify_prime_fault_data_exits_2(capsys, ext, kdata, message):
    # the files CI classifies through the installed script: the first
    # prime passes validate's per-prime checks, the second fails one
    code, out, err = run(capsys, "classify", "--ext", ext, "--kdata", str(DATA / kdata))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_classify_check_infinity_is_not_a_flag(tmp_path, capsys):
    # classify tests no condition at the infinite place, so it has no
    # switch for one
    kdata = tmp_path / "k.json"
    kdata.write_text(json.dumps({"H": [[1, 0]], "primes": [{"q": 5, "image": [0, 1]}]}))
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--check-infinity", "--ext", "C4_D4", "--kdata", str(kdata)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith("lemfact: error: unrecognized arguments: --check-infinity\n")


def test_classify_not_admissible_exits_2(tmp_path, capsys):
    # over the split extension of C2 x C2 by C4 with H = <(1, 0)>, the lifts
    # of order |pi(x)| outside H generate half of E: the counting formula of
    # the witness is not integral
    kdata = tmp_path / "k.json"
    kdata.write_text(
        json.dumps(
            {"H": [[1, 0]], "primes": [{"q": 541, "image": [1, 1]}, {"q": 173, "image": [0, 1]}]}
        )
    )
    code, out, err = run(capsys, "classify", "--ext", "split:2,2/4", "--kdata", str(kdata))
    assert (code, out) == (2, "")
    assert err == (
        "error: not an admissible pair (lifts generate only 8 of 16 elements): "
        "counting formula inconsistency: 4/8\n"
    )


def test_classify_aut_bound_exits_2(tmp_path, capsys):
    # the split extension's counting enumerates Aut(C2^5): 2^25 candidates
    kdata = tmp_path / "k.json"
    kdata.write_text(json.dumps({"H": [], "primes": [{"q": 7, "image": [1]}]}))
    start = time.perf_counter()
    code, out, err = run(
        capsys, "classify", "--ext", "split:3/2,2,2,2,2", "--kdata", str(kdata)
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: 33554432 candidate automorphisms exceed bound 1024\n"


def test_max_disc_flag(capsys, monkeypatch):
    monkeypatch.delenv("LEMFACT_MAX_DISC", raising=False)
    code, _, err = run(capsys, "--max-disc", "100", "c4", "205")
    assert code == 2
    monkeypatch.delenv("LEMFACT_MAX_DISC", raising=False)


@pytest.mark.parametrize(
    "argv,err",
    [
        # the bound check names the number factored first: |d/4| for the
        # fundamentality test of d = 0 mod 4, then |d| for the Redei matrix
        (("200", "redei", "-420"), "420 exceeds discriminant bound 200"),
        (("100", "redei", "-420"), "105 exceeds discriminant bound 100"),
        (("200", "fourrank", "-420"), "|-420| exceeds oracle bound 200"),
        (("100", "fourrank", "-420"), "105 exceeds discriminant bound 100"),
        (("200", "classgroup", "-420"), "|-420| exceeds oracle bound 200"),
        (("100", "redei", "205"), "205 exceeds discriminant bound 100"),
        (("100", "fourrank", "205"), "imaginary quadratic oracle needs d < 0, got 205"),
        (("100", "classgroup", "205"), "imaginary quadratic oracle needs d < 0, got 205"),
        (("20", "classgroup", "45"), "imaginary quadratic oracle needs d < 0, got 45"),
        (("20", "redei", "45"), "45 exceeds discriminant bound 20"),
        (("100", "redei", "45"), "45 is not a fundamental discriminant of a field"),
    ],
)
def test_oracle_max_disc_errors_are_pinned(capsys, monkeypatch, argv, err):
    monkeypatch.delenv("LEMFACT_MAX_DISC", raising=False)
    max_disc, which, d = argv
    code, out, got = run(capsys, "--max-disc", max_disc, "oracle", which, d)
    assert (code, out, got) == (2, "", f"error: {err}\n")


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out == (
        "ok   kronecker symbol vs euler criterion\n"
        "ok   prime discriminant factorization product\n"
        "ok   cocycle identity and pairing antisymmetry\n"
        "ok   heisenberg stabilizer and orbit size\n"
        "ok   unique quaternion pair over (C2^3, C2)\n"
        "ok   classify matches c4 criterion on presets\n"
        "ok   oracle sweep: genus theory, redei, c4 equivalence\n"
        "selftest passed\n"
    )
