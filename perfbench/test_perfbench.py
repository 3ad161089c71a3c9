"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
from workloads import WORKLOADS, all_chunks, plan

ROOT = Path(__file__).resolve().parent.parent
C4O = "survey-c4-oracle"


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


def _chunk_result(key, csv_text, criterion):
    return {
        "key": key,
        "digest": worker.digest(csv_text),
        "units": csv_text.count("\n") - 1,
        "failed": worker.survey_failures(criterion, csv_text),
    }


def test_flipped_csv_cell_raises_fail_frac(reference):
    worker.import_lemfact()
    chunk = all_chunks(C4O)[-1]
    survey = worker.Survey(WORKLOADS[C4O])
    text = survey.run(chunk["range"])
    clean = {"chunks": [_chunk_result(chunk["key"], text, "c4")]}
    attempted, failed = run.score(C4O, clean, reference)
    assert attempted > 0 and failed == 0

    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    col = cells.index("True") if "True" in cells else cells.index("False")
    cells[col] = "False" if cells[col] == "True" else "True"
    lines[1] = ",".join(cells)
    corrupted = "".join(lines)
    result = _chunk_result(chunk["key"], corrupted, "c4")
    assert result["failed"] == 1  # the independent check alone catches it
    attempted, failed = run.score(C4O, {"chunks": [result]}, reference)
    assert failed / attempted > 0


def test_plans_are_seeded(reference):
    for name in WORKLOADS:
        assert plan(name, 7, reference) == plan(name, 7, reference)
        assert plan(name, 7, reference) != plan(name, 8, reference)
        keys = reference["workloads"][name]["digests"]
        assert all(c["key"] in keys for c in plan(name, 7, reference))


def test_heisenberg_seeds_cover_both_verdicts(reference):
    name = "classify-heisenberg5"
    verdicts = {tuple(e["triple"]): e["exists"] for e in reference["workloads"][name]["pool"]}
    for seed in range(50):
        seen = {verdicts[tuple(c["triple"])] for c in plan(name, seed, reference)}
        assert seen == {True, False}


def test_traced_layers_add_up_to_traced_wall():
    spec = WORKLOADS[C4O]
    chunks = all_chunks(C4O)[-2:]
    untraced = run.run_worker(spec, chunks)
    traced = run.run_worker(spec, chunks, trace=True)
    assert [c["digest"] for c in traced["chunks"]] == [c["digest"] for c in untraced["chunks"]]
    t = run.TracedPass(traced, untraced, rows=0)
    assert t.unattributed >= 0
    assert sum(t.body_layers.values()) + t.unattributed == pytest.approx(traced["body_s"])
    assert t.span("oracle.reduced_forms")[0] > 0


def test_benchmark_json_matches_the_code():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [s["why"] for s in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        m[:3] for m in run.PER_LAYER
    ]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", C4O, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
