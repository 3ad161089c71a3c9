"""Record the benchmark's reference data and baseline.

    python3 perfbench/record.py reference [WORKLOAD ...]  # rewrite reference.json
    python3 perfbench/record.py baseline                  # rewrite baseline.json

``reference`` runs every chunk of each named workload's pool (default:
all) once and stores its output digest and item count; it refuses to record a chunk that fails
the independent checks.  The Heisenberg pool itself is drawn here, from
HEISENBERG_POOL_SEED, and stored with each triple's verdict.  Outputs are
meant to stay byte-identical across changes, so a reference is recorded
once and only re-recorded when an output change is intended.

``baseline`` runs run.py once per workload untraced and once traced, at
BASELINE_SEED, and stores the numbers with the machine they came from and
the layer-to-end-to-end mapping.
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    HEISENBERG_POOL_PER_VERDICT,
    HEISENBERG_POOL_SEED,
    WORKLOADS,
    all_chunks,
    heisenberg_primes,
)

BASELINE_SEED = 1
BASELINE_SECONDS = 25


def heisenberg_pool(ell: int) -> list[dict]:
    from worker import import_lemfact

    import_lemfact()
    from lemfact.criteria import heisenberg_criterion

    rng = random.Random(HEISENBERG_POOL_SEED)
    primes = heisenberg_primes(ell)
    pool, seen, count = [], set(), {True: 0, False: 0}
    while min(count.values()) < HEISENBERG_POOL_PER_VERDICT:
        triple = tuple(sorted(rng.sample(primes, 3)))
        if triple in seen:
            continue
        seen.add(triple)
        crit = heisenberg_criterion(ell, *triple)
        if count[crit.exists] < HEISENBERG_POOL_PER_VERDICT:
            count[crit.exists] += 1
            pool.append({"triple": list(triple), "exists": crit.exists,
                         "solutions": len(crit.solutions)})
    return pool


def record_reference(names):
    path = HERE / "reference.json"
    out = run.load_reference() if path.exists() else {"workloads": {}}
    for name in names or WORKLOADS:
        spec = WORKLOADS[name]
        entry = {}
        if spec["kind"] == "heisenberg":
            entry["pool"] = heisenberg_pool(spec["ell"])
            out["workloads"][name] = entry
        chunks = all_chunks(name, out)
        digests = {}
        for i in range(0, len(chunks), 20):
            res = run.run_worker(spec, chunks[i : i + 20])
            for ch in res["chunks"]:
                if ch["failed"]:
                    raise SystemExit(f"{name} {ch['key']}: {ch['failed']} items fail their check")
                digests[ch["key"]] = {"digest": ch["digest"], "units": ch["units"]}
        entry["digests"] = digests
        out["workloads"][name] = entry
        print(f"{name}: {len(digests)} chunks, {sum(d['units'] for d in digests.values())} items")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def bench(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(BASELINE_SEED),
         "--seconds", str(BASELINE_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_baseline():
    out = {
        "seed": BASELINE_SEED,
        "seconds": BASELINE_SECONDS,
        "machine": machine(),
        "workloads": {},
        "per_layer_moves": {name: moves for name, _, _, _, moves in run.PER_LAYER},
    }
    for name, spec in WORKLOADS.items():
        untraced, traced = bench(name, 0), bench(name, 1)
        m = traced["metrics"]
        layers = {k.split(".")[1]: v["value"] for k, v in m.items()
                  if k.startswith("layer.") and k != "layer.unattributed_s"}
        layers["unattributed"] = m["layer.unattributed_s"]["value"]
        out["workloads"][name] = {
            "why": spec["why"],
            "correct": untraced["correct"] and traced["correct"],
            "end_to_end": {k: v["value"] for k, v in untraced["metrics"].items()},
            "traced_wall_s": m["trace.wall_s"]["value"],
            "trace_overhead_s": m["trace.overhead_s"]["value"],
            "traced_self_s_by_layer": layers,
            "per_layer": {k: v["value"] for k, v in m.items()},
        }
        print(f"{name}: done")
    with open(HERE / "baseline.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "reference":
        record_reference(sys.argv[2:])
    elif what == "baseline":
        record_baseline()
    else:
        raise SystemExit(__doc__)
