"""lemfact benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload survey-h8 --seed 1 --seconds 25 --trace 0

Run from the root of a lemfact checkout.  The seed picks the run's inputs
from the workload's pool (see workloads.py).  Each pass over those inputs
runs in a fresh worker process, so module-level caches start cold every
time, and passes repeat while one more still ends within --seconds (at
least MIN_PASSES).  Extra set-up-only workers make the set-up median.
Timings are calibrated to the host's reference speed (calibrate.py), and
each item's latency is its median over the passes.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
makes one untraced and one traced pass and reports the per-layer metrics
from the traced one.  Every chunk's output digest is compared with
reference.json, and the workers' independent checks count failing items.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, plan  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 5
# passes end by this many seconds, whatever --seconds says
PASS_DEADLINE_S = 120
WORKER_TIMEOUT_S = 170

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)


# --- per-layer metrics -----------------------------------------------------------

def _calls(span):
    return lambda t: t.span(span)[0]


def _self(span):
    return lambda t: t.span(span)[1]


def _items(span):
    return lambda t: t.span(span)[2]


def _hit_ratio(cache):
    return lambda t: t.hit_ratio(cache)


def _layer(layer):
    return lambda t: t.body_layers[layer]


HEIS = "classify-heisenberg5"
QUAD = "classify-quadratic"
C4O = "survey-c4-oracle"
H8S = "survey-h8"

PER_LAYER = (
    # name, unit, better, value, the end-to-end metric it should move
    ("arith.factorize.calls", "count", "lower", _calls("arith.factorize"), f"wall_s on {H8S}"),
    ("arith.factorize.self_s", "s", "lower", _self("arith.factorize"), f"wall_s on {H8S}"),
    ("arith.max_disc.calls", "count", "lower", _calls("arith.max_disc"), f"wall_s on {H8S}"),
    ("arith.is_fundamental_discriminant.self_s", "s", "lower",
     _self("arith.is_fundamental_discriminant"), f"wall_s on {H8S}"),
    ("arith.power_residue_char.calls", "count", "lower", _calls("arith.power_residue_char"),
     f"wall_s on {HEIS}"),
    ("arith.power_residue_char.hit_ratio", "ratio", "higher",
     _hit_ratio("arith.power_residue_char"), f"wall_s on {HEIS}"),
    ("arith.discrete_log.self_s", "s", "lower", _self("arith.discrete_log"), f"wall_s on {HEIS}"),
    ("arith.kronecker.calls", "count", "lower", _calls("arith.kronecker"),
     f"wall_s on {C4O} and {H8S}"),
    ("abelian.group_ops.calls", "count", "lower", _calls("abelian.group_ops"), f"wall_s on {HEIS}"),
    ("abelian.generates.calls", "count", "lower", _calls("abelian.generates"),
     f"item_p50_ms on {QUAD}"),
    ("abelian.smith_normal_form.self_s", "s", "lower", _self("abelian.smith_normal_form"),
     f"item_p50_ms on {QUAD}"),
    ("abelian.subgroup_generated.self_s", "s", "lower", _self("abelian.subgroup_generated"),
     f"item_p50_ms on {QUAD}"),
    ("abelian.elem_order.hit_ratio", "ratio", "higher", _hit_ratio("abelian.elem_order"),
     f"item_p50_ms on {QUAD}"),
    ("cocycle.pairing.calls", "count", "lower", _calls("cocycle.pairing"), f"wall_s on {HEIS}"),
    ("cocycle.pairing.self_s", "s", "lower", _self("cocycle.pairing"), f"wall_s on {HEIS}"),
    ("cocycle.y_set.self_s", "s", "lower", _self("cocycle.y_set"), f"setup_s on {HEIS}"),
    ("cocycle.aut_stabilizer_order.self_s", "s", "lower", _self("cocycle.aut_stabilizer_order"),
     f"setup_s on {HEIS}"),
    ("cocycle.is_coboundary.calls", "count", "lower", _calls("cocycle.is_coboundary"),
     f"setup_s on {HEIS}"),
    ("cocycle.enumerate_central_extensions.self_s", "s", "lower",
     _self("cocycle.enumerate_central_extensions"), f"setup_s on {QUAD}"),
    ("solver.has_unramified_lift.calls", "count", "lower", _calls("solver.has_unramified_lift"),
     f"wall_s on {HEIS}, item_p50_ms on {QUAD}"),
    ("solver.has_unramified_lift.self_s", "s", "lower", _self("solver.has_unramified_lift"),
     f"wall_s on {HEIS}, item_p50_ms on {QUAD}"),
    ("solver.frobenius_pairing_sum.calls", "count", "lower", _calls("solver.frobenius_pairing_sum"),
     f"wall_s on {HEIS}, item_p50_ms on {QUAD}"),
    ("solver.frobenius_pairing_sum_direct.calls", "count", "lower",
     _calls("solver.frobenius_pairing_sum_direct"), f"wall_s on {HEIS}, item_p50_ms on {QUAD}"),
    ("solver.lift_pass_ratio", "ratio", "higher", lambda t: t.lift_pass_ratio(),
     f"item_p50_ms and item_p99_ms on {QUAD}"),
    ("solver.RamAssignment.calls", "count", "lower", _calls("solver.RamAssignment"),
     f"item_p50_ms and item_p99_ms on {QUAD}"),
    ("solver.enumerate_assignments.self_s", "s", "lower", _self("solver.enumerate_assignments"),
     f"item_p50_ms and item_p99_ms on {QUAD}"),
    ("solver.assignments", "count", "lower", _items("solver.enumerate_assignments"),
     f"item_p50_ms and item_p99_ms on {QUAD}"),
    ("solver.count_extensions.self_s", "s", "lower", _self("solver.count_extensions"),
     f"item_p50_ms on {QUAD}"),
    ("solver.classify.self_s", "s", "lower", _self("solver.classify"), f"item_p50_ms on {QUAD}"),
    ("criteria.h8_criterion.calls", "count", "lower", _calls("criteria.h8_criterion"),
     f"wall_s on {H8S}"),
    ("criteria.h8_criterion.self_s", "s", "lower", _self("criteria.h8_criterion"),
     f"wall_s on {H8S}"),
    ("criteria.c4_criterion.self_s", "s", "lower", _self("criteria.c4_criterion"),
     f"wall_s on {C4O}"),
    ("oracle.reduced_forms.calls", "count", "lower", _calls("oracle.reduced_forms"),
     f"wall_s on {C4O}"),
    ("oracle.reduced_forms.self_s", "s", "lower", _self("oracle.reduced_forms"), f"wall_s on {C4O}"),
    ("oracle.forms", "count", "lower", _items("oracle.reduced_forms"), f"wall_s on {C4O}"),
    ("oracle.square.calls", "count", "lower", _calls("oracle.square"), f"wall_s on {C4O}"),
    ("oracle.square.self_s", "s", "lower", _self("oracle.square"), f"wall_s on {C4O}"),
    ("oracle.redei_rank.self_s", "s", "lower", _self("oracle.redei_rank"), f"wall_s on {C4O}"),
    ("oracle.rank_sweep.calls", "count", "lower", _calls("oracle.rank_sweep"), f"wall_s on {C4O}"),
    ("oracle.rank_sweep.self_s", "s", "lower", _self("oracle.rank_sweep"), f"wall_s on {C4O}"),
    ("cli.cmd_survey.self_s", "s", "lower", _self("cli.cmd_survey"),
     f"wall_s on {C4O} and {H8S}"),
    ("cli.rows", "count", "higher", lambda t: t.rows, f"wall_s on {C4O} and {H8S}"),
) + tuple(
    (f"layer.{layer}.self_s", "s", "lower", _layer(layer),
     "traced wall_s; the layer table sums to trace.wall_s")
    for layer in ("arith", "abelian", "cocycle", "solver", "criteria", "oracle", "cli")
) + (
    ("layer.unattributed_s", "s", "lower", lambda t: t.unattributed,
     "traced wall_s outside every span"),
    ("trace.wall_s", "s", "lower", lambda t: t.wall_s, "wall_s, with tracing on"),
    ("trace.untraced_wall_s", "s", "lower", lambda t: t.untraced_wall_s, "wall_s"),
    ("trace.overhead_s", "s", "lower", lambda t: t.wall_s - t.untraced_wall_s,
     "cost of the spans: traced minus untraced wall_s"),
)


class TracedPass:
    """Readout of one traced worker pass, next to its untraced twin."""

    def __init__(self, traced: dict, untraced: dict, rows: int):
        tr = traced["trace"]
        self.spans = tr["end"]["spans"]
        self.caches = (tr["start"]["caches"], tr["end"]["caches"])
        self.body_layers = {
            k: tr["end"]["layers"][k] - tr["setup"]["layers"][k] for k in tr["end"]["layers"]
        }
        self.wall_s = traced["body_s"]
        self.untraced_wall_s = untraced["body_s"]
        self.unattributed = self.wall_s - sum(self.body_layers.values())
        self.rows = rows

    def span(self, name):
        return self.spans.get(name, [0, 0.0, 0])

    def hit_ratio(self, cache):
        (h0, m0), (h1, m1) = self.caches[0][cache], self.caches[1][cache]
        looked_up = (h1 - h0) + (m1 - m0)
        return (h1 - h0) / looked_up if looked_up else 0.0

    def lift_pass_ratio(self):
        calls, _, passed = self.span("solver.has_unramified_lift")
        return passed / calls if calls else 0.0


# --- running workers -----------------------------------------------------------------

class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LEMFACT_MAX_DISC", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec: dict, chunks: list, trace: bool = False, calibrate: bool = False) -> dict:
    job = json.dumps({"spec": spec, "chunks": chunks, "trace": trace, "calibrate": calibrate})
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=job,
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def score(name: str, result: dict, reference: dict) -> tuple[int, int]:
    """(attempted, failed) units of one pass.  A chunk whose digest differs
    from the reference fails as a whole."""
    ref = reference["workloads"][name]["digests"]
    attempted = failed = 0
    for ch in result["chunks"]:
        want = ref.get(ch["key"])
        if want is None:
            raise BenchError(f"no reference digest for chunk {ch['key']} of {name}")
        attempted += want["units"]
        if ch["digest"] != want["digest"] or ch["units"] != want["units"]:
            failed += want["units"]
        else:
            failed += min(ch["failed"], want["units"])
    return attempted, failed


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(0.99 * len(s)) - 1)]


def measure(name: str, seed: int, seconds: float, reference: dict) -> dict:
    spec = WORKLOADS[name]
    chunks = plan(name, seed, reference)
    passes = []
    start = time.perf_counter()
    # a pass starts only if a pass of average length still ends in time
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start
    ) * (len(passes) + 1) / len(passes) <= min(seconds, PASS_DEADLINE_S):
        passes.append(run_worker(spec, chunks, calibrate=True))
    setups = [p["setup_s"] for p in passes]
    setups += [run_worker(spec, [], calibrate=True)["setup_s"] for _ in range(SETUP_PROBES)]
    attempted = failed = 0
    for p in passes:
        a, f = score(name, p, reference)
        attempted += a
        failed += f
    # every pass runs the same items; an item's latency is its median over passes
    per_item = [statistics.median(lat) for lat in zip(*(p["latencies_s"] for p in passes))]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_item),
        "item_p50_ms": statistics.median(per_item) * 1000,
        "item_p99_ms": p99(per_item) * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw_wall = statistics.median(p["raw_wall_s"] for p in passes)
    per_pass = f"{len(per_item)} items, each at its median over {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"sum over {per_pass}; median pass {raw_wall:.6g} s before calibration",
        "item_p50_ms": f"median of {per_pass}",
        "item_p99_ms": f"nearest-rank p99 of {per_pass}",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    metrics = {
        m: {"value": values[m], "unit": unit} for m, unit, _, _ in END_TO_END
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def measure_traced(name: str, seed: int, reference: dict) -> dict:
    spec = WORKLOADS[name]
    chunks = plan(name, seed, reference)
    untraced = run_worker(spec, chunks)
    traced = run_worker(spec, chunks, trace=True)
    attempted = failed = 0
    for p in (untraced, traced):
        a, f = score(name, p, reference)
        attempted += a
        failed += f
    same = [c["digest"] for c in traced["chunks"]] == [c["digest"] for c in untraced["chunks"]]
    rows = sum(c["units"] for c in traced["chunks"]) if spec["kind"] == "survey" else 0
    t = TracedPass(traced, untraced, rows)
    metrics = {m: {"value": fn(t), "unit": unit} for m, unit, _, fn, _ in PER_LAYER}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "notes": {}, "digests_match": same}


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lemfact" / "__init__.py").is_file():
        print(f"error: no lemfact sources under {ROOT / 'src'}; run from a lemfact checkout",
              file=sys.stderr)
        return 2
    try:
        reference = load_reference()
        if args.trace:
            res = measure_traced(args.workload, args.seed, reference)
        else:
            res = measure(args.workload, args.seed, args.seconds, reference)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = res["failed"] == 0 and res.get("digests_match", True)
    for m, v in res["metrics"].items():
        note = res["notes"].get(m)
        print(f"{m} = {v['value']:.6g} {v['unit']}" + (f"  ({note})" if note else ""))
    print(f"fail_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} items failed their output check)")
    if "digests_match" in res:
        print(f"traced digests equal untraced: {res['digests_match']}")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
