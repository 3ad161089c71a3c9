"""One measured pass of a workload, in a fresh process.

Reads a job (workload spec, chunks, trace and calibrate flags) as JSON on
stdin and prints one JSON line: set-up time, per-item latencies, body wall
time, peak RSS, per-chunk output digests and independent-check failures,
and, when traced, the span statistics.  Set-up is timed from just before
lemfact is imported to the end of the per-extension precompute.  An item
is one survey CLI call, or building one base field and classifying it.
Output checks run after the body, outside every timed region.

With calibrate set, a calibrate.Sampler runs from before set-up to after
the last item, and set-up and item times are reported in its reference
seconds.
"""

import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from calibrate import Sampler

ROOT = Path(__file__).resolve().parent.parent


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class ItemError(str):
    """Output of an item whose call raised."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def import_lemfact():
    """Import lemfact from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lemfact

    if Path(lemfact.__file__).resolve().parent != src / "lemfact":
        raise ImportError(f"lemfact imported from {lemfact.__file__}, not {src}")


# --- workload kinds: set-up, one item, output text, independent check ---------

class Survey:
    def __init__(self, spec):
        from lemfact.cli import main

        self.main = main
        self.args = ["--criterion", spec["criterion"]] + (["--oracle"] if spec["oracle"] else [])
        self.criterion = spec["criterion"]

    def items(self, chunk):
        return [chunk["range"]]

    def run(self, rng):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.main(["survey", f"--range={rng[0]}..{rng[1]}"] + self.args)
        if rc != 0:
            raise RuntimeError(f"survey exited with {rc}")
        return buf.getvalue()

    def text(self, outputs):
        return outputs[0]

    def units(self, outputs):
        return max(outputs[0].count("\n") - 1, 0)

    def check(self, chunk, outputs):
        """Failing rows, by identities the survey columns must satisfy."""
        return survey_failures(self.criterion, outputs[0])


def survey_failures(criterion: str, csv_text: str) -> int:
    failed = 0
    for row in csv.DictReader(io.StringIO(csv_text)):
        try:
            exists = {"True": True, "False": False}[row["exists"]]
            omega = int(row["omega"])
            if criterion == "c4":
                four = int(row["oracle_four_rank"])
                ok = (
                    exists == (four >= 1)
                    and four == int(row["redei_rank"])
                    and int(row["oracle_two_rank"]) == int(row["t_prime_discs"]) - 1
                )
            else:
                ok = not exists or int(row["count_per_witness"]) == 2 ** (omega - 3)
        except (KeyError, ValueError):
            ok = False
        failed += not ok
    return failed


class _Classify:
    """Items are classify calls, outputs are Reports."""

    def text(self, outputs):
        return "\n".join(canonical(r.to_json()) for r in outputs)

    def units(self, outputs):
        return len(outputs)


class Heisenberg(_Classify):
    def __init__(self, spec):
        from lemfact import BaseFieldData, aut_stabilizer_order, classify, preset
        from lemfact.criteria import heisenberg_criterion

        self.ell = spec["ell"]
        self.ext, self.h = preset("Heisenberg", self.ell)
        self.ext.y_set()
        aut_stabilizer_order(self.ext)
        self.classify, self.kdata = classify, BaseFieldData
        self.criterion = heisenberg_criterion

    def items(self, chunk):
        return [chunk["triple"]]

    def run(self, triple):
        kdata = self.kdata(self.h, tuple((q, (0, 0, 1)) for q in triple))
        return self.classify(self.ext, self.h, kdata)

    def check(self, chunk, outputs):
        (rep,) = outputs
        crit = self.criterion(self.ell, *chunk["triple"])
        ok = rep.exists == crit.exists and all(w.count_per_class == 1 for w in rep.witnesses)
        return int(not ok)


class Quadratic(_Classify):
    def __init__(self, spec):
        from lemfact import BaseFieldData, aut_stabilizer_order, classify, preset
        from lemfact.criteria import c4_criterion

        self.exts = {}
        for name in ("C4_D4", "H8_pair"):
            ext, h = preset(name)
            ext.y_set()
            aut_stabilizer_order(ext)
            self.exts[name] = (ext, h)
        ext, h = self.exts["H8_pair"]
        self.inertia = {
            "C4_D4": (0, 1),
            "H8_pair": next(g for g in sorted(ext.gab.elements()) if g not in h),
        }
        self.classify, self.kdata = classify, BaseFieldData
        self.c4_criterion = c4_criterion

    def items(self, chunk):
        return chunk["items"]

    def run(self, item):
        ext, h = self.exts[item["ext"]]
        g = self.inertia[item["ext"]]
        kdata = self.kdata(h, tuple((q, g) for q in item["primes"]))
        return self.classify(ext, h, kdata)

    def check(self, chunk, outputs):
        failed = 0
        for it, rep in zip(chunk["items"], outputs):
            if it["ext"] == "C4_D4":
                crit = self.c4_criterion(it["d"])
                ok = rep.exists == crit.exists and len(rep.witnesses) == 2 * len(crit.witnesses)
            else:
                omega = len(it["primes"])
                ok = all(w.count_per_class == 2 ** (omega - 3) for w in rep.witnesses)
            failed += not ok
        return failed


KINDS = {"survey": Survey, "heisenberg": Heisenberg, "quadratic": Quadratic}


# --- one pass ------------------------------------------------------------------

def run_pass(job: dict) -> dict:
    sampler = Sampler() if job["calibrate"] else None
    with sampler or contextlib.nullcontext():
        t_setup = time.perf_counter()
        import_lemfact()
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            start_trace = tracer.snapshot()
        kind = KINDS[job["spec"]["kind"]](job["spec"])
        spans = [(t_setup, time.perf_counter())]
        if tracer is not None:
            setup_trace = tracer.snapshot()

        results = []
        t_body = time.perf_counter()
        for chunk in job["chunks"]:
            outputs = []
            for item in kind.items(chunk):
                t = time.perf_counter()
                try:
                    outputs.append(kind.run(item))
                except Exception as exc:  # noqa: BLE001 - an item that raises is a failed item
                    outputs.append(ItemError(f"error: {exc!r}"))
                spans.append((t, time.perf_counter()))
            results.append(outputs)
        body_s = time.perf_counter() - t_body
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    raw = [b - a for a, b in spans]
    timed = [sampler.reference_time(a, b) for a, b in spans] if sampler else raw
    setup_s, latencies = timed[0], timed[1:]
    out = {
        "setup_s": setup_s,
        "raw_wall_s": sum(raw[1:]),
        "body_s": body_s,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {"start": start_trace, "setup": setup_trace, "end": tracer.snapshot()}

    chunks_out = []
    for chunk, outputs in zip(job["chunks"], results):
        if any(isinstance(o, ItemError) for o in outputs):
            text, units, failed = "\n".join(map(str, outputs)), len(outputs), len(outputs)
        else:
            text, units, failed = kind.text(outputs), kind.units(outputs), kind.check(chunk, outputs)
        chunks_out.append({"key": chunk["key"], "digest": digest(text), "units": units, "failed": failed})
    out["chunks"] = chunks_out
    return out


def main():
    job = json.load(sys.stdin)
    print(json.dumps(run_pass(job)))


if __name__ == "__main__":
    main()
