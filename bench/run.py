"""convexiwave benchmark: one workload per process, closed loop, one op at a time.

Run from the root of a source checkout:

    python3 bench/run.py --workload sim-invert-60 --seed 1 --seconds 25 --trace 0

Inputs come from ``--seed``. Ops run back to back for ``--seconds`` and at
least one full pass over the workload's inputs; every output is checked, and
a failed op is counted, not fatal. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The traced run alternates an untraced and a traced op on the
same input, requires identical fingerprints from both, and reports the
difference in wall time as the tracing overhead. Earlier lines carry the
environment, one record per op with its quality fingerprint, and a summary.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads; the package applies its
# own CONVEXIWAVE_THREADS cap only inside its CLI.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is timed in this many fresh processes, from outside, and the median
# is reported, since one interpreter start and import is too noisy to compare.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "1",
    "l2_rel_err": "1",
}


def load_package():
    """Import convexiwave from this checkout's ``src``, or exit non-zero without a result."""
    if not (SRC / "convexiwave" / "__init__.py").is_file():
        sys.exit(f"error: no convexiwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import convexiwave

    if Path(convexiwave.__file__).resolve().parent != SRC / "convexiwave":
        sys.exit(f"error: imported convexiwave from {convexiwave.__file__}, not {SRC}")


def run_op(workload, case, tracer) -> dict:
    """One timed op plus its checks; any exception marks the op failed."""
    tracer.begin_op()
    with tracer.installed():
        t0 = time.perf_counter()
        try:
            out = workload.op(case)
        except Exception as exc:
            wall = time.perf_counter() - t0
            return {"case": case.label, "wall_s": wall, "ok": False, "fingerprint": None,
                    "problems": [f"raised {type(exc).__name__}: {exc}"],
                    "traceback": traceback.format_exc()}
        wall = time.perf_counter() - t0
    try:
        checked = workload.check(case, out, tracer)
    except Exception as exc:
        return {"case": case.label, "wall_s": wall, "ok": False, "fingerprint": None,
                "problems": [f"check raised {type(exc).__name__}: {exc}"],
                "traceback": traceback.format_exc()}
    return {"case": case.label, "wall_s": wall, "ok": not checked.problems,
            "problems": checked.problems, "quality": list(checked.quality),
            "fingerprint": checked.fingerprint, **checked.notes}


class Ledger:
    """Every op record of a run, and the fingerprint consistency checks over them."""

    def __init__(self):
        self.records = []
        self.first = {}  # case label -> first passing record
        self.mismatches = []

    def add(self, record: dict, mode: str) -> dict:
        record = {"op": len(self.records), "mode": mode, **record}
        self.records.append(record)
        if record["ok"]:
            first = self.first.setdefault(record["case"], record)
            if first["fingerprint"] != record["fingerprint"]:
                self.mismatches.append((first["op"], record["op"]))
        print(json.dumps(record), flush=True)
        return record

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)

    def fingerprint_digest(self) -> str:
        text = json.dumps([self.first[k]["fingerprint"] for k in sorted(self.first)])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_plain(workload, seconds: float, ledger: Ledger):
    """Ops back to back until the time is up and every input ran at least once."""
    probes = tracing.Tracer(tracing.PROBES)
    n = len(workload.cases)
    t0 = time.perf_counter()
    i = 0
    while i < n or time.perf_counter() - t0 < seconds:
        ledger.add(run_op(workload, workload.cases[i % n], probes), "plain")
        i += 1
    return time.perf_counter() - t0


def run_traced(workload, seconds: float, ledger: Ledger):
    """Untraced and traced op on the same input, in turn, until the time is up."""
    probes = tracing.Tracer(tracing.PROBES)
    tracer = tracing.Tracer()
    profiles, overheads, plain_s = [], [], []
    n = len(workload.cases)
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        case = workload.cases[i % n]
        plain = ledger.add(run_op(workload, case, probes), "plain")
        traced = ledger.add(run_op(workload, case, tracer), "traced")
        if plain["ok"] and traced["ok"]:
            profiles.append(tracing.OpProfile.from_tracer(tracer))
            overheads.append(traced["wall_s"] - plain["wall_s"])
            plain_s.append(plain["wall_s"])
        i += 1
    return tracing.layer_metrics(profiles, workload.cold_s, overheads, plain_s)


def setup_samples(args) -> list:
    """Wall times of fresh processes that start, do this workload's set-up and exit.

    Each is timed around the whole child process, so interpreter start-up,
    imports and input generation all count, as they do for a CLI user.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, timeout=120, check=True,
        )
        samples.append(time.perf_counter() - t0)
    return samples


def end_to_end(workload, ledger: Ledger, elapsed: float, setup_s: list) -> dict:
    ok = [r for r in ledger.records if r["ok"]]
    # Mean over inputs of each input's median op time, i.e. one pass over the
    # inputs divided by their number: field-data mixes ~1 ms and ~60 ms ops,
    # and a median over ops or over inputs would be set by whichever inputs
    # straddle the middle, so a change to the fast inputs would not show.
    walls = {}
    for r in ok or ledger.records:
        walls.setdefault(r["case"], []).append(r["wall_s"])
    quality = [ledger.first[c.label]["quality"] for c in workload.cases if c.label in ledger.first]
    return {
        "ops_per_s": len(ok) / elapsed,
        "op_s_p50": statistics.fmean(statistics.median(w) for w in walls.values()),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(ok) / len(ledger.records),
        "l2_rel_err": statistics.fmean(q[1] for q in quality) if quality else 0.0,
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload and exit; used to time set-up")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    ledger = Ledger()
    setups = []
    if args.trace:
        metrics = run_traced(workload, args.seconds, ledger)
        units = tracing.per_layer_units()
    else:
        elapsed = run_plain(workload, args.seconds, ledger)
        setups = setup_samples(args)
        metrics = end_to_end(workload, ledger, elapsed, setups)
        units = END_TO_END_UNITS
    correct = ledger.failed == 0 and not ledger.mismatches
    first = list(ledger.first.values())
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"summary": {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "ops": len(ledger.records), "failed": ledger.failed, "setup_samples_s": setups,
        "failed_frac": ledger.failed / len(ledger.records),
        "fingerprint_mismatches": ledger.mismatches,
        "fingerprint_digest": ledger.fingerprint_digest(),
        "peak_rel_err": statistics.fmean(r["quality"][0] for r in first) if first else None,
        "band_misses": [m for r in first for m in r.get("band_misses", [])],
        "quality_by_case": {r["case"]: r["quality"] for r in first},
    }}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ledger.records),
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
