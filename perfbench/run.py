"""Outside-in benchmark of renyiflow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  One process, one
client, closed loop: jobs run back to back with OpenBLAS and ``LEL_THREADS``
pinned to one thread, each through ``renyiflow.cli.main(argv)`` in-process
(see workloads.py).  Every job's output is checked after the timed phase.

``--trace 0`` reports the end-to-end metrics: set-up time (the median of
five set-ups, four of them in fresh processes, each being imports, input
generation and one warm-up job), throughput, median and tail job time, and
peak memory.  Job times are given in "ref" units: a job's wall time over
the median time of the reference kernel (reference.py) in the eight runs
of it nearest the job, four before and four after.  This cancels the drift
in speed of a shared host; the wall-clock figures are printed beside them
and kept in the record, but not gated.  ``--trace 1`` runs every job
untraced and then traced (see tracer.py) and reports the per-layer metrics
and the tracing overhead; for ``structure-n8`` it also runs a non-gated
diagnostic at the OpenBLAS default thread count.  Human-readable lines
come first; the last line of standard output is one JSON object.  A full
record (environment, per-job times, artifact sha256, per-layer map, spans)
is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("decay-trace", "structure-n8", "comparison-flow")
SETUP_REPEATS = 5
REF_SIDE = 4  # reference runs on each side of a job that set its unit
END_TO_END_UNITS = {"setup_s": "s", "jobs_per_kref": "1/kref", "job_p50_ref": "ref",
                    "job_tail_ref": "ref", "peak_rss_mb": "MB"}
# per-layer figures printed beside the default-thread diagnostic
DIAGNOSTIC_METRICS = ("generator.build_gns.ms_per_call", "generator.check_primitive.ms_per_call",
                      "balance_check.srd_residual.ms_per_call", "balance_check.check_kms.ms_per_call",
                      "flow.gradient_flow_residual.ms_per_call", "flow.metric_tensor.ms_per_call")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up and exit (internal)")
    p.add_argument("--blas-threads", choices=("1", "default"), default="1",
                   help="'default' leaves the OpenBLAS thread count unset (diagnostic)")
    return p.parse_args(argv)


def pin_threads(blas_threads: str) -> None:
    """Set the thread environment; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if blas_threads == "1":
            os.environ[var] = "1"
        else:
            os.environ.pop(var, None)
    os.environ["LEL_THREADS"] = "1"


def out_path(args, kind: str, ext: str = "json") -> str:
    suffix = "" if args.blas_threads == "1" else "-blas-default"
    return os.path.join(OUT, f"{args.workload}-{kind}{suffix}.{ext}")


def openblas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be queried."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "LEL_THREADS": os.environ.get("LEL_THREADS"),
    }


def run_job(jobs, index: int, tracer=None, job_id: int = 0) -> dict:
    """Run jobs[index]; the record carries its time, exit code and artifact."""
    job = jobs[index]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.begin_job(job_id)
            tracer.active = True
        t0 = time.perf_counter()
        try:
            rc, data = job.run()
            error = None
        except Exception as exc:  # a job that raises is a failed job, not a crash of the benchmark
            rc, data, error = None, b"", f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    return {"index": index, "label": job.label, "s": elapsed, "rc": rc, "data": data, "error": error,
            "pruned": sum("pruned" in str(w.message) for w in caught)}


def check_record(jobs, rec: dict, digests: dict) -> None:
    """Check a job's artifact, then replace it by its sha256; a job that
    runs again must reproduce the bytes it produced first."""
    data = rec.pop("data")
    rec["sha256"] = hashlib.sha256(data).hexdigest()
    if rec["error"] is None:
        rec["error"] = jobs[rec["index"]].check(rec["rc"], data)
    if rec["error"] is None and digests.setdefault(rec["index"], rec["sha256"]) != rec["sha256"]:
        rec["error"] = "artifact differs from an earlier run of the same job"


def set_up(workload: str, seed: int, tmp: str):
    """Generate inputs and run the warm-up job; returns (jobs, warm-up record)."""
    import workloads

    jobs = workloads.make_jobs(workload, seed, tmp)
    warm = run_job(jobs, 0)
    check_record(jobs, warm, {})
    return jobs, warm


def run_self(args, extra: list[str], env=None) -> subprocess.CompletedProcess:
    """This benchmark in a fresh process, for the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT, env=env)


def timed_phase(jobs, seconds: float, ref, round_len: int) -> tuple[list[dict], list[float]]:
    """Closed loop over the job list, from the job after the warm-up job,
    until `seconds` have passed and a whole number of rounds of `round_len`
    jobs has run, with a run of the reference kernel between jobs; each
    record gets `ref_s`, the median of the REF_SIDE reference times on each
    side of it."""
    records = []
    refs = [ref.time() for _ in range(REF_SIDE)]
    t0 = time.perf_counter()
    while not records or len(records) % round_len or time.perf_counter() - t0 < seconds:
        records.append(run_job(jobs, (len(records) + 1) % len(jobs)))
        refs.append(ref.time())
    refs += [ref.time() for _ in range(REF_SIDE - 1)]
    for i, rec in enumerate(records):
        rec["ref_s"] = statistics.median(refs[i:i + 2 * REF_SIDE])
    return records, refs


def traced_phase(jobs, seconds: float, tr) -> tuple[list[dict], list[dict]]:
    """Each job untraced, then at once traced, until `seconds` have passed.

    Alternating keeps slow drifts in machine speed out of the overhead
    estimate; the untraced runs pass through the inactive wrappers.
    """
    plain, traced = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        i = len(plain)
        plain.append(run_job(jobs, (i + 1) % len(jobs)))
        traced.append(run_job(jobs, (i + 1) % len(jobs), tr, i))
    return plain, traced


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, beyond).

    Runs of fewer than 40 jobs, where that percentile would be the 75th or
    lower, keep a quarter of their samples beyond it instead (none, so the
    maximum, below four jobs).
    """
    s = sorted(times)
    n = len(s)
    beyond = 10 if n >= 40 else n // 4
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def measure_end_to_end(args, jobs, setup_s: float, warm: dict, problems: list[str]):
    setups = [setup_s]
    for _ in range(SETUP_REPEATS - 1):
        proc = run_self(args, ["--setup-only"])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr[-2000:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(rep["setup_s"])
        if rep["sha256"] != warm["sha256"]:
            problems.append("warm-up artifact differs between processes")
    import reference
    import workloads

    ref = reference.Reference()
    for _ in range(5):  # warm-up
        ref.time()
    records, ref_times = timed_phase(jobs, args.seconds, ref, workloads.ROUND[args.workload])
    times = [r["s"] for r in records]
    in_ref = [r["s"] / r["ref_s"] for r in records]
    tail_ref, pct, beyond = tail(in_ref)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_kref": 1e3 * len(in_ref) / sum(in_ref),
        "job_p50_ref": statistics.median(in_ref),
        "job_tail_ref": tail_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ref_ms = statistics.median(r["ref_s"] for r in records) * 1e3
    wall = {"jobs_per_s": len(times) / sum(times), "job_p50_ms": statistics.median(times) * 1e3,
            "job_tail_ms": tail(times)[0] * 1e3, "ref_ms": ref_ms}
    extra = {"setups_s": setups, "job_tail_percentile": pct, "job_tail_beyond": beyond, "wall": wall,
             "reference_s": ref_times}
    lines = [f"job_tail_ref is p{pct:.1f} of {len(times)} jobs ({beyond} beyond)",
             "wall clock, not gated: " + ", ".join(f"{k} = {v:.6g}" for k, v in wall.items())]
    return records, metrics, END_TO_END_UNITS, extra, lines


def diagnostic_default_threads(args) -> dict:
    """structure-n8 traced at the OpenBLAS default thread count; never gated."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = run_self(args, ["--seconds", str(max(1.0, args.seconds / 2.0)), "--trace", "1",
                           "--blas-threads", "default"], env)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    with open(os.path.join(OUT, f"{args.workload}-trace1-blas-default.json")) as fh:
        child = json.load(fh)
    return {k: child[k] for k in ("environment", "metrics", "layer_shares", "problems")}


def measure_per_layer(args, jobs, package):
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install(package)
    plain, traced = traced_phase(jobs, args.seconds, tr)
    wall = sum(r["s"] for r in traced)
    metrics, shares = tr.metrics(len(traced), wall_traced=wall, wall_untraced=sum(r["s"] for r in plain),
                                 prune_warnings=sum(r["pruned"] for r in traced))
    tr.save(out_path(args, "spans", "npz"))
    calls = tr.summary()
    extra = {"layer_shares": shares, "calls": calls, "exceptions": dict(tr.exceptions),
             "per_layer_map": tracing.PER_LAYER}
    lines = [f"share of traced wall time, {kind}: " + ", ".join(f"{k} {v:.1%}" for k, v in share.items())
             for kind, share in shares.items()]
    for kind in ("busy_s", "self_s"):
        top = sorted(calls.items(), key=lambda kv: -kv[1][kind])[:5]
        lines.append(f"top functions by {kind[:-2]} time: "
                     + ", ".join(f"{name} {v[kind] / wall:.1%}" for name, v in top))
    if args.workload == "structure-n8" and args.blas_threads == "1":
        diag = extra["diagnostic_default_blas_threads"] = diagnostic_default_threads(args)
        if "error" in diag:
            lines.append(f"diagnostic at the OpenBLAS default thread count failed: {diag['error']}")
        else:
            lines.append(f"diagnostic, not gated: OpenBLAS threads 1 vs "
                         f"{diag['environment']['blas_threads']} (default)")
            lines += [f"  {k}: {metrics[k]:.6g} vs {diag['metrics'][k]:.6g} {tracing.PER_LAYER[k][0]}"
                      for k in DIAGNOSTIC_METRICS]
    units = {name: spec[0] for name, spec in tracing.PER_LAYER.items()}
    return plain + traced, metrics, units, extra, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads(args.blas_threads)
    if not os.path.isfile(os.path.join(SRC, "renyiflow", "__init__.py")):
        print(f"error: no renyiflow package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    import renyiflow
    if not os.path.abspath(renyiflow.__file__).startswith(SRC + os.sep):
        print(f"error: renyiflow imported from {renyiflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        t0 = time.perf_counter()
        jobs, warm = set_up(args.workload, args.seed, tmp)
        setup_s = import_s + time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "sha256": warm["sha256"], "error": warm["error"]}))
            return 0 if warm["error"] is None else 1
        problems = [f"warm-up: {warm['error']}"] if warm["error"] else []
        if args.trace == 0:
            records, metrics, units, extra, lines = measure_end_to_end(args, jobs, setup_s, warm, problems)
        else:
            records, metrics, units, extra, lines = measure_per_layer(args, jobs, renyiflow)
        digests = {0: warm["sha256"]}
        for rec in records:
            check_record(jobs, rec, digests)
        failed = [r for r in records if r["error"] is not None]
        problems += [f"{r['label']}: {r['error']}" for r in failed]
        lines.append(f"failed_frac = {len(failed) / len(records):.6g} ({len(failed)} of {len(records)} jobs)")

        env = environment()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}[args.workload]
        record = {"workload": args.workload, "why": why, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, "warm_up": warm, "metrics": metrics, **extra,
                  "problems": problems, "jobs_detail": records}
        with open(out_path(args, f"trace{args.trace}"), "w") as fh:
            json.dump(record, fh, indent=1, default=float)

        print(f"workload {args.workload}, seed {args.seed}, {len(records)} jobs, "
              f"OpenBLAS threads {env['blas_threads']}, LEL_THREADS {env['LEL_THREADS']}")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        for line in lines:
            print(f"  {line}")
        for p in problems:
            print(f"FAILED {p}", file=sys.stderr)
        print(json.dumps({
            "correct": not problems,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
