"""Seeded inputs, job lists and per-job output checks of the workloads.

Every job is one closed-loop request from a single client: a CLI command
run in-process through ``renyiflow.cli.main(argv)``, or, where no command
exists, a direct library call (``flow.metric_tensor``).  The program sees
only argv and the generator-JSON / rho0-CSV files written here.  Module
attributes are looked up at call time, so wrappers installed by the tracer
are the ones called.

The output checks reuse the acceptance-suite tolerances unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from renyiflow import cli, flow
from renyiflow import generator as gen
from renyiflow import matcore as mc

DECAY_ALPHAS = (0.5, 1.0, 2.0, 4.0)
DECAY_INTERVALS = 300  # stored intervals per trace: half criterion 5's 600, for more jobs per run
COMPARE_PAIRS = ((2.0, 3.0), (2.0, 4.0), (1.5, 6.0))
DBCHECK_ALPHAS = "0.25,0.5,1,1.5,2,3,4,6"
GRADFLOW_ALPHAS = "0.5,1,2,3"


@dataclass(frozen=True)
class Job:
    """One request: `run` returns (exit code, artifact bytes); `check`
    returns None when the artifact is correct, else the reason."""

    label: str
    run: Callable[[], tuple[int, bytes]]
    check: Callable[[int, bytes], str | None]


def write_generator(G: gen.Generator, path: str) -> str:
    doc = {
        "label": G.label,
        "sigma": mc.matrix_to_rows(G.sigma),
        "terms": [{"V": mc.matrix_to_rows(t.V), "omega": t.omega} for t in G.terms],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def write_state(rho: np.ndarray, path: str) -> str:
    with open(path, "w") as fh:
        fh.write(mc.matrix_to_csv_block("rho0", rho))
    return path


def cli_job(label: str, argv: list[str], out: str | None, check) -> Job:
    """A CLI command; the artifact is the --out file, or stdout without one."""
    argv = list(argv) + (["--out", out] if out else [])

    def run() -> tuple[int, bytes]:
        if out and os.path.exists(out):
            os.remove(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        if rc != 0:
            return rc, stderr.getvalue().encode()
        if out:
            with open(out, "rb") as fh:
                return rc, fh.read()
        return rc, stdout.getvalue().encode()

    return Job(label, run, check)


def _json_ok(rc: int, data: bytes) -> tuple[dict | None, str | None]:
    if rc != 0:
        return None, f"exit {rc}: {data[:200]!r}"
    return json.loads(data), None


# --- decay-trace -----------------------------------------------------------------


def check_decay(lam: float):
    def check(rc: int, data: bytes) -> str | None:
        if rc != 0:
            return f"exit {rc}: {data[:200]!r}"
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
        for a in DECAY_ALPHAS:
            rows = table[table[:, 1] == a]
            t, D = rows[:, 0], rows[:, 2]
            rise = float(np.max(np.diff(D), initial=-np.inf))
            if rise > 1e-9:
                return f"alpha={a:g}: D increases by {rise:.3e}"
            fit = flow.fit_decay_rate(t, D, tail_fraction=0.4)
            if fit.verdict != "ok":
                return f"alpha={a:g}: decay fit {fit.verdict}"
            ratio = fit.rate / (2.0 * lam)
            if not 0.98 <= ratio <= 1.05:
                return f"alpha={a:g}: rate/(2 lambda) = {ratio:.4f} outside [0.98, 1.05]"
        return None

    return check


def setup_decay_trace(rng: np.random.Generator, tmp: str) -> list[Job]:
    # eight draws of each size, so the median job of one seed stays close
    # to that of the next
    jobs = []
    for k in range(24):
        n = (2, 3, 4)[k % 3]
        G = gen.random_gns_generator(rng, n, min_sigma_eig=0.15, label=f"decay-{k}")
        rho0 = flow.generic_initial_state(G, rng)
        lam = G.gap.value
        t_end = 14.0 / lam
        store = max(1, int(np.ceil(t_end / flow.suggested_dt(G) / DECAY_INTERVALS)))
        # dt at or below suggested_dt that stores exactly DECAY_INTERVALS
        # intervals, so the trace, most of a job, does the same work for
        # every draw of one size
        dt = t_end / (DECAY_INTERVALS * store)
        argv = [
            "simulate",
            "--generator", write_generator(G, os.path.join(tmp, f"decay-{k}.json")),
            "--rho0", write_state(rho0, os.path.join(tmp, f"decay-{k}-rho0.csv")),
            "--alphas", ",".join(f"{a:g}" for a in DECAY_ALPHAS),
            "--t-end", repr(t_end),
            "--dt", repr(dt),
            "--store-every", str(store),
        ]
        jobs.append(cli_job(f"simulate n={n}", argv, os.path.join(tmp, "out.csv"), check_decay(lam)))
    return jobs


# --- structure-n8 ----------------------------------------------------------------


def check_validate(rc: int, data: bytes) -> str | None:
    if rc != 0:
        return f"exit {rc}: {data[:200]!r}"
    text = data.decode()
    for want in ("GNS: pass", "KMS: pass", "BKM: pass", "primitive: True"):
        if want not in text:
            return f"validate output lacks {want!r}"
    return None


def check_dbcheck(rc: int, data: bytes) -> str | None:
    doc, err = _json_ok(rc, data)
    if err:
        return err
    failed = [k for k, ok in doc["verdicts"].items() if not ok]
    return f"verdicts failed: {failed}" if failed else None


def check_gradflow(rc: int, data: bytes) -> str | None:
    if rc != 0:
        return f"exit {rc}: {data[:200]!r}"
    table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
    worst = float(np.max(table[:, 2]))
    return None if worst <= 1e-8 else f"gradient-flow residual {worst:.3e} > 1e-8"


def check_metric(rc: int, data: bytes) -> str | None:
    g = float(data)
    return None if np.isfinite(g) and g > 0.0 else f"metric_tensor(nu, nu) = {g!r} is not > 0"


def metric_job(path: str, rho: np.ndarray, alpha: float, nu: np.ndarray) -> Job:
    def run() -> tuple[int, bytes]:
        G = cli.load_generator(path)
        return 0, f"{flow.metric_tensor(G, rho, alpha, nu, nu):.17g}\n".encode()

    return Job(f"metric_tensor n={rho.shape[0]}", run, check_metric)


def setup_structure_n8(rng: np.random.Generator, tmp: str) -> list[Job]:
    # Nine jobs of six kinds, timed in whole rounds of nine.  gradflow runs
    # on three sample draws at n=8, so the costliest kind is a third of a
    # run and job_tail (ten or so jobs of some sixty) falls inside it; with
    # an odd count the median job falls inside one kind (gradflow n=6)
    # instead of between two.  validate runs at n=8 only; dbcheck covers
    # the n=6 balance report.
    jobs = []
    out = os.path.join(tmp, "out.txt")
    for n in (6, 8):
        G = gen.random_gns_generator(rng, n, min_sigma_eig=0.15, label=f"structure-{n}")
        path = write_generator(G, os.path.join(tmp, f"structure-{n}.json"))
        if n == 8:
            jobs.append(cli_job(f"validate n={n}", ["validate", "--generator", path], None, check_validate))
        jobs.append(cli_job(f"dbcheck n={n}", ["dbcheck", "--generator", path, "--alphas", DBCHECK_ALPHAS],
                            out, check_dbcheck))
        for _ in range(1 if n == 6 else 3):
            jobs.append(cli_job(f"gradflow n={n}", ["gradflow", "--generator", path, "--samples", "2",
                                                    "--alphas", GRADFLOW_ALPHAS,
                                                    "--seed", str(int(rng.integers(1 << 16)))],
                                out, check_gradflow))
        rho = mc.random_density(rng, n, floor=0.1)
        nu = mc.random_traceless_hermitian(rng, n)
        jobs.append(metric_job(path, rho, float(rng.choice([0.5, 1.0, 2.0, 3.0])), nu))
    return jobs


# --- comparison-flow -------------------------------------------------------------


def check_compare(rc: int, data: bytes) -> str | None:
    doc, err = _json_ok(rc, data)
    if err:
        return err
    return None if doc["passed"] is True else "comparison check did not pass"


def setup_comparison_flow(rng: np.random.Generator, tmp: str) -> list[Job]:
    # the sigma floor bounds smax/smin, which keeps the delay time T, and so
    # each job, well under a second, and narrows the spread of T between
    # draws.  Each random generator runs one order pair, so a run of about a
    # hundred jobs spans thirty draws of each size (ten per size and pair)
    # and the median job of one seed stays close to that of the next.
    out = os.path.join(tmp, "out.json")
    specs = [("builtin:qubit-xz", 2, pair) for pair in COMPARE_PAIRS]
    for k in range(90):
        n, pair = (2, 3, 4)[k % 3], COMPARE_PAIRS[k // 3 % 3]
        G = gen.random_gns_generator(rng, n, min_sigma_eig=0.8, label=f"compare-{k}")
        specs.append((write_generator(G, os.path.join(tmp, f"compare-{k}.json")), n, pair))
    jobs = []
    for spec, n, (a0, a1) in specs:
        argv = ["compare", "--generator", spec, "--alpha0", f"{a0:g}", "--alpha1", f"{a1:g}",
                "--rho0", "auto", "--seed", str(int(rng.integers(1 << 16)))]
        jobs.append(cli_job(f"compare n={n} ({a0:g},{a1:g})", argv, out, check_compare))
    # the warm-up job stays the short qubit-xz (2,3) one; the rest run shuffled
    return jobs[:1] + [jobs[i] for i in 1 + rng.permutation(len(jobs) - 1)]


SETUP = {
    "decay-trace": setup_decay_trace,
    "structure-n8": setup_structure_n8,
    "comparison-flow": setup_comparison_flow,
}


# The timed phase ends on a whole number of rounds, so that every run holds
# each job kind in the same proportion: decay-trace cycles n = 2, 3, 4 and
# structure-n8 has nine jobs; comparison-flow's jobs run shuffled.
ROUND = {"decay-trace": 3, "structure-n8": 9, "comparison-flow": 1}


def make_jobs(workload: str, seed: int, tmp: str) -> list[Job]:
    """Write the workload's inputs for `seed` into `tmp` and return its jobs."""
    return SETUP[workload](np.random.default_rng(seed), tmp)
