"""Numeric drift of every seeded benchmark artifact against another checkout.

    python3 tools/artifact_drift.py PARENT_CHECKOUT SEED

PARENT_CHECKOUT is another checkout of this repository (a ``git archive``
of the parent commit, say).  Each checkout's jobs run in a subprocess of
their own, which imports that checkout's ``src/`` and
``perfbench/workloads.py`` with OpenBLAS pinned to one thread; every job
of the three workloads runs once, in list order, and its exit code,
artifact and output check are kept.  Nothing under ``perfbench/`` is
written.

For every artifact whose bytes differ, one line gives both exit codes, the
count of numeric cells that changed, and the largest absolute and relative
change; a relative change is taken only where the larger of the two values
is at least REL_FLOOR in magnitude.  A CSV artifact adds the same figures
per column, and, when it has an ``alpha`` column (``simulate``,
``gradflow``), the orders whose rows moved.  The closing lines give, per
workload, the largest absolute and relative cell change over its
artifacts, then count the identical artifacts, the changed exit codes and
the failed output checks of each side.

The exit status is 1 when the job lists differ, an exit code changed, or
an output check failed on either side, and 0 otherwise, so a script can
read "same behaviour" off it; the size of the numeric drift is for the
reader of the closing lines to judge.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REL_FLOOR = 1e-10
NUMBER = re.compile(r"[-+]?(?:\bnan\b|\binf\b|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")

# run in a fresh interpreter: argv is the checkout, the seed and the output file
CHILD = r"""
import json, os, sys, tempfile
root, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import renyiflow, workloads
if not renyiflow.__file__.startswith(os.path.join(root, "src")):
    sys.exit(f"renyiflow imported from {renyiflow.__file__}, not from {root}/src")
result = {}
for name in ("decay-trace", "structure-n8", "comparison-flow"):
    with tempfile.TemporaryDirectory() as tmp:
        for k, job in enumerate(workloads.make_jobs(name, seed, tmp)):
            rc, data = job.run()
            result[f"{name}/{k:03d} {job.label}"] = [rc, job.check(rc, data), data.decode()]
with open(out, "w") as fh:
    json.dump(result, fh)
"""


def run_checkout(root: str, seed: int, out: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", CHILD, os.path.abspath(root), str(seed), out], env=env, check=True)
    with open(out) as fh:
        return json.load(fh)


def largest(values) -> float:
    """The largest value, NaN above every number; 0 when there is none."""
    return max(values, default=0.0, key=lambda e: math.inf if math.isnan(e) else e)


def change(a: list[float], b: list[float]) -> tuple[int, float, float | None]:
    """The count of changed cells, and their largest absolute and relative
    change (None when no changed cell reaches REL_FLOOR); a cell that turns
    NaN, or stops being one, counts as changed by NaN."""
    d = [(abs(x - y), max(abs(x), abs(y))) for x, y in zip(a, b) if x != y and not (math.isnan(x) and math.isnan(y))]
    rel = [e / scale for e, scale in d if scale >= REL_FLOOR and not math.isnan(e)]
    return len(d), largest(e for e, _ in d), max(rel, default=None)


def text(dabs: float, drel: float | None) -> str:
    return f"max abs {dabs:.2g}, max rel {'-' if drel is None else f'{drel:.2g}'}"


def csv_table(text: str) -> tuple[list[str], list[list[float]]] | None:
    """Header and rows of a CSV artifact whose every data cell is a number."""
    lines = text.strip().splitlines()
    header = lines[0].split(",") if lines else []
    if len(header) < 2 or any(NUMBER.fullmatch(h) for h in header):
        return None
    try:
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    except ValueError:
        return None
    return (header, rows) if all(len(r) == len(header) for r in rows) else None


def describe(a: str, b: str) -> tuple[list[str], tuple[int, float, float | None] | None]:
    """The report lines of one changed artifact, and its cell change (None
    when the layouts differ)."""
    ca, cb = [float(x) for x in NUMBER.findall(a)], [float(x) for x in NUMBER.findall(b)]
    if len(ca) != len(cb) or NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return [f"    layout differs ({len(ca)} numeric cells -> {len(cb)}): not compared cell by cell"], None
    cells = change(ca, cb)
    out = [f"    {cells[0]} of {len(ca)} numeric cells changed; {text(*cells[1:])}"]
    ta, tb = csv_table(a), csv_table(b)
    if ta and tb and ta[0] == tb[0]:
        header, ra, rb = ta[0], ta[1], tb[1]
        cols = [change([r[j] for r in ra], [r[j] for r in rb]) for j in range(len(header))]
        out.append("    " + "; ".join(f"{h}: {n} changed, {text(e, r)}" for h, (n, e, r) in zip(header, cols) if n))
        if "alpha" in header:
            j = header.index("alpha")
            moved = sorted({x[j] for x, y in zip(ra, rb) if x != y})
            out.append("    orders whose rows moved: " + ", ".join(f"{o:g}" for o in moved))
    return out, cells


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_checkout")
    p.add_argument("seed", type=int)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        parent = run_checkout(args.parent_checkout, args.seed, os.path.join(tmp, "parent.json"))
        this = run_checkout(ROOT, args.seed, os.path.join(tmp, "this.json"))
    if parent.keys() != this.keys():
        print(f"job lists differ: {sorted(parent.keys() ^ this.keys())}")
        return 1
    same = codes = 0
    drift = {}  # workload -> the cell changes of its changed artifacts
    for key in sorted(parent):
        (rc0, _, a), (rc1, _, b) = parent[key], this[key]
        codes += rc0 != rc1
        if a == b and rc0 == rc1:
            same += 1
            continue
        print(f"{key}: exit {rc0} -> {rc1}")
        lines, cells = describe(a, b)
        print("\n".join(lines))
        drift.setdefault(key.split("/")[0], []).append(cells)
    for workload in sorted({key.split("/")[0] for key in parent}):
        moved = drift.get(workload, [])
        cells = [c for c in moved if c is not None]
        rel = [c[2] for c in cells if c[2] is not None]
        print(f"{workload}: {len(moved)} artifacts differ; {text(largest(c[1] for c in cells), max(rel, default=None))}"
              + (f"; {len(moved) - len(cells)} with a different layout" if len(cells) < len(moved) else ""))
    print(f"{len(parent)} artifacts: {same} identical, {len(parent) - same} differ, {codes} changed exit codes")
    failures = 0
    for side, result in (("parent", parent), ("this checkout", this)):
        failed = [k for k, (_, check, _) in result.items() if check is not None]
        failures += len(failed)
        print(f"output checks failed ({side}): {len(failed)}" + "".join(f"\n    {k}: {result[k][1]}" for k in failed))
    return 1 if codes or failures else 0


if __name__ == "__main__":
    sys.exit(main())
