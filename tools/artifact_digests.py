"""Exit code and sha256 of every seeded benchmark job's artifact.

    python3 tools/artifact_digests.py --seed 7 --out digests.json

Run from anywhere; the package is imported from ``src/`` of the checkout
this script sits in, and the job lists from its ``perfbench/workloads.py``.
Every job of the three workloads runs once, in-process and in list order,
with OpenBLAS pinned to one thread as the benchmark pins it.  The output
maps ``workload/index label`` to ``[exit code, sha256 of the artifact]``,
one key per line in sorted order, so two checkouts' artifacts are
byte-identical exactly when their files are: ``diff a.json b.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("decay-trace", "structure-n8", "comparison-flow")


def digests(seed: int) -> dict[str, list]:
    import workloads

    out = {}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            for k, job in enumerate(workloads.make_jobs(name, seed, tmp)):
                rc, data = job.run()
                out[f"{name}/{k:03d} {job.label}"] = [rc, hashlib.sha256(data).hexdigest()]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    result = digests(args.seed)
    with open(args.out, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(result.items())) + "\n}\n")
    print(f"{len(result)} artifacts, {sum(rc != 0 for rc, _ in result.values())} with a nonzero exit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
