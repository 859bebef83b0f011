"""Record the patch-2d reference values that later runs are checked against.

Run from the root of a checkout, on the commit whose values become the
reference. The references are checked for the default seed, and on every
seed for the queries that run on the fixed state:

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["PEPSKIT_THREADS"] = "1"

import worker  # noqa: E402  (puts the checkout's src/ on sys.path, imports pepskit first)
import workloads  # noqa: E402
from pepskit import cli  # noqa: E402


def main() -> int:
    values = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
        work = Path(tmp)
        for q in workloads.patch_2d(work, workloads.DEFAULT_SEED):
            out = work / "result.json"
            if cli.main([*q.argv, "-o", str(out)]) == 0:
                values[q.qid] = json.loads(out.read_text())["results"]["estimate"]["value"]
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / "patch-2d.json"
    doc = {"workload": "patch-2d", "seed": workloads.DEFAULT_SEED,
           "git_rev": worker.git_rev(worker.ROOT), "values": values}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} reference values to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
