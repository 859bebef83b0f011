"""pepskit benchmark: three CLI workloads, end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload patch-2d --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

- ``patch-2d``: ``estimate`` at l in {3, 4, 5} and adaptive eps=1e-3 on
  seeded 12x12 PEPS; the contraction planner and BLAS carry the work.
- ``chain-1d``: ``parent-gap``, ``transfer`` and chain ``estimate``
  queries plus invalid ones; the eigensolver carries the work.
- ``oracle-2d``: ``oracle`` on 3x3 to 5x4 states, each followed by an
  ``estimate`` at the covering radius that must equal it.

Each run is a fresh process (``worker.py``) with ``PEPSKIT_THREADS=1``: a
closed loop with one client that runs a fixed query list in whole passes.
A query's latency is its mean over its runs in the run; ``queries_per_s``
is the number of queries over the sum of those latencies, and
``latency_p50_ms`` and ``latency_p90_ms`` are their percentiles, a query
with a failed run counting as slowest. ``setup_s`` is the median over
that process and ``SETUP_PROBES`` more processes that only set up, each
timed from its start through imports, input generation and the first
LAPACK call.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics. The lines before it print every metric
by name and unit, ``failed_frac`` and the provenance. The full result
document, with one row per query, is written under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 2
# Every run must end within 180 s; the worker gets what is left of that.
RUN_LIMIT_S = 170.0


def _spawn(args, root: Path, extra: list[str], timeout: float, log: Path) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PEPSKIT_THREADS"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--spawned-at", repr(time.monotonic()), *extra]
    with open(log, "a") as err:
        return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
                              text=True, timeout=timeout)


def _fail(message: str, log: Path | None = None) -> int:
    print(f"benchmark failed: {message}", file=sys.stderr)
    if log is not None and log.exists():
        print(log.read_text()[-4000:], file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "pepskit" / "cli.py").is_file():
        return _fail(f"no src/pepskit under {root}; run from the root of a pepskit checkout")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{args.scale}"
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    log = work / f"{tag}.log"
    log.unlink(missing_ok=True)
    out = work / f"{tag}.json"
    out.unlink(missing_ok=True)

    setups = []
    try:
        for k in range(SETUP_PROBES):
            probe = _spawn(args, root, ["--work", str(work / f"{tag}-probe{k}"), "--setup-only"],
                           RUN_LIMIT_S - (time.monotonic() - started), log)
            if probe.returncode != 0:
                return _fail(f"set-up probe exited {probe.returncode}", log)
            setups.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
        run = _spawn(args, root, ["--work", str(work / f"{tag}-inputs"), "--out", str(out)],
                     RUN_LIMIT_S - (time.monotonic() - started), log)
    except subprocess.TimeoutExpired:
        return _fail(f"run exceeded {RUN_LIMIT_S:.0f} s", log)
    if run.returncode != 0 or not out.exists():
        return _fail(f"run process exited {run.returncode}", log)

    doc = json.loads(out.read_text())
    setups.append(doc["setup_s"])
    setup_s = statistics.median(setups)
    doc["setup_samples_s"] = setups
    metrics = doc["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": setup_s, "unit": "s", "samples": len(setups)}
    out.write_text(json.dumps(doc, indent=1) + "\n")

    summary, prov = doc["summary"], doc["provenance"]
    threads = prov["blas"]["threads"]
    print(f"pepskit benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced per-layer' if args.trace else 'end-to-end'} run, {prov['loop']}")
    print(f"provenance: schema {prov['schema_version']}, git {prov['git_rev']}, "
          f"python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
          f"blas {prov['blas']['name']} {prov['blas']['version']} "
          f"(PEPSKIT_THREADS={threads['PEPSKIT_THREADS']}, OPENBLAS_NUM_THREADS={threads['OPENBLAS_NUM_THREADS']}), "
          f"nproc {prov['nproc']}")
    print(f"queries: {summary['attempted']} attempted in {summary['passes']} passes of "
          f"{summary['queries_per_pass']}, {summary['measured_s']:.2f} s measured")
    print(f"  setup_s = {setup_s:.4f} s (median of {len(setups)} set-ups)")
    for name, m in metrics.items():
        if name == "setup_s":
            continue
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        samples = f" (n={m['samples']})" if "samples" in m else ""
        print(f"  {name} = {value} {m['unit']}{samples}")
    print(f"  failed_frac = {summary['failed_frac']:.4f} ({summary['failed']} of {summary['attempted']}: "
          f"{summary['refused']} budget refusals, {summary['known_defects']} known defects, "
          f"{summary['errors']} errors)")
    for note in doc["notes"]:
        print(f"  note: {note}")
    for row in doc["queries"]:
        if row["status"] == "error":
            print(f"  ERROR {row['qid']}: {row['check']}")
    print(f"result document: {out.relative_to(root)}")
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
