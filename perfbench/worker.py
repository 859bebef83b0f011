"""The benchmark's run process: set-up, a closed query loop, checks, metrics.

Started by ``run.py`` with ``PEPSKIT_THREADS=1`` in its environment, from
the root of a checkout. It imports the checkout's ``src/pepskit`` before
numpy, so the CLI's thread override reaches BLAS. One client sends the
workload's queries one after another; each query is a ``cli.main(argv)``
call with ``-o <result file>``, whose document is read back and checked.

The fixed query list runs in whole passes, each in a seeded order. The
number of passes follows from ``--seconds`` and the workload's nominal pass
time, never from the program's speed, so every commit measures the same
queries the same number of times. With ``--trace 1`` the run makes one
untraced and one traced run of each query, and reports per-layer metrics.

Writes a result document (provenance, per-query rows, metrics) to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from pepskit import cli  # noqa: E402  (first: the thread override precedes numpy)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SCHEMA_VERSION = 1
# Every query runs in at least this many passes, spread over the run.
MIN_PASSES = 2


def git_rev(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(workload: str, seed: int, scale: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("PEPSKIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "schema_version": SCHEMA_VERSION,
        "git_rev": git_rev(ROOT),
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ.get(v) for v in thread_vars}},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loop": "closed, 1 client",
    }


def lapack_warmup():
    a = np.arange(16.0).reshape(4, 4)
    np.linalg.eigh(a + a.T)
    np.linalg.svd(a)


def units_of(queries):
    """Queries that must run back to back (an oracle and its estimate) form one unit."""
    units = []
    for q in queries:
        if q.pair_of is not None and units and units[-1][0].qid == q.pair_of:
            units[-1].append(q)
        else:
            units.append([q])
    return units


def run_query(q, out_path: Path, results_by_id: dict) -> dict:
    """One closed-loop step: call the CLI, time it, read the result back, check it."""
    if out_path.exists():
        out_path.unlink()
    raised = None
    t0 = time.perf_counter()
    try:
        code = cli.main([*q.argv, "-o", str(out_path)])
    except Exception as exc:  # a crash is a failed query, not the end of the run
        code = None
        raised = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    row = {"qid": q.qid, "kind": q.kind, "exit": code, "latency_ms": latency * 1e3}
    results = None
    if raised is None and out_path.exists():
        try:
            results = json.loads(out_path.read_text())["results"]
        except (OSError, ValueError, KeyError) as exc:
            raised = f"unreadable result document: {exc}"
    if raised is not None:
        problem = f"raised {raised}" if code is None else raised
    elif results is None:
        problem = f"exit {code} without a result document"
    elif code == cli.EXIT_BUDGET and q.expect_exit == 0 and results.get("error", {}).get("code") == "budget":
        if q.refusal is not None:
            row.update(status="refused", check=results["error"]["message"])
            return row
        problem = f"unexpected budget refusal: {results['error']['message']}"
    elif code != q.expect_exit:
        problem = f"exit {code}, expected {q.expect_exit}: {results.get('error')}"
    else:
        try:
            problem = q.check(results) if q.check else None
            if problem is None and q.pair_of is not None:
                partner = results_by_id.get(q.pair_of)
                problem = (workloads.oracle_agreement(results, partner) if partner
                           else f"no result from {q.pair_of} to compare against")
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problem = f"malformed results: {type(exc).__name__}: {exc}"
        if problem is None:
            results_by_id[q.qid] = results
    if problem is None:
        row.update(status="ok", check="ok")
    elif q.known_defect and problem.startswith(workloads.KNOWN_DEFECTS[q.known_defect]["symptom"]):
        row.update(status="known-defect", check=problem, known_defect=q.known_defect)
    else:
        row.update(status="error", check=problem)
    return row


def run_pass(units, seed: int, index: int, out_path: Path) -> tuple[list, float]:
    runs = [unit for unit in units for _ in range(unit[0].repeat)]
    order = np.random.default_rng([seed, index]).permutation(len(runs))
    rows = []
    results_by_id: dict = {}
    t0 = time.perf_counter()
    for u in order:
        for q in runs[u]:
            row = run_query(q, out_path, results_by_id)
            row["pass"] = index
            rows.append(row)
    return rows, time.perf_counter() - t0


def run_traced_pass(units, seed: int, out_path: Path, tracer) -> tuple[list, float]:
    """Each query once untraced (pass 0) and once traced (pass 1), back to back.

    The two runs of a query alternate in order and fall under the same load
    on the machine, so the difference of their summed latencies is the
    tracing overhead rather than drift.
    """
    order = np.random.default_rng([seed, 0]).permutation(len(units))
    rows = []
    results_by_id: dict = {}
    wall = [0.0, 0.0]  # untraced, traced; the traced side includes install and uninstall
    k = 0
    for u in order:
        for q in units[u]:
            for traced in (False, True) if k % 2 == 0 else (True, False):
                t0 = time.perf_counter()
                if traced:
                    tracer.query = q.qid
                    tracer.install()
                try:
                    row = run_query(q, out_path, results_by_id)
                finally:
                    if traced:
                        tracer.uninstall()
                wall[traced] += time.perf_counter() - t0
                row["pass"] = int(traced)
                rows.append(row)
            k += 1
    return rows, wall[1] - wall[0]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, int(np.ceil(q / 100.0 * len(sorted_values))))
    return sorted_values[rank - 1]


def end_to_end(rows) -> dict:
    """Time metrics from each query's mean latency over its runs.

    The pass shuffles spread a query's runs over the whole run. The shared
    machine has slow phases of about 1.5x that last from seconds to tens of
    seconds, so a mean follows the run's average speed, where a minimum
    would follow whether a few runs happened to hit a fast phase. A query
    with a failed run ranks above every answered one, as it misses any
    latency limit; should a percentile land on a failure, the slowest
    answered latency stands in for it.
    """
    runs: dict[str, list[float]] = {}
    failed: set[str] = set()
    for r in rows:
        runs.setdefault(r["qid"], []).append(r["latency_ms"])
        if r["status"] != "ok":
            failed.add(r["qid"])
    mean = {q: sum(v) / len(v) for q, v in runs.items()}
    lat = sorted(float("inf") if q in failed else v for q, v in mean.items())
    slowest = max((v for v in lat if v != float("inf")), default=0.0)
    n = len(mean)
    return {
        "queries_per_s": {"value": n / (sum(mean.values()) / 1e3), "unit": "1/s", "samples": n},
        "latency_p50_ms": {"value": min(percentile(lat, 50), slowest), "unit": "ms", "samples": n},
        "latency_p90_ms": {"value": min(percentile(lat, 90), slowest), "unit": "ms", "samples": n},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def summarize(rows) -> dict:
    """Counts of the query rows. Only an error makes the run incorrect."""
    failed = sum(r["status"] != "ok" for r in rows)
    return {
        "attempted": len(rows),
        "failed": failed,
        "failed_frac": failed / len(rows),
        "refused": sum(r["status"] == "refused" for r in rows),
        "known_defects": sum(r["status"] == "known-defect" for r in rows),
        "errors": sum(r["status"] == "error" for r in rows),
        "correct": not any(r["status"] == "error" for r in rows),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--work", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--out", help="result document path")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    queries = workloads.WORKLOADS[args.workload](work, args.seed, args.scale)
    lapack_warmup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        shutil.rmtree(work, ignore_errors=True)
        return 0

    units = units_of(queries)
    out_path = work / "result.json"
    rows: list = []
    if args.trace:
        tracer = tracing.Tracer()
        t0 = time.perf_counter()
        rows, overhead_s = run_traced_pass(units, args.seed, out_path, tracer)
        passes, wall = 2, time.perf_counter() - t0
        metrics, notes = tracer.metrics(overhead_s)
        tracer.write_spans(Path(args.out).with_suffix(".spans.jsonl"))
    else:
        notes = []
        passes = max(MIN_PASSES, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))
        wall = 0.0
        for index in range(passes):
            pass_rows, last = run_pass(units, args.seed, index, out_path)
            rows += pass_rows
            wall += last
        metrics = end_to_end(rows)

    doc = {
        "provenance": provenance(args.workload, args.seed, args.scale),
        "setup_s": setup_s,
        "summary": {
            **summarize(rows),
            "passes": passes,
            "queries_per_pass": len(queries),
            "measured_s": wall,
            "trace": args.trace,
        },
        "metrics": metrics,
        "notes": notes,
        "known_defects": workloads.KNOWN_DEFECTS,
        "expected_refusals": workloads.EXPECTED_REFUSALS,
        "queries": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
