"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pepskit import network  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# A(i,j) B(j,k) C(k,l) with i=2, j=3, k=4, l=5. Greedy planning first joins
# A and B (result (i,k): 8 entries < 15 for B.C), over j: 8 * 3 = 24 madds;
# then C with AB over k gives (l,i): 10 entries, 10 * 4 = 40 madds.
LABELS = [["i", "j"], ["j", "k"], ["k", "l"]]
EXTENTS = {"i": 2, "j": 3, "k": 4, "l": 5}


def test_replay_counts_hand_counted_three_tensor_network():
    steps = network._plan(LABELS, EXTENTS, None)
    assert steps == [(0, 1), (2, 3)]
    assert tracing.replay_plan(LABELS, EXTENTS, steps) == (10, 24 + 40, 2)


def test_traced_contraction_reports_replay_counts():
    rng = np.random.default_rng(0)
    tensors = [rng.standard_normal([EXTENTS[l] for l in ls]) for ls in LABELS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        network.contract_network(tensors, LABELS, output=["i", "l"])
    finally:
        tracer.uninstall()
    metrics, notes = tracer.metrics(overhead_s=0.0)
    assert notes == []
    assert metrics["network.peak_entries"]["value"] == 10
    assert metrics["network.madds"]["value"] == 64
    assert metrics["network.steps"]["value"] == 2
    assert metrics["network.calls"]["value"] == 1
    assert not hasattr(network.contract_network, "__wrapped__")


def test_translated_networks_share_a_structure_key():
    shifted = [[(l, 1) for l in ls] for ls in LABELS]
    extents = {(l, 1): d for l, d in EXTENTS.items()}
    assert tracing.structure_key(LABELS, EXTENTS, 64) == tracing.structure_key(shifted, extents, 64)
    assert tracing.structure_key(LABELS, EXTENTS, 64) != tracing.structure_key(LABELS, EXTENTS, None)


def test_missing_wrap_target_reports_null_with_note():
    targets = [t for t in tracing.TARGETS if t[2] != "patch.assemble"]
    targets.append(("pepskit.patch", "_no_such_helper", "patch.assemble", "binding"))
    tracer = tracing.Tracer()
    tracer.install(targets)
    tracer.uninstall()
    metrics, notes = tracer.metrics(overhead_s=0.0)
    assert metrics["patch.assemble_s"]["value"] is None
    assert metrics["patch.self_s"]["value"] is None
    assert metrics["network.calls"]["value"] == 0
    assert any("_no_such_helper" in n for n in notes)


def _fake_cli(monkeypatch, code, results):
    """Replace cli.main by one that writes ``results`` and returns ``code``."""
    def main(argv):
        out = Path(argv[argv.index("-o") + 1])
        out.write_text(json.dumps({"results": results}))
        return code

    monkeypatch.setattr(worker.cli, "main", main)


BUDGET_ERROR = {"error": {"code": "budget", "message": "plan over budget"}}


def test_unlisted_refusal_of_a_referenced_query_is_an_error(monkeypatch, tmp_path):
    query = workloads.Query(qid="l3-D2-site-00", kind="estimate", argv=["estimate"],
                            check=workloads._estimate_check(1.0, 0.25))
    _fake_cli(monkeypatch, worker.cli.EXIT_BUDGET, BUDGET_ERROR)
    row = worker.run_query(query, tmp_path / "r.json", {})
    assert row["status"] == "error"
    assert worker.summarize([row])["correct"] is False


def test_listed_refusal_is_failed_but_correct(monkeypatch, tmp_path):
    query = workloads.Query(qid="l5-D2-site-02", kind="estimate", argv=["estimate"],
                            refusal=workloads.EXPECTED_REFUSALS["l5-D2-site-02"])
    _fake_cli(monkeypatch, worker.cli.EXIT_BUDGET, BUDGET_ERROR)
    summary = worker.summarize([worker.run_query(query, tmp_path / "r.json", {})])
    assert (summary["failed"], summary["refused"], summary["correct"]) == (1, 1, True)


def test_known_defect_query_with_another_problem_is_an_error(monkeypatch, tmp_path):
    query = workloads.Query(qid="invalid-dim-0", kind="invalid", argv=["estimate"], expect_exit=1,
                            check=workloads._error_check("argument"), known_defect="obs-dim-unchecked")
    _fake_cli(monkeypatch, 0, {"estimate": {"value": [0.5, 0.0]}})
    row = worker.run_query(query, tmp_path / "r.json", {})
    assert row["status"] == "error"

    def raises(argv):
        raise ValueError("cannot reshape array")

    monkeypatch.setattr(worker.cli, "main", raises)
    assert worker.run_query(query, tmp_path / "r.json", {})["status"] == "known-defect"


def test_end_to_end_takes_mean_per_query_and_ranks_failures_slowest():
    # Queries a..j, two runs each: query k's runs take 10k +- 5 ms, and
    # one run of query j is refused.
    rows = [{"qid": q, "latency_ms": 10.0 * k + d, "status": "ok"}
            for k, q in enumerate("abcdefghij", start=1) for d in (-5.0, 5.0)]
    rows[-1]["status"] = "refused"
    metrics = worker.end_to_end(rows)
    assert metrics["queries_per_s"]["value"] == pytest.approx(10 / 0.55)
    assert metrics["latency_p50_ms"]["value"] == 50.0
    # Rank 9 is query i; rank 10 would be the refused query j.
    assert metrics["latency_p90_ms"]["value"] == 90.0
    assert metrics["latency_p90_ms"]["samples"] == 10
    # A percentile that lands on a failure reads the slowest answered query.
    assert worker.end_to_end(rows[-4:])["latency_p90_ms"]["value"] == 90.0


def _ladder(values):
    rungs = [{"ell": k, "value": [v, 0.0],
              "diff": None if k == 0 else abs(v - values[k - 1])} for k, v in enumerate(values)]
    return {"estimate": {"value": [values[-1], 0.0], "radius_used": len(values) - 1,
                         "patch_size": 9, "ladder": rungs}}


def test_adaptive_check_enforces_the_stop_rule():
    check = workloads._adaptive_check(1e-3, n_sites=144)
    assert check(_ladder([0.5, 0.3, 0.3002, 0.3003])) is None
    # Two small changes in a row at rung 2 should have stopped the ladder.
    assert "runs on" in check(_ladder([0.5, 0.5001, 0.5002, 0.5003]))
    # One small change is not enough to stop.
    assert "stops" in check(_ladder([0.5, 0.3, 0.3002]))
    assert workloads._adaptive_check(1e-3, 144, reference=0.31)(_ladder([0.5, 0.3, 0.3002, 0.3003]))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_workload_runs_correct_end_to_end_and_traced(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert set(result["metrics"]) == {m["name"] for m in BENCH[section]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "patch-2d", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
