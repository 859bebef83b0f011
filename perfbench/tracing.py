"""Per-layer tracing for the benchmark's traced run.

The tracer replaces module attributes of ``pepskit`` (and the LAPACK/ARPACK
entry points the solvers call) with wrappers that record one span per call:
name, start, end, parent span and the query it belongs to. Spans stay in
memory; ``write_spans`` writes them out when the run ends. Nothing inside
the program is changed on disk, and ``uninstall`` restores every attribute.

A wrap target that a refactor removed is not an error: the metrics that
need it are reported as ``None`` with a note naming the missing target.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

# (module, attribute, span name, where). "everywhere" also replaces every
# other pepskit module binding of the same function object (``from .x import
# f`` copies the name), "binding" replaces only this module's attribute.
TARGETS = [
    ("pepskit.cli", "main", "cli.main", "binding"),
    ("pepskit.fileio", "read_peps", "fileio.read", "everywhere"),
    ("pepskit.fileio", "read_observable", "fileio.read", "everywhere"),
    ("pepskit.fileio", "write_document", "fileio.write", "everywhere"),
    ("pepskit.network", "contract_network", "network.contract", "everywhere"),
    ("pepskit.network", "_plan", "network.plan", "binding"),
    ("pepskit.patch", "select_patch", "patch.select", "everywhere"),
    ("pepskit.patch", "patch_expectation", "patch.expectation", "everywhere"),
    ("pepskit.patch", "adaptive_estimate", "patch.adaptive", "everywhere"),
    ("pepskit.patch", "_doubled_network", "patch.assemble", "binding"),
    ("pepskit.oracle", "exact_expectation", "oracle.exact", "everywhere"),
    ("pepskit.oracle", "_doubled_network", "oracle.assemble", "binding"),
    ("pepskit.peps", "build_state_vector", "peps.state_vector", "everywhere"),
    ("pepskit.peps", "block", "peps.block", "everywhere"),
    ("pepskit.parent", "parent_terms", "parent.terms", "everywhere"),
    ("pepskit.parent", "_assemble_sparse", "parent.assemble", "binding"),
    ("pepskit.parent", "_two_lowest", "parent.eigensolve", "binding"),
    ("pepskit.transfer", "site_transfer_operator", "transfer.build", "everywhere"),
    ("pepskit.transfer", "strip_transfer_operator", "transfer.build", "everywhere"),
    ("pepskit.transfer", "dressed_transfer", "transfer.build", "everywhere"),
    ("pepskit.transfer", "spectrum", "transfer.spectrum", "everywhere"),
    ("pepskit.transfer", "transfer_correlation", "transfer.correlation", "everywhere"),
    ("pepskit.transfer", "decay_fit", "transfer.correlation", "everywhere"),
    ("numpy.linalg", "eigvals", "lapack.eigvals", "binding"),
    ("numpy.linalg", "eigh", "lapack.eigh", "binding"),
    ("scipy.sparse.linalg", "eigsh", "arpack.eigsh", "binding"),
]

# Per-layer metric -> (unit, span names it is computed from).
LAYER_METRICS = {
    "network.plan_s": ("s", ["network.plan"]),
    "network.exec_s": ("s", ["network.contract", "network.plan"]),
    "network.madds": ("count", ["network.plan"]),
    "network.peak_entries": ("count", ["network.plan"]),
    "network.steps": ("count", ["network.plan"]),
    "network.budget_refusals": ("count", ["network.plan"]),
    "network.calls": ("count", ["network.contract"]),
    "network.repeat_frac": ("fraction", ["network.plan"]),
    "patch.contractions": ("count", ["network.contract", "patch.expectation"]),
    "patch.select_s": ("s", ["patch.select"]),
    "patch.assemble_s": ("s", ["patch.assemble"]),
    "patch.self_s": ("s", ["patch.expectation", "patch.adaptive", "patch.select",
                           "patch.assemble", "network.contract"]),
    "patch.sites": ("count", ["patch.select"]),
    "patch.ladder_rungs": ("count", ["patch.expectation", "patch.adaptive"]),
    "oracle.assemble_s": ("s", ["oracle.assemble"]),
    "oracle.self_s": ("s", ["oracle.exact", "oracle.assemble", "peps.state_vector",
                            "network.contract"]),
    "oracle.contractions": ("count", ["network.contract", "oracle.exact"]),
    "peps.state_vector_s": ("s", ["peps.state_vector"]),
    "peps.state_vector_amplitudes": ("count", ["peps.state_vector"]),
    "peps.block_s": ("s", ["peps.block"]),
    "parent.terms_s": ("s", ["parent.terms"]),
    "parent.assemble_s": ("s", ["parent.assemble"]),
    "parent.eigensolve_s": ("s", ["parent.eigensolve"]),
    "parent.dense_solves": ("count", ["parent.eigensolve", "lapack.eigh"]),
    "parent.iterative_solves": ("count", ["parent.eigensolve", "arpack.eigsh"]),
    "parent.max_dim": ("count", ["parent.eigensolve"]),
    "transfer.build_s": ("s", ["transfer.build"]),
    "transfer.spectrum_s": ("s", ["transfer.spectrum"]),
    "transfer.correlation_s": ("s", ["transfer.correlation"]),
    "transfer.eigvals_calls": ("count", ["lapack.eigvals"]),
    "fileio.read_s": ("s", ["fileio.read"]),
    "fileio.write_s": ("s", ["fileio.write"]),
    "cli.self_s": ("s", ["cli.main", "fileio.read", "fileio.write"]),
}


def replay_plan(node_labels, extents, steps) -> tuple[int, int, int]:
    """(peak entries, multiply-adds, steps) of executing ``steps`` on shapes.

    A pairwise step contracts the labels its two nodes share; its result
    has the remaining labels, and each result entry sums over the shared
    extents, so the step costs (result size) x (shared size) multiply-adds.
    """
    live = {i: list(ls) for i, ls in enumerate(node_labels)}
    next_id = len(node_labels)
    peak = madds = 0
    for i, j in steps:
        a, b = live.pop(i), live.pop(j)
        shared = set(a) & set(b)
        out = [l for l in a if l not in shared] + [l for l in b if l not in shared]
        size = 1
        for l in out:
            size *= extents[l]
        inner = 1
        for l in shared:
            inner *= extents[l]
        peak = max(peak, size)
        madds += size * inner
        live[next_id] = out
        next_id += 1
    return peak, madds, len(steps)


def structure_key(node_labels, extents, budget) -> tuple:
    """Network structure up to relabelling: what a plan depends on."""
    rename: dict = {}
    nodes = tuple(tuple(rename.setdefault(l, len(rename)) for l in ls) for ls in node_labels)
    dims = tuple(extents[l] for l in rename)
    return nodes, dims, budget


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    query: str


class Tracer:
    """Installs the wrappers and turns the recorded spans into layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query = ""
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._plans: list[tuple] = []  # (node_labels, extents, budget, steps or None, refused)
        self._results: dict[int, object] = {}  # span index -> value kept by a hook

    # -- installation -----------------------------------------------------

    def install(self, targets=TARGETS):
        self.missing.clear()
        for module_name, attr, name, where in targets:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing[name] = f"{module_name}.{attr} not found"
                continue
            wrapped = self._wrap(original, name)
            holders = [module]
            if where == "everywhere":
                holders += [m for key, m in list(sys.modules.items())
                            if key.startswith("pepskit") and m is not module and m is not None]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(Span(name, time.perf_counter(), 0.0, parent, tracer.query))
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index)
                tracer._keep(name, index, args, kwargs, None, exc)
                raise
            tracer._close(index)
            tracer._keep(name, index, args, kwargs, result, None)
            return result

        return wrapped

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _keep(self, name, index, args, kwargs, result, exc):
        """Keep references the metrics need; the work on them waits for the end."""
        if name == "network.plan":
            node_labels, extents = args[0], args[1]
            budget = args[2] if len(args) > 2 else kwargs.get("budget")
            refused = exc is not None and type(exc).__name__ == "SizeBudgetError"
            self._plans.append((node_labels, extents, budget, None if exc else result, refused))
        elif exc is None and name == "patch.select":
            self._results[index] = len(result.sites)
        elif exc is None and name == "peps.state_vector":
            self._results[index] = int(result.size)
        elif name == "parent.eigensolve":
            self._results[index] = int(args[0].shape[0])

    # -- aggregation ------------------------------------------------------

    def _ancestors(self, index):
        parent = self.spans[index].parent
        while parent >= 0:
            yield self.spans[parent].name
            parent = self.spans[parent].parent

    def metrics(self, overhead_s: float) -> tuple[dict, list[str]]:
        """Layer metrics over every recorded span, and notes on missing targets."""
        spans = self.spans
        dur = [s.end - s.start for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child[s.parent] += dur[i]

        def total(name, top_only=False):
            return sum(
                dur[i] for i, s in enumerate(spans)
                if s.name == name and not (top_only and name in self._ancestors(i))
            )

        def self_time(*names):
            return sum(dur[i] - child[i] for i, s in enumerate(spans) if s.name in names)

        def count(name, under=None):
            return sum(
                1 for i, s in enumerate(spans)
                if s.name == name and (under is None or any(a in under for a in self._ancestors(i)))
            )

        def kept(name):
            return [self._results[i] for i, s in enumerate(spans) if s.name == name and i in self._results]

        peak = madds = steps = refusals = repeats = 0
        seen = set()
        for node_labels, extents, budget, plan_steps, refused in self._plans:
            key = structure_key(node_labels, extents, budget)
            repeats += key in seen
            seen.add(key)
            refusals += refused
            if plan_steps is not None:
                p, m, n = replay_plan(node_labels, extents, plan_steps)
                peak, madds, steps = max(peak, p), madds + m, steps + n
        transfer_spans = ("transfer.build", "transfer.spectrum", "transfer.correlation")
        values = {
            "network.plan_s": total("network.plan"),
            "network.exec_s": self_time("network.contract"),
            "network.madds": madds,
            "network.peak_entries": peak,
            "network.steps": steps,
            "network.budget_refusals": refusals,
            "network.calls": count("network.contract"),
            "network.repeat_frac": repeats / len(self._plans) if self._plans else 0.0,
            "patch.contractions": count("network.contract", under=("patch.expectation",)),
            "patch.select_s": total("patch.select"),
            "patch.assemble_s": total("patch.assemble"),
            "patch.self_s": self_time("patch.expectation", "patch.adaptive"),
            "patch.sites": sum(kept("patch.select")),
            "patch.ladder_rungs": sum(
                1 for s in spans
                if s.name == "patch.expectation" and s.parent >= 0
                and spans[s.parent].name == "patch.adaptive"
            ),
            "oracle.assemble_s": total("oracle.assemble"),
            "oracle.self_s": self_time("oracle.exact"),
            "oracle.contractions": count("network.contract", under=("oracle.exact",)),
            "peps.state_vector_s": total("peps.state_vector"),
            "peps.state_vector_amplitudes": sum(kept("peps.state_vector")),
            "peps.block_s": total("peps.block"),
            "parent.terms_s": total("parent.terms"),
            "parent.assemble_s": total("parent.assemble"),
            "parent.eigensolve_s": total("parent.eigensolve"),
            "parent.dense_solves": count("lapack.eigh", under=("parent.eigensolve",)),
            "parent.iterative_solves": count("arpack.eigsh", under=("parent.eigensolve",)),
            "parent.max_dim": max(kept("parent.eigensolve"), default=0),
            "transfer.build_s": total("transfer.build", top_only=True),
            "transfer.spectrum_s": total("transfer.spectrum"),
            "transfer.correlation_s": total("transfer.correlation", top_only=True),
            "transfer.eigvals_calls": count("lapack.eigvals", under=transfer_spans),
            "fileio.read_s": total("fileio.read"),
            "fileio.write_s": total("fileio.write"),
            "cli.self_s": self_time("cli.main"),
        }
        notes = []
        out = {}
        for metric, (unit, needs) in LAYER_METRICS.items():
            gone = [self.missing[n] for n in needs if n in self.missing]
            if gone:
                out[metric] = {"value": None, "unit": unit}
                notes.append(f"{metric}: null, wrap target {', '.join(sorted(set(gone)))}")
            else:
                out[metric] = {"value": values[metric], "unit": unit}
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out, notes

    def write_spans(self, path):
        with open(path, "w") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": i, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "query": s.query}
                ) + "\n")
