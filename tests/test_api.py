import argparse
import ast
import importlib
import pkgutil
import re
import runpy
from pathlib import Path

import pytest

import pepskit
from pepskit import cli

MODULES = ["pepskit"] + [f"pepskit.{m.name}" for m in pkgutil.iter_modules(pepskit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_cli_subcommands_match_docstring():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    documented = re.search(r"^Commands: (.*)\.$", cli.__doc__, re.MULTILINE).group(1)
    assert list(sub.choices) == documented.split(", ")


def test_benchmark_tracer_targets_resolve():
    # The benchmark's traced run wraps these attributes by name; a refactor
    # that drops one turns its per-layer metrics into nulls.
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    targets = runpy.run_path(str(tracing))["TARGETS"]
    pepskit_targets = [(m, a) for m, a, _, _ in targets if m.split(".")[0] == "pepskit"]
    assert pepskit_targets
    missing = [f"{m}.{a}" for m, a in pepskit_targets if not hasattr(importlib.import_module(m), a)]
    assert not missing, f"tracer targets gone: {missing}"


def test_patch_imports_nothing_from_oracle():
    # The oracle's network path is the patch estimator's contraction, so the
    # estimator must not depend on the oracle it is gated against.
    tree = ast.parse(Path(pepskit.__file__).with_name("patch.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if "oracle" in name.split(".")], imported
