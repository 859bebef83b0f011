import argparse
import ast
import importlib
import os
import pkgutil
import re
import runpy
import subprocess
import sys
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


def _imported_names(path):
    """Each name a module file imports, as ``module.name``, or ``module`` for ``import module``."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    return names


def test_patch_imports_nothing_from_oracle():
    # The estimator must not depend on the oracle it is gated against.
    imported = _imported_names(Path(pepskit.__file__).with_name("patch.py"))
    assert not [name for name in imported if "oracle" in name.split(".")], imported


def test_reference_imports_only_data_types_from_pepskit():
    # The test references check the package's contractions, so they may not share them.
    imported = _imported_names(Path(__file__).with_name("reference.py"))
    from_pepskit = [name for name in imported if name.split(".")[0] == "pepskit"]
    assert {name.rsplit(".", 1)[-1] for name in from_pepskit} <= {"PepsState", "LatticeSpec", "Observable"}, (
        from_pepskit)


_IMPORT_PROBE = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from pepskit import cli

aklt, grid, out = sys.argv[1:]
def run(*argv):
    assert cli.main(list(argv)) == cli.EXIT_OK, argv

run("gen", "aklt", "--n", "8", "-o", aklt)
run("gen", "perturbed", "--lattice", "3x3", "--seed", "1", "-o", grid)
run("estimate", grid, "--obs", "pauli-z", "--site", "1,1", "--ell", "1", "-o", out)
run("estimate", grid, "--obs", "pauli-z", "--site", "1,1", "--epsilon", "1e-3", "-o", out)
run("transfer", aklt, "--obs-a", "s_z", "--obs-b", "s_z", "-o", out)
run("oracle", grid, "--obs", "pauli-z", "--site", "1,1", "-o", out)
run("parent-gap", aklt, "-o", out)
"""


def test_no_command_imports_scipy(tmp_path):
    # The package is numpy-only: with scipy made unimportable, every command,
    # parent-gap's iterative solves included, still exits 0.
    argv = [str(tmp_path / name) for name in ("aklt.json", "grid.json", "out.json")]
    env = {**os.environ, "PYTHONPATH": str(Path(pepskit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_small_float_literal_is_a_named_constant():
    # A tolerance is a module-level upper-case constant with its comment, so
    # each one is named once and listed in the package docstring.
    bare = []
    for path in sorted(Path(pepskit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        named = set()
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
                    named |= {id(n) for n in ast.walk(node)}
        bare += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) < 1e-6 and id(node) not in named
        ]
    assert not bare, f"float literals below 1e-6 outside a module constant: {bare}"


def _documented_constants():
    """The (module, NAME) pairs the package docstring names.

    A bare ``NAME`` belongs to the module of the ``module.NAME`` before it.
    """
    documented, module = set(), None
    for ref in re.findall(r"``(\w+(?:\.\w+)?)``", pepskit.__doc__):
        owner, _, name = ref.rpartition(".")
        if not name.isupper():
            continue
        module = owner or module
        documented.add((module, name))
    return documented


def test_every_tolerance_is_in_the_package_docstring():
    # The docstring is the tolerance table: it names each module-level
    # upper-case float below 1e-6 where it is defined, and nothing stale.
    tolerances = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for node in ast.parse(Path(module.__file__).read_text()).body:
            for t in node.targets if isinstance(node, ast.Assign) else []:
                if isinstance(t, ast.Name) and t.id.isupper():
                    value = getattr(module, t.id)
                    if type(value) is float and 0 < abs(value) < 1e-6:
                        tolerances.add((name.partition(".")[2], t.id))
    documented = _documented_constants()
    assert tolerances - documented == set()
    stale = [f"{m}.{n}" for m, n in sorted(documented)
             if not hasattr(importlib.import_module(f"pepskit.{m}"), n)]
    assert not stale, f"package docstring names undefined constants {stale}"


# Public names that no CLI command reaches yet, each kept for a caller to come.
UNREACHED_ON_PURPOSE = {
    ("oracle", "exact_correlation"),  # the transfer command's correlations will read it
    ("fileio", "write_observable"),  # perfbench/workloads.py writes its inputs with it
}


def _definitions():
    """Top-level functions and classes of each pepskit module, and its relative imports."""
    defs, imports = {}, {}
    for path in Path(pepskit.__file__).parent.glob("*.py"):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (node.module or "__init__", alias.name)
    return defs, imports


def _resolve(key, imports):
    """The (module, name) that defines the binding ``key``, through relative imports."""
    while key in imports:
        key = imports[key]
    return key


def _reached_from_cli(defs, imports):
    """The definitions reached from ``cli.main`` by the bare names their bodies reference.

    A bare name resolves in its module, through relative imports. A function's
    own parameters are not references, even where one shares a definition's
    name.
    """
    reached, todo = set(), [("cli", "main")]
    while todo:
        key = _resolve(todo.pop(), imports)
        if key in reached or key not in defs:
            continue
        reached.add(key)
        nodes = list(ast.walk(defs[key]))
        params = {n.arg for n in nodes if isinstance(n, ast.arg)}
        todo += [(key[0], n.id) for n in nodes if isinstance(n, ast.Name) and n.id not in params]
    return reached


def test_every_public_function_is_reached_from_the_cli():
    defs, imports = _definitions()
    reached = _reached_from_cli(defs, imports)
    exports = {
        _resolve((name.partition(".")[2] or "__init__", export), imports)
        for name in MODULES
        for export in getattr(importlib.import_module(name), "__all__", [])
    }
    assert {key for key in exports if key in defs} - reached == UNREACHED_ON_PURPOSE
