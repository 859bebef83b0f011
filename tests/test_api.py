import argparse
import importlib
import pkgutil
import re

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
