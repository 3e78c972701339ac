"""Source hygiene: every name a package module imports is used in it, and
every CLI flag is read by its subcommand's handler."""

import argparse
import ast
from pathlib import Path

import pytest

from lsorder.cli import make_parser

SRC = Path(__file__).resolve().parent.parent / "src" / "lsorder"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_names():
    source = "import math\nfrom x import a, b as c\nimport os.path\nprint(a, os)\n"
    assert unused_imports(source) == ["c", "math"]


def args_reads(tree, name, seen=()):
    """Names X read as `args.X` by module function `name`, following the
    module functions it passes `args` to."""
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    reads = set()
    for node in ast.walk(funcs[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            reads.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in funcs
            and node.func.id not in seen
            and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
        ):
            reads |= args_reads(tree, node.func.id, seen + (name,))
    return reads


def subparsers():
    action = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", sorted(subparsers()))
def test_cli_flags_are_read(command):
    parser = subparsers()[command]
    flags = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert flags == args_reads(tree, parser.get_default("func").__name__)


def test_args_reads_follows_helpers():
    source = (
        "def load(args):\n    return args.input\n"
        "def cmd(args):\n    load(args)\n    other(args.p)\n    return args.seed\n"
        "def other(args):\n    return args.unused\n"
    )
    assert args_reads(ast.parse(source), "cmd") == {"input", "p", "seed"}
