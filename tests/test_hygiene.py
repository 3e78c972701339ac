"""Source hygiene: every name a package module imports is used in it, every
CLI flag is read by its subcommand's handler, every defaulted parameter of a
package function is passed by some caller, every attribute a package class
stores is read somewhere, every public function is called outside the tests
or named as API, and every function the benchmark tracer wraps exists."""

import argparse
import ast
import importlib.util
from pathlib import Path

import pytest

from lsorder.cli import make_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lsorder"


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


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def never_passed_defaults(defining, calling):
    """`file:Owner.func(param)` for each defaulted parameter of a function or
    method in `defining` that no call in `calling` passes, by keyword or by
    position.  A call reaches every function of its callee's name; `__init__`
    is reached through its class name, and a method's positions start after
    self.  A call with *args passes every position, one with **kwargs every
    keyword."""
    calls = {}
    for tree in calling.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)

    def passed(call, name, idx):
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        return idx is not None and (
            idx < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)
        )

    out = []

    def visit(node, owner, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, where)
                continue
            if isinstance(child, ast.FunctionDef):
                a = child.args
                method = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                positional = [p.arg for p in a.posonlyargs + a.args][method:]
                defaulted = positional[len(positional) - len(a.defaults):] + [
                    p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                ]
                sites = calls.get(owner if child.name == "__init__" else child.name, [])
                for name in defaulted:
                    idx = positional.index(name) if name in positional else None
                    if not any(passed(c, name, idx) for c in sites):
                        label = f"{owner}.{child.name}" if owner else child.name
                        out.append(f"{where}:{label}({name})")
                visit(child, None, where)
                continue
            visit(child, owner, where)

    for where, tree in defining.items():
        visit(tree, None, where)
    return sorted(out)


def _trees(*dirs):
    return {
        p.relative_to(ROOT): ast.parse(p.read_text(encoding="utf-8"))
        for d in dirs
        for p in sorted(d.glob("*.py"))
    }


def test_every_default_is_passed_somewhere():
    """A defaulted parameter that no caller in src, tests or perfbench ever
    sets is a constant in disguise."""
    trees = _trees(SRC, ROOT / "tests", ROOT / "perfbench")
    defining = {path.name: tree for path, tree in trees.items() if path.parent == SRC.relative_to(ROOT)}
    assert never_passed_defaults(defining, trees) == []


def test_never_passed_defaults_reads_calls():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "def h(y=0):\n    pass\n"
        "class K:\n    def __init__(self, p=1, q=2):\n        pass\n"
        "    def m(self, r=0, s=0):\n        def inner(t=0):\n            pass\n"
        "f(0, 5, e=1)\ng(*args)\nK(q=1)\nK().m(1)\nh(**opts)\n"
    )
    tree = {"m.py": ast.parse(source)}
    assert never_passed_defaults(tree, tree) == [
        "m.py:K.__init__(p)", "m.py:K.m(s)", "m.py:f(c)", "m.py:f(d)", "m.py:inner(t)",
    ]


def _is_dataclass(cls):
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) == "dataclass":
            return True
    return False


class AttributeReads:
    """Attributes stored by the classes of `defining` (instance attributes
    assigned through self, dataclass fields) that no load in `reading` reaches.

    A load `x.a` reaches class C's attribute a when x is self inside C's
    class family (C with its bases and subclasses), or when x is inferred to
    hold a C-family instance, or when x cannot be inferred at all.  The
    inference is flow-insensitive: a call to a class or to a function whose
    every return is inferred, a local name through its assignments, and a
    parameter through the arguments that typed call sites pass for it.
    """

    def __init__(self, defining, reading):
        self.stores = {}  # class -> {attr: "file:line"}
        bases = {}
        for name, tree in defining.items():
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                stores = self.stores.setdefault(cls.name, {})
                bases[cls.name] = [b.id for b in cls.bases if isinstance(b, ast.Name)]
                if _is_dataclass(cls):
                    for st in cls.body:
                        if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name):
                            stores[st.target.id] = f"{name}:{st.lineno}"
                for fn in cls.body:
                    for node in ast.walk(fn) if isinstance(fn, ast.FunctionDef) else ():
                        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                                and isinstance(node.value, ast.Name) and node.value.id == "self"):
                            stores.setdefault(node.attr, f"{name}:{node.lineno}")
        self.family = {c: c for c in self.stores}
        for c in self.stores:
            for b in bases[c]:
                if b in self.stores:
                    self.family[self._root(c)] = self._root(b)
        self.family = {c: self._root(c) for c in self.stores}
        self.defs = {}  # name -> [(def, is_method)]
        self.calls = {}  # callee name -> [(call, enclosing def)]
        self.memo = {}
        self.reading = reading
        for tree in reading.values():
            self._index(tree, None, False)

    def _root(self, c):
        while self.family[c] != c:
            c = self.family[c]
        return c

    def _index(self, node, fn, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                self.defs.setdefault(child.name, []).append((child, in_class))
                self._index(child, child, False)
            elif isinstance(child, ast.ClassDef):
                self._index(child, fn, True)
            else:
                if isinstance(child, ast.Call):
                    self.calls.setdefault(_callee(child), []).append((child, fn))
                self._index(child, fn, in_class)

    def _cached(self, key, compute):
        if key not in self.memo:
            self.memo[key] = None  # recursion through key: unknown
            self.memo[key] = compute()
        return self.memo[key]

    def _returns(self, fn):
        rets = [n.value for n in ast.walk(fn) if isinstance(n, ast.Return) and n.value is not None]
        types = [self.infer(r, fn) for r in rets]
        return set().union(*types) if types and all(types) else None

    def _param(self, fn, is_method, name):
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        idx = params.index(name) - is_method
        sites = self.calls.get(fn.name, [])
        if fn.name == "__init__":
            sites = [s for c in self.stores for s in self.calls.get(c, [])]
        out = set()
        for call, where in sites:
            arg = next((k.value for k in call.keywords if k.arg == name), None)
            if arg is None and 0 <= idx < len(call.args) and not any(
                isinstance(a, ast.Starred) for a in call.args[: idx + 1]
            ):
                arg = call.args[idx]
            if arg is not None:
                out |= self.infer(arg, where) or set()
        return out or None

    def infer(self, expr, fn):
        """The package classes expr may hold, or None when unknown."""
        if isinstance(expr, ast.Call):
            name = _callee(expr)
            if name in self.stores:
                return {name}
            types = [self._cached(("ret", d), lambda d=d: self._returns(d)) for d, _ in self.defs.get(name, [])]
            return set().union(*(t for t in types if t)) or None
        if not isinstance(expr, ast.Name) or fn is None:
            return None
        out = set()
        if expr.id in [a.arg for a in fn.args.posonlyargs + fn.args.args]:
            is_method = any(d is fn and m for d, m in self.defs[fn.name])
            out |= self._cached(("param", fn, expr.id),
                                lambda: self._param(fn, is_method, expr.id)) or set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == expr.id for t in node.targets
            ):
                out |= self.infer(node.value, fn) or set()
        return out or None

    def unread(self):
        owners = {}
        for c, stores in self.stores.items():
            for a in stores:
                owners.setdefault(a, set()).add(self.family[c])
        reached = set()
        for tree in self.reading.values():
            self._visit(tree, None, None, owners, reached)
        return sorted(
            f"{loc} {c}.{a}"
            for c, stores in self.stores.items()
            for a, loc in stores.items()
            if (self.family[c], a) not in reached
        )

    def _visit(self, node, cls, fn, owners, reached):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, child.name, fn, owners, reached)
                continue
            if isinstance(child, ast.FunctionDef):
                self._visit(child, cls, child, owners, reached)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load) and child.attr in owners:
                recv = child.value
                if isinstance(recv, ast.Name) and recv.id == "self" and cls in self.family:
                    types = {cls}
                else:
                    types = self.infer(recv, fn)
                fams = owners[child.attr]
                if types:
                    fams = fams & {self.family[t] for t in types}
                reached |= {(f, child.attr) for f in fams}
            self._visit(child, cls, fn, owners, reached)


def test_no_write_only_attributes():
    trees = _trees(SRC, ROOT / "tests", ROOT / "perfbench")
    defining = {path.name: tree for path, tree in trees.items() if path.parent == SRC.relative_to(ROOT)}
    assert AttributeReads(defining, trees).unread() == []


def test_attribute_reads_follow_types():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass Rec:\n    kept: int\n    dropped: int\n"
        "class A:\n    def __init__(self, x):\n        self.x = x\n        self.y = x\n"
        "class Sub(A):\n    def get(self):\n        return self.y\n"
        "class B:\n    def __init__(self):\n        self.x = 1\n        self.z = 2\n"
        "def make():\n    return A(1)\n"
        "def use(a):\n    return a.x\n"
        "def anything(obj):\n    return obj.z + Rec(1, 2).kept\n"
        "use(make())\n"
    )
    tree = {"m.py": ast.parse(source)}
    # A.x is read through a typed parameter, so B.x is not; A.y through the
    # subclass; B.z through a receiver of unknown type
    assert AttributeReads(tree, tree).unread() == ["m.py:15 B.x", "m.py:5 Rec.dropped"]


# Public functions and methods that nothing in src, the CLI or perfbench
# calls, kept as the package's API: file formats the CLI reads or writes,
# reports, and paper constructions reached only from the tests.  The 3- and
# 4-hop structures are reached through spanner_oracle_triangle.
API = [
    "fileio.py:read_spanner_edges",  # reads what `lsorder build` writes for a spanner
    "fileio.py:write_tree_decomposition",  # writes what `lsorder build --td` reads
    "orderings.py:VerificationReport.summary",
    "spanners.py:SpdDecomposition.depth",
    "spanners.py:spanner_oracle_classic",
    "spanners.py:spanner_oracle_triangle",
    "spanners.py:treewidth_bag_spd",
]


def _referenced_names(tree):
    """Names that tree refers to outside the bodies of the functions of that
    name: names, attributes, and the dotted parts of strings (the benchmark
    tracer names its targets so)."""
    names = set()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, inside | {child.name})
                continue
            if isinstance(child, ast.Name):
                names.add((child.id, inside))
            elif isinstance(child, ast.Attribute):
                names.add((child.attr, inside))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                names.update((part, inside) for part in child.value.split("."))
            visit(child, inside)

    visit(tree, frozenset())
    return {name for name, inside in names if name not in inside}


def uncalled_public_defs(defining, calling):
    """`file:Owner.name` for each public function or method of `defining`
    whose name no tree of `calling` refers to."""
    used = set().union(*(_referenced_names(tree) for tree in calling.values()))
    out = []
    for where, tree in defining.items():
        for node in tree.body:
            defs = node.body if isinstance(node, ast.ClassDef) else [node]
            owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            out += [
                f"{where}:{owner}{d.name}"
                for d in defs
                if isinstance(d, ast.FunctionDef) and not d.name.startswith("_") and d.name not in used
            ]
    return sorted(out)


def test_every_public_function_is_called_or_api():
    """A public function or method that only the tests call is a test helper
    living in the package, unless it is on the API list."""
    trees = _trees(SRC, ROOT / "perfbench")
    defining = {path.name: tree for path, tree in trees.items() if path.parent == SRC.relative_to(ROOT)}
    assert uncalled_public_defs(defining, trees) == API


def test_uncalled_public_defs_reads_references():
    source = (
        "def used():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def traced():\n    pass\n"
        "def _private():\n    pass\n"
        "class K:\n    def method(self):\n        return self.other()\n"
        "    def other(self):\n        pass\n"
        "used()\nTARGETS = ['K.traced']\n"
    )
    tree = {"m.py": ast.parse(source)}
    assert uncalled_public_defs(tree, tree) == ["m.py:K.method", "m.py:recursive"]


def test_perfbench_tracer_targets_resolve():
    """Each `perfbench/tracer.py` TARGETS entry names a function or method
    that its owner defines itself, so a rename fails here instead of in a
    traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for module_name, attr, *_ in tracer.TARGETS:
        try:
            owner, name = tracer._resolve(module_name, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        if name not in owner.__dict__:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
