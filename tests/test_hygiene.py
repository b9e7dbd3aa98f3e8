"""Checks over the package source, by static reading (stdlib `ast`).

In every `gere` module but `__init__.py` (whose imports are the public
re-exports), each imported name and each module-level `_`-prefixed function,
class or constant must be read somewhere in that module. Every parameter of
every function and lambda must be read in its body. And `binio` is the
one module that reads files: no other calls `read_text`, `read_bytes`,
`json.load(s)` or `open` without a write mode, except as `binio.read_*`.
Every module-level function and class and every method but the dunders is
referenced by name somewhere else in the package, the benchmark scripts or
the demos (the tracer's wrapped names count), or is exported in
`gere.__all__`. Every annotated class field is read as an attribute
somewhere in the package, the benchmark scripts or the demos. No module
reads the environment.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gere"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's `__all__`."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def _reads(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, plus the names listed in `__all__`."""
    return _exported(tree) | {node.id for node in ast.walk(tree)
                              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _private_definitions(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_and_private_definition_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = (_imported(tree) | _private_definitions(tree)) - _reads(tree)
    assert not unread, f"{path.name}: never read: {sorted(unread)}"


def _unread_parameters(tree: ast.Module) -> list[str]:
    """`name(parameter)` for each parameter of a function or lambda in `tree`
    that its body never reads; `x += ...` reads x."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None]
        body = [node for stmt in (fn.body if isinstance(fn.body, list) else [fn.body])
                for node in ast.walk(stmt)]
        reads = {node.id for node in body
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        reads |= {node.target.id for node in body
                  if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
        name = getattr(fn, "name", "<lambda>")
        found.extend(f"{name}({p})" for p in params if p not in reads)
    return found


def test_unread_parameter_check_flags_unread_parameters():
    source = ("def f(a, b, *c, d, **e):\n    return a + d\n"
              "def g(buf, x=1):\n    buf += x\n"
              "def h(self, y):\n    def inner():\n        return y\n    return inner\n"
              "k = lambda z, w: z\n")
    assert _unread_parameters(ast.parse(source)) == [
        "f(b)", "f(c)", "f(e)", "h(self)", "<lambda>(w)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = _unread_parameters(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not unread, f"{path.name}: parameters never read: {unread}"


def _file_reads(tree: ast.Module) -> list[str]:
    """Source of every call in `tree` that reads a file or parses JSON text,
    other than a call of `binio.read_text` or `binio.read_bytes`."""
    found = []
    for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
        func = call.func
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name) else None
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":
            # Path.open(mode) or open(file, mode): a read unless the mode writes.
            args = call.args if isinstance(func, ast.Attribute) else call.args[1:]
            mode = next((k.value for k in call.keywords if k.arg == "mode"),
                        args[0] if args else None)
            reads = not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax"))
        else:
            reads = ((name in ("read_text", "read_bytes") and owner != "binio")
                     or (name in ("load", "loads") and owner == "json"))
        if reads:
            found.append(ast.unparse(call))
    return found


def test_file_read_check_flags_reads_outside_binio():
    source = ("Path(p).read_text(); p.read_bytes(); json.loads(s); json.load(fh); open(p); "
              "open(p, 'rb'); p.open(); binio.read_text(p); binio.read_bytes(p); "
              "open(p, 'w'); open(p, mode='wb'); p.open('a'); json.dumps(r)")
    assert _file_reads(ast.parse(source)) == [
        "Path(p).read_text()", "p.read_bytes()", "json.loads(s)", "json.load(fh)", "open(p)",
        "open(p, 'rb')", "p.open()"]


@pytest.mark.parametrize("path", [p for p in SRC.glob("*.py") if p.name != "binio.py"],
                         ids=lambda p: p.name)
def test_only_binio_reads_files(path):
    reads = _file_reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not reads, f"{path.name} reads files outside binio: {reads}"


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class and each
    non-dunder method in `tree`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _references(tree: ast.AST, strings: bool = False) -> Counter:
    """Uses of each name in `tree`: names, attributes and, with `strings`,
    string constants (the tracer wraps package names given as strings)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _unreferenced(defining: dict[str, ast.Module], referencing: Counter,
                  exported: set[str]) -> list[str]:
    """`module:name` of each definition in `defining` that is not exported and
    that `referencing` counts no more often than its own definition uses it."""
    return [f"{module}:{qualname}" for module, tree in defining.items()
            for qualname, node in _definitions(tree)
            if node.name not in exported
            and referencing[node.name] <= _references(node)[node.name]]


def test_unreferenced_definition_check_flags_unused_definitions():
    package = ast.parse("def used():\n    pass\n"
                        "def recursive(n):\n    return recursive(n - 1)\n"
                        "def exported():\n    pass\n"
                        "def wrapped():\n    pass\n"
                        "class C:\n"
                        "    def __repr__(self):\n        return self.helper()\n"
                        "    def helper(self):\n        pass\n"
                        "    def orphan(self):\n        pass\n")
    caller = ast.parse("used()\nC()\nlabel = 'wrapped'\n")
    assert _unreferenced({"m": package}, _references(package) + _references(caller),
                         {"exported"}) == ["m:recursive", "m:wrapped", "m:C.orphan"]
    assert _unreferenced({"m": package}, _references(package) + _references(caller, True),
                         {"exported"}) == ["m:recursive", "m:C.orphan"]


def test_every_definition_is_referenced_or_exported():
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    package = {p.name: parse(p) for p in sorted(SRC.glob("*.py"))}
    scripts = sorted((ROOT / "benchmarks").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    referencing = sum((_references(tree) for tree in package.values()), Counter())
    for path in scripts:
        referencing += _references(parse(path), strings=path.name == "tracing.py")
    unreferenced = _unreferenced(package, referencing, _exported(package["__init__.py"]))
    assert not unreferenced, f"referenced nowhere and not exported: {unreferenced}"


def _fields(tree: ast.Module):
    """(class name, field name) of each annotated field in a class body."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield cls.name, item.target.id


def _attribute_loads(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_field_check_flags_written_only_fields():
    tree = ast.parse("class P:\n    read: int\n    written: int = 0\n    plain = 1\n"
                     "p = P(1)\np.written = p.read\n")
    loads = _attribute_loads(tree)
    assert [f"{c}.{f}" for c, f in _fields(tree) if f not in loads] == ["P.written"]


def test_every_field_is_read():
    """A field that is only ever written, or read only by tests, is dead state."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
             + sorted((ROOT / "demos").glob("*.py"))}
    loads = set().union(*map(_attribute_loads, trees.values()))
    unread = [f"{path.name}:{cls}.{name}" for path, tree in trees.items()
              if path.parent == SRC for cls, name in _fields(tree) if name not in loads]
    assert not unread, f"fields never read as attributes: {unread}"


def _environment_reads(tree: ast.Module) -> list[str]:
    """Source of each `os.environ` or `os.getenv` use, however imported."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.extend(f"from os import {a.name}" for a in node.names
                         if a.name in ("environ", "getenv"))
    return found


def test_environment_check_flags_environment_reads():
    source = ("import os\nfrom os import environ, path\nos.environ.get('X')\n"
              "os.getenv('Y')\nos.path.join('a')\n")
    assert sorted(_environment_reads(ast.parse(source))) == [
        "from os import environ", "os.environ", "os.getenv"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    """Settings come from flags and config files only."""
    reads = _environment_reads(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not reads, f"{path.name} reads the environment: {reads}"
