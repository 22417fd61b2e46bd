"""Guards on the source tree itself."""

import ast
import re
from pathlib import Path

import weldmap

SRC = Path(weldmap.__file__).parent
DEF = re.compile(r"^\s*(?:def|class)\s+(\w+)")


def test_every_definition_is_used_in_src_or_exported():
    # A function or class that only tests call belongs in the tests.
    lines = [
        (path.name, no, line)
        for path in sorted(SRC.glob("*.py"))
        for no, line in enumerate(path.read_text(encoding="utf-8").splitlines())
    ]
    unused = []
    for where, no, line in lines:
        m = DEF.match(line)
        if m is None:
            continue
        name = m.group(1)
        if name.startswith("__") and name.endswith("__") or name in weldmap.__all__:
            continue
        word = re.compile(rf"\b{name}\b")
        if not any(
            word.search(other) for w, n, other in lines if (w, n) != (where, no)
        ):
            unused.append(f"{where}:{no + 1} {name}")
    assert not unused, "used only outside src: " + ", ".join(unused)


def test_every_exported_name_is_used_in_src():
    # The package's own modules use what it exports; a name that only tests
    # call belongs in the tests, exported or not.
    lines = [
        line
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    unused = []
    for name in weldmap.__all__:
        word = re.compile(rf"\b{name}\b")
        if not any(
            word.search(line)
            for line in lines
            if not (m := DEF.match(line)) or m.group(1) != name
        ):
            unused.append(name)
    assert not unused, "exported but unused in src: " + ", ".join(unused)


def test_every_optional_parameter_is_passed_in_src():
    # A default that no caller in the package overrides is an input form
    # only tests use. Calls resolve by bare name; the console script leaves
    # cli.main's argv unset.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    passed = set()  # (function name, parameter name or position)
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            passed.update((name, kw.arg) for kw in call.keywords)
            passed.update((name, i) for i in range(len(call.args)))
    unpassed = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            optional = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            optional += [
                (None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
            ]
            for i, arg in optional:
                if (fn.name, arg) in passed or (fn.name, i) in passed:
                    continue
                if (module, fn.name, arg) != ("cli", "main", "argv"):
                    unpassed.append(f"{module}.{fn.name}.{arg}")
    assert not unpassed, "optional parameters no call in src passes: " + ", ".join(unpassed)


def test_every_import_is_used_in_its_module():
    # A module imports only what it uses itself: src keeps no import for
    # another module, a test or the benchmark to reach through it.
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "imported but unused: " + ", ".join(unused)


def test_one_sparse_lu_call_in_src():
    # The flatten, QC and Dirichlet systems all factor in flatten.factor_fixed.
    calls = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for _ in re.finditer(r"\bsplu\(", path.read_text(encoding="utf-8"))
    ]
    assert calls == ["flatten.py"]
