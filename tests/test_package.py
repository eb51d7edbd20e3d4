"""The package holds only what a command or the benchmark runs.

A top-level function, class or assignment of src/cellform is live when a root
names it or the body of a live definition does.  The roots are what runs the
package from outside: every name, attribute and import in perfbench/*.py and
benchmarks/*.py, every string there that is a dotted identifier (the tracer
looks names up by string), every word of pyproject.toml (the console script),
and the names that module-level code of src/cellform uses outside any
definition.  tests/ is never a root, and docstrings and comments never count:
a helper that only the tests run belongs in tests/oracles.py.  Dunder names
such as ``__version__`` are read by tools, not named in code, and are exempt.

No module of src/cellform or tests/ imports a name that it never reads.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _docstrings(tree) -> set[int]:
    """ids of the docstring constants of a module and its functions and classes."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _names(node, strings: bool = False) -> set[str]:
    """Every identifier that node names: names, attributes, imported names, and
    (if strings) the parts of each dotted-identifier string."""
    skip = _docstrings(node) if strings else set()
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(sub.name.split("."))
        elif (strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in skip and DOTTED.fullmatch(sub.value)):
            out.update(sub.value.split("."))
    return out


def _bound(node) -> list[str]:
    """The names a top-level statement defines; [] for any other statement."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    if not all(isinstance(t, (ast.Name, ast.Tuple)) for t in targets):
        return []  # `TABLE[k] = v` uses TABLE
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unreached_definitions(root: Path) -> list[str]:
    """`file:line name` for each definition of root/src/cellform that no root reaches."""
    roots = set(re.findall(r"\w+", (root / "pyproject.toml").read_text()))
    for path in sorted([*root.glob("perfbench/*.py"), *root.glob("benchmarks/*.py")]):
        roots |= _names(ast.parse(path.read_text()), strings=True)
    defs = {}  # name -> [(path, line, node)]
    for path in sorted(root.glob("src/cellform/*.py")):
        for node in ast.parse(path.read_text()).body:
            bound = _bound(node)
            for name in bound:
                defs.setdefault(name, []).append((path.relative_to(root), node.lineno, node))
            # An import only binds a name; other module-level code runs on import,
            # e.g. `if __name__ == "__main__": main()`.
            if not bound and not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    live, todo = set(), [name for name in defs if name in roots]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += [n for _, _, node in defs[name] for n in _names(node) if n in defs]
    unreached = sorted((str(path), line, name) for name, sites in defs.items()
                       if name not in live and not name.startswith("__") for path, line, _ in sites)
    return [f"{path}:{line} {name}" for path, line, name in unreached]


def test_every_definition_is_reached_by_a_command_or_the_benchmark():
    unreached = unreached_definitions(ROOT)
    assert not unreached, "reached by no command and no benchmark:\n" + "\n".join(unreached)


def unused_imports(root: Path) -> list[str]:
    """`file:line name` for each name that a module of root/src/cellform or
    root/tests imports and never loads; `from __future__` is exempt."""
    unused = []
    for path in sorted([*root.glob("src/cellform/*.py"), *root.glob("tests/*.py")]):
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unused.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    return unused


def test_no_unused_imports():
    unused = unused_imports(ROOT)
    assert not unused, "imported and never read:\n" + "\n".join(unused)
