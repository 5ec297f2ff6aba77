"""Source hygiene: each module reads its imports, one rule raises every cap, one map unravels."""

import ast
from pathlib import Path

import cayleypst

# perfbench/tracer.py requires these two sites, so their modules import them unread
TRACER_SITES = {"cli.dumps", "walk.character_table"}


def imported_names(tree, package_init):
    """The names a module's imports bind, but for `from __future__` and the package's re-exports.

    The package's __init__ imports its modules' names only to re-export them.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (package_init and node.level):
                continue
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_module_reads_what_it_imports():
    unread = set()
    for path in sorted(Path(cayleypst.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set(imported_names(tree, path.name == "__init__.py"))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread |= {f"{path.stem}.{name}" for name in imported - read}
    assert unread - TRACER_SITES == set()


def docstrings(tree):
    """The docstring constants of a module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def named(node):
    """The name a node reads or imports, the text of a string constant, or ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def test_one_rule_raises_every_size_cap():
    # groups._check_cap is the only raise of CapExceededError, and only groups reads MAX_ORDER
    raises, readers = [], set()
    for path in sorted(Path(cayleypst.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = {id(node) for node in docstrings(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "CapExceededError":
                    raises.append(path.stem)
            if id(node) not in skipped and "MAX_ORDER" in named(node):
                readers.add(path.stem)
    assert raises == ["groups"]
    assert readers == {"groups"}


def test_one_map_turns_indices_into_coordinates():
    # groups._coordinate_rows is the package's one index-to-coordinate map; numpy's
    # unravel_index is left to the tests, as the independent oracle of it
    readers = set()
    for path in sorted(Path(cayleypst.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                if named(node) == "unravel_index":
                    readers.add(path.stem)
    assert readers == set()
