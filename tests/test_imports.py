"""Source hygiene: every module reads each name it imports."""

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
