"""Source hygiene: imports, the cap rule, the index maps, and the names README and perfbench read."""

import ast
import importlib
import importlib.util
import inspect
import re
from functools import cached_property
from pathlib import Path

import cayleypst

ROOT = Path(__file__).resolve().parents[1]

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


def readers_of(name):
    """The package modules that read or import `name`."""
    readers = set()
    for path in sorted(Path(cayleypst.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and named(node) == name:
                readers.add(path.stem)
    return readers


def test_one_map_turns_indices_into_coordinates():
    # groups._coordinate_rows is the package's one index-to-coordinate map; numpy's
    # unravel_index is left to the tests, as the independent oracle of it
    assert readers_of("unravel_index") == set()


def test_one_map_turns_coordinates_into_indices():
    # groups._row_index is the one map back, exact past int64, where ravel_multi_index refuses
    assert readers_of("ravel_multi_index") == set()


def test_the_readme_names_every_public_name():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in cayleypst.__all__ if f"`{name}`" not in readme] == []


def attributes_read(paths):
    """The attribute names the modules at these paths read."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_member_is_read():
    # a public method or property of an exported class stays if README names it in backticks,
    # a package module other than its own reads it, or perfbench reads it; tests alone keep none
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {text.rpartition(".")[2] for text in re.findall(r"`([^`\n]+)`", readme)}
    package = sorted(Path(cayleypst.__file__).parent.glob("*.py"))
    benchmark = attributes_read(sorted((ROOT / "perfbench").glob("*.py")))
    kinds = (property, cached_property, classmethod, staticmethod)
    unread = []
    for name in cayleypst.__all__:
        cls = getattr(cayleypst, name)
        if not isinstance(cls, type):
            continue
        home = cls.__module__.rpartition(".")[2]
        read = named | benchmark | attributes_read(p for p in package if p.stem != home)
        for member, value in vars(cls).items():
            routine = inspect.isfunction(value) or isinstance(value, kinds)
            if routine and not member.startswith("_") and member not in read:
                unread.append(f"{name}.{member}")
    assert unread == []


def load_perfbench(name):
    """A perfbench module, loaded from its file without running anything but its imports."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_names():
    """Every package name the benchmark reads, as (module, attribute, wrapped by the tracer).

    The tracer's required sites, the members of its families, the functions
    layer_metrics times (by their `<layer>.<name>_s` metrics, bar each layer's
    self time and the family names), and the attributes the sweep worker reads
    of the groups, pst, spectra and walk modules, found in its source.
    """
    tracer = load_perfbench("tracer")
    for site in tracer.REQUIRED_SITES:
        module, _, attr = site.rpartition(".")
        yield module, attr, True
    not_functions = {f"{layer}.self" for layer in tracer.LAYERS} | set(tracer.FAMILIES.values())
    timed = {name[: -len("_s")] for name in tracer.layer_metrics({}) if name.endswith("_s")}
    for function in sorted(set(tracer.FAMILIES) | timed - not_functions):
        layer, _, attr = function.partition(".")
        yield f"cayleypst.{layer}", attr, True
    worker = ast.parse((ROOT / "perfbench" / "sweep_worker.py").read_text(encoding="utf-8"))
    for node in ast.walk(worker):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("groups", "pst", "spectra", "walk"):
                yield f"cayleypst.{node.value.id}", node.attr, False


def test_every_name_the_benchmark_reads_is_public():
    # a timed name that is gone reads 0 in the benchmark, and a required site that is gone
    # fails only there; each must be a public callable, class or number of its module
    names = sorted(set(benchmark_names()))
    assert ("cayleypst.pst", "is_power_closed", True) in names
    assert ("cayleypst.walk", "dense_expm", False) in names
    layers = {f"cayleypst.{layer}" for layer in load_perfbench("tracer").LAYERS}
    for module, attr, timed in names:
        value = getattr(importlib.import_module(module), attr, None)
        assert not attr.startswith("_") and value is not None, (module, attr)
        if timed:
            # the tracer wraps only the callables a layer module defines, and no class
            assert not isinstance(value, type) and value.__module__ in layers, (module, attr)
        else:
            assert callable(value) or isinstance(value, float), (module, attr)
