"""The package's public surface: private names stay inside their module,
every exported name resolves and has a caller, and every cache is bounded.

Read from the sources with `ast`, so a private import is caught even when
it happens to work."""

import ast
import importlib
from pathlib import Path

import pytest

import ramlab

PACKAGE = Path(ramlab.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text())


def _ramlab_imports(tree: ast.Module):
    """(module, name) for each `from .mod import name` / `from ramlab.mod import name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("ramlab"):
                continue
            module = (node.module or "").removeprefix("ramlab").lstrip(".")
            for alias in node.names:
                yield module, alias.name


@pytest.mark.parametrize("stem", MODULES + ["__init__"])
def test_no_private_cross_module_names(stem):
    tree = _tree(stem)
    imported_modules = set()
    offences = []
    for module, name in _ramlab_imports(tree):
        if not module and name in MODULES:
            imported_modules.add(name)  # `from . import gensums`
        elif name.startswith("_"):
            offences.append(f"from .{module} import {name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported_modules
            and node.attr.startswith("_")
        ):
            offences.append(f"{node.value.id}.{node.attr}")
    assert offences == []


# each module imports only modules before it
LAYERS = ("arith", "systems", "gensums", "even", "verify", "cli")


def test_modules_are_the_layers():
    assert MODULES == sorted(LAYERS)


@pytest.mark.parametrize("stem", MODULES)
def test_imports_only_lower_layers(stem):
    below = LAYERS[: LAYERS.index(stem)] if stem in LAYERS else ()
    imported = set()
    for module, name in _ramlab_imports(_tree(stem)):
        imported.add(module or name)  # `from .mod import x` or `from . import mod`
    assert imported <= set(below)


@pytest.mark.parametrize("stem", MODULES)
def test_all_entries_resolve(stem):
    module = importlib.import_module(f"ramlab.{stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# exported for the paper's statements and the tests' cross-checks, with no
# caller in src/ by design
ENTRY_POINTS = {
    "inner_product",  # the inner product that makes the c_A basis orthogonal
    "progression_totient",  # the paper's totient over an arithmetic progression
    "progression_totient_mean",  # its closed-form mean value
}


def _referenced() -> set[str]:
    # each Name or Attribute read anywhere in src/ outside the definition
    # that binds it: a top-level statement, or a member of a top-level
    # class; imports and __all__ strings do not count, so re-exporting a
    # name is no caller, and neither is a method calling itself
    referenced = set()
    for stem in MODULES + ["__init__"]:
        for top in _tree(stem).body:
            units = [top]
            if isinstance(top, ast.ClassDef):
                units = [*top.bases, *top.decorator_list, *top.body]
            for unit in units:
                used = {node.id for node in ast.walk(unit) if isinstance(node, ast.Name)}
                used |= {node.attr for node in ast.walk(unit) if isinstance(node, ast.Attribute)}
                referenced |= used - {getattr(unit, "name", None), getattr(top, "name", None)}
    return referenced


def _exported() -> dict[str, list[str]]:
    return {
        stem: list(getattr(importlib.import_module(f"ramlab.{stem}"), "__all__", ()))
        for stem in MODULES
    }


def test_every_exported_name_has_a_caller():
    exported = {name for names in _exported().values() for name in names}
    assert exported - _referenced() == ENTRY_POINTS


def test_every_public_method_of_an_exported_class_has_a_caller():
    # the same rule one level down: a public method or property of an
    # exported class needs an attribute read of its name in src/, so a
    # method only the tests call lives in the tests
    referenced = _referenced()
    uncalled = []
    for stem, names in _exported().items():
        for top in _tree(stem).body:
            if isinstance(top, ast.ClassDef) and top.name in names:
                uncalled += [
                    f"{stem}.{top.name}.{item.name}"
                    for item in top.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and item.name not in referenced
                ]
    assert uncalled == []


def test_package_namespace_reexports_public_names():
    # each name `ramlab` re-exports is listed in its module's __all__, or is
    # public when the module has none
    stray = []
    for module, name in _ramlab_imports(_tree("__init__")):
        source = importlib.import_module(f"ramlab.{module}")
        assert getattr(ramlab, name) is getattr(source, name)
        public = getattr(source, "__all__", None)
        if (name not in public) if public is not None else name.startswith("_"):
            stray.append(f"{module}.{name}")
    assert stray == []


CACHES = ("lru_cache", "cache")


def _ident(node: ast.AST):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


@pytest.mark.parametrize("stem", MODULES + ["__init__"])
def test_every_cache_is_bounded(stem):
    # `@cache`, a bare `@lru_cache` or maxsize=None grows for the life of the
    # process; each lru_cache must name an integer maxsize
    offences = []
    for node in ast.walk(_tree(stem)):
        for dec in getattr(node, "decorator_list", ()):
            if _ident(dec) in CACHES:
                offences.append(f"line {dec.lineno}: bare @{_ident(dec)}")
        if isinstance(node, ast.Call) and _ident(node.func) in CACHES:
            size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            bounded = (
                _ident(node.func) == "lru_cache"
                and size
                and isinstance(size[0], ast.Constant)
                and type(size[0].value) is int
            )
            if not bounded:
                offences.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert offences == []
