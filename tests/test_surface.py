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


def test_every_exported_name_has_a_caller():
    # a Name or Attribute reading the name anywhere in src/ outside the
    # top-level definition that binds it; imports and __all__ strings do not
    # count, so re-exporting a name is no caller
    referenced = set()
    for stem in MODULES + ["__init__"]:
        for top in _tree(stem).body:
            used = {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
            used |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
            referenced |= used - {getattr(top, "name", None)}
    exported = {
        name for stem in MODULES
        for name in getattr(importlib.import_module(f"ramlab.{stem}"), "__all__", ())
    }
    assert exported - referenced == ENTRY_POINTS


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
