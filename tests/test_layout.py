"""Package layout: every library module has an importer inside the package,
and every exported name exists."""

import ast
import importlib
from pathlib import Path

import periodmoments

PACKAGE = Path(periodmoments.__file__).parent
# entry points: nothing in the package imports them
ENTRY_POINTS = {"__init__", "cli"}


def _sibling_imports(path):
    """Names of the package modules that the module at path imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:  # from .modforms import ...
                names.add(node.module)
            else:  # from . import special
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_is_imported_by_the_package():
    modules = {p.stem: p for p in PACKAGE.glob("*.py")}
    imported = set()
    for path in modules.values():
        imported |= _sibling_imports(path)
    orphans = sorted(set(modules) - ENTRY_POINTS - imported)
    assert orphans == [], "modules no other package module imports: %s" % orphans


def test_public_names_exist():
    # a stale __all__ entry breaks `from periodmoments.<module> import *`
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "periodmoments" if path.stem == "__init__" else "periodmoments." + path.stem
        mod = importlib.import_module(name)
        missing += ["%s.%s" % (name, attr) for attr in getattr(mod, "__all__", ())
                    if not hasattr(mod, attr)]
    assert missing == [], "names in __all__ that the module lacks: %s" % missing
