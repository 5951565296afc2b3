"""Package layout: every library module has an importer inside the package,
every exported name exists, and the public API that only the tests use is
listed."""

import ast
import importlib
import inspect
from pathlib import Path

import periodmoments

PACKAGE = Path(periodmoments.__file__).parent
# entry points: nothing in the package imports them
ENTRY_POINTS = {"__init__", "cli"}
# public functions and methods that nothing in the package refers to: the
# independent routes and oracles that the tests check production against
TEST_ONLY_PUBLIC_NAMES = {
    "eisenstein_gl2.residue_at_one",
    "epstein.gln_completed_eisenstein",
    "epstein.iwasawa_y",
    "modforms.delta_qexp",
    "moment.regularized_bound",
    "rankin_selberg.RankinSelbergPair.l_direct",
    "rankin_selberg.RankinSelbergPair.residue_consistency",
    "spectral.plancherel_density",
    "spectral.plancherel_g_gamma",
    "spectral.stade_rhs_simple",
    "spectral.whittaker",
}


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


def _public_defs(tree, module):
    """{qualified name: name} of the module's public functions and the
    public methods of its classes."""
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            defs["%s.%s" % (module, node.name)] = node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    defs["%s.%s.%s" % (module, node.name, item.name)] = item.name
    return defs


def test_test_only_public_names_are_listed():
    # a name that gains or loses its last reference in the package (a call,
    # an attribute access or a function passed as a value) changes this set
    defs, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.update(_public_defs(tree, path.stem))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = {q for q, name in defs.items() if name not in referenced}
    assert unreferenced == TEST_ONLY_PUBLIC_NAMES


def test_cached_functions_take_no_defaults():
    # functools.cache keys on the arguments as passed, so f(k) and f(k, 1)
    # would be two entries of one value: a memoized function has one call
    # form, with every parameter given
    cached = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "periodmoments" if path.stem == "__init__" else "periodmoments." + path.stem
        mod = importlib.import_module(name)
        cached += [obj for obj in vars(mod).values()
                   if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__]
    assert len(cached) >= 10
    defaulted = ["%s.%s" % (fn.__module__, fn.__name__) for fn in cached
                 if any(p.default is not p.empty
                        for p in inspect.signature(fn.__wrapped__).parameters.values())]
    assert defaulted == []
