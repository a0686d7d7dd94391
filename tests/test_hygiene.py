"""Static checks on the library source: no dead imports, no orphaned helpers,
no public function or method that only the tests call, no unbounded cache,
no cache outside a short allow-list, no handler that catches an
undefined conditional, and no check outside the constructors.

All are read off the syntax tree, so they hold without importing anything.
``__init__.py`` is skipped for imports.  Its exports are loaded lazily, by
name, from its ``_EXPORTS`` table: each name there is the package's public
surface and counts as a reference.
"""
import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "causal_imitation"
MODULES = sorted(SRC.glob("*.py"))
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}


def _references(statements):
    """Names loaded, attribute names read and names imported anywhere in
    ``statements``, once per occurrence."""
    for stmt in statements:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name


def _attribute_reads(statements):
    """Attribute names read anywhere in ``statements``, ``x.name``, once per
    occurrence."""
    for stmt in statements:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                yield node.attr


def _referenced(statements) -> set[str]:
    return set(_references(statements))


def _exported() -> list[str]:
    """The strings of ``__init__``'s ``_EXPORTS`` table: the names the
    package exports and the modules that define them."""
    [table] = [node.value for node in TREES["__init__.py"].body if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets)]
    return [c.value for c in ast.walk(table) if isinstance(c, ast.Constant)]


@pytest.mark.parametrize("module", [m for m in TREES if m != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in bound if name not in used] == []


def test_every_private_function_has_a_caller():
    orphans = []
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or not node.name.startswith("_"):
                continue
            if node.name.startswith("__"):
                continue
            elsewhere = [stmt for t in TREES.values() for stmt in t.body if stmt is not node]
            if node.name not in _referenced(elsewhere):
                orphans.append(f"{module}:{node.name}")
    assert orphans == []


def test_every_public_function_and_method_has_a_caller():
    # a public name that only the tests reach is a second path the library
    # keeps alive: its job belongs in the tests or in the one shipped path.
    # A method is reached through an attribute, x.name, only: a local
    # variable of the same name does not call it
    body = [stmt for tree in TREES.values() for stmt in tree.body]
    names, attributes = Counter(_references(body)), Counter(_attribute_reads(body))
    names.update(_exported())
    defs = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{module}:{node.name}", node, names, _references))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{module}:{node.name}.{item.name}", item, attributes, _attribute_reads)
                         for item in node.body if isinstance(item, ast.FunctionDef)]
    orphans = [label for label, node, counts, read in defs if not node.name.startswith("_")
               and counts[node.name] == Counter(read([node]))[node.name]]
    assert orphans == []


def _unbounded_caches(tree):
    """Line numbers of ``functools.cache`` and of ``lru_cache`` with
    ``maxsize=None``, however they are imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(a.name == "cache" for a in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node.lineno
        elif isinstance(node, ast.Call) and "lru_cache" in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None)):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(s, ast.Constant) and s.value is None for s in sizes):
                yield node.lineno


def test_no_unbounded_cache():
    # a cache without a bound lives as long as the process and grows with
    # every new input; what a computation needs is passed in, not kept
    found = [f"{module}:{line}" for module, tree in TREES.items() for line in _unbounded_caches(tree)]
    assert found == []


# every cache the library keeps, by qualified name; each holds one object
# for the life of the process, built on first use
ALLOWED_CACHES = {
    "imitate._highs",  # the one HiGHS solver every LP runs on
    "experiments.frontdoor_instrument",  # the study's one instrument, found once by the search
}
CACHES = {"cache", "lru_cache", "cached_property"}


def _cache_uses(module, tree):
    """The qualified name of each function a cache decorates, and
    ``module:line`` for any other use of a cache from functools."""
    decorators = set()
    scopes = [(module.removesuffix(".py"), tree.body)]
    while scopes:
        prefix, body = scopes.pop()
        for node in body:
            if isinstance(node, ast.ClassDef):
                scopes.append((f"{prefix}.{node.name}", node.body))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((f"{prefix}.{node.name}", node.body))
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(target, "id", None) in CACHES or getattr(target, "attr", None) in CACHES:
                        decorators.add(target)
                        yield f"{prefix}.{node.name}"
    for node in ast.walk(tree):
        if node in decorators:
            continue
        if isinstance(node, ast.Name) and node.id in CACHES:
            yield f"{module}:{node.lineno}"
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            yield f"{module}:{node.lineno}"


def test_caches_only_on_the_allow_list():
    # a cache is state that one call leaves for the next; what a
    # computation needs is passed in, unless the allow-list names it
    found = [use for module, tree in TREES.items() for use in _cache_uses(module, tree)]
    assert sorted(set(found) - ALLOWED_CACHES) == []
    assert ALLOWED_CACHES <= set(found)


def test_no_module_catches_an_undefined_conditional():
    # a formula undefined on a table gives NaN, and the solver no policy:
    # one path, with no retry around an UnsupportedConditionalError
    found = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "UnsupportedConditionalError" in _referenced([node.type]):
                    found.append(f"{module}:{node.lineno}")
    assert found == []


# the symbolic layer and the modules the graph-only commands load: none may
# import the numeric layer when it is imported, only inside a function
SYMBOLIC = ("diagram", "projection", "identify", "criteria", "enumerators", "errors", "fixtures", "cli",
            "__init__")
NUMERIC = {"numpy", "scm", "imitate", "experiments"}


def _import_time_imports(body):
    """The import statements that run when the module is imported: those
    outside function bodies and ``if TYPE_CHECKING:`` blocks."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            yield from _import_time_imports(node.orelse)
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_imports(getattr(node, field, []))


def _numeric_imports(tree) -> set[str]:
    """The numeric modules a module imports when it is imported, however
    they are named: ``numpy.linalg``, ``.scm``, ``from . import imitate``
    or ``causal_imitation.experiments``."""
    found = set()
    for node in _import_time_imports(tree.body):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            base = node.module or ""
            names = [base] + [f"{base}.{a.name}".lstrip(".") for a in node.names]
        for name in names:
            parts = name.split(".")
            if parts[0] == "causal_imitation":
                parts = parts[1:]
            if parts and parts[0] in NUMERIC:
                found.add(parts[0])
    return found


@pytest.mark.parametrize("module", SYMBOLIC)
def test_symbolic_layer_imports_no_numeric_module(module):
    # a regression here costs every graph-only command the numpy import,
    # even a command that no subprocess test runs
    assert _numeric_imports(TREES[f"{module}.py"]) == set()


def test_numeric_import_guard_sees_the_numeric_layer():
    assert _numeric_imports(TREES["imitate.py"]) == {"numpy", "scm"}
    assert _numeric_imports(TREES["experiments.py"]) == {"numpy", "imitate", "scm"}


def test_only_the_line_reader_splits_lines():
    # the graph, model and distribution formats share one lexical reader,
    # diagram._declarations: comments, blank lines and indentation are
    # decided in one place
    callers = []
    for module, tree in TREES.items():
        scopes = [(module.removesuffix(".py"), node) for node in tree.body]
        while scopes:
            prefix, node = scopes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scopes += [(f"{prefix}.{node.name}", child) for child in node.body]
            elif any(getattr(n, "attr", None) == "splitlines" for n in ast.walk(node)):
                callers.append(prefix)
    assert callers == ["diagram._declarations"]


def test_only_the_file_reader_reads_text():
    # graph, model and distribution files are decoded in one place,
    # diagram._read_text, so a byte that is not UTF-8 is a parse error
    reads = [module for module, tree in TREES.items() for node in ast.walk(tree)
             if getattr(node, "attr", None) == "read_text"]
    assert reads == ["diagram.py"]


CHECKS = {"require_valid", "require_valid_space", "_validate"}


def _factories_and_intervene():
    """Each ``create`` staticmethod, as ``module:Class.create``, and
    ``scm:intervene``, with its node."""
    for module, tree in TREES.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and node.name == "create"
                        and any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)):
                    yield f"{module.removesuffix('.py')}:{cls.name}.create", node
    [intervene] = [node for node in TREES["scm.py"].body
                   if isinstance(node, ast.FunctionDef) and node.name == "intervene"]
    yield "scm:intervene", intervene


def test_checks_live_in_the_constructors():
    # each type checks its invariants in __post_init__; a factory only
    # normalises its arguments, and intervene leaves its model to the
    # constructor, so no path can skip a check or hold one of its own
    found = []
    for label, func in _factories_and_intervene():
        for node in ast.walk(func):
            if isinstance(node, ast.Raise):
                found.append(f"{label}:{node.lineno}")
            elif isinstance(node, ast.Call) and (getattr(node.func, "id", None) in CHECKS
                                                 or getattr(node.func, "attr", None) in CHECKS):
                found.append(f"{label}:{node.lineno}")
    assert found == []
    labels = {label for label, _ in _factories_and_intervene()}
    assert {"scm:Policy.create", "scm:DiscreteSCM.create", "scm:intervene"} <= labels
    assert [f"{module}:{node.name}" for module, tree in TREES.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_validate"] == []
    # a diagram is checked once, when it is built: no other module checks one
    rechecks = [f"{module}:{node.lineno}" for module, tree in TREES.items() if module != "diagram.py"
                for node in ast.walk(tree) if isinstance(node, ast.Call)
                and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & {"require_valid", "validate"}]
    assert rechecks == []
