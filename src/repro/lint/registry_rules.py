"""Registry / spawn-safety rules: keep every plug-in point worker-safe.

Sweeps ship cells to worker processes as *data*: typed frozen specs that
carry registered names, resolved against the registries inside the worker.
On spawn/forkserver platforms the worker bootstrap re-imports every module
that registered a factory (:func:`repro._registry.plugin_modules`, which
walks the index of every registry).  That contract only holds when:

``registry-factory-module-level``
    Registered factories are module-level ``def``/``class`` objects.  A
    lambda or closure has no importable identity: it cannot be pickled by
    reference, and a spawn re-import will not recreate the same object.
``registry-frozen-spec``
    Config/spec dataclasses handed to a registry (``config=``/``spec=``,
    or subclasses of a ``*Spec``/``*Config`` base) are ``frozen=True`` and
    carry only picklable, value-semantics field types (scalars, tuples,
    frozensets, optionals, nested specs).
``registry-duplicate-name``
    A name is registered at most once per registry family (a second
    registration raises at import in whatever import order reveals it --
    this rule catches it before any import runs).
``registry-import-safe``
    Registrations execute at module import: a ``register_*`` call inside a
    function body or under ``if __name__ == "__main__":`` never re-runs
    when the worker bootstrap re-imports the module, so the plugin silently
    vanishes under spawn.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .engine import LintRule, ModuleInfo, ProjectInfo, register_lint_rule
from .findings import ERROR, Finding

__all__ = [
    "ModuleLevelFactoryRule",
    "FrozenSpecRule",
    "DuplicateRegistrationRule",
    "ImportSafeRegistrationRule",
]


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def register_family(module: ModuleInfo, node: ast.AST) -> Optional[str]:
    """The registry family of a ``register_*(...)``-style call, or ``None``.

    Matches calls whose resolved final segment starts with ``register_``
    (``register_system``, ``repro.faults.register_fault``, ...) and
    ``<registry>.register(...)`` method calls.  The family string groups
    registrations that share one namespace.
    """
    if not isinstance(node, ast.Call):
        return None
    qual = module.qualname(node.func)
    if qual is None:
        return None
    head, _, last = qual.rpartition(".")
    if last.startswith("register_"):
        return last
    if last == "register" and head:
        # REGISTRY.register("name", ...): family is the registry object.
        return f"{head.rpartition('.')[2]}.register"
    return None


def literal_name(node: ast.Call) -> Optional[str]:
    """The literal string registered by this call, if statically known."""
    if node.args and isinstance(node.args[0], ast.Constant):
        value = node.args[0].value
        if isinstance(value, str):
            return value
    return None


def has_true_keyword(node: ast.Call, name: str) -> bool:
    for keyword in node.keywords:
        if keyword.arg == name and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value)
    return False


def _is_register_decorator(module: ModuleInfo, decorator: ast.AST) -> bool:
    """Decorator forms: ``@register_x("name")`` or bare ``@register_x``."""
    if register_family(module, decorator) is not None:
        return True
    qual = module.qualname(decorator)
    return qual is not None and qual.rpartition(".")[2].startswith("register_")


def _dunder_main_guard(node: ast.AST) -> bool:
    """Is ``node`` an ``if __name__ == "__main__":`` statement?"""
    if not isinstance(node, ast.If) or not isinstance(node.test, ast.Compare):
        return False
    test = node.test
    sides = [test.left, *test.comparators]
    has_name = any(isinstance(s, ast.Name) and s.id == "__name__" for s in sides)
    has_main = any(
        isinstance(s, ast.Constant) and s.value == "__main__" for s in sides
    )
    return has_name and has_main


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
@register_lint_rule
class ModuleLevelFactoryRule(LintRule):
    name = "registry-factory-module-level"
    severity = ERROR
    family = "registry"
    description = (
        "registered factories must be module-level defs/classes; lambdas "
        "and closures have no importable identity and break pickling and "
        "spawn re-import"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not any(
                    _is_register_decorator(module, dec) for dec in node.decorator_list
                ):
                    continue
                nested_in = self._enclosing_function(module, node)
                if nested_in is not None:
                    yield self.finding(
                        module,
                        node,
                        f"registered factory {node.name!r} is defined inside "
                        f"{nested_in!r}; factories must be module-level so "
                        "they pickle by reference and survive spawn "
                        "re-import",
                    )
            elif isinstance(node, ast.Call):
                # register_x("name")(lambda ...): the applied-call form.
                if register_family(module, node.func) is None:
                    continue
                for arg in node.args:
                    if isinstance(arg, ast.Lambda):
                        yield self.finding(
                            module,
                            arg,
                            "lambda registered as a factory; use a "
                            "module-level def so the factory has an "
                            "importable identity",
                        )

    @staticmethod
    def _enclosing_function(
        module: ModuleInfo, node: ast.AST
    ) -> Optional[str]:
        for parent, _child in module.ancestors(node):
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return getattr(parent, "name", "<lambda>")
        return None


#: Field annotations accepted inside a registered spec dataclass.
_PICKLABLE_ATOMS = frozenset(
    {"str", "int", "float", "bool", "bytes", "None", "NoneType"}
)
_PICKLABLE_CONTAINERS = frozenset(
    {
        "Tuple", "tuple", "FrozenSet", "frozenset", "Optional", "Union",
        "Sequence", "Literal",
    }
)
_SPEC_SUFFIXES = ("Spec", "Config")


def _annotation_ok(module: ModuleInfo, node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        # String annotations and the `None` in Optional-style unions.
        if node.value is None or isinstance(node.value, (str, int, bool)):
            return True
        return node.value is Ellipsis
    if isinstance(node, (ast.Name, ast.Attribute)):
        qual = module.qualname(node) or ""
        last = qual.rpartition(".")[2]
        if last in _PICKLABLE_ATOMS or last in _PICKLABLE_CONTAINERS:
            return True
        return last.endswith(_SPEC_SUFFIXES)
    if isinstance(node, ast.Subscript):
        base_ok = False
        if isinstance(node.value, (ast.Name, ast.Attribute)):
            base = (module.qualname(node.value) or "").rpartition(".")[2]
            base_ok = base in _PICKLABLE_CONTAINERS
        if not base_ok:
            return False
        inner = node.slice
        # py38's ast.Index disappeared in 3.9; this repo targets >=3.9.
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return all(_annotation_ok(module, element) for element in elements)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # PEP 604 unions: str | None.
        return _annotation_ok(module, node.left) and _annotation_ok(
            module, node.right
        )
    return False


@register_lint_rule
class FrozenSpecRule(LintRule):
    name = "registry-frozen-spec"
    severity = ERROR
    family = "registry"
    description = (
        "registered config/spec dataclasses must be frozen=True with "
        "picklable value-typed fields so specs ship to sweep workers "
        "unchanged"
    )

    def _registered_config_names(self, module: ModuleInfo) -> Set[str]:
        """Classes handed to a registry via ``config=`` / ``spec=``."""
        names: Set[str] = set()
        for node in ast.walk(module.tree):
            if register_family(module, node) is None:
                continue
            assert isinstance(node, ast.Call)
            for keyword in node.keywords:
                if keyword.arg in ("config", "spec"):
                    if isinstance(keyword.value, ast.Name):
                        names.add(keyword.value.id)
                    elif isinstance(keyword.value, ast.Attribute):
                        names.add(keyword.value.attr)
        return names

    @staticmethod
    def _dataclass_decorator(
        module: ModuleInfo, cls: ast.ClassDef
    ) -> Tuple[Optional[ast.AST], bool]:
        """(decorator node or None, frozen=True present)."""
        for decorator in cls.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            qual = module.qualname(target) or ""
            if qual.rpartition(".")[2] != "dataclass":
                continue
            frozen = isinstance(decorator, ast.Call) and has_true_keyword(
                decorator, "frozen"
            )
            return decorator, frozen
        return None, False

    def _is_spec_class(
        self, module: ModuleInfo, cls: ast.ClassDef, registered: Set[str]
    ) -> bool:
        if cls.name in registered:
            return True
        for base in cls.bases:
            qual = module.qualname(base) or ""
            if qual.rpartition(".")[2].endswith(_SPEC_SUFFIXES):
                return True
        return False

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        registered = self._registered_config_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_spec_class(module, node, registered):
                continue
            decorator, frozen = self._dataclass_decorator(module, node)
            if decorator is None:
                # Registered non-dataclass configs are legal only if some
                # ancestor supplies the dataclass machinery; subclasses of
                # frozen bases without new fields need no decorator.
                if node.name in registered and not node.bases:
                    yield self.finding(
                        module,
                        node,
                        f"registered config {node.name!r} is not a "
                        "dataclass; specs must be frozen dataclasses",
                    )
                continue
            if not frozen:
                yield self.finding(
                    module,
                    node,
                    f"spec dataclass {node.name!r} must be "
                    "@dataclass(frozen=True): specs are value objects "
                    "shared across sweep workers",
                )
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                annotation = stmt.annotation
                # ClassVar carries class metadata, not instance state.
                if (
                    isinstance(annotation, ast.Subscript)
                    and (module.qualname(annotation.value) or "").endswith("ClassVar")
                ):
                    continue
                if not _annotation_ok(module, annotation):
                    rendered = ast.dump(annotation)
                    try:
                        rendered = ast.unparse(annotation)
                    except AttributeError:  # pragma: no cover - py<3.9
                        pass
                    yield self.finding(
                        module,
                        stmt,
                        f"spec field {stmt.target.id!r} of {node.name!r} "
                        f"has non-picklable/mutable annotation "
                        f"{rendered!r}; use scalars, tuples, frozensets "
                        "or nested specs",
                    )


@register_lint_rule
class DuplicateRegistrationRule(LintRule):
    name = "registry-duplicate-name"
    severity = ERROR
    family = "registry"
    description = (
        "a registered name must be unique within its registry family "
        "(duplicates raise at import, in import-order-dependent places)"
    )

    def check_project(self, project: ProjectInfo) -> Iterable[Finding]:
        sites: Dict[Tuple[str, str], List[Tuple[ModuleInfo, ast.Call]]] = {}
        for module in project.modules:
            for node in ast.walk(module.tree):
                family = register_family(module, node)
                if family is None:
                    continue
                assert isinstance(node, ast.Call)
                name = literal_name(node)
                if name is None or has_true_keyword(node, "replace_existing"):
                    continue
                sites.setdefault((family, name.casefold()), []).append(
                    (module, node)
                )
        for (family, name), occurrences in sorted(sites.items()):
            if len(occurrences) < 2:
                continue
            occurrences.sort(key=lambda pair: (pair[0].relpath, pair[1].lineno))
            first_module, first_node = occurrences[0]
            for module, node in occurrences[1:]:
                yield self.finding(
                    module,
                    node,
                    f"name {name!r} registered twice in family "
                    f"{family!r} (first at "
                    f"{first_module.relpath}:{first_node.lineno})",
                )


@register_lint_rule
class ImportSafeRegistrationRule(LintRule):
    name = "registry-import-safe"
    severity = ERROR
    family = "registry"
    description = (
        "registrations must execute at module import so the spawn-mode "
        "worker bootstrap (plugin_modules re-import) reproduces them"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            family = register_family(module, node)
            if family is None:
                continue
            assert isinstance(node, ast.Call)
            if literal_name(node) is None:
                # Dynamic names are the registry *implementation* (the
                # public register_x wrappers) or test scaffolding; the
                # static uniqueness/placement contract applies to concrete
                # registrations.
                continue
            where = self._non_import_context(module, node)
            if where is not None:
                yield self.finding(
                    module,
                    node,
                    f"registration of a {family} name happens {where}; it "
                    "will not re-run when a spawned worker re-imports the "
                    "module, so the plugin silently vanishes",
                )

    @staticmethod
    def _non_import_context(module: ModuleInfo, node: ast.AST) -> Optional[str]:
        for parent, child in module.ancestors(node):
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorator on a def executes at import time even though
                # its AST parent is the def itself; keep climbing.
                in_decorators = any(
                    child is d or any(child is sub for sub in ast.walk(d))
                    for d in parent.decorator_list
                )
                if in_decorators:
                    continue
                return f"inside function {parent.name!r}"
            if isinstance(parent, ast.Lambda):
                return "inside a lambda"
            if _dunder_main_guard(parent):
                return 'under if __name__ == "__main__"'
        return None
