"""The one name -> factory registry behind every plug-in point.

Systems, faults, fault schedules, pushing/selection policies, routing
constraints, offload/admission policies, WAN topologies, routing policies,
workload streams and lint rules all follow the same pattern: built-ins and
third parties register a factory under a name with an ``@register_*``
decorator, and configs carry only the (picklable) name, resolved against the
registry wherever the stack is built -- including inside sweep worker
processes.  This module is the one implementation of that pattern; the
public faces live next to what they register.

Every :class:`NameRegistry` adds itself to a module-level index on
construction, which is what :func:`plugin_modules` walks to tell spawned
sweep workers which modules to re-import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

__all__ = ["Entry", "NameRegistry", "plugin_modules"]

F = TypeVar("F", bound=Callable)


@dataclass(frozen=True)
class Entry:
    """One registration: its (normalized) name, factory, optional typed
    spec class and a human description."""

    name: str
    factory: Callable
    spec_cls: Optional[type] = None
    description: str = ""


#: Every registry ever constructed, in construction order.
_INDEX: List["NameRegistry"] = []


class NameRegistry:
    """Name -> :class:`Entry` mapping with decorator registration.

    Parameters
    ----------
    kind:
        Singular human name used in error messages ("pushing policy", ...).
    plural:
        Plural used when listing registered names in error messages.
    normalize:
        Canonical form of names (``str.upper`` for the pushing policies'
        historical ``"SP-P"`` style, ``str`` for case-sensitive names,
        ``str.lower`` elsewhere).
    """

    def __init__(
        self,
        kind: str,
        *,
        plural: str,
        normalize: Callable[[str], str] = str.lower,
    ) -> None:
        self.kind = kind
        self.plural = plural
        self.normalize = normalize
        self._entries: Dict[str, Entry] = {}
        _INDEX.append(self)

    def register(
        self,
        name: str,
        *,
        spec: Optional[type] = None,
        description: str = "",
        replace_existing: bool = False,
    ) -> Callable[[F], F]:
        """Decorator registering a factory (class or callable) under ``name``."""
        key = self.normalize(name)

        def decorator(factory: F) -> F:
            if key in self._entries and not replace_existing:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            self._entries[key] = Entry(key, factory, spec, description)
            return factory

        return decorator

    def unregister(self, name: str) -> None:
        self._entries.pop(self.normalize(name), None)

    def __contains__(self, name: str) -> bool:
        return self.normalize(name) in self._entries

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def get(self, name: str) -> Entry:
        try:
            return self._entries[self.normalize(name)]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered {self.plural}: {self.names()}"
            ) from None

    def make(self, name: str, *args, **kwargs):
        """Instantiate the factory registered under ``name``."""
        return self.get(name).factory(*args, **kwargs)


def plugin_modules() -> Tuple[str, ...]:
    """Defining modules of every factory and spec class registered, sorted.

    This is the spawn-mode worker bootstrap's shopping list: a spawned (or
    forkserver) worker starts from a fresh interpreter whose registries
    hold only the built-ins, so the sweep executor re-imports these modules
    there and the plugins re-register themselves exactly as they did in
    the parent.  Forked workers inherit the registries and skip all of this.

    ``__main__`` registrations are skipped -- a script body cannot be
    re-imported by name (importing it would re-run the script); plugins
    that must survive spawn need to live in a real module.
    """
    modules = {
        getattr(obj, "__module__", None)
        for registry in _INDEX
        for entry in registry._entries.values()
        for obj in (entry.factory, entry.spec_cls)
        if obj is not None
    }
    return tuple(sorted(modules - {None, "__main__"}))
