"""Lazy package re-exports (PEP 562): a process imports what it runs."""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module-level ``(__getattr__, __dir__)`` re-exporting ``exports``.

    ``exports`` maps each public name of ``package`` to the module that
    defines it.  That module is imported at the first use of one of its
    names and the name stored on the package, so ``import
    package.one_submodule`` does not pay for the others while ``from
    package import name``, ``__all__`` and ``dir()`` keep working.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
