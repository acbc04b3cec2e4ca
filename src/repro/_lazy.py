"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imports its re-exported names from their
submodules loads every submodule with the package: importing one
station would load every observer, exporter and CLI helper beside it.
:func:`lazy_exports` gives such a package a module ``__getattr__``
instead, which imports a name's defining submodule the first time the
name is read and caches the value in the package namespace, so later
reads are plain attribute hits.

Any other name raises :class:`AttributeError`, which is what lets
``from package import submodule`` fall through to the normal submodule
import.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, modules: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], List[str]]:
    """``(__getattr__, __all__)`` for ``package``.

    ``modules`` maps each defining module to the names it exports
    through the package; ``__all__`` lists those names in that order.
    """
    home: Dict[str, str] = {name: module for module, names in modules.items()
                            for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    return __getattr__, list(home)
