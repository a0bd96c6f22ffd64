"""Package exports that resolve on first access (PEP 562).

Every ``repro`` package ``__init__`` declares its public names in one
table keyed by the module that defines them, and installs the module
``__getattr__``, ``__dir__`` and ``__all__`` that :func:`lazy_exports`
returns::

    from repro import _lazy

    __getattr__, __dir__, __all__ = _lazy.lazy_exports(__name__, {
        "repro.core.types": ("ActionSpace", "Dataset"),
        "repro.core.columns": ("DatasetColumns",),
    })

Importing the package then runs none of its submodules.  The first
read of ``repro.core.Dataset`` — whether by attribute access,
``from repro.core import Dataset`` or ``from repro.core import *`` —
imports :mod:`repro.core.types` and caches the object in the package
namespace, so later reads are plain attribute lookups.  A name listed
under the package's own submodule of that name (``"repro.core":
("core",)`` in :mod:`repro`) resolves to the submodule itself.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list], list]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each defining module to the names the package
    re-exports from it; ``__all__`` lists those names in table order.
    ``__getattr__`` imports a name's module on the first read and
    raises :class:`AttributeError` for any name the table does not
    list; ``__dir__`` lists the exports alongside whatever the package
    namespace already holds.
    """
    exports = [name for names in table.values() for name in names]
    origin = {
        name: module for module, names in table.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module_name = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(module_name)
        value = (
            module if module_name == f"{package}.{name}"
            else getattr(module, name)
        )
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, exports
