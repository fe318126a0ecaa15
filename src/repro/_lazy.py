"""Package re-exports resolved on first use (PEP 562).

A package that re-exports its submodules' names eagerly makes every
``import`` of any of its submodules pay for all of them: a shard process
importing ``repro.service.proc.worker`` would load the gateway, the HTTP
client, the supervisor, the load generator, the trip planner and the
T-Share baseline before its first line runs.  :func:`lazy_exports` gives a
package's ``__init__`` a name → submodule table instead; a name is imported
the first time it is read, then cached on the package like a plain import.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule, relative to ``package`` (``".config"``),
    to the names the package re-exports from it.  ``__all__`` lists them in
    table order, so ``from package import *`` resolves each through the
    returned ``__getattr__``; an unknown name raises ``AttributeError``.
    """
    source = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return list(source), __getattr__, __dir__
