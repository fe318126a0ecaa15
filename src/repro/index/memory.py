"""Deep in-memory size estimation (the Classmexer substitute).

The paper instruments its Java process with the Classmexer agent to report
the size of the in-memory index (Figure 3c).  CPython has no equivalent
agent, so we recursively sum ``sys.getsizeof`` over the object graph with a
visited set, handling containers, dataclass-style objects (``__dict__`` /
``__slots__``) and numpy arrays (whose buffer ``sys.getsizeof`` already
includes via ``nbytes``).
"""

from __future__ import annotations

import sys
from typing import Any, Iterable, Set

try:  # numpy is a hard dependency of the package, but keep this tolerant
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def deep_size_bytes(obj: Any, _seen: Set[int] = None) -> int:
    """Recursive deep size of ``obj`` in bytes.

    Shared sub-objects are counted once.  Module/class/function objects are
    skipped — they belong to the code, not the data structure.
    """
    seen: Set[int] = set() if _seen is None else _seen
    return _deep_size(obj, seen)


def _deep_size(obj: Any, seen: Set[int]) -> int:
    oid = id(obj)
    if oid in seen:
        return 0
    seen.add(oid)

    if isinstance(obj, (type, type(deep_size_bytes), type(sys))):
        return 0

    size = sys.getsizeof(obj, 0)

    if _np is not None and isinstance(obj, _np.ndarray):
        # getsizeof already counts the data buffer when the array owns it
        # (and only the header for a view, whose buffer its base holds).
        return size

    if isinstance(obj, (str, bytes, bytearray, int, float, complex, bool, type(None))):
        return size

    if isinstance(obj, dict):
        for key, value in obj.items():
            size += _deep_size(key, seen)
            size += _deep_size(value, seen)
        return size

    if isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += _deep_size(item, seen)
        return size

    # Generic object: follow instance attributes.
    obj_dict = getattr(obj, "__dict__", None)
    if obj_dict is not None:
        size += _deep_size(obj_dict, seen)
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        names: Iterable[str] = (slots,) if isinstance(slots, str) else slots
        for name in names:
            if hasattr(obj, name):
                size += _deep_size(getattr(obj, name), seen)
    return size


def megabytes(n_bytes: int) -> float:
    """Bytes → MB (binary)."""
    return n_bytes / (1024.0 * 1024.0)
