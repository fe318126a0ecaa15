"""Fault injection into a ride's index entry.

Entries are immutable arrays, so a test cannot corrupt one in place.
``corrupt_entry`` hands the test the entry as the object reference of
``tests/reference_write_path.py`` — a dict of ``ReachableInfo`` with a
``set`` of supports each — to corrupt with the same statements it always
used (``entry.reachable.pop(c)``, ``del entry.reachable[c]``,
``info.supports.clear()``), and installs the corrupted arrays as the ride's
entry when the block ends.  Nothing else about the engine is touched: the
cluster index and the flat index still hold what the sound entry put there,
which is the inconsistency the tests then expect to be found.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, MutableMapping

from repro.index import RideIndexEntry
from tests.reference_write_path import RefRideIndexEntry, as_reference, from_reference


@contextlib.contextmanager
def corrupt_entry(
    entries: MutableMapping[int, RideIndexEntry], ride_id: int
) -> Iterator[RefRideIndexEntry]:
    """``with corrupt_entry(engine.ride_entries, ride_id) as entry: ...`` —
    corrupt ``entry`` in the block; it replaces ``entries[ride_id]`` after."""
    entry = as_reference(entries[ride_id])
    yield entry
    entries[ride_id] = from_reference(entry)
