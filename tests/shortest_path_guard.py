"""Make every shortest-path routine raise, to prove an operation runs none.

The paper's search (O1) computes no shortest path.  Patching the routines
in ``repro.roadnet.shortest_path`` alone proves nothing: the write path
binds them by name at import time (``repro.core.engine.astar``,
``repro.core.booking.dijkstra_path``), and a booking splice reads most of
its paths from ``PathTrees.path``, a method.  ``forbid_shortest_paths``
replaces the routines where they are defined, every binding of them in a
loaded ``repro`` module, and ``PathTrees.path``.
"""

from __future__ import annotations

import sys

import repro.core.booking as booking
import repro.core.engine as engine
import repro.roadnet.shortest_path as shortest_path

#: Every routine that computes shortest paths, by name in
#: ``repro.roadnet.shortest_path``.
ROUTINES = ("astar", "dijkstra_path", "many_source_distances", "shortest_path_trees")


def _forbidden(*args, **kwargs):
    raise AssertionError("a shortest-path routine ran")


def forbid_shortest_paths(monkeypatch) -> None:
    """Patch (through ``monkeypatch``, so the test undoes it) every way a
    ``repro`` module can reach a shortest-path computation."""
    routines = {id(getattr(shortest_path, name)) for name in ROUTINES}
    # The write path's own bindings, by name: renaming one fails here.
    monkeypatch.setattr(engine, "astar", _forbidden)
    monkeypatch.setattr(booking, "dijkstra_path", _forbidden)
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if id(value) in routines:
                    monkeypatch.setattr(module, attr, _forbidden)
    monkeypatch.setattr(shortest_path.PathTrees, "path", _forbidden)
