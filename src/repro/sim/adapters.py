"""Uniform engine adapters for head-to-head simulation.

XAR and T-Share expose slightly different vocabularies (rides vs taxis,
walk-based vs detour-based match ranking).  The simulator drives both
through :class:`EngineAdapter`, which also makes the booking policy of each
system explicit:

* XAR books the match with the least total walking (Section X-A2);
* T-Share books the match with the least detour (it has no walking concept —
  taxis pick up at the door).

Adapters compose: :class:`repro.sim.faults.FaultInjectingAdapter` injects
fault policies around any adapter, and
:class:`repro.durability.DurableAdapter` logs every mutation to a WAL before
it runs.  Every decorator subclasses
:class:`DelegatingAdapter`: the wrapped adapter is ``.inner``, each protocol
member forwards to it unless the decorator overrides it, and the raw engine
stays reachable through the ``.engine`` attribute chain
(:func:`raw_engine`; the simulator and auditor rely on this).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Protocol,
                    runtime_checkable)

from ..core import XAREngine
from ..core.request import RideRequest
from ..geo import GeoPoint

if TYPE_CHECKING:
    from ..baselines import TShareEngine


@runtime_checkable
class EngineAdapter(Protocol):
    """What the simulator needs from a ride-sharing engine.

    Runtime-checkable: ``isinstance(adapter, EngineAdapter)`` verifies the
    whole surface is present, which is what the conformance tests in
    ``tests/sim/test_adapter_conformance.py`` assert for every adapter and
    decorator — interface drift (an introspection method added to one
    adapter but not the others) fails there instead of deep inside a
    simulator run.
    """

    name: str

    def create(
        self,
        source: GeoPoint,
        destination: GeoPoint,
        depart_s: float,
        seats: Optional[int] = None,
        detour_limit_m: Optional[float] = None,
        shift_end_s: Optional[float] = None,
    ) -> Any:
        """Offer a new ride/taxi starting at ``depart_s``.

        ``seats`` and ``detour_limit_m`` default to the engine's configured
        values when None; engines without a per-ride detour budget (T-Share)
        accept and ignore ``detour_limit_m``.  ``shift_end_s`` is the
        driver's shift end: past it the ride retires from matching and
        drains its booked passengers (engines without shift semantics
        accept and ignore it).
        """
        ...

    def search(self, request: RideRequest, k: Optional[int] = None) -> List[Any]:
        """Feasible matches, best first."""
        ...

    def book(self, request: RideRequest, match: Any) -> Any:
        """Confirm a match."""
        ...

    def track_all(self, now_s: float) -> int:
        """Advance all rides to simulated time ``now_s``."""
        ...

    def cancel(self, ride: Any) -> None:
        """Withdraw a previously created ride (driver cancellation)."""
        ...

    def cancel_booking(self, request_id: int, ride_id: int) -> Any:
        """Cancel one passenger's booking: un-splice their via-points,
        release the seat, restore the detour budget exactly (engines
        without bookings raise)."""
        ...

    def active_rides(self) -> List[Any]:
        """Handles of rides currently in the system (for cancellation)."""
        ...

    def rollback_count(self) -> int:
        """Bookings that failed mid-splice and were rolled back (0 for
        engines without transactional booking)."""
        ...

    def index_stats(self) -> Dict[str, int]:
        """Cheap counters describing the engine's in-memory index."""
        ...


class XARAdapter:
    """Adapter over :class:`~repro.core.engine.XAREngine`."""

    name = "XAR"

    def __init__(self, engine: XAREngine):
        self.engine = engine

    def create(
        self,
        source: GeoPoint,
        destination: GeoPoint,
        depart_s: float,
        seats: Optional[int] = None,
        detour_limit_m: Optional[float] = None,
        shift_end_s: Optional[float] = None,
    ):
        return self.engine.create_ride(
            source,
            destination,
            departure_s=depart_s,
            seats=seats,
            detour_limit_m=detour_limit_m,
            shift_end_s=shift_end_s,
        )

    def search(self, request: RideRequest, k: Optional[int] = None):
        return self.engine.search(request, k)

    def book(self, request: RideRequest, match):
        return self.engine.book(request, match)

    def track_all(self, now_s: float) -> int:
        return self.engine.track_all(now_s)

    def cancel(self, ride) -> None:
        self.engine.remove_ride(ride.ride_id)

    def cancel_booking(self, request_id: int, ride_id: int):
        return self.engine.cancel_booking(request_id, ride_id)

    def active_rides(self):
        return list(self.engine.rides.values())

    def rollback_count(self) -> int:
        """Bookings that failed mid-splice and were rolled back."""
        return len(self.engine.rollbacks)

    def index_stats(self) -> Dict[str, int]:
        return self.engine.index_stats()


class DelegatingAdapter:
    """Base of every adapter decorator: forwards the whole
    :class:`EngineAdapter` surface to ``.inner``, so a subclass keeps only
    the methods it changes and a member added to the protocol is added here
    once.  Subclasses set ``.inner`` and ``.name``."""

    inner: Any
    name: str

    @property
    def engine(self) -> Any:
        return self.inner.engine

    def create(
        self,
        source: GeoPoint,
        destination: GeoPoint,
        depart_s: float,
        seats: Optional[int] = None,
        detour_limit_m: Optional[float] = None,
        shift_end_s: Optional[float] = None,
    ) -> Any:
        return self.inner.create(
            source, destination, depart_s,
            seats=seats, detour_limit_m=detour_limit_m,
            shift_end_s=shift_end_s,
        )

    def search(self, request: RideRequest, k: Optional[int] = None) -> List[Any]:
        return self.inner.search(request, k)

    def book(self, request: RideRequest, match: Any) -> Any:
        return self.inner.book(request, match)

    def track_all(self, now_s: float) -> int:
        return self.inner.track_all(now_s)

    def cancel(self, ride: Any) -> None:
        self.inner.cancel(ride)

    def cancel_booking(self, request_id: int, ride_id: int) -> Any:
        return self.inner.cancel_booking(request_id, ride_id)

    def active_rides(self) -> List[Any]:
        return self.inner.active_rides()

    def rollback_count(self) -> int:
        return self.inner.rollback_count()

    def index_stats(self) -> Dict[str, int]:
        return self.inner.index_stats()


def raw_engine(adapter: Any) -> Optional[Any]:
    """Unwrap an adapter stack down to the XAREngine, if there is one."""
    seen = set()
    node: Any = adapter
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if hasattr(node, "cluster_index") and hasattr(node, "rides"):
            return node
        node = getattr(node, "engine", None) or getattr(node, "inner", None)
    return None


class TShareAdapter:
    """Adapter over :class:`~repro.baselines.tshare.engine.TShareEngine`."""

    name = "T-Share"

    def __init__(self, engine: TShareEngine):
        self.engine = engine

    def create(
        self,
        source: GeoPoint,
        destination: GeoPoint,
        depart_s: float,
        seats: Optional[int] = None,
        detour_limit_m: Optional[float] = None,
        shift_end_s: Optional[float] = None,
    ):
        # T-Share has a global detour policy, not a per-taxi budget, and no
        # shift model; both limits are accepted for protocol parity and
        # ignored.
        return self.engine.create_taxi(
            source, destination, departure_s=depart_s, seats=seats
        )

    def search(self, request: RideRequest, k: Optional[int] = None):
        return self.engine.search(request, k)

    def book(self, request: RideRequest, match):
        return self.engine.book(request, match)

    def track_all(self, now_s: float) -> int:
        return self.engine.track_all(now_s)

    def cancel(self, taxi) -> None:
        self.engine.remove_taxi(taxi.ride_id)

    def cancel_booking(self, request_id: int, ride_id: int):
        raise NotImplementedError(
            "T-Share bookings are not reversible (no via-point un-splice)"
        )

    def active_rides(self):
        return list(self.engine.taxis.values())

    def rollback_count(self) -> int:
        """T-Share books non-transactionally; nothing is ever rolled back."""
        return 0

    def index_stats(self) -> Dict[str, int]:
        return {
            "rides": len(self.engine.taxis),
            "cells": self.engine.cells.cell_count(),
            "cell_entries": self.engine.cells.total_entries(),
        }
