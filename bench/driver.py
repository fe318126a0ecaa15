"""The benchmark's own load driver.

Glossary (also in ``bench/README.md``): a **request** is one rider's whole
visit — ``looks`` extra searches, one decision search, then book-best or
create-on-miss.  An **op** is one client call that returned: ``search``,
``book``, ``create`` or ``track_all``.  Throughput is ops per wall-second.

Two disciplines:

* **closed loop** (:func:`run_closed`): each of N clients issues its next
  request when the previous one completed — callers that wait for a reply;
* **open loop** (:func:`run_open`): requests arrive on a pre-drawn schedule
  whether or not the system keeps up; every op is timed **from when it was
  due**, so a stall is charged to the requests queued behind it, and the
  lateness of the generator itself is reported.

The driver calls only ``create / search / book / track_all`` on the target.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.request import RideRequest
from repro.exceptions import ShardOverloadError, XARError

SEARCH, BOOK, CREATE, TRACK = "search", "book", "create", "track"
OP_KINDS = (SEARCH, BOOK, CREATE, TRACK)

#: Simulated seconds between tracking ticks.
TRACK_EVERY_S = 300.0
#: Stale matches a rider falls through before giving up and creating.
MAX_BOOK_ATTEMPTS = 3


@dataclass
class Op:
    kind: str
    #: When the op was due (open loop) or issued (closed loop).
    due: float
    end: float
    ok: bool
    #: Position of the request in its stream and of the op within the
    #: request: together with ``kind`` they name *the same work* in every
    #: round, which is what the best-of-rounds latency is taken over.
    position: int
    ordinal: int
    #: True for the search issued straight after a mutation by this client.
    after_write: bool = False


@dataclass
class RequestOutcome:
    index: int
    #: "booked" | "created" | "unserved"
    outcome: str
    n_matches: int
    #: Layout-independent fingerprint of the decision search's answer.
    fingerprint: str


@dataclass
class RunLog:
    """Everything one measured phase produced."""

    ops: List[Op] = field(default_factory=list)
    outcomes: List[RequestOutcome] = field(default_factory=list)
    #: (start, end) of every timed stretch; what lies between two stretches
    #: (an audit, a fresh engine for the next replay round) is not measured.
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Open loop only: seconds each request started after it was due.
    lags: List[float] = field(default_factory=list)
    #: Bookings that raised a domain error on a stale match (the rider
    #: fell through to the next match; not a failed op).
    stale_books: int = 0

    def merge(self, other: "RunLog") -> None:
        self.ops.extend(other.ops)
        self.outcomes.extend(other.outcomes)
        self.windows.extend(other.windows)
        self.lags.extend(other.lags)
        self.stale_books += other.stale_books

    @property
    def duration(self) -> float:
        return sum(end - start for start, end in self.windows)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


def match_fingerprint(matches: Sequence[Any]) -> str:
    """Digest of a search answer that ignores ride ids (ride-id lanes differ
    between a single engine and a sharded fleet; everything a rider sees —
    where to walk, when, the detour — must not)."""
    rows = sorted(
        (
            m.pickup_cluster, m.pickup_landmark, m.walk_source_m.hex(),
            m.dropoff_cluster, m.dropoff_landmark,
            m.walk_destination_m.hex(), m.eta_pickup_s.hex(),
            m.eta_dropoff_s.hex(), float(m.detour_estimate_m).hex(),
        )
        for m in matches
    )
    return hashlib.sha256(repr(rows).encode("ascii")).hexdigest()[:16]


def outcomes_digest(outcomes: Sequence[RequestOutcome]) -> str:
    hasher = hashlib.sha256()
    for o in sorted(outcomes, key=lambda o: o.index):
        hasher.update(
            f"{o.index}:{o.outcome}:{o.n_matches}:{o.fingerprint}\n".encode()
        )
    return hasher.hexdigest()


class Rider:
    """Serves requests against one target and logs every op."""

    def __init__(self, target: Any, looks: int, k: Optional[int],
                 log: RunLog, *, decide: bool = True,
                 fingerprints: bool = True, recorder: Any = None):
        self.target = target
        self.looks = looks
        self.k = k
        self.log = log
        #: False = read-only workload: the decision search is the last op.
        self.decide = decide
        #: False skips the per-answer digest (read-only passes after the
        #: first, where the digest is already pinned and only time matters).
        self.fingerprints = fingerprints
        self.recorder = recorder
        self._wrote = False
        self._ordinal = 0

    def _timed(self, kind: str, position: int, due: float,
               fn: Callable[[], Any]) -> Tuple[str, Any]:
        """Run one op and log it; returns ``(status, result)`` with status
        ``"ok"``, ``"stale"`` (a booking refused on a stale match: the op
        completed, the rider falls through) or ``"failed"`` (raised or shed)."""
        after_write = self._wrote and kind == SEARCH
        status, result = "ok", None
        try:
            result = fn()
        except ShardOverloadError:
            status = "failed"
        except XARError:
            status = "stale" if kind == BOOK else "failed"
        except Exception:  # noqa: BLE001 - a crashed op is a failed op
            status = "failed"
        self.log.ops.append(
            Op(kind, due, time.perf_counter(), status != "failed", position,
               self._ordinal, after_write))
        self._ordinal += 1
        if status == "stale":
            self.log.stale_books += 1
        self._wrote = kind != SEARCH
        return status, result

    def track(self, now_s: float, position: int) -> None:
        self._ordinal = -1  # the tick that precedes request ``position``
        self._timed(TRACK, position, time.perf_counter(),
                    lambda: self.target.track_all(now_s))

    def serve(self, position: int, request: RideRequest,
              due: Optional[float] = None, trace_id: int = 0) -> None:
        """One request; ``due`` (open loop) backdates the first op."""
        self._ordinal = 0
        if self.recorder is None:
            self._serve(position, request, due)
        else:
            with self.recorder.request(trace_id):
                self._serve(position, request, due)

    def _serve(self, position: int, request: RideRequest,
               due: Optional[float]) -> None:
        target, k = self.target, self.k
        clock = time.perf_counter
        next_due = clock() if due is None else due
        for _look in range(self.looks):
            self._timed(SEARCH, position, next_due,
                        lambda: target.search(request, k))
            next_due = clock()
        status, matches = self._timed(SEARCH, position, next_due,
                                      lambda: target.search(request, k))
        matches = matches or []
        if status != "ok":
            fingerprint = "failed"
        elif self.fingerprints:
            fingerprint = match_fingerprint(matches)
        else:
            fingerprint = ""
        if not self.decide:
            self.log.outcomes.append(
                RequestOutcome(position, "searched", len(matches), fingerprint))
            return
        outcome = "unserved"
        for match in matches[:MAX_BOOK_ATTEMPTS]:
            status, _record = self._timed(
                BOOK, position, clock(), lambda: target.book(request, match))
            if status == "stale":
                continue  # fall through to the next match
            if status == "ok":
                outcome = "booked"
            break
        else:
            # No match, or every attempted match went stale: create-on-miss.
            status, _ride = self._timed(
                CREATE, position, clock(),
                lambda: target.create(request.source, request.destination,
                                      request.window_start_s))
            if status == "ok":
                outcome = "created"
        self.log.outcomes.append(
            RequestOutcome(position, outcome, len(matches), fingerprint))


class _Ticker:
    """Tracking ticks on the simulated clock, deduplicated across clients."""

    def __init__(self):
        self._last: Optional[float] = None
        self._lock = threading.Lock()

    def due(self, now_s: float) -> bool:
        with self._lock:
            if self._last is not None and now_s - self._last < TRACK_EVERY_S:
                return False
            self._last = now_s
            return True


def fill_supply(target: Any, supply: Sequence[RideRequest],
                host: Any = None) -> None:
    """Standing rides: one ``create`` per supply request (set-up, untimed
    per op but inside ``setup_s``)."""
    for request in supply:
        if host is not None:
            host.tick()
        target.create(request.source, request.destination,
                      request.window_start_s)


def run_closed(
    target: Any,
    requests: Sequence[RideRequest],
    *,
    clients: int,
    looks: int,
    k: Optional[int],
    decide: bool = True,
    fingerprints: bool = True,
    track: bool = True,
    recorder: Any = None,
    first_index: int = 0,
    host: Any = None,
) -> RunLog:
    """Closed loop over the whole stream: ``clients`` riders share it in
    time order, each taking the next request when its previous one
    completed.  ``first_index`` offsets the ids spans are tagged with, so
    that rounds over the same stream stay apart in a trace.  ``host`` (a
    ``HostSpeed``; single-client runs only) is sampled between requests,
    outside every op's timing."""
    log = RunLog()
    ticker = _Ticker()
    cursor = {"next": 0}
    cursor_lock = threading.Lock()

    def drive(rider: Rider) -> None:
        while True:
            with cursor_lock:
                position = cursor["next"]
                if position >= len(requests):
                    return
                cursor["next"] = position + 1
            request = requests[position]
            if host is not None:
                host.tick()
            if track and ticker.due(request.window_start_s):
                rider.track(request.window_start_s, position)
            rider.serve(position, request, trace_id=first_index + position)

    riders = [Rider(target, looks, k, RunLog(), decide=decide,
                    fingerprints=fingerprints, recorder=recorder)
              for _c in range(clients)]
    started = time.perf_counter()
    if clients == 1:
        drive(riders[0])
    else:
        threads = [threading.Thread(target=drive, args=(rider,),
                                    name=f"bench-client-{i}")
                   for i, rider in enumerate(riders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    log.windows.append((started, time.perf_counter()))
    for rider in riders:
        log.merge(rider.log)
    return log


def run_open(
    target: Any,
    requests: Sequence[RideRequest],
    arrivals: Sequence[float],
    *,
    senders: int,
    looks: int,
    k: Optional[int],
    recorder: Any = None,
    first_index: int = 0,
    sleep: Callable[[float], None] = time.sleep,
) -> RunLog:
    """Open loop: request *i* is due at ``start + arrivals[i]``.  ``senders``
    connections take requests in schedule order; a sender that is free early
    sleeps until the due time, one that is late starts at once and the
    lateness is charged to the request's first op (and logged as lag)."""
    assert len(arrivals) == len(requests)
    log = RunLog()
    ticker = _Ticker()
    cursor = {"next": 0}
    cursor_lock = threading.Lock()
    start = [0.0]

    def drive(rider: Rider) -> None:
        clock = time.perf_counter
        while True:
            with cursor_lock:
                position = cursor["next"]
                if position >= len(requests):
                    return
                cursor["next"] = position + 1
            request = requests[position]
            due = start[0] + arrivals[position]
            while True:
                wait = due - clock()
                if wait <= 0:
                    break
                sleep(min(wait, 0.05))
            rider.log.lags.append(max(0.0, clock() - due))
            if ticker.due(request.window_start_s):
                rider.track(request.window_start_s, position)
            rider.serve(position, request, due=due,
                        trace_id=first_index + position)

    riders = [Rider(target, looks, k, RunLog(), recorder=recorder)
              for _s in range(senders)]
    start[0] = time.perf_counter()
    threads = [threading.Thread(target=drive, args=(rider,),
                                name=f"bench-sender-{i}")
               for i, rider in enumerate(riders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    log.windows.append((start[0], time.perf_counter()))
    for rider in riders:
        log.merge(rider.log)
    return log
