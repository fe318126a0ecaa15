"""The four pinned workloads.

Each one stresses a different part of the stack, so that an optimisation of
one layer shows on the workload that exercises it and shows *nothing* on a
workload that bypasses it (``WHY`` below is what BENCHMARK.json records).

Sizes are the issue's, cut to 1/8 with the simulated window (see
``inputs``) so that set-up + a ~12 s measured phase fit the driver's
per-run budget.  ``scale`` multiplies every count and the simulated window
together (the smoke tests run at a fraction of it).

Every workload is rounds of identical work (see ``metrics.op_metrics`` for
why): passes over the same queries, replays from an empty engine, or the
same stream against a freshly set-up service.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.request import RideRequest
from repro.verify.oracle import OracleEngine

from . import inputs
from .driver import (
    BOOK,
    CREATE,
    TRACK,
    RunLog,
    fill_supply,
    outcomes_digest,
    run_closed,
    run_open,
)
from .hostspeed import HostSpeed
from .metrics import best_of_rounds, metric, peak_rss_mb
from .stacks import Stack, build_stack, recover_thread_stack

WHY = {
    "engine_search": (
        "read-only search on one in-process engine: core.search and the flat "
        "index read path do all the work, router/RPC/WAL/index writes none"),
    "engine_replay": (
        "single-engine replay from empty, search then book or create, with "
        "ticks: every search follows a write, so write-path cost and dirty "
        "index views show here and nowhere on engine_search"),
    "thread_service": (
        "2-shard thread router with WAL, closed loop, 2 clients, look-to-book "
        "10: fan-out/merge, worker hand-off, GIL contention and durability "
        "carry the cost; process/HTTP layers do nothing"),
    "http_open": (
        "HTTP client to gateway to 2 process shards, open loop at a pinned "
        "Poisson rate: RPC, sockets, child processes and the gateway "
        "dominate; latency is timed from when each op was due"),
}
WORKLOADS = tuple(WHY)

#: Pinned sizes at scale 1 (the issue's divided by 8; see module docstring).
SIM_WINDOW_H = 0.75
SEARCH_SUPPLY = 1000
SEARCH_QUERIES = 2000
REPLAY_REQUESTS_PER_ROUND = 750
REPLAY_WINDOW_H = 0.375
SERVICE_SUPPLY = 500
#: Closed-loop requests per second of measured phase: what HEAD gets through
#: with two clients on the reference box, so a round lasts seconds / rounds.
SERVICE_REQUESTS_PER_S = 50
SERVICE_LOOKS = 9
#: Rounds of the service workloads (each on a freshly set-up stack, which is
#: also where ``setup_s``'s repeats come from).
SERVICE_ROUNDS = 3
#: Set-ups of the engine workloads (``setup_s`` is the median).
SETUP_REPEATS = 3
#: Fewest timed rounds a best-of-rounds latency is taken over.
MIN_ROUNDS = 3
#: Open-loop offered rate, requests/s (~half of HEAD's closed-loop capacity
#: through the gateway on the reference box).
HTTP_RATE_PER_S = 8.0
#: Searches slower than this from their due time miss the SLO.
SLO_SEARCH_MS = 50.0
CLIENTS = 2
CLIENTS_OF = {"engine_search": 1, "engine_replay": 1,
              "thread_service": CLIENTS, "http_open": CLIENTS}
#: Queries checked against the oracle's exhaustive optimum on engine_search.
BOUND_QUERIES = 3


@dataclass
class Inputs:
    supply: List[RideRequest] = field(default_factory=list)
    demand: List[RideRequest] = field(default_factory=list)
    arrivals: List[float] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    sizes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Phase:
    """A measured phase: rounds of identical work and what came with them."""

    #: One RunLog per timed round (untraced rounds only).
    rounds: List[RunLog] = field(default_factory=list)
    #: Rounds that ran with span wrappers installed (trace mode only).
    traced_rounds: List[RunLog] = field(default_factory=list)
    setup_times: List[float] = field(default_factory=list)
    #: Calibration of the host during the rounds / around the set-ups.
    host: HostSpeed = field(default_factory=HostSpeed)
    setup_host: HostSpeed = field(default_factory=HostSpeed)
    digest: str = ""
    checks: List[Check] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)


def _n(count: float, scale: float) -> int:
    return max(1, int(round(count * scale)))


def make_inputs(workload: str, city, seed: int, seconds: float,
                scale: float) -> Inputs:
    """Every input of one run, generated before any timing starts."""
    out = Inputs()
    window_h = SIM_WINDOW_H * scale
    if workload == "engine_search":
        out.supply = inputs.make_stream(
            city, seed, "supply", _n(SEARCH_SUPPLY, scale), window_h)
        out.demand = inputs.make_stream(
            city, seed, "demand", _n(SEARCH_QUERIES, scale), window_h)
    elif workload == "engine_replay":
        out.demand = inputs.make_stream(
            city, seed, "demand", _n(REPLAY_REQUESTS_PER_ROUND, scale),
            REPLAY_WINDOW_H * scale)
    elif workload == "thread_service":
        out.supply = inputs.make_stream(
            city, seed, "supply", _n(SERVICE_SUPPLY, scale), window_h)
        out.demand = inputs.make_stream(
            city, seed, "demand",
            _n(SERVICE_REQUESTS_PER_S * seconds / SERVICE_ROUNDS, scale),
            window_h)
    elif workload == "http_open":
        out.supply = inputs.make_stream(
            city, seed, "supply", _n(SERVICE_SUPPLY, scale), window_h)
        out.arrivals = inputs.poisson_arrivals(
            seed, HTTP_RATE_PER_S, seconds / SERVICE_ROUNDS)
        out.demand = inputs.make_stream(
            city, seed, "demand", len(out.arrivals), window_h)
        out.digests["arrivals"] = inputs.floats_digest(out.arrivals)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if out.supply:
        out.digests["supply"] = inputs.stream_digest(out.supply)
    out.digests["demand"] = inputs.stream_digest(out.demand)
    out.sizes = {
        "supply": len(out.supply), "demand_per_round": len(out.demand),
        "sim_window_h": window_h, "top_k": inputs.TOP_K,
    }
    return out


# ----------------------------------------------------------------------
# Set-up (region build + supply fill + fleet spawn), always timed
# ----------------------------------------------------------------------
_RUNG = {"engine_search": "engine", "engine_replay": "engine",
         "thread_service": "thread2", "http_open": "http"}


def timed_setup(workload: str, data: Inputs, seed: int, phase: Phase) -> Stack:
    # The host is calibrated only where one thread does all the work.
    host = phase.setup_host if CLIENTS_OF[workload] == 1 else None
    if host is not None:
        host.sample()
    started = time.perf_counter()
    _city, region = inputs.build_world()
    stack = build_stack(_RUNG[workload], region, seed=seed)
    try:
        fill_supply(stack.target, data.supply, host)
    except BaseException:
        stack.close()
        raise
    phase.setup_times.append(time.perf_counter() - started)
    if host is not None:
        host.sample()
    if stack.spawn_s:
        phase.extra.setdefault("spawn_s", []).append(stack.spawn_s)
    return stack


def _spans(recorder: Any, traced: bool):
    """Context manager: span wrappers installed for the body of a traced
    round only (yields the recorder) — the untraced rounds of a trace run
    execute the unwrapped program (yields None)."""
    return recorder.installed() if traced else contextlib.nullcontext()


def _note_files(stack: Stack, data: Inputs, log: RunLog, phase: Phase) -> None:
    """WAL / checkpoint / index sizes of a traced round's stack."""
    extra = phase.extra
    if stack.workdir is not None:
        wals = glob.glob(os.path.join(stack.workdir, "**", "*.wal"),
                         recursive=True)
        extra["wal_bytes"] = extra.get("wal_bytes", 0) + sum(
            os.path.getsize(path) for path in wals)
        mutations = sum(1 for op in log.ops if op.ok and op.kind in (BOOK, CREATE))
        ticks = sum(1 for op in log.ops if op.ok and op.kind == TRACK)
        extra["wal_appends"] = (extra.get("wal_appends", 0) + len(data.supply)
                                + mutations + ticks * max(1, len(wals)))
        extra.setdefault("checkpoint_bytes", []).extend(
            os.path.getsize(path) for path in glob.glob(
                os.path.join(stack.workdir, "**", "*.ckpt"), recursive=True))
    if stack.engines:
        rows = sum(e.flat_index.stats()["rows"] for e in stack.engines)
        rides = sum(len(e.rides) for e in stack.engines)
        extra["rides"] = rides
        extra["rows_per_ride"] = rows / rides if rides else 0.0
    if stack.router is not None:
        extra["shed"] = extra.get("shed", 0) + int(
            stack.router.stats().get("total_shed", 0))


def _traced(recorder: Any, round_index: int) -> bool:
    """Trace mode doubles the rounds and traces every second one, so traced
    and untraced rounds see the same host weather."""
    return recorder is not None and round_index % 2 == 1


# ----------------------------------------------------------------------
# Measured phases
# ----------------------------------------------------------------------
def run_phase(workload: str, data: Inputs, seed: int, seconds: float,
              recorder: Any = None) -> Phase:
    """Set up, warm up, and run ``seconds`` worth of timed rounds (twice
    that, alternating untraced/traced, when a span recorder is given)."""
    return _PHASES[workload](data, seed, seconds, recorder)


def _repeated_setup(workload: str, data: Inputs, seed: int,
                    phase: Phase) -> Stack:
    """Set an engine workload up SETUP_REPEATS times; the last stack stays."""
    stack = None
    for _repeat in range(SETUP_REPEATS):
        if stack is not None:
            stack.close()
        stack = timed_setup(workload, data, seed, phase)
    return stack


def _engine_search(data, seed, seconds, recorder) -> Phase:
    phase = Phase()
    stack = _repeated_setup("engine_search", data, seed, phase)
    with stack:
        # Untimed first pass: builds the memoised walkable-cluster lists and
        # the sorted slab views, and pins the answers (digest + oracle).
        warm = run_closed(stack.target, data.demand, clients=1, looks=0,
                          k=inputs.TOP_K, decide=False, track=False)
        phase.digest = outcomes_digest(warm.outcomes)
        phase.checks.append(_oracle_bound(stack, data))
        if recorder is not None:
            # The span wrappers must not change a single answer.
            with _spans(recorder, True):
                again = run_closed(stack.target, data.demand, clients=1,
                                   looks=0, k=inputs.TOP_K, decide=False,
                                   track=False)
            phase.checks.append(Check(
                "traced_digest_identical",
                outcomes_digest(again.outcomes) == phase.digest,
                "first-pass result digest, wrappers on vs off"))
        budget = seconds * (2 if recorder is not None else 1)
        started = time.perf_counter()
        passes = 0
        while passes < MIN_ROUNDS or time.perf_counter() - started < budget:
            traced = _traced(recorder, passes)
            with _spans(recorder, traced) as spans:
                log = run_closed(
                    stack.target, data.demand, clients=1, looks=0,
                    k=inputs.TOP_K, decide=False, fingerprints=False,
                    track=False, recorder=spans, host=phase.host,
                    first_index=passes * len(data.demand))
            # match_rate is a property of the pinned queries: every pass
            # carries the complete first pass's outcomes.
            log.outcomes = warm.outcomes
            (phase.traced_rounds if traced else phase.rounds).append(log)
            passes += 1
        if recorder is not None:
            _note_files(stack, data, log, phase)
        phase.peak_rss_mb = peak_rss_mb()
    return phase


def _oracle_bound(stack: Stack, data: Inputs) -> Check:
    """Sampled ε-bound: each returned match's detour estimate is within 4ε
    of the oracle's exhaustive insertion optimum for that ride."""
    engine = stack.engines[0]
    bound = 4.0 * engine.region.config.epsilon_m
    oracle = OracleEngine(engine.region)
    oracle.rides = engine.rides
    oracle.ride_entries = engine.ride_entries
    checked = 0
    for request in data.demand:
        matches = stack.target.search(request, inputs.TOP_K)
        if not matches:
            continue
        optimum = oracle.optimum(request)
        for match in matches:
            best = optimum.get(match.ride_id)
            if best is None:
                return Check("oracle_bound", False,
                             f"ride {match.ride_id} matched but infeasible")
            if match.detour_estimate_m > best.min_detour_m + bound:
                return Check(
                    "oracle_bound", False,
                    f"ride {match.ride_id}: detour "
                    f"{match.detour_estimate_m:.1f} m > optimum "
                    f"{best.min_detour_m:.1f} m + 4eps {bound:.1f} m")
        checked += 1
        if checked >= BOUND_QUERIES:
            break
    return Check("oracle_bound", checked > 0, f"{checked} queries within 4eps")


def _engine_replay(data, seed, seconds, recorder) -> Phase:
    """Rounds of the same replay, each from an empty engine.  Round 0 is the
    untimed warm-up (memoised walkable-cluster lists); its digest must
    repeat like the rest."""
    phase = Phase()
    stack = _repeated_setup("engine_replay", data, seed, phase)
    region = stack.region
    digests: List[str] = []
    budget = seconds * (2 if recorder is not None else 1)
    timed_s = 0.0
    timed_rounds = 0
    last: Optional[RunLog] = None
    with stack:
        while True:
            warm_up = last is None
            traced = not warm_up and _traced(recorder, timed_rounds)
            round_stack = stack if warm_up else build_stack("engine", region)
            try:
                with _spans(recorder, traced) as spans:
                    log = run_closed(
                        round_stack.target, data.demand, clients=1, looks=0,
                        k=inputs.TOP_K, recorder=spans,
                        host=None if warm_up else phase.host,
                        first_index=timed_rounds * len(data.demand))
                if traced:
                    _note_files(round_stack, data, log, phase)
                digests.append(outcomes_digest(log.outcomes) + ":" +
                               _state_digest(round_stack))
                if not warm_up:
                    (phase.traced_rounds if traced else phase.rounds).append(log)
                    timed_s += log.duration
                    timed_rounds += 1
                done = timed_rounds >= MIN_ROUNDS and timed_s >= budget
                if warm_up or done:
                    # One sweep on the warm-up and one on the last round:
                    # the replay is deterministic, the rounds between are
                    # the same.
                    violations = round_stack.audit_violations()
                    phase.checks.append(Check(
                        f"audit_round{timed_rounds}", violations == 0,
                        f"{violations} violations"))
            finally:
                if round_stack is not stack:
                    round_stack.close()
            last = log
            if done:
                break
        if recorder is not None:
            phase.extra["after_write_probe"] = _after_write_probe(region, data)
        phase.peak_rss_mb = peak_rss_mb()
    served = sum(1 for o in last.outcomes if o.outcome in ("booked", "created"))
    unserved = len(last.outcomes) - served
    phase.checks.append(Check(
        "ledger", served + unserved == len(data.demand) and unserved == 0,
        f"booked+created={served} failed={unserved} "
        f"requests={len(data.demand)}"))
    phase.checks.append(Check(
        "rounds_repeat", len(set(digests)) == 1,
        f"{len(digests)} rounds, {len(set(digests))} distinct digests"))
    phase.digest = digests[0]
    return phase


def _after_write_probe(region, data: Inputs) -> Dict[str, Any]:
    """``index.flat.search_after_write_ratio`` on the replay: every request
    looks once before deciding, so the same query runs once straight after
    the previous request's write (dirty slab views) and once straight after
    a search.  Median of the first ÷ median of the second, best of two
    rounds."""
    rounds = []
    for _round in range(2):
        with build_stack("engine", region) as stack:
            rounds.append(run_closed(stack.target, data.demand, clients=1,
                                     looks=1, k=inputs.TOP_K))
    best = best_of_rounds(rounds)
    after = sorted(lat for (kind, _p, o), (lat, _aw) in best.items()
                   if kind == "search" and o == 0)
    steady = sorted(lat for (kind, _p, o), (lat, _aw) in best.items()
                    if kind == "search" and o == 1)
    ratio = after[len(after) // 2] / steady[len(steady) // 2]
    return metric(ratio, "x", len(after))


def _state_digest(stack: Stack) -> str:
    """Digest of the engine's end state (rides, seats, bookings)."""
    engine = stack.engines[0]
    hasher = hashlib.sha256()
    for ride_id in sorted(engine.rides):
        ride = engine.rides[ride_id]
        hasher.update(f"{ride_id}:{ride.seats_available}:"
                      f"{float(ride.detour_limit_m).hex()}:"
                      f"{len(ride.route)}\n".encode())
    hasher.update(f"bookings={len(engine.bookings)} "
                  f"completed={len(engine.completed_rides)}".encode())
    return hasher.hexdigest()[:16]


def _service_rounds(recorder: Any) -> int:
    return SERVICE_ROUNDS * (2 if recorder is not None else 1)


def _thread_service(data, seed, seconds, recorder) -> Phase:
    """Every round: a freshly set-up 2-shard durable router, a warm-up, the
    closed-loop stream, an audit, then crash (abandon without the final
    fsync) and recovery of every shard from checkpoint + WAL."""
    phase = Phase()
    digests = []
    recoveries: List[float] = []
    for round_index in range(_service_rounds(recorder)):
        traced = _traced(recorder, round_index)
        with timed_setup("thread_service", data, seed, phase) as stack:
            _warm_service(stack, data)
            with _spans(recorder, traced) as spans:
                log = run_closed(
                    stack.target, data.demand, clients=CLIENTS,
                    looks=SERVICE_LOOKS, k=inputs.TOP_K, recorder=spans,
                    first_index=round_index * len(data.demand))
                (phase.traced_rounds if traced else phase.rounds).append(log)
                digests.append(outcomes_digest(log.outcomes))
                violations = stack.audit_violations()
                phase.checks.append(Check(f"audit_round{round_index}",
                                          violations == 0,
                                          f"{violations} violations"))
                phase.peak_rss_mb = max(phase.peak_rss_mb, peak_rss_mb())
                if traced:
                    _note_files(stack, data, log, phase)
                recovery_s = _crash_and_recover(stack, data, log, phase,
                                                round_index)
            if not traced:
                recoveries.append(recovery_s)
    phase.digest = digests[0]
    phase.extra["recovery_s"] = recoveries
    phase.extra["distinct_result_digests"] = len(set(digests))
    return phase


def _crash_and_recover(stack: Stack, data: Inputs, log: RunLog,
                       phase: Phase, round_index: int) -> float:
    """Abandon → recover every shard → audit; every acknowledged create and
    book must be there.  Returns the wall time of abandon + recovery."""
    acked_creates = sum(1 for o in log.outcomes if o.outcome == "created")
    acked_books = sum(1 for o in log.outcomes if o.outcome == "booked")
    rides_before = sum(
        len(e.rides) + len(e.completed_rides) for e in stack.engines)
    bookings_before = sum(len(e.bookings) for e in stack.engines)
    started = time.perf_counter()
    stack.abandon()
    recovered = recover_thread_stack(stack)
    recovery_s = time.perf_counter() - started
    rides_after = sum(len(e.rides) + len(e.completed_rides)
                      for e in recovered["engines"])
    bookings_after = sum(len(e.bookings) for e in recovered["engines"])
    phase.checks.append(Check(
        f"recovery_complete_round{round_index}",
        rides_after == rides_before and bookings_after == bookings_before
        and bookings_after >= acked_books
        and rides_after >= len(data.supply) + acked_creates,
        f"rides {rides_after}/{rides_before} bookings "
        f"{bookings_after}/{bookings_before} (acked {acked_creates} creates, "
        f"{acked_books} books)"))
    phase.checks.append(Check(
        f"recovery_audit_round{round_index}", recovered["violations"] == 0,
        f"{recovered['violations']} violations"))
    phase.extra.setdefault("recovery_results", []).extend(recovered["results"])
    return recovery_s


def _warm_service(stack: Stack, data: Inputs) -> None:
    """Untimed read-only pass over the head of the stream (memoised
    walkable-cluster lists, sorted slab views, HTTP connections)."""
    head = data.demand[: max(10, len(data.demand) // 5)]
    run_closed(stack.target, head, clients=CLIENTS, looks=0, k=inputs.TOP_K,
               decide=False, fingerprints=False, track=False)


def _http_open(data, seed, seconds, recorder) -> Phase:
    phase = Phase()
    digests = []
    for round_index in range(_service_rounds(recorder)):
        traced = _traced(recorder, round_index)
        with timed_setup("http_open", data, seed, phase) as stack:
            _warm_service(stack, data)
            with _spans(recorder, traced) as spans:
                log = run_open(
                    stack.target, data.demand, data.arrivals, senders=CLIENTS,
                    looks=SERVICE_LOOKS, k=inputs.TOP_K, recorder=spans,
                    first_index=round_index * len(data.demand))
            if traced:
                _note_files(stack, data, log, phase)
            (phase.traced_rounds if traced else phase.rounds).append(log)
            digests.append(outcomes_digest(log.outcomes))
            violations = stack.audit_violations()
            phase.checks.append(Check(f"audit_round{round_index}",
                                      violations == 0,
                                      f"{violations} violations"))
            phase.peak_rss_mb = max(phase.peak_rss_mb,
                                    peak_rss_mb(stack.child_pids()))
    phase.digest = digests[0]
    phase.extra["offered_rate_per_s"] = HTTP_RATE_PER_S
    phase.extra["distinct_result_digests"] = len(set(digests))
    return phase


_PHASES: Dict[str, Callable[..., Phase]] = {
    "engine_search": _engine_search,
    "engine_replay": _engine_replay,
    "thread_service": _thread_service,
    "http_open": _http_open,
}
