"""The latency ladder: one request stream, replayed unchanged on six rungs.

``engine → durable → thread1 → thread2 → proc2 → http`` (see ``stacks``):
each rung adds one layer, a single client drives it, every search consults
every shard (``fanout="all"``), so the answers must be identical on all six
and ``rung − rung below`` is that layer's cost with nothing contending.

Every rung runs the stream three times from a fresh set-up: two untraced
rounds give the best-of-rounds medians, one traced round gives the share of
request time no layer span covers.  Child-process internals are not visible
from outside, so what ``proc2`` and ``http`` add is attributed by rung
difference plus the RPC frame replay.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Dict, List

from . import inputs, metrics
from .driver import BOOK, CREATE, SEARCH, fill_supply, outcomes_digest, run_closed
from .hostspeed import HostSpeed
from .metrics import metric
from .stacks import RUNGS, build_stack
from .trace import Recorder, adopt_orphans, self_times
from .workloads import Check

#: Pinned sizes at scale 1 (the issue's 2 000 supply / 300 requests / 8).
LADDER_SUPPLY = 250
LADDER_REQUESTS = 40
LADDER_LOOKS = 4  # look-to-book 5
LADDER_WINDOW_H = 0.75
UNTRACED_ROUNDS = 2


@dataclass
class LadderResult:
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)


def run(seed: int, scale: float = 1.0) -> LadderResult:
    city, region = inputs.build_world()
    window_h = LADDER_WINDOW_H * scale
    supply = inputs.make_stream(
        city, seed, "ladder-supply",
        max(1, round(LADDER_SUPPLY * scale)), window_h)
    demand = inputs.make_stream(
        city, seed, "ladder-demand",
        max(4, round(LADDER_REQUESTS * scale)), window_h)
    out = LadderResult()
    # One client everywhere, so the host can be calibrated between requests
    # on every rung (see ``hostspeed``).
    host = HostSpeed()
    best_by_rung = {}
    for rung in RUNGS:
        rounds = []
        for round_index in range(UNTRACED_ROUNDS + 1):
            traced = round_index == UNTRACED_ROUNDS
            recorder = Recorder() if traced else None
            with build_stack(rung, region, fanout="all", seed=seed) as stack:
                fill_supply(stack.target, supply)
                # Warm-up: one read-only pass (memoised cluster lists,
                # sorted slab views, connections).
                run_closed(stack.target, demand, clients=1, looks=0,
                           k=inputs.TOP_K, decide=False, fingerprints=False,
                           track=False)
                with (recorder.installed() if traced
                      else contextlib.nullcontext()):
                    log = run_closed(stack.target, demand, clients=1,
                                     looks=LADDER_LOOKS, k=inputs.TOP_K,
                                     recorder=recorder,
                                     host=None if traced else host)
                if not traced:
                    rounds.append(log)
                violations = stack.audit_violations()
            digest = outcomes_digest(log.outcomes)
            previous = out.digests.setdefault(rung, digest)
            if digest != previous or violations or log.failed:
                out.checks.append(Check(
                    f"ladder_{rung}_round{round_index}", False,
                    f"digest {digest[:12]} vs {previous[:12]}, "
                    f"{violations} violations, {log.failed} failed ops"))
        best_by_rung[rung] = metrics.best_of_rounds(rounds)
        spans = adopt_orphans(recorder.spans)
        selfs = self_times(spans)
        requests = [s for s in spans if s[2] == "request"]
        total = sum(s[4] - s[3] for s in requests)
        out.metrics[f"ladder.{rung}.unattributed_frac"] = metric(
            sum(selfs[s[0]] for s in requests) / total if total > 0 else 0.0,
            "frac", len(requests))
    factor = host.factor()
    for rung, best in best_by_rung.items():
        for kind in (SEARCH, BOOK, CREATE):
            samples = [lat / factor for (k, _p, _o), (lat, _aw) in best.items()
                       if k == kind]
            out.metrics[f"ladder.{rung}.{kind}_p50_ms"] = metric(
                metrics.percentile_ms(samples, 50) if samples else 0.0,
                "ms", len(samples))
    distinct = set(out.digests.values())
    out.checks.append(Check(
        "ladder_digests_identical", len(distinct) == 1,
        f"{len(distinct)} distinct result digests over {len(RUNGS)} rungs"))
    return out
