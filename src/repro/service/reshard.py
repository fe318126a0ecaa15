"""Elastic resharding: load-watching controller over a sharded router.

The router core owns the *mechanism* — ``split_shard`` / ``merge_shards``
run the one reshard machine (:mod:`repro.service.machine`): carve WALs,
hand off ride-id lanes, swap the epoch-versioned routing table — while
:class:`ReshardController` owns the *policy*: watch per-shard load
(op rate, queue depth, p95 service time, all from the service's own
:class:`~repro.obs.MetricsRegistry` series) and decide when a shard is hot
enough to split or a pair of strip-adjacent shards cold enough to merge.

Pressure model: a slot's load score is ``(ops since the last decision +
current queue depth) × p95 service time`` — an estimate of wall-clock the
slot spent (and is about to spend) serving, so a shard that is slow *per
op* counts as hot even at a modest rate.  Scores are normalized by the
active-slot mean into per-shard load **ratios** (exported as
``xar_shard_load_ratio``); a ratio at or above ``split_pressure`` triggers
a split of the hottest slot, and two adjacent slots both at or below
``merge_pressure`` trigger a merge.  Decisions are rate-limited by op
volume (``min_interval_ops``), not wall-clock, so the cadence is
reproducible under a paced load generator.

The controller drives the :class:`~repro.service.core.RouterCore` surface
(``shard_loads`` / ``active_slot_ids`` / ``split_shard`` /
``merge_shards``), so it works identically over thread shards and process
shards.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..exceptions import ReshardError, XARError


@dataclass
class ReshardConfig:
    """Policy knobs for elastic resharding.

    Passing one to a router *enables* reshard mode: the router fixes its
    ride-id lane modulus at ``max_shards`` up front (so children allocate
    from disjoint lanes without renumbering) and maintains the dynamic
    lane/redirect tables.  A router without one is byte-identical to the
    pre-reshard static service.
    """

    #: Ride-id lane budget = hard ceiling on slots ever created.  Splits
    #: consume one fresh lane each; merges park lanes without recycling
    #: them, so ``max_shards`` bounds the number of splits over the
    #: service's lifetime, not just the concurrent shard count.
    max_shards: int = 8
    #: Split the hottest slot when its load ratio (share of the active-slot
    #: mean) reaches this.
    split_pressure: float = 1.75
    #: Merge two strip-adjacent slots when *both* ratios are at or below
    #: this.
    merge_pressure: float = 0.4
    #: Completed ops across the fleet between controller decisions
    #: (volume-based, so paced runs reshard reproducibly).
    min_interval_ops: int = 400
    #: A slot must own at least this many clusters to be split.
    min_split_clusters: int = 2
    #: Ceiling on actions per controller lifetime (0 = unbounded).
    max_actions: int = 0
    #: Allow merge decisions at all (splits are always allowed).
    merge_enabled: bool = True


@dataclass
class ReshardAction:
    """One decision the controller took (or refused)."""

    action: str  # "split" | "merge" | "refused"
    slot: int
    peer: Optional[int] = None  # new slot for splits, src slot for merges
    epoch: Optional[int] = None
    ratio: float = 0.0
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "action": self.action,
            "slot": self.slot,
            "peer": self.peer,
            "epoch": self.epoch,
            "ratio": round(self.ratio, 3),
            "detail": self.detail,
        }


class ReshardController:
    """Watches per-shard load and drives split/merge on a router."""

    def __init__(self, router: Any, config: Optional[ReshardConfig] = None):
        self.router = router
        self.config = config or router.reshard_config or ReshardConfig()
        self.metrics = router.metrics
        self._g_ratio = self.metrics.gauge(
            "xar_shard_load_ratio",
            "Per-shard load score over the active-slot mean "
            "(1.0 = perfectly balanced)",
            labels=("shard",),
        )
        self._lock = threading.Lock()
        self._ops_at_last_decision: Dict[int, float] = {}
        self._total_at_last_decision = 0.0
        self.actions: List[ReshardAction] = []
        self._last_ratios: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Load observation
    # ------------------------------------------------------------------
    def observe(self) -> Dict[int, float]:
        """Current per-slot load ratios (score over active-slot mean)."""
        loads = self.router.shard_loads()
        scores: Dict[int, float] = {}
        for slot, load in loads.items():
            delta = load["ops"] - self._ops_at_last_decision.get(slot, 0.0)
            # Utilization estimate: (served + queued) ops × p95 per-op cost.
            # The 1e-6 floor keeps a slot with no latency samples yet from
            # scoring zero while its queue is already backing up.
            scores[slot] = (max(0.0, delta) + load.get("queue", 0.0)) * max(
                load.get("p95_s", 0.0), 1e-6
            )
        mean = sum(scores.values()) / len(scores) if scores else 0.0
        ratios = {
            slot: (score / mean if mean > 0 else 1.0)
            for slot, score in scores.items()
        }
        for slot, ratio in ratios.items():
            self._g_ratio.labels(shard=str(slot)).set(ratio)
        self._last_ratios = ratios
        return ratios

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def tick(self) -> Optional[ReshardAction]:
        """Observe, and reshard when pressure thresholds demand it.

        Cheap when the op-volume interval has not elapsed.  Returns the
        action taken, or ``None``.  Safe to call from load-generator driver
        threads (the chaos seam): decisions are serialized by the
        controller's lock, and the router's own failover lock serializes
        execution against failovers and concurrent submitters.
        """
        config = self.config
        with self._lock:
            if config.max_actions and len(
                [a for a in self.actions if a.action != "refused"]
            ) >= config.max_actions:
                return None
            loads = self.router.shard_loads()
            total = sum(load["ops"] for load in loads.values())
            if total - self._total_at_last_decision < config.min_interval_ops:
                return None
            ratios = self.observe()
            self._total_at_last_decision = total
            self._ops_at_last_decision = {
                slot: load["ops"] for slot, load in loads.items()
            }
            action = self._decide(ratios, loads)
            if action is not None:
                self.actions.append(action)
            return action

    def _decide(
        self,
        ratios: Dict[int, float],
        loads: Dict[int, Dict[str, float]],
    ) -> Optional[ReshardAction]:
        config = self.config
        if not ratios:
            return None
        hottest = max(sorted(ratios), key=lambda slot: ratios[slot])
        if ratios[hottest] >= config.split_pressure:
            if loads[hottest].get("clusters", 0) < config.min_split_clusters:
                return None
            try:
                new_slot = self.router.split_shard(hottest)
            except ReshardError as exc:
                return ReshardAction(
                    action="refused", slot=hottest, ratio=ratios[hottest],
                    detail=str(exc),
                )
            return ReshardAction(
                action="split", slot=hottest, peer=new_slot,
                epoch=self.router.shard_map.epoch, ratio=ratios[hottest],
            )
        if config.merge_enabled and len(ratios) > 1:
            for a, b in self.router.shard_map.adjacent_pairs():
                if (
                    ratios.get(a, 1.0) <= config.merge_pressure
                    and ratios.get(b, 1.0) <= config.merge_pressure
                ):
                    try:
                        self.router.merge_shards(a, b)
                    except (ReshardError, XARError) as exc:
                        return ReshardAction(
                            action="refused", slot=a, peer=b,
                            ratio=ratios.get(b, 0.0), detail=str(exc),
                        )
                    return ReshardAction(
                        action="merge", slot=a, peer=b,
                        epoch=self.router.shard_map.epoch,
                        ratio=ratios.get(b, 0.0),
                    )
        return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Controller + topology snapshot (the ``xar reshard status`` view)."""
        return {
            "epoch": self.router.shard_map.epoch,
            "active_slots": list(self.router.active_slot_ids()),
            "ratios": {
                str(slot): round(ratio, 3)
                for slot, ratio in sorted(self._last_ratios.items())
            },
            "actions": [action.as_dict() for action in self.actions],
            "config": {
                "max_shards": self.config.max_shards,
                "split_pressure": self.config.split_pressure,
                "merge_pressure": self.config.merge_pressure,
                "min_interval_ops": self.config.min_interval_ops,
            },
        }
