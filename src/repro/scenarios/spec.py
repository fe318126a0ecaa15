"""Declarative scenario specs: city + supply + demand + faults + assertions.

A :class:`ScenarioSpec` is a frozen, JSON-serializable description of one
end-to-end simulation: which synthetic city to build, what driver supply to
seed it with (fleet size, seat capacity, shift lengths, repositioning),
what demand to replay (workload shape plus surge and cancellation-storm
overlays), which fault policies to compose around the engine, and which
declarative pass/fail assertions the finished run must satisfy.

Specs are plain data so the same scenario can live in three places without
drift: the pinned grid in :mod:`repro.scenarios.grid`, a JSON/TOML file on
disk (``xar scenario run path/to/spec.json``), and a pytest parametrization.
TOML loading is gated on :mod:`tomllib` (Python 3.11+); JSON always works.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..exceptions import ScenarioError
from ..verify.differential import FACADE_NAMES

try:  # Python 3.11+; requires-python is 3.9 so the import is optional.
    import tomllib
except ImportError:  # pragma: no cover - version-dependent
    tomllib = None

#: Workload generators the demand section understands.
KNOWN_WORKLOADS = ("uniform", "corridor", "hotspot")


@dataclass(frozen=True)
class CitySpec:
    """Which synthetic city the scenario runs on.

    ``kind="lattice"`` is one Manhattan-style grid; ``kind="twin"`` joins
    two lattices with a handful of bridge edges — a two-region city whose
    spatial shard split puts the regions on different shards, stressing
    cross-shard search fan-out.
    """

    kind: str = "lattice"
    avenues: int = 6
    streets: int = 12
    #: Region pre-processing knobs (delta -> epsilon = 4*delta).
    delta_m: float = 400.0
    poi_seed: int = 0
    #: Twin-city only: gap between the two lattices and bridge count.
    separation_m: float = 2000.0
    bridges: int = 2

    def validate(self) -> None:
        if self.kind not in ("lattice", "twin"):
            raise ScenarioError(f"unknown city kind {self.kind!r}")
        if self.avenues < 2 or self.streets < 2:
            raise ScenarioError("city needs at least a 2x2 lattice")
        if self.kind == "twin" and self.bridges < 1:
            raise ScenarioError("a twin city needs at least one bridge")


@dataclass(frozen=True)
class SupplySpec:
    """The driver fleet seeded before demand starts."""

    fleet: int = 12
    #: Workload shape the fleet's corridors are drawn from (None -> mirror
    #: the demand workload, which is what makes pooling happen: drivers
    #: travel the corridors passengers want).
    workload: Optional[str] = None
    #: Passenger seats per ride (None -> the engine's configured default,
    #: which is 3; the high-capacity scenarios pin 4).
    seats: Optional[int] = None
    #: Ride-level detour budget in metres (None -> config default).
    detour_limit_m: Optional[float] = None
    #: Driver shift length in seconds past departure (None -> open-ended).
    #: At shift end the ride retires from matching and drains its booked
    #: passengers — nobody is stranded, but no new matches land on it.
    shift_length_s: Optional[float] = None
    #: Seconds between consecutive fleet departures (None -> spread the
    #: fleet evenly across the demand duration, so late demand still finds
    #: live rides).
    stagger_s: Optional[float] = None
    #: When demand finds no feasible ride, reposition supply by offering a
    #: fresh ride on the unmatched corridor (the forecast-chasing policy).
    reposition_on_miss: bool = False

    def validate(self) -> None:
        if self.fleet < 0:
            raise ScenarioError(f"fleet must be >= 0, got {self.fleet}")
        if self.workload is not None and self.workload not in KNOWN_WORKLOADS:
            raise ScenarioError(
                f"unknown supply workload {self.workload!r} "
                f"(choose from {KNOWN_WORKLOADS})"
            )
        if self.seats is not None and self.seats < 1:
            raise ScenarioError(f"seats must be >= 1, got {self.seats}")
        if self.shift_length_s is not None and self.shift_length_s <= 0:
            raise ScenarioError("shift_length_s must be > 0 when set")


@dataclass(frozen=True)
class DemandSpec:
    """The request stream replayed against the supplied fleet."""

    workload: str = "uniform"
    requests: int = 100
    #: Demand arrives in [0, duration_s).
    duration_s: float = 1800.0
    #: Departure-window length per request, seconds.
    window_s: float = 600.0
    #: Walk threshold per request, metres (None -> config default).
    walk_threshold_m: Optional[float] = None
    #: Searches are cut to the top k options (None -> all).
    k: Optional[int] = None
    #: Per-passenger detour budgets, as fractions of the config default
    #: detour, cycled across booking requests.  ``None`` entries leave the
    #: passenger unbudgeted.  Empty tuple -> nobody carries a budget.
    budget_scales: Tuple[Optional[float], ...] = ()
    #: Surge overlay: (start_s, end_s, multiplier) — demand inside the band
    #: is densified to ``multiplier`` times the base rate.
    surge: Optional[Tuple[float, float, float]] = None
    #: Cancellation storm: (start_s, end_s, fraction) — once the replay
    #: clock enters the band, ``fraction`` of the bookings made so far are
    #: cancelled in one burst (seats and budgets must restore exactly).
    cancel_storm: Optional[Tuple[float, float, float]] = None

    def validate(self) -> None:
        if self.workload not in KNOWN_WORKLOADS:
            raise ScenarioError(
                f"unknown workload {self.workload!r} "
                f"(choose from {KNOWN_WORKLOADS})"
            )
        if self.requests < 1:
            raise ScenarioError("demand needs at least one request")
        for name, band in (("surge", self.surge),
                           ("cancel_storm", self.cancel_storm)):
            if band is None:
                continue
            if len(band) != 3 or band[1] <= band[0]:
                raise ScenarioError(
                    f"{name} must be (start_s, end_s, value) with end > start"
                )
        if self.surge is not None and self.surge[2] < 1.0:
            raise ScenarioError("surge multiplier must be >= 1.0")
        if self.cancel_storm is not None and not (
            0.0 <= self.cancel_storm[2] <= 1.0
        ):
            raise ScenarioError("cancel_storm fraction must be in [0, 1]")


@dataclass(frozen=True)
class FaultSpec:
    """Chaos composed around the engine façade."""

    #: The CLI mini-language: ``"router=0.05,dropout=0.1,cancel=0.02"``.
    policies: str = ""
    seed: int = 0
    #: Wrap the (possibly fault-injected) target in the resilient runtime.
    resilient: bool = False
    #: Crash a rotating shard every N served requests (façades with
    #: ``crash_shard`` only: shardN with durability, procN).
    crash_every: int = 0

    def validate(self) -> None:
        if self.crash_every < 0:
            raise ScenarioError("crash_every must be >= 0")


@dataclass(frozen=True)
class AssertionSpec:
    """Declarative pass/fail criteria evaluated on the finished run."""

    #: matched / requests floor (None disables).
    min_match_rate: Optional[float] = None
    min_booked: int = 0
    #: Cancellation-storm scenarios: at least this many cancels must have
    #: actually applied (0 disables).
    min_cancels: int = 0
    #: Peak simultaneous passengers observed on one ride must reach this
    #: (the high-capacity scenarios pin >= 2 to prove pooling happened;
    #: engine-visible façades only — 0 disables).
    min_pool: int = 0
    #: The post-run invariant audit must report zero violations.
    require_clean_audit: bool = True
    #: Engine booking/cancellation ledgers must balance the runner's
    #: counts (and the batch ledger must account for every request).
    require_balanced_ledger: bool = True
    #: No booked passenger's consumed detour may exceed their budget.
    require_budgets_respected: bool = True
    #: Wall-clock ceiling on search p95 (None disables).  Timing-based, so
    #: its outcome lives in the report's non-canonical section.
    max_search_p95_ms: Optional[float] = None

    def validate(self) -> None:
        if self.min_match_rate is not None and not (
            0.0 <= self.min_match_rate <= 1.0
        ):
            raise ScenarioError("min_match_rate must be in [0, 1]")


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete scenario; see the module docstring."""

    name: str
    facade: str = "xar"
    seed: int = 0
    city: CitySpec = field(default_factory=CitySpec)
    supply: SupplySpec = field(default_factory=SupplySpec)
    demand: DemandSpec = field(default_factory=DemandSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    asserts: AssertionSpec = field(default_factory=AssertionSpec)

    def validate(self) -> None:
        if not self.name:
            raise ScenarioError("a scenario needs a name")
        base = self.facade
        if base.startswith(("shard", "proc")):
            suffix = base[5:] if base.startswith("shard") else base[4:]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ScenarioError(f"malformed façade name {base!r}")
        elif base not in FACADE_NAMES:
            raise ScenarioError(
                f"unknown façade {base!r} (choose from {FACADE_NAMES}, "
                f"shardN, or procN)"
            )
        if self.faults.crash_every and not self.facade.startswith("proc"):
            raise ScenarioError(
                "crash_every needs a crash-capable façade (procN)"
            )
        for section in (self.city, self.supply, self.demand, self.faults,
                        self.asserts):
            section.validate()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ScenarioError(f"scenario spec must be a mapping, got "
                                f"{type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
        sections = {
            "city": CitySpec,
            "supply": SupplySpec,
            "demand": DemandSpec,
            "faults": FaultSpec,
            "asserts": AssertionSpec,
        }
        kwargs: Dict[str, Any] = {}
        for key, value in data.items():
            if key in sections:
                kwargs[key] = _section_from(sections[key], key, value)
            else:
                kwargs[key] = value
        try:
            spec = cls(**kwargs)
        except TypeError as err:
            raise ScenarioError(f"bad scenario spec: {err}") from err
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ScenarioError(f"invalid scenario JSON: {err}") from err
        return cls.from_dict(data)

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        if tomllib is None:
            raise ScenarioError(
                "TOML scenario specs need Python 3.11+ (tomllib); "
                "use JSON on older interpreters"
            )
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as err:
            raise ScenarioError(f"invalid scenario TOML: {err}") from err
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        """Load a spec file, dispatching on the extension."""
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if path.endswith(".toml"):
            return cls.from_toml(text)
        return cls.from_json(text)


def _section_from(section_cls, key: str, value: Any):
    """Build one nested section, tolerating already-built instances."""
    if isinstance(value, section_cls):
        return value
    if not isinstance(value, dict):
        raise ScenarioError(f"scenario section {key!r} must be a mapping")
    known = {f.name for f in dataclasses.fields(section_cls)}
    unknown = set(value) - known
    if unknown:
        raise ScenarioError(
            f"unknown keys in scenario section {key!r}: {sorted(unknown)}"
        )
    coerced = {
        name: tuple(v) if isinstance(v, list) else v
        for name, v in value.items()
    }
    try:
        return section_cls(**coerced)
    except TypeError as err:
        raise ScenarioError(f"bad scenario section {key!r}: {err}") from err
