"""Seeded inputs: the pinned city, supply/demand streams, arrival schedules.

Everything a workload feeds the program is generated here, from ``--seed``,
before any timing starts; the program itself only ever sees the generated
requests.  Each stream's sha256 is recorded in the output and pinned per
seed in ``bench/baseline/PINS.json`` so that drift in ``repro.workloads`` or
``manhattan_city`` reports "inputs changed — re-baseline" instead of passing
for a gain.

Scale-down rule: the issue sizes the workloads for 30–45 s phases on 6 h of
simulated demand (06:00–12:00).  The driver contract allows ~12 s phases, so
counts are cut to 1/8 **and the simulated window with them** (06:00–06:45):
rides per simulated hour — what candidate-list length and match rate depend
on — stay what the issue asked for.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from typing import Dict, List, Optional, Sequence

from repro.config import XARConfig
from repro.core.request import RideRequest
from repro.discretization import build_region
from repro.roadnet import manhattan_city
from repro.workloads import NYCWorkloadGenerator, trips_to_requests

CITY_AVENUES = 20
CITY_STREETS = 60
#: Matches returned per search.
TOP_K = 10
#: Simulated demand starts at 06:00.
WINDOW_START_H = 6.0
#: The demand geography (hotspot layout) is part of the pinned city, like
#: the street grid: it does not move with ``--seed``.  Only the trips drawn
#: from it do.
LAYOUT_SEED = 2024

PINS_PATH = pathlib.Path(__file__).parent / "baseline" / "PINS.json"


def build_world():
    """(city, region) — timed by the caller as part of set-up."""
    city = manhattan_city(n_avenues=CITY_AVENUES, n_streets=CITY_STREETS)
    region = build_region(city, XARConfig.validated())
    return city, region


def make_stream(city, seed: int, tag: str, n: int,
                window_h: float) -> List[RideRequest]:
    """``n`` NYC-style requests in time order over ``window_h`` hours from
    06:00, drawn with an RNG derived from ``(seed, tag)``."""
    generator = NYCWorkloadGenerator(city, seed=LAYOUT_SEED)
    generator.rng = random.Random(f"{seed}:{tag}")
    return trips_to_requests(
        generator.generate(n, WINDOW_START_H, WINDOW_START_H + window_h)
    )


def poisson_arrivals(seed: int, rate_per_s: float, seconds: float) -> List[float]:
    """Seeded arrival offsets of a Poisson process at ``rate_per_s`` over
    ``seconds``, conditioned on its expected count: given N arrivals in a
    window a Poisson process places them uniformly, so N = rate x seconds
    uniform draws, sorted.  Pinning N keeps the offered load — and with it
    ``ops_per_s`` and the sample counts — the same for every seed; the
    burstiness is untouched."""
    rng = random.Random(f"{seed}:arrival")
    count = max(1, int(round(rate_per_s * seconds)))
    return sorted(rng.uniform(0.0, seconds) for _arrival in range(count))


# ----------------------------------------------------------------------
# Digests and pins
# ----------------------------------------------------------------------
def stream_digest(requests: Sequence[RideRequest]) -> str:
    hasher = hashlib.sha256()
    for r in requests:
        hasher.update(
            "|".join(
                (
                    str(r.request_id),
                    r.source.lat.hex(), r.source.lon.hex(),
                    r.destination.lat.hex(), r.destination.lon.hex(),
                    float(r.window_start_s).hex(), float(r.window_end_s).hex(),
                    float(r.walk_threshold_m).hex(),
                )
            ).encode("ascii")
        )
        hasher.update(b"\n")
    return hasher.hexdigest()


def floats_digest(values: Sequence[float]) -> str:
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(float(value).hex().encode("ascii") + b"\n")
    return hasher.hexdigest()


def pin_key(seed: int, seconds: float, scale: float) -> str:
    return f"seed={seed},seconds={seconds:g},scale={scale:g}"


def load_pins() -> Dict[str, Dict[str, Dict[str, str]]]:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())


def check_pins(workload: str, key: str,
               digests: Dict[str, str]) -> Optional[str]:
    """None when the inputs match their pin (or the key is not pinned);
    otherwise a message naming the stream that moved."""
    pinned = load_pins().get(workload, {}).get(key)
    if pinned is None:
        return None
    moved = sorted(
        name for name, digest in digests.items() if pinned.get(name) != digest
    )
    if not moved:
        return None
    return (
        f"inputs changed — re-baseline ({workload}, {key}: "
        f"{', '.join(moved)} no longer match bench/baseline/PINS.json)"
    )
