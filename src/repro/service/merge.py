"""K-way merge of per-shard search results.

Each shard's :func:`~repro.core.search.search_rides` returns its matches
already sorted by the engine's ranking key — least total walking, then
pickup ETA, then ride id.  Merging the shard batches with the same key via
:func:`heapq.merge` therefore reproduces *exactly* the ordering a single
engine holding every ride would have produced, which is what makes sharded
search results deterministic regardless of which shard answered first.

**The rank order is total.**  ``rank_key`` ends with the ride id, ride ids
are globally unique (each shard allocates from a disjoint arithmetic lane),
and every ride lives on exactly one shard — so no two matches anywhere in a
fan-out can compare equal, and the merged list is *strictly* increasing.
That strictness is what lets the differential harness
(:mod:`repro.verify.differential`) assert exact result-list equality across
single-engine and sharded façades instead of settling for set equality.
``merge_matches`` enforces it: a tie or inversion in the merged output means
a shard broke its lane (duplicate ride id) or returned an unsorted batch,
and is reported as :class:`~repro.exceptions.ServiceError` rather than
silently producing nondeterministic tie orders.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from ..core.search import MatchOption
from ..exceptions import ServiceError


def rank_key(match: MatchOption) -> Tuple[float, float, int]:
    """The engine's match ordering (see ``search_rides``).

    The trailing ride id makes the order **total**: globally unique ids mean
    no two distinct matches ever compare equal.
    """
    return (match.total_walk_m, match.eta_pickup_s, match.ride_id)


def assert_rank_order(matches: Sequence[MatchOption]) -> None:
    """Verify a merged result list is strictly increasing in ``rank_key``.

    A violation is a service bug (ride-id lane collision across shards or an
    unsorted shard batch), surfaced as :class:`ServiceError`.
    """
    previous: Optional[Tuple[float, float, int]] = None
    for match in matches:
        key = rank_key(match)
        if previous is not None and key <= previous:
            raise ServiceError(
                f"merged search results violate the total rank order: "
                f"{key} follows {previous} (duplicate ride id lane or "
                f"unsorted shard batch)"
            )
        previous = key


def merge_matches(
    batches: Sequence[List[MatchOption]],
    k: Optional[int] = None,
) -> List[MatchOption]:
    """Merge sorted per-shard batches into one globally ranked list.

    The output is checked to be strictly rank-ordered (cheap O(n) sweep);
    see :func:`assert_rank_order`.
    """
    if len(batches) == 1:
        # One batch (a width-1 fan-out, or one search pass over several
        # thread shards): already globally ranked.
        batch = batches[0]
        out = list(batch) if k is None else batch[:k]
        assert_rank_order(out)
        return out
    merged = heapq.merge(*batches, key=rank_key)
    if k is None:
        out = list(merged)
    else:
        out = []
        for match in merged:
            out.append(match)
            if len(out) >= k:
                break
    assert_rank_order(out)
    return out
