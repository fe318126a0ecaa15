"""Process shards in the differential matrix.

``proc2`` runs the router over two shard *processes*: every op crosses the
RPC codec, ride state comes back as re-built objects, and the invariant
audit runs inside the workers.  The smoke cancels rides and bookings, the
two handlers no other replay reaches on a process shard.
"""

from __future__ import annotations

from repro.verify import DifferentialHarness, FuzzConfig, generate_ops
from repro.verify.differential import make_facade


def _recording_factory(built):
    def factory(name, region, seed):
        built[name] = make_facade(name, region, seed)
        return built[name]

    return factory


def test_proc2_smoke_with_cancellations_has_zero_divergence(small_region):
    config = FuzzConfig(seed=5, n_ops=120, corridor_reuse_p=0.8)
    config.weights["cancel_booking"] = 0.15
    ops = generate_ops(small_region, config)
    built = {}
    report = DifferentialHarness(
        small_region, engines=("xar", "proc2"), seed=5,
        facade_factory=_recording_factory(built),
    ).run(ops)
    assert report.ok, report.describe()
    assert report.op_counts["cancel"] > 0
    assert report.op_counts["cancel_booking"] > 0
    assert report.bookings_checked > 0
    # The run is clean, so every cancellation the oracle applied, proc2
    # applied too.
    assert built["oracle"].target.engine.cancellations, (
        "no booking was ever cancelled"
    )
    # Audited in its workers, through the router.
    assert built["proc2"].xar_engines == []
    assert report.audits_run >= 1

