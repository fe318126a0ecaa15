"""Relaxed batch facade in the differential harness.

The batch matcher legitimately diverges from the oracle in *schedule*
(it books the solver's choice, not the rank-0 match), so the harness holds
it to the quality contract instead: strict create fingerprints, invariant
sweeps, the ε-bound against a shadow oracle over its own state, and
no-request-lost ledger accounting.
"""

from __future__ import annotations

from repro.batch import BatchMatcher
from repro.verify import DifferentialHarness, make_facade
from repro.verify.differential import Facade


def test_batch_facade_is_relaxed_and_closable(small_region):
    facade = make_facade("batch", small_region, seed=5)
    try:
        assert facade.relaxed
        assert isinstance(facade.target, BatchMatcher)
        assert facade.xar_engines  # audited like every XAR-backed facade
    finally:
        facade.close()


def test_batch_replay_is_clean_and_checks_the_bound(small_region, smoke_ops):
    harness = DifferentialHarness(
        small_region, engines=("xar", "batch"), seed=5
    )
    report = harness.run(smoke_ops)
    assert report.ok, report.describe()
    assert report.n_ops == len(smoke_ops)
    # Strict facades still diff normally alongside the relaxed one.
    assert report.searches_checked > 0
    assert report.bound_checks > 0
    assert report.max_bound_gap_m <= harness.epsilon_bound_m


def test_ledger_imbalance_is_reported_as_request_lost(small_region, smoke_ops):
    """Planted accounting bug: a facade whose ledger drops a request."""

    class _LossyLedger:
        def __init__(self, target):
            self._target = target

        def __getattr__(self, name):
            return getattr(self._target, name)

        def ledger(self):
            ledger = dict(self._target.ledger())
            ledger["submitted"] += 1  # one request vanished
            return ledger

    def factory(name, region, seed):
        facade = make_facade(name, region, seed)
        if name == "batch":
            facade = Facade(
                name, _LossyLedger(facade.target), closer=facade.close,
                relaxed=True,
            )
        return facade

    harness = DifferentialHarness(
        small_region, engines=("xar", "batch"), seed=5,
        facade_factory=factory, stop_on_divergence=True,
    )
    report = harness.run(smoke_ops)
    assert not report.ok
    assert any(d.kind == "request-lost" for d in report.divergences)
