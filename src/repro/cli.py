"""Command-line interface: ``python -m repro.cli <command>`` (or ``xar``).

Commands mirror a deployment's lifecycle:

* ``build-city``    generate a synthetic city and save it (OSM substitute),
* ``build-region``  run the pre-processing pipeline and persist the region,
* ``info``          inspect a saved region,
* ``simulate``      replay an NYC-style workload on XAR or T-Share,
* ``loadtest``      drive the sharded service with the load generator
  (``--procs`` promotes shards to supervised subprocesses, ``--remote URL``
  drives a running gateway over HTTP),
* ``serve``         run the process-shard fleet behind the threaded HTTP
  gateway until SIGTERM,
* ``metrics``       replay a workload on an instrumented engine and dump
  its metrics (Prometheus text or JSON),
* ``compare``       head-to-head XAR vs T-Share on one stream,
* ``modes``         the four-transport-mode comparison (Fig. 6),
* ``fuzz``          differential-fuzz a seeded op sequence across engine
  façades against the brute-force oracle (non-zero exit on divergence),
* ``scenario``      run, sweep or list the declarative scenario matrix
  (``run`` executes one pinned name or a spec file, ``sweep`` executes
  the whole pinned grid and writes per-scenario reports, ``list`` shows
  what is pinned),
* ``recover``       rebuild an engine from a write-ahead log (+ optional
  checkpoint) and report what replay did,
* ``wal-dump``      human-readable dump of a write-ahead log, torn-tail
  detection included.

The ``loadtest`` command grows durability knobs: ``--durable DIR`` gives
every shard a WAL + checkpoints under ``DIR`` and ``--crash-every N`` kills
a rotating shard every N requests mid-run — the failover supervisor must
recover each one with zero lost acknowledged state.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from typing import List, Optional

from .baselines import TShareEngine
from .batch import BatchConfig, BatchMatcher
from .config import XARConfig
from .core import XAREngine
from .discretization import build_region, load_region, region_digest, save_region
from .durability import (
    DurabilityConfig,
    iter_frames,
    read_topology,
    recover_engine,
    topology_path,
)
from .durability.records import ABORT, WAL_OPS
from .mmtp import MultiModalPlanner, synthetic_feed
from .obs import MetricsRegistry, to_json, to_prometheus_text
from .roadnet import (
    load_network,
    manhattan_city,
    radial_city,
    random_planar_city,
    save_network,
)
from .service import (
    Gateway,
    GatewayConfig,
    HttpServiceClient,
    LoadGenConfig,
    LoadGenerator,
    ProcRouter,
    ReshardConfig,
    ReshardController,
    ServiceSLO,
    ShardRouter,
    SupervisorConfig,
    skew_hotspot,
)
from .service.routing import RoutingTable
from .service.transport import ThreadTransport
from .sim import (
    FaultInjectingAdapter,
    RideShareSimulator,
    TShareAdapter,
    XARAdapter,
    parse_fault_policies,
)
from .sim.simulator import SimulatorConfig
from .sim.modes import compare_modes
from .verify.differential import FACADE_NAMES, is_facade_name
from .workloads import NYCWorkloadGenerator, trips_to_requests


def _build_city(args: argparse.Namespace) -> int:
    if args.kind == "manhattan":
        network = manhattan_city(n_avenues=args.avenues, n_streets=args.streets)
    elif args.kind == "radial":
        network = radial_city(n_rings=args.rings, n_spokes=args.spokes)
    else:
        network = random_planar_city(n_nodes=args.nodes, seed=args.seed)
    save_network(network, args.output)
    print(
        f"wrote {args.kind} city: {network.node_count} nodes, "
        f"{network.edge_count} edges -> {args.output}"
    )
    return 0


def _build_region(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if args.city:
        network = load_network(args.city)
    else:
        network = manhattan_city(n_avenues=args.avenues, n_streets=args.streets)
    config = XARConfig.validated(delta_m=args.delta)
    region = build_region(network, config, poi_seed=args.seed)
    save_region(region, args.output)
    print(
        f"region built in {time.perf_counter() - t0:.1f}s: "
        f"{region.n_landmarks} landmarks, {region.n_clusters} clusters, "
        f"eps_realised {region.epsilon_realised:.0f} m "
        f"(guarantee {config.epsilon_m:.0f} m) -> {args.output}"
    )
    return 0


def _info(args: argparse.Namespace) -> int:
    region = load_region(args.region)
    config = region.config
    print(f"region       : {args.region}")
    print(f"network      : {region.network.node_count} nodes, "
          f"{region.network.edge_count} edges")
    print(f"landmarks    : {region.n_landmarks}")
    print(f"clusters     : {region.n_clusters}")
    print(f"delta / eps  : {config.delta_m:.0f} m / {config.epsilon_m:.0f} m "
          f"(realised {region.epsilon_realised:.0f} m)")
    print(f"grid side    : {config.grid_side_m:.0f} m "
          f"({region.grid.cell_count()} implicit cells)")
    print(f"walk limit W : {config.max_walk_m:.0f} m")
    print(f"digest       : {region_digest(region)}")
    return 0


def _workload(region_network, args):
    generator = NYCWorkloadGenerator(region_network, seed=args.seed)
    trips = generator.generate(args.requests, args.start_hour, args.end_hour)
    return trips_to_requests(trips, window_s=args.window, walk_threshold_m=args.walk)


def _simulate(args: argparse.Namespace) -> int:
    region = load_region(args.region)
    requests = _workload(region.network, args)
    if args.engine == "xar":
        adapter = XARAdapter(XAREngine(
            region,
            optimize_insertion=args.optimize,
        ))
    else:
        adapter = TShareAdapter(TShareEngine(region.network))
    if args.faults:
        try:
            policies = parse_fault_policies(args.faults)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        adapter = FaultInjectingAdapter(
            adapter, policies, seed=args.fault_seed
        )
    config = SimulatorConfig(audit_every_s=args.audit_every)
    report = RideShareSimulator(adapter, config).run(requests)
    print(report.describe())
    if args.audit_every > 0 and report.audit.get("post_run_violations", 0) > 0:
        print("post-run invariant audit FAILED", file=sys.stderr)
        return 1
    return 0


def _loadtest(args: argparse.Namespace) -> int:
    region = load_region(args.region)
    generator = NYCWorkloadGenerator(region.network, seed=args.seed)
    trips = generator.generate(
        args.requests + args.prepopulate, args.start_hour, args.end_hour
    )
    requests = trips_to_requests(
        trips, window_s=args.window, walk_threshold_m=args.walk
    )
    if getattr(args, "hotspot_frac", 0.0):
        # Satellite workload skew: concentrate sources on a few Zipf-weighted
        # zones — the load a static partition cannot absorb.
        requests = skew_hotspot(
            region,
            requests,
            hotspot_frac=args.hotspot_frac,
            hotspot_zones=args.hotspot_zones,
            seed=args.seed,
        )
    supply, demand = requests[: args.prepopulate], requests[args.prepopulate:]

    if getattr(args, "matcher", "greedy") == "batch" and (
        args.procs or args.remote
    ):
        raise SystemExit("--matcher batch wraps the in-process thread-shard "
                         "router; drop --procs/--remote")

    reshard = None
    if getattr(args, "reshard", 0):
        if args.remote:
            raise SystemExit("--reshard drives a local router; drop --remote")
        if args.reshard < args.shards:
            raise SystemExit(f"--reshard {args.reshard} must be >= --shards "
                             f"{args.shards} (it is the lifetime lane budget)")
        if not args.procs and not args.durable:
            raise SystemExit("--reshard needs durable shards: add "
                             "--durable DIR (or --procs)")
        reshard = ReshardConfig(
            max_shards=args.reshard,
            min_interval_ops=args.reshard_interval_ops,
            split_pressure=args.reshard_pressure,
        )

    if args.remote:
        return _loadtest_remote(args, region, supply, demand)

    durability = None
    if args.durable and not args.procs:
        os.makedirs(args.durable, exist_ok=True)
        durability = DurabilityConfig(
            directory=args.durable,
            fsync_every=args.fsync_every,
            checkpoint_every=args.checkpoint_every,
        )
    if args.crash_every and durability is None and not args.procs:
        raise SystemExit("--crash-every requires --durable DIR "
                         "(process shards are always durable: use --procs)")

    if args.procs:
        # Process mode: every shard is a supervised subprocess with its own
        # WAL directory under run_dir, so crash injection needs no opt-in.
        run_dir = args.durable or tempfile.mkdtemp(prefix="xar-proc-")
        os.makedirs(run_dir, exist_ok=True)
        service_cm = ProcRouter(
            region,
            SupervisorConfig(
                n_shards=args.shards,
                run_dir=run_dir,
                queue_depth=args.queue_depth,
                fsync_every=args.fsync_every,
                checkpoint_every=args.checkpoint_every,
                seed=args.seed,
            ),
            fanout=args.fanout,
            reshard=reshard,
        )
    else:
        service_cm = ShardRouter(
            region,
            args.shards,
            queue_depth=args.queue_depth,
            fanout=args.fanout,
            seed=args.seed,
            durability=durability,
            reshard=reshard,
        )

    with service_cm as service:
        for request in supply:
            service.create(request.source, request.destination,
                           request.window_start_s,
                           seats=args.supply_seats,
                           detour_limit_m=args.supply_detour)

        chaos = None
        if args.crash_every:
            # Kill a rotating shard every N served requests; the failover
            # supervisor replays its WAL and the run keeps going.
            crash_lock = threading.Lock()
            crash_state = {"due": args.crash_every, "victim": 0}

            def chaos(global_index: int) -> None:
                with crash_lock:
                    if global_index < crash_state["due"]:
                        return
                    crash_state["due"] += args.crash_every
                    victim = crash_state["victim"] % len(
                        service.active_slot_ids())
                    crash_state["victim"] += 1
                service.crash_shard(victim)

        controller = None
        if reshard is not None:
            # The controller rides the load generator's chaos seam: a cheap
            # tick every few requests (op-volume gating keeps real reshard
            # decisions far rarer than the probe).
            controller = ReshardController(service, reshard)
            crash_chaos = chaos

            def chaos(global_index: int) -> None:
                if crash_chaos is not None:
                    crash_chaos(global_index)
                if global_index % 25 == 0:
                    controller.tick()

        config = LoadGenConfig(
            workers=args.workers,
            target_qps=args.qps,
            looks_per_book=args.looks,
            create_on_miss=not args.no_create,
            seed=args.seed,
            chaos=chaos,
            arrival=args.arrival,
        )
        target = service
        batch = None
        if args.matcher == "batch":
            batch = BatchMatcher(
                service,
                BatchConfig(
                    window_s=args.window_ms / 1000.0,
                    max_batch=args.batch_max,
                ),
            )
            target = batch
        try:
            report = LoadGenerator(target, demand, config).run()
        finally:
            if batch is not None:
                batch.close()
        if batch is not None:
            ledger = batch.ledger()
            print(f"batch ledger      : {ledger}")
        if durability is not None or args.procs:
            counter = ("xar_proc_restarts_total" if args.procs
                       else "xar_failovers_total")
            failovers = {
                labels["shard"]: int(child.value)
                for labels, child in service.metrics.counter(
                    counter,
                    labels=("shard",),
                ).collect()
                if child.value
            }
            replayed = {
                shard_id: result["replayed_ops"]
                for shard_id, result in sorted(service.last_recoveries.items())
            }
            label = "restarts" if args.procs else "failovers"
            print(f"{label:<18}: {failovers or 'none'}")
            print(f"replayed ops      : {replayed or 'none'}")
        if controller is not None:
            status = controller.status()
            taken = [
                "{action} {slot}->{peer}".format(**entry)
                for entry in status["actions"]
                if entry["action"] != "refused"
            ]
            print(f"reshard epoch     : {status['epoch']} "
                  f"(slots {status['active_slots']})")
            print(f"reshard actions   : {', '.join(taken) or 'none'}")

    return _finish_loadtest(args, report, service.metrics)


def _finish_loadtest(args: argparse.Namespace, report, metrics) -> int:
    """Shared loadtest epilogue: report, metric dumps, SLO evaluation."""
    print(report.describe())
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"wrote report -> {args.json_path}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus_text(metrics))
        print(f"wrote metrics (Prometheus text) -> {args.metrics_out}")
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as handle:
            handle.write(to_json(metrics))
        print(f"wrote metrics (JSON) -> {args.metrics_json}")

    slo = ServiceSLO(
        latency_ms=(
            {"search": {95: args.search_p95_ms}} if args.search_p95_ms else {}
        ),
        max_shed_rate=args.max_shed_rate,
        min_match_rate=args.min_match_rate,
    )
    breaches = slo.evaluate(report)
    for breach in breaches:
        print(f"SLO breach: {breach}", file=sys.stderr)
    if breaches:
        return 1
    return 0


def _loadtest_remote(args: argparse.Namespace, region, supply, demand) -> int:
    """Drive a running ``xar serve`` gateway over HTTP."""
    if args.crash_every:
        raise SystemExit("--crash-every cannot target a remote gateway "
                         "(the server owns its own fault injection)")
    if args.supply_seats is not None or args.supply_detour is not None:
        raise SystemExit("--supply-seats/--supply-detour only apply to "
                         "in-process loadtests (the gateway's create API "
                         "uses the server's engine config)")
    client = HttpServiceClient(args.remote, region,
                               deadline_ms=args.deadline_ms)
    try:
        health = client.healthz()
        print(f"gateway {args.remote}: {health}")
        for request in supply:
            client.create(request.source, request.destination,
                          request.window_start_s)
        config = LoadGenConfig(
            workers=args.workers,
            target_qps=args.qps,
            looks_per_book=args.looks,
            create_on_miss=not args.no_create,
            seed=args.seed,
            arrival=args.arrival,
        )
        generator = LoadGenerator(client, demand, config)
        report = generator.run()
    finally:
        client.close()
    return _finish_loadtest(args, report, generator.metrics)


def _serve(args: argparse.Namespace) -> int:
    """Run the process-shard fleet behind the HTTP gateway until SIGTERM."""
    region = load_region(args.region)
    run_dir = args.run_dir or tempfile.mkdtemp(prefix="xar-serve-")
    os.makedirs(run_dir, exist_ok=True)
    service = ProcRouter(
        region,
        SupervisorConfig(
            n_shards=args.shards,
            run_dir=run_dir,
            queue_depth=args.queue_depth,
            fsync_every=args.fsync_every,
            checkpoint_every=args.checkpoint_every,
            seed=args.seed,
        ),
        fanout=args.fanout,
    )
    gateway = Gateway(service, GatewayConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        default_deadline_ms=args.deadline_ms,
    ))
    print(f"spawned {service.n_shards} process shards "
          f"(run dir {run_dir})", file=sys.stderr)
    try:
        gateway.serve_forever(
            on_start=lambda url: print(f"gateway listening on {url}",
                                       file=sys.stderr, flush=True)
        )
    finally:
        service.close()
    return 0


def _metrics(args: argparse.Namespace) -> int:
    """Replay a workload on an instrumented engine, dump the registry."""
    region = load_region(args.region)
    requests = _workload(region.network, args)
    registry = MetricsRegistry()
    engine = XAREngine(region, optimize_insertion=args.optimize,
                       metrics=registry)
    report = RideShareSimulator(XARAdapter(engine)).run(requests)
    if args.format == "prom":
        rendered = to_prometheus_text(registry)
    else:
        rendered = to_json(registry, tracers=[engine.tracer])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(report.describe(), file=sys.stderr)
        print(f"wrote metrics -> {args.out}", file=sys.stderr)
    else:
        print(report.describe(), file=sys.stderr)
        print(rendered)
    return 0


def _compare(args: argparse.Namespace) -> int:
    region = load_region(args.region)
    requests = _workload(region.network, args)
    for adapter in (
        XARAdapter(XAREngine(region)),
        TShareAdapter(TShareEngine(region.network)),
    ):
        report = RideShareSimulator(adapter).run(requests)
        print(report.describe())
        print()
    return 0


def _modes(args: argparse.Namespace) -> int:
    region = load_region(args.region)
    requests = _workload(region.network, args)
    feed = synthetic_feed(region.network, seed=args.seed)
    planner = MultiModalPlanner(feed)
    results = compare_modes(region, planner, requests)
    print("mode     travel(min)  walk(min)  wait(min)   cars")
    for name in ("Taxi", "PT", "RS", "RS+PT"):
        row = results[name].row()
        print(
            f"{name:<8} {row['travel_min']:10.1f} {row['walk_min']:10.1f} "
            f"{row['wait_min']:10.1f} {row['cars']:6.0f}"
        )
    return 0


def _fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: one seeded op sequence, N façades, oracle diff."""
    from .verify import (
        DifferentialHarness,
        FuzzConfig,
        generate_ops,
        save_repro,
        shrink_ops,
    )

    engines = [name.strip() for name in args.engines.split(",") if name.strip()]
    unknown = [name for name in engines if not is_facade_name(name)]
    if unknown:
        print(f"error: unknown façade(s) {', '.join(map(repr, unknown))} in "
              f"--engines (choose from {', '.join(FACADE_NAMES)}; shardN and "
              f"procN take any N >= 1)", file=sys.stderr)
        return 2

    if args.region:
        region = load_region(args.region)
        region_spec = {"region_path": args.region}
    else:
        network = manhattan_city(n_avenues=args.avenues, n_streets=args.streets)
        config = XARConfig.validated(delta_m=args.delta)
        region = build_region(network, config, poi_seed=args.poi_seed)
        region_spec = {
            "avenues": args.avenues,
            "streets": args.streets,
            "delta": args.delta,
            "poi_seed": args.poi_seed,
        }

    fuzz_config = FuzzConfig(seed=args.seed, n_ops=args.ops)
    ops = generate_ops(region, fuzz_config)
    registry = MetricsRegistry()

    def run(sequence):
        harness = DifferentialHarness(
            region,
            engines=engines,
            seed=args.seed,
            audit_every=args.audit_every,
            metrics=registry,
        )
        return harness.run(sequence)

    report = run(ops)
    print(report.describe())
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus_text(registry))
        print(f"wrote metrics (Prometheus text) -> {args.metrics_out}")
    if report.ok:
        return 0

    repro = list(ops)
    if args.shrink:
        print("shrinking the failing sequence (delta debugging) ...",
              file=sys.stderr)
        repro = shrink_ops(ops, lambda candidate: not run(candidate).ok)
        print(f"shrunk {len(ops)} ops -> {len(repro)} ops", file=sys.stderr)
    if args.corpus_out:
        path = save_repro(
            args.corpus_out,
            f"fuzz_seed{args.seed}",
            seed=args.seed,
            engines=engines,
            ops=repro,
            region_spec=region_spec,
            note=report.divergences[0].describe(),
        )
        print(f"wrote repro -> {path}", file=sys.stderr)
    return 1


def _scenario_load(args: argparse.Namespace):
    """Resolve ``run``'s target: a pinned name or a spec file."""
    from .scenarios import ScenarioSpec, pinned_scenario

    if args.spec:
        return ScenarioSpec.load(args.spec)
    if not args.name:
        raise SystemExit("scenario run: give a pinned NAME or --spec FILE")
    return pinned_scenario(args.name)


def _scenario_run(args: argparse.Namespace) -> int:
    """Execute one scenario and print (optionally save) its report."""
    from .scenarios import run_scenario

    spec = _scenario_load(args)
    report = run_scenario(spec)
    # With --canonical, stdout carries only the deterministic JSON (so two
    # runs can be byte-compared); the human-readable report moves to stderr.
    print(report.describe(), file=sys.stderr if args.canonical else sys.stdout)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(include_timing=True), handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote report -> {args.out}")
    if args.canonical:
        sys.stdout.write(report.canonical_json())
    return 0 if report.passed else 1


def _scenario_sweep(args: argparse.Namespace) -> int:
    """Run every pinned scenario; non-zero exit names each red spec+seed."""
    from .scenarios import pinned_names, pinned_scenario, run_scenario

    names = ([name.strip() for name in args.only.split(",") if name.strip()]
             if args.only else pinned_names())
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    failures = []
    for name in names:
        spec = pinned_scenario(name)
        t0 = time.perf_counter()
        report = run_scenario(spec)
        elapsed = time.perf_counter() - t0
        status = "PASS" if report.passed else "FAIL"
        print(f"{status}  {name:<24} facade={spec.facade:<9} "
              f"seed={spec.seed:<3} booked={report.counts['booked']:<4} "
              f"pool={report.counts['max_pool']} ({elapsed:.1f}s)")
        if not report.passed:
            failures.append((name, spec.seed))
            for entry in report.assertions:
                if not entry["ok"]:
                    print(f"      {entry['name']}: {entry['detail']}",
                          file=sys.stderr)
        if args.out_dir:
            path = os.path.join(args.out_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(report.to_dict(include_timing=True), handle,
                          indent=2, sort_keys=True)
                handle.write("\n")
    if failures:
        detail = ", ".join(f"{name} (seed {seed})" for name, seed in failures)
        print(f"scenario sweep FAILED: {detail}", file=sys.stderr)
        print("replay one locally with: "
              f"xar scenario run {failures[0][0]}", file=sys.stderr)
        return 1
    print(f"scenario sweep: {len(names)} scenario(s) green")
    return 0


def _scenario_list(args: argparse.Namespace) -> int:
    """Print the pinned matrix, one row per scenario."""
    from .scenarios import pinned_names, pinned_scenario

    print(f"{'name':<24} {'facade':<9} {'seed':<5} {'city':<18} "
          f"{'requests':<9} overlays")
    for name in pinned_names():
        spec = pinned_scenario(name)
        city = (f"{spec.city.kind} {spec.city.avenues}x{spec.city.streets}")
        overlays = []
        if spec.demand.surge:
            overlays.append("surge")
        if spec.demand.cancel_storm:
            overlays.append("storm")
        if spec.faults.policies:
            overlays.append("faults")
        if spec.faults.crash_every:
            overlays.append("crashes")
        if spec.supply.shift_length_s:
            overlays.append("shifts")
        print(f"{name:<24} {spec.facade:<9} {spec.seed:<5} {city:<18} "
              f"{spec.demand.requests:<9} {','.join(overlays) or '-'}")
    return 0


def _recover(args: argparse.Namespace) -> int:
    """Rebuild an engine from a WAL (+ optional checkpoint) and report."""
    from .resilience.audit import InvariantAuditor

    region = load_region(args.region)
    result = recover_engine(region, args.wal, args.checkpoint)
    engine = result.engine
    print(f"wal               : {args.wal}")
    if args.checkpoint:
        print(f"checkpoint        : {args.checkpoint} "
              f"(covers seq <= {result.checkpoint_seq})")
    print(f"shard             : {result.shard_id}")
    print(f"replayed ops      : {result.replayed_ops} "
          f"(skipped {result.skipped_ops} aborted, "
          f"{result.failed_ops} failed)")
    print(f"torn tail         : {result.torn_tail_bytes} bytes truncated")
    print(f"last seq          : {result.last_seq}")
    print(f"recovered in      : {result.duration_s * 1000.0:.1f} ms")
    with engine.lock:
        print(f"state             : {len(engine.rides)} live rides, "
              f"{len(engine.completed_rides)} completed, "
              f"{len(engine.bookings)} bookings, "
              f"{len(engine.rollbacks)} rollbacks")
    if args.audit:
        audit = InvariantAuditor(engine).audit()
        if audit.ok:
            print("invariant audit   : clean")
        else:
            print(f"invariant audit   : FAILED {audit.by_kind()}",
                  file=sys.stderr)
            return 1
    return 0


def _reshard_slot_files(directory, table):
    """Per active slot: (wal_path, checkpoint_path) the committed routing
    table names (thread and process shards alike).  A service that never
    resharded has no table — fall back to the static layout, flat (thread
    shards) or per-shard-directory (process shards).
    """
    if table is not None:
        return {spec.slot: (spec.wal_path, spec.ckpt_path)
                for spec in table.specs() if spec is not None}
    slots = {}
    slot = 0
    while True:
        flat = os.path.join(directory, f"shard{slot}.wal")
        nested = os.path.join(directory, f"shard{slot}", f"shard{slot}.wal")
        if os.path.exists(flat):
            slots[slot] = (flat, os.path.join(directory, f"shard{slot}.ckpt"))
        elif os.path.exists(nested):
            slots[slot] = (nested, nested[:-4] + ".ckpt")
        else:
            break
        slot += 1
    return slots


def _reshard_status(args: argparse.Namespace) -> int:
    """Pretty-print the committed topology manifest of a durable run dir."""
    manifest = read_topology(topology_path(args.dir))
    if manifest is None:
        print(f"{args.dir}: no topology manifest — static topology "
              "(never resharded, or reshard mode was off)")
        return 0
    entries = sorted(manifest["slots"], key=lambda e: e["slot"])
    active = [e for e in entries if e.get("active")]
    print(f"run dir           : {args.dir}")
    print(f"routing epoch     : {manifest['epoch']}")
    print(f"lane modulus      : {manifest['lane_modulus']} "
          f"(lifetime shard budget)")
    print(f"active slots      : {[e['slot'] for e in active]} "
          f"({len(entries)} ever created)")
    for entry in entries:
        slot = entry["slot"]
        state = "active" if entry.get("active") else "retired"
        print(f"  slot {slot:<3} {state:<8} lane={entry.get('lane', slot)} "
              f"-> {entry.get('wal', '-')}")
    redirect = manifest.get("redirect", {})
    if redirect:
        print(f"merge redirects   : "
              f"{ {int(k): v for k, v in redirect.items()} }")
    homes = manifest.get("ride_homes", {})
    print(f"migrated rides    : {len(homes)} pinned to an explicit home")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        print(f"wrote manifest -> {args.json_path}")
    return 0


def _reshard_verify(args: argparse.Namespace) -> int:
    """Offline exactly-once proof over a (possibly resharded) run dir.

    Replays every active slot's WAL from scratch, audits each recovered
    engine, and checks the cross-slot invariants a reshard must preserve:
    no ride or booking duplicated across slots, and every ride living in
    the slot the committed routing tables say owns it.
    """
    from .resilience.audit import InvariantAuditor

    region = load_region(args.region)
    manifest = read_topology(
        topology_path(args.dir), expected_digest=region_digest(region)
    )
    # Files and ride ownership as the committed routing tables resolve
    # them (a never-resharded dir has no tables to check against).
    table = None if manifest is None else RoutingTable(
        region, 1, layout=ThreadTransport.layout, directory=args.dir,
        reshard=ReshardConfig(max_shards=int(manifest["lane_modulus"])),
    )
    slot_files = _reshard_slot_files(args.dir, table)
    if not slot_files:
        print(f"{args.dir}: no shard WALs found", file=sys.stderr)
        return 1

    failures = []
    ride_seen = {}
    booking_seen = {}
    total_rides = total_bookings = total_replayed = 0
    for slot, (wal, ckpt) in sorted(slot_files.items()):
        result = recover_engine(region, wal, ckpt)
        engine = result.engine
        total_replayed += result.replayed_ops
        audit = InvariantAuditor(engine).audit()
        with engine.lock:
            ride_ids = sorted(set(engine.rides) | set(engine.completed_rides))
            bookings = list(engine.bookings)
        total_rides += len(ride_ids)
        total_bookings += len(bookings)
        print(f"slot {slot:<3}: {result.replayed_ops} ops replayed, "
              f"{len(ride_ids)} rides, {len(bookings)} bookings, "
              f"audit {'clean' if audit.ok else 'FAILED'}")
        if not audit.ok:
            failures.append(f"slot {slot}: invariant audit {audit.by_kind()}")
        for ride_id in ride_ids:
            if ride_id in ride_seen:
                failures.append(
                    f"ride {ride_id} recovered in both slot "
                    f"{ride_seen[ride_id]} and slot {slot}"
                )
            ride_seen[ride_id] = slot
            home = slot if table is None else table.shard_of_ride(ride_id)
            if home != slot:
                failures.append(
                    f"ride {ride_id} recovered in slot {slot} but the "
                    f"routing tables assign it to slot {home}"
                )
        for booking in bookings:
            # A ledger row follows its ride through every carve, and a ride
            # lives in exactly one slot — the same (request, ride) row in
            # two slots means a migration duplicated it.
            key = (booking.request_id, booking.ride_id)
            if key in booking_seen and booking_seen[key] != slot:
                failures.append(
                    f"booking (request {key[0]}, ride {key[1]}) recovered "
                    f"in both slot {booking_seen[key]} and slot {slot} "
                    f"(exactly-once ledger violated)"
                )
            booking_seen.setdefault(key, slot)

    epoch = manifest["epoch"] if manifest is not None else 0
    print(f"topology          : epoch {epoch}, "
          f"{len(slot_files)} active slots")
    print(f"totals            : {total_replayed} ops replayed, "
          f"{total_rides} rides, {total_bookings} bookings")
    if failures:
        print(f"verify FAILED ({len(failures)} violation(s)):",
              file=sys.stderr)
        for failure in failures[:20]:
            print(f"  {failure}", file=sys.stderr)
        if len(failures) > 20:
            print(f"  ... and {len(failures) - 20} more", file=sys.stderr)
        return 1
    print("verify ok         : ledger exact, ownership consistent")
    return 0


def _wal_dump(args: argparse.Namespace) -> int:
    """Dump a WAL frame by frame; flags the torn tail when there is one."""
    try:
        return _wal_dump_frames(args)
    except BrokenPipeError:
        # Output piped into head/less and closed early: not an error.
        # Re-point stdout at devnull so interpreter teardown doesn't
        # trip over the closed pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _wal_fields(record: dict, declared) -> str:
    """A WAL record's declared fields as ``key=value`` (nulls left out); a
    nested request or match is shown by its ids."""
    parts = []
    for key, _codec in declared.fields:
        value = record.get(key)
        if isinstance(value, dict):
            ids = ",".join(f"{name}={item}" for name, item in value.items()
                           if name.endswith("_id"))
            parts.append(f"{key}[{ids}]")
        elif value is not None:
            parts.append(f"{key}={json.dumps(value)}")
    return " ".join(parts)


def _wal_dump_frames(args: argparse.Namespace) -> int:
    torn = False
    frames_seen = 0
    ops_seen = 0
    for frame in iter_frames(args.wal):
        frames_seen += 1
        if not frame.crc_ok:
            torn = True
            print(f"@{frame.offset:<10} TORN TAIL: {frame.error}",
                  file=sys.stderr)
            break
        record = frame.record
        if args.json_lines:
            print(json.dumps(record, sort_keys=True))
            continue
        kind = record.get("kind", "?")
        if kind == "header":
            detail = (f"v{record.get('version')} shard={record.get('shard_id')} "
                      f"lane=({record.get('ride_id_start')},"
                      f"+{record.get('ride_id_step')}) "
                      f"digest={str(record.get('region_digest'))[:12]}")
        elif kind == "abort":
            detail = _wal_fields(record, ABORT)
        elif record.get("op") in WAL_OPS:
            op = record["op"]
            detail = f"{op} {_wal_fields(record, WAL_OPS[op])}"
        else:
            detail = json.dumps(record, sort_keys=True)
        if kind != "header":
            ops_seen += 1
        seq = record.get("seq", "-")
        print(f"@{frame.offset:<10} seq={seq:<6} {kind:<7} {detail}")
    # Empty and header-only logs are *valid* states, not damage: a shard
    # killed before its first write leaves a 0-byte WAL, one killed right
    # after spawn leaves just the header.  Say so explicitly (recovery
    # treats both as "young", and --strict must not fail a healthy fleet).
    if frames_seen == 0:
        print("(empty WAL: no frames yet — shard died before its "
              "first write)")
    elif ops_seen == 0 and not torn and not args.json_lines:
        print("(header only: no operations logged yet)")
    if torn and args.strict:
        return 1
    return 0


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--requests", type=int, default=500)
    parser.add_argument("--start-hour", type=float, default=6.0, dest="start_hour")
    parser.add_argument("--end-hour", type=float, default=12.0, dest="end_hour")
    parser.add_argument("--window", type=float, default=600.0,
                        help="departure window per request, seconds")
    parser.add_argument("--walk", type=float, default=800.0,
                        help="walk threshold per request, metres")
    parser.add_argument("--seed", type=int, default=42)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xar", description="Xhare-a-Ride reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-city", help="generate a synthetic city")
    p.add_argument("output")
    p.add_argument("--kind", choices=["manhattan", "radial", "random"],
                   default="manhattan")
    p.add_argument("--avenues", type=int, default=16)
    p.add_argument("--streets", type=int, default=50)
    p.add_argument("--rings", type=int, default=6)
    p.add_argument("--spokes", type=int, default=12)
    p.add_argument("--nodes", type=int, default=300)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_build_city)

    p = sub.add_parser("build-region", help="pre-process a city into a region")
    p.add_argument("output")
    p.add_argument("--city", help="saved network JSON (default: generate)")
    p.add_argument("--avenues", type=int, default=16)
    p.add_argument("--streets", type=int, default=50)
    p.add_argument("--delta", type=float, default=250.0,
                   help="cluster tightness target delta (m); eps = 4*delta")
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(func=_build_region)

    p = sub.add_parser("info", help="inspect a saved region")
    p.add_argument("region")
    p.set_defaults(func=_info)

    p = sub.add_parser("simulate", help="replay a workload on one engine")
    p.add_argument("region")
    p.add_argument("--engine", choices=["xar", "tshare"], default="xar")
    p.add_argument("--optimize", action="store_true",
                   help="XAR insertion optimization at booking")
    p.add_argument("--faults", default="",
                   help="inject faults, e.g. "
                        "'dropout=0.1,cancel=0.02,corrupt=0.01'")
    p.add_argument("--fault-seed", type=int, default=0, dest="fault_seed")
    p.add_argument("--audit-every", type=float, default=0.0, dest="audit_every",
                   help="invariant-audit cadence in simulated seconds "
                        "(0 disables; audits self-heal and a post-run sweep "
                        "must come back clean)")
    _add_workload_args(p)
    p.set_defaults(func=_simulate)

    p = sub.add_parser(
        "loadtest",
        help="drive the sharded service with the closed-loop load generator",
    )
    p.add_argument("region")
    p.add_argument("--shards", type=int, default=2,
                   help="spatial shards, each with its own engine + worker")
    p.add_argument("--workers", type=int, default=4,
                   help="closed-loop driver threads")
    p.add_argument("--qps", type=float, default=None,
                   help="target offered load (requests/s; default: unpaced)")
    p.add_argument("--looks", type=int, default=0,
                   help="extra look searches per request (look-to-book - 1)")
    p.add_argument("--matcher", choices=["greedy", "batch"], default="greedy",
                   help="assignment mode: per-request greedy (default) or "
                        "windowed batch assignment with swap improvement")
    p.add_argument("--window-ms", type=float, default=500.0, dest="window_ms",
                   help="batch window length in milliseconds "
                        "(--matcher batch)")
    p.add_argument("--batch-max", type=int, default=32, dest="batch_max",
                   help="flush a batch window early at this many requests "
                        "(--matcher batch)")
    p.add_argument("--arrival", choices=["paced", "poisson"], default="paced",
                   help="arrival process when --qps is set: deterministic "
                        "pacing or seeded Poisson bursts")
    p.add_argument("--no-create", action="store_true", dest="no_create",
                   help="do not create rides from unmatched requests (fixed "
                        "supply: matcher comparisons at equal supply)")
    p.add_argument("--queue-depth", type=int, default=128, dest="queue_depth",
                   help="per-shard request queue bound (admission control)")
    p.add_argument("--fanout", choices=["local", "all"], default="local",
                   help="search fan-out: walkable shards only, or all shards "
                        "(full recall)")
    p.add_argument("--prepopulate", type=int, default=0,
                   help="rides created before the measured run (supply)")
    p.add_argument("--supply-seats", type=int, default=None,
                   dest="supply_seats",
                   help="seats per prepopulated ride (default: engine "
                        "config)")
    p.add_argument("--supply-detour", type=float, default=None,
                   dest="supply_detour",
                   help="detour budget in meters per prepopulated ride "
                        "(default: engine config; tighten to create "
                        "contention)")
    p.add_argument("--json", dest="json_path",
                   help="write the load report as JSON to this path")
    p.add_argument("--max-shed-rate", type=float, default=None,
                   dest="max_shed_rate",
                   help="SLO: fail if shed/requests exceeds this")
    p.add_argument("--min-match-rate", type=float, default=None,
                   dest="min_match_rate",
                   help="SLO: fail if matched/requests is below this")
    p.add_argument("--search-p95-ms", type=float, default=None,
                   dest="search_p95_ms",
                   help="SLO: fail if search p95 latency exceeds this (ms)")
    p.add_argument("--metrics-out", dest="metrics_out",
                   help="write the service's metric registry in Prometheus "
                        "text exposition format to this path")
    p.add_argument("--metrics-json", dest="metrics_json",
                   help="write the service's metric registry as JSON to "
                        "this path")
    p.add_argument("--durable", metavar="DIR",
                   help="per-shard write-ahead logs + checkpoints under DIR "
                        "(created if missing); enables crash injection and "
                        "restart recovery")
    p.add_argument("--fsync-every", type=int, default=64, dest="fsync_every",
                   help="WAL appends between fsync barriers (1 = every op; "
                        "batching keeps durable throughput near baseline)")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   dest="checkpoint_every",
                   help="mutations between automatic checkpoints per shard "
                        "(0 = recover from the log alone)")
    p.add_argument("--crash-every", type=int, default=0, dest="crash_every",
                   help="kill a rotating shard worker every N requests "
                        "(requires --durable in thread mode); the supervisor "
                        "must recover each")
    p.add_argument("--reshard", type=int, default=0, metavar="MAX_SHARDS",
                   help="enable elastic resharding with this lifetime shard "
                        "budget (>= --shards); a load-watching controller "
                        "splits hot shards / merges cold ones during the run "
                        "(requires --durable or --procs)")
    p.add_argument("--reshard-interval-ops", type=int, default=400,
                   dest="reshard_interval_ops",
                   help="completed ops between reshard controller decisions "
                        "(volume-gated for reproducible cadence)")
    p.add_argument("--reshard-pressure", type=float, default=1.75,
                   dest="reshard_pressure",
                   help="split the hottest shard when its load ratio (share "
                        "of the active-slot mean) reaches this")
    p.add_argument("--hotspot-frac", type=float, default=0.0,
                   dest="hotspot_frac",
                   help="fraction of request sources relocated onto a few "
                        "hot zones (seeded Zipf over --hotspot-zones); the "
                        "skew a static partition cannot absorb")
    p.add_argument("--hotspot-zones", type=int, default=2,
                   dest="hotspot_zones",
                   help="number of hot zones for --hotspot-frac")
    p.add_argument("--procs", action="store_true",
                   help="process mode: each shard is a supervised subprocess "
                        "behind length-prefixed RPC (--durable names its run "
                        "dir; crash injection sends real SIGKILL)")
    p.add_argument("--remote", metavar="URL",
                   help="drive a running 'xar serve' gateway at URL over "
                        "HTTP instead of an in-process fleet")
    p.add_argument("--deadline-ms", type=int, default=30_000,
                   dest="deadline_ms",
                   help="per-request deadline the HTTP client attaches "
                        "(X-Deadline-Ms; --remote only)")
    _add_workload_args(p)
    p.set_defaults(func=_loadtest)

    p = sub.add_parser(
        "serve",
        help="run the process-shard fleet behind the threaded HTTP gateway "
             "until SIGTERM (drains in-flight requests on shutdown)",
    )
    p.add_argument("region")
    p.add_argument("--shards", type=int, default=4,
                   help="supervised shard subprocesses")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8314,
                   help="listen port (0 picks a free one)")
    p.add_argument("--run-dir", dest="run_dir",
                   help="sockets, per-shard WALs and logs live here "
                        "(default: a fresh temp dir)")
    p.add_argument("--queue-depth", type=int, default=128, dest="queue_depth",
                   help="per-shard request queue bound (admission control)")
    p.add_argument("--fanout", choices=["local", "all"], default="local",
                   help="search fan-out policy")
    p.add_argument("--fsync-every", type=int, default=64, dest="fsync_every",
                   help="WAL appends between fsync barriers per shard")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   dest="checkpoint_every",
                   help="mutations between automatic checkpoints per shard")
    p.add_argument("--max-inflight", type=int, default=64,
                   dest="max_inflight",
                   help="gateway admission bound: concurrent requests "
                        "executing before 'capacity' shedding starts")
    p.add_argument("--deadline-ms", type=int, default=30_000,
                   dest="deadline_ms",
                   help="default request deadline when the caller sends no "
                        "X-Deadline-Ms header")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_serve)

    p = sub.add_parser(
        "metrics",
        help="replay a workload on an instrumented single engine and dump "
             "its metrics (per-stage latency histograms included)",
    )
    p.add_argument("region")
    p.add_argument("--format", choices=["prom", "json"], default="prom",
                   help="exposition format (Prometheus text or JSON)")
    p.add_argument("--out", help="write to this path instead of stdout")
    p.add_argument("--optimize", action="store_true",
                   help="XAR insertion optimization at booking")
    _add_workload_args(p)
    p.set_defaults(func=_metrics)

    p = sub.add_parser("compare", help="XAR vs T-Share on one stream")
    p.add_argument("region")
    _add_workload_args(p)
    p.set_defaults(func=_compare)

    p = sub.add_parser("modes", help="four-transport-mode comparison (Fig. 6)")
    p.add_argument("region")
    _add_workload_args(p)
    p.set_defaults(func=_modes)

    p = sub.add_parser(
        "fuzz",
        help="differential-fuzz engine façades against the brute-force oracle",
    )
    p.add_argument("--region", help="saved region (defaults to a synthetic "
                                    "Manhattan grid built in-process)")
    p.add_argument("--seed", type=int, default=0, help="op-sequence seed")
    p.add_argument("--ops", type=int, default=200,
                   help="number of operations to generate")
    p.add_argument("--engines", default="xar,shard2",
                   help="comma-separated façades to diff against the oracle "
                        f"({', '.join(FACADE_NAMES)}; shardN and procN take "
                        "any N; batch runs relaxed: quality checks only)")
    p.add_argument("--shrink", action="store_true",
                   help="delta-debug a failing sequence to a minimal repro")
    p.add_argument("--corpus-out",
                   help="directory to write the (shrunken) failing repro JSON")
    p.add_argument("--audit-every", type=int, default=50,
                   help="run the invariant auditor every N ops")
    p.add_argument("--metrics-out",
                   help="write fuzz counters (Prometheus text) to this path")
    p.add_argument("--avenues", type=int, default=6,
                   help="synthetic grid avenues (when --region is omitted)")
    p.add_argument("--streets", type=int, default=12,
                   help="synthetic grid streets (when --region is omitted)")
    p.add_argument("--delta", type=float, default=400.0,
                   help="cell size for the synthetic region")
    p.add_argument("--poi-seed", type=int, default=0,
                   help="POI seed for the synthetic region")
    p.set_defaults(func=_fuzz)

    p = sub.add_parser(
        "scenario",
        help="run, sweep or list the declarative scenario matrix",
    )
    scenario_sub = p.add_subparsers(dest="scenario_command", required=True)

    sp = scenario_sub.add_parser(
        "run", help="execute one scenario (pinned name or spec file)"
    )
    sp.add_argument("name", nargs="?",
                    help="pinned scenario name (see 'scenario list')")
    sp.add_argument("--spec", help="JSON/TOML scenario spec file to run "
                                   "instead of a pinned name")
    sp.add_argument("--out", help="write the full report (timing included) "
                                  "as JSON to this path")
    sp.add_argument("--canonical", action="store_true",
                    help="print the canonical (deterministic) report JSON "
                         "to stdout — byte-identical for the same spec+seed")
    sp.set_defaults(func=_scenario_run)

    sp = scenario_sub.add_parser(
        "sweep", help="run every pinned scenario; red exits non-zero and "
                      "names each failing spec+seed"
    )
    sp.add_argument("--out-dir", dest="out_dir",
                    help="write one <name>.json report per scenario here")
    sp.add_argument("--only", help="comma-separated subset of pinned names")
    sp.set_defaults(func=_scenario_sweep)

    sp = scenario_sub.add_parser("list", help="show the pinned matrix")
    sp.set_defaults(func=_scenario_list)

    p = sub.add_parser(
        "recover",
        help="rebuild an engine from a write-ahead log (+ checkpoint) and "
             "report what replay did",
    )
    p.add_argument("region", help="the saved region the WAL was written "
                                  "against (digests must match)")
    p.add_argument("--wal", required=True, help="write-ahead log path")
    p.add_argument("--checkpoint", help="checkpoint path (optional; replay "
                                        "then covers only the log suffix)")
    p.add_argument("--audit", action="store_true",
                   help="run the invariant auditor on the recovered engine "
                        "(non-zero exit on violations)")
    p.set_defaults(func=_recover)

    p = sub.add_parser(
        "reshard",
        help="inspect or verify the elastic-resharding state of a durable "
             "run directory",
    )
    reshard_sub = p.add_subparsers(dest="reshard_cmd", required=True)

    sp = reshard_sub.add_parser(
        "status",
        help="pretty-print the committed topology manifest (epoch, slots, "
             "lanes, redirects)",
    )
    sp.add_argument("dir", help="durable run directory (--durable DIR / "
                                "proc run dir)")
    sp.add_argument("--json", dest="json_path",
                    help="also write the raw manifest as JSON to this path")
    sp.set_defaults(func=_reshard_status)

    sp = reshard_sub.add_parser(
        "verify",
        help="offline exactly-once proof: replay every active slot's WAL, "
             "audit each engine, check cross-slot ownership and ledger "
             "uniqueness (non-zero exit on violation)",
    )
    sp.add_argument("region", help="the saved region the WALs were written "
                                   "against (digests must match)")
    sp.add_argument("dir", help="durable run directory")
    sp.set_defaults(func=_reshard_verify)

    p = sub.add_parser(
        "wal-dump",
        help="dump a write-ahead log frame by frame (torn tails flagged)",
    )
    p.add_argument("wal", help="write-ahead log path")
    p.add_argument("--json-lines", action="store_true", dest="json_lines",
                   help="one raw JSON record per line instead of summaries")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero when the log has a torn tail")
    p.set_defaults(func=_wal_dump)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
