"""``repro-study`` command-line interface.

Subcommands:

* ``generate`` — build the synthetic dataset (snapshots + dictionaries)
  into a :class:`~repro.collector.store.DatasetStore` directory;
* ``analyze``  — run the paper's analyses over a store (or directly over
  freshly generated snapshots) and print the figures/tables;
* ``serve``    — start a Looking Glass HTTP server over a generated
  route server, for interactive poking / the scraping example;
* ``api``      — serve the study itself over HTTP: a read-only JSON
  query API (tables, figures, per-IXP aggregates) over a collected
  store, with content-addressed ETags, a bounded response cache, and
  a pre-fork worker pool (``--workers N``); bodies are byte-identical
  to ``export --json`` output;
* ``sanitise`` — run the §3 valley sanitation over a store and report
  what would be removed;
* ``campaign`` — run a fault-tolerant collection campaign against a
  Looking Glass URL (checkpointed; re-run with ``--resume`` to pick up
  an interrupted collection at the last completed peer; SIGINT/SIGTERM
  park the run gracefully with exit code 2; ``--io async`` lets
  ``--max-inflight`` peers and route pages run at once on each mount's
  event loop and ``--dispatch N`` shards mounts over worker
  processes — snapshot bytes are identical to a serial run either
  way);
* ``fsck``     — verify every artefact in a store against its manifest
  and embedded checksums; ``--repair`` quarantines damaged files
  (never deletes) and rebuilds the manifest. Exit 0 = clean,
  1 = damage found;
* ``convert``  — re-encode stored snapshots between payload codecs
  (``--to json`` / ``--to columnar``) in place; each rewrite is
  verified to round-trip to the identical snapshot before the
  original is replaced, so exported analyses stay byte-identical;
* ``export``   — write every figure/table's data as CSV (and optionally
  one JSON bundle) for external plotting;
* ``metrics``  — fetch a running LG's ``/metrics`` endpoint, validate
  the Prometheus exposition format, and print it (used by CI to fail
  on malformed output).

``analyze`` is also reachable as ``pipeline``. Both it and ``campaign``
accept ``--metrics-out PATH`` to enable the :mod:`repro.obs` registry
and dump a JSON run report (metrics snapshot + trace summary) on exit —
including campaign exits that park incomplete targets for ``--resume``.

Store and I/O failures print a one-line diagnostic and exit 1 instead
of a raw traceback.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, List, Optional, Sequence

from . import obs
from .collector import DatasetStore, IntegrityError, sanitise_store
from .core import Study
from .core.report import format_table, render_share_bars
from .ixp import ALL_IXPS, LARGE_FOUR, get_profile
from .workload import ScenarioConfig, SnapshotGenerator, weekly_days


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ixps", nargs="+", default=list(LARGE_FOUR),
                        choices=list(ALL_IXPS), metavar="IXP",
                        help="IXP keys (default: the four largest)")
    parser.add_argument("--families", nargs="+", type=int, default=[4, 6],
                        choices=[4, 6], help="address families")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="population scale vs the paper (default 0.05)")
    parser.add_argument("--seed", type=int, default=20211004)


def _guarded(func: Callable[[argparse.Namespace], int]
             ) -> Callable[[argparse.Namespace], int]:
    """Turn store/IO failures into a one-line diagnostic + exit 1.

    Campaign park exits (2) and other deliberate return codes pass
    through untouched; only exceptions are translated.
    """
    @functools.wraps(func)
    def wrapper(args: argparse.Namespace) -> int:
        try:
            return func(args)
        except IntegrityError as error:
            where = f" [{error.path}]" if error.path else ""
            print(f"error: dataset damage ({error.damage_class})"
                  f"{where}: {error}", file=sys.stderr)
            return 1
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    return wrapper


def _report_damage(damaged: Sequence) -> None:
    for record in damaged:
        print(f"warning: quarantined damaged artefact "
              f"{record.original} ({record.damage_class}) — treated "
              f"as a missing day", file=sys.stderr)


def _dump_metrics(args: argparse.Namespace, kind: str,
                  meta: Optional[dict] = None) -> None:
    """Write the run report for ``--metrics-out`` (when given)."""
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    report = obs.build_run_report(kind, meta=meta or {},
                                 registry=obs.get_registry(),
                                 tracer=obs.get_tracer())
    obs.write_run_report(path, report)
    print(f"wrote metrics report to {path}")


def cmd_generate(args: argparse.Namespace) -> int:
    store = DatasetStore(args.store)
    config = ScenarioConfig(scale=args.scale, seed=args.seed)
    for ixp in args.ixps:
        generator = SnapshotGenerator(get_profile(ixp), config)
        store.save_dictionary(ixp, generator.dictionary)
        days = weekly_days() if args.weekly else range(args.days)
        for family in args.families:
            for day in days:
                snapshot = generator.snapshot(
                    family, day, degraded=None if args.failures else False)
                path = store.save_snapshot(snapshot)
                print(f"wrote {path}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.metrics_out:
        obs.enable()
    try:
        return _run_analyze(args)
    finally:
        _dump_metrics(args, "pipeline",
                      meta={"ixps": list(args.ixps),
                            "families": list(args.families),
                            "store": args.store})


def _run_analyze(args: argparse.Namespace) -> int:
    if args.store:
        from .core.engine import AggregateCache

        store = DatasetStore(args.store)
        damaged: list = []
        cache = None if args.no_cache else AggregateCache(store)
        study = Study.from_store(store, args.ixps, args.families,
                                 damaged=damaged, jobs=args.jobs,
                                 cache=cache)
        _report_damage(damaged)
    else:
        study = Study.synthetic(ixps=args.ixps, families=args.families,
                                scale=args.scale, seed=args.seed,
                                jobs=args.jobs)

    print(format_table(study.table1(), title="Table 1 — IXPs in numbers"))
    for family in args.families:
        print(f"\n== IPv{family} ==")
        print(render_share_bars(
            study.ixp_defined_vs_unknown(family), "ixp",
            ["defined_share", "unknown_share"]))
        print(render_share_bars(
            study.action_vs_informational(family), "ixp",
            ["action_share", "informational_share"]))
        print(format_table(study.ases_using_actions(family),
                           title=f"Fig. 4a (IPv{family})"))
        print(format_table(study.ineffective_summary(family),
                           title=f"§5.5 ineffective shares (IPv{family})"))
    if args.store and obs.enabled():
        # attach the pipeline's self-measurement to the dataset it read
        store = DatasetStore(args.store)
        path = store.save_run_report(
            "analyze", obs.build_run_report(
                "pipeline", meta={"ixps": list(args.ixps),
                                  "families": list(args.families)}))
        print(f"attached metrics report: {path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .lg import LookingGlassServer

    if not args.no_metrics:
        obs.enable()  # makes the LG's /metrics endpoint live
    config = ScenarioConfig(scale=args.scale, seed=args.seed)
    mounts = {}
    for ixp in args.ixps:
        generator = SnapshotGenerator(get_profile(ixp), config)
        for family in args.families:
            print(f"populating {ixp} v{family} ...", flush=True)
            mounts[(ixp, family)] = generator.populated_route_server(family)
    server = LookingGlassServer(mounts, port=args.port,
                                failure_rate=args.failure_rate)
    url = server.start()
    print(f"Looking glass serving at {url}")
    for (ixp, family) in mounts:
        print(f"  {url}/{ixp}/v{family}/api/v1/neighbors")
    if not args.no_metrics:
        print(f"  {url}/metrics")
    _wait_for_shutdown()
    server.stop()
    return 0


def _wait_for_shutdown() -> None:
    """Block until SIGINT/SIGTERM (signal-driven — no polling loop).

    Shared by ``serve`` and ``api``: both are "run until told to stop"
    commands, and both must honour SIGTERM (what process supervisors
    and CI send) exactly like Ctrl-C, so a drain actually runs instead
    of the process being killed mid-response.
    """
    from .net import ShutdownLatch

    latch = ShutdownLatch()
    restore = latch.install()
    try:
        latch.wait()
    except KeyboardInterrupt:
        pass  # latch couldn't claim the signal (non-main thread)
    finally:
        restore()


def cmd_api(args: argparse.Namespace) -> int:
    from .query import (
        PreforkServer,
        QueryHTTPServer,
        QueryService,
        ResponseCache,
    )

    if not args.no_metrics:
        obs.enable()  # inherited across fork: every worker is live
    # fail fast (before binding or forking) on an unreadable store
    DatasetStore(args.store).ixps()
    ixps = args.ixps or None

    def factory(sock) -> QueryHTTPServer:
        # runs post-fork, in the worker: own store handles, own
        # response cache, own rate limiter.
        service = QueryService(
            DatasetStore(args.store), ixps=ixps,
            families=tuple(args.families), jobs=args.jobs,
            response_cache=ResponseCache(
                max_entries=args.cache_entries,
                max_bytes=args.cache_bytes))
        return QueryHTTPServer(
            service, rate_per_second=args.rate, burst=args.burst,
            max_inflight=args.max_inflight, sock=sock)

    supervisor = PreforkServer(
        factory, host=args.host, port=args.port, workers=args.workers,
        prefer_reuse_port=not args.no_reuse_port)
    return supervisor.run()


def cmd_sanitise(args: argparse.Namespace) -> int:
    store = DatasetStore(args.store)
    for ixp in args.ixps:
        for family in args.families:
            report = sanitise_store(store, ixp, family)
            if not (report.kept or report.removed
                    or report.quarantined):
                continue
            line = (f"{ixp} v{family}: kept {len(report.kept)}, removed "
                    f"{len(report.removed)} "
                    f"({report.removed_fraction * 100:.1f}%)")
            if report.quarantined:
                line += (f", {len(report.quarantined)} quarantined "
                         f"(missing days)")
            print(line)
            for original in report.quarantined:
                print(f"  quarantined damaged snapshot: {original}")
            for snapshot in report.removed:
                reason = report.reasons[snapshot.key]
                print(f"  valley in {reason}: {snapshot.key}")
                if args.delete:
                    store.delete_snapshot(
                        snapshot.ixp, snapshot.family, snapshot.captured_on)
    return 0


def _run_dispatch(args: argparse.Namespace,
                  store: DatasetStore) -> int:
    """The ``campaign --dispatch N`` path: shard (IXP, family, day)
    units across worker processes under lease-based claims. Exit codes
    mirror the serial campaign: 0 = every unit published, 2 = units
    still claimable (re-run to continue), 1 = units abandoned."""
    from .collector.dispatch import (
        DispatchConfig,
        DispatchCoordinator,
        WorkUnit,
    )
    from .collector.campaign import utc_today

    date = args.date or utc_today()
    units = [WorkUnit(ixp=ixp, family=family, date=date,
                      dialect=args.dialect)
             for ixp in args.ixps for family in args.families]
    config = DispatchConfig(
        base_url=args.url.rstrip("/"),
        units=units,
        workers=args.dispatch,
        lease_ttl=args.lease_ttl,
        peer_attempts=args.peer_attempts,
        snapshot_deadline=args.deadline,
        checkpoint_every=args.checkpoint_every,
        io=args.io,
        max_inflight=args.max_inflight,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        max_retries=args.max_retries,
        request_timeout=args.timeout,
        host_id=args.host_id,
        clock_skew_budget=args.clock_skew_budget,
        snapshot_codec=args.snapshot_format,
    )
    if args.metrics_out:
        obs.enable()
    report = None
    try:
        report = DispatchCoordinator(store, config).run()
        print(report.format_summary())
        if report.fsck_clean is False:
            print("merged store failed the fsck audit — run "
                  "`repro-study fsck --repair`", file=sys.stderr)
            return 1
        if report.complete:
            return 0
        return 2 if report.resumable else 1
    finally:
        _dump_metrics(args, "dispatch",
                      meta=report.to_dict() if report is not None
                      else {"url": config.base_url, "aborted": True})


def cmd_campaign(args: argparse.Namespace) -> int:
    from .collector.campaign import (
        CampaignConfig,
        CampaignTarget,
        CollectionCampaign,
        install_shutdown_handlers,
    )

    store = DatasetStore(args.store,
                         snapshot_codec=args.snapshot_format)
    if args.dispatch:
        return _run_dispatch(args, store)
    targets = [CampaignTarget(ixp=ixp, family=family,
                              dialect=args.dialect)
               for ixp in args.ixps for family in args.families]
    config = CampaignConfig(
        base_url=args.url.rstrip("/"),
        targets=targets,
        captured_on=args.date,
        peer_attempts=args.peer_attempts,
        snapshot_deadline=args.deadline,
        checkpoint_every=args.checkpoint_every,
        io=args.io,
        max_inflight=args.max_inflight,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
        max_retries=args.max_retries,
        request_timeout=args.timeout,
    )
    campaign = CollectionCampaign(store, config)
    if args.metrics_out:
        obs.enable()
    # SIGINT/SIGTERM flush a checkpoint and park resumable (exit 2)
    # instead of tearing mid-write; a second signal hard-stops.
    restore_signals = install_shutdown_handlers(campaign)
    report = None
    try:
        report = campaign.run(resume=args.resume)
        print(report.format_summary())
        if report.interrupted:
            print("shutdown requested — progress checkpointed; "
                  "re-run with --resume to continue")
            return 2
        if report.resumable:
            print("incomplete targets parked as checkpoints — "
                  "re-run with --resume to continue")
            return 2
        return 0 if all(t.status != "failed" for t in report.targets) else 1
    finally:
        restore_signals()
        # runs on every exit path, including parked (exit 2) campaigns,
        # so an interrupted collection still leaves its metrics behind
        _dump_metrics(args, "campaign",
                      meta=report.to_dict() if report is not None
                      else {"url": config.base_url, "aborted": True})


def cmd_metrics(args: argparse.Namespace) -> int:
    import json as _json
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/metrics"
    try:
        with urllib.request.urlopen(url, timeout=args.timeout) as response:
            text = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as error:
        print(f"metrics fetch failed: {error}", file=sys.stderr)
        return 1
    try:
        families = obs.parse_prometheus(text)
    except obs.ExpositionFormatError as error:
        print(f"malformed exposition output: {error}", file=sys.stderr)
        return 1
    if args.json:
        payload = {
            name: {"type": family["type"],
                   "samples": [
                       {"name": sample_name, "labels": labels,
                        "value": value}
                       for sample_name, labels, value
                       in family["samples"]]}
            for name, family in families.items()}
        print(_json.dumps(payload, indent=1, sort_keys=True))
    elif not args.quiet:
        sys.stdout.write(text)
    print(f"# exposition OK: {len(families)} metric families",
          file=sys.stderr)
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    import json as _json

    from .collector import fsck_store
    from .collector.fsck import DEFAULT_RECLAIM_AGE

    store = DatasetStore(args.store)
    reclaim_age = (DEFAULT_RECLAIM_AGE if args.reclaim_age is None
                   else args.reclaim_age)
    report = fsck_store(store, repair=args.repair,
                        reclaim_age=reclaim_age)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.format_summary())
    return 0 if report.clean else 1


def cmd_convert(args: argparse.Namespace) -> int:
    store = DatasetStore(args.store)
    ixps = args.ixps or store.ixps()
    families = args.families or [4, 6]
    converted = unchanged = damaged = 0
    for ixp in ixps:
        for family in families:
            for date in store.snapshot_dates(ixp, family):
                try:
                    _path, changed = store.convert_snapshot(
                        ixp, family, date, args.to)
                except IntegrityError as error:
                    damaged += 1
                    where = f" [{error.path}]" if error.path else ""
                    print(f"warning: {ixp}/v{family}/{date} damaged "
                          f"({error.damage_class}){where} — "
                          f"quarantined, not converted",
                          file=sys.stderr)
                    continue
                if changed:
                    converted += 1
                    if not args.quiet:
                        print(f"converted {ixp}/v{family}/{date} "
                              f"-> {args.to}")
                else:
                    unchanged += 1
    print(f"convert: {converted} converted, {unchanged} already "
          f"{args.to}, {damaged} damaged")
    return 1 if damaged else 0


def cmd_export(args: argparse.Namespace) -> int:
    from .core.export import export_study_csv, export_study_json

    if args.store:
        store = DatasetStore(args.store)
        damaged: list = []
        study = Study.from_store(store, args.ixps, args.families,
                                 damaged=damaged)
        _report_damage(damaged)
    else:
        study = Study.synthetic(ixps=args.ixps, families=args.families,
                                scale=args.scale, seed=args.seed)
    paths = export_study_csv(study, args.out, families=args.families)
    for path in paths:
        print(f"wrote {path}")
    if args.json:
        print(f"wrote {export_study_json(study, args.json, args.families)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset")
    _add_common(p_gen)
    p_gen.add_argument("--store", required=True, help="dataset directory")
    p_gen.add_argument("--weekly", action="store_true",
                       help="one snapshot per week (12) instead of daily")
    p_gen.add_argument("--days", type=int, default=84,
                       help="daily snapshots to generate (without --weekly)")
    p_gen.add_argument("--failures", action="store_true",
                       help="inject LG collection failures (§3 valleys)")
    p_gen.set_defaults(func=_guarded(cmd_generate))

    p_ana = sub.add_parser("analyze", aliases=["pipeline"],
                           help="run the paper's analyses")
    _add_common(p_ana)
    p_ana.add_argument("--store", help="dataset directory (else generate "
                                       "in memory)")
    p_ana.add_argument("--metrics-out", metavar="PATH",
                       help="enable observability and write a JSON "
                            "metrics run report here on exit")
    p_ana.add_argument("--jobs", type=int, default=1,
                       help="aggregation worker processes (default 1 = "
                            "serial; results are value-identical "
                            "either way)")
    p_ana.add_argument("--no-cache", action="store_true",
                       help="skip the store's aggregate cache and "
                            "recompute from route data (with --store; "
                            "output is identical, only slower)")
    p_ana.set_defaults(func=_guarded(cmd_analyze))

    p_srv = sub.add_parser("serve", help="serve a Looking Glass")
    _add_common(p_srv)
    p_srv.add_argument("--port", type=int, default=8642)
    p_srv.add_argument("--failure-rate", type=float, default=0.0)
    p_srv.add_argument("--no-metrics", action="store_true",
                       help="leave observability off (/metrics reports "
                            "'disabled')")
    p_srv.set_defaults(func=cmd_serve)

    p_api = sub.add_parser(
        "api", help="serve the study as a read-only JSON query API "
                    "over a collected store")
    p_api.add_argument("--store", required=True, help="dataset directory")
    p_api.add_argument("--ixps", nargs="+", default=[],
                       choices=list(ALL_IXPS), metavar="IXP",
                       help="IXP keys to serve (default: every IXP "
                            "present in the store)")
    p_api.add_argument("--families", nargs="+", type=int, default=[4, 6],
                       choices=[4, 6], help="address families")
    p_api.add_argument("--host", default="127.0.0.1")
    p_api.add_argument("--port", type=int, default=8700,
                       help="listening port (0 = any free port)")
    p_api.add_argument("--workers", type=int, default=2,
                       help="pre-fork worker processes sharing the "
                            "port (1 = serve in-process)")
    p_api.add_argument("--jobs", type=int, default=1,
                       help="aggregation worker processes per study "
                            "rebuild (as for analyze --jobs)")
    p_api.add_argument("--rate", type=float, default=500.0,
                       help="sustained requests/second budget per "
                            "worker before 429s")
    p_api.add_argument("--burst", type=int, default=500,
                       help="rate-limiter burst size per worker")
    p_api.add_argument("--max-inflight", type=int, default=64,
                       help="concurrent requests per worker before "
                            "503 overload shedding")
    p_api.add_argument("--cache-entries", type=int, default=256,
                       help="response-cache entry budget per worker")
    p_api.add_argument("--cache-bytes", type=int,
                       default=64 * 1024 * 1024,
                       help="response-cache byte budget per worker")
    p_api.add_argument("--no-reuse-port", action="store_true",
                       help="force the inherited-FD worker model even "
                            "where SO_REUSEPORT is available")
    p_api.add_argument("--no-metrics", action="store_true",
                       help="leave observability off (/metrics reports "
                            "'disabled')")
    p_api.set_defaults(func=_guarded(cmd_api))

    p_san = sub.add_parser("sanitise", help="run §3 valley sanitation")
    _add_common(p_san)
    p_san.add_argument("--store", required=True)
    p_san.add_argument("--delete", action="store_true",
                       help="actually delete valley snapshots")
    p_san.set_defaults(func=_guarded(cmd_sanitise))

    p_camp = sub.add_parser(
        "campaign", help="run a fault-tolerant collection campaign")
    p_camp.add_argument("--ixps", nargs="+", default=list(LARGE_FOUR),
                        choices=list(ALL_IXPS), metavar="IXP",
                        help="IXP keys (default: the four largest)")
    p_camp.add_argument("--families", nargs="+", type=int, default=[4, 6],
                        choices=[4, 6], help="address families")
    p_camp.add_argument("--url", required=True,
                        help="Looking Glass base URL (see `serve`)")
    p_camp.add_argument("--store", required=True,
                        help="dataset directory for snapshots "
                             "and checkpoints")
    p_camp.add_argument("--date", help="snapshot date (default: today)")
    p_camp.add_argument("--resume", action="store_true",
                        help="continue from checkpoints; skip dates "
                             "already collected")
    p_camp.add_argument("--deadline", type=float, default=None,
                        help="per-snapshot wall-clock budget, seconds")
    p_camp.add_argument("--peer-attempts", type=int, default=2,
                        help="collection attempts per peer")
    p_camp.add_argument("--max-retries", type=int, default=3,
                        help="HTTP retries per request")
    p_camp.add_argument("--timeout", type=float, default=30.0,
                        help="HTTP request timeout, seconds")
    p_camp.add_argument("--breaker-threshold", type=int, default=3,
                        help="consecutive failures that open the "
                             "circuit breaker")
    p_camp.add_argument("--breaker-reset", type=float, default=5.0,
                        help="seconds before an open breaker probes")
    p_camp.add_argument("--checkpoint-every", type=int, default=1,
                        help="persist a checkpoint every N peers")
    p_camp.add_argument("--io", choices=("serial", "async"),
                        default="serial",
                        help="in-flight bound per mount: 'serial' "
                             "fetches one peer and one page at a time "
                             "over one connection, 'async' allows "
                             "--max-inflight of each (snapshots are "
                             "byte-identical either way)")
    p_camp.add_argument("--max-inflight", type=int, default=32,
                        help="concurrent peers and page fetches (and "
                             "at most that many connections) under "
                             "--io async; serial means 1")
    p_camp.add_argument("--dispatch", type=int, default=0, metavar="N",
                        help="shard units across N worker processes "
                             "under lease-based claims (0 = run "
                             "in-process; survives kill -9 of any "
                             "worker — re-run to continue)")
    p_camp.add_argument("--lease-ttl", type=float, default=15.0,
                        help="dispatch lease TTL, seconds; an "
                             "unrenewed lease older than this is "
                             "stolen by an idle worker")
    p_camp.add_argument("--host-id", default=None, metavar="NAME",
                        help="host name written into dispatch lease "
                             "identities (default: the machine's "
                             "hostname); give each host sharing one "
                             "store a distinct name")
    p_camp.add_argument("--clock-skew-budget", type=float, default=0.0,
                        metavar="SECONDS",
                        help="how far another host's wall clock may "
                             "run ahead before its lease renewals are "
                             "distrusted and judged by monotonic "
                             "observation instead (multi-host "
                             "dispatch; 0 = trust wall clocks)")
    p_camp.add_argument("--dialect", default="alice",
                        choices=["alice", "birdseye"],
                        help="LG API dialect")
    p_camp.add_argument("--snapshot-format", default="json",
                        choices=["json", "columnar"],
                        help="payload codec for written snapshots; "
                             "reads auto-detect, so mixed stores are "
                             "fine (see `convert` to migrate)")
    p_camp.add_argument("--metrics-out", metavar="PATH",
                        help="enable observability and write a JSON "
                             "metrics run report here on exit (also on "
                             "parked/resumable exits)")
    p_camp.set_defaults(func=_guarded(cmd_campaign))

    p_met = sub.add_parser(
        "metrics", help="fetch and validate a Looking Glass /metrics "
                        "exposition")
    p_met.add_argument("--url", required=True,
                       help="Looking Glass base URL (see `serve`)")
    p_met.add_argument("--timeout", type=float, default=10.0,
                       help="HTTP timeout, seconds")
    p_met.add_argument("--json", action="store_true",
                       help="print the parsed families as JSON instead "
                            "of the raw exposition text")
    p_met.add_argument("--quiet", action="store_true",
                       help="validate only; do not print the payload")
    p_met.set_defaults(func=cmd_metrics)

    p_exp = sub.add_parser("export", help="export figure/table data")
    _add_common(p_exp)
    p_exp.add_argument("--store", help="dataset directory (else generate "
                                       "in memory)")
    p_exp.add_argument("--out", required=True, help="CSV output directory")
    p_exp.add_argument("--json", help="also write one JSON bundle here")
    p_exp.set_defaults(func=_guarded(cmd_export))

    p_fsck = sub.add_parser(
        "fsck", help="verify a store's artefacts; --repair quarantines "
                     "damage and rebuilds the manifests")
    p_fsck.add_argument("--store", required=True, help="dataset directory")
    p_fsck.add_argument("--repair", action="store_true",
                        help="move damaged artefacts to quarantine/ "
                             "(never deletes) and rebuild manifests")
    p_fsck.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    p_fsck.add_argument("--reclaim-age", type=float,
                        default=None, metavar="SECONDS",
                        help="age past which orphaned dispatch state "
                             "(leases/, staging/) is reported and, "
                             "with --repair, reclaimed "
                             "(default: 7 days)")
    p_fsck.set_defaults(func=_guarded(cmd_fsck))

    p_con = sub.add_parser(
        "convert", help="re-encode stored snapshots between payload "
                        "codecs in place (json <-> columnar); every "
                        "rewrite is round-trip-verified first and "
                        "analysis output is byte-identical")
    p_con.add_argument("--store", required=True, help="dataset directory")
    p_con.add_argument("--to", required=True,
                       choices=["json", "columnar"],
                       help="target payload codec")
    p_con.add_argument("--ixps", nargs="+", default=None,
                       metavar="IXP",
                       help="limit to these IXP keys (default: every "
                            "IXP in the store)")
    p_con.add_argument("--families", nargs="+", type=int, default=None,
                       choices=[4, 6],
                       help="limit to these address families")
    p_con.add_argument("--quiet", action="store_true",
                       help="print only the final summary line")
    p_con.set_defaults(func=_guarded(cmd_convert))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
