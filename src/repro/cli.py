"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Generate a community, replay it, and print a tour of every feature
    (what the VLDB demo session would have shown).
``generate``
    Generate a workload and print its statistics (corpus, graph, events).
``queries``
    Answer the six §1 motivating queries for one simulated user.
``stats``
    Replay a workload, run the daemons to quiescence, and print one
    ``repro top`` frame of the replayed server (``--json``: the
    ``metrics_pull`` and ``health`` payloads).
``experiments``
    Print the experiment index (what each benchmark reproduces).
``serve``
    Replay a workload, then serve the system over TCP (the framed wire
    protocol) with a threaded worker pool, ticking the background
    daemons between requests.  Connect with
    :class:`repro.server.transport.SocketTransport`.
``top``
    Live plain-text dashboard against a running router or server:
    cluster req/s, exact merged p50/p99 per servlet, shard health and
    restart counts, cache hit rates, storage activity, SLO burn rates.
``trace``
    Reassemble one trace id's cross-shard span tree from the JSONL
    streams the workers and router ship under ``--data-dir``.
``logs``
    Print (or ``--follow``) the merged shipped log streams, optionally
    filtered to one trace id or a minimum severity.
"""

from __future__ import annotations

import argparse
import sys

from .core import MemexSystem, MotivatingQueries
from .core.community import consolidate
from .webgen import build_workload, link_topic_locality


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--users", type=int, default=8)
    parser.add_argument("--days", type=float, default=30.0)
    parser.add_argument("--pages-per-leaf", type=int, default=15)


def _build(args: argparse.Namespace):
    return build_workload(
        seed=args.seed, num_users=args.users, days=args.days,
        pages_per_leaf=args.pages_per_leaf,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    workload = _build(args)
    print(f"taxonomy leaves : {len(workload.root.leaves())}")
    print(f"pages           : {len(workload.corpus)}")
    fronts = sum(1 for p in workload.corpus.pages.values() if p.front_page)
    print(f"  front pages   : {fronts}")
    print(f"links           : {workload.graph.number_of_edges()}")
    print(f"  topic locality: {link_topic_locality(workload.corpus, workload.graph):.2f}")
    print(f"users           : {len(workload.profiles)}")
    print(f"events          : {len(workload.events)}")
    from .server.events import BookmarkEvent, VisitEvent
    visits = sum(1 for e in workload.events if isinstance(e, VisitEvent))
    bms = sum(1 for e in workload.events if isinstance(e, BookmarkEvent))
    print(f"  visits        : {visits}")
    print(f"  bookmarks     : {bms}")
    return 0


def _replayed_system(args: argparse.Namespace):
    workload = _build(args)
    system = MemexSystem.from_workload(workload)
    print(f"replaying {len(workload.events)} events ...", file=sys.stderr)
    system.replay(workload.events)
    return workload, system


def cmd_demo(args: argparse.Namespace) -> int:
    workload, system = _replayed_system(args)
    user = workload.profiles[0]
    applet = system.connect(user.user_id)
    top_topic = max(user.interests.items(), key=lambda kv: kv[1])[0]
    leaf = workload.root.find(top_topic)
    query = " ".join(leaf.seed_terms[:2])

    print(f"\n# search {query!r}")
    for hit in applet.search(query, k=5):
        print(f"  {hit['score']:6.2f}  {hit['url']}")

    print(f"\n# hybrid search {query!r} (lexical + dense + trail fusion)")
    hybrid = applet.search(query, k=5, mode="hybrid")
    for hit in hybrid:
        print(f"  {hit['score']:6.4f}  {hit['url']}")

    if hybrid:
        seed = hybrid[0]["url"]
        print(f"\n# related pages for {seed}")
        for row in applet.related_pages(seed, k=5):
            title = row.get("title") or ""
            print(f"  {row['score']:6.4f}  {row['url']}  {title}")

    folder = user.folder_for_topic(top_topic)
    print(f"\n# trail tab for [{folder}]")
    trail = applet.trail_view(folder)["trail"]
    for node in trail["nodes"][:5]:
        print(f"  score={node['score']:5.2f}  {node['url']}")

    print("\n# community themes")
    report = consolidate(system.server)
    if report is not None:
        print(report.render(max_themes=12))

    print("\n# similar users")
    for row in applet.similar_users(k=3):
        print(f"  {row['user_id']}  {row['similarity']:.2f}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .obs import render_dashboard

    workload, system = _replayed_system(args)
    server = system.server
    server.process_background_work()
    # Exercise the read path twice so the report shows servlet latencies
    # and read-cache hit rates, not just ingest-side counters.
    for _ in range(2):
        for profile in workload.profiles[:2]:
            applet = system.connect(profile.user_id)
            top = max(profile.interests.items(), key=lambda kv: kv[1])[0]
            leaf = workload.root.find(top)
            applet.search(" ".join(leaf.seed_terms[:2]), k=5)
            applet.trail_view(profile.folder_for_topic(top))
    pull = server.registry.dispatch({"servlet": "metrics_pull"})
    health = server.registry.dispatch({"servlet": "health"})
    if args.json:
        payload = {"metrics_pull": pull, "health": health}
        if args.logs:
            payload["logs"] = server.logs.to_payload()
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return 0
    print(render_dashboard(pull, health=health))
    if args.logs:
        print("\nstructured log (JSON lines)")
        print(server.logs.render_jsonl())
    return 0


def cmd_queries(args: argparse.Namespace) -> int:
    workload, system = _replayed_system(args)
    profile = next(
        (p for p in workload.profiles if p.user_id == args.user),
        workload.profiles[0],
    )
    top_topic = max(profile.interests.items(), key=lambda kv: kv[1])[0]
    leaf = workload.root.find(top_topic)
    queries = MotivatingQueries(system.server)
    answers = queries.answer_all(
        profile.user_id,
        topical_query=" ".join(leaf.seed_terms[:3]),
        folder_path=profile.folder_for_topic(top_topic),
    )
    for name, answer in answers.items():
        print(f"\n== {name}: {answer.question}")
        for row in answer.results[:3]:
            print(f"   {row}")
    return 0


EXPERIMENTS = [
    ("E1", "benchmarks/test_e1_classifier_accuracy.py",
     "Text-only 40% -> enhanced 80% classification (the §4 claim)"),
    ("E2", "benchmarks/test_e2_folder_learning.py",
     "Figure 1: corrections improve the classifier"),
    ("E3", "benchmarks/test_e3_trail_replay.py",
     "Figure 2: trail-tab replay precision/recall"),
    ("E4", "benchmarks/test_e4_server_pipeline.py",
     "Figure 3: async daemons, versioning, robustness, latency"),
    ("E5", "benchmarks/test_e5_theme_discovery.py",
     "Figure 4: community theme taxonomy, refine/coarsen, fit"),
    ("E6", "benchmarks/test_e6_motivating_queries.py",
     "§1: the six motivating queries"),
    ("E7", "benchmarks/test_e7_clustering.py",
     "§4: HAC / scatter-gather link clustering"),
    ("E8", "benchmarks/test_e8_baselines.py",
     "§5: PowerBookmarks-style and URL-overlap baselines"),
    ("E9", "benchmarks/test_e9_recommendation.py",
     "§4 next step: collaborative recommendation from theme profiles"),
    ("A*", "benchmarks/test_ablations.py",
     "ablations A1-A4: sparsity, feature budget, relaxation, versioning"),
    ("S1", "benchmarks/test_scale.py",
     "§2: ingest and mining cost as the community grows"),
    ("M*", "benchmarks/test_micro_*.py",
     "storage and text substrate microbenchmarks"),
]


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve over TCP: one process by default, a sharded cluster with
    ``--shards N``.  SIGTERM (and Ctrl-C) drains end to end — in-flight
    responses land, workers flush and save, then everything closes."""
    import signal
    import threading
    import time

    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    try:
        if args.shards > 1:
            return _serve_cluster(args, stop)

        workload = _build(args)
        kwargs = {"sync": args.sync}
        if args.data_dir:
            kwargs["root"] = args.data_dir
        system = MemexSystem.from_workload(workload, **kwargs)
        print(f"replaying {len(workload.events)} events ...", file=sys.stderr)
        system.replay(workload.events)
        server = system.server
        server.process_background_work()
        net = server.listen(
            host=args.host, port=args.port, workers=args.workers,
        )
        host, port = net.address
        print(f"serving on {host}:{port}  (workers={args.workers})")
        if args.duration is None:
            print("press Ctrl-C to stop (SIGTERM drains)")
        deadline = (
            None if args.duration is None
            else time.monotonic() + args.duration
        )
        try:
            while not stop.is_set() and (
                deadline is None or time.monotonic() < deadline
            ):
                server.tick()
                time.sleep(0.1)
        except KeyboardInterrupt:
            pass
        finally:
            net.close(drain=True)
        print("stopped")
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)


def _serve_cluster(args: argparse.Namespace, stop) -> int:
    """The ``--shards N`` leg of ``serve``: supervisor + router + replay."""
    import time

    from .core.api import corpus_fetcher
    from .core.memex import MemexServer
    from .shard import MemexCluster

    workload = _build(args)
    fetch = corpus_fetcher(workload.corpus)

    def factory(shard_id: int, root: str | None):
        return MemexServer(fetch, root=root, sync=args.sync)

    cluster = MemexCluster(
        factory, args.shards,
        data_dir=args.data_dir,
        host=args.host, port=args.port, router_workers=args.workers,
    )
    try:
        for profile in workload.profiles:
            cluster.register_user(profile.user_id, community=workload.name)
        print(
            f"replaying {len(workload.events)} events across "
            f"{args.shards} shards ...", file=sys.stderr,
        )
        cluster.replay(workload.events)
        host, port = cluster.address
        layout = args.data_dir or "(in-memory)"
        print(
            f"serving on {host}:{port}  "
            f"(shards={args.shards}, data={layout})"
        )
        if args.duration is None:
            print("press Ctrl-C to stop (SIGTERM drains)")
        deadline = (
            None if args.duration is None
            else time.monotonic() + args.duration
        )
        try:
            while not stop.is_set() and (
                deadline is None or time.monotonic() < deadline
            ):
                time.sleep(0.1)
        except KeyboardInterrupt:
            pass
    finally:
        # Drain end-to-end: router front-end first (in-flight responses
        # land), then each worker drains its own listener and saves.
        cluster.close(drain=True)
    print("stopped")
    return 0


def cmd_experiments(_args: argparse.Namespace) -> int:
    for exp_id, path, desc in EXPERIMENTS:
        print(f"{exp_id:<4} {path:<44} {desc}")
    print("\nRun them all:  pytest benchmarks/ --benchmark-only")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live cluster dashboard over the wire (see repro.obs.top).

    Points at a running router (or single server) started with
    ``repro serve``; both wire calls it makes (``metrics_pull``,
    ``health``) are unauthenticated, so no user registration is needed.
    """
    from .obs.top import run_top
    from .server.transport import SocketTransport

    transport = SocketTransport(args.host, args.port)
    try:
        return run_top(
            lambda payload: transport.request(args.user, payload),
            interval=args.interval,
            iterations=args.iterations,
            clear=not args.no_clear,
        )
    finally:
        transport.close()


def cmd_trace(args: argparse.Namespace) -> int:
    """Reassemble one trace's cross-shard span tree from shipped logs."""
    from .obs.shipping import (
        build_span_tree,
        read_shipped_records,
        render_span_tree,
    )

    records = read_shipped_records(
        args.data_dir, kind="span", trace_id=args.trace_id,
    )
    if not records:
        print(
            f"no spans for trace {args.trace_id} under {args.data_dir}",
            file=sys.stderr,
        )
        return 1
    shards = sorted({r.get("shard", "?") for r in records})
    print(
        f"trace {args.trace_id}: {len(records)} spans "
        f"across {len(shards)} stream(s) ({', '.join(shards)})"
    )
    print(render_span_tree(build_span_tree(records, args.trace_id)))
    return 0


def cmd_logs(args: argparse.Namespace) -> int:
    """Print (or follow) the cluster's merged shipped JSONL streams."""
    import json as json_mod
    import time as time_mod

    from .obs.shipping import read_shipped_records

    kind = None if args.spans else "log"
    last = -1.0
    at_last: set[str] = set()
    while True:
        records = read_shipped_records(
            args.data_dir, kind=kind,
            trace_id=args.trace, level=args.level,
        )
        for record in records:
            ts = float(record.get("wall_ts", 0.0))
            line = json_mod.dumps(record, sort_keys=True, default=str)
            if ts < last or (ts == last and line in at_last):
                continue
            print(line)
            if ts > last:
                last, at_last = ts, {line}
            else:
                at_last.add(line)
        if not args.follow:
            return 0
        time_mod.sleep(args.poll)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memex (VLDB 2000) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a workload and print stats")
    _add_workload_args(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("demo", help="replay a community and tour the features")
    _add_workload_args(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("queries", help="answer the six motivating queries")
    _add_workload_args(p)
    p.add_argument("--user", default="user00")
    p.set_defaults(func=cmd_queries)

    p = sub.add_parser(
        "stats", help="replay a workload and print the observability report",
    )
    _add_workload_args(p)
    p.add_argument(
        "--json", action="store_true",
        help="emit the metrics_pull and health payloads as JSON",
    )
    p.add_argument(
        "--logs", action="store_true",
        help="include the structured log ring (JSON lines)",
    )
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("experiments", help="print the experiment index")
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser(
        "serve", help="serve a replayed system over TCP (framed protocol)",
    )
    _add_workload_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 picks a free one)")
    p.add_argument("--workers", type=int, default=4,
                   help="connection worker threads")
    p.add_argument("--shards", type=int, default=1,
                   help="run N shard worker processes behind a router "
                        "(1 = single process)")
    p.add_argument("--data-dir", default=None,
                   help="persistent root; shards use <dir>/shard-NN")
    p.add_argument("--sync", action="store_true",
                   help="fsync before acking writes (the durability "
                        "contract crash recovery guarantees)")
    p.add_argument("--duration", type=float, default=None,
                   help="stop after this many seconds (default: run until ^C)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "top", help="live cluster dashboard (metrics_pull + health over TCP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="router (or single server) port")
    p.add_argument("--user", default="__operator__",
                   help="hello user id (the servlets are unauthenticated; "
                        "this only names the connection)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N frames (default: run until ^C)")
    p.add_argument("--no-clear", action="store_true",
                   help="append frames instead of clearing the screen "
                        "(for piping to a file)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "trace",
        help="reassemble one trace's cross-shard span tree from shipped logs",
    )
    p.add_argument("trace_id", help="32-hex trace id (from a traceparent)")
    p.add_argument("--data-dir", required=True,
                   help="cluster data root (the serve --data-dir)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "logs", help="print or follow the cluster's shipped JSONL streams",
    )
    p.add_argument("--data-dir", required=True,
                   help="cluster data root (the serve --data-dir)")
    p.add_argument("--follow", action="store_true",
                   help="keep polling for new records (tail -f)")
    p.add_argument("--trace", default=None,
                   help="only records belonging to this trace id")
    p.add_argument("--level", default=None,
                   help="minimum log severity (debug/info/warning/error)")
    p.add_argument("--spans", action="store_true",
                   help="include span records, not just log lines")
    p.add_argument("--poll", type=float, default=1.0,
                   help="follow-mode poll interval in seconds")
    p.set_defaults(func=cmd_logs)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
