"""Command-line interface: ``repro-ppr``.

Examples
--------
Run one experiment on the default bench configuration::

    repro-ppr run F4

Run everything the paper reports, full protocol, into a file::

    repro-ppr run all --full --out results.txt

Answer a single query from the shell — any registered method name or
alias works, and stochastic methods are reproducible via ``--seed``::

    repro-ppr query dblp-s --source 7 --method powerpush --top 10
    repro-ppr query dblp-s --method speedppr --epsilon 0.2 --seed 42
    repro-ppr query dblp-s --method fora+ --epsilon 0.3

``repro-ppr list`` prints the experiments, the datasets, and every
registered solver with its aliases; ``repro-ppr methods`` prints the
full registry (kind, aliases, capability flags), so users can discover
valid spellings without tripping ``UnknownMethodError``.

Benchmark the dynamic-graph path — incremental refresh vs from-scratch
solves while edge updates stream in::

    repro-ppr update-bench --batches 4 --batch-size 25

Serve queries interactively through the concurrent serving layer
(micro-batching scheduler + versioned result cache), one request per
stdin line — ``SOURCE [METHOD] [key=value ...]``, ``+ U V`` / ``- U V``
for edge updates, ``stats`` for counters::

    echo "7 powerpush l1_threshold=1e-7" | repro-ppr serve dblp-s

Load-test that serving layer against a synthetic Zipfian workload and
compare with the serial one-query-at-a-time baseline::

    repro-ppr loadtest --requests 400 --concurrency 8 --out bench.json

Benchmark the multi-source block kernels — one batched PowerPush solve
vs the per-source loop, with element-wise identity checked — the same
smoke run CI gates on (writes ``results/BENCH_kernels.json``)::

    repro-ppr bench-kernels --batch-sizes 8,32

Run the project-invariant static checker (determinism, workspace
discipline, lock discipline — the same gate CI runs; see
CONTRIBUTING.md)::

    repro-ppr lint src/repro
    repro-ppr lint --list-rules
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from repro.api import PPREngine, resolve_method, solver_specs
from repro.api.engine import (
    INCREMENTAL_METHOD_NAMES,
    INCREMENTAL_METHOD_PARAMS,
    is_incremental_method,
)
from repro.errors import ReproError
from repro.experiments.config import bench_config, full_config
from repro.experiments.dynamic import run_dynamic_updates
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments.workspace import Workspace
from repro.generators.datasets import dataset_names, load_dataset

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-ppr",
        description=(
            "Reproduction harness for 'Unifying the Global and Local "
            "Approaches: An Efficient Power Iteration with Forward Push' "
            "(SIGMOD 2021)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a paper experiment")
    run.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    run.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full protocol (all datasets, 30 sources)",
    )
    run.add_argument("--out", type=Path, help="also write the report here")

    query = sub.add_parser("query", help="answer one SSPPR query")
    query.add_argument("dataset", choices=dataset_names())
    query.add_argument("--source", type=int, default=0)
    query.add_argument(
        "--method",
        default="powerpush",
        metavar="METHOD",
        help="registered solver name or alias (see 'repro-ppr list')",
    )
    query.add_argument("--alpha", type=float, default=0.2)
    query.add_argument("--l1-threshold", type=float, default=1e-8)
    query.add_argument("--epsilon", type=float, default=0.5)
    query.add_argument("--top", type=int, default=10)
    query.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for the stochastic methods (reproducible shell queries)",
    )
    query.add_argument(
        "--reorder",
        choices=("degree", "slashburn"),
        default=None,
        help="serve from a cache-aware reordered copy of the graph",
    )

    sub.add_parser("list", help="list experiments, datasets, and methods")

    sub.add_parser(
        "methods",
        help="print the solver registry (kind, aliases, capability flags)",
    )

    bench = sub.add_parser(
        "update-bench",
        help="benchmark incremental PPR maintenance under edge updates",
    )
    bench.add_argument(
        "--scale", type=int, default=11, help="log2 of the R-MAT id space"
    )
    bench.add_argument(
        "--edges", type=int, default=16_000, help="initial edge count"
    )
    bench.add_argument("--batches", type=int, default=4)
    bench.add_argument(
        "--batch-size", type=int, default=25, help="edge updates per batch"
    )
    bench.add_argument("--alpha", type=float, default=0.2)
    bench.add_argument("--l1-threshold", type=float, default=1e-8)
    bench.add_argument("--seed", type=int, default=2021)
    bench.add_argument(
        "--compact",
        action="store_true",
        help="compact the delta overlay after every batch",
    )
    bench.add_argument("--out", type=Path, help="also write the report here")

    kernels = sub.add_parser(
        "bench-kernels",
        help=(
            "benchmark block (multi-source) PowerPush vs the per-source "
            "loop; writes BENCH_kernels.json"
        ),
    )
    kernels.add_argument(
        "--scale", type=int, default=8, help="log2 of the R-MAT id space"
    )
    kernels.add_argument("--edges", type=int, default=2_000)
    kernels.add_argument(
        "--batch-sizes",
        default="8,32",
        help="comma-separated batch sizes (default 8,32)",
    )
    kernels.add_argument("--l1-threshold", type=float, default=1e-8)
    kernels.add_argument("--alpha", type=float, default=0.2)
    kernels.add_argument("--seed", type=int, default=2021)
    kernels.add_argument(
        "--repeats", type=int, default=3, help="timing runs (best is kept)"
    )
    kernels.add_argument(
        "--out",
        type=Path,
        default=Path("results") / "BENCH_kernels.json",
        help="metrics JSON path (default results/BENCH_kernels.json)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve queries from stdin through the concurrent serving layer",
    )
    serve.add_argument("dataset", choices=dataset_names())
    serve.add_argument("--alpha", type=float, default=0.2)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--window",
        type=float,
        default=0.002,
        help="micro-batch window in seconds",
    )
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument(
        "--cache-capacity",
        type=int,
        default=4096,
        help="result-cache entries (0 disables result caching)",
    )
    serve.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        help="result-cache TTL in seconds (default: no expiry)",
    )
    serve.add_argument("--top", type=int, default=5)
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard serving across N worker processes mapping one "
        "shared-memory graph image (0 = in-process thread mode)",
    )
    serve.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help="serve through the async front door with this latency SLO: "
        "overload degrades to --degrade-l1 or sheds",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request budget; expired requests fail fast with "
        "DeadlineExceeded instead of occupying a batch slot",
    )
    serve.add_argument(
        "--degrade-l1",
        type=float,
        default=1e-4,
        help="l1_threshold of the degraded tier the front door falls "
        "back to when predicted p99 blows --slo-ms",
    )
    serve.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        help="per-shard respawn budget after crashes (sharded mode; "
        "0 disables supervision, default: dispatcher's policy)",
    )
    serve.add_argument(
        "--wal-dir",
        type=Path,
        default=None,
        help="durable state directory: edge updates are written to a "
        "fsynced write-ahead log before the ack and recovered from "
        "checkpoint + WAL replay on restart",
    )
    serve.add_argument(
        "--no-wal-fsync",
        action="store_true",
        help="skip per-record fsync on the WAL (faster, loses the "
        "power-failure guarantee; crash-safe against process death only)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="emit a durable checkpoint every N applied updates "
        "(default: checkpoint only on compaction/demand)",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="benchmark the serving layer against a serial baseline",
    )
    loadtest.add_argument(
        "--scale", type=int, default=10, help="log2 of the R-MAT id space"
    )
    loadtest.add_argument("--edges", type=int, default=8_000)
    loadtest.add_argument("--requests", type=int, default=400)
    loadtest.add_argument(
        "--sources", type=int, default=48, help="Zipfian hot-set size"
    )
    loadtest.add_argument("--zipf", type=float, default=1.1)
    loadtest.add_argument(
        "--read-fraction",
        type=float,
        default=1.0,
        help="query fraction; the rest are edge updates (soak mode)",
    )
    loadtest.add_argument(
        "--arrival",
        choices=("closed", "open"),
        default="closed",
        help="closed: worker pool; open: Poisson arrivals at --rate",
    )
    loadtest.add_argument(
        "--rate", type=float, default=500.0, help="open-loop arrivals/second"
    )
    loadtest.add_argument("--concurrency", type=int, default=8)
    loadtest.add_argument("--window", type=float, default=0.002)
    loadtest.add_argument("--max-batch", type=int, default=64)
    loadtest.add_argument("--cache-capacity", type=int, default=4096)
    loadtest.add_argument("--method", default="powerpush")
    loadtest.add_argument("--alpha", type=float, default=0.2)
    loadtest.add_argument("--l1-threshold", type=float, default=1e-7)
    loadtest.add_argument("--epsilon", type=float, default=0.5)
    loadtest.add_argument("--seed", type=int, default=2021)
    loadtest.add_argument(
        "--out", type=Path, help="also write the metrics JSON here"
    )
    loadtest.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serve through N shard processes over a shared-memory "
        "graph image instead of the thread-based server",
    )
    loadtest.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help="drive through the SLO-aware async front door (open "
        "arrival only); reports goodput under this SLO",
    )
    loadtest.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request budget for the front-door drive",
    )
    loadtest.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission bound: arrivals beyond this many in-flight "
        "requests are shed",
    )
    loadtest.add_argument(
        "--degrade-l1",
        type=float,
        default=1e-4,
        help="l1_threshold of the degraded tier under overload",
    )
    loadtest.add_argument(
        "--chaos",
        action="store_true",
        help="inject a seeded fault schedule into the sharded run "
        "(requires --workers >= 1); worker supervision and bounded "
        "retries must recover every request",
    )
    loadtest.add_argument(
        "--chaos-kills",
        type=int,
        default=1,
        help="SIGKILLed workers in the chaos schedule",
    )
    loadtest.add_argument(
        "--chaos-stops",
        type=int,
        default=0,
        help="SIGSTOP/SIGCONT pairs in the chaos schedule",
    )
    loadtest.add_argument(
        "--chaos-drops",
        type=int,
        default=0,
        help="worker replies swallowed (needs --request-timeout to "
        "recover)",
    )
    loadtest.add_argument(
        "--chaos-delays",
        type=int,
        default=0,
        help="worker replies delayed in the chaos schedule",
    )
    loadtest.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="fault-schedule seed (defaults to --seed)",
    )
    loadtest.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        help="per-shard respawn budget after crashes (0 disables "
        "supervision, default: dispatcher's policy)",
    )
    loadtest.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="per-request hang detector in seconds, driving "
        "deadline-aware bounded retries",
    )

    from repro.analysis.runner import add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help=(
            "run the project-invariant static checker "
            "(determinism, workspace discipline, lock discipline)"
        ),
    )
    add_lint_arguments(lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "methods":
            return _cmd_methods()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "update-bench":
            return _cmd_update_bench(args)
        if args.command == "bench-kernels":
            return _cmd_bench_kernels(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "loadtest":
            return _cmd_loadtest(args)
        if args.command == "lint":
            return _cmd_lint(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


def _cmd_list() -> int:
    print("experiments:")
    for key, (description, _) in EXPERIMENTS.items():
        print(f"  {key}: {description}")
    print("datasets:")
    for name in dataset_names():
        print(f"  {name}")
    print("methods:")
    for spec in solver_specs():
        aliases = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"  {spec.name} [{spec.kind}]{aliases}: {spec.summary}")
    return 0


def _cmd_methods() -> int:
    """The full solver registry, one block per method."""
    for spec in solver_specs():
        print(f"{spec.name} [{spec.kind}]")
        print(f"  {spec.summary}")
        if spec.aliases:
            print(f"  aliases : {', '.join(spec.aliases)}")
        flags = [
            label
            for label, enabled in (
                ("needs-rng", spec.needs_rng),
                ("walk-index", spec.needs_walk_index),
                ("precomputation", spec.needs_precomputation),
                ("index-by-default", spec.index_by_default),
            )
            if enabled
        ]
        print(f"  flags   : {', '.join(flags) if flags else '-'}")
        print(f"  params  : {', '.join(spec.params)}")
    canonical, *aliases = INCREMENTAL_METHOD_NAMES
    print(f"{canonical} [engine]")
    print(
        "  Tracked-source maintenance on a DynamicGraph (engine-level, "
        "resolved by PPREngine rather than the registry)"
    )
    print(f"  aliases : {', '.join(aliases)}")
    print(f"  params  : {', '.join(INCREMENTAL_METHOD_PARAMS)}")
    return 0


def _cmd_update_bench(args: argparse.Namespace) -> int:
    result = run_dynamic_updates(
        scale=args.scale,
        num_edges=args.edges,
        num_batches=args.batches,
        batch_size=args.batch_size,
        alpha=args.alpha,
        l1_threshold=args.l1_threshold,
        seed=args.seed,
        compact_every_batch=args.compact,
    )
    report = result.render()
    print(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report + "\n")
    return 0


def _cmd_bench_kernels(args: argparse.Namespace) -> int:
    """Block vs per-source batch solve; exit 1 on answer divergence."""
    from repro.perf import run_kernel_bench

    batch_sizes = tuple(
        int(token) for token in args.batch_sizes.split(",") if token.strip()
    )
    if not batch_sizes:
        raise ReproError("--batch-sizes needs at least one integer")
    report = run_kernel_bench(
        scale=args.scale,
        edges=args.edges,
        batch_sizes=batch_sizes,
        l1_threshold=args.l1_threshold,
        alpha=args.alpha,
        seed=args.seed,
        repeats=args.repeats,
    )
    print(report.render())
    path = report.write_json(args.out)
    print(f"metrics written to {path}")
    verdict = report.assessment(target_speedup=3.0)
    print(verdict)
    return 1 if verdict.startswith("FAIL") else 0


def _parse_request_value(text: str):
    """Best-effort typed parse of a ``key=value`` request parameter."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def _cmd_serve(args: argparse.Namespace) -> int:
    """Interactive/pipe server: one request per stdin line.

    ``SOURCE [METHOD] [key=value ...]`` answers a query through the
    scheduler + cache; ``+ U V`` / ``- U V`` applies an edge update
    (dataset graphs are wrapped in a DynamicGraph so the writer path
    works); ``stats`` prints the serving counters; ``quit`` or EOF
    stops.
    """
    import asyncio

    from repro.graph.dynamic import DynamicGraph
    from repro.serving import AsyncFrontDoor, EngineServer, ShardedDispatcher

    dynamic = DynamicGraph(load_dataset(args.dataset))
    durable_kwargs: dict[str, Any] = {}
    if args.wal_dir is not None:
        durable_kwargs = {
            "wal_dir": args.wal_dir,
            "wal_fsync": not args.no_wal_fsync,
            "checkpoint_every": args.checkpoint_every,
        }
    if args.workers:
        server: EngineServer | ShardedDispatcher = ShardedDispatcher(
            dynamic,
            workers=args.workers,
            alpha=args.alpha,
            seed=args.seed,
            window=args.window,
            max_batch=args.max_batch,
            cache_capacity=args.cache_capacity,
            cache_ttl=args.cache_ttl,
            max_restarts=args.max_restarts,
            **durable_kwargs,
        )
        mode = f"{args.workers} shard processes, shared-memory graph"
    else:
        server = EngineServer(
            dynamic,
            alpha=args.alpha,
            seed=args.seed,
            window=args.window,
            max_batch=args.max_batch,
            cache_capacity=args.cache_capacity,
            cache_ttl=args.cache_ttl,
            **durable_kwargs,
        )
        mode = "in-process threads"
    if args.wal_dir is not None:
        recovered = server.graph_version
        fsync_note = "fsync off" if args.no_wal_fsync else "fsync on"
        mode += f", durable wal={args.wal_dir} ({fsync_note})"
        if recovered:
            print(
                f"recovered durable state at version {recovered} "
                f"from {args.wal_dir}"
            )
    door: AsyncFrontDoor | None = None
    if args.slo_ms is not None or args.deadline_ms is not None:
        door = AsyncFrontDoor(
            server,
            slo_ms=args.slo_ms,
            deadline_ms=args.deadline_ms,
            degrade_params={"l1_threshold": args.degrade_l1},
        )
        mode += (
            f", async front door (slo={args.slo_ms}ms, "
            f"deadline={args.deadline_ms}ms)"
        )
    print(
        f"serving {args.dataset} (n={dynamic.num_nodes}, "
        f"m={dynamic.num_edges}; {mode}); one request per line "
        f"(SOURCE [METHOD] [key=value ...], '+ U V', '- U V', 'stats')"
    )
    with server:
        for line in sys.stdin:
            tokens = line.split()
            if not tokens:
                continue
            head = tokens[0]
            if head in ("quit", "exit"):
                break
            try:
                if head == "stats":
                    _print_server_stats(server)
                    if door is not None:
                        snap = door.snapshot()
                        print(
                            f"frontdoor: completed={snap['completed']} "
                            f"degraded={snap['degraded']} "
                            f"shed={snap['shed']} "
                            f"deadline_expired={snap['deadline_expired']}"
                        )
                elif head in ("+", "-"):
                    if len(tokens) != 3:
                        raise ReproError(f"usage: {head} U V")
                    version = server.apply_updates(
                        [(head, int(tokens[1]), int(tokens[2]))]
                    )
                    print(f"ok: graph now at version {version}")
                else:
                    source = int(head)
                    rest = tokens[1:]
                    method = "powerpush"
                    if rest and "=" not in rest[0]:
                        method = rest[0]
                        rest = rest[1:]
                    bad = [token for token in rest if "=" not in token]
                    if bad:
                        # Refuse rather than silently answer with
                        # defaults the user didn't ask for.
                        raise ReproError(
                            f"unparseable request token(s) "
                            f"{' '.join(bad)!r}: expected key=value"
                        )
                    params = {
                        key: _parse_request_value(value)
                        for key, value in (
                            token.split("=", 1) for token in rest
                        )
                    }
                    if door is not None:
                        served = asyncio.run(
                            door.submit(source, method, **params)
                        )
                    else:
                        served = server.query(source, method, **params)
                    origin = "cache" if served.cache_hit else (
                        f"batch of {served.batch_size}"
                    )
                    if served.degraded:
                        origin += ", degraded"
                    if served.worker is not None:
                        origin += f", shard {served.worker}"
                    print(
                        f"{served.result.method} source={source} "
                        f"version={served.version} ({origin}, "
                        f"{served.result.seconds:.4f}s)"
                    )
                    for rank, (node, score) in enumerate(
                        served.result.top_k(args.top), start=1
                    ):
                        print(f"  #{rank:<3d} node {node:<8d} ppr={score:.6e}")
            except Exception as exc:  # noqa: BLE001 - per-request isolation
                # One bad request must not end the session: report it
                # on this line's output and keep reading stdin.
                print(f"error: {exc}")
    return 0


def _print_server_stats(server) -> None:
    stats = server.stats()
    scheduler = stats["scheduler"]
    cache = stats["cache"]
    hit_rate = stats.get(
        "hit_rate_at_submit", cache.get("hit_rate", 0.0) if cache else 0.0
    )
    print(
        f"requests={stats['requests']} "
        f"graph_version={stats['graph_version']} "
        f"hit_rate={hit_rate:.2%}"
    )
    print(
        f"scheduler: batches={scheduler['batches']} "
        f"engine_calls={scheduler['engine_calls']} "
        f"batching_factor={scheduler['batching_factor']:.2f}"
    )
    if cache:
        print(
            f"cache: hits={cache['hits']} misses={cache['misses']} "
            f"stale_drops={cache['stale_drops']} "
            f"invalidations={cache['invalidations']}"
        )
    if "per_worker" in stats:
        print(
            f"shards: workers={stats['workers']} "
            f"rerouted={stats['rerouted']} "
            f"worker_failures={stats['worker_failures']}"
        )
        for worker_id, worker in sorted(stats["per_worker"].items()):
            print(
                f"  shard {worker_id}: requests={worker['requests']} "
                f"hit_rate={worker['cache'].get('hit_rate', 0.0):.2%} "
                f"batching={worker['scheduler']['batching_factor']:.2f}"
            )


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.generators.rmat import rmat_digraph
    from repro.graph.dynamic import DynamicGraph
    from repro.serving import WorkloadGenerator, run_loadtest

    spec, implied = resolve_method(args.method)
    candidates = {
        "l1_threshold": args.l1_threshold,
        "epsilon": args.epsilon,
        "seed": args.seed,
    }
    params = dict(implied)
    params.update(
        {k: v for k, v in candidates.items() if spec.accepts(k)}
    )

    # One shared immutable base; each run layers its own overlay (or
    # queries it directly), so nothing is generated twice.
    base = rmat_digraph(
        args.scale,
        args.edges,
        rng=np.random.default_rng(args.seed),
        name="loadtest-rmat",
    )

    def make_graph():
        if args.read_fraction < 1.0:
            return DynamicGraph(base)
        return base

    workload = WorkloadGenerator(
        base.num_nodes,
        num_sources=args.sources,
        zipf_exponent=args.zipf,
        read_fraction=args.read_fraction,
        arrival=args.arrival,
        arrival_rate=args.rate,
        seed=args.seed,
    ).generate(args.requests)
    chaos = None
    if args.chaos:
        from repro.serving import FaultInjector

        chaos = FaultInjector.random_schedule(
            workers=args.workers,
            requests=args.requests,
            kills=args.chaos_kills,
            stops=args.chaos_stops,
            drops=args.chaos_drops,
            delays=args.chaos_delays,
            seed=(
                args.chaos_seed
                if args.chaos_seed is not None
                else args.seed
            ),
        )
    report = run_loadtest(
        make_graph,
        workload,
        method=args.method,
        params=params,
        alpha=args.alpha,
        seed=args.seed,
        concurrency=args.concurrency,
        window=args.window,
        max_batch=args.max_batch,
        cache_capacity=args.cache_capacity,
        workers=args.workers,
        slo_ms=args.slo_ms,
        deadline_ms=args.deadline_ms,
        max_inflight=args.max_inflight,
        degrade_params=(
            {"l1_threshold": args.degrade_l1}
            if (args.slo_ms is not None or args.deadline_ms is not None)
            and spec.accepts("l1_threshold")
            else None
        ),
        chaos=chaos,
        max_restarts=args.max_restarts,
        request_timeout=args.request_timeout,
    )
    print(report.render())
    if args.out is not None:
        path = report.write_json(args.out)
        print(f"metrics written to {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.runner import lint_from_args

    return lint_from_args(args)


def _cmd_run(args: argparse.Namespace) -> int:
    config = full_config() if args.full else bench_config()
    workspace = Workspace(config)
    ids = list(EXPERIMENTS) if args.experiment.lower() == "all" else [args.experiment]
    chunks = []
    for experiment_id in ids:
        result = run_experiment(experiment_id, workspace)
        chunks.append(result.render())
    report = "\n\n".join(chunks)
    print(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report + "\n")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if is_incremental_method(args.method):
        # Engine-level method: wrap the dataset so the engine can track
        # (a one-shot CLI query just pays the initial solve).
        from repro.graph.dynamic import DynamicGraph

        dynamic = DynamicGraph(load_dataset(args.dataset))
        # reorder= is rejected by the engine for dynamic graphs; pass it
        # through so the user gets the real error, not a silent drop.
        engine = PPREngine(
            dynamic,
            alpha=args.alpha,
            seed=args.seed,
            reorder=args.reorder,
        )
        result = engine.query(
            args.source,
            method="incremental",
            l1_threshold=args.l1_threshold,
        )
        return _print_query_result(args, dynamic.base, result)
    spec, implied = resolve_method(args.method)  # fail fast, pre dataset load
    graph = load_dataset(args.dataset)
    engine = PPREngine(
        graph,
        alpha=args.alpha,
        seed=args.seed,
        reorder=args.reorder,
    )
    # Offer the full unified parameter set; the spec keeps what it knows.
    candidates = {
        "l1_threshold": args.l1_threshold,
        "epsilon": args.epsilon,
        "seed": args.seed,
    }
    params = {k: v for k, v in candidates.items() if spec.accepts(k)}
    if spec.needs_walk_index and "use_index" not in implied:
        # One query per process: building a full walk index costs more
        # than it saves.  Index variants (speedppr-index, fora+) opt in.
        params["use_index"] = False
    result = engine.query(args.source, method=args.method, **params)
    return _print_query_result(args, graph, result)


def _print_query_result(args: argparse.Namespace, graph, result) -> int:
    print(
        f"{result.method} on {args.dataset} (n={graph.num_nodes}, "
        f"m={graph.num_edges}), source={args.source}: "
        f"{result.seconds:.4f}s"
    )
    for rank, (node, score) in enumerate(result.top_k(args.top), start=1):
        print(f"  #{rank:<3d} node {node:<8d} ppr={score:.6e}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
