"""Benchmark of the SSPPR system on a ~1M-edge R-MAT graph.

Run from the repository root::

    python3 perfbench/run.py --workload serve-zipf-1m --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs the same operations untraced and then traced and
prints the per-layer metrics.  Every answer is checked (see
``check.py``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload
all`` runs every workload in turn, each in a fresh interpreter so that
its ``peak_rss_mb`` is its own, and prints one line per workload.
The graph for each seed is generated once into ``.bench_cache/`` at the
repository root; no timed region includes its generation.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE_DIR = ROOT / ".bench_cache"


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Besides the sharded tier's workers (which ``close`` already joins),
    creating a shared-memory segment starts multiprocessing's resource
    tracker, which otherwise outlives this interpreter by a moment.  It
    is stopped last, once no worker can still hold its pipe.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS or args.seconds <= 0:
        print(
            f"error: unknown workload {args.workload!r} or bad --seconds; "
            f"choose from {sorted(workloads.WORKLOADS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            code = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            if code:
                return code
        return 0
    units = declared_units(bool(args.trace))
    name = args.workload
    try:
        outcome = workloads.run_workload(
            name, args.seed, args.seconds, bool(args.trace), CACHE_DIR
        )
    finally:
        stop_children()
    if set(outcome["metrics"]) != set(units):
        print(
            f"error: {name} measured {sorted(outcome['metrics'])}, "
            f"BENCHMARK.json declares {sorted(units)}",
            file=sys.stderr,
        )
        return 1
    for metric, value in outcome["metrics"].items():
        note = outcome["notes"].get(metric)
        suffix = f"  (0: {note})" if note else ""
        print(f"# {name} {metric} = {value:.6g} {units[metric]}{suffix}")
    for error in outcome["errors"]:
        print(f"# {name} error: {error}")
    print(
        json.dumps(
            {
                "correct": outcome["wrong"] == 0,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    metric: {"value": value, "unit": units[metric]}
                    for metric, value in outcome["metrics"].items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
