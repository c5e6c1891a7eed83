#!/usr/bin/env python3
"""Query-path benchmark: one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload batch-open --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn and prints a summary.
``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` runs one traced set-up plus the workload's fixed work
twice (untraced, then with every layer call wrapped in a span of a
private tracer) and reports the per-layer metrics, writing the spans to
``.perfbench-out/trace-<workload>.json`` for Perfetto.  Metric names and
units come from ``BENCHMARK.json``.  The last line of standard output is
the JSON result; the line before it carries provenance and details.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

# One BLAS thread per process, here and in every spawned server.  With
# OpenBLAS's default of one thread per core, a coordinator and its
# workers oversubscribe a small box. Their speed then swings 2x from run
# to run with the load of other tenants (scatter-gather: 70-140 q/s
# against a steady ~280 q/s pinned, on a 2-core box), which no run length averages out.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

WORK_ROOT = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only: the tiny preset runs every workload in seconds.
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    return parser


def _metric_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _generate_inputs(workloads, args, size: dict, inputs: Path) -> None:
    """Generate inputs in a child so their memory never counts as ours.

    Forked before this process starts any thread, so the child inherits
    the imported program instead of importing it again.
    """
    child = multiprocessing.get_context("fork").Process(
        target=workloads.generate, args=(args.workload, args.seed, size, inputs)
    )
    child.start()
    child.join(timeout=600)
    if child.is_alive():
        child.kill()
        child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"input generation failed with exit code {child.exitcode}")


def _run_all(args) -> int:
    """Run every workload in turn, each in its own process, then summarise."""
    import subprocess

    from workloads import workload_names

    summary, status = {}, 0
    for workload in workload_names():
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        completed = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            status = completed.returncode
            continue
        summary[workload] = json.loads(completed.stdout.strip().splitlines()[-1])
    for workload, result in summary.items():
        print(f"{workload}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    """Run one workload (or all of them) and print the result line."""
    args = _parser().parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    # Servers' own helper processes are adopted when a server exits, so
    # the run can wait for them before it ends.
    harness.adopt_orphans()

    if args.workload not in workloads.workload_names():
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    size = workloads.SIZES[args.size][args.workload]
    try:
        spec = _metric_spec()
    except (OSError, ValueError, KeyError) as error:
        print(f"perfbench: unreadable BENCHMARK.json: {error}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    children = harness.Children()
    shm_before = harness.shm_segments()
    ctx = workloads.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        size=size,
        work=work,
        inputs=work / "inputs",
        trace_path=OUT_DIR / f"trace-{args.workload}.json",
        children=children,
        layers=harness.LayerTrace() if args.trace else None,
    )
    runner = {
        "batch-open": workloads.run_batch_open,
        "serve-http": workloads.run_serve_http,
        "scatter-gather": workloads.run_scatter_gather,
        "ann-large": workloads.run_ann_large,
    }[args.workload]
    try:
        work.mkdir(parents=True, exist_ok=True)
        ctx.mark("t0")
        _generate_inputs(workloads, args, size, ctx.inputs)
        ctx.mark("generated")
        outcome = runner(ctx)
        ctx.mark("done")
        trace_events = ctx.layers.write_chrome_trace(ctx.trace_path) if args.trace else 0
    except Exception:  # noqa: BLE001 - report, clean up, exit non-zero
        traceback.print_exc()
        return 1
    finally:
        children.stop_all()
        leaked = harness.processes_mentioning(str(work))
        for pid in leaked:
            os.kill(pid, 9)
        harness.stop_resource_tracker()
        leaked += harness.reap_children()
        shutil.rmtree(work, ignore_errors=True)
    leaked_shm = sorted(harness.shm_segments() - shm_before)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = outcome.layers if args.trace else outcome.end_to_end
    missing = [] if args.trace else [name for name in wanted if name not in source]
    if missing:
        print(f"perfbench: workload produced no {missing}", file=sys.stderr)
        return 1
    # A layer absent from a workload's path reports 0: it did no work.
    metrics = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }
    hygiene_ok = not leaked and not leaked_shm and not children.undrained
    record = {
        "provenance": harness.provenance(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, size=args.size, dim=workloads.DIM,
            library_rows=outcome.details.get("rows"), queries=outcome.attempted,
        ),
        "details": {
            **outcome.details,
            "leaked_processes": leaked,
            "leaked_shm": leaked_shm,
            "undrained": children.undrained,
            "trace_file": str(ctx.trace_path.relative_to(ROOT)) if args.trace else None,
            "trace_events": trace_events,
            "timeline_s": {k: v for k, v in ctx.timeline.items() if k != "t0"},
        },
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and hygiene_ok,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
