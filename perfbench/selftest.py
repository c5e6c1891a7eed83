#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark's output contract.

Run from the repository root::

    python3 perfbench/selftest.py

Every workload runs at the ``tiny`` preset, untraced and traced.  Each
result line must carry exactly ``correct``, ``attempted``, ``failed``
and ``metrics``; the metrics must be exactly the ``end_to_end`` (or
``per_layer``) names of ``BENCHMARK.json`` with their units and finite
values; the outputs must be correct; and the traced run must leave a
Chrome trace that parses; and no process the run started may outlive
it.  Finally the benchmark must refuse to run,
without printing a result, from a directory holding only
``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def _result(completed: subprocess.CompletedProcess) -> dict:
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise AssertionError(f"exit {completed.returncode}: {completed.stderr[-2000:]}")
    return json.loads(lines[-1])


def _pids() -> set:
    return {int(entry.name) for entry in Path("/proc").iterdir() if entry.name.isdigit()}


def _left_behind(before: set) -> list:
    """Processes started since ``before`` that still exist and belong to this checkout.

    A process counts if its working directory lies in the checkout, or
    if it is a Python zombie (an orphan whose parent exited before it).
    """
    found = []
    for pid in sorted(_pids() - before):
        proc = Path("/proc") / str(pid)
        try:
            stat = (proc / "stat").read_text()
            state, name = stat[stat.rfind(")") + 2], stat[stat.find("(") + 1 : stat.rfind(")")]
            if state == "Z":
                if name.startswith("python"):
                    found.append(f"{pid} (zombie {name})")
                continue
            cwd = Path(os.readlink(proc / "cwd"))
        except OSError:
            continue
        if cwd == ROOT or ROOT in cwd.parents:
            found.append(f"{pid} ({(proc / 'cmdline').read_bytes()[:120]!r})")
    return found


def check_workload(workload: str, trace: int, spec: dict) -> str:
    """Run one workload at the tiny preset and validate its result line."""
    before = _pids()
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    left = _left_behind(before)
    assert not left, f"processes outlived the run: {left}"
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    expected = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in expected}
    assert set(result["metrics"]) == set(units), set(result["metrics"]) ^ set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, (name, metric)
        assert metric["unit"] == units[name], (name, metric["unit"], units[name])
        assert math.isfinite(metric["value"]), (name, metric)
    if trace:
        details = json.loads(completed.stdout.strip().splitlines()[-2])["details"]
        events = json.loads((ROOT / details["trace_file"]).read_text())["traceEvents"]
        assert any(event.get("ph") == "X" for event in events), "empty trace"
    else:
        for metric in spec["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] != 0, metric["name"]
    return f"{workload} trace={trace}: {len(result['metrics'])} metrics ok"


def check_bare_directory() -> str:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batch-open",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=str(bare), capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0, "ran without the program"
    assert '"metrics"' not in completed.stdout, "printed a result without the program"
    return f"bare directory: exit {completed.returncode}, no result"


def main() -> int:
    """Run every check; exit non-zero on the first failure."""
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import workload_names

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    assert names == workload_names(), (names, workload_names())
    for workload in names:
        for trace in (0, 1):
            print(check_workload(workload, trace, spec), flush=True)
    print(check_bare_directory())
    return 0


if __name__ == "__main__":
    sys.exit(main())
