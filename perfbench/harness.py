"""Shared plumbing of the query-path benchmark.

Statistics (median and the data-supported tail), subprocess lifetime
for ``repro serve`` / ``repro coordinate`` children, ``/proc`` memory
readings, the leak checks run after every workload, run provenance,
and :class:`LayerTrace`, which times calls into the program's layers on
a private :class:`repro.obs.Tracer`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from pathlib import Path
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Where shared-memory segments (``SharedShardArena`` arenas) live.
SHM_DIR = Path("/dev/shm")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (not a failed operation)."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample."""
    values = list(values)
    if not values:
        raise BenchmarkError("median of an empty sample")
    return float(statistics.median(values))


def tail(values: Iterable[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``.  With ``n`` samples
    the value is the ``n - 10``-th smallest, i.e. percentile
    ``100 * (n - 10) / n`` (p90 at 100 samples, p99 at 1000).  Below
    eleven samples no percentile has ten beyond it, and the maximum is
    reported as p100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise BenchmarkError("tail of an empty sample")
    if count <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, count
    index = count - TAIL_BEYOND - 1
    return float(ordered[index]), 100.0 * (index + 1) / count, count


# ----------------------------------------------------------------------
# /proc readings and leak checks
# ----------------------------------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    path = Path("/proc") / (str(pid) if pid is not None else "self") / "status"
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM in {path}")


def child_pids(parent: int) -> List[int]:
    """Direct children of ``parent``, read from ``/proc/<pid>/stat``."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name is parenthesised and may contain spaces.
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[1]) == parent:
            children.append(int(entry.name))
    return children


def processes_mentioning(needle: str) -> List[int]:
    """Live processes whose command line contains ``needle``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if needle.encode() in cmdline:
            found.append(int(entry.name))
    return found


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the reaper of this process's orphaned descendants (Linux).

    A spawned server's own helpers (the ``multiprocessing`` resource
    tracker, a coordinator's workers) outlive it briefly when it exits;
    adopted, they can be waited for by :func:`reap_children` instead of
    running on after the benchmark.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker and reap it.

    The program's shared-memory arenas start the tracker on first use; it
    otherwise runs until just after this process exits.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def reap_children(grace: float = 15.0) -> List[int]:
    """Wait until this process has no children left, adopted ones included.

    Children that exit by themselves within ``grace`` seconds are reaped;
    any still running then are killed.  Returns the killed pids.
    """
    killed: List[int] = []
    deadline = time.monotonic() + grace
    while True:
        pids = child_pids(os.getpid())
        if not pids:
            return killed
        overdue = time.monotonic() > deadline
        for pid in pids:
            try:
                if overdue and os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                    os.waitpid(pid, 0)
                else:
                    os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                continue
        time.sleep(0.02)


def shm_segments() -> set:
    """Names currently present in ``/dev/shm`` (empty if unavailable)."""
    try:
        return {entry.name for entry in SHM_DIR.iterdir()}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# spawned servers
# ----------------------------------------------------------------------

LISTENING = re.compile(r"listening on (http://[\d.]+:\d+)")


class Child:
    """One spawned ``repro`` server process and its captured output."""

    def __init__(
        self, command: List[str], drain_line: str, cwd: Path, bound_marker: str = ""
    ) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.drain_line = drain_line
        self.bound_marker = bound_marker
        self.lines: Deque[str] = deque(maxlen=400)
        self.url: Optional[str] = None
        self._bound = threading.Event()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=str(cwd),
            env=environment,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.process.stdout:
            line = raw.decode("utf-8", "replace").rstrip()
            self.lines.append(line)
            if self.url is None:
                match = LISTENING.search(line)
                if match and self.bound_marker in line:
                    self.url = match.group(1)
                    self._bound.set()
        self._bound.set()

    def wait_bound(self, timeout: float = 120.0) -> str:
        """Block until the server logs its bound URL."""
        self._bound.wait(timeout)
        if self.url is None:
            raise BenchmarkError(
                f"server did not bind (exit {self.process.poll()}):\n"
                + "\n".join(self.lines)
            )
        return self.url

    def output(self) -> str:
        """Everything the process printed so far."""
        return "\n".join(self.lines)

    def stop(self, timeout: float = 60.0) -> bool:
        """SIGTERM, reap, and report whether the drain line was printed."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._reader.join(timeout=10.0)
        return any(self.drain_line in line for line in self.lines)


class Children:
    """Every process one benchmark run spawned; all are stopped on exit."""

    def __init__(self) -> None:
        self.started: List[Child] = []
        self.undrained: List[str] = []

    def serve(self, index_path: Path, cwd: Path) -> Child:
        """Start ``repro serve`` with the default config on an ephemeral port."""
        command = [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--index", str(index_path), "--port", "0",
        ]
        return self._start(Child(command, "service drained and closed", cwd))

    def coordinate(self, store_path: Path, partitions: int, cwd: Path) -> Child:
        """Start ``repro coordinate`` spawning one local worker per partition."""
        command = [
            sys.executable, "-u", "-m", "repro.cli", "coordinate",
            "--store", str(store_path), "--partitions", str(partitions),
            "--strategy", "rows", "--spawn-workers", "--port", "0",
        ]
        return self._start(
            Child(command, "coordinator drained and closed", cwd, "(coordinator")
        )

    def _start(self, child: Child) -> Child:
        self.started.append(child)
        return child

    def stop(self, child: Child) -> None:
        """Stop one child and record it if it exited without draining."""
        if not child.stop():
            self.undrained.append(" ".join(child.process.args[3:6]))

    def stop_all(self) -> None:
        """Stop every child still running."""
        for child in self.started:
            if child.process.returncode is None:
                self.stop(child)


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------


def _git_commit() -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None if completed.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _l3_bytes() -> Optional[int]:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else None


def provenance(**scale: object) -> Dict[str, object]:
    """What a result must carry to be compared: code, machine and scale."""
    import numpy

    return {
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
        "nproc": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **scale,
    }


# ----------------------------------------------------------------------
# layer tracing
# ----------------------------------------------------------------------


class LayerTrace:
    """Spans around calls into the program's layers, on a private tracer.

    The program's own process-global tracer stays off; this tracer only
    records what the benchmark wraps.  :meth:`patch` replaces a public
    function or method with a timed wrapper for the duration of
    :meth:`installed`, so the untraced half of a traced run executes the
    original code.  Each benchmark operation opens a root span
    (:meth:`operation`) with a fresh request id; layer spans opened on
    the same thread nest under the innermost open span, and spans opened
    on pool threads attach to the current operation's root.  Durations
    are summed per ``(phase, span name)``.
    """

    def __init__(self, capacity: int = 500_000) -> None:
        from repro.obs import Tracer

        self.tracer = Tracer(capacity)
        self.tracer.enable()
        self.phase = "setup"
        self.seconds: Dict[Tuple[str, str], float] = defaultdict(float)
        self._root = None
        self._lock = threading.Lock()
        self._targets: List[Tuple[object, str, str, Callable]] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------

    def account(self, name: str, seconds: float) -> None:
        """Add externally measured layer time (e.g. pool-worker timings)."""
        with self._lock:
            self.seconds[(self.phase, name)] += seconds

    def total(self, name: str, phase: str = "query") -> float:
        """Summed seconds of one span name in one phase."""
        return self.seconds.get((phase, name), 0.0)

    # -- spans -----------------------------------------------------------

    def _span(self, name: str, **tags: object):
        from repro.obs import Span

        parent = self.tracer.capture() or self._root
        return Span(self.tracer, name, parent=parent, tags=dict(tags, phase=self.phase))

    @contextlib.contextmanager
    def operation(self, name: str, **tags: object) -> Iterator[object]:
        """Root span of one benchmark operation, with a fresh request id."""
        from repro.obs import Span, new_request_id

        span = Span(
            self.tracer, name, request_id=new_request_id(), tags=dict(tags, phase=self.phase)
        )
        self._root = span
        try:
            with span:
                yield span
        finally:
            self._root = None
            self.account(name, span.duration)

    @contextlib.contextmanager
    def span(self, name: str, **tags: object) -> Iterator[object]:
        """A layer span around a call the benchmark makes itself."""
        span = self._span(name, **tags)
        try:
            with span:
                yield span
        finally:
            self.account(name, span.duration)

    def emit(self, name: str, seconds: float, lane: str, **tags: object) -> None:
        """Record a span timed elsewhere (another process) on its own lane."""
        self.tracer.emit(
            name, seconds, parent=self._root, thread=lane, **dict(tags, phase=self.phase)
        )
        self.account(name, seconds)

    def timed_iter(self, iterable: Iterable, name: str) -> Iterator:
        """Iterate ``iterable``, timing each ``next`` as a ``name`` span."""
        iterator = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    # -- patching ------------------------------------------------------

    def patch(self, owner: object, attribute: str, name: str, observe: Callable = None) -> None:
        """Register ``owner.attribute`` to be timed as span ``name``.

        ``observe(result, args, kwargs)`` may read counts off each call.
        """
        self._targets.append((owner, attribute, name, observe))

    def _wrap(self, function: Callable, name: str, observe: Optional[Callable]) -> Callable:
        trace = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = trace._span(name)
            try:
                with span:
                    result = function(*args, **kwargs)
            finally:
                trace.account(name, span.duration)
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: Optional[List[Tuple]] = None) -> Iterator[None]:
        """Activate the registered wrappers (or ``targets``); restore after."""
        for owner, attribute, name, observe in self._targets if targets is None else targets:
            raw = (
                owner.__dict__[attribute]
                if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            self._saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, observe))
            else:
                wrapped = self._wrap(raw, name, observe)
            setattr(owner, attribute, wrapped)
        try:
            yield
        finally:
            while self._saved:
                owner, attribute, raw = self._saved.pop()
                setattr(owner, attribute, raw)

    def write_chrome_trace(self, path: Path) -> int:
        """Write the recorded spans as Chrome trace JSON (Perfetto opens it)."""
        from repro.obs.export import chrome_trace

        payload = chrome_trace(self.tracer)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
        return len(payload["traceEvents"])

