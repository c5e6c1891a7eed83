"""The four query-path workloads and their input generator.

Every workload receives only generated files (an MSP library with
decoys, MGF queries) or spectrum payloads built from them, drives the
program through its public calls or its HTTP API, and checks each PSM
against :class:`repro.oms.search.HDOmsSearcher` on the same rows.  See
``README.md`` beside this file for why each workload exists and which
metric each layer should move.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import json
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from harness import (
    BenchmarkError,
    Children,
    LayerTrace,
    child_pids,
    median,
    peak_rss_mb,
    tail,
)

#: Hypervector dimension of every workload.
DIM = 2048

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Tail-latency limit of one ``/search`` request (``serve-http``).
LATENCY_LIMIT_S = 0.200

#: A load-generator step is invalid when sends ran this late at the tail.
LATE_LIMIT_S = 0.010

#: The ``serve-http`` rate ladder: ``nominal * 2 ** (k / STEPS_PER_OCTAVE)``.
STEPS_PER_OCTAVE = 16
LADDER_LOW, LADDER_HIGH = -48, 112
GALLOP = 8

#: Sizes per preset.  ``full`` is the benchmark; ``tiny`` only
#: feeds the self-test.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "full": {
        "batch-open": {"targets": 4000, "segment_rows": 2700, "files": 4, "per_file": 64},
        "serve-http": {
            "targets": 2500, "pool": 1000, "nominal_rps": 24.0, "trace_requests": 64,
        },
        "scatter-gather": {
            "targets": 2000, "segment_rows": 1024, "partitions": 2,
            "batch": 32, "pool_batches": 36, "trace_batches": 6, "probe_batches": 4,
        },
        "ann-large": {"targets": 4500, "files": 5, "per_file": 64},
    },
    "tiny": {
        "batch-open": {"targets": 150, "segment_rows": 128, "files": 3, "per_file": 6},
        "serve-http": {
            "targets": 150, "pool": 200, "nominal_rps": 24.0, "trace_requests": 16,
        },
        "scatter-gather": {
            "targets": 150, "segment_rows": 64, "partitions": 2,
            "batch": 8, "pool_batches": 12, "trace_batches": 2, "probe_batches": 2,
        },
        "ann-large": {"targets": 300, "files": 3, "per_file": 6},
    },
}

#: ``ann-large`` prefilter flags.  The default 8 tables of 16-bit keys
#: reach ~0.1 top-1 recall on these modified, noisy queries; following
#: docs/ann-tuning.md (raise tables before the budget) 32 tables of
#: 8-bit keys reach ~0.65 while scoring a few percent of each window.
ANN_FLAGS = ["--ann", "--ann-tables", "32", "--ann-bits", "8"]

#: Warm-up spectra, never part of the measured pool: one answered query
#: ends each set-up, and on ``serve-http`` a short untimed burst at the
#: nominal rate then warms each server before its measured part.
WARMUP_SPECTRA = 48
WARMUP_BURST_SECONDS = 0.5


def workload_names() -> List[str]:
    """The workloads, in the order the README describes them."""
    return list(SIZES["full"])


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def _query_count(workload: str, size: Dict[str, float]) -> int:
    if workload in ("batch-open", "ann-large"):
        return int(size["files"] * size["per_file"])
    if workload == "serve-http":
        return int(size["pool"]) + WARMUP_SPECTRA
    batches = size["pool_batches"] + 2 * size["trace_batches"] + size["probe_batches"]
    return int(batches * size["batch"]) + WARMUP_SPECTRA


def generate(workload: str, seed: int, size: Dict[str, float], out: Path) -> None:
    """Write the seeded inputs of one workload into ``out``.

    The library gets one decoy per target exactly as the CLI adds them
    (simulator-backed factory and RNG both seeded with ``seed``), so the
    program ingests a finished target+decoy MSP file.
    """
    from repro.ms.decoy import append_decoys
    from repro.ms.mgf import write_mgf
    from repro.ms.msp import write_msp
    from repro.ms.synthetic import (
        REFERENCE_NOISE,
        SpectrumSimulator,
        WorkloadConfig,
        build_workload,
    )

    synthetic = build_workload(
        WorkloadConfig(
            name=f"{workload}-s{seed}",
            num_references=int(size["targets"]),
            num_queries=_query_count(workload, size),
            seed=seed,
        )
    )
    simulator = SpectrumSimulator(seed=seed)

    def decoy_factory(peptide, charge, identifier):
        return simulator.spectrum(peptide, charge, identifier, noise=REFERENCE_NOISE)

    out.mkdir(parents=True, exist_ok=True)
    write_msp(append_decoys(synthetic.references, decoy_factory, seed=seed), out / "library.msp")
    queries = synthetic.queries
    if workload in ("batch-open", "ann-large"):
        per_file = int(size["per_file"])
        for number in range(int(size["files"])):
            chunk = queries[number * per_file : (number + 1) * per_file]
            write_mgf(chunk, out / f"queries-{number}.mgf")
    else:
        write_mgf(queries, out / "queries.mgf")


# ----------------------------------------------------------------------
# run context and outcome
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class Context:
    """Everything a workload needs: inputs, budget, tracing, children."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    size: Dict[str, float]
    work: Path
    inputs: Path
    trace_path: Path
    children: Children
    layers: Optional[LayerTrace] = None
    tracing: bool = False
    timeline: Dict[str, float] = field(default_factory=dict)

    def mark(self, label: str) -> None:
        """Record when a stage of the run ended, in seconds since ``t0``."""
        now = time.perf_counter()
        origin = self.timeline.setdefault("t0", now)
        if label != "t0":
            self.timeline[label] = round(now - origin, 3)

    def span(self, name: str, **tags):
        """A layer span when the traced half is running, else nothing."""
        if self.tracing:
            return self.layers.span(name, **tags)
        return _NULL

    def operation(self, name: str, **tags):
        """A root span per operation when tracing, else nothing."""
        if self.tracing:
            return self.layers.operation(name, **tags)
        return _NULL

    def parse_iter(self, path: Path) -> Iterator:
        """Stream a spectrum file, timing the parser when tracing."""
        from repro.ms import iter_spectra

        spectra = iter_spectra(path)
        return self.layers.timed_iter(spectra, "ms.parse") if self.tracing else spectra

    def phase(self, name: str) -> None:
        """Label subsequent layer time with a phase (setup/query/...)."""
        if self.layers is not None:
            self.layers.phase = name


_NULL = contextlib.nullcontext()


def psm_key(psm) -> Optional[Tuple]:
    """Everything a PSM asserts except ``q_value`` (FDR writes it in place)."""
    if psm is None:
        return None
    return (
        psm.reference_id,
        psm.peptide_key,
        float(psm.score),
        bool(psm.is_decoy),
        float(psm.precursor_mass_difference),
        psm.mode,
    )


def _window_rows(masses: np.ndarray, charges: np.ndarray, queries: Iterable) -> List[int]:
    """Candidate rows per query: same charge, within the open window."""
    from repro.constants import DEFAULT_OPEN_WINDOW_DA

    buckets = {}
    for charge in np.unique(charges):
        buckets[int(charge)] = np.sort(masses[charges == charge])
    counts = []
    for query in queries:
        bucket = buckets.get(int(query.precursor_charge))
        if bucket is None:
            counts.append(0)
            continue
        low = np.searchsorted(bucket, query.neutral_mass - DEFAULT_OPEN_WINDOW_DA, "left")
        high = np.searchsorted(bucket, query.neutral_mass + DEFAULT_OPEN_WINDOW_DA, "right")
        counts.append(int(high - low))
    return counts


def _space_and_binning(seed: int):
    from repro.hdc.spaces import HDSpaceConfig
    from repro.ms.vectorize import BinningConfig

    binning = BinningConfig()
    return HDSpaceConfig(dim=DIM, num_bins=binning.num_bins, seed=seed), binning


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


def _register_layer_patches(layers: LayerTrace) -> Dict[str, int]:
    """Time the public entry points of every in-process layer.

    Returns the live counter dict the wrappers update (rejected
    spectra, encoded spectra, rows scored).
    """
    import repro.index.library as library_module
    import repro.oms.loop as loop_module
    from repro.ann import CandidatePrefilter, HammingLSHIndex
    from repro.exec.pool import ProcessShardExecutor
    from repro.exec.scorer import ShardScorer
    from repro.hdc.encoder import SpectrumEncoder
    from repro.store import SegmentedStore

    counters: Dict[str, int] = {"rejected": 0, "encoded": 0, "rows": 0}

    def on_preprocess(result, args, kwargs):
        if result is None and layers.phase == "query":
            counters["rejected"] += 1

    def on_encode(result, args, kwargs):
        if layers.phase == "query":
            counters["encoded"] += len(args[1])

    def on_score(result, args, kwargs):
        scorer = args[0]
        rows = int(result[5][0]) if scorer.prefilter is not None else int(result[0].sum())
        if layers.phase == "query":
            counters["rows"] += rows

    def on_pool(results, args, kwargs):
        # Pool workers time score_batch themselves; their timings and
        # row counts come back in each result tuple.
        for result in results:
            layers.emit("exec.score", float(result[1]), lane=f"pool-shard-{result[0]}")
            scored = result[2:]
            if layers.phase == "query":
                counters["rows"] += int(scored[5][0]) if scored[4].sum() else int(scored[0].sum())

    layers.patch(loop_module, "preprocess", "ms.preprocess", on_preprocess)
    layers.patch(library_module, "preprocess", "ms.preprocess", on_preprocess)
    layers.patch(SpectrumEncoder, "encode_batch", "hdc.encode", on_encode)
    layers.patch(ShardScorer, "score_batch", "exec.score", on_score)
    layers.patch(ProcessShardExecutor, "run", "exec.fanout", on_pool)
    layers.patch(SegmentedStore, "segment", "store.open")
    layers.patch(HammingLSHIndex, "build", "ann.build")
    layers.patch(CandidatePrefilter, "select", "ann.select")
    return counters


def _self_time(layers: LayerTrace, parent: str, children: Tuple[str, ...]) -> float:
    """Summed ``parent`` span time not covered by any ``children`` span.

    Children are matched by request id and clipped to the parent's
    interval; overlapping children (encode running ahead of scoring on
    the pipeline thread) are counted once.
    """
    spans = layers.tracer.records()
    by_request: Dict[str, List] = {}
    for span in spans:
        if span.name in children and span.tags.get("phase") == "query":
            by_request.setdefault(span.request_id, []).append(span)
    total = 0.0
    for span in spans:
        if span.name != parent or span.tags.get("phase") != "query":
            continue
        start, end = span.start, span.start + span.duration
        intervals = sorted(
            (max(start, child.start), min(end, child.start + child.duration))
            for child in by_request.get(span.request_id, [])
        )
        covered, cursor = 0.0, start
        for low, high in intervals:
            low = max(low, cursor)
            if high > low:
                covered += high - low
                cursor = high
        total += span.duration - covered
    return total


# ----------------------------------------------------------------------
# offline workloads: batch-open (segmented store) and ann-large (ANN)
# ----------------------------------------------------------------------


def run_batch_open(ctx: Context) -> Outcome:
    """Parse, search and FDR-filter query files against a segmented store."""
    return _run_offline(ctx, ann=False)


def run_ann_large(ctx: Context) -> Outcome:
    """ANN-prefiltered search of query files against an ``--ann`` index."""
    return _run_offline(ctx, ann=True)


def _cli_search_setup(index_path: Path, query_path: Path, ann: bool):
    """Engine, windows and search config exactly as ``repro index search``."""
    from repro.ann import AnnConfig
    from repro.cli import build_parser, engine_config_from_args
    from repro.constants import DEFAULT_STANDARD_WINDOW_DA
    from repro.oms.candidates import WindowConfig
    from repro.oms.search import HDSearchConfig

    argv = ["index", "search", "--index", str(index_path), "--queries", str(query_path)]
    args = build_parser().parse_args(argv + (ANN_FLAGS if ann else []))
    windows = WindowConfig(
        standard_tolerance_da=DEFAULT_STANDARD_WINDOW_DA, open_window_da=args.open_window
    )
    ann_config = (
        AnnConfig(num_tables=args.ann_tables, bits_per_hash=args.ann_bits) if ann else None
    )
    config = HDSearchConfig(mode=args.mode, ann=ann_config)
    return engine_config_from_args(args), windows, config


def _run_offline(ctx: Context, ann: bool) -> Outcome:
    from repro.constants import DEFAULT_FDR_THRESHOLD
    from repro.index import LibraryIndex, ShardedSearcher
    from repro.ms.mgf import read_mgf
    from repro.oms.fdr import grouped_fdr
    from repro.oms.search import HDOmsSearcher, HDSearchConfig
    from repro.store import SegmentedSearcher, SegmentedStore, build_store

    size = ctx.size
    library = ctx.inputs / "library.msp"
    files = [ctx.inputs / f"queries-{n}.mgf" for n in range(int(size["files"]))]
    space, binning = _space_and_binning(ctx.seed)
    suffix = ".npz" if ann else ""
    engine, windows, config = _cli_search_setup(ctx.work / f"library{suffix}", files[0], ann)
    counters = _register_layer_patches(ctx.layers) if ctx.layers is not None else {}

    def ingest(target: Path) -> None:
        if ann:  # repro index build --ann
            with ctx.span("index.build"):
                index = LibraryIndex.build(
                    list(ctx.parse_iter(library)), space_config=space, binning=binning,
                    source=str(library), ann=config.ann,
                )
                index.save(target)
        else:  # repro index build --segment-rows
            with ctx.span("store.build"):
                build_store(
                    ctx.parse_iter(library), target, space_config=space, binning=binning,
                    segment_rows=int(size["segment_rows"]), source=str(library),
                ).close()

    def open_engine(target: Path):
        if ann:
            with ctx.span("index.load"):
                index = LibraryIndex.load(target)
            return ShardedSearcher(
                index, windows=windows, config=config, engine=engine.replace(kind="sharded")
            )
        with ctx.span("store.open"):
            return SegmentedSearcher(
                target, windows=windows, config=config, engine=engine.replace(kind="segmented")
            )

    def search_file(searcher, path: Path):
        with ctx.operation("bench.search_file"):
            with ctx.span("ms.parse"):
                queries = list(read_mgf(path))
            with ctx.span("oms.search"):
                result = searcher.search(queries)
            keys = {psm.query_id: psm_key(psm) for psm in result.psms}
            with ctx.span("oms.fdr"):
                grouped_fdr(result.psms, DEFAULT_FDR_THRESHOLD)
        return queries, keys

    # -- set-up: ingest + open + first search (opens lazy segments/pools).
    # Untraced, the run's measurement is split over every set-up's
    # engine, so one engine's scheduling luck does not set it.
    setups: List[float] = []
    repeats = 1 if ctx.traced else SETUP_REPEATS
    calls: List[Tuple[int, float, Dict]] = []
    cycle = itertools.cycle(range(len(files)))
    searcher = None
    target = ctx.work / f"library{suffix}"
    outcome = Outcome()
    try:
        for _attempt in range(repeats):
            if searcher is not None:
                searcher.close()
                searcher = None
                # Free the previous engine now, not at an arbitrary
                # later collection, so the peak RSS does not depend on
                # garbage-collector timing.
                gc.collect()
                if target.is_dir():
                    shutil.rmtree(target)
                else:
                    target.unlink()
            ctx.phase("setup")
            started = time.perf_counter()
            with _installed(ctx):
                ingest(target)
                searcher = open_engine(target)
                search_file(searcher, files[0])
            setups.append(time.perf_counter() - started)
            if not ctx.traced:
                ctx.phase("query")
                deadline = time.perf_counter() + ctx.seconds / repeats
                for number in cycle:
                    call_started = time.perf_counter()
                    _queries, keys = search_file(searcher, files[number])
                    calls.append((number, time.perf_counter() - call_started, keys))
                    if time.perf_counter() >= deadline:
                        break
        ctx.mark("set_up")
        if ctx.traced:
            gaps: List[float] = []
            wall = {}
            for half in ("untraced", "traced"):
                ctx.phase("query")
                ann_before = searcher.ann_stats.snapshot() if ann else None
                batches_before = sum(getattr(searcher, "segment_batches", {}).values())
                started = time.perf_counter()
                with _installed(ctx, active=half == "traced"):
                    last_end = None
                    for number, path in enumerate(files):
                        call_started = time.perf_counter()
                        if last_end is not None:
                            gaps.append(call_started - last_end)
                        _queries, keys = search_file(searcher, path)
                        last_end = time.perf_counter()
                        calls.append((number, last_end - call_started, keys))
                wall[half] = time.perf_counter() - started
            ctx.phase("done")
            outcome.layers.update(
                _offline_layers(ctx, searcher, counters, files, target, ann, ann_before,
                                batches_before, wall, gaps)
            )
        else:
            outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
    finally:
        if searcher is not None:
            searcher.close()
    ctx.mark("measured")

    # -- correctness: the per-query oracle on the same rows, untimed
    oracle_index = LibraryIndex.load(target) if ann else SegmentedStore.open(target).to_index()
    oracle = HDOmsSearcher.from_index(
        oracle_index, windows=windows, config=HDSearchConfig(mode=config.mode)
    )
    expected = []
    for path in files:
        queries = list(read_mgf(path))
        found = {psm.query_id: psm_key(psm) for psm in oracle.search(queries).psms}
        expected.append({query.identifier: found.get(query.identifier) for query in queries})
    hits = 0
    for number, _latency, keys in calls:
        for query_id, want in expected[number].items():
            got = keys.get(query_id)
            outcome.attempted += 1
            if got == want:
                hits += 1
            elif not ann or _ann_violation(got, want):
                outcome.failed += 1
    ctx.mark("checked")
    latencies = [latency for _, latency, _ in calls]
    tail_value, percentile, samples = tail(latencies)
    outcome.details.update(
        rows=int(oracle_index.num_references),
        queries_per_call=int(size["per_file"]),
        calls=len(calls),
        tail_percentile=round(percentile, 2),
        tail_samples=samples,
        setup_samples_s=setups,
    )
    if not ctx.traced:
        outcome.end_to_end.update(
            queries_per_s=int(size["per_file"]) / median(latencies),
            latency_p50_ms=1000.0 * median(latencies),
            latency_tail_ms=1000.0 * tail_value,
            setup_s=median(setups),
            recall_top1=hits / outcome.attempted,
        )
    return outcome


def _ann_violation(got: Optional[Tuple], want: Optional[Tuple]) -> bool:
    """Whether an approximate PSM is wrong rather than merely different.

    The prefilter may miss the exact winner, but it can never beat the
    exact score, find a match where the exact search has none, or score
    the oracle's own reference differently.
    """
    if got is None:
        return False
    if want is None:
        return True
    if got[0] == want[0]:
        return got != want
    return got[2] > want[2]


@contextlib.contextmanager
def _installed(ctx: Context, active: Optional[bool] = None) -> Iterator[None]:
    """Install the layer wrappers for the traced half (no-op otherwise)."""
    if not (ctx.traced if active is None else active):
        yield
        return
    ctx.tracing = True
    try:
        with ctx.layers.installed():
            yield
    finally:
        ctx.tracing = False


def _offline_layers(ctx, searcher, counters, files, target, ann, ann_before, batches_before,
                    wall, gaps) -> Dict[str, float]:
    from repro.ms.mgf import read_mgf

    layers = ctx.layers
    queries = [query for path in files for query in read_mgf(path)]
    rows = searcher.num_references
    if ann:
        from repro.index import LibraryIndex

        index = LibraryIndex.load(target)
        masses, charges = np.asarray(index.neutral_masses), np.asarray(index.charges)
    else:
        store = searcher.store
        masses = np.concatenate([np.asarray(store.segment(i).neutral_masses)
                                 for i in range(store.num_segments)])
        charges = np.concatenate([np.asarray(store.segment(i).charges)
                                  for i in range(store.num_segments)])
    windows = _window_rows(masses, charges, queries)
    encode_s = layers.total("hdc.encode")
    score_s = layers.total("exec.score")
    values = {
        "ms.parse_s": layers.total("ms.parse"),
        "ms.preprocess_s": layers.total("ms.preprocess"),
        "ms.rejected": counters["rejected"],
        "hdc.encode_s": encode_s,
        "hdc.encode_spectra_per_s": counters["encoded"] / encode_s if encode_s else 0.0,
        "store.build_s": layers.total("store.build", "setup"),
        "store.open_s": layers.total("store.open", "setup"),
        "index.build_s": layers.total("index.build", "setup"),
        "index.load_s": layers.total("index.load", "setup"),
        "store.bytes_per_row": _tree_bytes(target) / rows,
        "store.segments_opened": getattr(searcher, "segments_opened", 0),
        "store.segment_batches": (
            sum(getattr(searcher, "segment_batches", {}).values()) - batches_before
        ),
        "oms.window_rows_mean": float(np.mean(windows)),
        "oms.search_s": layers.total("oms.search"),
        "oms.search_self_s": _self_time(
            layers, "oms.search", ("hdc.encode", "exec.score", "exec.fanout")
        ),
        "oms.fdr_s": layers.total("oms.fdr"),
        "exec.score_s": score_s,
        "exec.rows_scored": counters["rows"],
        "exec.rows_per_s": counters["rows"] / score_s if score_s else 0.0,
        "exec.bytes_moved_computed": counters["rows"] * DIM * 4,
        "ann.build_s": layers.total("ann.build", "setup"),
        "loadgen.late_ms_tail": 1000.0 * tail(gaps)[0] if gaps else 0.0,
        "trace.overhead_ratio": wall["traced"] / wall["untraced"],
    }
    if ann:
        after = searcher.ann_stats.snapshot()
        delta = {key: after[key] - ann_before[key] for key in after}
        outcomes = delta["bypassed"] + delta["prefiltered"] + delta["fallbacks"]
        values["ann.candidate_ratio"] = (
            delta["scored_rows"] / delta["window_rows"] if delta["window_rows"] else 0.0
        )
        values["ann.fallback_ratio"] = delta["fallbacks"] / outcomes if outcomes else 0.0
        values.update(_replay_prefilter(ctx, searcher, queries))
    return values


def _replay_prefilter(ctx: Context, searcher, queries) -> Dict[str, float]:
    """Time prefilter selection and exact re-rank in this process.

    The CLI's default executor scores in a pool process, out of reach
    of the benchmark's wrappers, so the same rows, tables and encoded
    queries are replayed through one in-process ``ShardScorer``.
    """
    from repro.ann import HammingLSHIndex
    from repro.exec.scorer import ShardScorer, shard_payload
    from repro.ms.preprocessing import preprocess
    from repro.oms.search import DenseBackend, encode_queries

    index = searcher.index
    packed = np.asarray(index.packed)
    tables = HammingLSHIndex.build(packed, index.dim, searcher.config.ann)
    scorer = ShardScorer(
        shard_payload(
            0, (0, index.num_references), packed, np.asarray(index.neutral_masses),
            np.asarray(index.charges), dim=index.dim, backend=searcher.engine.backend,
            charge_aware=searcher.windows.charge_aware, ann=searcher.config.ann,
            ann_tables=tables,
        )
    )
    processed = [p for p in (preprocess(q, searcher.preprocessing) for q in queries) if p]
    hvs = encode_queries(searcher.encoder, processed)
    masses = np.array([q.neutral_mass for q in processed])
    charges = np.array([q.precursor_charge for q in processed], dtype=np.int64)
    replay = ctx.layers
    replay.phase = "replay"
    targets = [
        (type(scorer.prefilter), "select", "ann.select", None),
        (DenseBackend, "scores", "ann.rerank", None),
    ]
    with replay.installed(targets):
        scorer.score_batch(hvs, masses, charges, searcher.windows.open_window_da)
    return {
        "ann.select_s": replay.total("ann.select", "replay"),
        "ann.rerank_s": replay.total("ann.rerank", "replay"),
    }


# ----------------------------------------------------------------------
# HTTP plumbing shared by serve-http and scatter-gather
# ----------------------------------------------------------------------

_METRIC_LINE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")


def _prometheus(text: str) -> Dict[Tuple[str, str], float]:
    """``{(name, labels): value}`` from a Prometheus text payload."""
    values = {}
    for line in text.splitlines():
        match = _METRIC_LINE.match(line.strip())
        if match:
            values[(match.group(1), match.group(2) or "")] = float(match.group(3))
    return values


def _metric_sum(values: Dict[Tuple[str, str], float], name: str, **labels: str) -> float:
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    return sum(
        value for (metric, label_text), value in values.items()
        if metric == name and all(item in label_text for item in wanted)
    )


@dataclass
class Request:
    """One HTTP operation as the client saw it."""

    due: float
    started: float = 0.0
    done: float = 0.0
    status: Optional[int] = None
    reply: Optional[dict] = None
    request_bytes: int = 0
    response_bytes: int = 0
    spectra: Tuple[str, ...] = ()

    @property
    def latency(self) -> float:
        """Due-to-done seconds; a failed request never meets a limit."""
        return self.done - self.due if self.status == 200 else float("inf")


async def _send(ctx: Context, client, path: str, body: dict, request: Request,
                request_bytes: int) -> Request:
    from repro.coord.aioclient import AsyncClientError

    loop = asyncio.get_running_loop()
    request.started = loop.time()
    request.request_bytes = request_bytes
    headers = None
    root = ctx.layers.tracer.span("bench.request") if ctx.tracing else _NULL
    with root as span:
        if span is not None:
            from repro.obs import new_request_id

            span.request_id = new_request_id()
            headers = {"X-Request-Id": span.request_id}
        with ctx.span("service.http"):
            try:
                status, _headers, data = await client.request("POST", path, body, headers=headers)
            except (AsyncClientError, asyncio.TimeoutError):
                status, data = None, b""
        request.done = loop.time()
        request.status = status
        request.response_bytes = len(data)
        if status == 200:
            request.reply = json.loads(data)
    return request


async def _get_json(client, path: str) -> dict:
    _status, payload = await client.request_json("GET", path)
    return payload


async def _get_text(client, path: str) -> str:
    _status, _headers, data = await client.request("GET", path)
    return data.decode("utf-8")


async def _wait_healthy(client, timeout: float = 120.0) -> None:
    from repro.coord.aioclient import AsyncClientError

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            status, payload = await client.request_json("GET", "/healthz", raise_for_status=False)
        except AsyncClientError:
            status, payload = None, {}
        if status == 200 and payload.get("status") == "ok":
            return
        await asyncio.sleep(0.05)
    raise BenchmarkError("server never reported healthy")


def _server_rss(child) -> float:
    pids = [child.process.pid] + child_pids(child.process.pid)
    return sum(peak_rss_mb(pid) for pid in pids)


def _check_psms(requests: Iterable[Request], expected: Dict[str, Optional[Tuple]],
                payload_key: str) -> Tuple[int, int]:
    """``(attempted, failed)`` over every spectrum of every request."""
    from repro.oms.psm import PSM

    attempted = failed = 0
    for request in requests:
        replies = None
        if request.status == 200:
            raw = request.reply[payload_key]
            replies = raw if isinstance(raw, list) else [raw]
        for position, spectrum_id in enumerate(request.spectra):
            attempted += 1
            if replies is None:
                failed += 1
                continue
            payload = replies[position]
            got = psm_key(PSM.from_dict(payload)) if payload is not None else None
            if got != expected[spectrum_id]:
                failed += 1
    return attempted, failed


def _oracle(index, spectra) -> Dict[str, Optional[Tuple]]:
    from repro.oms.candidates import WindowConfig
    from repro.oms.search import HDOmsSearcher

    searcher = HDOmsSearcher.from_index(index, windows=WindowConfig())
    found = {psm.query_id: psm_key(psm) for psm in searcher.search(list(spectra)).psms}
    return {spectrum.identifier: found.get(spectrum.identifier) for spectrum in spectra}


def _service_deltas(before: dict, after: dict) -> Dict[str, float]:
    """Server-side per-layer numbers from two ``/stats`` snapshots."""
    def scheduler_totals(stats):
        scheduler = stats["scheduler"]
        batched = scheduler["mean_batch_size"] * scheduler["batches"]
        return scheduler["batches"], batched, scheduler["mean_queue_wait_ms"] * batched

    batches = batched = wait_ms = 0.0
    latency_ms = latency_count = hits = misses = 0.0
    for stats_before, stats_after in zip(before, after):
        b0, n0, w0 = scheduler_totals(stats_before)
        b1, n1, w1 = scheduler_totals(stats_after)
        batches, batched, wait_ms = batches + b1 - b0, batched + n1 - n0, wait_ms + w1 - w0
        latency_ms += stats_after["latency"]["total_ms"] - stats_before["latency"]["total_ms"]
        latency_count += stats_after["latency"]["count"] - stats_before["latency"]["count"]
        hits += stats_after["cache"]["hits"] - stats_before["cache"]["hits"]
        misses += stats_after["cache"]["misses"] - stats_before["cache"]["misses"]
    return {
        "service.server_ms": latency_ms / latency_count if latency_count else 0.0,
        "service.queue_wait_ms": wait_ms / batched if batched else 0.0,
        "service.batch_size_mean": batched / batches if batches else 0.0,
        "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "spectra": batched,
    }


def _stage_deltas(before: List[str], after: List[str]) -> Dict[str, float]:
    """Per-stage seconds the servers' own spans recorded between scrapes."""
    stages = ("encode", "engine", "serialize", "score_dense", "shard_score", "score_window")
    totals = dict.fromkeys(stages, 0.0)
    for text_before, text_after in zip(before, after):
        values_before, values_after = _prometheus(text_before), _prometheus(text_after)
        for stage in stages:
            name = "hdoms_service_stage_seconds_sum"
            totals[stage] += _metric_sum(values_after, name, stage=stage) - _metric_sum(
                values_before, name, stage=stage
            )
    return totals


async def _span_sums(client, names: Tuple[str, ...], seen: set) -> Dict[str, float]:
    """Seconds per span name among spans a server recorded since ``seen``."""
    trace = await _get_json(client, "/debug/trace")
    sums = dict.fromkeys(names, 0.0)
    for event in trace.get("traceEvents", []):
        span_id = event.get("args", {}).get("span_id")
        if event.get("ph") != "X" or span_id in seen:
            continue
        seen.add(span_id)
        if event["name"] in names:
            sums[event["name"]] += event["dur"] / 1e6
    return sums


def _http_layers(ctx, records: List[Request], service: Dict[str, float],
                 stages: Dict[str, float], windows: List[int], extra: Dict[str, float]):
    ok = [request for request in records if request.status == 200]
    hops = [
        1000.0 * (request.done - request.started) - request.reply["elapsed_ms"]
        for request in ok
    ]
    encode_s = stages["encode"]
    score_s = extra.pop("exec.score_s", stages["shard_score"])
    rows = extra.pop("exec.rows_scored", 0)
    scoring = stages["score_dense"] + stages["score_window"] + score_s
    values = {
        "ms.parse_s": ctx.layers.total("ms.parse"),
        "hdc.encode_s": encode_s,
        "hdc.encode_spectra_per_s": service["spectra"] / encode_s if encode_s else 0.0,
        "oms.window_rows_mean": float(np.mean(windows)),
        "oms.search_s": stages["engine"],
        "oms.search_self_s": max(0.0, stages["engine"] - encode_s - scoring),
        "exec.score_s": score_s,
        "exec.rows_scored": rows,
        "exec.rows_per_s": rows / score_s if score_s else 0.0,
        "exec.bytes_moved_computed": rows * DIM * 4,
        "service.server_ms": service["service.server_ms"],
        "service.hop_ms": median(hops) if hops else 0.0,
        "service.queue_wait_ms": service["service.queue_wait_ms"],
        "service.batch_size_mean": service["service.batch_size_mean"],
        "service.cache_hit_ratio": service["service.cache_hit_ratio"],
        "service.request_bytes": float(np.mean([r.request_bytes for r in records])),
        "service.response_bytes": float(np.mean([r.response_bytes for r in ok])) if ok else 0.0,
        "service.json_s": stages["serialize"],
        "service.rejected": sum(1 for r in records if r.status in (429, 503)),
    }
    values.update(extra)
    return values


# ----------------------------------------------------------------------
# serve-http: open-loop single-spectrum traffic against `repro serve`
# ----------------------------------------------------------------------


@dataclass
class Step:
    """One offered rate held for a fixed time."""

    index: int
    rate: float
    records: List[Request]
    end: float
    exhausted: bool = False
    on_schedule: bool = True

    def late_tail(self) -> float:
        """Tail of how late the generator issued each request."""
        return tail([r.started - r.due for r in self.records])[0]

    def valid(self) -> bool:
        """Whether the generator kept its schedule (else latencies are void)."""
        return (
            bool(self.records) and not self.exhausted and self.on_schedule
            and self.late_tail() <= LATE_LIMIT_S
        )

    def passed(self) -> bool:
        """Tail within the limit, nothing failed, no backlog at the end."""
        if not self.valid() or any(r.status != 200 for r in self.records):
            return False
        backlog = sum(1 for r in self.records if r.done > self.end) if self.end else 0
        return (
            tail([r.latency for r in self.records])[0] <= LATENCY_LIMIT_S
            and backlog <= max(2.0, self.rate * LATENCY_LIMIT_S)
        )


def _ladder_rate(nominal: float, index: int) -> float:
    return nominal * 2.0 ** (index / STEPS_PER_OCTAVE)


async def _open_loop(ctx, client, index: int, rate: float, duration: float,
                     feed: Iterator[Tuple[str, dict, int]]) -> Step:
    """Send at ``rate`` for ``duration``; time each request from its due time."""
    loop = asyncio.get_running_loop()
    count = max(1, int(round(rate * duration)))
    start = loop.time() + 0.005
    tasks = []
    exhausted = False
    for number in range(count):
        item = next(feed, None)
        if item is None:
            exhausted = True
            break
        spectrum_id, body, size = item
        due = start + number / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        request = Request(due=due, spectra=(spectrum_id,))
        tasks.append(loop.create_task(_send(ctx, client, "/search", body, request, size)))
    records = list(await asyncio.gather(*tasks))
    return Step(index, rate, records, start + count / rate, exhausted)


def run_serve_http(ctx: Context) -> Outcome:
    """Single-spectrum ``/search`` traffic on a fixed rate ladder."""
    from repro.coord.aioclient import AsyncSearchClient
    from repro.index import LibraryIndex
    from repro.ms.mgf import read_mgf
    from repro.service.protocol import spectrum_to_payload

    size = ctx.size
    library = ctx.inputs / "library.msp"
    space, binning = _space_and_binning(ctx.seed)
    with _installed(ctx, active=ctx.traced):
        ctx.phase("query")
        with ctx.span("ms.parse"):
            spectra = list(read_mgf(ctx.inputs / "queries.mgf"))
    warmup, pool = spectra[:WARMUP_SPECTRA], spectra[WARMUP_SPECTRA:]
    bodies = [{"spectrum": spectrum_to_payload(spectrum)} for spectrum in pool]
    items = [
        (spectrum.identifier, body, len(json.dumps(body)))
        for spectrum, body in zip(pool, bodies)
    ]
    if ctx.layers is not None:
        _register_layer_patches(ctx.layers)
    index_path = ctx.work / "library.npz"
    nominal = float(size["nominal_rps"])
    repeats = 1 if ctx.traced else SETUP_REPEATS
    # Half the run at the nominal rate, split over every set-up's server
    # so one process's scheduling luck does not set the latency.
    part_seconds = ctx.seconds / 2.0 / repeats
    step_seconds = ctx.seconds / 8.0

    async def bring_up() -> Tuple[object, float, float]:
        started = time.perf_counter()
        with _installed(ctx):
            ctx.phase("setup")
            with ctx.span("index.build"):
                LibraryIndex.build(
                    list(ctx.parse_iter(library)), space_config=space, binning=binning,
                    source=str(library),
                ).save(index_path)
        opened = time.perf_counter()
        child = ctx.children.serve(index_path, ctx.work)
        client = AsyncSearchClient(child.wait_bound(), max_connections=2, timeout=30.0)
        await _wait_healthy(client)
        body = {"spectrum": spectrum_to_payload(warmup[0])}
        warm = await _send(ctx, client, "/search", body, Request(time.monotonic()), 0)
        await client.close()
        if warm.status != 200:
            raise BenchmarkError(f"warm-up request failed with {warm.status}")
        ended = time.perf_counter()
        return child, ended - started, ended - opened

    async def main():
        setups, parts, child, client = [], [], None, None
        feed = iter(items)
        warm_feed = iter(
            (spectrum.identifier, {"spectrum": spectrum_to_payload(spectrum)}, 0)
            for spectrum in warmup[1:]
        )
        for _attempt in range(repeats):
            if child is not None:
                await client.close()
                # Off the loop thread: the loop must keep running to
                # close our keep-alive sockets, or the server's drain
                # waits on them.
                await asyncio.to_thread(ctx.children.stop, child)
            child, seconds, ready = await bring_up()
            setups.append(seconds)
            client = AsyncSearchClient(child.url, max_connections=2, timeout=30.0)
            if not ctx.traced:
                ctx.phase("query")
                await _open_loop(ctx, client, 0, nominal, WARMUP_BURST_SECONDS, warm_feed)
                parts.append(await _open_loop(ctx, client, 0, nominal, part_seconds, feed))
        ctx.mark("set_up")
        outcome = Outcome(details={"setup_samples_s": setups})
        try:
            if not ctx.traced:
                # The pooled step's backlog was judged part by part.
                first = Step(0, nominal, [r for part in parts for r in part.records], 0.0,
                             any(part.exhausted for part in parts),
                             all(part.valid() for part in parts))
                steps = [first] + await _sweep(ctx, client, nominal, step_seconds, feed,
                                               all(part.passed() for part in parts))
                outcome.end_to_end["peak_rss_mb"] = _server_rss(child)
                return outcome, steps
            ctx.phase("query")
            count = int(size["trace_requests"])
            started = time.perf_counter()
            untraced = await _saturate(ctx, client, feed, count)
            untraced_wall = time.perf_counter() - started
            stats_before = [await _get_json(client, "/stats")]
            metrics_before = [await _get_text(client, "/metrics")]
            started = time.perf_counter()
            with _installed(ctx, active=True):
                traced = await _saturate(ctx, client, feed, count)
            traced_wall = time.perf_counter() - started
            stats_after = [await _get_json(client, "/stats")]
            metrics_after = [await _get_text(client, "/metrics")]
            outcome.layers.update(
                _http_layers(
                    ctx, traced, _service_deltas(stats_before, stats_after),
                    _stage_deltas(metrics_before, metrics_after),
                    _sent_windows(index_path, pool, traced),
                    {
                        "index.build_s": ctx.layers.total("index.build", "setup"),
                        "index.load_s": ready,
                        "store.bytes_per_row": _tree_bytes(index_path)
                        / LibraryIndex.load(index_path).num_references,
                        "loadgen.late_ms_tail": 1000.0 * tail(
                            [r.started - r.due for r in traced]
                        )[0],
                        "trace.overhead_ratio": traced_wall / untraced_wall,
                    },
                )
            )
            return outcome, [Step(0, nominal, untraced + traced, 0.0)]
        finally:
            await client.close()

    outcome, steps = asyncio.run(main())
    ctx.mark("measured")
    ctx.children.stop_all()
    ctx.mark("stopped")
    # -- correctness, untimed
    records = [r for step in steps for r in step.records]
    sent = {spectrum_id for r in records for spectrum_id in r.spectra}
    index = LibraryIndex.load(index_path)
    expected = _oracle(index, [spectrum for spectrum in pool if spectrum.identifier in sent])
    outcome.attempted, outcome.failed = _check_psms(records, expected, "psm")
    ctx.mark("checked")
    outcome.details.update(rows=int(index.num_references), nominal_rps=nominal)
    if ctx.traced:
        return outcome
    wrong = {
        spectrum_id for r in records for spectrum_id in r.spectra
        if _check_psms([r], expected, "psm")[1]
    }
    best = None
    for step in steps:
        correct = not any(sid in wrong for r in step.records for sid in r.spectra)
        if step.passed() and correct and (best is None or step.index > best.index):
            best = step
    nominal_step = steps[0]
    tail_value, percentile, samples = tail([r.latency for r in nominal_step.records])
    outcome.details.update(
        nominal_valid=nominal_step.valid(),
        late_ms_tail=1000.0 * nominal_step.late_tail(),
        tail_percentile=round(percentile, 2),
        tail_samples=samples,
        ladder=[
            {"rps": round(s.rate, 3), "passed": s.passed(), "valid": s.valid(),
             "tail_ms": round(1000.0 * tail([r.latency for r in s.records])[0], 2),
             "sent": len(s.records)}
            for s in steps
        ],
    )
    ok = [r.latency for r in nominal_step.records if r.status == 200]
    outcome.end_to_end.update(
        queries_per_s=best.rate if best is not None else _ladder_rate(nominal, LADDER_LOW),
        latency_p50_ms=1000.0 * median(ok or [float("inf")]),
        latency_tail_ms=1000.0 * tail_value,
        setup_s=median(outcome.details["setup_samples_s"]),
        recall_top1=(outcome.attempted - outcome.failed) / outcome.attempted,
    )
    return outcome


async def _saturate(ctx, client, feed, count: int) -> List[Request]:
    """Back-to-back requests on every pooled connection: the ladder's top.

    This is the regime an open loop reaches at capacity, with the
    client's queue empty, so each round trip is timed from its send.
    """
    loop = asyncio.get_running_loop()
    records: List[Request] = []

    async def caller() -> None:
        while len(records) < count:
            item = next(feed, None)
            if item is None:
                return
            spectrum_id, body, size = item
            request = Request(due=loop.time(), spectra=(spectrum_id,))
            records.append(request)
            await _send(ctx, client, "/search", body, request, size)

    await asyncio.gather(*(caller() for _ in range(2)))
    return records


async def _sweep(ctx, client, nominal, step_seconds, feed, first_passed) -> List[Step]:
    """Climb the fixed ladder from the nominal step; bisect the bracket.

    Galloping ``GALLOP`` ladder steps at a time finds a passing step
    and the first missing one above it; bisection then finds the
    highest passing step between them.  An invalid step (generator
    behind schedule) is retried once and never counts as a pass.
    """
    steps: List[Step] = []

    async def passes(index: int) -> Optional[bool]:
        for _attempt in range(2):
            step = await _open_loop(
                ctx, client, index, _ladder_rate(nominal, index), step_seconds, feed
            )
            steps.append(step)
            if step.exhausted:
                return None
            if step.valid():
                return step.passed()
        return False

    passing, missing = (0, None) if first_passed else (None, 0)
    index = 0
    while passing is None or missing is None:
        index += GALLOP if first_passed else -GALLOP
        if not LADDER_LOW <= index <= LADDER_HIGH:
            return steps
        verdict = await passes(index)
        if verdict is None:
            return steps
        if verdict:
            passing = index
        else:
            missing = index
    while missing - passing > 1:
        middle = (passing + missing) // 2
        verdict = await passes(middle)
        if verdict is None:
            return steps
        passing, missing = (middle, missing) if verdict else (passing, middle)
    return steps


def _sent_windows(index_path: Path, pool, records: List[Request]) -> List[int]:
    from repro.index import LibraryIndex

    index = LibraryIndex.load(index_path)
    sent = {spectrum_id for r in records for spectrum_id in r.spectra}
    return _window_rows(
        np.asarray(index.neutral_masses), np.asarray(index.charges),
        [spectrum for spectrum in pool if spectrum.identifier in sent],
    )


# ----------------------------------------------------------------------
# scatter-gather: closed-loop /search_batch through `repro coordinate`
# ----------------------------------------------------------------------


def run_scatter_gather(ctx: Context) -> Outcome:
    """Batches of spectra through a coordinator over local workers."""
    from repro.coord.aioclient import AsyncSearchClient
    from repro.coord.partition import PartitionPlan
    from repro.ms.mgf import read_mgf
    from repro.service.protocol import spectrum_to_payload
    from repro.store import SegmentedStore, build_store

    size = ctx.size
    batch = int(size["batch"])
    library = ctx.inputs / "library.msp"
    space, binning = _space_and_binning(ctx.seed)
    with _installed(ctx, active=ctx.traced):
        ctx.phase("query")
        with ctx.span("ms.parse"):
            spectra = list(read_mgf(ctx.inputs / "queries.mgf"))
    by_id = {spectrum.identifier: spectrum for spectrum in spectra}
    payloads = {spectrum.identifier: spectrum_to_payload(spectrum) for spectrum in spectra}

    def batches_of(chunk) -> List[Tuple[Tuple[str, ...], dict, int]]:
        out = []
        for start in range(0, len(chunk) - batch + 1, batch):
            ids = tuple(s.identifier for s in chunk[start : start + batch])
            body = {"spectra": [payloads[i] for i in ids]}
            out.append((ids, body, len(json.dumps(body))))
        return out

    warmup, rest = batches_of(spectra[:WARMUP_SPECTRA])[0], spectra[WARMUP_SPECTRA:]
    pool_end = int(size["pool_batches"]) * batch
    trace_end = pool_end + 2 * int(size["trace_batches"]) * batch
    pool = batches_of(rest[:pool_end])
    trace_sets = batches_of(rest[pool_end:trace_end])
    probes = batches_of(rest[trace_end:])
    if ctx.layers is not None:
        _register_layer_patches(ctx.layers)
    store_path = ctx.work / "store"
    partitions = int(size["partitions"])

    async def bring_up() -> Tuple[object, float, float]:
        started = time.perf_counter()
        with _installed(ctx):
            ctx.phase("setup")
            with ctx.span("store.build"):
                build_store(
                    ctx.parse_iter(library), store_path, space_config=space, binning=binning,
                    segment_rows=int(size["segment_rows"]), source=str(library),
                ).close()
        opened = time.perf_counter()
        child = ctx.children.coordinate(store_path, partitions, ctx.work)
        client = AsyncSearchClient(child.wait_bound(), max_connections=1, timeout=60.0)
        await _wait_healthy(client)
        ids, body, _size = warmup
        warm = await _send(ctx, client, "/search_batch", body, Request(time.monotonic(), spectra=ids), 0)
        await client.close()
        if warm.status != 200:
            raise BenchmarkError(f"warm-up batch failed with {warm.status}")
        ended = time.perf_counter()
        return child, ended - started, ended - opened

    async def closed_loop(client, work, deadline=None) -> List[Request]:
        records = []
        loop = asyncio.get_running_loop()
        for ids, body, nbytes in work:
            request = Request(due=loop.time(), spectra=ids)
            records.append(await _send(ctx, client, "/search_batch", body, request, nbytes))
            if deadline is not None and loop.time() >= deadline:
                break
        return records

    async def main():
        setups, rss, child, client = [], [], None, None
        coord_records: List[Request] = []
        merged_records: List[Request] = []
        repeats = 1 if ctx.traced else SETUP_REPEATS
        work = itertools.cycle(pool)
        for _attempt in range(repeats):
            if child is not None:
                await client.close()
                # Off the loop thread: the loop must keep running to
                # close our keep-alive sockets, or the server's drain
                # waits on them.
                await asyncio.to_thread(ctx.children.stop, child)
                shutil.rmtree(store_path)
            child, seconds, ready = await bring_up()
            setups.append(seconds)
            client = AsyncSearchClient(child.url, max_connections=1, timeout=60.0)
            if not ctx.traced:
                # The run's measurement is split over every set-up's
                # fleet, so one fleet's scheduling luck does not set it.
                ctx.phase("query")
                deadline = asyncio.get_running_loop().time() + ctx.seconds / repeats
                coord_records += await closed_loop(client, work, deadline)
                rss.append(_server_rss(child))
        ctx.mark("set_up")
        outcome = Outcome(details={"setup_samples_s": setups})
        try:
            if not ctx.traced:
                outcome.end_to_end["peak_rss_mb"] = median(rss)
                return outcome, coord_records, merged_records
            ctx.phase("query")
            half = len(trace_sets) // 2
            started = time.perf_counter()
            untraced = await closed_loop(client, trace_sets[:half])
            untraced_wall = time.perf_counter() - started
            workers = [AsyncSearchClient(url, max_connections=1) for url in _worker_urls(child)]
            stats_before = [await _get_json(w, "/stats") for w in workers]
            metrics_before = [await _get_text(w, "/metrics") for w in workers]
            coord_before = _prometheus(await _get_text(client, "/metrics"))
            seen = [set() for _ in workers]
            for worker, ids_seen in zip(workers, seen):
                await _span_sums(worker, (), ids_seen)
            started = time.perf_counter()
            with _installed(ctx, active=True):
                traced = await closed_loop(client, trace_sets[half:])
            traced_wall = time.perf_counter() - started
            coord_records += untraced + traced
            stats_after = [await _get_json(w, "/stats") for w in workers]
            metrics_after = [await _get_text(w, "/metrics") for w in workers]
            coord_after = _prometheus(await _get_text(client, "/metrics"))
            score_s = 0.0
            for worker, ids_seen in zip(workers, seen):
                sums = await _span_sums(worker, ("segment.score", "shard.score"), ids_seen)
                score_s += sum(sums.values())
            store = SegmentedStore.open(store_path)
            plan = PartitionPlan.build(store, partitions, "rows")
            index = store.to_index(mmap=False)
            bytes_per_row = _tree_bytes(store_path / "segments") / store.num_references
            store.close()
            probe = await _probe_workers(ctx, workers, probes, payloads, plan)
            merged_records += probe["merged"]
            for worker in workers:
                await worker.close()

            def coord_delta(name):
                return _metric_sum(coord_after, name) - _metric_sum(coord_before, name)

            fanout_count = coord_delta("hdoms_coord_fanout_partitions_count")
            windows = _window_rows(
                np.asarray(index.neutral_masses), np.asarray(index.charges),
                [by_id[i] for r in traced for i in r.spectra],
            )
            coord_ms = median(1000.0 * (r.done - r.started) for r in traced)
            outcome.layers.update(
                _http_layers(
                    ctx, probe["worker_records"], _service_deltas(stats_before, stats_after),
                    _stage_deltas(metrics_before, metrics_after), windows,
                    {
                        "exec.score_s": score_s,
                        "exec.rows_scored": int(sum(windows)),
                        "store.build_s": ctx.layers.total("store.build", "setup"),
                        "store.open_s": ready,
                        "store.bytes_per_row": bytes_per_row,
                        "coord.fanout_mean": (
                            coord_delta("hdoms_coord_fanout_partitions_sum") / fanout_count
                            if fanout_count else 0.0
                        ),
                        "coord.worker_ms": probe["worker_ms"],
                        "coord.overhead_ms": coord_ms - probe["slowest_ms"],
                        "coord.merge_ms": probe["merge_ms"],
                        "coord.hedges": coord_delta("hdoms_coord_hedges_total"),
                        "coord.retries": coord_delta("hdoms_coord_retries_total"),
                        "loadgen.late_ms_tail": 1000.0 * tail(
                            [b.started - a.done for a, b in zip(traced, traced[1:])] or [0.0]
                        )[0],
                        "trace.overhead_ratio": (traced_wall / len(traced))
                        / (untraced_wall / len(untraced)),
                    },
                )
            )
            return outcome, coord_records, merged_records
        finally:
            await client.close()

    outcome, coord_records, merged_records = asyncio.run(main())
    ctx.mark("measured")
    ctx.children.stop_all()
    ctx.mark("stopped")
    # -- correctness, untimed: every coordinator reply and every merge
    # the probe made, against the oracle on the full store
    store = SegmentedStore.open(store_path)
    index = store.to_index()
    sent = sorted({i for r in coord_records + merged_records for i in r.spectra})
    expected = _oracle(index, [by_id[i] for i in sent])
    rows = int(index.num_references)
    store.close()
    outcome.attempted, outcome.failed = _check_psms(
        coord_records + merged_records, expected, "psms"
    )
    ctx.mark("checked")
    latencies = [r.latency for r in coord_records]
    tail_value, percentile, samples = tail(latencies)
    outcome.details.update(
        rows=rows, batch=batch, requests=len(coord_records),
        tail_percentile=round(percentile, 2), tail_samples=samples,
    )
    if not ctx.traced:
        outcome.end_to_end.update(
            queries_per_s=batch / median(r.done - r.started for r in coord_records),
            latency_p50_ms=1000.0 * median(latencies),
            latency_tail_ms=1000.0 * tail_value,
            setup_s=median(outcome.details["setup_samples_s"]),
            recall_top1=(outcome.attempted - outcome.failed) / outcome.attempted,
        )
    return outcome


def _worker_urls(child) -> List[str]:
    """Worker URLs per partition, from the coordinator's start-up log."""
    urls = {}
    for line in child.lines:
        match = re.search(r"partition p(\d+): .* workers (http://\S+)", line)
        if match:
            urls[int(match.group(1))] = match.group(2).rstrip(",")
    return [urls[number] for number in sorted(urls)]


async def _probe_workers(ctx, workers, probes, payloads, plan) -> Dict[str, object]:
    """Call each worker directly on the sub-batch the coordinator would send.

    Gives the worker latency, the slowest-worker latency per batch, and
    the in-process cost of ``merge_psm_payloads`` on the real replies;
    the merged PSMs join the correctness check.
    """
    from repro.constants import DEFAULT_OPEN_WINDOW_DA
    from repro.coord.coordinator import merge_psm_payloads
    from repro.service.protocol import spectrum_from_payload

    loop = asyncio.get_running_loop()
    worker_records, merged, worker_ms, slowest_ms, merge_ms = [], [], [], [], []
    for ids, _body, _nbytes in probes:
        routed: Dict[int, List[str]] = {}
        for spectrum_id in ids:
            mass = spectrum_from_payload(payloads[spectrum_id]).neutral_mass
            for spec in plan.partitions:
                if spec.intersects(mass - DEFAULT_OPEN_WINDOW_DA, mass + DEFAULT_OPEN_WINDOW_DA):
                    routed.setdefault(spec.index, []).append(spectrum_id)

        async def call(partition: int) -> Request:
            body = {"spectra": [payloads[i] for i in routed[partition]]}
            request = Request(due=loop.time(), spectra=tuple(routed[partition]))
            return await _send(
                ctx, workers[partition], "/search_batch", body, request, len(json.dumps(body))
            )

        replies = await asyncio.gather(*(call(partition) for partition in sorted(routed)))
        worker_records += replies
        latencies = [1000.0 * (r.done - r.started) for r in replies]
        worker_ms += latencies
        slowest_ms.append(max(latencies))
        if any(r.status != 200 for r in replies):
            continue
        by_partition = {
            partition: dict(zip(r.spectra, r.reply["psms"]))
            for partition, r in zip(sorted(routed), replies)
        }
        started = time.perf_counter()
        winners = [
            merge_psm_payloads(
                [
                    (by_partition[partition][spectrum_id], plan.partitions[partition])
                    for partition in sorted(routed)
                    if spectrum_id in by_partition[partition]
                ]
            )
            for spectrum_id in ids
        ]
        merge_ms.append(1000.0 * (time.perf_counter() - started))
        merged.append(Request(0.0, status=200, reply={"psms": winners}, spectra=ids))
    return {
        "worker_records": worker_records,
        "merged": merged,
        "worker_ms": median(worker_ms),
        "slowest_ms": median(slowest_ms),
        "merge_ms": median(merge_ms) if merge_ms else 0.0,
    }
