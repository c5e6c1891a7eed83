"""Per-shard scoring shared by every execution mode.

:class:`ShardScorer` is the unit of work each executor runs: one
shard's prepared similarity backend plus its per-charge mass index,
built from a *payload* dict (see :func:`shard_payload`).  Serial,
thread, and process execution all construct the identical scorer from
identical inputs, which is what keeps the three modes bit-identical.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..ann import OUTCOMES, CandidatePrefilter, HammingLSHIndex
from ..oms.search import DenseBackend, PackedBackend

#: Named backend factories usable across process boundaries.
BACKEND_FACTORIES: Dict[str, Callable] = {
    "dense": DenseBackend,
    "packed": PackedBackend,
}

#: The ANN table arrays persisted per shard (``HammingLSHIndex.to_arrays``).
ANN_ARRAY_KEYS = ("ann_bit_positions", "ann_sorted_keys", "ann_row_order")


def resolve_backend(backend: str) -> Callable:
    """Map a backend name to its factory.

    Raises:
        ValueError: For names outside :data:`BACKEND_FACTORIES`.
    """
    try:
        return BACKEND_FACTORIES[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{sorted(BACKEND_FACTORIES)}"
        ) from None


def shard_payload(
    shard_id: int,
    bounds: Tuple[int, int],
    packed: np.ndarray,
    masses: np.ndarray,
    charges: np.ndarray,
    *,
    dim: int,
    backend: str,
    charge_aware: bool,
    ann=None,
    ann_tables: Optional[HammingLSHIndex] = None,
    score_block_rows: Optional[int] = None,
) -> Dict:
    """Build one shard's scorer payload from whole-library arrays.

    ``packed`` / ``masses`` / ``charges`` are the *full* library arrays
    (typically zero-copy views into a
    :class:`~repro.exec.arena.SharedShardArena`); the shard's
    ``bounds = (start, stop)`` row range is sliced out as views, never
    copied — shards are contiguous row ranges by construction.
    """
    start, stop = bounds
    return {
        "shard_id": shard_id,
        "positions": np.arange(start, stop, dtype=np.int64),
        "packed": packed[start:stop],
        "dim": dim,
        "masses": masses[start:stop],
        "charges": charges[start:stop],
        "backend": backend,
        "charge_aware": charge_aware,
        "ann": ann,
        "ann_tables": ann_tables,
        "score_block_rows": score_block_rows,
    }


class ShardScorer:
    """One shard's prepared backend, rows ordered by (charge bucket, mass).

    The rows are stably sorted by (charge bucket, precursor mass) before
    the backend is prepared, so each charge bucket is one contiguous row
    range and every precursor window is a contiguous slice of it.  Ties
    keep row order, i.e. library-position order, which is what makes the
    first argmax over a window the oracle's winner (highest score, then
    lowest mass, then lowest position) — the same ordering
    :class:`~repro.oms.candidates.CandidateIndex` and
    :class:`~repro.ann.CandidatePrefilter` use.
    """

    def __init__(self, payload: Dict) -> None:
        dim = int(payload["dim"])
        packed = np.asarray(payload["packed"])
        masses = np.asarray(payload["masses"], dtype=np.float64)
        charges = np.asarray(payload["charges"], dtype=np.int64)
        self.charge_aware = bool(payload["charge_aware"])
        keys = charges if self.charge_aware else np.zeros_like(charges)
        # lexsort is stable; already-ordered rows skip the packed copy.
        order = np.lexsort((masses, keys))
        in_order = np.array_equal(order, np.arange(len(order)))
        self.backend = resolve_backend(payload["backend"])()
        block_rows = payload.get("score_block_rows")
        if block_rows is not None:
            self.backend.set_block_rows(block_rows)
        self.backend.prepare_packed(packed if in_order else packed[order], dim)
        self._masses = masses[order]
        self._positions = np.asarray(payload["positions"])[order]
        bucket_keys, starts = np.unique(keys[order], return_index=True)
        stops = np.append(starts[1:], len(order))
        self._buckets: Dict[int, Tuple[int, int]] = {
            int(key): (int(start), int(stop))
            for key, start, stop in zip(bucket_keys, starts, stops)
        }
        # Optional ANN prefilter: each shard hashes its *own* rows, so
        # the shortlist union across shards is at least as inclusive as
        # one global prefilter (every shard gets its full candidate
        # budget).  Pre-built tables (from the arena) are adopted as-is;
        # building here from the same rows + config yields identical
        # tables, so both paths stay bit-identical.  The prefilter sees
        # rows in payload order; its per-bucket ranks index the sorted
        # rows above.
        self.prefilter: Optional[CandidatePrefilter] = None
        ann = payload.get("ann")
        tables = payload.get("ann_tables")
        if tables is None and ann is not None:
            tables = HammingLSHIndex.build(packed, dim, ann)
        if tables is not None:
            self.prefilter = CandidatePrefilter(
                tables, masses, charges, charge_aware=self.charge_aware
            )

    def score_batch(
        self,
        query_hvs: np.ndarray,
        query_masses: np.ndarray,
        query_charges: np.ndarray,
        half_width: float,
    ) -> Tuple[np.ndarray, ...]:
        """Best candidate per query within this shard.

        Returns ``(counts, best_scores, best_masses, best_positions,
        ann_outcomes, ann_scored_rows)`` where empty windows yield
        ``(0, -inf, +inf, -1)`` so they lose every merge comparison.
        ``counts`` holds full precursor-window sizes (even under ANN) so
        ``min_candidates`` gating in the parent is unchanged;
        ``ann_outcomes`` is a length-3 count vector in
        :data:`repro.ann.OUTCOMES` order and ``ann_scored_rows`` the
        rows actually scored (both all-zero without a prefilter).
        """
        num_queries = len(query_masses)
        counts = np.zeros(num_queries, dtype=np.int64)
        best_scores = np.full(num_queries, -np.inf, dtype=np.float64)
        best_rows = np.full(num_queries, -1, dtype=np.int64)
        ann_outcomes = np.zeros(len(OUTCOMES), dtype=np.int64)
        ann_scored = np.zeros(1, dtype=np.int64)
        keys = (
            np.asarray(query_charges, dtype=np.int64)
            if self.charge_aware
            else np.zeros(num_queries, dtype=np.int64)
        )
        if self.prefilter is not None:
            # ANN path, per query: score the shortlist's bucket ranks.
            for row in range(num_queries):
                selection = self.prefilter.select(
                    query_hvs[row],
                    float(query_masses[row]),
                    int(query_charges[row]),
                    half_width,
                )
                ann_outcomes[OUTCOMES.index(selection.outcome)] += 1
                ann_scored[0] += len(selection.positions)
                if selection.window_count == 0:
                    continue
                window = self._buckets[int(keys[row])][0] + selection.ranks
                scores = self.backend.scores(query_hvs[row], window)
                best = int(np.argmax(scores))
                counts[row] = selection.window_count
                best_scores[row] = float(scores[best])
                best_rows[row] = window[best]
        else:
            # Exact path: one blocked pass per charge bucket.
            for key in np.unique(keys):
                bucket = self._buckets.get(int(key))
                if bucket is None:
                    continue
                start, stop = bucket
                rows = np.flatnonzero(keys == key)
                bucket_masses = self._masses[start:stop]
                lows = start + np.searchsorted(
                    bucket_masses, query_masses[rows] - half_width, "left"
                )
                highs = start + np.searchsorted(
                    bucket_masses, query_masses[rows] + half_width, "right"
                )
                counts[rows] = highs - lows
                live = highs > lows
                if not live.any():
                    continue
                rows, lows, highs = rows[live], lows[live], highs[live]
                best_scores[rows], best_rows[rows] = self._best_in_windows(
                    np.asarray(query_hvs[rows], dtype=np.float32), lows, highs
                )
        found = best_rows >= 0
        best_masses = np.full(num_queries, np.inf, dtype=np.float64)
        best_positions = np.full(num_queries, -1, dtype=np.int64)
        best_masses[found] = self._masses[best_rows[found]]
        best_positions[found] = self._positions[best_rows[found]]
        return (
            counts,
            best_scores,
            best_masses,
            best_positions,
            ann_outcomes,
            ann_scored,
        )

    def _best_in_windows(
        self, queries: np.ndarray, lows: np.ndarray, highs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First-argmax winner of each query over its rows ``[low, high)``.

        The union of the windows splits into disjoint runs of rows (one
        run for open search, about one per query for narrow windows);
        each run is scored in backend-sized column blocks, each block
        against only the queries whose window meets it.  Rows outside a
        query's own window are masked to ``-inf``, and a later block
        replaces the running best only on a strictly greater score, so
        the winner is the first argmax of the window.
        """
        best_scores = np.full(len(lows), -np.inf, dtype=np.float64)
        best_rows = np.full(len(lows), -1, dtype=np.int64)
        order = np.argsort(lows)
        run_lows = lows[order]
        run_highs = np.maximum.accumulate(highs[order])
        breaks = np.flatnonzero(run_lows[1:] >= run_highs[:-1]) + 1
        starts = run_lows[np.r_[0, breaks]]
        stops = run_highs[np.r_[breaks - 1, len(order) - 1]]
        for start, stop in zip(starts.tolist(), stops.tolist()):
            step = self.backend.block_rows or stop - start
            for offset in range(start, stop, step):
                end = min(offset + step, stop)
                active = np.flatnonzero((lows < end) & (highs > offset))
                block = (
                    queries if len(active) == len(queries) else queries[active]
                )
                columns = np.arange(offset, end)
                inside = (columns >= lows[active, None]) & (
                    columns < highs[active, None]
                )
                scores = np.where(
                    inside, self.backend.score_slice(block, offset, end), -np.inf
                )
                local = scores.argmax(axis=1)
                value = scores[np.arange(len(active)), local]
                better = value > best_scores[active]
                winners = active[better]
                best_scores[winners] = value[better]
                best_rows[winners] = offset + local[better]
        return best_scores, best_rows
