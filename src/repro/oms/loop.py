"""Shared micro-batched preprocess → encode → score consumer loop.

:class:`MicroBatchSearchMixin` factors the pipelined query loop out of
the fan-out searchers (:class:`~repro.index.sharded.ShardedSearcher`,
:class:`~repro.store.search.SegmentedSearcher`): queries are
preprocessed and encoded in micro-batches on a producer thread running
one stage ahead of scoring, BER noise injection stays in the consumer
in arrival order, cascade mode retries unmatched queries through the
open pass, and one exact merge turns per-partition winners into PSMs.
Hosts provide the fan-out itself via ``_score_partitions`` and
``_reference`` plus the ``preprocessing`` / ``encoder`` / ``config`` /
``windows`` / ``ann_stats`` / ``_noise_rng`` / ``_pipeline_batch`` /
``backend_name`` attributes.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exec.pipeline import pipeline_map
from ..hdc.noise import flip_bits
from ..ms.preprocessing import preprocess
from ..ms.spectrum import Spectrum
from .psm import PSM, SearchResult
from .search import encode_queries


class MicroBatchSearchMixin:
    """Pipelined query loop shared by the fan-out searchers.

    Subclasses implement ``_score_partitions`` — every partition's
    :meth:`~repro.exec.scorer.ShardScorer.score_batch` result for one
    batch — and ``_reference(position)``; the mixin supplies batching,
    pipelining, noise injection, cascade retry, and the winner merge.
    """

    def _run_pass(
        self,
        pairs: Sequence[Tuple[Spectrum, np.ndarray]],
        mode: str,
    ) -> List[Optional[PSM]]:
        """One windowed scoring pass over already-encoded queries."""
        query_hvs = np.stack([hv for _, hv in pairs])
        query_masses = np.array([q.neutral_mass for q, _ in pairs])
        query_charges = np.array(
            [q.precursor_charge for q, _ in pairs], dtype=np.int64
        )
        half_width = (
            self.windows.standard_tolerance_da
            if mode == "standard"
            else self.windows.open_window_da
        )
        partials = self._score_partitions(
            query_hvs, query_masses, query_charges, half_width
        )
        if not partials:
            return [None] * len(pairs)
        if self.ann_stats is not None:
            # Partitions pre-aggregate their outcome counts; one merge
            # per partition keeps stats cheap across process boundaries.
            # Counts are per (query, partition) pair.
            for partial in partials:
                self.ann_stats.record_batch(
                    partial[4], int(partial[0].sum()), int(partial[5][0])
                )
        counts, scores, masses, positions = (
            np.stack([partial[field] for partial in partials])
            for field in range(4)
        )
        totals = counts.sum(axis=0)
        # Winner per query: max score, ties to lowest reference mass,
        # then lowest library position — exactly HDOmsSearcher's argmax
        # over its mass-sorted candidate window.
        winner = np.lexsort((positions, masses, -scores), axis=0)[0]

        results: List[Optional[PSM]] = []
        for column, (query, _hv) in enumerate(pairs):
            if totals[column] == 0 or totals[column] < self.config.min_candidates:
                results.append(None)
                continue
            row = int(winner[column])
            position = int(positions[row, column])
            reference = self._reference(position)
            results.append(
                PSM(
                    query_id=query.identifier,
                    reference_id=reference.identifier,
                    peptide_key=reference.peptide_key(),
                    score=float(scores[row, column]),
                    is_decoy=reference.is_decoy,
                    precursor_mass_difference=query.neutral_mass
                    - reference.neutral_mass,
                    mode=mode,
                    reference_mass=float(reference.neutral_mass),
                    library_position=position,
                )
            )
        return results

    def _search_batch(
        self, survivors: Sequence[Tuple[Spectrum, np.ndarray]]
    ) -> List[Optional[PSM]]:
        """Noise injection + mode dispatch for one encoded micro-batch.

        BER flips draw from the searcher's RNG here — in the consumer
        stage, per query in arrival order — so the noise stream is
        identical whether or not the encode stage ran ahead.
        """
        pairs: List[Tuple[Spectrum, np.ndarray]] = []
        for query, query_hv in survivors:
            if self.config.query_ber > 0:
                query_hv = flip_bits(
                    query_hv, self.config.query_ber, self._noise_rng
                )
            pairs.append((query, query_hv))
        if not pairs:
            return []
        if self.config.mode == "cascade":
            results = self._run_pass(pairs, "standard")
            retry = [
                column for column, psm in enumerate(results) if psm is None
            ]
            if retry:
                reopened = self._run_pass(
                    [pairs[column] for column in retry], "open"
                )
                for column, psm in zip(retry, reopened):
                    results[column] = psm
            return results
        return self._run_pass(pairs, self.config.mode)

    def search(self, queries: Sequence[Spectrum]) -> SearchResult:
        """Search all queries; PSM stream identical to HDOmsSearcher.

        Queries are preprocessed and encoded in micro-batches of
        ``pipeline_batch`` on a producer thread running one stage ahead
        of scoring (two-deep bounded queue — encode batch ``k+1`` while
        batch ``k`` is scored and merged).  Deterministic work (the
        preprocess + fused ``encode_batch``) moves ahead; everything
        consuming the searcher's RNG (BER injection) stays in the
        consumer in arrival order, so the PSM stream is unchanged.
        """
        start = time.perf_counter()
        unmatched = 0
        chunks = [
            queries[position : position + self._pipeline_batch]
            for position in range(0, len(queries), self._pipeline_batch)
        ]

        def encode_chunk(chunk):
            survivors = []
            dropped = 0
            for query in chunk:
                processed = preprocess(query, self.preprocessing)
                if processed is None:
                    dropped += 1
                else:
                    survivors.append((query, processed))
            encoded = encode_queries(
                self.encoder, [processed for _, processed in survivors]
            )
            return (
                [
                    (query, query_hv)
                    for (query, _processed), query_hv in zip(survivors, encoded)
                ],
                dropped,
            )

        results: List[Optional[PSM]] = []
        for survivors, dropped in pipeline_map(encode_chunk, chunks):
            unmatched += dropped
            results.extend(self._search_batch(survivors))

        psms = [psm for psm in results if psm is not None]
        unmatched += sum(1 for psm in results if psm is None)
        return SearchResult(
            psms=psms,
            num_queries=len(queries),
            num_unmatched=unmatched,
            elapsed_seconds=time.perf_counter() - start,
            backend_name=self.backend_name,
        )
