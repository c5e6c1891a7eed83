"""Precursor-window-aware candidate selection on top of the LSH index.

:class:`CandidatePrefilter` is the piece the searchers talk to.  It
combines the :class:`~repro.ann.lsh.HammingLSHIndex` shortlist with the
same per-charge mass ordering the exact searchers use, and returns the
shortlist **in that exact ordering** — so downstream ``argmax`` breaks
score ties identically to brute force (lowest precursor mass, then
lowest library position), and the final PSM is bit-identical whenever
the true winner survives the shortlist.

Each query resolves to one of three outcomes:

``bypass``
    The precursor window holds fewer than ``ann_threshold`` rows —
    exact scoring is already cheap, so the full window is returned.
``prefiltered``
    The LSH shortlist intersected the window; only those rows are
    scored exactly.
``fallback``
    The shortlist missed the window entirely; the full window is
    returned so the prefilter can never *lose* a match outright.

:class:`AnnStats` accumulates these outcomes (thread-safe) so services
and benchmarks can report recall pressure and candidate ratios.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .lsh import HammingLSHIndex

#: The three possible ways one query moves through the prefilter.
OUTCOMES = ("bypass", "prefiltered", "fallback")


@dataclass(frozen=True)
class PrefilterSelection:
    """What the prefilter decided for one query.

    Attributes:
        positions: Global library row indices to score, ordered by
            (precursor mass, library position) exactly like the
            brute-force candidate window.
        ranks: The same rows as local ranks into the per-charge
            mass-sorted bucket (what the shard scorer indexes its
            bucket matrices with).
        window_count: Rows the full precursor window holds; this is the
            number ``min_candidates`` gates compare against, regardless
            of how small the shortlist is.
        outcome: ``"bypass"``, ``"prefiltered"``, or ``"fallback"``.
    """

    positions: np.ndarray
    ranks: np.ndarray
    window_count: int
    outcome: str


class AnnStats:
    """Thread-safe counters over prefilter outcomes.

    Tracks how many queries took each outcome plus the total rows the
    full windows held (``window_rows``) versus the rows actually scored
    (``scored_rows``) — their ratio is the measured work saving.
    """

    def __init__(self) -> None:
        """Start all counters at zero."""
        self._lock = threading.Lock()
        self._outcomes = {outcome: 0 for outcome in OUTCOMES}
        self._window_rows = 0
        self._scored_rows = 0

    def record(self, outcome: str, window_rows: int, scored_rows: int) -> None:
        """Account one query.

        Args:
            outcome: One of :data:`OUTCOMES`.
            window_rows: Rows the full precursor window held.
            scored_rows: Rows handed to the exact scorer.

        Raises:
            KeyError: If ``outcome`` is not a known outcome.
        """
        with self._lock:
            if outcome not in self._outcomes:
                raise KeyError(f"unknown prefilter outcome {outcome!r}")
            self._outcomes[outcome] += 1
            self._window_rows += int(window_rows)
            self._scored_rows += int(scored_rows)

    def record_batch(
        self, outcomes: np.ndarray, window_rows: int, scored_rows: int
    ) -> None:
        """Merge pre-aggregated counts (e.g. returned by shard workers).

        Args:
            outcomes: Length-3 integer array of counts in
                :data:`OUTCOMES` order.
            window_rows: Summed window sizes across the batch.
            scored_rows: Summed scored rows across the batch.
        """
        with self._lock:
            for index, outcome in enumerate(OUTCOMES):
                self._outcomes[outcome] += int(outcomes[index])
            self._window_rows += int(window_rows)
            self._scored_rows += int(scored_rows)

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of all counters."""
        with self._lock:
            return {
                "bypassed": self._outcomes["bypass"],
                "prefiltered": self._outcomes["prefiltered"],
                "fallbacks": self._outcomes["fallback"],
                "window_rows": self._window_rows,
                "scored_rows": self._scored_rows,
            }


class _ChargeBucket:
    """Mass-sorted view of one charge's library rows (internal)."""

    __slots__ = ("sorted_masses", "sorted_positions", "rank_of_global")

    def __init__(self, positions: np.ndarray, masses: np.ndarray, num_rows: int):
        order = np.argsort(masses, kind="stable")
        self.sorted_masses = masses[order]
        self.sorted_positions = positions[order]
        # Global row index -> local rank in this bucket (-1 elsewhere),
        # so "is row r in the window?" is a range check on one gather.
        self.rank_of_global = np.full(num_rows, -1, dtype=np.int64)
        self.rank_of_global[self.sorted_positions] = np.arange(
            len(order), dtype=np.int64
        )


class CandidatePrefilter:
    """Window-aware LSH candidate selection with exact-order output.

    Built once per searcher from the library's masses/charges plus a
    ready :class:`HammingLSHIndex`; :meth:`select` is read-only and
    thread-safe.
    """

    def __init__(
        self,
        lsh: HammingLSHIndex,
        masses: np.ndarray,
        charges: np.ndarray,
        charge_aware: bool = True,
    ) -> None:
        """Organise library rows into per-charge mass-sorted buckets.

        Args:
            lsh: Hash tables over the same rows ``masses`` describes.
            masses: ``(num_rows,)`` neutral masses, original row order.
            charges: ``(num_rows,)`` precursor charges, original order.
            charge_aware: When True (the searchers' default), queries
                only match rows of their own charge; when False all
                rows share one bucket.

        Raises:
            ValueError: If array lengths disagree with ``lsh.num_rows``.
        """
        masses = np.asarray(masses, dtype=np.float64)
        charges = np.asarray(charges, dtype=np.int64)
        if len(masses) != lsh.num_rows or len(charges) != lsh.num_rows:
            raise ValueError(
                f"metadata rows ({len(masses)} masses, {len(charges)} "
                f"charges) disagree with LSH rows ({lsh.num_rows})"
            )
        self.lsh = lsh
        self.config = lsh.config
        self.charge_aware = bool(charge_aware)
        self._buckets: Dict[int, _ChargeBucket] = {}
        num_rows = lsh.num_rows
        if self.charge_aware:
            for charge in np.unique(charges):
                mask = charges == charge
                positions = np.nonzero(mask)[0].astype(np.int64)
                self._buckets[int(charge)] = _ChargeBucket(
                    positions, masses[mask], num_rows
                )
        else:
            positions = np.arange(num_rows, dtype=np.int64)
            self._buckets[0] = _ChargeBucket(positions, masses, num_rows)

    def _bucket_for(self, charge: int) -> Optional[_ChargeBucket]:
        if not self.charge_aware:
            return self._buckets[0]
        return self._buckets.get(int(charge))

    def select(
        self,
        query_hv: np.ndarray,
        neutral_mass: float,
        charge: int,
        half_width: float,
    ) -> PrefilterSelection:
        """Choose the rows to score exactly for one query.

        Args:
            query_hv: ``(dim,)`` bipolar query hypervector.
            neutral_mass: Query neutral (uncharged) mass in Da.
            charge: Query precursor charge.
            half_width: Half-width of the precursor window in Da
                (``standard_tolerance_da`` or ``open_window_da``).

        Returns:
            A :class:`PrefilterSelection`; ``positions`` is empty with
            ``window_count == 0`` when no library row shares the charge
            or falls in the window.
        """
        empty = np.empty(0, dtype=np.int64)
        bucket = self._bucket_for(charge)
        if bucket is None:
            return PrefilterSelection(empty, empty, 0, "bypass")
        low = int(
            np.searchsorted(bucket.sorted_masses, neutral_mass - half_width, "left")
        )
        high = int(
            np.searchsorted(bucket.sorted_masses, neutral_mass + half_width, "right")
        )
        window_count = high - low
        if window_count == 0:
            return PrefilterSelection(empty, empty, 0, "bypass")
        window_ranks = np.arange(low, high, dtype=np.int64)
        if window_count < self.config.ann_threshold:
            return PrefilterSelection(
                bucket.sorted_positions[low:high],
                window_ranks,
                window_count,
                "bypass",
            )
        candidates = self.lsh.query(query_hv)
        if candidates.size:
            ranks = bucket.rank_of_global[candidates]
            ranks = ranks[(ranks >= low) & (ranks < high)]
        else:
            ranks = empty
        if ranks.size == 0:
            return PrefilterSelection(
                bucket.sorted_positions[low:high],
                window_ranks,
                window_count,
                "fallback",
            )
        # Ascending rank == ascending (mass, library position): scoring
        # in this order reproduces brute force's argmax tie-breaking.
        ranks = np.sort(ranks)
        return PrefilterSelection(
            bucket.sorted_positions[ranks], ranks, window_count, "prefiltered"
        )
