"""Open modification search engine (the paper's application layer).

Candidate selection by precursor window, HD Hamming search with
pluggable backends, target-decoy FDR filtering, and the end-to-end
pipeline of paper Figure 2.
"""

from .candidates import CandidateIndex, WindowConfig
from .psm import PSM, SearchResult, evaluate_against_truth
from .fdr import assign_qvalues, decoy_statistics, filter_at_fdr, grouped_fdr
from .search import (
    DenseBackend,
    HDOmsSearcher,
    HDSearchConfig,
    PackedBackend,
    SimilarityBackend,
)
from .pipeline import (
    OmsPipeline,
    PipelineConfig,
    PipelineResult,
    decoy_factory_for,
)
from .modification_analysis import (
    DeltaMassPeak,
    ModificationReport,
    analyze_modifications,
    annotate_delta_mass,
    delta_mass_histogram,
)

__all__ = [
    "CandidateIndex",
    "WindowConfig",
    "PSM",
    "SearchResult",
    "evaluate_against_truth",
    "assign_qvalues",
    "decoy_statistics",
    "filter_at_fdr",
    "grouped_fdr",
    "DenseBackend",
    "HDOmsSearcher",
    "HDSearchConfig",
    "PackedBackend",
    "SimilarityBackend",
    "OmsPipeline",
    "PipelineConfig",
    "PipelineResult",
    "decoy_factory_for",
    "DeltaMassPeak",
    "ModificationReport",
    "analyze_modifications",
    "annotate_delta_mass",
    "delta_mass_histogram",
]
