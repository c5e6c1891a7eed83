"""Tests for the unified EngineConfig API and its deprecation shims.

Every engine entry point — :class:`ShardedSearcher`,
:class:`HDOmsSearcher.from_index`, :class:`ServiceConfig` — must accept
one :class:`EngineConfig`; the old
per-entry-point kwargs keep working but warn, and mixing the two styles
is rejected outright.
"""

from __future__ import annotations

import warnings

import pytest

from repro.ann import AnnConfig
from repro.engine import EngineConfig
from repro.hdc.spaces import HDSpaceConfig
from repro.index.library import LibraryIndex
from repro.index.sharded import ShardedSearcher
from repro.oms.search import HDOmsSearcher, HDSearchConfig
from repro.service.server import ServiceConfig


@pytest.fixture(scope="module")
def index(small_workload, binning):
    return LibraryIndex.build(
        small_workload.references,
        space_config=HDSpaceConfig(dim=256, num_bins=binning.num_bins, seed=17),
        binning=binning,
    )


@pytest.fixture(scope="module")
def queries(small_workload):
    return small_workload.queries[:8]


def _psm_key(psm):
    return (psm.reference_id, psm.score, psm.is_decoy)


class TestEngineConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "turbo"},
            {"backend": "sparse"},
            {"kind": "batched"},
            {"num_shards": 0},
            {"num_workers": -1},
            {"executor": "fork"},
            {"score_block_rows": -4},
            {"pipeline_batch": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError, match="engine kind"):
            EngineConfig().replace(kind="bogus")

    def test_to_dict_is_json_safe(self):
        config = EngineConfig(ann=AnnConfig())
        payload = config.to_dict()
        assert payload["kind"] == "auto"
        assert payload["backend"] == "dense"
        assert isinstance(payload["ann"], dict)

    def test_backend_factories_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EngineConfig(backend=lambda: None)

    def test_build_backend_applies_block_rows(self):
        backend = EngineConfig(backend="packed", score_block_rows=64).build_backend()
        assert backend.name == "packed"


class TestShardedSearcherShims:
    def test_bare_call_keeps_historical_defaults_silently(self, index):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            searcher = ShardedSearcher(index)
        assert searcher.num_shards == 2
        assert searcher.engine.kind == "sharded"
        searcher.close()

    def test_legacy_kwarg_warns_but_works(self, index, queries):
        with pytest.warns(DeprecationWarning, match="deprecated"):
            searcher = ShardedSearcher(index, num_shards=3)
        assert searcher.num_shards == 3
        try:
            assert len(searcher.search(queries).psms) > 0
        finally:
            searcher.close()

    def test_engine_plus_legacy_rejected(self, index):
        with pytest.raises(ValueError, match="not both"):
            ShardedSearcher(
                index, num_shards=3, engine=EngineConfig(num_shards=2)
            )

    def test_engine_kind_mismatch_rejected(self, index):
        with pytest.raises(ValueError, match="cannot host engine kind"):
            ShardedSearcher(index, engine=EngineConfig(kind="segmented"))

    def test_engine_path_matches_legacy_path(self, index, queries):
        with pytest.warns(DeprecationWarning):
            legacy = ShardedSearcher(
                index, num_shards=3, backend="packed", num_workers=0
            )
        modern = ShardedSearcher(
            index,
            engine=EngineConfig(
                kind="sharded", num_shards=3, backend="packed", num_workers=0
            ),
        )
        try:
            legacy_psms = [_psm_key(p) for p in legacy.search(queries).psms]
            modern_psms = [_psm_key(p) for p in modern.search(queries).psms]
            assert legacy_psms == modern_psms
        finally:
            legacy.close()
            modern.close()

    def test_engine_ann_folds_into_config(self, index):
        ann = AnnConfig(ann_threshold=1)
        searcher = ShardedSearcher(index, engine=EngineConfig(ann=ann))
        assert searcher.config.ann == ann
        assert searcher.ann_stats is not None
        searcher.close()

    def test_engine_ann_conflict_rejected(self, index):
        with pytest.raises(ValueError, match="conflicting ANN"):
            ShardedSearcher(
                index,
                config=HDSearchConfig(ann=AnnConfig(num_tables=2)),
                engine=EngineConfig(ann=AnnConfig(num_tables=4)),
            )


class TestFromIndexEngine:
    def test_hd_searcher_accepts_engine(self, index, queries):
        baseline = HDOmsSearcher.from_index(index)
        engined = HDOmsSearcher.from_index(
            index, engine=EngineConfig(backend="packed")
        )
        assert engined.backend.name == "packed"
        assert [_psm_key(p) for p in engined.search(queries).psms] == [
            _psm_key(p) for p in baseline.search(queries).psms
        ]

    def test_hd_searcher_engine_ann(self, index):
        ann = AnnConfig(ann_threshold=1)
        searcher = HDOmsSearcher.from_index(index, engine=EngineConfig(ann=ann))
        assert searcher.config.ann == ann

    def test_hd_searcher_engine_ann_conflict(self, index):
        with pytest.raises(ValueError, match="conflicting ANN"):
            HDOmsSearcher.from_index(
                index,
                config=HDSearchConfig(ann=AnnConfig(num_tables=2)),
                engine=EngineConfig(ann=AnnConfig(num_tables=4)),
            )

    def test_single_shard_searcher_accepts_block_rows(self, index, queries):
        baseline = HDOmsSearcher.from_index(index)
        with ShardedSearcher(
            index, engine=EngineConfig(kind="sharded", score_block_rows=16)
        ) as engined:
            assert [_psm_key(p) for p in engined.search(queries).psms] == [
                _psm_key(p) for p in baseline.search(queries).psms
            ]


class TestServiceConfigShims:
    def test_defaults_are_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = ServiceConfig()
        assert config.resolved_engine() == EngineConfig(
            kind="auto", num_shards=1, num_workers=0
        )

    def test_legacy_field_warns(self):
        with pytest.warns(DeprecationWarning, match="deprecated"):
            config = ServiceConfig(num_shards=4)
        assert config.resolved_engine().num_shards == 4

    def test_engine_config_plus_legacy_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            ServiceConfig(
                num_shards=4, engine_config=EngineConfig(num_shards=2)
            )

    def test_engine_config_passes_through(self):
        engine = EngineConfig(kind="sharded", num_shards=3, executor="thread")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = ServiceConfig(engine_config=engine)
        assert config.resolved_engine() == engine

    def test_legacy_ann_folds_into_engine_config(self):
        ann = AnnConfig(ann_threshold=1)
        config = ServiceConfig(
            ann=ann, engine_config=EngineConfig(kind="sharded")
        )
        assert config.resolved_engine().ann == ann
        assert config.resolved_ann() == ann

    def test_with_ann_targets_engine_config(self):
        ann = AnnConfig(ann_threshold=1)
        config = ServiceConfig(engine_config=EngineConfig(kind="sharded"))
        updated = config.with_ann(ann)
        assert updated.resolved_ann() == ann
        assert updated.engine_config.ann == ann
        assert updated.with_ann(None).resolved_ann() is None

    def test_default_config_accepts_cascade(self):
        config = ServiceConfig(mode="cascade")
        assert config.resolved_engine().kind == "auto"
