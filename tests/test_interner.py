"""Differential suite: the interned ID pipeline against the spec oracle.

:class:`PathInterner` replaces ``NamePath`` hashing in the mining and
detection hot loops with dense integer IDs assigned in first-occurrence
order.  Nothing about the *output* may differ from the definitions in
``tests/oracle.py`` — frequency tables, pattern supports, prune counts,
reports, quarantine records — for any worker count or cache
temperature, nor when a capped serve-time interner refuses some paths
and the scan walks them through the trie inline.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.core.namer import Namer, NamerConfig
from repro.corpus.generator import GeneratorConfig, generate_python_corpus
from repro.mining.interner import (
    INTERNER_SCHEMA,
    PathInterner,
    ShardPathCounts,
    merge_shard_path_counts,
)
from repro.mining.matcher import PatternMatcher, prefix_frequencies_ids
from repro.mining.miner import MiningConfig
from repro.resilience.faults import FAULTS, FaultPlan, FaultSpec
from repro.resilience.quarantine import Quarantine
from tests import oracle

SMALL = MiningConfig(min_pattern_support=8, min_path_frequency=4)


@pytest.fixture(scope="module")
def trained_namer():
    corpus = generate_python_corpus(
        GeneratorConfig(num_repos=8, issue_rate=0.15, seed=23)
    )
    namer = Namer(NamerConfig(mining=SMALL))
    namer.mine(corpus)
    violations = namer.all_violations()[:40]
    namer.train(violations, [i % 2 for i in range(len(violations))])
    return namer


@pytest.fixture(scope="module")
def statements(trained_namer):
    """(stmt, paths) pairs across the whole prepared corpus."""
    return [
        (ps.stmt, ps.paths)
        for pf in trained_namer.prepared
        for ps in pf.statements
    ]


@pytest.fixture(scope="module")
def path_lists(statements):
    return [paths for _, paths in statements]


def capped_twin(matcher: PatternMatcher, path_lists) -> PatternMatcher:
    """The matcher over the same patterns and rarity table with a fresh
    serve-time interner capped at half the corpus vocabulary: paths past
    the cap resolve to ``-1`` and scan through the inline trie walk."""
    twin = PatternMatcher(matcher.patterns, prefix_counts=matcher._corpus_counts)
    vocabulary = {p for paths in path_lists for p in paths}
    twin.attach_interner(PathInterner(), cap=len(vocabulary) // 2)
    return twin


def report_blob(groups) -> str:
    return json.dumps(
        [[r.to_json() for r in g] for g in groups], sort_keys=True
    )


class TestPathInterner:
    """The core table: first-occurrence IDs and derived lookup tables."""

    def test_first_occurrence_order(self, path_lists):
        interner, id_lists = PathInterner.build(path_lists)
        assert len(id_lists) == len(path_lists)
        # The n-th distinct path in stream order gets ID n.
        seen: dict = {}
        for paths in path_lists:
            for path in paths:
                if path not in seen:
                    seen[path] = len(seen)
        assert interner.paths == list(seen)
        assert all(
            interner.id_of(path) == pid for path, pid in seen.items()
        )
        # Round trip: every ID array resolves back to its input row.
        for paths, ids in zip(path_lists, id_lists):
            assert ids.dtype == np.int32
            assert [interner.resolve(int(i)) for i in ids] == list(paths)

    def test_build_matches_streaming_intern(self, path_lists):
        built, _ = PathInterner.build(path_lists)
        streamed = PathInterner()
        for paths in path_lists:
            for path in paths:
                streamed.intern(path)
        assert streamed.paths == built.paths
        assert len(streamed) == len(built)
        assert all(p in streamed for p in built.paths)

    def test_intern_capped(self, path_lists):
        flat = [p for paths in path_lists for p in paths]
        distinct: list = []
        for p in flat:
            if p not in distinct:
                distinct.append(p)
            if len(distinct) == 3:
                break
        interner = PathInterner(distinct[:2])
        # Known paths resolve under any cap; unknown past the cap -> -1.
        assert interner.intern_capped(distinct[0], 2) == 0
        assert interner.intern_capped(distinct[2], 2) == -1
        assert distinct[2] not in interner
        # Room left: the unknown path is admitted and memoized.
        assert interner.intern_capped(distinct[2], 3) == 2
        assert interner.intern_capped(distinct[2], 3) == 2

    def test_symbolic_table(self, path_lists):
        interner, _ = PathInterner.build(path_lists)
        concrete = len(interner)
        sym = interner.ensure_symbolic()
        assert len(sym) >= concrete
        for pid in range(concrete):
            path = interner.resolve(pid)
            expected = path if path.end is None else path.as_symbolic()
            assert interner.resolve(sym[pid]) == expected
        # Symbolic entries map to themselves.
        for pid in range(len(interner)):
            if interner.resolve(pid).end is None:
                assert interner.ensure_symbolic()[pid] == pid
        # Deterministic: a second interner over the same vocabulary
        # assigns identical symbolic IDs.
        twin = PathInterner(interner.paths[:concrete])
        assert twin.ensure_symbolic() == sym[:len(twin.ensure_symbolic())]
        assert twin.paths == interner.paths

    def test_sort_ranks_reproduce_legacy_sort(self, path_lists):
        interner, id_lists = PathInterner.build(path_lists)
        rank = interner.sort_ranks()
        checked = 0
        for paths, ids in zip(path_lists, id_lists):
            if len(paths) < 2:
                continue
            by_rank = sorted((int(i) for i in ids), key=rank.__getitem__)
            legacy = [interner.id_of(p) for p in sorted(paths)]
            assert by_rank == legacy
            checked += 1
        assert checked, "need multi-path statements to exercise sorting"

    def test_fold_and_name_ok_tables(self, path_lists):
        interner, _ = PathInterner.build(path_lists)
        interner.ensure_symbolic()
        fold = interner.fold_table()
        ok = interner.name_ok_table()
        assert len(fold) == len(interner) == len(ok)
        for a in range(len(interner)):
            pa = interner.resolve(a)
            assert ok[a] == (pa.end not in (None, "NUM", "STR", "BOOL"))
            if pa.end is None:
                assert fold[a] == -1
        # Fold IDs equal iff casefolded ends equal (concrete entries).
        concrete = [
            pid for pid in range(len(interner))
            if interner.resolve(pid).end is not None
        ]
        for a in concrete[:40]:
            for b in concrete[:40]:
                same = (
                    interner.resolve(a).end.casefold()
                    == interner.resolve(b).end.casefold()
                )
                assert (fold[a] == fold[b]) == same

    def test_pickle_ships_vocabulary_only(self, path_lists):
        interner, _ = PathInterner.build(path_lists)
        interner.ensure_symbolic()
        interner.sort_ranks()
        loaded = pickle.loads(pickle.dumps(interner))
        assert loaded.paths == interner.paths
        assert all(
            loaded.id_of(p) == interner.id_of(p) for p in interner.paths
        )
        # Derived tables rebuild identically on the other side.
        assert loaded.ensure_symbolic() == interner.ensure_symbolic()
        assert loaded.sort_ranks() == interner.sort_ranks()
        assert loaded.fold_table() == interner.fold_table()

    def test_schema_constant_is_int(self):
        assert isinstance(INTERNER_SCHEMA, int)


class TestShardMerge:
    """Vocabulary-carrying shard summaries remap to the flat build."""

    def test_merge_equals_flat_build(self, path_lists):
        flat_interner, id_lists = PathInterner.build(path_lists)
        flat_counts = np.bincount(
            np.concatenate(id_lists), minlength=len(flat_interner)
        )
        third = max(1, len(id_lists) // 3)
        shards = [
            id_lists[:third],
            id_lists[third : 2 * third],
            id_lists[2 * third :],
        ]
        summaries = [
            ShardPathCounts.from_id_arrays(shard, flat_interner)
            for shard in shards
        ]
        # Merging contiguous in-order summaries into a FRESH interner
        # reproduces the serial first-occurrence assignment exactly.
        fresh = PathInterner()
        merged = merge_shard_path_counts(summaries, fresh)
        assert fresh.paths == flat_interner.paths
        assert merged.tolist() == flat_counts.tolist()

    def test_merge_survives_pickle(self, path_lists):
        """Shard summaries cross the process boundary; the remap must
        not care."""
        interner, id_lists = PathInterner.build(path_lists)
        half = len(id_lists) // 2
        summaries = [
            ShardPathCounts.from_id_arrays(id_lists[:half], interner),
            ShardPathCounts.from_id_arrays(id_lists[half:], interner),
        ]
        shipped = [pickle.loads(pickle.dumps(s)) for s in summaries]
        assert shipped == summaries
        fresh_a, fresh_b = PathInterner(), PathInterner()
        assert merge_shard_path_counts(
            shipped, fresh_a
        ).tolist() == merge_shard_path_counts(summaries, fresh_b).tolist()
        assert fresh_a.paths == fresh_b.paths

    def test_empty_shard(self, path_lists):
        interner, id_lists = PathInterner.build(path_lists)
        empty = ShardPathCounts.from_id_arrays([], interner)
        assert empty.vocab == [] and empty.counts == []
        full = ShardPathCounts.from_id_arrays(id_lists, interner)
        fresh = PathInterner()
        merged = merge_shard_path_counts([empty, full, empty], fresh)
        assert fresh.paths == interner.paths
        assert merged.sum() == sum(len(row) for row in id_lists)


class TestFrequencyParity:
    """The vectorized prefix-frequency table vs the oracle's walk."""

    def test_prefix_frequencies_ids_parity(self, path_lists):
        interner, id_lists = PathInterner.build(path_lists)
        interner.ensure_symbolic()
        got = prefix_frequencies_ids(id_lists, interner)
        expected = oracle.prefix_frequencies(path_lists)
        assert got == expected
        # First-seen key order is part of the merge/serialization
        # contract, not just the values.
        assert list(got) == list(expected)

    def test_empty_corpus(self):
        assert prefix_frequencies_ids([], PathInterner()) == {}


class TestMinedArtifactParity:
    """mine() end to end against the oracle miner: uncached, cold cache
    and warm cache."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_documents_identical(self, workers, tmp_path, mined_document):
        corpus = generate_python_corpus(
            GeneratorConfig(num_repos=4, issue_rate=0.15, seed=11)
        )
        mining = MiningConfig(min_pattern_support=6, min_path_frequency=4)
        expected = mined_document(
            NamerConfig(mining=mining), corpus, oracle.OracleMiner
        )
        uncached = NamerConfig(mining=mining, workers=workers)
        cached = NamerConfig(
            mining=mining, workers=workers, cache_dir=str(tmp_path / "cache")
        )
        assert mined_document(uncached, corpus) == expected
        assert mined_document(cached, corpus) == expected  # cold
        assert mined_document(cached, corpus) == expected  # warm


class TestDifferentialDetect:
    """Detection through pre-resolved IDs — all interned, or partly
    refused by a capped interner — against the oracle."""

    def test_relations_parity(self, trained_namer, statements, path_lists):
        interned = trained_namer.matcher
        capped = capped_twin(interned, path_lists)
        patterns = interned.patterns
        matched = 0
        refused = 0
        for stmt, paths in statements:
            expected = oracle.relations(patterns, paths)
            expected_violations = oracle.violations(patterns, stmt, paths)
            for matcher in (interned, capped):
                ids = matcher.prepare_ids(paths)
                assert matcher.relations(paths, ids) == expected
                # The auto-resolving route (no ids passed) agrees too.
                assert matcher.relations(paths) == expected
                assert matcher.violations(stmt, paths, ids) == expected_violations
            refused += -1 in capped.prepare_ids(paths)
            matched += len(expected)
        assert matched, "corpus must exercise the matchers"
        assert refused, "the cap must refuse some paths"

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_byte_identical_reports(self, trained_namer, path_lists, workers):
        namer = trained_namer
        expected = report_blob(oracle.detect(namer, namer.prepared))
        interned = namer.matcher
        try:
            namer.matcher = capped_twin(interned, path_lists)
            got = report_blob(
                namer.detect_many(namer.prepared, workers=workers)
            )
        finally:
            namer.matcher = interned
        assert got == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_quarantine_parity_under_faults(
        self, trained_namer, path_lists, workers
    ):
        """Capped and fully interned matchers quarantine the same files
        under an armed fault plan, and report identically."""
        plan = FaultPlan(
            [
                FaultSpec(site="core.detect", rate=0.4),
                FaultSpec(site="core.featurize", rate=0.3),
            ],
            seed=5,
        )
        namer = trained_namer
        interned = namer.matcher

        def run():
            with FAULTS.armed(plan):
                quarantine = Quarantine()
                groups = namer.detect_many(
                    namer.prepared, quarantine=quarantine, workers=workers
                )
            return report_blob(groups), [
                (r.path, r.stage, r.kind, r.repo) for r in quarantine.records
            ]

        try:
            namer.matcher = capped_twin(interned, path_lists)
            capped_blob, capped_records = run()
        finally:
            namer.matcher = interned
        got_blob, got_records = run()
        assert got_records, "plan must actually trip to prove parity"
        assert capped_records == got_records
        assert capped_blob == got_blob

    def test_pickle_keeps_interner_drops_tables(self, trained_namer):
        """A matcher crossing the process boundary keeps its vocabulary
        (the interner travels) but rebuilds the scratch per-ID tables —
        the spawn-platform shipping path of the pooled prune/detect."""
        interned = trained_namer.matcher
        loaded = pickle.loads(pickle.dumps(interned))
        automaton = loaded._automaton
        assert automaton._interner is not None
        assert automaton._interner.paths == (
            interned._automaton._interner.paths
        )
        assert "_pid_node" not in automaton.__dict__
        for stmt, paths in [
            (ps.stmt, ps.paths)
            for pf in trained_namer.prepared[:4]
            for ps in pf.statements
        ]:
            ids = loaded.prepare_ids(paths)
            assert loaded.relations(paths, ids) == interned.relations(paths)
